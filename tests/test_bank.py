"""Channel bank: brute-force oracles for the cached statistics, the 2x2
quadratic form against the Cholesky route, the c3 memo, and draw counts."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from relaycov import capacity, channel, cli, cooperation, coverage, matrixkit
from relaycov.capacity import McConfig, ScenarioConfig, sample_bound_realizations
from relaycov.channel import FadingModel, LosPrototype, resolve_los
from relaycov.coverage import SolverConfig, optimal_relay_radius

LN2 = math.log(2.0)
PURE_LOS_K = 1e9


def rician(k, kind):
    proto = (LosPrototype.poorly_conditioned() if kind == "poor"
             else LosPrototype.well_conditioned())
    return FadingModel.rician(k, proto)


def oracle_links(scn, mc):
    """Fresh draws from one Philox generator keyed by (seed, 0), links in
    canonical order."""
    shapes = {"sr": (scn.M_r, scn.N_s), "sd": (scn.M_d, scn.N_s),
              "rd": (scn.M_d, scn.N_r), "rd2": (scn.M_d, scn.N_r)}
    models = {"sr": scn.fading_sr, "sd": scn.fading_sd,
              "rd": scn.fading_rd, "rd2": scn.fading_rd}
    rng = np.random.Generator(np.random.Philox(
        key=np.array([mc.seed, 0], dtype=np.uint64)))
    links = {}
    for name in ("sr", "sd", "rd", "rd2"):
        rows, cols = shapes[name]
        z = rng.standard_normal((mc.samples, rows, cols, 2))
        h = (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)
        k = models[name].k_factor
        if k > 0:
            los = resolve_los(models[name].los, rows, cols)
            h = np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * h
        links[name] = h
    return links


def oracle_rate(terms):
    """log2 det(I + sum a H H+) by slogdet."""
    rows = terms[0][1].shape[1]
    M = np.eye(rows) + sum(a * (H @ np.conj(np.swapaxes(H, -1, -2)))
                           for a, H in terms)
    return np.linalg.slogdet(M)[1] / LN2


SCENARIOS = {
    "2x2": {},
    "3x3": dict(N_s=3, N_r=3, M_r=3, M_d=3),
    "4x4-rician-well": dict(N_s=4, N_r=4, M_r=4, M_d=4,
                            fading_sr=rician(10.0, "well")),
    "Ns1-Mr3": dict(N_s=1, M_r=3),
    "Ns3-Md2": dict(N_s=3, M_d=2),
}


class TestOracle:
    # Two independent draw sets per shape. c1 is brute-forced from the
    # stacked raw matrices, not through Sylvester's identity.
    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_bounds_match_brute_force(self, name, seed):
        scn = ScenarioConfig(**SCENARIOS[name])
        mc = McConfig(seed=seed, samples=500)
        r_R, r_D, r_DR, r_DR2 = 0.9, 1.3, 0.7, 1.6
        s = sample_bound_realizations(scn, r_R, r_D, r_DR, mc)
        coop = cooperation.estimate_coop_sum_rate(scn, r_D, r_DR, r_DR2, mc)
        got = {"c1": s.c1, "c2": s.c2, "c3": s.c3, "coop": coop._values}

        H = oracle_links(scn, mc)
        a_s, a_r, alpha = scn.P_s / scn.N_s, scn.P_r / scn.N_r, scn.alpha
        mac = [(a_s * r_D ** -alpha, H["sd"]), (a_r * r_DR ** -alpha, H["rd"])]
        H_bc = np.concatenate([r_D ** (-alpha / 2) * H["sd"],
                               r_R ** (-alpha / 2) * H["sr"]], axis=1)
        want = {
            "c1": oracle_rate([(a_s, H_bc)]),
            "c2": oracle_rate(mac),
            "c3": oracle_rate([(a_s * r_R ** -alpha, H["sr"])]),
            "coop": oracle_rate(mac + [(a_r * r_DR2 ** -alpha, H["rd2"])]),
        }
        for bound, values in want.items():
            assert got[bound].shape == (mc.samples,)
            np.testing.assert_allclose(got[bound], values, rtol=0, atol=1e-11,
                                       err_msg=bound)

    def test_request_order_does_not_change_draws(self):
        scn = ScenarioConfig(N_s=3, M_r=3)
        mc = McConfig(seed=5, samples=300)
        capacity.release_bank()
        coop = cooperation.estimate_coop_sum_rate(scn, 1.3, 0.7, 1.6, mc)
        c3 = capacity.estimate_c3(scn, 0.9, mc)._values
        late = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        capacity.release_bank()
        fresh = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        fresh_coop = cooperation.estimate_coop_sum_rate(scn, 1.3, 0.7, 1.6, mc)
        assert np.array_equal(c3, fresh.c3)
        assert np.array_equal(coop._values, fresh_coop._values)
        for bound in ("c1", "c2", "c3"):
            assert np.array_equal(getattr(late, bound), getattr(fresh, bound))


def quadratic_rows(E1, E2):
    """Coefficient rows of det(I + a G1 + b G2) for monomials
    [a, b, a^2, b^2, ab], from packed Grams."""
    return np.stack([E1[0] + E1[1], E2[0] + E2[1], matrixkit.det_2x2(E1),
                     matrixkit.det_2x2(E2),
                     matrixkit.mixed_discriminant_2x2(E1, E2)])


class TestClosedForm:
    @pytest.mark.parametrize("model", [
        FadingModel.rayleigh(), rician(PURE_LOS_K, "poor"),
        rician(PURE_LOS_K, "well")], ids=["rayleigh", "los-poor", "los-well"])
    def test_matches_cholesky_per_sample(self, model):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([3, 0], dtype=np.uint64)))
        H1, H2 = (channel.sample_link_batch(model, 5000, 2, 2, rng)
                  for _ in range(2))
        G1, G2 = matrixkit.gram(H1), matrixkit.gram(H2)
        T = quadratic_rows(matrixkit.gram_entries_2x2(H1),
                           matrixkit.gram_entries_2x2(H2))
        for a in (1e-3, 0.1, 1.0, 5.0, 50.0):
            for b in (0.0, 0.3, 20.0):
                np.testing.assert_allclose(
                    matrixkit.logdet_quadratic_2x2(
                        (np.array([a, b, a * a, b * b, a * b]), T)),
                    matrixkit.logdet_identity_plus_batch(a * G1 + b * G2),
                    rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -2.0])
    def test_non_finite_or_nonpositive_determinant_raises(self, bad):
        T = np.zeros((2, 3))
        T[0, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            matrixkit.logdet_quadratic_2x2((np.array([1.0, 1.0]), T))


@pytest.fixture
def draws(monkeypatch):
    """Shapes (n, rows, cols) of every Gaussian batch drawn, starting with
    no bank and no stored draws."""
    calls = []
    real = matrixkit.sample_complex_gaussian_batch

    def counting(n, rows, cols, rng):
        calls.append((n, rows, cols))
        return real(n, rows, cols, rng)

    monkeypatch.setattr(matrixkit, "sample_complex_gaussian_batch", counting)
    monkeypatch.setattr(capacity, "_draws", None)
    capacity.release_bank()
    yield calls
    capacity.release_bank()


class TestDrawCounts:
    # Distinct link shapes: sr (3, 1), sd (2, 1), rd and rd2 (2, 2).
    SCN = ScenarioConfig(N_s=1, M_r=3, R_c=3.0)

    def test_coop_sweep_draws_each_link_once(self, draws):
        mc = McConfig(samples=400)
        region = cooperation.coop_coverage_boundary(
            self.SCN, 0.95, 4, 16, mc, SolverConfig())
        assert any(r > 0 for r in region.radii)
        assert draws == [(400, 3, 1), (400, 2, 1), (400, 2, 2), (400, 2, 2)]

    def test_relay_radius_solve_draws_only_sr(self, draws):
        optimal_relay_radius(self.SCN, McConfig(samples=400), SolverConfig())
        assert draws == [(400, 3, 1)]

    def test_one_bank_alive_at_a_time(self, draws):
        mc_a, mc_b = McConfig(seed=1, samples=200), McConfig(seed=2, samples=200)
        for mc in (mc_a, mc_a, mc_b, mc_a):
            capacity.estimate_c3(self.SCN, 1.0, mc)
        assert len(draws) == 3

    def test_each_cli_run_draws_afresh(self, draws, tmp_path):
        # A run's stored draws outlive it: the same run again draws
        # nothing, a run at another seed draws once.
        manifest = replace(cli.parse_config("samples=500\nsweep_points=3\n"),
                           command="optloc", output_path=str(tmp_path / "o.csv"))
        assert cli.run(manifest) == 0
        assert draws == [(500, 2, 2)]
        assert cli.run(manifest) == 0
        assert draws == [(500, 2, 2)]
        assert cli.run(replace(manifest, mc=McConfig(seed=7, samples=500))) == 0
        assert draws == [(500, 2, 2)] * 2

    def test_cutset_coverage_draws_each_link_once(self, draws, tmp_path):
        # The relay-radius solve draws sr; c1 then reuses sr's Gram and
        # draws sd once for both of its sides.
        cfg = tmp_path / "cutset.cfg"
        cfg.write_text("samples=400\nN_s=1\nM_r=3\nR_c=3.0\nmetric=cutset\n")
        out = tmp_path / "o.csv"
        assert cli.main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        assert draws == [(400, 3, 1), (400, 2, 1), (400, 2, 2)]


# The fading models of the benchmark's optloc scan: Rayleigh, then Rician
# at six K factors with either LOS prototype.
SCAN_FADINGS = ["rayleigh"] + [f"rician:K={k}:los={los}"
                               for k in (3, 5, 7, 10, 14, 20)
                               for los in ("poor", "well")]


class TestLinkStore:
    def optloc(self, tmp_path, fading, config=""):
        """One optloc run; its CSV's bytes."""
        out = tmp_path / "o.csv"
        manifest = replace(
            cli.parse_config(f"samples=500\nsweep_points=3\n"
                             f"fading_sr={fading}\n{config}"),
            command="optloc", output_path=str(out))
        assert cli.run(manifest) == 0
        return out.read_bytes()

    def test_fading_scan_draws_sr_once(self, draws, tmp_path, monkeypatch):
        stored = [self.optloc(tmp_path, fading) for fading in SCAN_FADINGS]
        assert draws == [(500, 2, 2)]
        for fading, csv in zip(SCAN_FADINGS, stored):
            monkeypatch.setattr(capacity, "_draws", None)
            assert self.optloc(tmp_path, fading) == csv, fading
        assert len(draws) == 1 + len(SCAN_FADINGS)

    @pytest.mark.parametrize("change", [
        "seed=7", "samples=400", "N_s=1", "N_r=1", "M_r=3", "M_d=3"])
    def test_another_key_draws_afresh(self, change, draws, tmp_path):
        self.optloc(tmp_path, "rayleigh")
        first = capacity._draws.key
        self.optloc(tmp_path, "rayleigh", change + "\n")
        assert len(draws) == 2 and capacity._draws.key != first

    def test_stored_draws_are_read_only(self, draws, tmp_path):
        self.optloc(tmp_path, "rayleigh")
        h = capacity._draws.link("sr")
        kept = h.copy()
        with pytest.raises(ValueError):
            h[0] = 0.0
        for fading in SCAN_FADINGS[1:3]:
            self.optloc(tmp_path, fading)
        assert capacity._draws.link("sr") is h
        assert np.array_equal(h, kept)
        assert len(draws) == 1

    def test_worker_bank_drops_the_store(self, draws, tmp_path):
        scn, mc = ScenarioConfig(), McConfig(samples=300)
        capacity.estimate_c3(scn, 1.0, mc)
        assert capacity._draws is not None
        capacity.open_bank(scn, mc, ("c3", "c2", "coop"))
        assert capacity._draws is None
        capacity.release_bank()
        self.optloc(tmp_path, "rayleigh")
        manifest = replace(cli.parse_config("samples=300\nangular_steps=16\n"),
                           command="coop", output_path=str(tmp_path / "c.csv"))
        assert cli.run(manifest) == 0
        assert capacity._draws is None


@pytest.fixture
def c3_kernel_calls(monkeypatch):
    """Sizes of the log-det kernel calls that compute c3. In the scenarios
    below, c3 is the only 2x2 quadratic form of one term with two
    coefficient rows and the only eigenvalue log-det (on 3x3 matrices)."""
    calls = []
    quadratic = matrixkit.logdet_quadratic_2x2
    eig = matrixkit.logdet_identity_plus_eig

    def counting_quadratic(*terms, scratch=None):
        if len(terms) == 1 and terms[0][1].shape[0] == 2:
            calls.append(2)
        return quadratic(*terms, scratch=scratch)

    def counting_eig(lam, a):
        calls.append(lam.shape[-1])
        return eig(lam, a)

    monkeypatch.setattr(matrixkit, "logdet_quadratic_2x2", counting_quadratic)
    monkeypatch.setattr(matrixkit, "logdet_identity_plus_eig", counting_eig)
    capacity.release_bank()
    yield calls
    capacity.release_bank()


class TestC3Memo:
    @pytest.mark.parametrize("scn,size", [
        (ScenarioConfig(R_c=3.0), 2), (ScenarioConfig(N_s=3, R_c=3.0), 3)],
        ids=["2x2", "3x2"])
    def test_sweep_computes_c3_once(self, c3_kernel_calls, scn, size):
        mc = McConfig(samples=400)
        coverage.coverage_boundary(scn, 0.95, 4, 16, mc, SolverConfig())
        cooperation.coop_coverage_boundary(scn, 0.95, 4, 16, mc, SolverConfig())
        assert c3_kernel_calls == [size]
        capacity.estimate_c3(scn, 0.9, mc)
        capacity.estimate_c3(scn, 0.95, mc)
        assert c3_kernel_calls == [size] * 3

    def test_handed_out_c3_is_read_only(self):
        scn, mc = ScenarioConfig(), McConfig(samples=300)
        capacity.release_bank()
        c3 = capacity.estimate_c3(scn, 0.9, mc)._values
        kept = c3.copy()
        s = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        for arr in (c3, s.c3):
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr += 1.0
        assert np.array_equal(capacity.estimate_c3(scn, 0.9, mc)._values, kept)
        capacity.release_bank()


# Every cut, given as a plan: with four links it draws ahead.
FULL_PLAN = ("c3", "c1", "c2", "coop")
# The (link, side) Grams every cut reads between them.
ALL_GRAMS = (("sr", "tx"), ("sd", "tx"), ("sd", "rx"), ("rd", "rx"),
             ("rd2", "rx"))


def oracle_gram(H, side):
    M = H if side == "rx" else np.swapaxes(H, -1, -2)
    return (matrixkit.gram_entries_2x2(M) if M.shape[-2] == 2
            else matrixkit.gram(M))


def within(seconds, fn):
    """fn() run on a helper thread, which must finish within seconds; its
    result is returned and its exception raised here. The thread is a
    daemon, so a call that hangs fails the test without blocking exit."""
    box = {}

    def call():
        try:
            box["result"] = fn()
        except Exception as exc:
            box["error"] = exc

    helper = threading.Thread(target=call, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"no result within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


@pytest.fixture
def banks(monkeypatch):
    """Every channel bank built while the test runs."""
    built = []

    class Recording(capacity.ChannelBank):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(capacity, "ChannelBank", Recording)
    return built


@pytest.fixture
def threads():
    """The thread count before the test, which it must end at."""
    capacity.release_bank()
    baseline = threading.active_count()
    yield baseline
    capacity.release_bank()
    assert threading.active_count() == baseline


class TestReadAhead:
    @pytest.mark.parametrize("samples", [1, capacity._CHUNK - 1,
                                         capacity._CHUNK + 1, 20000])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_planned_draws_match_oracle(self, name, samples, threads,
                                        monkeypatch):
        # The stored draws an unplanned bank reads give the same Grams.
        monkeypatch.setattr(capacity, "_draws", None)
        scn = ScenarioConfig(**SCENARIOS[name])
        mc = McConfig(seed=7, samples=samples)
        bank = capacity.ChannelBank(scn, mc, FULL_PLAN)
        stored = capacity.ChannelBank(scn, mc)
        try:
            assert bank._reader is not None and stored._reader is None
            H = oracle_links(scn, mc)
            for link, side in ALL_GRAMS:
                want = oracle_gram(H[link], side)
                assert np.array_equal(bank.gram(link, side), want), (link, side)
                assert np.array_equal(stored.gram(link, side), want), (link, side)
        finally:
            bank.close()

    def test_tiny_chunks_under_fast_switching(self, threads, monkeypatch):
        # Hundreds of slot handoffs per link through a two-slot ring: a slot
        # handed back too early would be overwritten before it is packed.
        monkeypatch.setattr(capacity, "_CHUNK", 7)
        monkeypatch.setattr(capacity, "_SLOTS", 2)
        scn = ScenarioConfig(**SCENARIOS["Ns3-Md2"])
        mc = McConfig(seed=11, samples=3000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bank = capacity.ChannelBank(scn, mc, FULL_PLAN)
            try:
                got = within(60, lambda: {
                    (link, side): bank.gram(link, side)
                    for link, side in ALL_GRAMS})
            finally:
                bank.close()
        finally:
            sys.setswitchinterval(interval)
        H = oracle_links(scn, mc)
        for (link, side), gram in got.items():
            assert np.array_equal(gram, oracle_gram(H[link], side)), (link, side)

    def test_later_link_first_gets_canonical_draws(self, threads):
        scn, mc = ScenarioConfig(N_s=1, M_r=3), McConfig(seed=5, samples=9000)
        capacity.open_bank(scn, mc, FULL_PLAN)
        coop = cooperation.estimate_coop_sum_rate(scn, 1.3, 0.7, 1.6, mc)
        late = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        capacity.release_bank()
        fresh = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        fresh_coop = cooperation.estimate_coop_sum_rate(scn, 1.3, 0.7, 1.6, mc)
        assert np.array_equal(coop._values, fresh_coop._values)
        for bound in ("c1", "c2", "c3"):
            assert np.array_equal(getattr(late, bound), getattr(fresh, bound))

    def test_read_past_the_plan_raises(self, threads):
        rng = np.random.Generator(np.random.Philox(0))
        reader = capacity._ReadAhead(rng, [(3, 2)] * 2)
        try:
            for _ in range(2):
                chunk = within(10, lambda: reader.standard_normal((3, 2)))
                assert chunk.shape == (3, 2)
            for _ in range(2):
                with pytest.raises(ValueError, match="past the 2 planned"):
                    within(10, lambda: reader.standard_normal((3, 2)))
        finally:
            reader.close()

    def test_closed_bank_cannot_draw(self, threads):
        bank = capacity.ChannelBank(ScenarioConfig(), McConfig(samples=9000),
                                    ("c3", "c2"))
        bank.c3(1.0)
        bank.close()
        with pytest.raises(RuntimeError, match="stopped"):
            within(10, lambda: bank.c2(1.0, 0.5))

    def test_unplanned_side_raises(self, threads):
        bank = capacity.ChannelBank(ScenarioConfig(), McConfig(samples=300),
                                    ("c3", "c2"))
        try:
            bank.gram("sd", "rx")
            with pytest.raises(LookupError, match=r"sd/tx.*\('c3', 'c2'\)"):
                bank.gram("sd", "tx")
            with pytest.raises(LookupError, match=r"rd2/rx.*\('c3', 'c2'\)"):
                bank.gram("rd2", "rx")
        finally:
            bank.close()

    @pytest.mark.parametrize("command,config,packed", [
        ("optloc", "", ["sr/tx"]),
        ("coverage", "", ["sr/tx", "sd/rx", "rd/rx"]),
        ("coverage", "metric=cutset", ["sr/tx", "sd/tx", "sd/rx", "rd/rx"]),
        ("bounds", "", ["sr/tx", "sd/tx", "sd/rx", "rd/rx"]),
        ("coop", "", ["sr/tx", "sd/rx", "rd/rx", "rd2/rx"]),
    ], ids=["optloc", "coverage-df", "coverage-cutset", "bounds", "coop"])
    def test_runs_pack_only_the_sides_they_read(self, command, config, packed,
                                                banks, tmp_path):
        manifest = replace(
            cli.parse_config(f"samples=400\nsweep_points=3\nangular_steps=16\n"
                             f"{config}\n"),
            command=command, output_path=str(tmp_path / "o.csv"))
        assert cli.run(manifest) == 0
        assert len(banks) == 1
        assert sorted(f"{link}/{side}" for link, side in banks[0]._grams) == (
            sorted(packed))
        assert (banks[0]._reader is None) == (command == "optloc")


# Each cut's Gram side, and its links with their powers in argument order.
CUTS = {
    "c3": ("tx", {"sr": 0.9}),
    "c1": ("tx", {"sr": 0.9, "sd": 1.7}),
    "c2": ("rx", {"sd": 1.7, "rd": 2.3}),
    "coop": ("rx", {"sd": 1.7, "rd": 2.3, "rd2": 0.4}),
}


class TestCutPlan:
    @pytest.mark.parametrize("cut", sorted(CUTS))
    @pytest.mark.parametrize("name", ["2x2", "3x3"])
    def test_one_cut_alone(self, name, cut, threads):
        scn = ScenarioConfig(**SCENARIOS[name])
        mc = McConfig(seed=3, samples=capacity._CHUNK + 1)
        side, powers = CUTS[cut]
        bank = capacity.ChannelBank(scn, mc, (cut,))
        try:
            got = getattr(bank, cut)(*powers.values())
            assert set(bank._grams) == {(link, side) for link in powers}
        finally:
            bank.close()
        full = capacity.ChannelBank(scn, mc)
        assert np.array_equal(got, getattr(full, cut)(*powers.values()))
        # A source cut's Gram sum is B+ B for B the scaled links stacked by
        # rows, and det(I + B+ B) = det(I + B B+).
        H = oracle_links(scn, mc)
        terms = [(a, H[link]) for link, a in powers.items()]
        if side == "tx":
            terms = [(1.0, np.concatenate(
                [math.sqrt(a) * h for a, h in terms], axis=1))]
        np.testing.assert_allclose(got, oracle_rate(terms), rtol=0, atol=1e-11)

    def test_unknown_cut_is_named(self):
        with pytest.raises(ValueError, match="'c4'"):
            capacity.ChannelBank(ScenarioConfig(), McConfig(samples=10),
                                 ("c3", "c4"))

    def test_bad_plan_leaves_no_bank(self, threads):
        scn, mc = ScenarioConfig(), McConfig(samples=300)
        capacity.estimate_c3(scn, 1.0, mc)
        with pytest.raises(ValueError, match="'c5'"):
            capacity.open_bank(scn, mc, ("c3", "c5"))
        assert capacity._bank is None
        assert capacity.estimate_c3(scn, 1.0, mc).samples_used == 300

    def test_empty_plan_is_named(self, threads):
        scn, mc = ScenarioConfig(), McConfig(samples=10)
        for make in (capacity.open_bank, capacity.ChannelBank):
            with pytest.raises(ValueError, match=r"plan \(\) must name"):
                make(scn, mc, ())
        assert capacity._bank is None


class TestThreadHygiene:
    @pytest.mark.parametrize("config,code", [
        ("", 0), ("r_hi=0.3\n", 2), ("R_c=40\n", 3)],
        ids=["exit-0", "exit-2-r_hi", "exit-3-R_c"])
    def test_coop_leaves_no_thread(self, config, code, threads, banks,
                                   tmp_path, capsys):
        cfg = tmp_path / "coop.cfg"
        cfg.write_text("samples=9000\nangular_steps=16\n" + config)
        argv = ["coop", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        assert within(60, lambda: cli.main(argv)) == code
        assert threading.active_count() == threads
        assert len(banks) == 1 and not banks[0]._reader._worker.is_alive()

    def test_replaced_bank_stops_its_worker(self, threads, banks):
        scn, plan = ScenarioConfig(), ("c3", "c2", "coop")
        mcs = [McConfig(seed=seed, samples=20000) for seed in (1, 2, 3)]
        capacity.open_bank(scn, mcs[0], plan)
        # c3 reads sr only, so the worker still has sd, rd and rd2 to draw.
        capacity.estimate_c3(scn, 1.0, mcs[0])
        assert threading.active_count() == threads + 1
        capacity.open_bank(scn, mcs[1], plan)
        capacity.estimate_c3(scn, 1.0, mcs[1])
        first, second = (bank._reader._worker for bank in banks)
        assert not first.is_alive() and second.is_alive()
        assert threading.active_count() == threads + 1
        capacity.release_bank()
        assert not second.is_alive()
        assert threading.active_count() == threads
        # A probe on another key replaces a planned bank with an unplanned
        # one, which draws on the main thread.
        capacity.open_bank(scn, mcs[0], plan)
        capacity.estimate_c3(scn, 1.0, mcs[2])
        assert not banks[2]._reader._worker.is_alive()
        assert banks[3]._reader is None
        assert threading.active_count() == threads

    def test_worker_exception_surfaces(self, threads, monkeypatch):
        raised = []

        class Failing(np.random.Generator):
            # Fails on the third chunk: rd's, one chunk per link.
            def standard_normal(self, *args, **kwargs):
                if len(raised) == 2:
                    raised.append(RuntimeError("draw failed"))
                    raise raised[-1]
                raised.append(None)
                return super().standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Failing)
        scn, mc = ScenarioConfig(), McConfig(samples=300)
        capacity.open_bank(scn, mc, ("c3", "c2", "coop"))
        within(10, lambda: capacity.estimate_c3(scn, 1.0, mc))
        for _ in range(2):
            with pytest.raises(RuntimeError) as err:
                within(10, lambda: capacity.estimate_c2(scn, 1.0, 0.5, mc))
            assert err.value is raised[2]
