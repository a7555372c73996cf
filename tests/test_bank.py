"""Channel bank: brute-force oracles for the cached statistics, the 2x2
quadratic form against the Cholesky route, the c3 memo, and draw counts."""

import copy
import json
import math
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

    def test_request_order_does_not_change_draws(self, monkeypatch):
        scn = ScenarioConfig(N_s=3, M_r=3)
        mc = McConfig(seed=5, samples=300)
        monkeypatch.setattr(capacity, "_bank", None)
        coop = cooperation.estimate_coop_sum_rate(scn, 1.3, 0.7, 1.6, mc)
        c3 = capacity.estimate_c3(scn, 0.9, mc)._values
        late = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        monkeypatch.setattr(capacity, "_bank", None)
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
        H1, H2 = (channel.apply_fading(
            model, matrixkit.sample_complex_gaussian_batch(5000, 2, 2, rng))
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
    no bank."""
    calls = []
    real = matrixkit.sample_complex_gaussian_batch

    def counting(n, rows, cols, rng):
        calls.append((n, rows, cols))
        return real(n, rows, cols, rng)

    monkeypatch.setattr(matrixkit, "sample_complex_gaussian_batch", counting)
    monkeypatch.setattr(capacity, "_bank", None)
    return calls


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
            monkeypatch.setattr(capacity, "_bank", None)
            assert self.optloc(tmp_path, fading) == csv, fading
        assert len(draws) == 1 + len(SCAN_FADINGS)

    @pytest.mark.parametrize("change", [
        "seed=7", "samples=400", "N_s=1", "N_r=1", "M_r=3", "M_d=3"])
    def test_another_key_draws_afresh(self, change, draws, tmp_path):
        self.optloc(tmp_path, "rayleigh")
        first = capacity._bank.key
        self.optloc(tmp_path, "rayleigh", change + "\n")
        assert len(draws) == 2 and capacity._bank.key != first

    def test_stored_draws_are_read_only(self, draws, tmp_path):
        self.optloc(tmp_path, "rayleigh")
        h = capacity._bank.link("sr")
        kept = h.copy()
        with pytest.raises(ValueError):
            h[0] = 0.0
        for fading in SCAN_FADINGS[1:3]:
            self.optloc(tmp_path, fading)
        assert capacity._bank.link("sr") is h
        assert np.array_equal(h, kept)
        assert len(draws) == 1

    def test_commands_share_one_draw_of_each_link(self, draws, tmp_path,
                                                  monkeypatch):
        # Distinct link shapes: sr (3, 1), sd (2, 1), rd and rd2 (2, 2).
        config = cli.parse_config("samples=400\nN_s=1\nM_r=3\nR_c=3.0\n"
                                  "angular_steps=16\nsweep_points=3\n")

        def run(command):
            out = tmp_path / f"{command}.csv"
            assert cli.run(replace(config, command=command,
                                   output_path=str(out))) == 0
            return out.read_bytes()

        commands = ("coop", "coverage", "bounds")
        shared = [run(command) for command in commands]
        assert draws == [(400, 3, 1), (400, 2, 1), (400, 2, 2), (400, 2, 2)]
        for command, csv in zip(commands, shared):
            monkeypatch.setattr(capacity, "_bank", None)
            assert run(command) == csv, command

    def test_repeated_coop_draws_and_packs_nothing(self, draws, tmp_path,
                                                   monkeypatch):
        # Each run parses fading models of its own; equal by value, they
        # find the last run's bank whole.
        packs = []
        pack = matrixkit.gram_entries_2x2

        def counting(M):
            packs.append(len(M))
            return pack(M)

        monkeypatch.setattr(matrixkit, "gram_entries_2x2", counting)
        cfg = tmp_path / "coop.cfg"
        cfg.write_text("samples=400\nangular_steps=16\n")
        out = tmp_path / "o.csv"
        argv = ["coop", "--config", str(cfg), "--out", str(out)]
        assert cli.main(argv) == 0
        first = out.read_bytes()
        assert len(draws) == 4 and len(packs) == 4
        assert cli.main(argv) == 0
        assert out.read_bytes() == first
        assert len(draws) == 4 and len(packs) == 4

    def test_another_fading_repacks_sr_only(self, draws, tmp_path, capsys):
        config = cli.parse_config("samples=500\nangular_steps=16\n")
        assert cli.run(replace(config, command="coop",
                               output_path=str(tmp_path / "c.csv"))) == 0
        bank = capacity._bank
        assert len(bank._grams) == 4 and len(draws) == 4
        self.optloc(tmp_path, SCAN_FADINGS[1])
        assert capacity._bank is bank and len(draws) == 4
        assert list(bank._grams) == [("sr", "tx")]

    def test_grams_and_rows_are_read_only(self, draws, tmp_path, capsys):
        for command in ("coop", "bounds"):
            config = cli.parse_config("samples=400\nangular_steps=16\n"
                                      "sweep_points=3\nN_s=3\nM_r=3\n")
            assert cli.run(replace(config, command=command,
                                   output_path=str(tmp_path / "o.csv"))) == 0
        arrays = capacity._bank._grams | capacity._bank._stats
        assert {G.ndim for G in arrays.values()} == {2, 3}
        for G in arrays.values():
            with pytest.raises(ValueError):
                G[0] = 0.0
            with pytest.raises(ValueError):
                G += 1.0


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
    monkeypatch.setattr(capacity, "_bank", None)
    return calls


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

    def test_handed_out_c3_is_read_only(self, monkeypatch):
        scn, mc = ScenarioConfig(), McConfig(samples=300)
        monkeypatch.setattr(capacity, "_bank", None)
        c3 = capacity.estimate_c3(scn, 0.9, mc)._values
        kept = c3.copy()
        s = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        for arr in (c3, s.c3):
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr += 1.0
        assert np.array_equal(capacity.estimate_c3(scn, 0.9, mc)._values, kept)


# The (link, side) Grams every cut reads between them.
ALL_GRAMS = (("sr", "tx"), ("sd", "tx"), ("sd", "rx"), ("rd", "rx"),
             ("rd2", "rx"))


def oracle_gram(H, side):
    M = H if side == "rx" else np.swapaxes(H, -1, -2)
    return (matrixkit.gram_entries_2x2(M) if M.shape[-2] == 2
            else matrixkit.gram(M))


@pytest.fixture
def banks(monkeypatch):
    """Every channel bank built while the test runs, starting with none."""
    built = []

    class Recording(capacity.ChannelBank):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(capacity, "ChannelBank", Recording)
    monkeypatch.setattr(capacity, "_bank", None)
    return built


class TestReadAhead:
    # Grams packed from the stored draws on first read, whole or in
    # _CHUNK-sample pieces.
    @pytest.mark.parametrize("samples", [1, capacity._CHUNK - 1,
                                         capacity._CHUNK + 1, 20000])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_planned_draws_match_oracle(self, name, samples, draws):
        scn = ScenarioConfig(**SCENARIOS[name])
        mc = McConfig(seed=7, samples=samples)
        bank = capacity._bank_for(scn, mc)
        H = oracle_links(scn, mc)
        for link, side in ALL_GRAMS:
            want = oracle_gram(H[link], side)
            assert np.array_equal(bank.gram(link, side), want), (link, side)
        # A value-equal scenario and McConfig, with fading models of their
        # own, are served by the same bank with the same Grams.
        grams = dict(bank._grams)
        again = capacity._bank_for(copy.deepcopy(scn), McConfig(seed=7,
                                                                samples=samples))
        assert again is bank
        for link, side in ALL_GRAMS:
            assert again.gram(link, side) is grams[link, side], (link, side)
        assert len(draws) == 4

    def test_interrupted_packing_keeps_no_gram(self, draws, monkeypatch):
        scn, mc = ScenarioConfig(), McConfig(seed=7, samples=capacity._CHUNK + 1)
        bank = capacity.ChannelBank(scn, mc)
        pack = matrixkit.gram_entries_2x2
        chunks = []

        def failing(M):
            chunks.append(len(M))
            if len(chunks) == 2:
                raise KeyboardInterrupt
            return pack(M)

        monkeypatch.setattr(matrixkit, "gram_entries_2x2", failing)
        with pytest.raises(KeyboardInterrupt):
            bank.gram("sr", "tx")
        assert chunks == [capacity._CHUNK, 1] and bank._grams == {}
        monkeypatch.setattr(matrixkit, "gram_entries_2x2", pack)
        want = oracle_gram(oracle_links(scn, mc)["sr"], "tx")
        assert np.array_equal(bank.gram("sr", "tx"), want)
        assert len(draws) == 1

    def test_later_link_first_gets_canonical_draws(self, draws, monkeypatch):
        scn, mc = ScenarioConfig(N_s=1, M_r=3), McConfig(seed=5, samples=9000)
        coop = cooperation.estimate_coop_sum_rate(scn, 1.3, 0.7, 1.6, mc)
        late = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        monkeypatch.setattr(capacity, "_bank", None)
        fresh = sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
        fresh_coop = cooperation.estimate_coop_sum_rate(scn, 1.3, 0.7, 1.6, mc)
        assert np.array_equal(coop._values, fresh_coop._values)
        for bound in ("c1", "c2", "c3"):
            assert np.array_equal(getattr(late, bound), getattr(fresh, bound))
        assert len(draws) == 8

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
    def test_one_cut_alone(self, name, cut, draws):
        scn = ScenarioConfig(**SCENARIOS[name])
        mc = McConfig(seed=3, samples=capacity._CHUNK + 1)
        side, powers = CUTS[cut]
        bank = capacity.ChannelBank(scn, mc)
        got = getattr(bank, cut)(*powers.values())
        assert set(bank._grams) == {(link, side) for link in powers}
        # A bank that packed every cut's Grams first gives the same values.
        full = capacity.ChannelBank(scn, mc)
        for other, (_, other_powers) in CUTS.items():
            getattr(full, other)(*other_powers.values())
        assert np.array_equal(got, getattr(full, cut)(*powers.values()))
        # A source cut's Gram sum is B+ B for B the scaled links stacked by
        # rows, and det(I + B+ B) = det(I + B B+).
        H = oracle_links(scn, mc)
        terms = [(a, H[link]) for link, a in powers.items()]
        if side == "tx":
            terms = [(1.0, np.concatenate(
                [math.sqrt(a) * h for a, h in terms], axis=1))]
        np.testing.assert_allclose(got, oracle_rate(terms), rtol=0, atol=1e-11)


class TestThreadHygiene:
    @pytest.mark.parametrize("config,code", [
        ("", 0), ("r_hi=0.3\n", 2), ("R_c=40\n", 3)],
        ids=["exit-0", "exit-2-r_hi", "exit-3-R_c"])
    def test_coop_leaves_no_thread(self, config, code, banks, draws,
                                   monkeypatch, tmp_path, capsys):
        # Every draw runs on this thread, with no other thread started.
        baseline = threading.active_count()
        seen = []
        draw = matrixkit.sample_complex_gaussian_batch

        def recording(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return draw(*args)

        monkeypatch.setattr(matrixkit, "sample_complex_gaussian_batch", recording)
        cfg = tmp_path / "coop.cfg"
        cfg.write_text("samples=9000\nangular_steps=16\n" + config)
        argv = ["coop", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == code
        assert threading.active_count() == baseline
        assert draws and len(seen) == len(draws)
        assert all(thread is threading.main_thread() and count == baseline
                   for thread, count in seen)
        assert len(banks) == 1

    @pytest.mark.parametrize("command,config,key", [
        ("coop", "L=1", "L"), ("coop", "metric=cutset", "metric"),
        ("optloc", "sweep_start=0", "sweep_start")])
    def test_exit_before_first_probe_builds_no_bank(self, command, config, key,
                                                    banks, draws, tmp_path,
                                                    capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"samples=400\n{config}\n")
        out = tmp_path / "o.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == key
        assert banks == [] and draws == []
        assert not out.exists()
