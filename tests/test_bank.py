"""Channel bank: brute-force oracles for the cached statistics, the 2x2
quadratic form against the Cholesky route, the c3 memo, and draw counts."""

import math
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
    """Shapes (n, rows, cols) of every Gaussian batch drawn."""
    calls = []
    real = matrixkit.sample_complex_gaussian_batch

    def counting(n, rows, cols, rng):
        calls.append((n, rows, cols))
        return real(n, rows, cols, rng)

    monkeypatch.setattr(matrixkit, "sample_complex_gaussian_batch", counting)
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
        manifest = replace(cli.parse_config("samples=500\nsweep_points=3\n"),
                           command="optloc", output_path=str(tmp_path / "o.csv"))
        assert cli.run(manifest) == 0
        assert draws == [(500, 2, 2)]
        assert cli.run(manifest) == 0
        assert draws == [(500, 2, 2)] * 2

    def test_cutset_coverage_draws_each_link_once(self, draws, tmp_path):
        # The relay-radius solve draws sr; c1 then reuses sr's Gram and
        # draws sd once for both of its sides.
        cfg = tmp_path / "cutset.cfg"
        cfg.write_text("samples=400\nN_s=1\nM_r=3\nR_c=3.0\nmetric=cutset\n")
        out = tmp_path / "o.csv"
        assert cli.main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        assert draws == [(400, 3, 1), (400, 2, 1), (400, 2, 2)]


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
