import math
from dataclasses import replace

import numpy as np
import pytest

from relaycov import capacity, cli, cooperation, coverage
from relaycov.capacity import (
    BoundEstimate,
    McConfig,
    ScenarioConfig,
    cutset_bound,
    df_rate,
    digamma,
    estimate_c1,
    estimate_c2,
    estimate_c3,
    high_snr_rate,
    resolve_distances,
    sample_bound_realizations,
)
from relaycov.channel import FadingModel, LosPrototype, NetworkGeometry
from relaycov.coverage import SolverConfig

PURE_LOS_K = 1e9


def rician(k, kind):
    proto = (LosPrototype.poorly_conditioned() if kind == "poor"
             else LosPrototype.well_conditioned())
    return FadingModel.rician(k, proto)


class TestConfigs:
    def test_defaults(self):
        scn = ScenarioConfig()
        assert scn.P_s == 10.0 and scn.alpha == 3.52 and scn.R_c == 5.5

    def test_zero_receive_antennas_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(M_d=0)

    def test_bad_power_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(P_s=0.0)

    def test_mc_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0)

    def test_negative_seed_accepted(self):
        # 64-bit seeds, negative values included, key the generator stably.
        est = estimate_c3(ScenarioConfig(), 1.0, McConfig(seed=-7, samples=500))
        again = estimate_c3(ScenarioConfig(), 1.0, McConfig(seed=-7, samples=500))
        assert est == again


class TestEstimateC3:
    def test_rayleigh_reference_point(self):
        # 2x2 Rayleigh, P_s = 10, r_R = 1: close to the 5.5-bit target rate.
        est = estimate_c3(ScenarioConfig(), 1.0, McConfig(samples=100_000))
        assert est.mean == pytest.approx(5.5, abs=0.1)

    def test_pure_los_poor(self):
        scn = ScenarioConfig(fading_sr=rician(PURE_LOS_K, "poor"))
        est = estimate_c3(scn, 1.0, McConfig(samples=2000))
        assert est.mean == pytest.approx(4.392317422778761, abs=0.01)

    def test_pure_los_well(self):
        scn = ScenarioConfig(fading_sr=rician(PURE_LOS_K, "well"))
        est = estimate_c3(scn, 1.0, McConfig(samples=2000))
        assert est.mean == pytest.approx(6.918863237274595, abs=0.01)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            estimate_c3(ScenarioConfig(), 0.0, McConfig(samples=10))

    def test_std_error_shrinks(self):
        lo = estimate_c3(ScenarioConfig(), 1.0, McConfig(samples=1000))
        hi = estimate_c3(ScenarioConfig(), 1.0, McConfig(samples=16_000))
        assert hi.std_error < lo.std_error


class TestEstimateC2:
    def test_degenerate_relay_power_matches_sd_only_oracle(self):
        # With P_r -> 0 only the source-destination term remains; cross-check
        # against a brute-force MC that uses a different generator (PCG64)
        # and a different log-det route (slogdet).
        scn = ScenarioConfig(P_r=1e-12)
        mc = McConfig(samples=40_000)
        est = estimate_c2(scn, 1.0, 1.0, mc)

        rng = np.random.default_rng(123)
        n = 40_000
        H = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))) / np.sqrt(2)
        M = np.eye(2) + 5.0 * (H @ np.conj(np.swapaxes(H, -1, -2)))
        oracle = np.linalg.slogdet(M)[1] / math.log(2)
        se = np.std(oracle, ddof=1) / math.sqrt(n)
        assert abs(est.mean - oracle.mean()) < 3 * math.hypot(se, est.std_error)

    def test_brute_force_cross_check(self):
        # Full MAC form against the independent-oracle rerun.
        scn = ScenarioConfig()
        est = estimate_c2(scn, 1.0, 1.0, McConfig(samples=40_000))

        rng = np.random.default_rng(321)
        n = 40_000
        Hs = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))) / np.sqrt(2)
        Hr = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))) / np.sqrt(2)
        M = (np.eye(2)
             + 5.0 * (Hs @ np.conj(np.swapaxes(Hs, -1, -2)))
             + 5.0 * (Hr @ np.conj(np.swapaxes(Hr, -1, -2))))
        oracle = np.linalg.slogdet(M)[1] / math.log(2)
        se = np.std(oracle, ddof=1) / math.sqrt(n)
        assert abs(est.mean - oracle.mean()) < 3 * math.hypot(se, est.std_error)

    def test_monotone_in_received_power(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=5000)
        near = estimate_c2(scn, 1.0, 1.0, mc)
        far = estimate_c2(scn, 2.0, 2.0, mc)
        assert near.mean > far.mean


class TestEstimateC1:
    def test_reduces_to_c3_when_destination_vanishes(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=20_000)
        c1 = estimate_c1(scn, 1e6, 1.0, mc)
        c3 = estimate_c3(scn, 1.0, mc)
        assert abs(c1.mean - c3.mean) < 3 * math.hypot(c1.std_error, c3.std_error)

    def test_per_sample_dominates_c3(self):
        s = sample_bound_realizations(ScenarioConfig(), r_R=0.8, r_D=1.3,
                                      r_DR=0.7, mc=McConfig(samples=10_000))
        assert np.all(s.c1 >= s.c3 - 1e-9)

    def test_invalid_distances(self):
        with pytest.raises(ValueError):
            estimate_c1(ScenarioConfig(), 0.0, 1.0, McConfig(samples=10))

    def test_monotone_in_each_distance_per_seed(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=3000)
        assert estimate_c1(scn, 1.0, 1.0, mc).mean > estimate_c1(scn, 2.0, 1.0, mc).mean
        assert estimate_c1(scn, 1.0, 1.0, mc).mean > estimate_c1(scn, 1.0, 2.0, mc).mean
        assert estimate_c2(scn, 1.0, 1.0, mc).mean > estimate_c2(scn, 1.0, 2.0, mc).mean
        assert estimate_c2(scn, 1.0, 1.0, mc).mean > estimate_c2(scn, 2.0, 1.0, mc).mean


class TestDfAndCutset:
    def test_cutset_dominates_df_per_sample_and_mean(self):
        scn = ScenarioConfig()
        geom = NetworkGeometry(0.95, 4, 1.4, 0.3)
        mc = McConfig(samples=10_000)
        df = df_rate(scn, geom, mc)
        cs = cutset_bound(scn, geom, mc)
        assert cs.mean >= df.mean
        r_R, r_D, r_DR = capacity.resolve_distances(geom)
        s = sample_bound_realizations(scn, r_R, r_D, r_DR, mc)
        assert np.all(np.minimum(s.c1, s.c2) >= np.minimum(s.c3, s.c2) - 1e-9)

    def test_destination_at_relay_limited_by_c3(self):
        # r_DR collapses to the floor, the MAC term diverges, and the
        # decode-and-forward minimum falls entirely to the relay link.
        scn = ScenarioConfig()
        geom = NetworkGeometry(1.0, 4, 1.0, 0.0)
        mc = McConfig(samples=5000)
        df = df_rate(scn, geom, mc)
        c3 = estimate_c3(scn, 1.0, mc)
        assert df.mean == c3.mean

    def test_well_conditioned_los_dominates_poor(self):
        # Relay sweep along (d_x, 0.1) with source at the origin and the
        # destination at (1, 0): the orthogonal-row LOS curves sit on or
        # above the rank-one LOS curves everywhere, strictly so where the
        # relay link binds. The relay-link rate is ordered per draw (both
        # channels are near-deterministic at pure LOS); the broadcast cut
        # is ordered only in the mean, so the cut-set comparison uses the
        # paired-difference standard error.
        mc = McConfig(samples=4000)
        for d_x in (0.2, 0.5, 0.9):
            r_R = math.hypot(d_x, 0.1)
            r_DR = math.hypot(1.0 - d_x, 0.1)
            df, cs = {}, {}
            for kind in ("poor", "well"):
                scn = ScenarioConfig(fading_sr=rician(PURE_LOS_K, kind))
                s = sample_bound_realizations(scn, r_R=r_R, r_D=1.0,
                                              r_DR=r_DR, mc=mc)
                df[kind] = np.minimum(s.c3, s.c2)
                cs[kind] = np.minimum(s.c1, s.c2)
            assert np.all(df["well"] >= df["poor"] - 1e-9)
            cs_diff = cs["well"] - cs["poor"]
            se = np.std(cs_diff, ddof=1) / math.sqrt(cs_diff.size)
            assert cs_diff.mean() >= -3 * se
        # Relay link binds at d_x = 0.9: strict separation of both curves.
        assert df["well"].mean() > df["poor"].mean()
        assert cs["well"].mean() > cs["poor"].mean()

    def test_mean_of_min_below_min_of_means(self):
        scn = ScenarioConfig()
        geom = NetworkGeometry(0.95, 4, 1.5, 0.2)
        mc = McConfig(samples=5000)
        r_R, r_D, r_DR = resolve_distances(geom)
        per_sample = df_rate(scn, geom, mc)
        of_means = min(estimate_c3(scn, r_R, mc).mean,
                       estimate_c2(scn, r_D, r_DR, mc).mean)
        # E[min] <= min of expectations.
        assert per_sample.mean <= of_means + 1e-12

    def test_monotone_in_distance_per_seed(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=4000)
        rates = [df_rate(scn, NetworkGeometry(0.95, 4, r, 0.3), mc).mean
                 for r in (1.0, 1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestDeterminism:
    def test_identical_config_identical_estimate(self):
        scn = ScenarioConfig()
        mc = McConfig(seed=97, samples=5000)
        a = estimate_c3(scn, 1.0, mc)
        b = estimate_c3(scn, 1.0, mc)
        assert a == b

    def test_different_seeds_differ(self):
        scn = ScenarioConfig()
        a = estimate_c3(scn, 1.0, McConfig(seed=1, samples=2000))
        b = estimate_c3(scn, 1.0, McConfig(seed=2, samples=2000))
        assert a.mean != b.mean

    def test_common_draws_across_estimators(self):
        # estimate_c3 and the joint sampler consume the same stream prefix,
        # so their per-sample relay-link rates coincide exactly.
        scn = ScenarioConfig()
        mc = McConfig(samples=3000)
        c3 = capacity.c3_samples(scn, 0.9, mc)
        s = sample_bound_realizations(scn, r_R=0.9, r_D=1.2, r_DR=0.8, mc=mc)
        assert np.array_equal(c3, s.c3)


class TestHighSnrRate:
    def test_double_sum_2x2(self):
        # p = 1 contributes 1/1, p = 2 contributes an empty sum; with the
        # psi(1) term at rho = 10 the closed form lands near 4.421.
        assert high_snr_rate(2, 2, 2, 10.0) == pytest.approx(
            4.421058876109954, abs=1e-12)

    def test_single_antenna(self):
        assert high_snr_rate(1, 1, 1, 100.0) == pytest.approx(
            5.811110012497857, abs=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            high_snr_rate(2, 2, 2, 0.0)
        with pytest.raises(ValueError):
            high_snr_rate(3, 2, 2, 10.0)

    def test_converges_to_mc_estimate(self):
        # 2x2 Rayleigh at rho = 1e4 within 0.1 bits of the Monte Carlo mean.
        scn = ScenarioConfig(P_s=1e4)
        est = estimate_c3(scn, 1.0, McConfig(samples=100_000))
        assert abs(est.mean - high_snr_rate(2, 2, 2, 1e4)) <= 0.1


class TestDigamma:
    def test_known_values(self):
        gamma_e = 0.5772156649015329
        assert digamma(1.0) == pytest.approx(-gamma_e, abs=1e-13)
        assert digamma(2.0) == pytest.approx(1.0 - gamma_e, abs=1e-13)
        assert digamma(0.5) == pytest.approx(-gamma_e - 2 * math.log(2), abs=1e-13)

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for x in (0.1, 0.3, 0.77, 1.0, 1.5, 2.0, 3.7, 5.0, 9.99, 10.5, 25.0, 100.0):
            assert digamma(x) == pytest.approx(
                float(scipy_special.digamma(x)), abs=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            digamma(0.0)

    def test_recurrence(self):
        # psi(x + 1) = psi(x) + 1/x
        for x in (0.25, 1.3, 4.8):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-12)


class TestBoundEstimate:
    def test_single_sample_std_error(self):
        est = capacity.summarize_samples(np.array([3.0]))
        assert (est.mean, est.std_error, est.samples_used) == (3.0, 0.0, 1)

    def test_std_error_definition(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        est = capacity.summarize_samples(vals)
        assert est.std_error == pytest.approx(np.std(vals, ddof=1) / 2.0)

    def test_std_error_is_exactly_the_formula(self):
        vals = np.random.default_rng(5).standard_normal(20000)
        est = capacity.summarize_samples(vals)
        assert est.std_error == float(np.std(vals, ddof=1) / math.sqrt(vals.size))

    def test_values_outside_repr_and_eq(self):
        a = capacity.summarize_samples(np.array([1.0, 3.0]))
        b = BoundEstimate(2.0, 2, np.array([0.0, 4.0]))
        assert a == b
        assert repr(a) == "BoundEstimate(mean=2.0, samples_used=2)"
        assert a.std_error != b.std_error


class TestStdErrorOnFirstRead:
    """The solvers read only .mean, so no probe pays for a standard error;
    the bounds table still reads all five per sweep point."""

    @pytest.fixture
    def std_calls(self, monkeypatch):
        calls = []
        std = np.std

        def counting_std(*args, **kwargs):
            calls.append(1)
            return std(*args, **kwargs)

        monkeypatch.setattr(np, "std", counting_std)
        yield calls
        capacity.release_bank()

    def test_coverage_boundary(self, std_calls):
        region = coverage.coverage_boundary(
            ScenarioConfig(), 0.95, 4, 16, McConfig(samples=500), SolverConfig())
        assert region.radii.max() > 0
        assert std_calls == []

    def test_coop_coverage_boundary(self, std_calls):
        region = cooperation.coop_coverage_boundary(
            ScenarioConfig(), 0.95, 4, 16, McConfig(samples=500), SolverConfig())
        assert region.radii.max() > 0
        assert std_calls == []

    def test_optimal_relay_radius(self, std_calls):
        r_star = coverage.optimal_relay_radius(
            ScenarioConfig(), McConfig(samples=500), SolverConfig())
        assert r_star > 0
        assert std_calls == []

    def test_bounds_reads_five_per_point(self, std_calls, tmp_path):
        out = tmp_path / "b.csv"
        manifest = replace(cli.parse_config("samples=300\nsweep_points=4\n"),
                           command="bounds", output_path=str(out))
        assert cli.run(manifest) == 0
        assert len(std_calls) == 5 * 4
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(float(v) > 0 for row in rows for v in row[6:])
