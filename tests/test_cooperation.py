import math

import numpy as np
import pytest

from relaycov import cooperation
from relaycov.capacity import (
    ChannelBank,
    McConfig,
    ParameterError,
    ScenarioConfig,
    digamma,
    estimate_c2,
    sample_bound_realizations,
)
from relaycov.channel import NetworkGeometry
from relaycov.cooperation import (
    ExtensionFactors,
    FitFailureError,
    SumRateFit,
    coop_coverage_boundary,
    coop_df_rate,
    coop_high_snr_sum_rate,
    estimate_coop_sum_rate,
    extension_factor,
    fit_k1_k2,
    jensen_sum_rate_bound,
    power_ratio,
    two_relay_distances,
)
from relaycov.coverage import SolverConfig, coverage_boundary

LN2 = math.log(2.0)
H_WELL = np.array([[1, -1], [1, 1]], dtype=complex)


def make_rng(seed=7):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


class TestCoopSumRate:
    def test_zero_second_relay_power_degenerates_to_mac(self):
        # A zero-power second relay zeroes the third receive term exactly,
        # on the quadratic-form (2x2) and the Cholesky (3x3) route, so the
        # sum-rate coincides bit for bit with the noncooperative MAC rate.
        for scn in (ScenarioConfig(), ScenarioConfig(N_s=3, N_r=3, M_d=3)):
            bank = ChannelBank(scn, McConfig(samples=4000))
            for a_sd, a_rd in ((5.0, 7.0), (0.3, 40.0)):
                assert np.array_equal(bank.coop(a_sd, a_rd, 0.0),
                                      bank.c2(a_sd, a_rd))

    def test_dominates_noncoop_per_sample(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=10_000)
        coop = estimate_coop_sum_rate(scn, 1.3, 0.8, 1.6, mc)._values
        c2 = estimate_c2(scn, 1.3, 0.8, mc)._values
        assert np.all(coop >= c2 - 1e-9)

    def test_brute_force_cross_check(self):
        # All distances 1, P = 10: independent-oracle rerun with a different
        # generator and log-det route.
        scn = ScenarioConfig()
        est = estimate_coop_sum_rate(scn, 1.0, 1.0, 1.0, McConfig(samples=40_000))

        rng = np.random.default_rng(99)
        n = 40_000
        draws = [(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
                 / np.sqrt(2) for _ in range(3)]
        M = np.eye(2)
        for H in draws:
            M = M + 5.0 * (H @ np.conj(np.swapaxes(H, -1, -2)))
        oracle = np.linalg.slogdet(M)[1] / LN2
        se = np.std(oracle, ddof=1) / math.sqrt(n)
        assert abs(est.mean - oracle.mean()) < 3 * math.hypot(se, est.std_error)


class TestJensenBound:
    def test_identity_channel(self):
        assert jensen_sum_rate_bound(np.eye(2), 1.0, 2) == pytest.approx(2.0)

    def test_orthogonal_rows(self):
        assert jensen_sum_rate_bound(H_WELL, 10.0, 2) == pytest.approx(
            2 * math.log2(21.0), abs=1e-12)

    def test_upper_bounds_logdet(self):
        rng = make_rng(41)
        for _ in range(200):
            H = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
            rho = float(rng.uniform(0.05, 50.0))
            bound = jensen_sum_rate_bound(H, rho, 2)
            G = H @ H.conj().T
            actual = float(np.linalg.slogdet(np.eye(2) + (2 * rho / 2) * G)[1] / LN2)
            assert bound >= actual - 1e-9

    def test_invalid(self):
        with pytest.raises(ValueError):
            jensen_sum_rate_bound(np.eye(2), 0.0, 2)
        with pytest.raises(ValueError):
            jensen_sum_rate_bound(np.eye(2), 1.0, 3)


class TestCoopHighSnr:
    def test_chi_square_log_sum(self):
        # For N_r = M_d = 2 the chi-square log-moments contribute
        # (psi(1) + ln 2)/ln 2 + (psi(2) + ln 2)/ln 2 ~ 0.1673 + 1.6100.
        expected = (digamma(1) + LN2) / LN2 + (digamma(2) + LN2) / LN2
        assert expected == pytest.approx(1.777202686335229, abs=1e-12)
        assert coop_high_snr_sum_rate(2, 2, 100.0) == pytest.approx(
            2 * math.log2(50.0) + expected, abs=1e-12)

    def test_reference_value(self):
        assert coop_high_snr_sum_rate(2, 2, 100.0) == pytest.approx(13.065, abs=1e-3)

    def test_wishart_logdet_identity(self):
        # E log2 det((rho/N_r) H H+) equals the closed form exactly for any
        # rho when H carries the chi-square normalization (unit-variance
        # real and imaginary parts, so the eigenvalue products are textbook
        # chi-squares); Monte Carlo agreement within 3 standard errors.
        rho = 37.0
        rng = make_rng(43)
        n = 50_000
        z = rng.standard_normal((n, 2, 2, 2))
        H = z[..., 0] + 1j * z[..., 1]
        G = H @ np.conj(np.swapaxes(H, -1, -2))
        vals = np.linalg.slogdet((rho / 2.0) * G)[1] / LN2
        se = np.std(vals, ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - coop_high_snr_sum_rate(2, 2, rho)) < 3 * se

    def test_converges_to_mc_at_high_snr(self):
        rho = 1e4
        rng = make_rng(47)
        n = 100_000
        z = rng.standard_normal((n, 2, 2, 2))
        H = z[..., 0] + 1j * z[..., 1]  # chi-square normalization
        G = H @ np.conj(np.swapaxes(H, -1, -2))
        vals = np.linalg.slogdet(np.eye(2) + (rho / 2.0) * G)[1] / LN2
        assert abs(vals.mean() - coop_high_snr_sum_rate(2, 2, rho)) <= 0.05


class TestLowSnr:
    def test_matches_mc_at_low_snr(self):
        # Border destination: source term negligible, relay-only MAC rate
        # within 5% of the first-order model M_d * rho_dr * log2 e.
        rho_dr = 1e-3
        scn = ScenarioConfig(P_s=1e-30, P_r=rho_dr)
        est = estimate_c2(scn, 1.0, 1.0, McConfig(samples=100_000))
        assert est.mean / (scn.M_d * rho_dr * math.log2(math.e)) == \
            pytest.approx(1.0, abs=0.05)


class TestFitK1K2:
    def test_exact_recovery(self):
        fit = SumRateFit(2.0, 5.0)
        points = [(p, fit.rate(p)) for p in (0.1, 0.5, 1.0, 3.0, 10.0)]
        got = fit_k1_k2(points)
        assert got.K1 == pytest.approx(2.0, abs=1e-6)
        assert got.K2 == pytest.approx(5.0, abs=1e-6)

    def test_low_snr_model_identity(self):
        points = [(p, 2 * math.log2(1.0 + p)) for p in (0.01, 0.02, 0.05, 0.1)]
        got = fit_k1_k2(points)
        assert got.K1 == pytest.approx(2.0, rel=1e-4)
        assert got.K2 == pytest.approx(1.0, rel=1e-3)

    def test_repeated_point_fails(self):
        with pytest.raises(FitFailureError):
            fit_k1_k2([(5.0, 2.0), (5.0, 2.0), (5.0, 2.0)])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_k1_k2([(1.0, 1.0), (2.0, 2.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_k1_k2([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


class TestPowerRatio:
    def test_gamma_one_exact(self):
        assert power_ratio(2.0, 5.0, 1.0) == 1.0

    def test_reference_value(self):
        assert power_ratio(10.0, 1.0, 2.0) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_small_power_limit(self):
        assert power_ratio(1e-12, 1.0, 2.0) == pytest.approx(0.5, abs=1e-9)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            power_ratio(1.0, 1.0, 0.99)

    def test_range(self):
        for x in (1e-6, 1e-2, 1.0, 1e3):
            for gamma in (1.0, 1.5, 3.0):
                ratio = power_ratio(x, 1.0, gamma)
                assert 0.0 < ratio <= 1.0
                assert (ratio == 1.0) == (gamma == 1.0)

    def test_identity_grid(self):
        # ratio * ((1 + K2 P)^gamma - 1) == K2 P to 1e-12 relative.
        for x in (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3):
            for gamma in (1.0, 1.5, 2.0, 3.0, 5.0):
                ratio = power_ratio(x, 1.0, gamma)
                denom = math.expm1(gamma * math.log1p(x))
                assert abs(ratio * denom - x) <= 1e-12 * x


class TestExtensionFactor:
    def test_gamma_one(self):
        ef = extension_factor(2.0, 5.0, 1.0, 35.22)
        assert ef.literal == 1.0 and ef.coverage_gain == 1.0

    def test_reference_values(self):
        ef = extension_factor(10.0, 1.0, 2.0, 35.22)
        assert ef.literal == pytest.approx(0.93187755517151, abs=1e-9)
        assert ef.coverage_gain == pytest.approx(1.073102356044998, abs=1e-9)
        # A slope in dB per decade: the distance ratio is 12^(10/B).
        assert ef.coverage_gain_db == pytest.approx(12.0 ** (10.0 / 35.22),
                                                    rel=1e-15)

    def test_exact_reciprocal_pair(self):
        rng = make_rng(53)
        for _ in range(500):
            x = float(rng.uniform(0.01, 100.0))
            gamma = float(rng.uniform(1.0, 5.0))
            ef = extension_factor(x, 1.0, gamma, 35.22)
            assert ef.literal * ef.coverage_gain == 1.0

    def test_gain_nondecreasing_in_gamma(self):
        for x in (0.1, 1.0, 10.0):
            gains = [extension_factor(x, 1.0, g, 35.22).coverage_gain
                     for g in (1.0, 1.5, 2.0, 3.0, 5.0)]
            assert all(a <= b + 1e-15 for a, b in zip(gains, gains[1:]))

    def test_unrepresentable_gain_names_b(self):
        # gamma > 1 makes the power ratio < 1; a tiny slope sends its
        # 1/B-th power to 0, whose reciprocal is not finite. At B = 0.005
        # the literal pair is finite but the dB gain 12^2000 is not.
        for B in (1e-300, 0.005):
            with pytest.raises(ParameterError) as err:
                extension_factor(10.0, 1.0, 2.0, B)
            assert err.value.field == "B"


class TestTwoRelayDistances:
    def test_on_axis(self):
        geom = NetworkGeometry(1.0, 4, 2.0, 0.0)
        d1, d2 = two_relay_distances(geom)
        assert d1 == pytest.approx(1.0)  # |2 - 1| along the axis
        assert d2 == pytest.approx(math.sqrt(5.0))  # quarter-turn relay

    def test_sector_edge_symmetric(self):
        geom = NetworkGeometry(1.0, 4, 2.0, math.radians(45.0))
        d1, d2 = two_relay_distances(geom)
        assert d1 == pytest.approx(d2)

    def test_needs_two_relays(self):
        with pytest.raises(ValueError):
            two_relay_distances(NetworkGeometry(1.0, 1, 2.0, 0.0))


class TestCoopCoverage:
    def test_coop_df_dominates_df_per_sample(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=5000)
        geom = NetworkGeometry(0.95, 4, 1.8, math.radians(30.0))
        r_DR1, r_DR2 = two_relay_distances(geom)
        s = sample_bound_realizations(scn, r_R=0.95, r_D=1.8, r_DR=r_DR1,
                                      mc=mc)
        coop = estimate_coop_sum_rate(scn, 1.8, r_DR1, r_DR2, mc)._values
        assert np.all(np.minimum(s.c3, coop) >= np.minimum(s.c3, s.c2) - 1e-9)
        assert coop_df_rate(scn, geom, mc).mean >= np.minimum(s.c3, s.c2).mean()

    def test_boundary_dominates_noncoop_everywhere(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=2000)
        solver = SolverConfig()
        noncoop = coverage_boundary(scn, 0.95, 4, 16, mc, solver)
        coop = coop_coverage_boundary(scn, 0.95, 4, 16, mc, solver)
        assert np.all(coop.radii >= noncoop.radii)
        gains = coop.radii / noncoop.radii
        # Largest relative gain in the nulls at the sector edges.
        edge = np.argmin(noncoop.radii)
        assert gains[edge] == pytest.approx(np.max(gains), abs=1e-9)

    def test_zero_power_second_relay_matches_noncoop(self, monkeypatch):
        # Silence the second relay: the cooperative rate is then the
        # noncooperative one bit for bit, and so is the boundary.
        coop = ChannelBank.coop
        monkeypatch.setattr(
            ChannelBank, "coop",
            lambda bank, a_sd, a_rd, a_rd2: coop(bank, a_sd, a_rd, 0.0))
        scn = ScenarioConfig()
        mc = McConfig(samples=2000)
        solver = SolverConfig()
        noncoop = coverage_boundary(scn, 0.95, 4, 16, mc, solver)
        degenerate = coop_coverage_boundary(scn, 0.95, 4, 16, mc, solver)
        assert degenerate == noncoop

    def test_needs_two_relays(self):
        with pytest.raises(ValueError):
            coop_coverage_boundary(ScenarioConfig(), 0.95, 1, 16,
                                   McConfig(samples=100), SolverConfig())
