import math

import numpy as np
import pytest

from relaycov.capacity import McConfig, ScenarioConfig
from relaycov.channel import FadingModel, LosPrototype
from relaycov.coverage import (
    BracketError,
    CoverageRegion,
    NoSolutionError,
    SolverConfig,
    bisect_largest,
    coverage_boundary,
    optimal_relay_radius,
    rate_vs_relay_radius,
)

PURE_LOS_K = 1e9


def rician(k, kind):
    proto = (LosPrototype.poorly_conditioned() if kind == "poor"
             else LosPrototype.well_conditioned())
    return FadingModel.rician(k, proto)


class TestBisect:
    def test_iteration_bound_and_accuracy(self):
        calls = []

        def f(r):
            calls.append(r)
            return 2.0 - r

        solver = SolverConfig(r_lo=0.05, r_hi=10.0, tol=1e-3)
        root = bisect_largest(f, solver.r_lo, solver.r_hi, solver.tol,
                              solver.max_iter)
        bound = math.ceil(math.log2((solver.r_hi - solver.r_lo) / solver.tol))
        assert len(calls) <= bound
        assert 2.0 - solver.tol <= root <= 2.0  # satisfying side of the bracket

    def test_solver_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(r_lo=2.0, r_hi=1.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)


class TestOptimalRelayRadius:
    def test_rayleigh_near_unity(self):
        r = optimal_relay_radius(ScenarioConfig(), McConfig(samples=20_000),
                                 SolverConfig())
        assert 0.95 <= r <= 1.05

    def test_pure_los_closed_forms(self):
        solver = SolverConfig()
        mc = McConfig(samples=2000)
        scn = ScenarioConfig(fading_sr=rician(PURE_LOS_K, "poor"))
        ref_poor = ((2 ** 5.5 - 1) / 20.0) ** (-1 / 3.52)
        assert optimal_relay_radius(scn, mc, solver) == pytest.approx(
            ref_poor, abs=0.01)
        scn = ScenarioConfig(fading_sr=rician(PURE_LOS_K, "well"))
        ref_well = ((2 ** 2.75 - 1) / 10.0) ** (-1 / 3.52)
        assert optimal_relay_radius(scn, mc, solver) == pytest.approx(
            ref_well, abs=0.01)

    def test_no_solution(self):
        scn = ScenarioConfig(R_c=200.0)
        with pytest.raises(NoSolutionError):
            optimal_relay_radius(scn, McConfig(samples=500), SolverConfig())

    def test_bracket_failure(self):
        scn = ScenarioConfig(R_c=1e-6)
        with pytest.raises(BracketError):
            optimal_relay_radius(scn, McConfig(samples=500), SolverConfig())

    def test_deterministic(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=4000)
        assert (optimal_relay_radius(scn, mc, SolverConfig())
                == optimal_relay_radius(scn, mc, SolverConfig()))


class TestRateVsRelayRadius:
    def test_monotone_decreasing_per_seed(self):
        table = rate_vs_relay_radius(ScenarioConfig(), McConfig(samples=4000),
                                     [0.5, 0.8, 1.0, 1.5, 2.0])
        rates = [rate for _, rate in table]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_reference_row(self):
        table = rate_vs_relay_radius(ScenarioConfig(), McConfig(samples=100_000),
                                     [1.0])
        assert table[0][1] == pytest.approx(5.5, abs=0.1)

    def test_power_doubling_shift_at_high_snr(self):
        # Doubling P_s lifts the curve by about m = 2 bits in the high-SNR
        # region (small radii); quadrupling lifts it by about 4.
        mc = McConfig(samples=20_000)
        r = [0.3]
        base = rate_vs_relay_radius(ScenarioConfig(P_s=10.0), mc, r)[0][1]
        twice = rate_vs_relay_radius(ScenarioConfig(P_s=20.0), mc, r)[0][1]
        quad = rate_vs_relay_radius(ScenarioConfig(P_s=40.0), mc, r)[0][1]
        assert twice - base == pytest.approx(2.0, abs=0.1)
        assert quad - base == pytest.approx(4.0, abs=0.1)


class TestMaxCoverageRadius:
    # The radius of one ray, read off a 16-angle sweep (22.5 degree steps).
    def test_largest_on_relay_axis(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=4000)
        solver = SolverConfig()
        radii = coverage_boundary(scn, 0.95, 4, 16, mc, solver).radii
        on_axis, mid, edge = radii[:3]  # 0, 22.5 and 45 degrees
        assert on_axis >= mid - solver.tol
        assert mid >= edge - solver.tol
        assert on_axis > edge

    def test_unachievable_returns_zero(self):
        scn = ScenarioConfig(R_c=50.0)
        region = coverage_boundary(scn, 0.95, 4, 16, McConfig(samples=500),
                                   SolverConfig())
        assert np.all(region.radii == 0.0)

    def test_cutset_metric_dominates_df(self):
        scn = ScenarioConfig()
        mc = McConfig(samples=4000)
        solver = SolverConfig()
        r_df = coverage_boundary(scn, 0.95, 4, 16, mc, solver,
                                 metric="df").radii
        r_cs = coverage_boundary(scn, 0.95, 4, 16, mc, solver,
                                 metric="cutset").radii
        assert np.all(r_cs >= r_df - solver.tol)


class TestCoverageBoundary:
    def test_grid_and_region_shape(self):
        scn = ScenarioConfig()
        region = coverage_boundary(scn, 0.95, 4, 16, McConfig(samples=2000),
                                   SolverConfig())
        assert len(region.entries) == 16
        thetas = region.thetas
        assert thetas[0] == 0.0
        assert np.all(np.diff(thetas) > 0)
        assert thetas[-1] < 2 * math.pi
        assert region.metric == "df"
        assert region.rate_target == scn.R_c

    def test_angular_resolution_guard(self):
        with pytest.raises(ValueError):
            coverage_boundary(ScenarioConfig(), 0.95, 4, 8,
                              McConfig(samples=100), SolverConfig())

    def test_symmetry_exploitation_matches_direct(self):
        # Probes share the seed, so the folded sweep and the full sweep
        # produce identical boundaries.
        scn = ScenarioConfig()
        mc = McConfig(samples=2000)
        solver = SolverConfig()
        fast = coverage_boundary(scn, 0.95, 4, 16, mc, solver,
                                 exploit_symmetry=True)
        full = coverage_boundary(scn, 0.95, 4, 16, mc, solver,
                                 exploit_symmetry=False)
        assert np.array_equal(fast.radii, full.radii)

    def test_raising_target_never_enlarges(self):
        mc = McConfig(samples=2000)
        solver = SolverConfig()
        lo = coverage_boundary(ScenarioConfig(R_c=5.0), 0.95, 4, 16, mc, solver)
        hi = coverage_boundary(ScenarioConfig(R_c=5.5), 0.95, 4, 16, mc, solver)
        assert np.all(hi.radii <= lo.radii + 1e-12)

    def test_boundary_continuity(self):
        # Adjacent-angle radii move smoothly; a sector-assignment bug at the
        # edges would show up as an O(r) jump.
        region = coverage_boundary(ScenarioConfig(), 0.95, 4, 32,
                                   McConfig(samples=2000), SolverConfig())
        r = region.radii
        jumps = np.abs(np.diff(np.concatenate([r, r[:1]])))
        assert np.max(jumps) < 5 * 1e-3 + 0.2

    def test_region_validation(self):
        with pytest.raises(ValueError):
            CoverageRegion(entries=((0.0, 1.0), (0.0, 1.0)), rate_target=5.5,
                           metric="df")
        with pytest.raises(ValueError):
            CoverageRegion(entries=((0.0, 1.0),), rate_target=5.5,
                           metric="bogus")
        with pytest.raises(ValueError):
            CoverageRegion(entries=((0.0, -1.0),), rate_target=5.5,
                           metric="df")
