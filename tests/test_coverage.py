import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaycov import capacity, cli, coverage
from relaycov.capacity import McConfig, ScenarioConfig
from relaycov.channel import FadingModel, LosPrototype, NetworkGeometry
from relaycov.cooperation import coop_coverage_boundary, coop_df_rate
from relaycov.coverage import (
    BracketError,
    CoverageRegion,
    NoSolutionError,
    SolverConfig,
    bisect_largest,
    coverage_boundary,
    optimal_relay_radius,
    rate_vs_relay_radius,
    solve_ray,
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


def plain_bisect(f, lo, hi, tol, max_iter):
    """Reference: bisection evaluating every midpoint."""
    it = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        it += 1
    return lo


def halving_point(lo, hi, sides):
    """The midpoint reached after taking the given sides (True: upper)."""
    for upper in sides:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if upper else (lo, mid)
    return 0.5 * (lo + hi)


SHAPES = {
    "linear": lambda root: lambda x: root - x,
    "log": lambda root: lambda x: math.log(root / x),
    # Flat where a rate cap binds, like min(c3, c2) along a ray.
    "capped": lambda root: lambda x: min(0.25, 3.0 * (root - x)),
}


@st.composite
def crossings(draw):
    """(f, lo, hi, tol, max_iter, root) with f changing sign once on
    [lo, hi], at root, and f(lo) >= 0 > f(hi)."""
    lo = draw(st.floats(1e-3, 50.0))
    hi = lo + draw(st.floats(1e-3, 50.0))
    tol = (hi - lo) * draw(st.floats(1e-7, 0.6))
    max_iter = draw(st.integers(1, 60))
    where = draw(st.sampled_from(["inside", "dyadic", "near_lo", "near_hi"]))
    if where == "inside":
        root = lo + (hi - lo) * draw(st.floats(0.0, 0.999))
    elif where == "dyadic":
        root = halving_point(lo, hi, draw(st.lists(st.booleans(), max_size=30)))
    elif where == "near_lo":
        root = lo + tol * draw(st.floats(0.0, 1.0))
    else:
        root = hi - tol * draw(st.floats(1e-3, 1.0))
    assume(lo <= root < hi)
    f = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](root)
    assume(f(lo) >= 0.0 > f(hi))
    return f, lo, hi, tol, max_iter, root


@settings(max_examples=400, deadline=None)
@given(crossings(), st.data())
def test_warm_start_returns_the_plain_result(case, data):
    f, lo, hi, tol, max_iter, root = case
    guess = data.draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(lo, hi), st.sampled_from([lo, hi]),
        st.floats(-0.01, 0.01).map(lambda e: root + e * (hi - lo))), "guess")
    slope = data.draw(st.one_of(
        st.none(), st.floats(allow_nan=False, allow_infinity=False)), "slope")
    plain, warm = [], []

    def recorded(points):
        def probe(x):
            points.append(x)
            return f(x)
        return probe

    cold = bisect_largest(f, lo, hi, tol, max_iter)
    assert cold == plain_bisect(recorded(plain), lo, hi, tol, max_iter)
    assert bisect_largest(recorded(warm), lo, hi, tol, max_iter,
                          guess, slope) == cold
    assert all(lo <= x <= hi for x in warm)
    assert len(warm) <= len(plain) + 3  # the docstring's worst case


class TestWarmStart:
    def test_exact_guess_costs_two_evaluations(self):
        calls = []

        def f(r):
            calls.append(r)
            return 2.0 - r

        cold = bisect_largest(f, 0.05, 10.0, 1e-3, 60)
        calls.clear()
        assert bisect_largest(f, 0.05, 10.0, 1e-3, 60, guess=2.0,
                              slope=-1.0) == cold
        assert len(calls) == 2

    @pytest.mark.parametrize("nan_from", [0.0, 1.9])
    def test_nan_on_the_warm_path_raises(self, nan_from):
        # NaN everywhere, or only around the guessed crossing.
        f = lambda r: 2.0 - r if r < nan_from else math.nan
        with pytest.raises(FloatingPointError):
            bisect_largest(f, 0.05, 10.0, 1e-3, 60, guess=1.95, slope=-1.0)


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


ESTIMATORS = {"df": capacity.df_rate, "cutset": capacity.cutset_bound,
              "coop": coop_df_rate}


def ray_rate(estimator, scn, r_R, L, mc):
    def rate(theta_D, r_D):
        geom = NetworkGeometry(relay_radius=r_R, relay_count=L,
                               dest_radius=r_D, dest_angle=theta_D)
        return estimator(scn, geom, mc).mean
    return rate


class TestWarmSweeps:
    SCN, MC, SOLVER = ScenarioConfig(), McConfig(samples=2000), SolverConfig()

    @pytest.mark.parametrize("exploit_symmetry", [True, False])
    @pytest.mark.parametrize("sweep", ["df", "cutset", "coop"])
    def test_every_ray_matches_a_cold_solve(self, sweep, exploit_symmetry):
        scn, mc, solver = self.SCN, self.MC, self.SOLVER
        if sweep == "coop":
            region = coop_coverage_boundary(scn, 0.95, 4, 24, mc, solver,
                                            exploit_symmetry=exploit_symmetry)
        else:
            region = coverage_boundary(scn, 0.95, 4, 24, mc, solver,
                                       metric=sweep,
                                       exploit_symmetry=exploit_symmetry)
        rate = ray_rate(ESTIMATORS[sweep], scn, 0.95, 4, mc)
        cold = [solve_ray(rate, theta, scn.R_c, solver)
                for theta in region.thetas]
        assert cold == list(region.radii)

    def test_default_coop_run_probe_cost(self, monkeypatch, tmp_path):
        # relaycov coop at defaults: the noncoop sweep's first ray is solved
        # cold (2 + 14 probes); the coop sweep's first ray guesses the
        # noncoop radius and no slope (at most 2 + 6); every later ray is
        # warm-started from its own sweep and costs at most 2 + 3.
        rays = []

        def counted(rate, theta_D, rate_target, solver, guess=None, slope=None):
            calls = []

            def probe(theta, r):
                calls.append(r)
                return rate(theta, r)

            r_max = solve_ray(probe, theta_D, rate_target, solver, guess, slope)
            rays.append((guess, slope, len(calls), r_max))
            return r_max

        monkeypatch.setattr(coverage, "solve_ray", counted)
        assert cli.run(cli.RunManifest(
            command="coop", output_path=str(tmp_path / "coop.csv"))) == 0
        # 10 distinct folds per sweep, noncoop first.
        assert len(rays) == 20
        guess, slope, probes, noncoop_r0 = rays[0]
        assert (guess, slope, probes) == (None, None, 2 + 14)
        guess, slope, probes, _ = rays[10]
        assert (guess, slope) == (noncoop_r0, None)
        assert probes <= 2 + 6
        assert max(probes for *_, probes, _ in rays[1:10] + rays[11:]) <= 2 + 3


class TestRelayRadiusWarmStart:
    def test_table_guess_same_radius_fewer_probes(self, monkeypatch):
        scn, mc, solver = ScenarioConfig(), McConfig(samples=4000), SolverConfig()
        table = rate_vs_relay_radius(scn, mc, np.linspace(0.25, 2.5, 21))
        calls = []
        estimate_c3 = capacity.estimate_c3

        def counted(*args):
            calls.append(args[1])
            return estimate_c3(*args)

        monkeypatch.setattr(capacity, "estimate_c3", counted)
        # The high-SNR closed form guesses when no table is given.
        closed_form = optimal_relay_radius(scn, mc, solver)
        closed_form_probes = len(calls)
        calls.clear()
        assert optimal_relay_radius(scn, mc, solver, table) == closed_form
        assert len(calls) <= 2 + 3
        calls.clear()
        monkeypatch.setattr(coverage, "_high_snr_crossing",
                            lambda scn: (None, None))
        assert optimal_relay_radius(scn, mc, solver) == closed_form
        assert len(calls) == 2 + 14
        assert closed_form_probes <= 2 + 8

    @pytest.mark.parametrize("scn", [
        ScenarioConfig(), ScenarioConfig(M_r=3, N_s=1, R_c=3.0),
        ScenarioConfig(R_c=1e-300), ScenarioConfig(alpha=2.0)],
        ids=["defaults", "1x3", "tiny-R_c", "alpha-2"])
    def test_high_snr_guess_is_the_closed_form_crossing(self, scn):
        r, slope = coverage._high_snr_crossing(scn)
        m, n = sorted((scn.M_r, scn.N_s))
        rate = lambda r: capacity.high_snr_rate(m, n, scn.N_s,
                                                scn.P_s * r ** -scn.alpha)
        assert rate(r) == pytest.approx(scn.R_c, rel=1e-9, abs=1e-9)
        h = 1e-6 * r
        assert slope == pytest.approx((rate(r + h) - rate(r - h)) / (2 * h),
                                      rel=1e-6)

    @pytest.mark.parametrize("scn", [
        ScenarioConfig(R_c=1e6), ScenarioConfig(alpha=1e-300),
        ScenarioConfig(P_s=1e300, alpha=1e-3)],
        ids=["huge-R_c", "tiny-alpha", "radius-overflows"])
    def test_high_snr_guess_dropped_when_not_a_float(self, scn):
        assert coverage._high_snr_crossing(scn) == (None, None)
