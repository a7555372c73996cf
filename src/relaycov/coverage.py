"""Optimal relay radius for a target rate and polar coverage-boundary
sweeps for L uniformly placed relays."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import capacity
from .capacity import McConfig, ParameterError, ScenarioConfig
from .channel import NetworkGeometry

# Grid angles whose folded off-relay angles agree within this are treated
# as the same boundary point during a symmetric sweep.
_FOLD_TOL = 1e-9

# Evaluations a warm-started bisection may run ahead of the halvings they
# have settled before it falls back to midpoints: two to land on both ends
# of a predicted final bracket, one more for a secant from one side.
_WARM_SLACK = 3


class NoSolutionError(RuntimeError):
    """The rate target is unachievable even at the lower bracket."""


class BracketError(RuntimeError):
    """The rate target is still met at the upper bracket; widen r_hi."""


@dataclass(frozen=True)
class SolverConfig:
    """Bisection bracket and stopping rule for radius solves.

    r_lo defaults to 0.05 to stay clear of the path-loss singularity at
    zero distance.
    """

    r_lo: float = 0.05
    r_hi: float = 10.0
    tol: float = 1e-3
    max_iter: int = 60

    def __post_init__(self):
        for name in ("r_lo", "r_hi", "tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(name, f"{name} must be finite, got {value}")
        if not self.r_lo < self.r_hi:
            raise ParameterError(
                "r_lo", f"need r_lo < r_hi, got {self.r_lo} >= {self.r_hi}")
        if self.r_lo <= 0:
            raise ParameterError("r_lo", f"r_lo must be > 0, got {self.r_lo}")
        if self.tol <= 0:
            raise ParameterError("tol", f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ParameterError(
                "max_iter", f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class CoverageRegion:
    """Polar boundary: (angle, max radius) pairs plus the rate metric used.

    Angles are radians, strictly increasing, covering [0, 2*pi) at the
    sweep resolution. r_max = 0 encodes "target rate unachievable at any
    radius >= r_lo" along that ray.
    """

    entries: tuple[tuple[float, float], ...]
    rate_target: float
    metric: str

    def __post_init__(self):
        if self.metric not in ("df", "cutset"):
            raise ValueError(f"metric must be 'df' or 'cutset', got {self.metric!r}")
        thetas = [t for t, _ in self.entries]
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("angles must be strictly increasing")
        if thetas and (thetas[0] < 0 or thetas[-1] >= 2.0 * math.pi):
            raise ValueError("angles must lie in [0, 2*pi)")
        if any(r < 0 for _, r in self.entries):
            raise ValueError("radii must be >= 0")

    @property
    def thetas(self) -> np.ndarray:
        return np.array([t for t, _ in self.entries])

    @property
    def radii(self) -> np.ndarray:
        return np.array([r for _, r in self.entries])


def _value(f: Callable[[float], float], x: float) -> float:
    """f(x), raising FloatingPointError when it is NaN."""
    value = f(x)
    if math.isnan(value):
        raise FloatingPointError(f"objective is NaN at r={x!r}")
    return value


def _meets(f: Callable[[float], float], x: float) -> bool:
    """f(x) >= 0, raising FloatingPointError when f(x) is NaN."""
    return _value(f, x) >= 0.0


def _final_cell(lo: float, hi: float, it: int, tol: float, max_iter: int,
                x: float) -> tuple[float, float]:
    """The bracket bisection ends in from (lo, hi) after it halvings when
    the crossing lies at x: the halving path replayed, so its ends are the
    very floats the search would probe."""
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        if mid <= x:
            lo = mid
        else:
            hi = mid
        it += 1
    return lo, hi


def _predict(guess: float, slope: float | None, goods: list, bads: list) -> float:
    """Predicted crossing from the (x, f(x)) points evaluated so far, each
    list ordered towards the crossing: a secant through the nearest point
    on each side, else through the two nearest on one side, else a Newton
    step from the one point with the given slope, else the guess. NaN when
    the step is undefined."""
    if goods and bads:
        (x0, f0), (x1, f1) = goods[-1], bads[-1]
    elif len(goods) > 1 or len(bads) > 1:
        (x0, f0), (x1, f1) = (goods or bads)[-2:]
    elif (goods or bads) and slope is not None and slope < 0.0:
        (x1, f1), = goods or bads
        return x1 - f1 / slope
    else:
        return guess
    return x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan


def bisect_largest(f: Callable[[float], float], lo: float, hi: float,
                   tol: float, max_iter: int, guess: float | None = None,
                   slope: float | None = None) -> float:
    """Largest x in [lo, hi] with f(x) >= 0 for a nonincreasing f.

    Caller guarantees f(lo) >= 0 > f(hi). Halves the bracket until it is
    no wider than tol or max_iter halvings are done, whichever comes
    first, at most n = min(max_iter, ceil(log2((hi - lo) / tol))) halvings,
    and returns the satisfying end of the final bracket. A NaN objective
    raises FloatingPointError.

    A halving whose midpoint lies at or below a point already found to
    satisfy f >= 0, or at or above one found to fail it, takes that side
    without evaluating f. With no guess every other midpoint is evaluated:
    plain bisection, n evaluations. A guess of the crossing (and
    optionally the slope of f near it) makes the search evaluate instead
    the ends of the final bracket it predicts, found by replaying the
    halving path so that they are floats the search itself would probe:
    first an end on a side no evaluation has reached yet, then the end
    nearer the prediction. The prediction starts at the guess and moves
    by a secant or Newton step through the points evaluated so far. The
    midpoint is evaluated instead when the prediction is undefined or
    outside the known bracket, or when the evaluations so far number
    three more than the halvings they settled (interpolation has
    stalled). So a warm search evaluates at most n + 3 points, all inside
    (lo, hi), and typically 1 to 3 near a good guess.

    Whenever f changes sign once on [lo, hi], every halving takes the side
    plain bisection would take, so the result is the same float with or
    without a guess.
    """
    good, bad = lo, hi
    goods: list[tuple[float, float]] = []  # evaluated points, f >= 0
    bads: list[tuple[float, float]] = []   # evaluated points, f < 0
    it = evaluated = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        if good < mid < bad:  # the midpoint's sign is not implied yet
            x = mid
            if guess is not None and evaluated < it + _WARM_SLACK:
                target = _predict(guess, slope, goods, bads)
                if good <= target < bad:
                    a, b = _final_cell(lo, hi, it, tol, max_iter, target)
                    # An end not yet implied: on the side no evaluation
                    # has reached yet, else the one nearer the prediction.
                    if a <= good or (b < bad and (
                            not bads or (goods and b - target < target - a))):
                        x = b
                    else:
                        x = a
            value = _value(f, x)
            evaluated += 1
            if value >= 0.0:
                good = x
                goods.append((x, value))
            else:
                bad = x
                bads.append((x, value))
            continue
        if mid <= good:
            lo = mid
        else:
            hi = mid
        it += 1
    return lo


def _crossing(points, target: float) -> tuple[float | None, float | None]:
    """Where a nonincreasing curve, sampled as (r, value) points, crosses
    target, and its slope there: the line through the tightest pair of
    points on either side. (None, None) when no such pair brackets it."""
    above = [p for p in points if p[1] >= target]
    below = [p for p in points if p[1] < target]
    if not (above and below):
        return None, None
    (r0, v0), (r1, v1) = max(above), min(below)
    if not r0 < r1:
        return None, None
    slope = (v1 - v0) / (r1 - r0)
    return r0 + (target - v0) / slope, slope


def _high_snr_crossing(scn: ScenarioConfig) -> tuple[float | None, float | None]:
    """Where the relay link's high-SNR rate c0 + m log2(P_s r^-alpha) meets
    R_c, and its slope -m alpha / (r ln 2) there; (None, None) unless that
    radius is a positive float."""
    m, n = sorted((scn.M_r, scn.N_s))
    c0 = capacity.high_snr_rate(m, n, scn.N_s, 1.0)
    try:
        r = (scn.P_s / 2.0 ** ((scn.R_c - c0) / m)) ** (1.0 / scn.alpha)
    except OverflowError:
        return None, None
    if not (math.isfinite(r) and r > 0.0):
        return None, None
    return r, -m * scn.alpha / (r * math.log(2.0))


def optimal_relay_radius(scn: ScenarioConfig, mc: McConfig,
                         solver: SolverConfig,
                         table: list[tuple[float, float]] | None = None) -> float:
    """Largest relay radius at which the source-relay rate meets R_c.

    Bisection on the seed-deterministic, monotone-decreasing relay-link
    rate; every probe reuses the same seed (common random numbers), so the
    result is within solver.tol of that seed's true crossing. table, the
    (r_R, rate) rows of rate_vs_relay_radius on the same scn and mc,
    warm-starts the bisection at its interpolated crossing, the high-SNR
    closed form without one; the result is the same.

    Raises NoSolutionError when even r_lo misses the target,
    BracketError when r_hi still meets it, and FloatingPointError when
    the rate is NaN.
    """
    f = lambda r: capacity.estimate_c3(scn, r, mc).mean - scn.R_c
    if not _meets(f, solver.r_lo):
        raise NoSolutionError(
            f"rate {scn.R_c} unachievable at relay radius {solver.r_lo}")
    if _meets(f, solver.r_hi):
        raise BracketError(
            f"rate {scn.R_c} still achievable at r_hi={solver.r_hi}; widen the bracket")
    guess, slope = (_high_snr_crossing(scn) if table is None
                    else _crossing(table, scn.R_c))
    return bisect_largest(f, solver.r_lo, solver.r_hi, solver.tol,
                          solver.max_iter, guess, slope)


def rate_vs_relay_radius(scn: ScenarioConfig, mc: McConfig,
                         radii) -> list[tuple[float, float]]:
    """Relay-link ergodic rate at each radius, with common random numbers.

    The region below the resulting curve is where decode-and-forward can
    be applied at that rate.
    """
    return [(float(r), capacity.estimate_c3(scn, float(r), mc).mean) for r in radii]


def solve_ray(rate: Callable[[float, float], float], theta_D: float,
              rate_target: float, solver: SolverConfig,
              guess: float | None = None, slope: float | None = None) -> float:
    """Largest destination radius along one ray meeting the rate target.

    Returns 0.0 when the target is unachievable even at r_lo; raises
    BracketError when r_hi still meets it and FloatingPointError when the
    rate is NaN. guess and slope warm-start the bisection (see
    bisect_largest); they change the probes, not the result.
    """
    f = lambda r: rate(theta_D, r) - rate_target
    if not _meets(f, solver.r_lo):
        return 0.0
    if _meets(f, solver.r_hi):
        raise BracketError(
            f"rate {rate_target} still achievable at r_hi={solver.r_hi}; "
            f"widen the bracket")
    return bisect_largest(f, solver.r_lo, solver.r_hi, solver.tol,
                          solver.max_iter, guess, slope)


def _extrapolate(solved: list[tuple[float, float]], fold: float) -> float | None:
    """Guess of the radius at fold from the rays solved so far: the line
    through the reached rays of the two nearest distinct folds, the one
    reached ray's radius, or None before any ray is reached."""
    reached = sorted((abs(f - fold), f, r) for f, r in solved if r > 0.0)
    if not reached:
        return None
    _, f1, r1 = reached[0]
    for _, f0, r0 in reached[1:]:
        if abs(f1 - f0) > _FOLD_TOL:
            return r1 + (r1 - r0) * (fold - f1) / (f1 - f0)
    return r1


def sweep_boundary(estimator: Callable, scn: ScenarioConfig, r_R: float,
                   L: int, angular_steps: int, mc: McConfig,
                   solver: SolverConfig, metric: str,
                   exploit_symmetry: bool = True,
                   prior: CoverageRegion | None = None) -> CoverageRegion:
    """Solve the boundary radius at uniformly spaced angles, probing the
    rate estimator(scn, geom, mc) with L relays at radius r_R.

    With exploit_symmetry the sweep only solves angles with distinct folded
    off-relay angles (the rate depends on the angle only through that fold)
    and mirrors the rest; disabling it solves every angle directly, which
    is useful for validating the L-fold symmetry. Each ray after the first
    reached one is warm-started from the radii solved so far and the
    rate's slope at the last crossing, one before it from prior's radius at
    that angle. A guess saves probes; a cold solve_ray finds the same radius.
    """
    if angular_steps < 4 * L:
        raise ValueError(
            f"angular_steps must be >= 4*L to resolve the lobes, "
            f"got {angular_steps} < {4 * L}")
    theta_cov = 2.0 * math.pi / L
    entries = []
    solved: list[tuple[float, float]] = []  # (folded angle, r_max)
    slope = None
    for j in range(angular_steps):
        theta = 2.0 * math.pi * j / angular_steps
        x = math.fmod(theta, theta_cov)
        fold = min(x, theta_cov - x)
        r_max = None
        if exploit_symmetry:
            for fold_prev, r_prev in solved:
                if abs(fold - fold_prev) <= _FOLD_TOL:
                    r_max = r_prev
                    break
        if r_max is None:
            probes: list[tuple[float, float]] = []

            def rate(theta_D: float, r_D: float) -> float:
                value = estimator(scn, NetworkGeometry(r_R, L, r_D, theta_D),
                                  mc).mean
                probes.append((r_D, value))
                return value

            guess = _extrapolate(solved, fold)
            if guess is None and prior is not None:
                guess = prior.entries[j][1] or None
            r_max = solve_ray(rate, theta, scn.R_c, solver, guess, slope)
            slope = _crossing(probes, scn.R_c)[1] or slope
            solved.append((fold, r_max))
        entries.append((theta, r_max))
    return CoverageRegion(entries=tuple(entries), rate_target=scn.R_c,
                          metric=metric)


def coverage_boundary(scn: ScenarioConfig, r_R: float, L: int,
                      angular_steps: int, mc: McConfig, solver: SolverConfig,
                      metric: str = "df",
                      exploit_symmetry: bool = True) -> CoverageRegion:
    """Full polar coverage boundary for L relays at radius r_R.

    Rays where the target is unachievable appear as r_max = 0 entries.
    """
    estimator = capacity.cutset_bound if metric == "cutset" else capacity.df_rate
    return sweep_boundary(estimator, scn, r_R, L, angular_steps, mc, solver,
                          metric, exploit_symmetry)
