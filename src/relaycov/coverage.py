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


def _meets(f: Callable[[float], float], x: float) -> bool:
    """f(x) >= 0, raising FloatingPointError when f(x) is NaN."""
    value = f(x)
    if math.isnan(value):
        raise FloatingPointError(f"objective is NaN at r={x!r}")
    return value >= 0.0


def bisect_largest(f: Callable[[float], float], lo: float, hi: float,
                   tol: float, max_iter: int) -> float:
    """Largest x in [lo, hi] with f(x) >= 0 for a nonincreasing f.

    Caller guarantees f(lo) >= 0 > f(hi). Terminates after at most
    ceil(log2((hi - lo) / tol)) halvings (or max_iter, whichever is
    smaller) and returns the satisfying end of the final bracket. A NaN
    objective raises FloatingPointError.
    """
    it = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        if _meets(f, mid):
            lo = mid
        else:
            hi = mid
        it += 1
    return lo


def optimal_relay_radius(scn: ScenarioConfig, mc: McConfig,
                         solver: SolverConfig) -> float:
    """Largest relay radius at which the source-relay rate meets R_c.

    Bisection on the seed-deterministic, monotone-decreasing relay-link
    rate; every probe reuses the same seed (common random numbers), so the
    result is within solver.tol of that seed's true crossing.

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
    return bisect_largest(f, solver.r_lo, solver.r_hi, solver.tol, solver.max_iter)


def rate_vs_relay_radius(scn: ScenarioConfig, mc: McConfig,
                         radii) -> list[tuple[float, float]]:
    """Relay-link ergodic rate at each radius, with common random numbers.

    The region below the resulting curve is where decode-and-forward can
    be applied at that rate.
    """
    return [(float(r), capacity.estimate_c3(scn, float(r), mc).mean) for r in radii]


def _rate_objective(scn: ScenarioConfig, r_R: float, L: int, mc: McConfig,
                    metric: str) -> Callable[[float, float], float]:
    def rate(theta_D: float, r_D: float) -> float:
        geom = NetworkGeometry(relay_radius=r_R, relay_count=L,
                               dest_radius=r_D, dest_angle=theta_D)
        if metric == "cutset":
            return capacity.cutset_bound(scn, geom, mc).mean
        return capacity.df_rate(scn, geom, mc).mean
    return rate


def solve_ray(rate: Callable[[float, float], float], theta_D: float,
              rate_target: float, solver: SolverConfig) -> float:
    """Largest destination radius along one ray meeting the rate target.

    Returns 0.0 when the target is unachievable even at r_lo; raises
    BracketError when r_hi still meets it and FloatingPointError when the
    rate is NaN.
    """
    f = lambda r: rate(theta_D, r) - rate_target
    if not _meets(f, solver.r_lo):
        return 0.0
    if _meets(f, solver.r_hi):
        raise BracketError(
            f"rate {rate_target} still achievable at r_hi={solver.r_hi}; "
            f"widen the bracket")
    return bisect_largest(f, solver.r_lo, solver.r_hi, solver.tol, solver.max_iter)


def sweep_boundary(rate: Callable[[float, float], float], rate_target: float,
                   L: int, angular_steps: int, solver: SolverConfig,
                   metric: str, exploit_symmetry: bool = True) -> CoverageRegion:
    """Solve the boundary radius at uniformly spaced angles.

    With exploit_symmetry the sweep only solves angles with distinct folded
    off-relay angles (the rate depends on the angle only through that fold)
    and mirrors the rest; disabling it solves every angle directly, which
    is useful for validating the L-fold symmetry.
    """
    if angular_steps < 4 * L:
        raise ValueError(
            f"angular_steps must be >= 4*L to resolve the lobes, "
            f"got {angular_steps} < {4 * L}")
    theta_cov = 2.0 * math.pi / L
    entries = []
    solved: list[tuple[float, float]] = []  # (folded angle, r_max)
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
            r_max = solve_ray(rate, theta, rate_target, solver)
            solved.append((fold, r_max))
        entries.append((theta, r_max))
    return CoverageRegion(entries=tuple(entries), rate_target=rate_target,
                          metric=metric)


def coverage_boundary(scn: ScenarioConfig, r_R: float, L: int,
                      angular_steps: int, mc: McConfig, solver: SolverConfig,
                      metric: str = "df",
                      exploit_symmetry: bool = True) -> CoverageRegion:
    """Full polar coverage boundary for L relays at radius r_R.

    Rays where the target is unachievable appear as r_max = 0 entries.
    """
    rate = _rate_objective(scn, r_R, L, mc, metric)
    return sweep_boundary(rate, scn.R_c, L, angular_steps, solver, metric,
                          exploit_symmetry)
