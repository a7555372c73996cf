"""Two-relay cooperative sum-rate estimators, their high-SNR closed form,
the sum-rate fit, and the Hata coverage-extension factor."""

import math
from dataclasses import dataclass

import numpy as np

from . import capacity, coverage
from .capacity import (BoundEstimate, McConfig, ParameterError, ScenarioConfig,
                       digamma)
from .channel import NetworkGeometry
from .coverage import CoverageRegion, SolverConfig

_LN2 = math.log(2.0)


class FitFailureError(RuntimeError):
    """Sum-rate fit is degenerate (e.g. a single repeated power point)."""


@dataclass(frozen=True)
class SumRateFit:
    """Coefficients of the sum-rate approximation K1 * log2(1 + K2 * P)."""

    K1: float
    K2: float

    def __post_init__(self):
        if self.K1 <= 0 or self.K2 <= 0:
            raise ValueError("K1 and K2 must be > 0")

    def rate(self, P: float) -> float:
        return self.K1 * math.log2(1.0 + self.K2 * P)


@dataclass(frozen=True)
class ExtensionFactors:
    """Coverage-extension pair: the literal distance-ratio value and its
    reciprocal coverage_gain (>= 1), exact reciprocals; and
    coverage_gain_db, the distance ratio that a Hata slope in dB per
    decade gives.

    coverage_gain here is the literal reciprocal power_ratio^(-1/B). The
    coop sidecar's coverage_gain is not this one but coverage_gain_db at
    B = 10 alpha, power_ratio^(-1/alpha)."""

    literal: float
    coverage_gain: float
    coverage_gain_db: float


def estimate_coop_sum_rate(scn: ScenarioConfig, r_D: float, r_DR1: float,
                           r_DR2: float, mc: McConfig) -> BoundEstimate:
    """Sum-rate at a destination hearing the source and two relays.

    Monte Carlo mean of log2 det(I + (P_s/N_s) r_D^-a H_s H_s† +
    (P_r/N_r) r_DR1^-a H_1 H_1† + (P_r/N_r) r_DR2^-a H_2 H_2†) on draws
    aligned with the noncooperative estimators.
    """
    a_sd = capacity._scaled_power(scn, "P_s", "r_D", r_D)
    a_rd = capacity._scaled_power(scn, "P_r", "r_DR", r_DR1)
    a_rd2 = capacity._scaled_power(scn, "P_r", "r_DR2", r_DR2)
    return capacity.summarize_samples(
        capacity._bank_for(scn, mc).coop(a_sd, a_rd, a_rd2))


def coop_df_rate(scn: ScenarioConfig, geom: NetworkGeometry,
                 mc: McConfig) -> BoundEstimate:
    """Decode-and-forward rate with the two nearest relays cooperating.

    Per realization min(relay-link rate, cooperative sum-rate), averaged;
    the relay-decoding constraint is unchanged from the single-relay case.
    The minimum is taken in place on the fresh sum-rate array.
    """
    bank, (a_sr, a_sd, a_rd, a_rd2) = capacity._probe(scn, geom, mc, 2)
    c3 = bank.c3(a_sr)
    coop = bank.coop(a_sd, a_rd, a_rd2)
    return capacity.summarize_samples(np.minimum(c3, coop, out=coop))


def two_relay_distances(geom: NetworkGeometry) -> tuple[float, float]:
    """Distances from the destination to its two nearest relays, floored
    as the estimators floor them.

    The serving relay sits at off-axis angle phi in [0, pi/L]; the adjacent
    relay on the far side of the destination sits at 2*pi/L - phi.
    """
    return tuple(capacity._relay_distances(geom, 2))


def jensen_sum_rate_bound(H: np.ndarray, rho_dr: float, N_r: int) -> float:
    """Per-realization concavity upper bound on the symmetric sum-rate.

    r * log2(1 + (2 rho_dr / N_r) * mean of the squared singular values),
    r = min(N_r, M_d); upper-bounds log2 det(I + (2 rho_dr / N_r) H H†)
    for that same realization.
    """
    if rho_dr <= 0:
        raise ValueError(f"rho_dr must be > 0, got {rho_dr}")
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2:
        raise ValueError(f"expected a single matrix, got shape {H.shape}")
    if H.shape[1] != N_r:
        raise ValueError(f"H has {H.shape[1]} columns, expected N_r={N_r}")
    r = min(N_r, H.shape[0])
    # Sum of squared singular values = squared Frobenius norm.
    sum_sq = float(np.sum(np.abs(H) ** 2))
    return r * math.log2(1.0 + (2.0 * rho_dr / N_r) * (sum_sq / r))


def coop_high_snr_sum_rate(N_r: int, M_d: int, rho: float) -> float:
    """High-SNR cooperative sum-rate closed form, in bits.

    r * log2(rho / N_r) plus the expected log of the squared singular
    values as a sum of chi-square log-moments: E{ln chi2_{2i}} =
    psi(i) + ln 2 with the textbook chi-square (the channel entries carry
    unit-variance real and imaginary parts under this convention). rho is
    the combined received SNR, twice the per-relay value in the symmetric
    setup.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if N_r < 1 or M_d < 1:
        raise ValueError("antenna counts must be >= 1")
    r = min(N_r, M_d)
    lo = abs(N_r - M_d) + 1
    hi = max(N_r, M_d)
    chi_log_sum = sum((digamma(i) + _LN2) / _LN2 for i in range(lo, hi + 1))
    return r * math.log2(rho / N_r) + chi_log_sum


def _fit_k1_for(k2: float, P: np.ndarray, rates: np.ndarray) -> tuple[float, float]:
    # Closed-form least-squares slope for fixed K2 (regression through origin).
    x = np.log2(1.0 + k2 * P)
    xx = float(x @ x)
    if xx <= 0:
        return math.inf, 0.0
    k1 = float(rates @ x) / xx
    resid = rates - k1 * x
    return float(resid @ resid), k1


def fit_k1_k2(points) -> SumRateFit:
    """Least-squares fit of (K1, K2) in rate = K1 * log2(1 + K2 * P).

    Coarse log-spaced scan of K2 over [1e-4, 1e4] followed by a
    golden-section refinement; K1 has a closed form for each K2 candidate.
    Needs at least 3 points with positive powers and rates; all-equal
    powers raise FitFailureError.
    """
    pts = [(float(p), float(r)) for p, r in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    P = np.array([p for p, _ in pts])
    rates = np.array([r for _, r in pts])
    if np.any(P <= 0) or np.any(rates <= 0):
        raise ValueError("powers and rates must all be > 0")
    if np.all(P == P[0]):
        raise FitFailureError("all powers identical; K2 is unidentifiable")

    grid = np.linspace(-4.0, 4.0, 81)
    sses = [_fit_k1_for(10.0 ** g, P, rates)[0] for g in grid]
    best = int(np.argmin(sses))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _fit_k1_for(10.0 ** c, P, rates)[0]
    fd = _fit_k1_for(10.0 ** d, P, rates)[0]
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _fit_k1_for(10.0 ** c, P, rates)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _fit_k1_for(10.0 ** d, P, rates)[0]
    k2 = 10.0 ** (0.5 * (a + b))
    _, k1 = _fit_k1_for(k2, P, rates)
    if k1 <= 0:
        raise FitFailureError("fit produced a nonpositive K1")
    return SumRateFit(K1=k1, K2=k2)


def power_ratio(K2: float, P_d: float, gamma: float) -> float:
    """Received-power ratio K2 P_d / ((1 + K2 P_d)^gamma - 1).

    The ratio of the cooperative operating power to the power a
    noncooperative link would need for the same sum-rate; lies in (0, 1]
    with equality exactly at gamma = 1.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    x = K2 * P_d
    if x <= 0:
        raise ValueError(f"K2 * P_d must be > 0, got {x}")
    if gamma == 1.0:
        return 1.0
    # expm1/log1p keeps the denominator accurate for small K2 * P_d.
    return x / math.expm1(gamma * math.log1p(x))


def _reciprocal_pair(value: float) -> tuple[float, float]:
    # Pick (x, y) within one ulp of (value, 1/value) with x * y == 1.0.
    for x in (value, math.nextafter(value, math.inf),
              math.nextafter(value, -math.inf)):
        y = 1.0 / x
        for cand in (y, math.nextafter(y, math.inf), math.nextafter(y, -math.inf)):
            if x * cand == 1.0:
                return x, cand
    return value, 1.0 / value


def extension_factor(K2: float, P_d: float, gamma: float,
                     B: float) -> ExtensionFactors:
    """Coverage-extension factors for sum-rate gain gamma under a Hata slope B.

    literal = power_ratio^(1/B) (a distance ratio <= 1 for gamma > 1);
    coverage_gain is its reciprocal (>= 1), the factor by which the same
    sum-rate is reached farther out when two relays cooperate. Both are
    returned; literal * coverage_gain == 1 by construction. Hata's B is in
    dB per decade, so a received-power ratio maps to a distance ratio
    power_ratio^(10/B): coverage_gain_db = power_ratio^(-10/B) is that
    gain, the literal exponent 1/B being short of it by a factor of 10.
    Raises ParameterError("B", ...) when a slope this small makes
    coverage_gain_db, the largest of the gains, overflow a float.

    The coop command calls this at B = 10 alpha and reports
    coverage_gain_db, power_ratio^(-1/alpha), as its sidecar's
    coverage_gain; the coverage_gain returned here is the literal
    power_ratio^(-1/B).
    """
    if B <= 0:
        raise ValueError(f"B must be > 0, got {B}")
    pr = float(power_ratio(K2, P_d, gamma))  # Python floats raise on overflow
    try:
        gain_db = pr ** (-10.0 / B)
    except OverflowError:
        raise ParameterError(
            "B", f"B={B} gives a coverage gain too large for a float") from None
    literal, gain = _reciprocal_pair(pr ** (1.0 / B))
    return ExtensionFactors(literal=literal, coverage_gain=gain,
                            coverage_gain_db=gain_db)


def coop_coverage_boundary(scn: ScenarioConfig, r_R: float, L: int,
                           angular_steps: int, mc: McConfig,
                           solver: SolverConfig,
                           exploit_symmetry: bool = True,
                           noncoop: CoverageRegion | None = None) -> CoverageRegion:
    """Coverage boundary when each destination hears its two nearest relays.

    Same sweep as the noncooperative boundary, noncoop, which warm-starts
    it, but with the cooperative decode-and-forward rate; on common draws
    it encloses the noncooperative boundary at every angle.
    """
    return coverage.sweep_boundary(coop_df_rate, scn, r_R, L, angular_steps,
                                   mc, solver, "df", exploit_symmetry, noncoop)
