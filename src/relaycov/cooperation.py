"""Two-relay cooperative sum-rate estimators, their high/low-SNR closed
forms, Hata propagation algebra, and the coverage-extension factor."""

import math
from dataclasses import dataclass

import numpy as np

from . import capacity, channel, coverage, matrixkit
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
class HataParams:
    """Hata propagation loss PL(dB) = A + B log10(d)."""

    A: float = 120.0
    B: float = 35.22

    def __post_init__(self):
        if not math.isfinite(self.A):
            raise ParameterError("A", f"A must be finite, got {self.A}")
        if not (math.isfinite(self.B) and self.B > 0):
            raise ParameterError("B", f"B must be finite and > 0, got {self.B}")


@dataclass(frozen=True)
class ExtensionFactors:
    """Coverage-extension pair: the literal distance-ratio value and its
    reciprocal coverage_gain (>= 1). The two are exact reciprocals."""

    literal: float
    coverage_gain: float


def estimate_coop_sum_rate(scn: ScenarioConfig, r_D: float, r_DR1: float,
                           r_DR2: float, mc: McConfig,
                           P_r2: float | None = None) -> BoundEstimate:
    """Sum-rate at a destination hearing the source and two relays.

    Monte Carlo mean of log2 det(I + (P_s/N_s) r_D^-a H_s H_s† +
    (P_r/N_r) r_DR1^-a H_1 H_1† + (P_r2/N_r) r_DR2^-a H_2 H_2†) on draws
    aligned with the noncooperative estimators; P_r2 defaults to scn.P_r.
    """
    arrays = capacity._bound_arrays(scn, mc, ("coop",), r_D=r_D, r_DR=r_DR1,
                                    r_DR2=r_DR2, P_r2=P_r2)
    return capacity.summarize_samples(arrays["coop"])


def coop_df_rate(scn: ScenarioConfig, geom: NetworkGeometry, mc: McConfig,
                 P_r2: float | None = None) -> BoundEstimate:
    """Decode-and-forward rate with the two nearest relays cooperating.

    Per realization min(relay-link rate, cooperative sum-rate), averaged;
    the relay-decoding constraint is unchanged from the single-relay case.
    """
    r_DR1, r_DR2 = two_relay_distances(geom)
    r_R, r_D, _ = capacity.resolve_distances(geom)
    arrays = capacity._bound_arrays(
        scn, mc, ("c3", "coop"), r_R=r_R, r_D=r_D,
        r_DR=max(r_DR1, channel.MIN_LINK_DISTANCE),
        r_DR2=max(r_DR2, channel.MIN_LINK_DISTANCE), P_r2=P_r2)
    return capacity.summarize_samples(np.minimum(arrays["c3"], arrays["coop"]))


def two_relay_distances(geom: NetworkGeometry) -> tuple[float, float]:
    """Distances from the destination to its two nearest relays.

    The serving relay sits at off-axis angle phi in [0, pi/L]; the adjacent
    relay on the far side of the destination sits at 2*pi/L - phi.
    """
    if geom.relay_count < 2:
        raise ValueError("cooperation needs at least two relays")
    _, phi = channel.sector_of(geom)
    phi2 = geom.coverage_angle - phi
    d1 = channel.relay_dest_distance(geom.dest_radius, geom.relay_radius, phi)
    d2 = channel.relay_dest_distance(geom.dest_radius, geom.relay_radius, phi2)
    return d1, d2


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


def low_snr_sum_rate(M_d: int, rho_dr: float, linearized: bool = False) -> float:
    """Low-SNR sum-rate at the coverage border (source signal ignored).

    M_d * log2(1 + rho_dr); linearized=True returns the first-order form
    M_d * rho_dr * log2(e).
    """
    if M_d < 1:
        raise ValueError(f"M_d must be >= 1, got {M_d}")
    if rho_dr <= 0:
        raise ValueError(f"rho_dr must be > 0, got {rho_dr}")
    if linearized:
        return M_d * rho_dr * math.log2(math.e)
    return M_d * math.log2(1.0 + rho_dr)


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


def hata_path_loss(p: HataParams, d: float) -> float:
    """Propagation loss in dB at distance d: A + B log10(d)."""
    return p.A + p.B * math.log10(d)


def max_distance(p: HataParams, P_maxT: float, P_d: float) -> float:
    """Largest distance at which received power P_d (dB) is reachable with
    total transmit power P_maxT (dB): 10^((P_maxT - P_d - A) / B)."""
    return 10.0 ** ((P_maxT - P_d - p.A) / p.B)


def extension_factor(K2: float, P_d: float, gamma: float,
                     B: float) -> ExtensionFactors:
    """Coverage-extension pair for sum-rate gain gamma under a Hata slope B.

    literal = power_ratio^(1/B) (a distance ratio <= 1 for gamma > 1);
    coverage_gain is its reciprocal (>= 1), the factor by which the same
    sum-rate is reached farther out when two relays cooperate. Both are
    returned; literal * coverage_gain == 1 by construction. Raises
    ParameterError("B", ...) when a slope this small drives literal so
    close to 0 that its reciprocal is not finite.
    """
    if B <= 0:
        raise ValueError(f"B must be > 0, got {B}")
    pr = power_ratio(K2, P_d, gamma)
    literal = float(pr) ** (1.0 / B)
    if not (literal > 0.0 and math.isfinite(1.0 / literal)):
        raise ParameterError(
            "B", f"B={B} gives extension factor {literal!r}, whose "
            f"reciprocal coverage gain is not finite")
    literal, gain = _reciprocal_pair(literal)
    return ExtensionFactors(literal=literal, coverage_gain=gain)


def coop_coverage_boundary(scn: ScenarioConfig, r_R: float, L: int,
                           angular_steps: int, mc: McConfig,
                           solver: SolverConfig,
                           P_r2: float | None = None,
                           exploit_symmetry: bool = True) -> CoverageRegion:
    """Coverage boundary when each destination hears its two nearest relays.

    Same sweep as the noncooperative boundary but with the cooperative
    decode-and-forward rate; on common draws it encloses the
    noncooperative boundary at every angle.
    """
    if L < 2:
        raise ValueError("cooperative sweep needs at least two relays")

    def rate(theta_D: float, r_D: float) -> float:
        geom = NetworkGeometry(relay_radius=r_R, relay_count=L,
                               dest_radius=r_D, dest_angle=theta_D)
        return coop_df_rate(scn, geom, mc, P_r2=P_r2).mean

    return coverage.sweep_boundary(rate, scn.R_c, L, angular_steps, solver,
                                   "df", exploit_symmetry)
