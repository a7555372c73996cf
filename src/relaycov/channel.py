"""Per-link channel construction: LOS prototypes, Rician/Rayleigh fading
at unit distance, and the polar multi-relay geometry. Path loss is not
drawn: the estimators scale each link's Gram by its power per probe."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matrixkit

HADAMARD_SIZES = (2, 4, 8)

# Relay-destination separations are floored here so a destination sitting
# exactly on a relay keeps the path-loss factor finite.
MIN_LINK_DISTANCE = 1e-9

# Angular slack used when the destination is equidistant from two relays.
_TIE_TOL = 1e-12


class UnsupportedSizeError(ValueError):
    """Built-in LOS prototype requested at a size it cannot be built for."""


@dataclass(frozen=True, eq=False)
class LosPrototype:
    """Normalized line-of-sight matrix prototype.

    kind is "poor" (all-ones, rank 1) or "well" (orthogonal-row +/-1
    matrix). A resolved prototype has squared Frobenius norm rows*cols.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("poor", "well"):
            raise ValueError(f"unknown LOS prototype kind {self.kind!r}")

    @classmethod
    def poorly_conditioned(cls) -> "LosPrototype":
        return cls("poor")

    @classmethod
    def well_conditioned(cls) -> "LosPrototype":
        return cls("well")


@dataclass(frozen=True, eq=False)
class FadingModel:
    """Fading of one link: Rayleigh, or Rician with a fixed LOS component.

    k_factor is the linear power ratio of the fixed to the scattered
    component; k_factor = 0 reduces exactly to Rayleigh.
    """

    k_factor: float = 0.0
    los: LosPrototype | None = None

    def __post_init__(self):
        if not 0 <= self.k_factor < np.inf:
            raise ValueError(
                f"k_factor must be finite and >= 0, got {self.k_factor}")
        if self.k_factor > 0 and self.los is None:
            raise ValueError("Rician fading requires a LOS prototype")

    @classmethod
    def rayleigh(cls) -> "FadingModel":
        return cls()

    @classmethod
    def rician(cls, k_factor: float, los: LosPrototype) -> "FadingModel":
        return cls(k_factor, los)


@dataclass(frozen=True)
class NetworkGeometry:
    """Polar layout: source at the origin, relay_count relays uniformly on a
    circle of radius relay_radius (relay n, 1-based, at angle
    (n - 1) * coverage_angle), destination at (dest_radius, dest_angle)."""

    relay_radius: float
    relay_count: int
    dest_radius: float
    dest_angle: float

    def __post_init__(self):
        if self.relay_radius < 0 or self.dest_radius < 0:
            raise ValueError("radii must be >= 0")
        if self.relay_count < 1:
            raise ValueError(f"relay_count must be >= 1, got {self.relay_count}")

    @property
    def coverage_angle(self) -> float:
        """Sector angle per relay, 2*pi / relay_count."""
        return 2.0 * np.pi / self.relay_count


def _hadamard(n: int) -> np.ndarray:
    # Sylvester doubling from the 2x2 +/-1 orthogonal-row seed.
    H = np.array([[1.0, -1.0], [1.0, 1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def resolve_los(proto: LosPrototype, rows: int, cols: int) -> np.ndarray:
    """Materialize a LOS prototype at the requested size.

    Both kinds are square; "well" at a size outside HADAMARD_SIZES raises
    UnsupportedSizeError.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if proto.kind == "poor":
        if rows != cols:
            raise ValueError(
                f"LOS prototypes are square, got {rows}x{cols}")
        return np.ones((rows, cols), dtype=np.complex128)
    if rows != cols or rows not in HADAMARD_SIZES:
        raise UnsupportedSizeError(
            f"orthogonal-row prototype needs a square size in "
            f"{HADAMARD_SIZES}, got {rows}x{cols}")
    return _hadamard(rows).astype(np.complex128)


def sample_link_batch(model: FadingModel, n: int, rows: int, cols: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw n unit-distance channel matrices for one link, shape
    (n, rows, cols).

    Each draw is sqrt(K/(K+1)) H_los + sqrt(1/(K+1)) H_nlos with H_nlos
    fresh i.i.d. CN(0, 1); Rayleigh (K = 0) keeps only the scattered term.
    The generator stream is consumed identically for every fading model,
    so different models stay draw-aligned under a common seed.
    """
    return apply_fading(
        model, matrixkit.sample_complex_gaussian_batch(n, rows, cols, rng))


def apply_fading(model: FadingModel, h: np.ndarray) -> np.ndarray:
    """A link's unit-distance channels from its scattered CN(0, 1) draws h,
    shape (n, rows, cols): h itself for Rayleigh, else
    sqrt(K/(K+1)) H_los + sqrt(1/(K+1)) h in a fresh array, so h is never
    written and may be read-only."""
    if model.k_factor == 0:
        return h
    # A real scalar times a complex entry rounds each part on its own, so
    # this matches the formula above bit for bit, in place or not.
    k = model.k_factor
    out = h * np.sqrt(1.0 / (k + 1.0))
    out += np.sqrt(k / (k + 1.0)) * resolve_los(model.los, *h.shape[1:])
    return out


def relay_dest_distance(r_D: float, r_R: float, phi: float) -> float:
    """Relay-destination separation by the law of cosines.

    sqrt(r_D^2 + r_R^2 - 2 r_D r_R cos(phi)); the radicand is clamped at
    zero against rounding when the two points coincide.
    """
    if r_D < 0 or r_R < 0:
        raise ValueError("radii must be >= 0")
    radicand = r_D * r_D + r_R * r_R - 2.0 * r_D * r_R * math.cos(phi)
    return math.sqrt(max(radicand, 0.0))


def sector_of(geom: NetworkGeometry) -> tuple[int, float]:
    """Serving relay for the destination: (1-based relay index, off-axis angle).

    Picks the relay minimizing the periodic angular distance to dest_angle;
    exact ties resolve to the lower index. The returned angle phi lies in
    [0, pi/L].
    """
    return _sector(geom.dest_angle, geom.relay_count)


# The probes along one ray share its angle, so a few entries suffice.
@functools.lru_cache(maxsize=64)
def _sector(dest_angle: float, L: int) -> tuple[int, float]:
    two_pi = 2.0 * np.pi
    coverage_angle = two_pi / L  # as NetworkGeometry.coverage_angle
    best_n = 1
    best_d = None
    for n in range(1, L + 1):
        delta = dest_angle - (n - 1) * coverage_angle
        d = abs((delta + np.pi) % two_pi - np.pi)
        if best_d is None or d < best_d - _TIE_TOL:
            best_n, best_d = n, d
    phi = min(best_d, np.pi / L)
    return best_n, phi
