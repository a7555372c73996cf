"""Per-link channel construction: LOS prototypes, Rician/Rayleigh fading,
amplitude path loss, and the polar multi-relay geometry."""

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

    kind is one of "poor" (all-ones, rank 1), "well" (orthogonal-row +/-1
    matrix), or "custom". A resolved prototype always has squared Frobenius
    norm rows*cols; custom matrices violating that are rejected unless
    normalize is set, in which case they are rescaled.
    """

    kind: str
    matrix: np.ndarray | None = None
    normalize: bool = False

    def __post_init__(self):
        if self.kind not in ("poor", "well", "custom"):
            raise ValueError(f"unknown LOS prototype kind {self.kind!r}")
        if self.kind == "custom" and self.matrix is None:
            raise ValueError("custom LOS prototype requires a matrix")

    @classmethod
    def poorly_conditioned(cls) -> "LosPrototype":
        return cls("poor")

    @classmethod
    def well_conditioned(cls) -> "LosPrototype":
        return cls("well")

    @classmethod
    def custom(cls, matrix: np.ndarray, normalize: bool = False) -> "LosPrototype":
        return cls("custom", np.asarray(matrix, dtype=np.complex128), normalize)


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
    circle of radius relay_radius, destination at (dest_radius, dest_angle)."""

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

    def relay_angle(self, n: int) -> float:
        """Angle of relay n (1-based); relay 1 sits at angle 0."""
        return (n - 1) * self.coverage_angle


def _hadamard(n: int) -> np.ndarray:
    # Sylvester doubling from the 2x2 +/-1 orthogonal-row seed.
    H = np.array([[1.0, -1.0], [1.0, 1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def resolve_los(proto: LosPrototype, rows: int, cols: int) -> np.ndarray:
    """Materialize a LOS prototype at the requested size.

    Built-in kinds require rows == cols in HADAMARD_SIZES; "well" at any
    other size raises UnsupportedSizeError. Custom prototypes must match
    the requested shape and carry squared Frobenius norm rows*cols unless
    the prototype was created with normalize=True.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if proto.kind == "poor":
        if rows != cols:
            raise ValueError(
                f"built-in LOS prototypes are square, got {rows}x{cols}")
        return np.ones((rows, cols), dtype=np.complex128)
    if proto.kind == "well":
        if rows != cols or rows not in HADAMARD_SIZES:
            raise UnsupportedSizeError(
                f"orthogonal-row prototype needs a square size in "
                f"{HADAMARD_SIZES}, got {rows}x{cols}")
        return _hadamard(rows).astype(np.complex128)
    # custom
    m = np.asarray(proto.matrix, dtype=np.complex128)
    if m.shape != (rows, cols):
        raise ValueError(
            f"custom LOS matrix has shape {m.shape}, expected {(rows, cols)}")
    target = float(rows * cols)
    norm_sq = float(np.sum(np.abs(m) ** 2))
    if norm_sq <= 0:
        raise ValueError("custom LOS matrix must be nonzero")
    if abs(norm_sq - target) <= 1e-9 * target:
        return m.copy()
    if not proto.normalize:
        raise ValueError(
            f"custom LOS matrix has squared Frobenius norm {norm_sq:g}, "
            f"expected {target:g} (pass normalize=True to rescale)")
    return m * np.sqrt(target / norm_sq)


def sample_link_batch(model: FadingModel, n: int, rows: int, cols: int,
                      distance: float, alpha: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw n channel matrices for one link, shape (n, rows, cols).

    Each draw is d^(-alpha/2) * (sqrt(K/(K+1)) H_los + sqrt(1/(K+1)) H_nlos)
    with H_nlos fresh i.i.d. CN(0, 1); Rayleigh (K = 0) keeps only the
    scattered term. The generator stream is consumed identically for every
    fading model, so different models stay draw-aligned under a common seed.
    """
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    if alpha <= 0:
        raise ValueError(f"path-loss exponent must be > 0, got {alpha}")
    # Built in place on the scattered draw; a real scalar times a complex
    # entry rounds each part on its own, so this matches the out-of-place
    # formula bit for bit.
    h = matrixkit.sample_complex_gaussian_batch(n, rows, cols, rng)
    if model.k_factor > 0:
        los = resolve_los(model.los, rows, cols)
        k = model.k_factor
        h *= np.sqrt(1.0 / (k + 1.0))
        h += np.sqrt(k / (k + 1.0)) * los
    h *= distance ** (-alpha / 2.0)
    return h


def relay_dest_distance(r_D: float, r_R: float, phi: float) -> float:
    """Relay-destination separation by the law of cosines.

    sqrt(r_D^2 + r_R^2 - 2 r_D r_R cos(phi)); the radicand is clamped at
    zero against rounding when the two points coincide.
    """
    if r_D < 0 or r_R < 0:
        raise ValueError("radii must be >= 0")
    radicand = r_D * r_D + r_R * r_R - 2.0 * r_D * r_R * np.cos(phi)
    return float(np.sqrt(max(radicand, 0.0)))


def sector_of(geom: NetworkGeometry) -> tuple[int, float]:
    """Serving relay for the destination: (1-based relay index, off-axis angle).

    Picks the relay minimizing the periodic angular distance to dest_angle;
    exact ties resolve to the lower index. The returned angle phi lies in
    [0, pi/L].
    """
    L = geom.relay_count
    two_pi = 2.0 * np.pi
    best_n = 1
    best_d = None
    for n in range(1, L + 1):
        delta = geom.dest_angle - geom.relay_angle(n)
        d = abs((delta + np.pi) % two_pi - np.pi)
        if best_d is None or d < best_d - _TIE_TOL:
            best_n, best_d = n, d
    phi = min(best_d, np.pi / L)
    return best_n, phi
