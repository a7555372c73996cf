"""Monte Carlo estimators of the cut-set upper bound and the
decode-and-forward achievable rate under receiver-only CSI with equal
transmit power per antenna, plus the high-SNR closed form."""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import channel, matrixkit
from .channel import FadingModel, NetworkGeometry

_MASK64 = (1 << 64) - 1
_LN2 = math.log(2.0)

# digamma(1) = -(Euler-Mascheroni constant), 15 significant digits.
PSI_ONE = -0.577215664901533

# Canonical draw order. The channel bank draws link batches in this order,
# so per-sample realizations are aligned across estimators sharing a seed.
_LINK_ORDER = ("sr", "sd", "rd", "rd2")

# Gram sides each link keeps: "tx" is H^dagger H, the source's cuts c1 and
# c3; "rx" is H H^dagger, the destination's cut c2 and the coop sum-rate.
_GRAM_SIDES = {"sr": ("tx",), "sd": ("tx", "rx"), "rd": ("rx",),
               "rd2": ("rx",)}


class ParameterError(ValueError):
    """A configuration value was rejected; field names the parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ScenarioConfig:
    """Powers, antenna counts, path-loss exponent, per-link fading, target rate.

    Powers are linear (10 dB == 10). Defaults follow the reference scenario:
    two antennas everywhere, alpha = 3.52, rate target 5.5 bits.
    """

    P_s: float = 10.0
    P_r: float = 10.0
    N_s: int = 2
    N_r: int = 2
    M_r: int = 2
    M_d: int = 2
    alpha: float = 3.52
    fading_sr: FadingModel = field(default_factory=FadingModel.rayleigh)
    fading_sd: FadingModel = field(default_factory=FadingModel.rayleigh)
    fading_rd: FadingModel = field(default_factory=FadingModel.rayleigh)
    R_c: float = 5.5

    def __post_init__(self):
        for name in ("P_s", "P_r", "alpha", "R_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(
                    name, f"{name} must be finite and > 0, got {value}")
        for name in ("N_s", "N_r", "M_r", "M_d"):
            if getattr(self, name) < 1:
                raise ParameterError(name, f"antenna count {name} must be >= 1")


@dataclass(frozen=True)
class McConfig:
    """Deterministic Monte Carlo setup: seed and sample count.

    Every link is drawn from one counter-based Philox generator keyed by
    (seed, 0).
    """

    seed: int = 42
    samples: int = 20000

    def __post_init__(self):
        if self.samples < 1:
            raise ParameterError(
                "samples", f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class BoundEstimate:
    """Monte Carlo mean of per-realization values, in bits.

    The values are kept out of repr and ==; the standard error is computed
    from them on first read, so a solver that reads only the mean never
    pays for it.
    """

    mean: float
    samples_used: int
    _values: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def std_error(self) -> float:
        """Standard error of the mean: sample std (ddof=1) / sqrt(n), or
        0.0 below two samples."""
        n = self.samples_used
        if n < 2:
            return 0.0
        return float(np.std(self._values, ddof=1) / math.sqrt(n))


@dataclass(frozen=True)
class BoundSamples:
    """Per-realization bound values on common channel draws, in draw
    order. coop is present only when a second relay distance was supplied.
    """

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    coop: np.ndarray | None = None


def digamma(x: float) -> float:
    """Digamma function for x > 0: upward recurrence, then the asymptotic
    series in x^-2 (accurate to ~1e-13 after shifting past 10)."""
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (
        1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))))
    return acc + math.log(x) - 0.5 / x - series


def summarize_samples(values: np.ndarray) -> BoundEstimate:
    """Mean of per-realization values; the estimate keeps them for its
    standard error, so they must not be modified afterwards."""
    return BoundEstimate(float(np.mean(values)), values.size, values)


def _link_shapes(scn: ScenarioConfig) -> dict[str, tuple[int, int]]:
    return {
        "sr": (scn.M_r, scn.N_s),
        "sd": (scn.M_d, scn.N_s),
        "rd": (scn.M_d, scn.N_r),
        "rd2": (scn.M_d, scn.N_r),
    }


def _link_models(scn: ScenarioConfig) -> dict[str, FadingModel]:
    return {"sr": scn.fading_sr, "sd": scn.fading_sd,
            "rd": scn.fading_rd, "rd2": scn.fading_rd}


class ChannelBank:
    """Unit-distance channel statistics for one scenario and McConfig.

    Channel draws do not depend on a probe's geometry, so a bank serves
    every probe on the same antenna shapes, fading models and McConfig.
    Each link is drawn the first time a probe needs it, together with any
    link before it in the canonical order, so the generator always draws
    sr, sd, rd, rd2 in turn and realizations do not depend on which bound
    was asked for first. The bank keeps only per-sample Gram matrices, on
    the sides listed in _GRAM_SIDES (their packed entries when that side
    has two antennas, with the quadratic-form coefficient rows built from
    them on first use), and the last c3 array it computed.
    """

    def __init__(self, scn: ScenarioConfig, mc: McConfig):
        self.key = _bank_key(scn, mc)
        self._mc = mc
        self._shapes = _link_shapes(scn)
        self._models = _link_models(scn)
        self._rng = np.random.Generator(np.random.Philox(
            key=np.array([mc.seed & _MASK64, 0], dtype=np.uint64)))
        self._drawn = 0  # links drawn so far, a prefix of _LINK_ORDER
        self._grams: dict[tuple[str, str], np.ndarray] = {}
        self._rows: dict[str, np.ndarray] = {}
        self._c3: tuple[float, np.ndarray] | None = None

    def _draw_through(self, link: str) -> None:
        stop = _LINK_ORDER.index(link) + 1
        for name in _LINK_ORDER[self._drawn:stop]:
            rows, cols = self._shapes[name]
            # Unit distance: path loss is applied per probe, whatever alpha is.
            H = channel.sample_link_batch(self._models[name], self._mc.samples,
                                          rows, cols, 1.0, 1.0, self._rng)
            for side in _GRAM_SIDES[name]:
                # The Gram of H^T is conj(H^dagger H); traces, determinants
                # and log-dets do not change when every Gram is conjugated.
                M = H if side == "rx" else np.swapaxes(H, -1, -2)
                self._grams[name, side] = (
                    matrixkit.gram_entries_2x2(M) if M.shape[-2] == 2
                    else matrixkit.gram(M))
        self._drawn = max(self._drawn, stop)

    def gram(self, link: str, side: str) -> np.ndarray:
        """Per-sample Gram statistic of a link at unit distance on one side
        ("tx" or "rx"): packed (4, n) entries when that side has two
        antennas, else an (n, k, k) stack."""
        self._draw_through(link)
        return self._grams[link, side]

    def quadratic_rows(self, term: str) -> np.ndarray:
        """Coefficient rows T (k, n) of a 2x2 log-det's quadratic form.

        "sr": [tr, det] of the sr transmit-side Gram, for monomials
        [a, a^2].
        "c1": the terms sd adds on the transmit side, [tr sd, det sd,
        <sd, sr>], for [a_sd, a_sd^2, a_sd a_sr].
        "mac": [tr sd, tr rd, det sd, det rd, <sd, rd>] on the receive
        side, for [a_sd, a_rd, a_sd^2, a_rd^2, a_sd a_rd].
        "rd2": the terms rd2 adds, [tr rd2, det rd2, <sd, rd2>, <rd, rd2>],
        for [a_rd2, a_rd2^2, a_sd a_rd2, a_rd a_rd2].
        """
        if term in self._rows:
            return self._rows[term]
        det, mixed = matrixkit.det_2x2, matrixkit.mixed_discriminant_2x2
        if term == "sr":
            sr = self.gram("sr", "tx")
            rows = [sr[0] + sr[1], det(sr)]
        elif term == "c1":
            sr, sd = self.gram("sr", "tx"), self.gram("sd", "tx")
            rows = [sd[0] + sd[1], det(sd), mixed(sd, sr)]
        elif term == "mac":
            sd, rd = self.gram("sd", "rx"), self.gram("rd", "rx")
            rows = [sd[0] + sd[1], rd[0] + rd[1], det(sd), det(rd), mixed(sd, rd)]
        else:
            sd, rd = self.gram("sd", "rx"), self.gram("rd", "rx")
            rd2 = self.gram("rd2", "rx")
            rows = [rd2[0] + rd2[1], det(rd2), mixed(sd, rd2), mixed(rd, rd2)]
        self._rows[term] = np.stack(rows)
        return self._rows[term]

    def c3(self, a_sr: float) -> np.ndarray:
        """Per-sample relay-link rate log2 det(I + a_sr G_sr), read-only.

        The last (a_sr, c3) pair is kept: a coverage sweep holds the relay
        radius fixed, so its probes all share one c3 array.
        """
        if self._c3 is None or self._c3[0] != a_sr:
            G = self.gram("sr", "tx")
            if G.ndim == 2:
                c3 = matrixkit.logdet_quadratic_2x2(
                    np.array([a_sr, a_sr * a_sr]), self.quadratic_rows("sr"))
            else:
                c3 = matrixkit.logdet_identity_plus_batch(a_sr * G)
            c3.flags.writeable = False
            self._c3 = (a_sr, c3)
        return self._c3[1]

    def c1(self, a_sr: float, a_sd: float) -> np.ndarray:
        """Per-sample broadcast-cut rate log2 det(I + a_sr G_sr + a_sd G_sd)
        on transmit-side Grams.

        At two transmit antennas sd's terms are added to c3's determinant,
        so c1 >= c3 holds bit for bit.
        """
        G = self.gram("sr", "tx")
        if G.ndim == 2:
            base = 1.0 + np.array([a_sr, a_sr * a_sr]) @ self.quadratic_rows("sr")
            return matrixkit.logdet_quadratic_2x2(
                np.array([a_sd, a_sd * a_sd, a_sd * a_sr]),
                self.quadratic_rows("c1"), base=base)
        return matrixkit.logdet_identity_plus_batch(
            a_sr * G + a_sd * self.gram("sd", "tx"))


def _bank_key(scn: ScenarioConfig, mc: McConfig) -> tuple:
    # Fading models compare by identity, which is enough to share a bank
    # between the probes of one run.
    return (mc, tuple(_link_shapes(scn).values()),
            scn.fading_sr, scn.fading_sd, scn.fading_rd)


# The live bank. A probe reuses it when its key matches and replaces it
# otherwise, so at most one bank is alive; cli.run releases it on return.
_bank: ChannelBank | None = None


def _bank_for(scn: ScenarioConfig, mc: McConfig) -> ChannelBank:
    global _bank
    key = _bank_key(scn, mc)
    if _bank is None or _bank.key != key:
        _bank = ChannelBank(scn, mc)
    return _bank


def release_bank() -> None:
    """Drop the live channel bank, so the next probe draws afresh."""
    global _bank
    _bank = None


def _check_distance(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def _bound_arrays(scn: ScenarioConfig, mc: McConfig, need: tuple[str, ...],
                  r_R: float | None = None, r_D: float | None = None,
                  r_DR: float | None = None, r_DR2: float | None = None,
                  P_r2: float | None = None) -> dict[str, np.ndarray]:
    """Requested per-realization bound arrays on common channel draws.

    Every bound is served from the live channel bank of (scn, mc): a probe
    scales cached unit-distance statistics by its path loss and draws only
    links no earlier probe has needed. c1 and c3 are the source's cuts on
    transmit-side Grams: by Sylvester's identity the broadcast cut is
    det(I + a_sd G_sd + a_sr G_sr). c2 and coop are the destination's on
    receive-side Grams. With two antennas on that side each bound is a
    quadratic form in the scaled powers; other sizes factor the weighted
    Gram sum by Cholesky.
    """
    for name, value in (("r_R", r_R), ("r_D", r_D), ("r_DR", r_DR),
                        ("r_DR2", r_DR2)):
        if value is not None:
            _check_distance(name, value)
    bank = _bank_for(scn, mc)
    out: dict[str, np.ndarray] = {}

    a_s = scn.P_s / scn.N_s
    if "c1" in need:
        out["c1"] = bank.c1(a_s * r_R ** (-scn.alpha), a_s * r_D ** (-scn.alpha))
    if "c3" in need:
        out["c3"] = bank.c3(a_s * r_R ** (-scn.alpha))
    if "c2" not in need and "coop" not in need:
        return out
    a_sd = a_s * r_D ** (-scn.alpha)
    a_rd = (scn.P_r / scn.N_r) * r_DR ** (-scn.alpha)
    if "coop" in need:
        p2 = scn.P_r if P_r2 is None else P_r2
        if not p2 >= 0:
            raise ValueError(f"second relay power must be >= 0, got {p2}")
        a_rd2 = (p2 / scn.N_r) * r_DR2 ** (-scn.alpha)
    # The second relay's terms come last in both routes, so P_r2 = 0
    # reproduces c2 exactly.
    if scn.M_d == 2:
        w = np.array([a_sd, a_rd, a_sd * a_sd, a_rd * a_rd, a_sd * a_rd])
        T = bank.quadratic_rows("mac")
        if "c2" in need:
            out["c2"] = matrixkit.logdet_quadratic_2x2(w, T)
        if "coop" in need:
            w2 = np.array([a_rd2, a_rd2 * a_rd2, a_sd * a_rd2, a_rd * a_rd2])
            out["coop"] = matrixkit.logdet_quadratic_2x2(
                w2, bank.quadratic_rows("rd2"), base=1.0 + w @ T)
    else:
        mac = a_sd * bank.gram("sd", "rx") + a_rd * bank.gram("rd", "rx")
        if "c2" in need:
            out["c2"] = matrixkit.logdet_identity_plus_batch(mac)
        if "coop" in need:
            out["coop"] = matrixkit.logdet_identity_plus_batch(
                mac + a_rd2 * bank.gram("rd2", "rx"))
    return out


def c3_samples(scn: ScenarioConfig, r_R: float, mc: McConfig) -> np.ndarray:
    """Per-realization source-relay rate log2 det(I + (P_s/N_s) r_R^-a H H†)."""
    return _bound_arrays(scn, mc, ("c3",), r_R=r_R)["c3"]


def estimate_c3(scn: ScenarioConfig, r_R: float, mc: McConfig) -> BoundEstimate:
    """Ergodic rate of the source-relay link at relay radius r_R."""
    return summarize_samples(c3_samples(scn, r_R, mc))


def estimate_c2(scn: ScenarioConfig, r_D: float, r_DR: float,
                mc: McConfig) -> BoundEstimate:
    """Ergodic multiple-access rate at the destination.

    Mean of log2 det(I + (P_s/N_s) r_D^-a H_sd H_sd† +
    (P_r/N_r) r_DR^-a H_rd H_rd†) over common draws.
    """
    arrays = _bound_arrays(scn, mc, ("c2",), r_D=r_D, r_DR=r_DR)
    return summarize_samples(arrays["c2"])


def estimate_c1(scn: ScenarioConfig, r_D: float, r_R: float,
                mc: McConfig) -> BoundEstimate:
    """Ergodic broadcast-cut rate: destination and relay rows stacked.

    Mean of log2 det(I_M + (P_s/N_s) H_bc H_bc†) with M = M_r + M_d and
    H_bc stacking the path-loss-scaled source-destination and source-relay
    links.
    """
    arrays = _bound_arrays(scn, mc, ("c1",), r_R=r_R, r_D=r_D)
    return summarize_samples(arrays["c1"])


def sample_bound_realizations(scn: ScenarioConfig, r_R: float, r_D: float,
                              r_DR: float, mc: McConfig,
                              r_DR2: float | None = None,
                              P_r2: float | None = None) -> BoundSamples:
    """Per-realization c1, c2, c3 (and cooperative sum-rate) on common draws.

    All bounds for one scenario share the per-sample channel realizations,
    so orderings like c1 >= c3 hold pointwise. Supplying r_DR2 adds the
    second relay's receive term and fills the coop array; P_r2 overrides
    the second relay's transmit power (default: scn.P_r).
    """
    need = ("c1", "c2", "c3")
    if r_DR2 is not None:
        need = ("c1", "c2", "c3", "coop")
    arrays = _bound_arrays(scn, mc, need, r_R=r_R, r_D=r_D, r_DR=r_DR,
                           r_DR2=r_DR2, P_r2=P_r2)
    return BoundSamples(c1=arrays["c1"], c2=arrays["c2"], c3=arrays["c3"],
                        coop=arrays.get("coop"))


def resolve_distances(geom: NetworkGeometry) -> tuple[float, float, float]:
    """(r_R, r_D, r_DR) for the serving relay of the destination's sector.

    r_DR is floored at MIN_LINK_DISTANCE so a destination collocated with
    its relay keeps the estimators finite (the multiple-access term then
    dominates and the decode-and-forward minimum falls to the relay link).
    """
    _, phi = channel.sector_of(geom)
    r_DR = channel.relay_dest_distance(geom.dest_radius, geom.relay_radius, phi)
    return (geom.relay_radius, geom.dest_radius,
            max(r_DR, channel.MIN_LINK_DISTANCE))


def df_rate(scn: ScenarioConfig, geom: NetworkGeometry,
            mc: McConfig) -> BoundEstimate:
    """Decode-and-forward achievable rate min(c3, c2) for the geometry.

    The minimum is taken per realization before averaging (common draws).
    """
    r_R, r_D, r_DR = resolve_distances(geom)
    arrays = _bound_arrays(scn, mc, ("c2", "c3"), r_R=r_R, r_D=r_D, r_DR=r_DR)
    return summarize_samples(np.minimum(arrays["c3"], arrays["c2"]))


def cutset_bound(scn: ScenarioConfig, geom: NetworkGeometry,
                 mc: McConfig) -> BoundEstimate:
    """Cut-set upper bound min(c1, c2) for the geometry (common draws)."""
    r_R, r_D, r_DR = resolve_distances(geom)
    arrays = _bound_arrays(scn, mc, ("c1", "c2"), r_R=r_R, r_D=r_D, r_DR=r_DR)
    return summarize_samples(np.minimum(arrays["c1"], arrays["c2"]))


def high_snr_rate(m: int, n: int, N_s: int, rho: float) -> float:
    """High-SNR ergodic-capacity closed form, in bits.

    m log2(rho e^psi(1) / N_s) + (1/ln 2) sum_{p=1..m} sum_{q=1..n-p} 1/q,
    with m = min and n = max of the link's antenna counts and rho the
    received SNR.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if N_s < 1:
        raise ValueError(f"N_s must be >= 1, got {N_s}")
    harmonic = sum(1.0 / q for p in range(1, m + 1) for q in range(1, n - p + 1))
    return m * math.log2(rho * math.exp(PSI_ONE) / N_s) + harmonic / _LN2
