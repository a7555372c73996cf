"""Monte Carlo estimators of the cut-set upper bound and the
decode-and-forward achievable rate under receiver-only CSI with equal
transmit power per antenna, plus the high-SNR closed form."""

import math
import queue
import threading
import weakref
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

# Each cut a bank evaluates: its Gram side ("tx" is H^dagger H, the
# source's; "rx" is H H^dagger, the destination's), its links, and the link
# it adds last to the cut on those links, c3's for c1 and c2's for coop.
_CUTS = {
    "c3": ("tx", ("sr",), None),
    "c1": ("tx", ("sr",), "sd"),
    "c2": ("rx", ("sd", "rd"), None),
    "coop": ("rx", ("sd", "rd"), "rd2"),
}

# Samples per read-ahead chunk, and chunks drawn ahead that the worker may
# hold at once: four 2x2 chunks take 1 MB.
_CHUNK = 4096
_SLOTS = 4


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
        # A Rician link's LOS prototype must exist at its shape; rd2 shares
        # rd's model and shape.
        shapes = _link_shapes(self)
        for link in ("sr", "sd", "rd"):
            name = f"fading_{link}"
            model = getattr(self, name)
            if model.k_factor > 0:
                try:
                    channel.resolve_los(model.los, *shapes[link])
                except ValueError as exc:
                    raise ParameterError(name, f"{name}: {exc}")


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
    order."""

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray


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
    # np.mean's own sum and division, without its dispatch overhead.
    return BoundEstimate(float(np.add.reduce(values) / values.size),
                         values.size, values)


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


def _philox(mc: McConfig) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        key=np.array([mc.seed & _MASK64, 0], dtype=np.uint64)))


class _LinkDraws:
    """Unit-distance CN(0, 1) draws of every link for one McConfig and set
    of link shapes, the key, from a Philox generator of its own keyed by
    (seed, 0). Fading models, powers, alpha and R_c are not part of the
    key: fading mixes in out of place (channel.apply_fading). Each link is
    drawn whole the first time it is read, with every link before it in
    the canonical order, so the arrays equal one draw of the links in
    turn; each is read-only.
    """

    def __init__(self, mc: McConfig, shapes: tuple[tuple[int, int], ...]):
        self.key = (mc, shapes)
        self._samples = mc.samples
        self._shapes = dict(zip(_LINK_ORDER, shapes))
        self._rng = _philox(mc)
        self._links: dict[str, np.ndarray] = {}

    def link(self, name: str) -> np.ndarray:
        """The (samples, rows, cols) draws of one link, read-only."""
        for lk in _LINK_ORDER[len(self._links):_LINK_ORDER.index(name) + 1]:
            h = matrixkit.sample_complex_gaussian_batch(
                self._samples, *self._shapes[lk], self._rng)
            h.flags.writeable = False
            self._links[lk] = h
        return self._links[name]


class _ReadAhead:
    """Standard normals in a fixed sequence of chunk shapes, drawn ahead by
    one worker thread into preallocated slots that two queues hand over.

    The worker takes a free slot, fills a chunk of it and queues both; a
    read hands the previous chunk's slot back. The worker is the
    generator's only user, so the chunks hold, in order, the values one
    draw of them all would give; it calls only numpy and the queues, no
    relaycov function. After the last chunk it queues an end marker, a
    ValueError, and an exception it raises goes into the same queue: the
    read that takes either puts it back, so every later read raises it too.
    """

    def __init__(self, rng: np.random.Generator,
                 shapes: list[tuple[int, ...]]):
        size = max(math.prod(shape) for shape in shapes)
        self._free = queue.SimpleQueue()
        for _ in range(min(_SLOTS, len(shapes))):
            self._free.put(np.empty(size))
        self._filled = queue.SimpleQueue()
        self._held = None  # the slot of the chunk read last
        self._stopping = False
        self._worker = threading.Thread(target=self._fill, args=(rng, shapes),
                                        name="relaycov-draws", daemon=True)
        self._worker.start()

    def _fill(self, rng: np.random.Generator,
              shapes: list[tuple[int, ...]]) -> None:
        try:
            for shape in shapes:
                slot = self._free.get()
                if self._stopping:
                    return
                chunk = slot[:math.prod(shape)].reshape(shape)
                rng.standard_normal(out=chunk)
                self._filled.put((slot, chunk))
            self._filled.put(ValueError(
                f"no read-ahead chunk past the {len(shapes)} planned"))
        except Exception as exc:
            self._filled.put(exc)

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next chunk, which must have the planned shape. It stays
        valid until the next read."""
        if self._stopping:
            raise RuntimeError("read-ahead draws were stopped")
        if self._held is not None:
            self._free.put(self._held)
            self._held = None
        item = self._filled.get()
        if isinstance(item, Exception):
            self._filled.put(item)
            raise item
        self._held, chunk = item
        if chunk.shape != tuple(shape):
            raise ValueError(f"read-ahead chunk {chunk.shape} read as {shape}")
        return chunk

    def close(self) -> None:
        """Stop the worker between chunks and join it."""
        self._stopping = True
        self._free.put(None)  # wakes a worker waiting for a slot
        self._worker.join()


class ChannelBank:
    """Unit-distance channel statistics for one scenario and McConfig.

    Channel draws do not depend on a probe's geometry, so a bank serves
    every probe on the same antenna shapes, fading models and McConfig.

    plan names one or more cuts of _CUTS that the bank's callers evaluate,
    every cut by default; any other plan raises ValueError. Each link is
    drawn the first time a probe reads it, with any link before it in the
    canonical order, so the generator always draws sr, sd, rd, rd2 in turn
    and realizations do not depend on which bound was asked for first.
    Only the (link, side) Grams the planned cuts read are packed, and
    reading another raises LookupError. The bank keeps only those
    per-sample Gram matrices (their packed entries when that side has two
    antennas), the statistics its log-dets build from them on first use
    (quadratic-form coefficient rows, or one Gram's eigenvalues), the last
    c3 array it computed, and one scratch row.

    When a plan's links, through the last one in the canonical order, are
    two or more, one worker thread draws their standard normals from a
    generator of the bank's own ahead of the main thread, _CHUNK samples
    at a time, and a probe packs each chunk while the next one is drawn:
    the values are those of one draw per link. A bank without a plan, or
    with one link, reads the process's stored draws for its McConfig and
    link shapes (_draws_for), which draw each link whole on the main
    thread the first time any bank reads it, and packs them _CHUNK
    samples at a time, mixing in a Rician link's LOS term in a fresh
    chunk. Either way a link's values are those of one draw per link, so
    a bank's Grams do not depend on its draw path. close() stops the
    worker, as open_bank, _bank_for and release_bank do for banks dropped.

    Each cut takes the scaled powers a = (P/N) d^-alpha of its links and
    is one call of _logdet. c1 and c3 are the source's cuts on
    transmit-side Grams: by Sylvester's identity the broadcast cut is
    det(I + a_sr G_sr + a_sd G_sd). c2 and coop are the destination's on
    receive-side Grams. Every array returned is fresh except c3, the
    read-only memo.
    """

    def __init__(self, scn: ScenarioConfig, mc: McConfig,
                 plan: tuple[str, ...] | None = None):
        self.key = _bank_key(scn, mc)
        self.scn, self.mc = scn, mc
        self.plan = tuple(_CUTS) if plan is None else tuple(plan)
        if not self.plan or not set(self.plan) <= _CUTS.keys():
            raise ValueError(f"plan {self.plan} must name one or more of the "
                             f"cuts {tuple(_CUTS)}")
        self._sides = dict.fromkeys(
            (link, side) for side, names, added in map(_CUTS.get, self.plan)
            for link in (*names, added) if link)
        self._shapes = _link_shapes(scn)
        self._models = _link_models(scn)
        links = _LINK_ORDER[:1 + max(_LINK_ORDER.index(link)
                                     for link, _ in self._sides)]
        n = mc.samples
        self._reader = self._draws = None
        # Every other draw path measured slower on a benchmark workload: a
        # worker for every bank made optloc-scan (one link) 11 % slower
        # in-process (wall_s +3.6 %), its link drawn in _CHUNK chunks on
        # this thread wall_s +7 to +25 %, whole-link chunks on the worker a
        # default coop 8.7 %. Unplanned, a worker would draw unread links.
        if plan is not None and len(links) > 1:
            self._reader = _ReadAhead(_philox(mc), [
                (min(_CHUNK, n - start), *self._shapes[name], 2)
                for name in links for start in range(0, n, _CHUNK)])
            # Stops the worker of a bank dropped without close().
            self._finalizer = weakref.finalize(self, self._reader.close)
        else:
            self._draws = _draws_for(scn, mc)
        self._drawn = 0  # links packed so far, a prefix of _LINK_ORDER
        self._grams: dict[tuple[str, str], np.ndarray] = {}
        self._stats: dict[tuple, np.ndarray] = {}
        self._c3: tuple[float, np.ndarray] | None = None
        self._scratch: np.ndarray | None = None

    def close(self) -> None:
        """Stop and join the read-ahead worker, if any; links it has not
        handed over can no longer be read."""
        if self._reader is not None:
            self._finalizer()

    def _draw_through(self, link: str) -> None:
        n = self.mc.samples
        stop = _LINK_ORDER.index(link) + 1
        for name in _LINK_ORDER[self._drawn:stop]:
            rows, cols = self._shapes[name]
            model = self._models[name]
            sides = [side for lk, side in self._sides if lk == name]
            stored = None if self._reader else self._draws.link(name)
            for start in range(0, n, _CHUNK):
                m = min(_CHUNK, n - start)
                # Unit distance: path loss is applied per probe.
                if stored is not None:
                    H = channel.apply_fading(model, stored[start:start + m])
                else:
                    H = channel.sample_link_batch(model, m, rows, cols,
                                                  self._reader)
                for side in sides:
                    # The Gram of H^T is conj(H^dagger H); traces,
                    # determinants and log-dets do not change when every
                    # Gram is conjugated.
                    M = H if side == "rx" else np.swapaxes(H, -1, -2)
                    G = (matrixkit.gram_entries_2x2(M) if M.shape[-2] == 2
                         else matrixkit.gram(M))
                    if m == n:
                        self._grams[name, side] = G
                        continue
                    # Packed (4, m) entries hold samples last, (m, k, k)
                    # stacks first.
                    if start == 0:
                        self._grams[name, side] = np.empty(
                            (len(G), n) if G.ndim == 2 else (n, *G.shape[1:]),
                            G.dtype)
                    full = self._grams[name, side]
                    if G.ndim == 2:
                        full[:, start:start + m] = G
                    else:
                        full[start:start + m] = G
            self._drawn += 1

    def gram(self, link: str, side: str) -> np.ndarray:
        """Per-sample Gram statistic of a link at unit distance on one side
        ("tx" or "rx"): packed (4, n) entries when that side has two
        antennas, else an (n, k, k) stack. LookupError when no planned cut
        reads it."""
        if (link, side) not in self._sides:
            raise LookupError(f"the {link}/{side} Gram is read by none of "
                              f"this bank's planned cuts {self.plan}")
        self._draw_through(link)
        return self._grams[link, side]

    def _stat(self, side: str, names: tuple[str, ...],
              added: str | None = None) -> np.ndarray:
        """What a log-det over the links names (then added) on one side
        reads, built on first use: with two antennas on that side the
        quadratic form's coefficient rows (k, n), else one link's Gram
        eigenvalues, clamped at 0.

        Base rows are the traces, then the determinants, then each pair's
        mixed discriminant, for the monomials a_i, a_i^2, a_i a_j (i < j).
        An added link x brings its trace, its determinant and its mixed
        discriminant with each base link, for x, x^2, a_i x.
        """
        key = (side, names, added)
        if key not in self._stats:
            P = [self.gram(name, side) for name in names]
            det, mixed = matrixkit.det_2x2, matrixkit.mixed_discriminant_2x2
            if P[0].ndim != 2:
                stat = np.maximum(np.linalg.eigvalsh(P[0]), 0.0)
            elif added is None:
                stat = np.stack([p[0] + p[1] for p in P] + [det(p) for p in P]
                                + [mixed(p, q) for i, p in enumerate(P)
                                   for q in P[i + 1:]])
            else:
                X = self.gram(added, side)
                stat = np.stack([X[0] + X[1], det(X)] + [mixed(p, X) for p in P])
            self._stats[key] = stat
        return self._stats[key]

    def _logdet(self, cut: str, a: list[float],
                x: float | None = None) -> np.ndarray:
        """Per-sample log2 det(I + sum_k a_k G_k) of a cut in _CUTS, its
        links with powers a and then its added link with power x.

        With two antennas on the cut's side the determinant is a quadratic
        form in the powers, one dot for the links and one more for the added
        link (through the scratch row), so a cut with an added link extends
        the cut without it bit for bit. One link at another size reads its
        Gram's eigenvalues, so the rate never rises as a_k falls; anything
        else is Cholesky of the weighted Gram sum, summed in link order.
        """
        side, names, added = _CUTS[cut]
        if self.gram(names[0], side).ndim == 2:
            terms = [(np.array(a + [p * p for p in a] + [
                p * q for i, p in enumerate(a) for q in a[i + 1:]]),
                self._stat(side, names))]
            if added is not None:
                terms.append((np.array([x, x * x] + [y * x for y in a]),
                              self._stat(side, names, added)))
                if self._scratch is None:
                    # Allocated on first use, after the coefficient rows, so
                    # a link they draw is never drawn while the probe holds
                    # its determinant; most banks never need it.
                    self._scratch = np.empty(self.mc.samples)
            return matrixkit.logdet_quadratic_2x2(*terms, scratch=self._scratch)
        if added is None and len(names) == 1:
            return matrixkit.logdet_identity_plus_eig(
                self._stat(side, names), a[0])
        links = [*zip(names, a)] + ([] if added is None else [(added, x)])
        M = a[0] * self.gram(names[0], side)
        for name, power in links[1:]:
            M += power * self.gram(name, side)
        return matrixkit.logdet_identity_plus_batch(M)

    def c3(self, a_sr: float) -> np.ndarray:
        """Per-sample relay-link rate log2 det(I + a_sr G_sr), read-only.

        The last (a_sr, c3) pair is kept: a coverage sweep holds the relay
        radius fixed, so its probes all share one c3 array.
        """
        if self._c3 is None or self._c3[0] != a_sr:
            c3 = self._logdet("c3", [a_sr])
            c3.flags.writeable = False
            self._c3 = (a_sr, c3)
        return self._c3[1]

    def c1(self, a_sr: float, a_sd: float) -> np.ndarray:
        """Per-sample broadcast-cut rate log2 det(I + a_sr G_sr + a_sd G_sd)
        on transmit-side Grams. sd is added to c3's links, so c1 >= c3 holds
        bit for bit at two transmit antennas."""
        return self._logdet("c1", [a_sr], a_sd)

    def c2(self, a_sd: float, a_rd: float) -> np.ndarray:
        """Per-sample multiple-access rate log2 det(I + a_sd G_sd + a_rd G_rd)
        on receive-side Grams."""
        return self._logdet("c2", [a_sd, a_rd])

    def coop(self, a_sd: float, a_rd: float, a_rd2: float) -> np.ndarray:
        """Per-sample cooperative sum-rate log2 det(I + a_sd G_sd +
        a_rd G_rd + a_rd2 G_rd2) on receive-side Grams. rd2 is added to c2's
        links, so a_rd2 = 0 reproduces c2 bit for bit on every route."""
        return self._logdet("coop", [a_sd, a_rd], a_rd2)


def _bank_key(scn: ScenarioConfig, mc: McConfig) -> tuple:
    # Fading models compare by identity, which is enough to share a bank
    # between the probes of one run.
    return (mc, tuple(_link_shapes(scn).values()),
            scn.fading_sr, scn.fading_sd, scn.fading_rd)


# The live bank. A probe reuses it when its key matches and replaces it
# with an unplanned bank otherwise, so at most one bank is alive; cli.run
# opens the run's bank with its plan and releases it on return.
_bank: ChannelBank | None = None

# The stored link draws that banks drawing on the main thread read. A bank
# on another key replaces them, and opening a bank whose worker draws its
# links drops them, so at most one set is alive; release_bank keeps them,
# so the next run at the same seed, samples and shapes draws nothing.
_draws: _LinkDraws | None = None


def _draws_for(scn: ScenarioConfig, mc: McConfig) -> _LinkDraws:
    global _draws
    key = (mc, tuple(_link_shapes(scn).values()))
    if _draws is None or _draws.key != key:
        _draws = _LinkDraws(*key)
    return _draws


def _bank_for(scn: ScenarioConfig, mc: McConfig) -> ChannelBank:
    global _bank
    if _bank is not None and _bank.scn is scn and _bank.mc is mc:
        return _bank
    if _bank is None or _bank.key != _bank_key(scn, mc):
        release_bank()
        _bank = ChannelBank(scn, mc)
    return _bank


def open_bank(scn: ScenarioConfig, mc: McConfig,
              plan: tuple[str, ...]) -> None:
    """Release the live bank, then make a ChannelBank for scn and mc,
    planned with the cuts of _CUTS the caller's probes evaluate, the live
    one. A bad or empty plan raises ValueError and leaves no bank live.
    A bank whose worker draws its links drops the stored draws, which it
    never reads."""
    global _bank, _draws
    release_bank()
    _bank = ChannelBank(scn, mc, plan)
    if _bank._reader is not None:
        _draws = None


def release_bank() -> None:
    """Stop and join the live bank's read-ahead worker and drop the bank,
    so the next probe builds an unplanned one. The stored link draws are
    kept: a later bank on their key reads them instead of drawing."""
    global _bank
    if _bank is not None:
        _bank.close()
    _bank = None


def _scaled_power(scn: ScenarioConfig, power: str, name: str,
                  d: float) -> float:
    """Scaled power (P/N) d^-alpha of the source (power "P_s", over N_s
    antennas) or a relay ("P_r", over N_r) at distance d. Raises
    ValueError naming the distance when it is not > 0."""
    if not d > 0:
        raise ValueError(f"{name} must be > 0, got {d}")
    antennas = scn.N_s if power == "P_s" else scn.N_r
    return getattr(scn, power) / antennas * d ** (-scn.alpha)


def estimate_c3(scn: ScenarioConfig, r_R: float, mc: McConfig) -> BoundEstimate:
    """Ergodic rate of the source-relay link at relay radius r_R:
    E log2 det(I + (P_s/N_s) r_R^-a H H+)."""
    a_sr = _scaled_power(scn, "P_s", "r_R", r_R)
    return summarize_samples(_bank_for(scn, mc).c3(a_sr))


def estimate_c2(scn: ScenarioConfig, r_D: float, r_DR: float,
                mc: McConfig) -> BoundEstimate:
    """Ergodic multiple-access rate at the destination.

    Mean of log2 det(I + (P_s/N_s) r_D^-a H_sd H_sd† +
    (P_r/N_r) r_DR^-a H_rd H_rd†) over common draws.
    """
    a_sd = _scaled_power(scn, "P_s", "r_D", r_D)
    a_rd = _scaled_power(scn, "P_r", "r_DR", r_DR)
    return summarize_samples(_bank_for(scn, mc).c2(a_sd, a_rd))


def sample_bound_realizations(scn: ScenarioConfig, r_R: float, r_D: float,
                              r_DR: float, mc: McConfig) -> BoundSamples:
    """Per-realization c1, c2 and c3 on common draws.

    All bounds for one scenario share the per-sample channel realizations,
    so orderings like c1 >= c3 hold pointwise.
    """
    a_sr = _scaled_power(scn, "P_s", "r_R", r_R)
    a_sd = _scaled_power(scn, "P_s", "r_D", r_D)
    a_rd = _scaled_power(scn, "P_r", "r_DR", r_DR)
    bank = _bank_for(scn, mc)
    return BoundSamples(c1=bank.c1(a_sr, a_sd), c3=bank.c3(a_sr),
                        c2=bank.c2(a_sd, a_rd))


def _relay_distances(geom: NetworkGeometry, relays: int) -> list[float]:
    """Distances from the destination to its serving relay, at off-axis
    angle phi in [0, pi/L], and with relays=2 to the adjacent relay on the
    far side of the destination, at 2*pi/L - phi.

    Each is floored at MIN_LINK_DISTANCE so a destination collocated with
    a relay keeps the estimators finite (the multiple-access term then
    dominates and the decode-and-forward minimum falls to the relay link).
    """
    if geom.relay_count < relays:
        raise ValueError("cooperation needs at least two relays")
    _, phi = channel.sector_of(geom)
    return [max(channel.relay_dest_distance(geom.dest_radius,
                                            geom.relay_radius, angle),
                channel.MIN_LINK_DISTANCE)
            for angle in (phi, geom.coverage_angle - phi)[:relays]]


def _probe(scn: ScenarioConfig, geom: NetworkGeometry, mc: McConfig,
           relays: int = 1) -> tuple[ChannelBank, list[float]]:
    """The live bank and a geometry's scaled powers [a_sr, a_sd, a_rd],
    then a_rd2 for the second serving relay when relays=2. Distances are
    checked in the order r_R, r_D, r_DR, r_DR2."""
    r_DRs = _relay_distances(geom, relays)
    powers = [_scaled_power(scn, "P_s", "r_R", geom.relay_radius),
              _scaled_power(scn, "P_s", "r_D", geom.dest_radius)]
    powers += [_scaled_power(scn, "P_r", name, d)
               for name, d in zip(("r_DR", "r_DR2"), r_DRs)]
    return _bank_for(scn, mc), powers


def resolve_distances(geom: NetworkGeometry) -> tuple[float, float, float]:
    """(r_R, r_D, r_DR) for the serving relay of the destination's sector,
    r_DR floored as the estimators floor it."""
    return (geom.relay_radius, geom.dest_radius, *_relay_distances(geom, 1))


def df_rate(scn: ScenarioConfig, geom: NetworkGeometry,
            mc: McConfig) -> BoundEstimate:
    """Decode-and-forward achievable rate min(c3, c2) for the geometry.

    The minimum is taken per realization before averaging (common draws),
    in place on the fresh c2 array: c3 is the bank's read-only memo.
    """
    bank, (a_sr, a_sd, a_rd) = _probe(scn, geom, mc)
    c3 = bank.c3(a_sr)
    c2 = bank.c2(a_sd, a_rd)
    return summarize_samples(np.minimum(c3, c2, out=c2))


def cutset_bound(scn: ScenarioConfig, geom: NetworkGeometry,
                 mc: McConfig) -> BoundEstimate:
    """Cut-set upper bound min(c1, c2) for the geometry (common draws)."""
    bank, (a_sr, a_sd, a_rd) = _probe(scn, geom, mc)
    c1 = bank.c1(a_sr, a_sd)
    c2 = bank.c2(a_sd, a_rd)
    return summarize_samples(np.minimum(c1, c2, out=c2))


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
