"""Span tracing of relaycov from outside the library.

While installed, every public function defined in a relaycov module is
replaced, as a module attribute, by a wrapper that records one span:
name, start, end, parent span and request id, plus a few counts read
from the call's arguments and result. Calls between modules and within a
module both go through module attributes, so the wrappers see every call
of a public function. Spans stay in memory and are written out once.

Per-layer metrics are derived from the spans alone. A span's self time is
its duration minus that of its direct child spans; a layer's self time
sums the self time of its spans. Private functions are not wrapped, so
their time counts toward the public function that called them.
"""

import contextlib
import functools
import inspect
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

MODULES = ("matrixkit", "channel", "capacity", "coverage", "cooperation", "cli")

DRAW = {"matrixkit.sample_complex_gaussian", "matrixkit.sample_complex_gaussian_batch",
        "matrixkit.skip_complex_gaussian_batch"}
GRAM = {"matrixkit.gram"}
LOGDET = {"matrixkit.logdet_identity_plus", "matrixkit.logdet_identity_plus_batch",
          "matrixkit.hermitian_defect"}
GEOMETRY = {"channel.sector_of", "channel.relay_dest_distance"}
# Monte Carlo estimators. A probe is an estimator span with no estimator
# among its ancestors (estimate_c3 calls c3_samples, for example).
ESTIMATORS = {
    "capacity.estimate_c1", "capacity.estimate_c2", "capacity.estimate_c3",
    "capacity.c3_samples", "capacity.df_rate", "capacity.cutset_bound",
    "capacity.sample_bound_realizations",
    "cooperation.estimate_coop_sum_rate", "cooperation.coop_df_rate",
}

LAYER_UNITS = {
    "matrixkit.draw.normals": "count",
    "matrixkit.draw.self_s": "s",
    "matrixkit.gram.matrices": "count",
    "matrixkit.gram.self_s": "s",
    "matrixkit.logdet.matrices": "count",
    "matrixkit.logdet.self_s": "s",
    "matrixkit.bytes_computed": "bytes",
    "channel.sample.calls": "count",
    "channel.sample.self_s": "s",
    "channel.geometry.calls": "count",
    "capacity.probes": "count",
    "capacity.probe_p50_ms": "ms",
    "capacity.self_s": "s",
    "capacity.normals_per_probe": "ratio",
    "coverage.rays": "count",
    "coverage.radius_solves": "count",
    "coverage.bisect_iters": "count",
    "coverage.probes_per_ray": "ratio",
    "coverage.self_s": "s",
    "cooperation.probes": "count",
    "cooperation.fit_s": "s",
    "cooperation.self_s": "s",
    "cli.requests": "count",
    "cli.parse_s": "s",
    "cli.run_self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# Counts and ratios of counts repeat exactly run to run on one seed;
# cli.bytes_written does not, because the sidecar records wall time.
COUNT_METRICS = tuple(k for k, unit in LAYER_UNITS.items()
                      if unit not in ("s", "ms") and k != "cli.bytes_written")


def _matrices(a) -> int:
    return math.prod(np.shape(a)[:-2])


def _normals(n, rows, cols, *_rest) -> int:
    return 2 * n * rows * cols


def _dir_bytes(manifest) -> int:
    # Each request writes into a directory of its own.
    out_dir = Path(manifest.output_path).parent
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


# Counts attached to a span, computed from (args, result). Bytes are
# computed from array shapes, not measured.
_ANNOTATE = {
    "matrixkit.sample_complex_gaussian_batch": lambda a, r: {
        "normals": _normals(*a), "bytes": r.nbytes},
    "matrixkit.skip_complex_gaussian_batch": lambda a, r: {
        "normals": _normals(*a), "bytes": 8 * _normals(*a)},
    "matrixkit.gram": lambda a, r: {
        "matrices": _matrices(a[0]), "bytes": np.asarray(a[0]).nbytes + r.nbytes},
    "matrixkit.logdet_identity_plus_batch": lambda a, r: {
        "matrices": _matrices(a[0]), "bytes": np.asarray(a[0]).nbytes + r.nbytes},
    "coverage.bisect_largest": lambda a, r: {
        "lo": a[1], "hi": a[2], "tol": a[3], "max_iter": a[4]},
    "coverage.solve_ray": lambda a, r: {"r_max": r},
    "cli.run": lambda a, r: {"bytes_written": _dir_bytes(a[0])},
}


class Tracer:
    """Installs span-recording wrappers on relaycov's public functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        annotate = _ANNOTATE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "req": self.request, "name": name,
                    "start": time.perf_counter_ns()}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if annotate is not None:
                span.update(annotate(args, result))
            return result

        return traced

    def install(self, package) -> None:
        modules = [getattr(package, name) for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        # Rebind every reference, including names imported from another module.
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    @contextlib.contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0
        with path.open("w") as fh:
            for span in self.spans:
                row = dict(span, start=span["start"] - t0, end=span["end"] - t0)
                fh.write(json.dumps(row) + "\n")


class SpanIndex:
    """Spans with their children, durations and self times, for analysis."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int, list[int]] = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s["id"])
        self.dur = {s["id"]: (s["end"] - s["start"]) * 1e-9 for s in spans}
        self.self_s = {
            sid: self.dur[sid] - sum(self.dur[c] for c in kids)
            for sid, kids in self.children.items()}
        self.probes = [s for s in spans
                       if s["name"] in ESTIMATORS and not self._has_ancestor(s, ESTIMATORS)]

    def _has_ancestor(self, span: dict, names: set) -> bool:
        pid = span["parent"]
        while pid is not None:
            parent = self.spans[pid]
            if parent["name"] in names:
                return True
            pid = parent["parent"]
        return False

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def probes_under(self, span: dict) -> int:
        """Probes among the descendants of span."""
        count, todo = 0, list(self.children[span["id"]])
        while todo:
            child = self.spans[todo.pop()]
            if child["name"] in ESTIMATORS:
                count += 1  # a probe's own descendants are not probes
            else:
                todo.extend(self.children[child["id"]])
        return count

    def self_time(self, pred) -> float:
        return sum(self.self_s[s["id"]] for s in self.spans if pred(s["name"]))

    def total(self, names: set, key: str) -> int:
        return sum(s.get(key, 0) for s in self.spans if s["name"] in names)


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from spans alone."""
    ix = SpanIndex(spans)
    probes = len(ix.probes)
    normals = ix.total(DRAW, "normals")
    rays = ix.named("coverage.solve_ray")
    bisects = ix.named("coverage.bisect_largest")
    return {
        "matrixkit.draw.normals": normals,
        "matrixkit.draw.self_s": ix.self_time(lambda n: n in DRAW),
        "matrixkit.gram.matrices": ix.total(GRAM, "matrices"),
        "matrixkit.gram.self_s": ix.self_time(lambda n: n in GRAM),
        "matrixkit.logdet.matrices": ix.total(LOGDET, "matrices"),
        "matrixkit.logdet.self_s": ix.self_time(lambda n: n in LOGDET),
        "matrixkit.bytes_computed": sum(
            s.get("bytes", 0) for s in spans if _module(s["name"]) == "matrixkit"),
        "channel.sample.calls": len(ix.named("channel.sample_link_batch")),
        "channel.sample.self_s": ix.self_time(
            lambda n: _module(n) == "channel" and n not in GEOMETRY),
        "channel.geometry.calls": len(ix.named(*GEOMETRY)),
        "capacity.probes": probes,
        "capacity.probe_p50_ms": (
            statistics.median(ix.dur[s["id"]] for s in ix.probes) * 1e3
            if probes else 0.0),
        "capacity.self_s": ix.self_time(lambda n: _module(n) == "capacity"),
        "capacity.normals_per_probe": normals / probes if probes else 0.0,
        "coverage.rays": len(rays),
        "coverage.radius_solves": len(ix.named("coverage.optimal_relay_radius")),
        "coverage.bisect_iters": sum(ix.probes_under(b) for b in bisects),
        "coverage.probes_per_ray": (
            sum(ix.probes_under(r) for r in rays) / len(rays) if rays else 0.0),
        "coverage.self_s": ix.self_time(lambda n: _module(n) == "coverage"),
        "cooperation.probes": sum(
            1 for s in ix.probes if _module(s["name"]) == "cooperation"),
        "cooperation.fit_s": sum(
            ix.dur[s["id"]] for s in ix.named("cooperation.fit_k1_k2")),
        "cooperation.self_s": ix.self_time(lambda n: _module(n) == "cooperation"),
        "cli.requests": len(ix.named("cli.main")),
        "cli.parse_s": sum(ix.dur[s["id"]] for s in ix.named("cli.parse_config")),
        "cli.run_self_s": ix.self_time(lambda n: n == "cli.run"),
        "cli.bytes_written": ix.total({"cli.run"}, "bytes_written"),
    }


def identity_violations(spans: list[dict]) -> list[str]:
    """Check the solver's counter identities on a trace.

    - A ray costs 1 probe if unreachable, else 2 bracket probes plus one
      per bisection iteration; a relay-radius solve costs 2 plus its
      iterations.
    - A bisection takes at most ceil(log2((hi - lo) / tol)) iterations.
    """
    ix = SpanIndex(spans)
    bad = []
    for solve in ix.named("coverage.solve_ray", "coverage.optimal_relay_radius"):
        if solve.get("error"):
            continue
        kids = [ix.spans[c] for c in ix.children[solve["id"]]]
        iters = sum(ix.probes_under(k) for k in kids
                    if k["name"] == "coverage.bisect_largest")
        expect = 1 if solve.get("r_max") == 0.0 else 2 + iters
        got = ix.probes_under(solve)
        if got != expect:
            bad.append(f"span {solve['id']} {solve['name']}: {got} probes, "
                       f"expected {expect}")
    for b in ix.named("coverage.bisect_largest"):
        cap = min(b["max_iter"], math.ceil(math.log2((b["hi"] - b["lo"]) / b["tol"])))
        got = ix.probes_under(b)
        if got > cap:
            bad.append(f"span {b['id']} bisect_largest: {got} iterations > {cap}")
    return bad
