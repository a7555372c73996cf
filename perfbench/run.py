"""relaycov planning benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload coop-default --seed 42 --seconds 55 --trace 0

One client in one process sends planning requests through the public CLI
entry point (relaycov.cli.main) in a closed loop, importing relaycov from
./src. A pass runs every request of the workload once, in order.

--trace 0 cycles through passes and, after the first full pass, stops
where the run ends nearest to --seconds, then reports the end-to-end
metrics:
  wall_s       time of one pass: the sum over the workload's requests of
               each request's mean latency in this run
  req_p50_s    median request latency
  req_tail_s   highest order statistic with >= 10 requests beyond it
               (the slowest request when there are <= 10)
  setup_s      median over fresh processes of: start, imports, config
               parse and one warm-up probe; half are run before the
               requests and half after, to sample the machine twice
  peak_rss_mb  peak RSS of this process
--trace 1 runs one untraced and one traced pass, interleaved request by
request, and reports the per-layer metrics derived from the traced
pass's spans (see tracer.py), plus trace.overhead_s, the traced minus
the untraced pass time.

Every pass goes through the correctness gate (gate.py); a request that
exits non-zero or fails a check counts in "failed", and fail_rate is
failed / attempted. The last line of stdout is the result JSON; the line
before it is a report with the machine record, request counts and
fail_rate. Spans and the report are also written under .perfbench_out/.
"""

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def _cap_blas_threads() -> None:
    # Keep BLAS threads at or below the cores this process may use; must
    # run before numpy is imported.
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[var] = str(cores)


_cap_blas_threads()

import gate  # noqa: E402  (these load numpy)
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Request, requests_for  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROCESSES = 4  # before the requests, and as many after
TAIL_BEYOND = 10


def _import_relaycov():
    sys.path.insert(0, str(SRC))
    import relaycov
    import relaycov.cli  # noqa: F401  (loads every traced module)
    return relaycov


def warm_up(relaycov, request: Request) -> None:
    """Parse the request's config and run one Monte Carlo probe on it."""
    manifest = relaycov.cli.parse_config(request.config)
    relaycov.capacity.estimate_c3(manifest.scenario, 1.0, manifest.mc)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ready, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_request(relaycov, request: Request, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True)
    config = out_dir.with_suffix(".cfg")  # outside out_dir, which holds outputs only
    config.write_text(request.config)
    argv = [request.command, "--config", str(config), "--out", str(out_dir / "out.csv")]
    result = {"out_dir": out_dir}
    stdout = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(stdout):
            result["code"] = relaycov.cli.main(argv)
    except Exception as exc:  # a crash is a failed request, not a failed run
        result["code"], result["error"] = "exception", repr(exc)
    result["latency_s"] = time.perf_counter() - t0
    result["stdout"] = stdout.getvalue()
    return result


def run_pass(relaycov, requests: list[Request], pass_dir: Path) -> list[dict]:
    return [run_request(relaycov, request, pass_dir / f"req{i:03d}")
            for i, request in enumerate(requests)]


def run_paired(relaycov, requests: list[Request], run_dir: Path,
               trace: tracer.Tracer) -> list[list[dict]]:
    """An untraced and a traced pass, interleaved request by request so
    that both see the machine at the same speed."""
    untraced, traced = [], []
    for i, request in enumerate(requests):
        untraced.append(run_request(relaycov, request, run_dir / "pass0" / f"req{i:03d}"))
        trace.request = i
        with trace.installed(relaycov):
            traced.append(run_request(relaycov, request, run_dir / "pass1" / f"req{i:03d}"))
    return [untraced, traced]


def run_timed(relaycov, requests: list[Request], run_dir: Path,
              seconds: float) -> list[list[dict]]:
    """Cycle through passes; after the first full pass, stop where the
    run ends nearest to seconds.

    The last pass is usually partial: a prefix of the requests.
    """
    passes: list[list[dict]] = []
    t0 = time.perf_counter()
    while True:
        results: list[dict] = []
        passes.append(results)
        for i, request in enumerate(requests):
            results.append(run_request(
                relaycov, request, run_dir / f"pass{len(passes) - 1}" / f"req{i:03d}"))
            full_pass = len(passes) > 1 or i == len(requests) - 1
            # Another request like the last one would overshoot by more
            # than stopping now undershoots.
            if full_pass and time.perf_counter() - t0 + results[-1]["latency_s"] / 2 >= seconds:
                return passes


def _blas_threads() -> int | None:
    # Ask the loaded OpenBLAS directly; None when it cannot be found.
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                return int(getter())
    return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no revision
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "relaycov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND requests beyond it; the maximum when there are too few."""
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def pass_time(passes: list[list[dict]]) -> float:
    """Sum over request positions of the mean latency at that position."""
    by_position: dict[int, list[float]] = {}
    for results in passes:
        for i, r in enumerate(results):
            by_position.setdefault(i, []).append(r["latency_s"])
    return sum(statistics.fmean(v) for v in by_position.values())


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "relaycov" / "cli.py").is_file():
        print(f"perfbench: no relaycov sources under {SRC}", file=sys.stderr)
        return 2
    requests = requests_for(args.workload, args.seed)
    relaycov = _import_relaycov()
    warm_up(relaycov, requests[0])
    if args.setup_probe:
        return 0

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tol = relaycov.coverage.SolverConfig().tol
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_record(args.seed)}

    if args.trace:
        trace = tracer.Tracer()
        passes = run_paired(relaycov, requests, run_dir, trace)
        trace.write(run_dir / "spans.jsonl")
        metrics = tracer.layer_metrics(trace.spans)
        metrics["trace.overhead_s"] = pass_time(passes[1:]) - pass_time(passes[:1])
        metrics = {k: _metric(v, tracer.LAYER_UNITS[k]) for k, v in metrics.items()}
        report["identity_violations"] = tracer.identity_violations(trace.spans)
    else:
        setup = measure_setup(args.workload, args.seed)
        passes = run_timed(relaycov, requests, run_dir, args.seconds)
        setup += measure_setup(args.workload, args.seed)
        latencies = [r["latency_s"] for results in passes for r in results]
        tail_s, tail_pct = tail(latencies)
        report.update({"setup_runs_s": setup, "req_tail_percentile": tail_pct,
                       "latency_samples": len(latencies)})
        metrics = {
            "wall_s": _metric(pass_time(passes), "s"),
            "req_p50_s": _metric(statistics.median(latencies), "s"),
            "req_tail_s": _metric(tail_s, "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    failures = {}
    for n, results in enumerate(passes):
        for i, reason in gate.check_pass(args.workload, args.seed, requests,
                                         results, tol).items():
            failures[f"pass{n}/{requests[i].label}"] = reason
    attempted = sum(len(results) for results in passes)
    correct = not failures and not report.get("identity_violations")
    report.update({
        "passes": len(passes), "requests": attempted, "failed": len(failures),
        "fail_rate": len(failures) / attempted, "failures": failures,
        "metrics": metrics,
    })
    for n in range(len(passes)):
        shutil.rmtree(run_dir / f"pass{n}")
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
