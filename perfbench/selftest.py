"""Self-tests of the benchmark's tracing, at a reduced sample count.

For every workload: two untraced and two traced passes on the default
seed, at SAMPLES Monte Carlo samples per probe.
Checks that
- every request exits 0 and tracing leaves the CSV outputs byte-identical;
- the counter identities hold on both traces (tracer.identity_violations),
  and the checker flags a trace doctored to break each of them;
- every count metric repeats exactly between the two traced passes.

    python3 perfbench/selftest.py

Exits 0 when every check passes.
"""

import dataclasses
import shutil
import sys

import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, requests_for

SAMPLES = 400


def _doctored_violations(spans: list[dict]) -> list[bool]:
    """Whether the checker flags a trace doctored to break each identity."""
    found = []
    reachable = [s for s in spans if s["name"] == "coverage.solve_ray" and s["r_max"] > 0]
    if reachable:
        fake = [dict(s, r_max=0.0) if s is reachable[0] else s for s in spans]
        found.append(bool(tracer.identity_violations(fake)))
    bisects = [s for s in spans if s["name"] == "coverage.bisect_largest"]
    if bisects:
        fake = [dict(s, tol=s["hi"] - s["lo"]) if s is bisects[0] else s for s in spans]
        found.append(bool(tracer.identity_violations(fake)))
    return found


def check_workload(relaycov, workload: str) -> list[str]:
    requests = [dataclasses.replace(r, config=r.config + f"samples={SAMPLES}\n")
                for r in requests_for(workload, DEFAULT_SEED)]
    base = run.OUT / f"selftest-{workload}"
    shutil.rmtree(base, ignore_errors=True)
    problems = []
    passes, traces = [], []
    for n in range(2):
        trace = tracer.Tracer()
        passes += run.run_paired(relaycov, requests, base / f"run{n}", trace)
        traces.append(trace.spans)

    for n, p in enumerate(passes):
        codes = {r["code"] for r in p}
        if codes != {0}:
            problems.append(f"pass {n}: exit codes {codes}")
    for i in range(len(requests)):
        csvs = {(p[i]["out_dir"] / "out.csv").read_bytes() for p in passes}
        if len(csvs) != 1:
            problems.append(f"{requests[i].label}: traced output differs")
    for n, spans in enumerate(traces):
        problems += [f"trace {n}: {v}" for v in tracer.identity_violations(spans)[:5]]
    if not all(_doctored_violations(traces[0])):
        problems.append("identity checker missed a doctored trace")
    counts = [{k: tracer.layer_metrics(spans)[k] for k in tracer.COUNT_METRICS}
              for spans in traces]
    for k in tracer.COUNT_METRICS:
        if counts[0][k] != counts[1][k]:
            problems.append(f"{k} differs between traced passes: "
                            f"{counts[0][k]} vs {counts[1][k]}")
    print(f"{workload}: {counts[0]}")
    shutil.rmtree(base)
    return problems


def main() -> int:
    relaycov = run._import_relaycov()
    failed = False
    for workload in WORKLOADS:
        problems = check_workload(relaycov, workload)
        print(f"{'FAIL' if problems else 'PASS'} {workload}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
