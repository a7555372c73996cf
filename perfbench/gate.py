"""Correctness gate: every request of a pass is checked, and a request
that exits non-zero or fails a check counts as failed.

- every request exits 0;
- coop: both boundaries are L-fold rotation and mirror symmetric within
  2*tol, and the cooperative radius is >= the noncooperative one at
  every angle;
- optloc: the rate table does not increase in r_R, and for each K and
  Monte Carlo seed r*(poor LOS) < r*(Rayleigh) < r*(well LOS);
- outputs match the reference values checked in for the workload seed
  (reference.json), if any, within 2*tol.
"""

import csv
import json
from pathlib import Path

from workloads import Request

REFERENCE = Path(__file__).with_name("reference.json")


def load_outputs(out_dir: Path) -> dict:
    """Numeric CSV columns and the sidecar of one request's output."""
    with (out_dir / "out.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    columns = {name: [float(row[i]) for row in rows[1:]]
               for i, name in enumerate(rows[0])}
    meta = json.loads((out_dir / "out.meta.json").read_text())
    return {"columns": columns, "meta": meta}


def reference_values(request: Request, outputs: dict) -> dict[str, list[float]]:
    """The outputs pinned by the reference: radii, rates and r*."""
    keep = ("r_max_noncoop", "r_max_coop", "rate")
    values = {k: v for k, v in outputs["columns"].items() if k in keep}
    values["r_star"] = [outputs["meta"]["r_star"]]
    return values


def _symmetry_failures(radii: list[float], L: int, steps: int, tol: float) -> list[str]:
    shift = steps // L
    bad = []
    for j, r in enumerate(radii):
        if abs(r - radii[(j + shift) % steps]) > 2 * tol:
            bad.append(f"rotation breaks at angle index {j}")
        if abs(r - radii[-j % steps]) > 2 * tol:
            bad.append(f"mirror breaks at angle index {j}")
    return bad[:3]


def _request_failures(request: Request, outputs: dict, tol: float) -> list[str]:
    cols = outputs["columns"]
    bad = []
    if request.command == "coop":
        # L as the run used it, one CSV row per angle.
        L, steps = outputs["meta"]["L"], len(cols["theta_deg"])
        for name in ("r_max_noncoop", "r_max_coop"):
            bad += [f"{name}: {m}" for m in
                    _symmetry_failures(cols[name], L, steps, tol)]
        below = [j for j, (nc, co) in enumerate(zip(cols["r_max_noncoop"],
                                                    cols["r_max_coop"])) if co < nc]
        if below:
            bad.append(f"coop < noncoop at angle indices {below[:5]}")
    if request.command == "optloc":
        rates = cols["rate"]
        if any(b > a for a, b in zip(rates, rates[1:])):
            bad.append("rate increases with r_R")
    return bad


def _ordering_failures(requests: list[Request], outputs: dict) -> dict[int, str]:
    """r*(poor) < r*(Rayleigh) < r*(well) for each (K, Monte Carlo seed)."""
    r_star = {(r.tags.get("mc_seed"), r.tags.get("K"), r.tags.get("los")):
              (i, outputs[i]["meta"]["r_star"])
              for i, r in enumerate(requests) if i in outputs}
    bad = {}
    for (seed, k, los), (i, value) in r_star.items():
        if k is None or (seed, None, None) not in r_star:
            continue
        ray = r_star[(seed, None, None)][1]
        if (los == "poor" and not value < ray) or (los == "well" and not value > ray):
            bad[i] = f"r*({los}, K={k})={value} vs r*(Rayleigh)={ray}"
    return bad


def _reference_failures(expected: dict, got: dict, tol: float) -> list[str]:
    bad = []
    for name, ref in expected.items():
        vals = got.get(name, [])
        if len(vals) != len(ref):
            bad.append(f"{name}: {len(vals)} values, reference has {len(ref)}")
            continue
        worst = max(abs(a - b) for a, b in zip(vals, ref))
        if worst > 2 * tol:
            bad.append(f"{name}: off reference by {worst:.3g} > 2*tol")
    return bad


def check_pass(workload: str, seed: int, requests: list[Request],
               results: list[dict], tol: float) -> dict[int, str]:
    """Failure reason per failed request index of one pass."""
    failed: dict[int, str] = {}
    outputs = {}
    for i, res in enumerate(results):
        if res["code"] != 0:
            failed[i] = f"exit {res['code']}: {res.get('error', '')}".strip()
            continue
        try:
            outputs[i] = load_outputs(res["out_dir"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failed[i] = f"unreadable output: {exc!r}"
    reference = load_reference().get(workload, {}).get(str(seed), {})
    for i, out in outputs.items():
        reasons = _request_failures(requests[i], out, tol)
        label = requests[i].label
        if label in reference:
            reasons += _reference_failures(
                reference[label], reference_values(requests[i], out), tol)
        if reasons:
            failed[i] = "; ".join(reasons)
    for i, reason in _ordering_failures(requests, outputs).items():
        failed.setdefault(i, reason)
    return failed


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}

