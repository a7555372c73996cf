"""Benchmark workloads: each turns a workload seed into relaycov requests.

The program only ever sees the generated key=value configs; the seed
itself never reaches it.

- coop-default: the planner's headline question, `relaycov coop` at
  defaults. Kernel-bound, 2x2 Rayleigh, ~345 Monte Carlo probes sharing
  one draw set, so draw-once caching and 2x2 closed forms show in full.
  The acceptance coverage sweep runs the same code on more rays.
- optloc-scan: 39 short `relaycov optloc` requests over 13 fading models
  and 3 Monte Carlo seeds. Many fresh scenarios with ~37 probes each, so
  a cache that draws unneeded links or grows across scenarios shows as
  slower requests or more memory.
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 42  # the CLI's own default Monte Carlo seed

K_FACTORS = (3, 5, 7, 10, 14, 20)
LOS_KINDS = ("poor", "well")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: command, config text, and what the gate needs."""

    label: str
    command: str
    config: str
    tags: dict = field(default_factory=dict)


def _config(pairs: dict) -> str:
    return "".join(f"{key}={value}\n" for key, value in pairs.items())


def coop_default(seed: int) -> list[Request]:
    # Defaults: 2x2 Rayleigh, 20k samples, L=4, 72 angles, symmetry on.
    return [Request("coop", "coop", _config({"seed": seed}))]


def optloc_mc_seeds(seed: int) -> list[int]:
    """Three Monte Carlo seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(3)]


def optloc_scan(seed: int) -> list[Request]:
    fadings = [("rayleigh", None, None)] + [
        (f"rician:K={k}:los={los}", k, los)
        for k in K_FACTORS for los in LOS_KINDS]
    return [
        Request(f"{fading}@{mc_seed}", "optloc",
                _config({"fading_sr": fading, "seed": mc_seed}),
                {"mc_seed": mc_seed, "K": k, "los": los})
        for mc_seed in optloc_mc_seeds(seed)
        for fading, k, los in fadings]


WORKLOADS = {
    "coop-default": coop_default,
    "optloc-scan": optloc_scan,
}


def requests_for(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](seed)
