"""Command-line front end: parse a key=value config, run one of the
bounds / optloc / coverage / coop experiments, and emit CSV datasets with
a JSON metadata sidecar."""

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, capacity, cooperation, coverage
from .capacity import McConfig, ParameterError, ScenarioConfig
from .channel import FadingModel, LosPrototype, NetworkGeometry
from .coverage import BracketError, NoSolutionError, SolverConfig

COMMANDS = ("bounds", "optloc", "coverage", "coop")


class ConfigError(ValueError):
    """Config rejected; carries the machine-readable error fields."""

    def __init__(self, code: str, field: str, message: str):
        super().__init__(message)
        self.code = code
        self.field = field

    def as_json(self) -> str:
        return json.dumps({"error": self.code, "field": self.field,
                           "message": str(self)})


@dataclass(frozen=True)
class SweepOptions:
    """Command-specific knobs: sector count, sweep grids, relay back-off."""

    L: int = 4
    angular_steps: int = 72
    d_y: float = 0.1
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_points: int = 21
    backoff: float = 0.95
    metric: str = "df"
    relay_radius: float | None = None
    exploit_symmetry: bool = True

    def __post_init__(self):
        for name in ("d_y", "sweep_start", "sweep_stop", "backoff",
                     "relay_radius"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(name, f"{name} must be finite, got {value}")
        if self.L < 1:
            raise ParameterError("L", f"L must be >= 1, got {self.L}")
        if self.angular_steps < 4 * self.L:
            raise ParameterError(
                "angular_steps", f"angular_steps must be >= 4*L to resolve "
                f"the lobes, got {self.angular_steps} < {4 * self.L}")
        if self.sweep_points < 1:
            raise ParameterError(
                "sweep_points",
                f"sweep_points must be >= 1, got {self.sweep_points}")
        if self.backoff <= 0:
            raise ParameterError(
                "backoff", f"backoff must be > 0, got {self.backoff}")
        if self.relay_radius is not None and self.relay_radius <= 0:
            raise ParameterError(
                "relay_radius",
                f"relay_radius must be > 0, got {self.relay_radius}")
        if self.metric not in ("df", "cutset"):
            raise ParameterError(
                "metric", f"metric must be 'df' or 'cutset', got {self.metric!r}")


@dataclass(frozen=True)
class RunManifest:
    """Everything one run needs: scenario, Monte Carlo setup, solver,
    command, output path, and the optional dataset-JSON flag."""

    scenario: ScenarioConfig = ScenarioConfig()
    mc: McConfig = McConfig()
    solver: SolverConfig = SolverConfig()
    command: str = "bounds"
    output_path: str | None = None
    emit_json: bool = False
    options: SweepOptions = SweepOptions()


def _linear(text: str) -> float:
    """A number, or a decibel value with a "dB" suffix, as a linear float.

    A decibel value too large for a float reads as inf, which validation
    rejects like any other non-finite value.
    """
    body = text.strip()
    decibels = body.lower().endswith("db")
    try:
        value = float(body[:-2] if decibels else body)
    except ValueError:
        raise ValueError(f"bad {'dB value' if decibels else 'number'} {text!r}")
    if not decibels:
        return value
    try:
        return 10.0 ** (value / 10.0)
    except OverflowError:
        return math.inf


def _number(cast):
    def read(raw: str):
        try:
            return cast(raw.strip())
        except ValueError:
            raise ValueError(f"bad number {raw!r}")
    return read


def _flag(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"bad flag {raw!r}")


def _fading(raw: str) -> FadingModel:
    text = raw.strip().lower()
    if text == "rayleigh":
        return FadingModel.rayleigh()
    if not text.startswith("rician"):
        raise ValueError(f"unknown fading {raw!r} "
                         f"(expected 'rayleigh' or 'rician:K=..:los=..')")
    k_factor = los = None
    for part in text.split(":")[1:]:
        if "=" not in part:
            raise ValueError(f"bad fading clause {part!r}")
        name, value = (side.strip() for side in part.split("=", 1))
        if name == "k":
            try:
                k_factor = _linear(value)
            except ValueError:
                raise ValueError(f"bad K value {value!r}")
        elif name == "los":
            if value in ("poor", "poorly_conditioned"):
                los = LosPrototype.poorly_conditioned()
            elif value in ("well", "well_conditioned"):
                los = LosPrototype.well_conditioned()
            else:
                raise ValueError(f"unknown LOS kind {value!r}")
        else:
            raise ValueError(f"unknown fading field {name!r}")
    if k_factor is None or los is None:
        raise ValueError("rician fading needs K=.. and los=..")
    try:
        return FadingModel.rician(k_factor, los)
    except ValueError as exc:
        # A K that reads as a number but is out of range is invalid, not
        # unreadable.
        raise ParameterError("K", str(exc))


# Value readers by field type; other fields (float, float | None) read as
# floats, and the keys in _KEY_READERS read more than their type. Each
# reader raises ValueError naming the text it cannot read.
_READERS = {int: _number(int), bool: _flag, str: str.strip,
            str | None: str.strip, FadingModel: _fading}
_KEY_READERS = {"P_s": _linear, "P_r": _linear,
                "metric": lambda raw: raw.strip().lower()}
_SECTIONS = (ScenarioConfig, McConfig, SolverConfig, SweepOptions)


def _key_table() -> dict:
    """Config key -> (section class, field name, reader): each section's
    fields, plus out and json for the manifest's output fields."""
    fields = [(f.name, cls, f.name, f.type)
              for cls in _SECTIONS for f in dataclasses.fields(cls)]
    fields += [(key, RunManifest, name, RunManifest.__annotations__[name])
               for key, name in (("out", "output_path"), ("json", "emit_json"))]
    return {key: (cls, name,
                  _KEY_READERS.get(key) or _READERS.get(tp, _number(float)))
            for key, cls, name, tp in fields}


_KEYS = _key_table()


def parse_config(text: str, overrides: dict | None = None) -> RunManifest:
    """Build a RunManifest from a line-oriented key=value document.

    overrides maps config keys to values already read (main's flags); they
    replace the document's values before validation. Unknown keys are
    rejected by name, malformed lines by line number, and invariant
    violations by key, in section order: scenario, mc, solver, options.
    An empty document yields the full default manifest. The command is
    not a config key: main takes it from the command line.
    """
    given = {cls: {} for cls, _, _ in _KEYS.values()}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("parse", "",
                              f"line {line_no}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError("unknown-key", key,
                              f"line {line_no}: unknown key {key!r}")
        cls, name, read = _KEYS[key]
        try:
            given[cls][name] = read(raw)
        except ParameterError as exc:
            raise ConfigError("validation", key, f"line {line_no}: {exc}")
        except ValueError as exc:
            raise ConfigError("parse", key, f"line {line_no}: {exc}")
    for key, value in (overrides or {}).items():
        cls, name, _ = _KEYS[key]
        given[cls][name] = value

    def build(cls):
        try:
            return cls(**given[cls])
        except ParameterError as exc:
            raise ConfigError("validation", exc.field, str(exc))

    scenario, mc, solver, options = (build(cls) for cls in _SECTIONS)
    return RunManifest(scenario=scenario, mc=mc, solver=solver,
                       options=options, **given[RunManifest])


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_sidecar(csv_path: Path, manifest: RunManifest, extras: dict,
                   wall_time: float) -> Path:
    meta = {
        "version": __version__,
        "command": manifest.command,
        "seed": manifest.mc.seed,
        "samples": manifest.mc.samples,
        "wall_time_s": wall_time,
        "csv": csv_path.name,
    }
    meta.update(extras)
    path = csv_path.with_suffix(".meta.json")
    path.write_text(
        json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _write_dataset_json(csv_path: Path, header: list[str],
                        rows: list[list[float]]) -> Path:
    path = csv_path.with_suffix(".json")
    data = [dict(zip(header, row)) for row in rows]
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


# Largest scaled power (P/N) d^-alpha, in decades, that a probe may form.
# The 2x2 log-dets square it; up to here a determinant stays finite for
# Gram traces up to 1e3, far above any draw's.
_MAX_POWER_DECADES = 150.0


def _check_link_budget(scn: ScenarioConfig,
                       nearest: list[tuple[str, str, float]]) -> None:
    """Reject, before any probe, a power or a nearest distance whose scaled
    power exceeds 10^_MAX_POWER_DECADES.

    nearest holds (distance key, power key, distance) for the nearest
    distance the run probes with that power.
    """
    def decades(power_key: str, d: float) -> float:
        antennas = scn.N_s if power_key == "P_s" else scn.N_r
        return (math.log10(getattr(scn, power_key) / antennas)
                - scn.alpha * math.log10(d))

    for power_key in ("P_s", "P_r"):
        if decades(power_key, 1.0) > _MAX_POWER_DECADES:
            raise ConfigError(
                "validation", power_key, f"{power_key}={getattr(scn, power_key)} "
                f"gives a scaled power above 1e{_MAX_POWER_DECADES:g}")
    for key, power_key, d in nearest:
        if decades(power_key, d) > _MAX_POWER_DECADES:
            raise ConfigError(
                "validation", key, f"{key} puts a node {d!r} from its "
                f"transmitter, where the scaled power of {power_key} exceeds "
                f"1e{_MAX_POWER_DECADES:g} at alpha={scn.alpha}")


def _run_bounds(manifest: RunManifest):
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
    capacity.plan_draws(("c3", "c1", "c2"))
    start = 0.0 if opt.sweep_start is None else opt.sweep_start
    stop = 1.0 if opt.sweep_stop is None else opt.sweep_stop
    grid = np.linspace(start, stop, opt.sweep_points)
    # r_R = hypot(d_x, d_y) and r_DR = hypot(1 - d_x, d_y): with d_y = 0 a
    # grid point at d_x = 0 or 1 puts the relay on the source or destination.
    if opt.d_y == 0.0 and np.any((grid == 0.0) | (grid == 1.0)):
        raise ConfigError(
            "validation", "d_y", f"d_y=0 puts the relay on the source (d_x=0) "
            f"or the destination (d_x=1); the d_x grid runs {start}..{stop}")
    _check_link_budget(scn, [
        ("d_y", "P_s", float(np.hypot(grid, opt.d_y).min())),
        ("d_y", "P_r", float(np.hypot(1.0 - grid, opt.d_y).min()))])
    header = ["d_x", "c1", "c2", "c3", "cutset", "df",
              "stderr_c1", "stderr_c2", "stderr_c3", "stderr_cutset",
              "stderr_df"]
    rows = []
    for d_x in grid:
        r_R = math.hypot(d_x, opt.d_y)
        r_D = 1.0
        r_DR = math.hypot(1.0 - d_x, opt.d_y)
        s = capacity.sample_bound_realizations(scn, r_R=r_R, r_D=r_D,
                                               r_DR=r_DR, mc=mc)
        e1 = capacity.summarize_samples(s.c1)
        e2 = capacity.summarize_samples(s.c2)
        e3 = capacity.summarize_samples(s.c3)
        ecs = capacity.summarize_samples(np.minimum(s.c1, s.c2))
        edf = capacity.summarize_samples(np.minimum(s.c3, s.c2))
        rows.append([float(d_x), e1.mean, e2.mean, e3.mean, ecs.mean,
                     edf.mean, e1.std_error, e2.std_error, e3.std_error,
                     ecs.std_error, edf.std_error])
    return header, rows, {"d_y": opt.d_y}


def _run_optloc(manifest: RunManifest):
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
    capacity.plan_draws(("c3",))
    start = 0.25 if opt.sweep_start is None else opt.sweep_start
    stop = 2.5 if opt.sweep_stop is None else opt.sweep_stop
    radii = np.linspace(start, stop, opt.sweep_points)
    if not radii.min() > 0:
        raise ConfigError(
            "validation", "sweep_start" if not start > 0 else "sweep_stop",
            f"relay radii must be > 0, the grid runs {start}..{stop}")
    _check_link_budget(scn, [
        ("sweep_start" if start <= stop else "sweep_stop", "P_s",
         float(radii.min())),
        ("r_lo", "P_s", manifest.solver.r_lo)])
    table = coverage.rate_vs_relay_radius(scn, mc, radii)
    r_star = coverage.optimal_relay_radius(scn, mc, manifest.solver, table)
    print(f"r_star={_fmt(r_star)}")
    header = ["r_R", "rate"]
    rows = [[r, rate] for r, rate in table]
    return header, rows, {"r_star": r_star, "R_c": scn.R_c}


def _relay_radius(manifest: RunManifest) -> tuple[float, dict]:
    """Relay radius of a coverage sweep, and its sidecar entries. Checks the
    link budget of the sweep's nearest relay and destination."""
    scn, opt = manifest.scenario, manifest.options
    # The radius solve and every ray start at r_lo.
    nearest = [("r_lo", "P_s", manifest.solver.r_lo)]
    if opt.relay_radius is not None:
        _check_link_budget(scn, nearest + [
            ("relay_radius", "P_s", opt.relay_radius)])
        return opt.relay_radius, {"relay_radius": opt.relay_radius}
    _check_link_budget(scn, nearest)
    r_star = coverage.optimal_relay_radius(scn, manifest.mc, manifest.solver)
    r_R = opt.backoff * r_star
    _check_link_budget(scn, [("backoff", "P_s", r_R)])
    return r_R, {"r_star": r_star, "backoff": opt.backoff, "relay_radius": r_R}


def _run_coverage(manifest: RunManifest):
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
    capacity.plan_draws(("c3", "c1", "c2") if opt.metric == "cutset"
                        else ("c3", "c2"))
    r_R, extras = _relay_radius(manifest)
    region = coverage.coverage_boundary(
        scn, r_R, opt.L, opt.angular_steps, mc, manifest.solver,
        metric=opt.metric, exploit_symmetry=opt.exploit_symmetry)
    if all(r == 0.0 for r in region.radii):
        raise NoSolutionError(
            f"rate {scn.R_c} unachievable along every ray at relay radius {r_R}")
    header = ["theta_deg", "r_max"]
    rows = [[math.degrees(t), r] for t, r in region.entries]
    extras.update({"metric": opt.metric, "L": opt.L})
    return header, rows, extras


def _extension_report(manifest: RunManifest, r_R: float, noncoop,
                      coop) -> dict:
    """Fit the sum-rate law at the weakest boundary angle, measure the
    cooperative rate gain there, and evaluate the Hata extension factor,
    at the slope B = 10 alpha of the boundaries' own path loss, next to
    the radius gain the two boundaries show at that angle."""
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
    achieved = [(r, t, r_coop) for (t, r), (_, r_coop)
                in zip(noncoop.entries, coop.entries) if r > 0.0]
    if not achieved:
        return {}
    r_null, theta_null, r_null_coop = min(achieved)
    geom = NetworkGeometry(relay_radius=r_R, relay_count=opt.L,
                           dest_radius=r_null, dest_angle=theta_null)
    r_D = geom.dest_radius
    r_DR1, r_DR2 = cooperation.two_relay_distances(geom)
    P_d = scn.P_s * r_D ** (-scn.alpha) + scn.P_r * r_DR1 ** (-scn.alpha)

    scales = np.geomspace(0.25, 4.0, 7)  # scales[3] == 1.0 exactly
    rates = [capacity.estimate_c2(
        dataclasses.replace(scn, P_s=scale * scn.P_s, P_r=scale * scn.P_r),
        r_D, r_DR1, mc).mean for scale in scales]
    fit = cooperation.fit_k1_k2(zip(scales * P_d, rates))

    coop_rate = cooperation.estimate_coop_sum_rate(scn, r_D, r_DR1, r_DR2,
                                                   mc).mean
    gamma = max(coop_rate / rates[3], 1.0)
    ratio = cooperation.power_ratio(fit.K2, P_d, gamma)
    try:
        factors = cooperation.extension_factor(fit.K2, P_d, gamma,
                                               10.0 * scn.alpha)
    except ParameterError as exc:
        raise ConfigError("validation", "alpha", f"alpha={scn.alpha}: {exc}")
    return {
        "extension_report": {
            "theta_null_deg": math.degrees(theta_null),
            "r_null": r_null,
            "received_power": P_d,
            "K1": fit.K1,
            "K2": fit.K2,
            "gamma": gamma,
            "power_ratio": ratio,
            "extension_factor_literal": factors.literal,
            # Not factors.coverage_gain, the literal ratio^(-1/B): the
            # dB-slope gain at B = 10 alpha, ratio^(-1/alpha).
            "coverage_gain": factors.coverage_gain_db,
            "measured_gain": r_null_coop / r_null,
        }
    }


def _run_coop(manifest: RunManifest):
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
    capacity.plan_draws(("c3", "c2", "coop"))
    if opt.L < 2:
        raise ConfigError("validation", "L",
                          f"coop needs L >= 2, got {opt.L}")
    if opt.metric != "df":
        # No two-relay cut-set: the second relay's source link is not drawn.
        raise ConfigError("validation", "metric",
                          f"coop has only the df metric, got {opt.metric!r}")
    r_R, extras = _relay_radius(manifest)
    noncoop = coverage.coverage_boundary(
        scn, r_R, opt.L, opt.angular_steps, mc, manifest.solver,
        metric="df", exploit_symmetry=opt.exploit_symmetry)
    coop = cooperation.coop_coverage_boundary(
        scn, r_R, opt.L, opt.angular_steps, mc, manifest.solver,
        exploit_symmetry=opt.exploit_symmetry, noncoop=noncoop)
    if all(r == 0.0 for r in noncoop.radii) and all(r == 0.0 for r in coop.radii):
        raise NoSolutionError(
            f"rate {scn.R_c} unachievable along every ray at relay radius {r_R}")
    header = ["theta_deg", "r_max_noncoop", "r_max_coop", "gain"]
    rows = []
    for (theta, r_nc), (_, r_co) in zip(noncoop.entries, coop.entries):
        gain = r_co / r_nc if r_nc > 0.0 else 0.0
        rows.append([math.degrees(theta), r_nc, r_co, gain])
    extras.update({"metric": opt.metric, "L": opt.L})
    extras.update(_extension_report(manifest, r_R, noncoop, coop))
    report = extras.get("extension_report")
    if report:
        print(f"coverage_gain={_fmt(report['coverage_gain'])} "
              f"(gamma={_fmt(report['gamma'])}, K2={_fmt(report['K2'])})")
    return header, rows, extras


_RUNNERS = {
    "bounds": _run_bounds,
    "optloc": _run_optloc,
    "coverage": _run_coverage,
    "coop": _run_coop,
}


def run(manifest: RunManifest) -> int:
    """Execute the manifest; returns 0 iff all requested outputs exist.

    Before the first probe, the command's runner names the cuts its probes
    evaluate, so the channel bank they share packs only the Grams those
    cuts read and, for two or more links, draws them ahead on a thread.
    The bank is released on return, however the runner exits: its worker
    is stopped and joined, and each run pays for its own draws. A CSV path
    whose directory is missing raises FileNotFoundError before the runner
    starts.
    """
    t0 = time.perf_counter()
    csv_path = Path(manifest.output_path or f"{manifest.command}.csv")
    if not csv_path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                str(csv_path))
    try:
        header, rows, extras = _RUNNERS[manifest.command](manifest)
    finally:
        capacity.release_bank()
    _write_csv(csv_path, header, rows)
    if manifest.emit_json:
        _write_dataset_json(csv_path, header, rows)
    _write_sidecar(csv_path, manifest, extras, time.perf_counter() - t0)
    return 0


# Built on the first call of main, not at import: importing relaycov.cli
# then does not pay for the build and argparse's locale import, ~2 ms.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycov",
        description="Capacity bounds, relay placement, and coverage regions "
                    "for multi-relay MIMO decode-and-forward networks.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value config file ('#' comments)")
    # The flags are config keys given on the command line: they override
    # the file's values and are checked the same way.
    parser.add_argument("--out", default=argparse.SUPPRESS,
                        help="output CSV path (default <command>.csv)")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="also write the dataset as JSON next to the CSV")
    return parser


def main(argv=None) -> int:
    # One parser serves every call: parse_args keeps no state between calls.
    flags = vars(_parser().parse_args(argv))
    command, config = flags.pop("command"), flags.pop("config")

    try:
        text = config.read_text() if config else ""
    except (OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": "io", "field": "config",
                          "message": str(exc)}), file=sys.stderr)
        return 1
    try:
        manifest = parse_config(text, flags)
        return run(dataclasses.replace(manifest, command=command))
    except ConfigError as exc:
        print(exc.as_json(), file=sys.stderr)
        return 2
    except BracketError as exc:
        # Every solve brackets its radius by [r_lo, r_hi]; the target rate
        # is still met at r_hi, so that bound is the key at fault.
        print(ConfigError("validation", "r_hi", str(exc)).as_json(),
              file=sys.stderr)
        return 2
    except NoSolutionError as exc:
        print(json.dumps({"error": "no-solution", "field": "R_c",
                          "message": str(exc)}), file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": "io", "field": "out", "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
