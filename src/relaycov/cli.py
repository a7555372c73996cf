"""Command-line front end: parse a key=value config, run one of the
bounds / optloc / coverage / coop experiments, and emit CSV datasets with
a JSON metadata sidecar."""

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, capacity, cooperation, coverage
from .capacity import McConfig, ParameterError, ScenarioConfig
from .channel import FadingModel, LosPrototype, NetworkGeometry
from .cooperation import HataParams
from .coverage import NoSolutionError, SolverConfig

COMMANDS = ("bounds", "optloc", "coverage", "coop")

_FLOAT_KEYS = {
    "P_s", "P_r", "alpha", "R_c", "r_lo", "r_hi", "tol", "backoff",
    "d_y", "sweep_start", "sweep_stop", "relay_radius", "hata_A", "hata_B",
}
_DB_KEYS = {"P_s", "P_r"}  # accept a "dB" suffix, converted to linear
_INT_KEYS = {
    "N_s", "N_r", "M_r", "M_d", "L", "seed", "samples", "max_iter",
    "angular_steps", "sweep_points",
}
_FADING_KEYS = {"fading_sr", "fading_sd", "fading_rd"}
_STR_KEYS = {"command", "out", "metric"}
_BOOL_KEYS = {"json", "exploit_symmetry"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _FADING_KEYS | _STR_KEYS | _BOOL_KEYS


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
    hata: HataParams = HataParams()
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


def _parse_scalar(key: str, raw: str, line_no: int):
    text = raw.strip()
    if key in _DB_KEYS and text.lower().endswith("db"):
        try:
            return 10.0 ** (float(text[:-2].strip()) / 10.0)
        except ValueError:
            raise ConfigError("parse", key,
                              f"line {line_no}: bad dB value {raw!r}")
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
    except ValueError:
        raise ConfigError("parse", key, f"line {line_no}: bad number {raw!r}")
    if key in _BOOL_KEYS:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError("parse", key, f"line {line_no}: bad flag {raw!r}")
    return text


def _parse_fading(key: str, raw: str, line_no: int) -> FadingModel:
    text = raw.strip().lower()
    if text == "rayleigh":
        return FadingModel.rayleigh()
    if not text.startswith("rician"):
        raise ConfigError("parse", key,
                          f"line {line_no}: unknown fading {raw!r} "
                          f"(expected 'rayleigh' or 'rician:K=..:los=..')")
    k_factor = None
    los = None
    for part in text.split(":")[1:]:
        if "=" not in part:
            raise ConfigError("parse", key,
                              f"line {line_no}: bad fading clause {part!r}")
        name, value = part.split("=", 1)
        name, value = name.strip(), value.strip()
        if name == "k":
            try:
                if value.endswith("db"):
                    k_factor = 10.0 ** (float(value[:-2]) / 10.0)
                else:
                    k_factor = float(value)
            except ValueError:
                raise ConfigError("parse", key,
                                  f"line {line_no}: bad K value {value!r}")
        elif name == "los":
            if value in ("poor", "poorly_conditioned"):
                los = LosPrototype.poorly_conditioned()
            elif value in ("well", "well_conditioned"):
                los = LosPrototype.well_conditioned()
            else:
                raise ConfigError("parse", key,
                                  f"line {line_no}: unknown LOS kind {value!r}")
        else:
            raise ConfigError("parse", key,
                              f"line {line_no}: unknown fading field {name!r}")
    if k_factor is None or los is None:
        raise ConfigError("parse", key,
                          f"line {line_no}: rician fading needs K=.. and los=..")
    try:
        return FadingModel.rician(k_factor, los)
    except ValueError as exc:
        raise ConfigError("validation", key, f"line {line_no}: {exc}")


def parse_config(text: str) -> RunManifest:
    """Build a RunManifest from a line-oriented key=value document.

    Unknown keys are rejected by name, malformed lines by line number, and
    invariant violations by field. An empty document yields the full
    default manifest.
    """
    values: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("parse", "",
                              f"line {line_no}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError("unknown-key", key,
                              f"line {line_no}: unknown key {key!r}")
        if key in _FADING_KEYS:
            values[key] = _parse_fading(key, raw, line_no)
        else:
            values[key] = _parse_scalar(key, raw, line_no)

    def take(name, default):
        return values.get(name, default)

    command = str(take("command", "bounds")).lower()
    if command not in COMMANDS:
        raise ConfigError("validation", "command",
                          f"command must be one of {COMMANDS}, got {command!r}")
    metric = str(take("metric", "df")).lower()
    if metric not in ("df", "cutset"):
        raise ConfigError("validation", "metric",
                          f"metric must be 'df' or 'cutset', got {metric!r}")

    try:
        hata = HataParams(A=take("hata_A", 120.0), B=take("hata_B", 35.22))
    except ParameterError as exc:
        raise ConfigError("validation", f"hata_{exc.field}", str(exc))
    try:
        scenario = ScenarioConfig(
            P_s=take("P_s", 10.0), P_r=take("P_r", 10.0),
            N_s=take("N_s", 2), N_r=take("N_r", 2),
            M_r=take("M_r", 2), M_d=take("M_d", 2),
            alpha=take("alpha", 3.52),
            fading_sr=take("fading_sr", FadingModel.rayleigh()),
            fading_sd=take("fading_sd", FadingModel.rayleigh()),
            fading_rd=take("fading_rd", FadingModel.rayleigh()),
            R_c=take("R_c", 5.5),
        )
        mc = McConfig(seed=take("seed", 42), samples=take("samples", 20000))
        solver = SolverConfig(r_lo=take("r_lo", 0.05), r_hi=take("r_hi", 10.0),
                              tol=take("tol", 1e-3),
                              max_iter=take("max_iter", 60))
        options = SweepOptions(
            L=take("L", 4), angular_steps=take("angular_steps", 72),
            d_y=take("d_y", 0.1),
            sweep_start=take("sweep_start", None),
            sweep_stop=take("sweep_stop", None),
            sweep_points=take("sweep_points", 21),
            backoff=take("backoff", 0.95), metric=metric,
            relay_radius=take("relay_radius", None),
            hata=hata,
            exploit_symmetry=take("exploit_symmetry", True),
        )
    except ParameterError as exc:
        # These configs name their fields exactly as the config keys.
        raise ConfigError("validation", exc.field, str(exc))

    return RunManifest(
        scenario=scenario, mc=mc, solver=solver, command=command,
        output_path=take("out", None), emit_json=bool(take("json", False)),
        options=options,
    )


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


def _run_bounds(manifest: RunManifest):
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
    start = 0.0 if opt.sweep_start is None else opt.sweep_start
    stop = 1.0 if opt.sweep_stop is None else opt.sweep_stop
    grid = np.linspace(start, stop, opt.sweep_points)
    # r_R = hypot(d_x, d_y) and r_DR = hypot(1 - d_x, d_y): with d_y = 0 a
    # grid point at d_x = 0 or 1 puts the relay on the source or destination.
    if opt.d_y == 0.0 and np.any((grid == 0.0) | (grid == 1.0)):
        raise ConfigError(
            "validation", "d_y", f"d_y=0 puts the relay on the source (d_x=0) "
            f"or the destination (d_x=1); the d_x grid runs {start}..{stop}")
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
    start = 0.25 if opt.sweep_start is None else opt.sweep_start
    stop = 2.5 if opt.sweep_stop is None else opt.sweep_stop
    radii = np.linspace(start, stop, opt.sweep_points)
    if not radii.min() > 0:
        raise ConfigError(
            "validation", "sweep_start" if not start > 0 else "sweep_stop",
            f"relay radii must be > 0, the grid runs {start}..{stop}")
    table = coverage.rate_vs_relay_radius(scn, mc, radii)
    r_star = coverage.optimal_relay_radius(scn, mc, manifest.solver)
    print(f"r_star={_fmt(r_star)}")
    header = ["r_R", "rate"]
    rows = [[r, rate] for r, rate in table]
    return header, rows, {"r_star": r_star, "R_c": scn.R_c}


def _relay_radius(manifest: RunManifest) -> tuple[float, dict]:
    opt = manifest.options
    if opt.relay_radius is not None:
        return opt.relay_radius, {"relay_radius": opt.relay_radius}
    r_star = coverage.optimal_relay_radius(manifest.scenario, manifest.mc,
                                           manifest.solver)
    r_R = opt.backoff * r_star
    return r_R, {"r_star": r_star, "backoff": opt.backoff, "relay_radius": r_R}


def _run_coverage(manifest: RunManifest):
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
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


def _extension_report(manifest: RunManifest, r_R: float, noncoop) -> dict:
    """Fit the sum-rate law at the weakest boundary angle, measure the
    cooperative rate gain there, and evaluate the Hata extension factor."""
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
    achieved = [(r, t) for (t, r) in noncoop.entries if r > 0.0]
    if not achieved:
        return {}
    r_null, theta_null = min(achieved)
    geom = NetworkGeometry(relay_radius=r_R, relay_count=opt.L,
                           dest_radius=r_null, dest_angle=theta_null)
    r_D = geom.dest_radius
    r_DR1, r_DR2 = cooperation.two_relay_distances(geom)
    P_d = scn.P_s * r_D ** (-scn.alpha) + scn.P_r * r_DR1 ** (-scn.alpha)

    points = []
    for scale in np.geomspace(0.25, 4.0, 7):
        scn_s = dataclasses.replace(scn, P_s=scale * scn.P_s,
                                    P_r=scale * scn.P_r)
        rate = capacity.estimate_c2(scn_s, r_D, r_DR1, mc).mean
        points.append((scale * P_d, rate))
    fit = cooperation.fit_k1_k2(points)

    noncoop_rate = capacity.estimate_c2(scn, r_D, r_DR1, mc).mean
    coop_rate = cooperation.estimate_coop_sum_rate(scn, r_D, r_DR1, r_DR2,
                                                   mc).mean
    gamma = max(coop_rate / noncoop_rate, 1.0)
    ratio = cooperation.power_ratio(fit.K2, P_d, gamma)
    try:
        factors = cooperation.extension_factor(fit.K2, P_d, gamma, opt.hata.B)
    except ParameterError as exc:
        raise ConfigError("validation", f"hata_{exc.field}", str(exc))
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
            "coverage_gain": factors.coverage_gain,
            "hata_A": opt.hata.A,
            "hata_B": opt.hata.B,
        }
    }


def _run_coop(manifest: RunManifest):
    scn, mc, opt = manifest.scenario, manifest.mc, manifest.options
    if opt.L < 2:
        raise ConfigError("validation", "L",
                          f"coop needs L >= 2, got {opt.L}")
    r_R, extras = _relay_radius(manifest)
    noncoop = coverage.coverage_boundary(
        scn, r_R, opt.L, opt.angular_steps, mc, manifest.solver,
        metric="df", exploit_symmetry=opt.exploit_symmetry)
    coop = cooperation.coop_coverage_boundary(
        scn, r_R, opt.L, opt.angular_steps, mc, manifest.solver,
        exploit_symmetry=opt.exploit_symmetry)
    if all(r == 0.0 for r in noncoop.radii) and all(r == 0.0 for r in coop.radii):
        raise NoSolutionError(
            f"rate {scn.R_c} unachievable along every ray at relay radius {r_R}")
    header = ["theta_deg", "r_max_noncoop", "r_max_coop", "gain"]
    rows = []
    for (theta, r_nc), (_, r_co) in zip(noncoop.entries, coop.entries):
        gain = r_co / r_nc if r_nc > 0.0 else 0.0
        rows.append([math.degrees(theta), r_nc, r_co, gain])
    extras.update({"L": opt.L})
    extras.update(_extension_report(manifest, r_R, noncoop))
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

    The channel bank the run's probes share is released on return, so each
    run pays for its own draws.
    """
    t0 = time.perf_counter()
    csv_path = Path(manifest.output_path or f"{manifest.command}.csv")
    try:
        header, rows, extras = _RUNNERS[manifest.command](manifest)
    finally:
        capacity.release_bank()
    _write_csv(csv_path, header, rows)
    if manifest.emit_json:
        _write_dataset_json(csv_path, header, rows)
    _write_sidecar(csv_path, manifest, extras, time.perf_counter() - t0)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaycov",
        description="Capacity bounds, relay placement, and coverage regions "
                    "for multi-relay MIMO decode-and-forward networks.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value config file ('#' comments)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output CSV path (default <command>.csv)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--json", action="store_true",
                        help="also write the dataset as JSON next to the CSV")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text() if args.config else ""
        manifest = parse_config(text)
        manifest = dataclasses.replace(manifest, command=args.command)
        if args.out is not None:
            manifest = dataclasses.replace(manifest, output_path=str(args.out))
        if args.json:
            manifest = dataclasses.replace(manifest, emit_json=True)
        if args.seed is not None or args.samples is not None:
            mc = manifest.mc
            mc = dataclasses.replace(
                mc,
                seed=args.seed if args.seed is not None else mc.seed,
                samples=args.samples if args.samples is not None else mc.samples)
            manifest = dataclasses.replace(manifest, mc=mc)
        return run(manifest)
    except ConfigError as exc:
        print(exc.as_json(), file=sys.stderr)
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
