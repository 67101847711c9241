"""Command-line interface: reproducible checks, runs, verifications, sweeps.

Commands
  check     evaluate a blowup criterion on a scenario file
  simulate  run the finite-volume solver, write snapshot and series CSVs
  verify    run a simulation and apply verification checks to its trace
  sweep     evaluate a criterion across a parameter range
  report    summarize the artifacts found in an output directory

Every file format of the commands is defined here once. Scenario files
are flat ``key = value`` text with '#' comments (``parse_config``). An
optional ``preset = <name>`` supplies starting values; every other key is
one of ``_FIELDS``, the table of each key's parser and default, say
``eos.gamma = 2.0``, ``geometry = radial3`` (cartesian1d | radial<N>) or
``grid.cells = 4096``. Every JSON artifact comes from ``_write_json`` and
every CSV artifact from ``_write_csv``.

Exit codes: 0 success (any verdict), 2 invalid input or config (also a
check or sweep whose criterion values overflow to +-inf or whose initial
functionals H0, m0 are not finite), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .criteria import FAMILIES, PreparedCriterion, default_family, prepare, run_family_check, theorem_context
from .model import (
    DetectorParams,
    EosParams,
    Geometry,
    GridSpec,
    Scenario,
    TestingFunction,
    exponential,
    linear,
    make_bump_scenario,
    power_law,
)
from .scenarios import PRESETS
from .solver import FIRST_ORDER, MUSCL, SolverConfig, run
from .verify import (
    CHECK_CHARACTERISTIC,
    CHECK_CONE,
    CHECK_INEQUALITY,
    CHECK_MASS,
    CHECK_POSITIVITY,
    CHECK_PROPAGATION,
    TRACE_CHECKS,
    check_characteristic_density,
    check_cone_energy,
    check_differential_inequality,
    check_finite_propagation,
    check_inputs,
    check_mass_conservation,
    check_positivity,
    summary_table,
)

# sweep parameter -> the scenario field it sets; tau sets the horizon instead
SWEEPABLE = {"amp_v": "amp_v", "amp_rho": "amp_rho", "tau": None, "gamma": "eos.gamma", "R": "R"}

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_VERIFY_FAILED = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Scenario files


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        cfg[key] = value
    return cfg


def parse_geometry(label: str) -> Geometry:
    if label == "cartesian1d":
        return Geometry.cartesian1d()
    m = re.fullmatch(r"radial(\d+)", label)
    if m:
        try:
            return Geometry.radial(int(m.group(1)))
        except ValueError as exc:
            raise ConfigError(f"geometry: {exc}") from exc
    raise ConfigError(f"geometry: expected cartesian1d or radial<N>, got {label!r}")


def _number(kind: type, noun: str) -> Callable:
    def parse(key: str, value):
        try:
            return kind(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: not {noun}: {value!r}") from exc

    return parse


_FLOAT = _number(float, "a number")
_DETECTOR = DetectorParams()

# scenario-file key -> (parser, default), in the order a file's values are
# parsed; a parser takes the key and the file's text or a typed value, and
# each key is the path of its attribute on a Scenario
_FIELDS = {
    "geometry": (lambda key, label: parse_geometry(label), Geometry.cartesian1d()),
    "eos.K": (_FLOAT, 1.0),
    "eos.gamma": (_FLOAT, 2.0),
    "eos.rho_bar": (_FLOAT, 1.0),
    "detector.slope_factor": (_FLOAT, _DETECTOR.slope_factor),
    "detector.dt_floor": (_FLOAT, _DETECTOR.dt_floor),
    "detector.sample_interval": (_FLOAT, _DETECTOR.sample_interval),
    "grid.extent": (_FLOAT, 2.2),
    "grid.cells": (_number(int, "an integer"), 4096),
    "R": (_FLOAT, 1.0),
    "amp_rho": (_FLOAT, 0.0),
    "amp_v": (_FLOAT, 0.0),
}


def scenario_to_config(scen: Scenario) -> dict:
    """The scenario's value of every field, each key read as an attribute
    path; ``str`` of each value is its file text."""
    return {**{key: attrgetter(key)(scen) for key in _FIELDS}, "geometry": scen.geometry.label()}


def _field_values(cfg: dict) -> dict:
    """Every field typed: the value in ``cfg`` parsed, else the default."""
    return {key: parse(key, cfg[key]) if key in cfg else default for key, (parse, default) in _FIELDS.items()}


def _scenario(values: dict) -> Scenario:
    """The scenario of typed field values; gas, detector and grid are checked in that order."""
    return make_bump_scenario(
        eos=EosParams(K=values["eos.K"], gamma=values["eos.gamma"], rho_bar=values["eos.rho_bar"]),
        detector=DetectorParams(
            slope_factor=values["detector.slope_factor"],
            dt_floor=values["detector.dt_floor"],
            sample_interval=values["detector.sample_interval"],
        ),
        grid=GridSpec(extent=values["grid.extent"], cells=values["grid.cells"]),
        geometry=values["geometry"],
        R=values["R"],
        amp_rho=values["amp_rho"],
        amp_v=values["amp_v"],
    )


def scenario_from_config(cfg: dict) -> Scenario:
    """The scenario of a parsed file: its preset's values, if any, with the file's keys over them."""
    unknown = set(cfg) - {"preset", *_FIELDS}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    base: dict = {}
    if "preset" in cfg:
        name = str(cfg["preset"])
        if name not in PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        base = scenario_to_config(PRESETS[name]())
    return _scenario(_field_values({**base, **cfg}))


def load_scenario(path: str) -> Scenario:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    return scenario_from_config(parse_config(p.read_text()))


def parse_weight(spec: str | None) -> TestingFunction | None:
    """Weight spec: 'linear', 'power:<n>' or 'exp:<beta>'."""
    if spec is None:
        return None
    if spec == "linear":
        return linear()
    head, _, arg = spec.partition(":")
    try:
        if head == "power":
            return power_law(float(arg or 2.0))
        if head == "exp":
            return exponential(float(arg or 1.0))
    except ValueError as exc:
        raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown weight spec {spec!r}")


# ---------------------------------------------------------------------------
# Artifacts


def _finite_or_null(data):
    """``data`` with every non-finite float, which JSON cannot hold, as None."""
    if isinstance(data, float):
        return data if math.isfinite(data) else None
    if isinstance(data, dict):
        return {k: _finite_or_null(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [_finite_or_null(v) for v in data]
    return data


def _write_json(path: Path, data) -> None:
    """A JSON artifact: indent 2, sorted keys, one trailing newline; a NaN or
    infinite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(data), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    """A CSV artifact: the header, then one line per row, numbers as %.17g and text as is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else format(c, ".17g") for c in row] for row in rows)


def _write_invocation(out_dir: Path, argv: list[str]) -> None:
    _write_json(out_dir / "invocation.json", {"argv": list(argv), "version": __version__})


def _trace_summary(trace) -> dict:
    return {
        "scenario": trace.scenario.label(),
        "t_final": trace.t_final,
        "steps": trace.steps,
        "snapshots": len(trace.snapshots),
        "t_detect": trace.t_detect,
        "blowup": trace.blowup.to_dict() if trace.blowup is not None else None,
    }


# ---------------------------------------------------------------------------
# Commands


def _require_finite(report, tau: float) -> None:
    """Reject a report whose inputs or condition sides overflowed to +-inf,
    or whose initial functionals H0 and m0 are not finite.

    A NaN elsewhere is left alone: a criterion records a deliberate NaN
    threshold when its hypotheses do not cover the data (an inconclusive
    verdict).
    """
    overflowed = [k for k, v in report.inputs.items() if isinstance(v, float) and math.isinf(v)]
    overflowed += [k for k in ("H0", "m0") if math.isnan(report.inputs.get(k, 0.0))]
    overflowed += [c.name for c in report.conditions if math.isinf(c.lhs) or math.isinf(c.rhs)]
    if overflowed:
        raise ConfigError(f"criterion values are not finite at tau={tau:g}: {', '.join(overflowed)}")


def cmd_check(args, argv) -> int:
    scen = load_scenario(args.scenario)
    weight = parse_weight(args.weight)
    report = run_family_check(scen, args.theorem, tau=args.tau, f=weight, a=args.a)
    _require_finite(report, args.tau)
    print(f"theorem: {report.theorem}")
    print(f"verdict: {report.verdict.kind}" + (f" (tau={report.verdict.tau:g})" if report.verdict.tau is not None else ""))
    for cond in report.conditions:
        mark = "ok" if cond.satisfied else "not met"
        print(f"  {cond.name}: {cond.lhs:.9g} {cond.op} {cond.rhs:.9g} [{mark}]")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "criterion_report.json", report.to_dict())
        _write_invocation(out, argv)
        print(f"report written to {out / 'criterion_report.json'}")
    return EXIT_OK


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        cfl=args.cfl,
        reconstruction=args.reconstruction,
        t_end=args.t_end,
        snapshot_interval=args.snapshot_interval,
    )


def cmd_simulate(args, argv) -> int:
    scen = load_scenario(args.scenario)
    config = _solver_config(args)
    family = args.family or default_family(scen.geometry)
    weight = parse_weight(args.weight)
    ctx = theorem_context(scen, family, tau=args.tau, f=weight, a=args.a)
    recorder = ctx.recorder()
    trace = run(scen, config, recorder=recorder)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k, snap in enumerate(trace.snapshots):
        _write_csv(out / f"snapshot_{k:04d}.csv", ("r_or_x", "rho", "V"), zip(snap.centers, snap.rho, snap.V))
    series = trace.series
    if series is not None and len(series.times):
        columns = (series.times, series.H, series.B, series.m, series.G, series.dH_dt())
        _write_csv(out / "series.csv", ("t", "H", "B", "m", "G", "dH_dt"), zip(*columns))
    _write_json(out / "trace_summary.json", _trace_summary(trace))
    _write_invocation(out, argv)
    print(
        f"simulated {scen.label()} to t={trace.t_final:g} in {trace.steps} steps"
        + (f"; detector fired at t={trace.t_detect:g}" if trace.blowup else "")
    )
    print(f"artifacts in {out}")
    return EXIT_OK


def cmd_verify(args, argv) -> int:
    scen = load_scenario(args.scenario)
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise ConfigError("empty check list")
    if names == ["all"]:
        names = list(TRACE_CHECKS)
    unknown = [c for c in names if c not in TRACE_CHECKS]
    if unknown:
        raise ConfigError(
            f"unknown checks: {', '.join(unknown)}; available: {', '.join(TRACE_CHECKS)}"
        )
    config = _solver_config(args)
    apex = args.cone_apex if args.cone_apex is not None else 0.8 * config.t_end
    # reject the inputs of the chosen checks before the run, not after it
    cone = CHECK_CONE in names
    check_inputs(
        scen.grid.centers(scen.geometry),
        x0=args.x0 if CHECK_CHARACTERISTIC in names else None,
        x_center=args.cone_center if cone else None,
        t_apex=apex if cone else None,
    )
    family = args.family or default_family(scen.geometry)
    weight = parse_weight(args.weight)
    # the inequality check monitors its family's series during the run, when the criterion certifies
    ctx = theorem_context(scen, family, tau=args.tau, f=weight, a=args.a) if CHECK_INEQUALITY in names else None
    trace = run(scen, config, recorder=ctx.recorder() if ctx is not None and ctx.hypotheses_hold() else None)
    checks = {
        CHECK_POSITIVITY: lambda: check_positivity(trace),
        CHECK_CHARACTERISTIC: lambda: check_characteristic_density(trace, args.x0),
        CHECK_PROPAGATION: lambda: check_finite_propagation(trace),
        CHECK_MASS: lambda: check_mass_conservation(trace),
        CHECK_INEQUALITY: lambda: check_differential_inequality(trace, family, context=ctx),
        CHECK_CONE: lambda: check_cone_energy(trace, args.cone_center, apex),
    }
    reports = [checks[name]() for name in names]
    print(summary_table(reports))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "verification_reports.json", [r.to_dict() for r in reports])
        _write_invocation(out, argv)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY_FAILED


def _sweep_row(
    prepared: PreparedCriterion | None, scen: Scenario, fields: dict, value: float, weight: TestingFunction | None, args
) -> tuple[PreparedCriterion, dict]:
    """One row and the criterion it read: the loaded scenario at tau = value, or
    one built from its typed ``fields`` with the parameter's field at value.
    ``prepared`` is the previous row's criterion, None on the first row.

    An amplitude row takes the loaded scenario's gas, geometry, R, grid and
    detector, already validated, and only its amplitudes from the row.  Only
    the first, lo, is built and validated: the other rows differ from it in
    one amplitude, finite and larger, and no check of a scenario rejects a
    larger amplitude that a smaller one passes.  They rescale the first
    row's criterion (:meth:`PreparedCriterion.outcome`).  A row whose
    criterion values are not all finite builds its report for
    :func:`_require_finite`.
    """
    field = SWEEPABLE[args.parameter]
    tau = args.tau if field else value
    amps = {}
    if field in ("amp_v", "amp_rho"):
        amps = {"amp_rho": scen.amp_rho, "amp_v": scen.amp_v, field: value}
        if prepared is None:
            scen = _amplitude_row(scen, amps)
    elif field:
        scen = _scenario({**fields, field: value})
    if prepared is None:
        prepared = prepare(scen, args.theorem, weight, args.a)
    elif field and not amps:
        prepared = prepared.with_scenario(scen)
    H0, threshold, verdict, finite = prepared.outcome(tau, **amps)
    if not finite:  # the report names what overflowed, if anything did
        at_row = prepared.with_scenario(_amplitude_row(scen, amps)) if amps else prepared
        _require_finite(at_row.report(tau), tau)
    return prepared, {"parameter": args.parameter, "value": value, "H0": H0, "threshold": threshold, "verdict": verdict}


def _amplitude_row(scen: Scenario, amps: dict) -> Scenario:
    """The loaded scenario with the amplitudes ``amps``."""
    return make_bump_scenario(scen.eos, scen.geometry, scen.R, grid=scen.grid, detector=scen.detector, **amps)


def cmd_sweep(args, argv) -> int:
    if args.parameter not in SWEEPABLE:
        raise ConfigError(
            f"parameter {args.parameter!r} is not sweepable; choose from {', '.join(SWEEPABLE)}"
        )
    if args.steps < 2:
        raise ConfigError("need at least 2 sweep steps")
    if not (math.isfinite(args.lo) and math.isfinite(args.hi)):
        raise ConfigError("sweep range must be finite")
    if args.lo >= args.hi:
        raise ConfigError("sweep range must satisfy lo < hi")
    if not math.isfinite(args.hi - args.lo):
        raise ConfigError(f"sweep range width hi - lo must be finite, got [{args.lo:g}, {args.hi:g}]")
    scen = load_scenario(args.scenario)
    weight = parse_weight(args.weight)
    fields = _field_values(scenario_to_config(scen))
    try:
        values = np.linspace(args.lo, args.hi, args.steps)
    except MemoryError as exc:
        raise ConfigError(f"--steps {args.steps}: too many sweep rows to allocate") from exc
    # the first row prepares: a gamma sweep may load a gamma its family rejects
    prepared, rows = None, []
    for v in values:
        prepared, row = _sweep_row(prepared, scen, fields, float(v), weight, args)
        rows.append(row)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", rows[0].keys(), (row.values() for row in rows))
    _write_invocation(out, argv)
    flips = [
        (rows[i]["value"], rows[i + 1]["value"])
        for i in range(len(rows) - 1)
        if rows[i]["verdict"] != rows[i + 1]["verdict"]
    ]
    print(f"swept {args.parameter} over [{args.lo:g}, {args.hi:g}] in {args.steps} steps")
    for lo, hi in flips:
        print(f"verdict flips between {lo:.9g} and {hi:.9g}")
    if not flips:
        print("verdict constant across the range")
    print(f"rows in {out / 'sweep.csv'}")
    return EXIT_OK


def _report_criterion(path: Path) -> None:
    data = json.loads(path.read_text())
    print(f"criterion {data['theorem']}: {data['verdict']['kind']}")
    for cond in data.get("conditions", []):
        margin = cond["margin"]
        print(f"  {cond['name']}: margin {float('nan') if margin is None else margin:.6g}")


def _report_trace(path: Path) -> None:
    data = json.loads(path.read_text())
    line = f"trace {data['scenario']}: t_final={data['t_final']:g}, steps={data['steps']}"
    if data.get("t_detect") is not None:
        line += f", t_detect={data['t_detect']:g}"
    print(line)


def _report_verification(path: Path) -> None:
    for rep in json.loads(path.read_text()):
        print(f"verify {rep['check']} on {rep['scenario']}: {rep['status']}")


def _report_sweep(path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    verdicts = {}
    for row in rows:
        verdicts[row["verdict"]] = verdicts.get(row["verdict"], 0) + 1
    counts = ", ".join(f"{k}: {v}" for k, v in sorted(verdicts.items()))
    print(f"sweep over {rows[0]['parameter']} ({len(rows)} rows) -> {counts}")


# artifact -> its summary, in the order report prints them
_REPORTS = {
    "criterion_report.json": _report_criterion,
    "trace_summary.json": _report_trace,
    "verification_reports.json": _report_verification,
    "sweep.csv": _report_sweep,
}


def cmd_report(args, argv) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise ConfigError(f"output directory not found: {args.out}")
    found = [out / name for name in _REPORTS if (out / name).is_file()]
    if not found:
        raise ConfigError(f"no artifacts found in {args.out}")
    for path in found:
        try:
            _REPORTS[path.name](path)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed artifact {path}: {type(exc).__name__}: {exc}") from exc
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


# argparse reads a negative number in exponent notation ("-1e-3") or "-inf"
# as an option string, so ``main`` joins such a value to the option before
# it ("--lo=-1e-3"); every option but these two takes a value
_FLAGS = ("--help", "--version")


def _reads_as_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """``argv`` with each negative number joined to the option before it."""
    joined = []
    for arg in argv:
        option = joined[-1] if joined else ""
        if (option.startswith("--") and "=" not in option and option not in ("--", *_FLAGS)
                and arg.startswith("-") and _reads_as_number(arg)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _add_criterion_args(p: argparse.ArgumentParser, required_theorem: bool) -> None:
    p.add_argument(
        "--theorem" if required_theorem else "--family",
        dest="theorem" if required_theorem else "family",
        choices=FAMILIES,
        required=required_theorem,
        default=None if not required_theorem else argparse.SUPPRESS,
        help="criterion family",
    )
    p.add_argument("--tau", type=float, default=1.0, help="blowup horizon (default 1.0)")
    p.add_argument("--a", type=float, default=4.0, help="trade-off constant for general families")
    p.add_argument("--weight", default=None, help="weight spec: linear | power:<n> | exp:<beta>")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-end", type=float, default=0.5, help="simulation end time")
    p.add_argument(
        "--cfl", type=float, default=SolverConfig.cfl,
        help=f"Courant number of the time step, in (0, 1) (default {SolverConfig.cfl})",
    )
    p.add_argument(
        "--reconstruction", choices=(FIRST_ORDER, MUSCL), default=SolverConfig.reconstruction,
        help=f"{MUSCL}: minmod-limited MUSCL-Hancock step, second order in space and time; "
             f"{FIRST_ORDER}: first-order Rusanov step (default {SolverConfig.reconstruction})",
    )
    p.add_argument("--snapshot-interval", type=float, default=SolverConfig.snapshot_interval)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="eulerblowup",
        description="Blowup criteria laboratory for compressible isentropic flow",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate a blowup criterion")
    _add_criterion_args(p_check, required_theorem=True)
    p_check.add_argument("--out", default=None, help="directory for the JSON report")
    p_check.add_argument("scenario", help="scenario config file")

    p_sim = sub.add_parser("simulate", help="run the solver, write CSV artifacts")
    _add_solver_args(p_sim)
    _add_criterion_args(p_sim, required_theorem=False)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("scenario", help="scenario config file")

    p_ver = sub.add_parser("verify", help="run checks against a fresh trace")
    _add_solver_args(p_ver)
    _add_criterion_args(p_ver, required_theorem=False)
    p_ver.add_argument(
        "--checks",
        default="positivity,propagation,mass",
        help=f"comma list from: {', '.join(TRACE_CHECKS)} (or 'all')",
    )
    p_ver.add_argument("--x0", type=float, default=0.5, help="flow-line start for the characteristic check")
    p_ver.add_argument("--cone-center", type=float, default=0.0)
    p_ver.add_argument("--cone-apex", type=float, default=None)
    p_ver.add_argument("--out", default=None, help="output directory")
    p_ver.add_argument("scenario", help="scenario config file")

    p_sweep = sub.add_parser("sweep", help="evaluate a criterion across a range")
    _add_criterion_args(p_sweep, required_theorem=True)
    p_sweep.add_argument("--parameter", required=True, help=f"one of {', '.join(SWEEPABLE)}")
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("scenario", help="scenario config file")

    p_rep = sub.add_parser("report", help="summarize artifacts in a directory")
    p_rep.add_argument("--out", required=True, help="directory to summarize")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_join_negative_numbers(argv))
    except SystemExit as exc:
        # argparse uses exit 2 for usage errors already
        return int(exc.code or 0)
    # looked up at each call, so a wrapper put on the module's cmd_* runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args, argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OverflowError as exc:
        print(f"error: floating-point overflow: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
