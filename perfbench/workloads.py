"""The benchmark's workloads: the operations of one pass and their gates.

An operation has a timed ``run`` that calls into the package and an
untimed ``gate`` that checks the result against what the package
guarantees.  A gate raises :class:`GateError` when a guarantee is broken
and returns a tag when the result shows one of the defects known at the
baseline, which the benchmark counts in ``fail_ratio`` instead of hiding.
Exceptions whose type an operation lists in ``known_errors`` are such
known defects too; any other exception is a failed operation.

Every package function is looked up on its module at call time, so a
traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from eulerblowup import cli, criteria, model, scenarios, solver, verify

# ladder families, in the order of criteria.FAMILIES, with their builders
LADDER_BUILDERS = (
    "certified_general_radial_case",
    "certified_general_1d_case",
    "certified_power_radial_case",
    "certified_linear_tau_case",
    "certified_linear_infinite_case",
)
LADDER_MARGINS = (1.1, 1.5)

# family -> (preset, weight spec for the CLI, trade-off constant a)
SWEEP_FAMILIES = {
    criteria.FAMILY_GENERAL_RADIAL: ("cert-general-radial-n1", "linear", 4.0),
    criteria.FAMILY_GENERAL_1D: ("cert-general-1d-exp", "exp:2", 3.5),
    criteria.FAMILY_POWER_RADIAL: ("cert-power-radial-n3", None, 4.0),
    criteria.FAMILY_LINEAR_1D_TAU: ("cert-linear-tau-1d", None, 4.0),
    criteria.FAMILY_LINEAR_1D: ("cert-linear-infinite-1d", None, 4.0),
}
HORIZON_FAMILIES = tuple(f for f in SWEEP_FAMILIES if f != criteria.FAMILY_LINEAR_1D)

# minimal_tau defects present at the baseline: (preset, exception type)
KNOWN_MINIMAL_TAU_ERRORS = {
    "cert-general-radial-n1": ("NonMonotoneVerdictError",),
    "cert-general-1d-exp": ("OverflowError",),
}

MINIMAL_TAU_BOUNDS = (1e-3, 1e3)  # the defaults of criteria.minimal_tau
MINIMAL_TAU_RTOL = 1e-6


class GateError(Exception):
    """An operation's result breaks a guarantee of the package."""


@dataclass
class Op:
    """One operation: a timed call into the package and its untimed gate."""

    name: str
    run: Callable[[], Any]
    gate: Callable[[Any], str | None]
    known_errors: tuple = ()


@dataclass
class Sizes:
    """Problem sizes; the smoke sizes only exercise the code paths."""

    acceptance_cells: int = 4096
    ladder_cells: int = 1024
    ladder_margins: int = 8
    sweep_rows: int = 64
    general_taus: int = 3


SMOKE_SIZES = Sizes(acceptance_cells=1024, ladder_margins=1, sweep_rows=8, general_taus=1)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _require_pass(report, allowed=(verify.PASS,)) -> None:
    _require(report.status in allowed, f"{report.check} {report.status}: {report.reason}")


# ---------------------------------------------------------------------------
# Certify -> simulate -> check


def certified_op(case) -> Op:
    """Certify a case, simulate it with its theorem recorder to detection, check the trace."""

    def run():
        ctx = criteria.theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
        if not ctx.hypotheses_hold():
            return ctx, None, ()
        trace = solver.run(case.scenario, solver.SolverConfig(t_end=case.tau), recorder=ctx.recorder())
        reports = (
            verify.check_differential_inequality(
                trace, case.family, tau=case.tau, f=case.f, a=case.a, context=ctx
            ),
            verify.check_positivity(trace),
            verify.check_mass_conservation(trace),
        )
        return ctx, trace, reports

    def gate(payload):
        ctx, trace, reports = payload
        _require(trace is not None, f"criterion does not certify: {ctx.report.verdict.reason}")
        inequality, positivity, mass = reports
        _require_pass(inequality)
        _require_pass(positivity)
        td = trace.t_detect
        _require(td is not None and 0.0 < td < case.tau, f"t_detect {td} outside (0, {case.tau})")
        # mass is asserted only on the reference bumps; on certified data a
        # drift is recorded as a known defect
        return f"mass_drift:{case.name}" if mass.status == verify.FAIL else None

    return Op(f"certified:{case.name}:{case.scenario.grid.cells}:{case.scenario.amp_v:.6g}", run, gate)


def reference_op(preset: str, cells: int) -> Op:
    """A reference bump to t = 0.5 with the smooth-flow checks."""
    scen = scenarios.PRESETS[preset](cells)

    def run():
        trace = solver.run(scen, solver.SolverConfig(t_end=0.5))
        return (
            verify.check_finite_propagation(trace),
            verify.check_mass_conservation(trace),
            verify.check_positivity(trace),
            verify.check_characteristic_density(trace, 0.5),
            verify.check_cone_energy(trace, 0.0, 0.4),
        )

    def gate(reports):
        *smooth, cone = reports
        for report in smooth:
            _require_pass(report)
        # the cone bound is normative in 1-D and informational radially
        _require_pass(cone, (verify.PASS, verify.SKIPPED) if scen.geometry.is_radial else (verify.PASS,))
        return None

    return Op(f"reference:{preset}:{cells}", run, gate)


# ---------------------------------------------------------------------------
# Criteria without a solver


def sweep_op(family: str, parameter: str, lo: float, hi: float, rows: int, cfg: Path, out: Path) -> Op:
    """One ``eulerblowup sweep`` command; the gate re-reads and checks its CSV."""
    preset, weight, a = SWEEP_FAMILIES[family]
    argv = ["sweep", "--theorem", family, "--parameter", parameter, "--lo", repr(lo), "--hi", repr(hi),
            "--steps", str(rows), "--a", repr(a), "--out", str(out)]
    if weight is not None:
        argv += ["--weight", weight]
    argv.append(str(cfg))
    csv_path = out / "sweep.csv"

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def gate(code):
        _require(code == cli.EXIT_OK, f"sweep exited with {code}")
        with open(csv_path, newline="") as fh:
            table = list(csv.DictReader(fh))
        csv_path.unlink()
        _require(len(table) == rows, f"{len(table)} rows, expected {rows}")
        values = np.linspace(lo, hi, rows)
        slopes = []
        for row, value in zip(table, values):
            _require(float(row["value"]) == float(value), f"row value {row['value']} != {value!r}")
            H0, thr = float(row["H0"]), float(row["threshold"])
            _require(math.isfinite(H0) and math.isfinite(thr) and thr > 0, f"bad row {row}")
            certifies = row["verdict"] in ("blowup_before", "blowup_finite")
            _require(row["verdict"] == "inconclusive" or certifies, f"unknown verdict {row['verdict']}")
            if H0 != thr:
                _require(certifies == (H0 > thr), f"verdict {row['verdict']} with H0 {H0} vs threshold {thr}")
            slopes.append(H0 / value)
        if parameter == "amp_v":
            # H(0) is linear in the velocity amplitude when amp_rho = 0
            _require(max(slopes) - min(slopes) <= 1e-9 * abs(slopes[0]), "H0 is not linear in amp_v")
        return None

    return Op(f"sweep:{family}:{parameter}", run, gate)


def minimal_tau_op(case, family: str) -> Op:
    """``minimal_tau`` at its default bounds; the gate re-checks the horizon it returns."""

    def certifies(tau: float) -> bool:
        return criteria.run_family_check(case.scenario, family, tau=tau, f=case.f, a=case.a).verdict.certifies_blowup

    def run():
        return criteria.minimal_tau(case.scenario, family, f=case.f, a=case.a)

    def gate(tau):
        lo, hi = MINIMAL_TAU_BOUNDS
        _require(isinstance(tau, float) and lo <= tau <= hi, f"no certifying horizon: {tau!r}")
        _require(certifies(tau), f"horizon {tau} does not certify")
        if tau > lo:
            below = tau * (1.0 - 2.0 * MINIMAL_TAU_RTOL)
            _require(not certifies(below), f"horizon {below} below the minimum certifies")
        return None

    return Op(f"minimal_tau:{family}", run, gate, KNOWN_MINIMAL_TAU_ERRORS.get(case.name, ()))


def _weight_B(weight, lower: float, upper: float) -> float:
    """Independent reference: fine trapezoid rule on f**2/f'."""
    xs = np.linspace(lower, upper, 400_001)
    return float(np.trapezoid(weight.weight_integrand(xs), xs))


def general_check_op(case, weight, tau: float) -> Op:
    """``check_general`` with a weight that has no closed-form B."""
    sigma = model.sound_speed(case.scenario.eos)
    upper = case.scenario.R + sigma * tau
    lower = 0.0 if case.scenario.geometry.is_radial else -upper
    reference = []

    def run():
        return criteria.check_general(case.scenario, weight, a=case.a, tau=tau)

    def gate(report):
        inputs = report.inputs
        strict, horizon = inputs["strict_threshold"], inputs["horizon_threshold"]
        _require(all(math.isfinite(v) for v in (inputs["H0"], strict, horizon, inputs["B_tau"])), "non-finite input")
        _require(strict > 0 and horizon > 0, "non-positive threshold")
        _require(inputs["combined_threshold"] == max(strict, horizon), "combined threshold is not the max")
        _require(
            report.verdict.certifies_blowup == all(c.satisfied for c in report.conditions),
            f"verdict {report.verdict.kind} disagrees with its conditions",
        )
        if not reference:
            reference.append(_weight_B(weight, lower, upper))
        rel = abs(inputs["B_tau"] - reference[0]) / reference[0]
        _require(rel < 1e-7, f"B(tau) off the reference by {rel:.2e}")
        return None

    return Op(f"check_general:{case.name}:{weight.name}:{tau:.4g}", run, gate)


def _custom_weights(rng):
    """One radial and one 1-D weight, seeded, with no closed-form B."""
    p, c = rng.uniform(1.0, 2.0), rng.uniform(0.2, 1.0)
    b1, b2, c2 = rng.uniform(1.0, 2.0), rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.5)

    def f_r(x):
        x = np.asarray(x, dtype=float)
        return x ** p + c * x ** (p + 1.0)

    def fp_r(x):
        x = np.asarray(x, dtype=float)
        return p * x ** (p - 1.0) + c * (p + 1.0) * x ** p

    def f_1(x):
        x = np.asarray(x, dtype=float)
        return np.exp(b1 * x) + c2 * np.exp(b2 * x)

    def fp_1(x):
        x = np.asarray(x, dtype=float)
        return b1 * np.exp(b1 * x) + c2 * b2 * np.exp(b2 * x)

    radial = model.radial_vanishing(f_r, fp_r, name=f"r^{p:.3f}(1+{c:.3f}r)")
    slab = model.nonneg_increasing(f_1, fp_1, name=f"exp({b1:.3f}x)+{c2:.3f}exp({b2:.3f}x)")
    return radial, slab


# ---------------------------------------------------------------------------
# Workload builders


def build(workload: str, seed: int, sizes: Sizes, state: Path) -> list[Op]:
    """The operations of one pass, built from the seed (any integer)."""
    rng = np.random.default_rng(seed % 2**63)
    if workload == "acceptance-4096":
        cells = sizes.acceptance_cells
        ops = [certified_op(case) for case in scenarios.certified_suite(cells)]
        return ops + [reference_op(p, cells) for p in ("ref-radial3", "ref-1d")]
    if workload == "ladder-1024":
        # one margin per equal stratum of [1.1, 1.5], so every seed does
        # about the same amount of work
        lo, hi = LADDER_MARGINS
        width = (hi - lo) / sizes.ladder_margins
        ops = []
        for builder in LADDER_BUILDERS:
            for j in range(sizes.ladder_margins):
                margin = lo + width * (j + rng.uniform())
                ops.append(certified_op(getattr(scenarios, builder)(sizes.ladder_cells, margin)))
        return ops
    if workload == "criteria-sweep":
        return _build_sweep(rng, sizes, state)
    raise ValueError(f"unknown workload {workload!r}")


def _build_sweep(rng, sizes: Sizes, state: Path) -> list[Op]:
    suite = {case.name: case for case in scenarios.certified_suite()}
    sweeps = []
    for family, (preset, _weight, _a) in SWEEP_FAMILIES.items():
        cfg = state / f"{preset}.cfg"
        cfg.write_text(f"preset = {preset}\n")
        amp = suite[preset].scenario.amp_v
        ranges = {
            "amp_v": (amp * rng.uniform(0.4, 0.6), amp * rng.uniform(1.6, 2.0)),
            "tau": (rng.uniform(0.2, 0.4), rng.uniform(1.5, 2.5)),
        }
        for parameter, (lo, hi) in ranges.items():
            out = state / f"sweep-{family}-{parameter}"
            out.mkdir(exist_ok=True)
            sweeps.append(sweep_op(family, parameter, float(lo), float(hi), sizes.sweep_rows, cfg, out))
    horizons = [minimal_tau_op(suite[SWEEP_FAMILIES[f][0]], f) for f in HORIZON_FAMILIES]
    radial, slab = _custom_weights(rng)
    checks = []
    for preset, weight in (("cert-general-radial-n1", radial), ("cert-general-1d-exp", slab)):
        for tau in np.sort(rng.uniform(0.4, 2.0, sizes.general_taus)):
            checks.append(general_check_op(suite[preset], weight, float(tau)))
    return sweeps + horizons + checks
