"""Executable checks tying solver traces to the analytical guarantees.

Each check consumes an immutable ``SolutionTrace`` plus a few parameters
and produces a ``VerificationReport`` with a pass/fail/skipped status and
the metrics that justify it (max violation, tolerance used, time of the
worst violation).  Inequality checks carry an explicit discretization
slack so scheme error is separated from a genuine violation; the slack
coefficients below were calibrated once on the frozen reference
scenarios and committed.

All statements under test hold for smooth solutions only, so every check
restricts itself to samples strictly before the detection time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .criteria import CriterionReport, TheoremContext, theorem_context
from .functionals import (
    FieldSnapshot,
    GridCoverageError,
    cone_energy,
    cone_gradient_constant,
    mass_functional,
)
from .model import TestingFunction, sound_speed
from .solver import MAX_STEPS, SolutionTrace, SolverConfig, run

# Discrete mass drift scales like C_m * dx**2 * t.  Measured on the frozen
# reference bumps (4096/8192 cells, t_end 0.5): drift/(dx^2 t) = 0.004 on
# radial N=3, machine zero on N=1 and 1-D.  Frozen at 50x the worst
# measurement; still two orders below what an O(dx) defect would produce.
MASS_DRIFT_COEFF = 0.2

# Slack for the monitored differential inequality, eps = C_d * (dt_sample
# + dx).  On the certified suite at 4096/8192 cells the inequality margin
# never drops below +11 and the slack series G dips at worst to -1.3e-4
# (band-edge quadrature noise), needing C_d >= 0.08; frozen at 60x that,
# three orders below the genuine margins.
DINEQ_SLACK_COEFF = 5.0

# midpoint-rule substeps per snapshot interval along a flow line
CHARACTERISTIC_SUBSTEPS = 32

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

CHECK_POSITIVITY = "positivity"
CHECK_CHARACTERISTIC = "characteristic"
CHECK_PROPAGATION = "propagation"
CHECK_MASS = "mass"
CHECK_INEQUALITY = "inequality"
CHECK_CONE = "cone"
CHECK_PREDICTION = "prediction"

TRACE_CHECKS = (
    CHECK_POSITIVITY,
    CHECK_CHARACTERISTIC,
    CHECK_PROPAGATION,
    CHECK_MASS,
    CHECK_INEQUALITY,
    CHECK_CONE,
)


@dataclass
class VerificationReport:
    """Outcome of one check on one scenario."""

    check: str
    scenario: str
    status: str  # pass | fail | skipped
    reason: str | None = None
    metrics: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "scenario": self.scenario,
            "status": self.status,
            "reason": self.reason,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
        }


def _report(check: str, scenario: str, ok: bool, failure: str, metrics: dict) -> VerificationReport:
    """PASS with no reason when ``ok``, otherwise FAIL with ``failure`` as the reason."""
    return VerificationReport(check, scenario, PASS if ok else FAIL, None if ok else failure, metrics)


def summary_table(reports: list[VerificationReport]) -> str:
    """Plain-text check x scenario status table."""
    rows = [("check", "scenario", "status", "reason")]
    for r in reports:
        rows.append((r.check, r.scenario, r.status, r.reason or ""))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _smooth_snapshots(trace: SolutionTrace) -> list[FieldSnapshot]:
    # statements under test cover the smooth phase only; the snapshot at
    # the detection time is the first one past the steepness threshold
    if trace.blowup is None:
        return list(trace.snapshots)
    td = trace.blowup.t
    return [s for s in trace.snapshots if s.t < td]


def check_positivity(trace: SolutionTrace) -> VerificationReport:
    """Density stays strictly positive on every recorded snapshot."""
    if not trace.snapshots:
        raise ValueError("trace has no snapshots")
    worst = math.inf
    worst_t = worst_x = 0.0
    for snap in trace.snapshots:
        k = int(np.argmin(snap.rho))
        if snap.rho[k] < worst:
            worst = float(snap.rho[k])
            worst_t, worst_x = snap.t, float(snap.centers[k])
    return _report(
        CHECK_POSITIVITY, trace.scenario.label(), worst > 0.0, "non-positive density cell",
        {"min_rho": worst, "t_worst": worst_t, "x_worst": worst_x},
    )


def _divergence(snap: FieldSnapshot, ndim: int, radial: bool) -> np.ndarray:
    div = np.gradient(snap.V, snap.centers)
    if radial and ndim > 1:
        div = div + (ndim - 1) * snap.V / np.maximum(snap.centers, 0.5 * snap.spacing)
    return div


def check_inputs(centers=None, x0: float | None = None, x_center: float | None = None, t_apex: float | None = None):
    """Reject check inputs no run can make valid, so a caller can check before its run; None skips one.

    x0 must lie on the grid of ``centers`` (GridCoverageError), x_center
    be finite and t_apex finite and positive (ValueError).
    """
    if x0 is not None:
        lo, hi = float(centers[0]), float(centers[-1])
        if not lo <= x0 <= hi:
            raise GridCoverageError(f"start point x0={x0:g} is outside the grid [{lo:g}, {hi:g}]")
    if x_center is not None and not math.isfinite(x_center):
        raise ValueError(f"cone center x_center={x_center!r} must be finite")
    if t_apex is not None and not (math.isfinite(t_apex) and t_apex > 0):
        raise ValueError(f"cone apex t_apex={t_apex!r} must be finite and positive")


def check_characteristic_density(trace: SolutionTrace, x0: float, tol_char: float = 0.02) -> VerificationReport:
    """Density along the flow line from x0 matches the exponential of the
    accumulated velocity divergence.

    Integrates dx/dt = V with the explicit midpoint rule on space-time
    interpolants of the snapshots and compares the predicted density
    rho0(x0) * exp(-int div V) against the interpolated field at every
    snapshot time before detection.  An x0 off the grid raises
    GridCoverageError, also when too few smooth snapshots make the check
    skip.
    """
    geom = trace.scenario.geometry
    centers = trace.snapshots[0].centers
    check_inputs(centers, x0=x0)
    lo, hi = float(centers[0]), float(centers[-1])
    snaps = _smooth_snapshots(trace)
    if len(snaps) < 2:
        return VerificationReport(
            CHECK_CHARACTERISTIC,
            trace.scenario.label(),
            SKIPPED,
            "fewer than two smooth snapshots",
        )
    divs = [_divergence(s, geom.ndim, geom.is_radial) for s in snaps]

    def fields_at(t: float, k: int) -> tuple[np.ndarray, np.ndarray]:
        t0, t1 = snaps[k].t, snaps[k + 1].t
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        V = (1.0 - w) * snaps[k].V + w * snaps[k + 1].V
        d = (1.0 - w) * divs[k] + w * divs[k + 1]
        return V, d

    rho0 = float(np.interp(x0, centers, snaps[0].rho))
    x, accum = float(x0), 0.0
    max_err, worst_t = 0.0, 0.0
    for k in range(len(snaps) - 1):
        t0, t1 = snaps[k].t, snaps[k + 1].t
        h = (t1 - t0) / CHARACTERISTIC_SUBSTEPS
        t = t0
        for _ in range(CHARACTERISTIC_SUBSTEPS):
            Vf, _ = fields_at(t, k)
            x_half = x + 0.5 * h * float(np.interp(x, centers, Vf))
            Vm, dm = fields_at(t + 0.5 * h, k)
            x = x + h * float(np.interp(x_half, centers, Vm))
            accum += h * float(np.interp(x_half, centers, dm))
            t += h
            if not lo - 0.5 * snaps[0].spacing <= x <= hi + 0.5 * snaps[0].spacing:
                raise GridCoverageError(
                    f"characteristic exits the grid at t={t:g} (x={x:g})"
                )
        predicted = rho0 * math.exp(-accum)
        measured = float(np.interp(x, centers, snaps[k + 1].rho))
        err = abs(predicted - measured) / abs(measured)
        if err > max_err:
            max_err, worst_t = err, t1
    return _report(
        CHECK_CHARACTERISTIC, trace.scenario.label(), max_err < tol_char,
        "density drifts from the flow-line prediction",
        {
            "max_rel_error": max_err,
            "tolerance": tol_char,
            "t_worst": worst_t,
            "x_final": x,
            "x0": float(x0),
        },
    )


def check_finite_propagation(trace: SolutionTrace, halo_cells: int = 5) -> VerificationReport:
    """The background state survives outside the sound cone of the bump.

    Beyond position R + sigma*t plus a halo of scheme-smearing cells, the
    deviation max(|rho - rho_bar|, |V|) must stay below a small multiple
    of the data scale at every snapshot.
    """
    scen = trace.scenario
    eos, geom = scen.eos, scen.geometry
    sigma = sound_speed(eos)
    v0_max = float(np.max(np.abs(trace.snapshots[0].V)))
    tol = 1e-6 * max(eos.rho_bar, v0_max)
    worst, worst_t = 0.0, 0.0
    for snap in trace.snapshots:
        boundary = scen.R + sigma * snap.t + halo_cells * snap.spacing
        pos = snap.centers if geom.is_radial else np.abs(snap.centers)
        mask = pos >= boundary
        if not mask.any():
            raise GridCoverageError(
                f"no cells beyond the halo boundary {boundary:g} at t={snap.t:g}"
            )
        dev = max(
            float(np.max(np.abs(snap.rho[mask] - eos.rho_bar))),
            float(np.max(np.abs(snap.V[mask]))),
        )
        if dev > worst:
            worst, worst_t = dev, snap.t
    return _report(
        CHECK_PROPAGATION, scen.label(), worst < tol, "signal escaped the sound cone plus halo",
        {
            "max_deviation": worst,
            "tolerance": tol,
            "t_worst": worst_t,
            "halo_cells": float(halo_cells),
        },
    )


def check_mass_conservation(trace: SolutionTrace) -> VerificationReport:
    """The weighted density perturbation integral is conserved in time."""
    scen = trace.scenario
    dx = trace.snapshots[0].spacing
    values = [mass_functional(s, scen.eos, scen.geometry) for s in trace.snapshots]
    drifts = np.abs(np.asarray(values) - values[0])
    k = int(np.argmax(drifts))
    worst = float(drifts[k])
    tol = max(1e-10, MASS_DRIFT_COEFF * dx ** 2 * max(trace.t_final, 0.0))
    return _report(
        CHECK_MASS, scen.label(), worst < tol, "mass functional drifted beyond tolerance",
        {
            "max_drift": worst,
            "tolerance": tol,
            "t_worst": trace.snapshots[k].t,
            "m0": float(values[0]),
        },
    )


def check_differential_inequality(
    trace: SolutionTrace,
    family: str,
    tau: float = 1.0,
    f: TestingFunction | None = None,
    a: float = 4.0,
    context: TheoremContext | None = None,
) -> VerificationReport:
    """The recorded series obeys dH/dt >= coeff(t) H^2 + G(t) - eps and
    the slack term G stays above -eps.

    Skipped when the criterion hypotheses fail at t=0 (the inequality is
    only claimed on certified data).  Uses the series recorded during the
    run when one of the family is attached; otherwise reruns the scenario
    with the family's recorder.  A short attached series is not rerun: the
    run is deterministic and would record the same samples.
    """
    ctx = context or theorem_context(trace.scenario, family, tau, f, a)
    label = trace.scenario.label()
    if not ctx.hypotheses_hold():
        return VerificationReport(
            CHECK_INEQUALITY,
            label,
            SKIPPED,
            ctx.report.verdict.reason or "criterion hypotheses fail at t=0",
        )
    series = trace.series
    if series is None or series.theorem != ctx.family:
        series = run(trace.scenario, trace.config, recorder=ctx.recorder()).series
    if len(series.times) < 3:
        return VerificationReport(
            CHECK_INEQUALITY, label, SKIPPED, "series has fewer than three samples"
        )
    t = series.times
    H = series.H
    G = series.G
    dH = series.dH_dt()
    coeff = np.array([ctx.riccati_coeff(tk) for tk in t])
    margin = dH - (coeff * H ** 2 + G)
    dx = trace.snapshots[0].spacing
    eps = DINEQ_SLACK_COEFF * (trace.scenario.detector.sample_interval + dx)
    k_ineq = int(np.argmin(margin))
    k_g = int(np.argmin(G))
    return _report(
        CHECK_INEQUALITY, label, margin[k_ineq] >= -eps and G[k_g] >= -eps,
        "monitored inequality violated beyond the slack",
        {
            "min_margin": float(margin[k_ineq]),
            "t_worst_margin": float(t[k_ineq]),
            "min_G": float(G[k_g]),
            "t_worst_G": float(t[k_g]),
            "eps_num": eps,
            "n_samples": float(len(t)),
        },
    )


def check_cone_energy(trace: SolutionTrace, x_center: float, t_apex: float) -> VerificationReport:
    """Cross-section energy of a backward sound cone obeys the
    exponential bound e(s) <= e(0) exp(C t_apex) + tol, with cones based
    outside the data cone staying at numerical zero.

    Normative in the 1-D geometry; reported as informational (skipped
    status, metrics attached) for radial traces.  Skipped with no metrics
    when fewer than two smooth snapshots lie at or before t_apex.  Raises
    ValueError for a non-finite x_center or a t_apex that is not finite
    and positive.
    """
    check_inputs(x_center=x_center, t_apex=t_apex)
    scen = trace.scenario
    eos, geom = scen.eos, scen.geometry
    sigma = sound_speed(eos)
    snaps = [s for s in _smooth_snapshots(trace) if s.t <= t_apex * (1.0 + 1e-12)]
    if len(snaps) < 2:
        reason = "fewer than two smooth snapshots at or before t_apex"
        return VerificationReport(CHECK_CONE, scen.label(), SKIPPED, reason)
    energies = np.array([cone_energy(s, eos, x_center, t_apex, geom) for s in snaps])
    C = cone_gradient_constant(snaps, eos, x_center, t_apex, geom)
    v0_max = float(np.max(np.abs(trace.snapshots[0].V)))
    tol = 1e-8 * (sigma ** 2 + v0_max ** 2) * (2.0 * sigma * t_apex)
    e0 = float(energies[0])
    bound = e0 * math.exp(C * t_apex) + tol
    k = int(np.argmax(energies - bound))
    exterior = abs(x_center) > scen.R + sigma * t_apex
    ok = bool(np.all(energies <= bound))
    if exterior:
        ok = ok and bool(np.all(energies <= tol))
    metrics = {
        "e0": e0,
        "max_e": float(np.max(energies)),
        "gradient_constant": C,
        "bound": bound,
        "tolerance": tol,
        "t_worst": snaps[k].t,
        "exterior": 1.0 if exterior else 0.0,
    }
    if geom.is_radial:
        return VerificationReport(
            CHECK_CONE,
            scen.label(),
            SKIPPED,
            "cone energy bound is informational in radial geometry",
            metrics,
        )
    return _report(CHECK_CONE, scen.label(), ok, "cone energy exceeds the exponential bound", metrics)


def riccati_horizon(R: float, sigma: float, threshold: float, H0: float) -> float:
    """Breakdown horizon of dH/dt = 3 H^2 / (4 (R + sigma t)^3).

    Finite exactly when H0 exceeds the horizon-free threshold; used to cap
    how long a finite-time prediction is simulated.
    """
    q = threshold / H0
    if not 0.0 < q < 1.0:
        raise ValueError("horizon is finite only for H0 above the threshold")
    return (R / sigma) * (1.0 / math.sqrt(1.0 - q) - 1.0)


def validate_blowup_prediction(
    scenario,
    report: CriterionReport,
    config: SolverConfig | None = None,
) -> VerificationReport:
    """A certified prediction must be confirmed by the detector.

    For a horizon verdict the run goes to tau and detection must fire
    strictly before it; for a finite-time verdict the run is capped at a
    generous multiple of the comparison-equation horizon (clipped to what
    the grid can contain) and detection must fire within the cap.  ``run``
    raises ValueError when the grid cannot contain the sound cone of the
    horizon.
    """
    verdict = report.verdict
    if not verdict.certifies_blowup:
        raise ValueError("only certifying reports can be validated against a run")
    sigma = sound_speed(scenario.eos)
    if verdict.kind == "blowup_before":
        t_end = float(verdict.tau)
        cap_kind = "tau"
    else:
        t_bound = riccati_horizon(scenario.R, sigma, report.threshold, report.inputs["H0"])
        containment = 0.95 * (scenario.grid.extent - scenario.R) / sigma
        t_end = min(10.0 * t_bound, containment)
        cap_kind = "cap"
    cfg = replace(config, t_end=t_end) if config is not None else SolverConfig(t_end=t_end)
    trace = run(scenario, cfg)
    td = trace.t_detect
    if verdict.kind == "blowup_before":
        ok = td is not None and td < t_end
    else:
        ok = td is not None and td <= t_end
    metrics = {
        "t_detect": float("nan") if td is None else td,
        "horizon": t_end,
        "margin": float("nan") if td is None else (t_end - td) / t_end,
    }
    if verdict.kind == "blowup_finite":
        metrics["riccati_horizon"] = t_bound
    if trace.stop == MAX_STEPS:
        reason = (
            f"run stopped at the step budget max_steps={cfg.max_steps} at "
            f"t_final={trace.t_final:g}, before the {cap_kind} horizon {t_end:g}"
        )
    else:
        reason = f"no detection before the {cap_kind} horizon {t_end:g}"
    return _report(CHECK_PREDICTION, scenario.label(), ok, reason, metrics)
