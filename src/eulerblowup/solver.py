"""Finite-volume solver for the isentropic gas in slab or radial symmetry.

Conservative variables (rho, rho*V) are advanced with a Rusanov
(local Lax-Friedrichs) flux, first order by default with an optional
minmod-limited MUSCL reconstruction stepped by two-stage SSP Runge-Kutta.
Radial geometry adds the cell-centered geometric source -(N-1)/r * (rho*V,
rho*V**2) and reflects the origin; the outer boundary holds the quiescent
background, which both schemes preserve exactly.

Blowup is proxied by two detectors: a per-cell velocity jump reaching a
fixed fraction of the background sound speed, and the CFL time step
falling under a floor.

``run`` steps only the perturbed window.  The background (rho_bar, 0) is
a bitwise fixed point of both schemes, so a cell can leave it only when a
perturbed cell lies within the reach of one step: two cells per
Runge-Kutta stage of the MUSCL stencil, four per step, and one cell per
first-order step.  Each step therefore advances the cells [lo - reach,
hi + reach] around the perturbed range [lo, hi], clipped to the grid and
always starting at the origin in radial geometry, where the reflection
ghost applies; every other cell is copied unchanged.  The window is
stepped with the full grid's spacing, not one recomputed from its own
centers, so the result equals a full-grid step bit for bit.  A run with
no perturbed cell only advances the time.  Snapshots, the time step, the
detector and the recorder see the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import FieldSnapshot, FunctionalSeries, SeriesRecorder, initial_snapshot
from .model import DetectorParams, EosParams, Geometry, Scenario, signal_speed

FIRST_ORDER = "first_order"
MUSCL = "muscl"

SLOPE_THRESHOLD = "slope_threshold"
DT_FLOOR = "dt_floor"


class NegativeDensityError(RuntimeError):
    """The update produced a non-positive density (reported, never clamped)."""

    def __init__(self, t: float, location: float, value: float):
        self.t, self.location, self.value = float(t), float(location), float(value)
        super().__init__(
            f"non-positive density {value:g} at x={location:g}, t={t:g}"
        )


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.45
    reconstruction: str = MUSCL
    t_end: float = 1.0
    snapshot_interval: float = 0.05
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if not 0 < self.cfl < 1:
            raise ValueError("cfl must lie in (0, 1)")
        if self.reconstruction not in (FIRST_ORDER, MUSCL):
            raise ValueError(f"unknown reconstruction {self.reconstruction!r}")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not self.snapshot_interval > 0:
            raise ValueError("snapshot_interval must be positive")


@dataclass(frozen=True)
class BlowupEvent:
    t: float
    cause: str  # slope_threshold | dt_floor
    location: float
    value: float

    def to_dict(self) -> dict:
        return {"t": self.t, "cause": self.cause, "location": self.location, "value": self.value}


@dataclass
class SolutionTrace:
    scenario: Scenario
    config: SolverConfig
    snapshots: list
    series: FunctionalSeries | None
    blowup: BlowupEvent | None
    steps: int
    t_final: float

    @property
    def t_detect(self) -> float | None:
        return self.blowup.t if self.blowup is not None else None


def cfl_dt(snap: FieldSnapshot, eos: EosParams, cfl: float = 0.45) -> float:
    """Largest stable time step: cfl * dx / max(|V| + c)."""
    speed = np.abs(snap.V) + signal_speed(eos, snap.rho)
    return float(cfl * snap.spacing / np.max(speed))


def _slopes(u: np.ndarray) -> np.ndarray:
    """Minmod-limited slopes of the cells between the first and last of u."""
    d = np.diff(u)
    sign, size = np.sign(d), np.abs(d)
    return 0.5 * (sign[:-1] + sign[1:]) * np.minimum(size[:-1], size[1:])


def _pad(rho: np.ndarray, mom: np.ndarray, geometry: Geometry, eos: EosParams) -> tuple[np.ndarray, np.ndarray]:
    """Two ghost cells per side: the far-field background (rho_bar, 0), and
    in radial geometry the reflection across r = 0 on the left."""
    rb = eos.rho_bar
    if geometry.is_radial:
        # reflect across r = 0: even density, odd velocity
        rho_p = np.concatenate(([rho[1], rho[0]], rho, [rb, rb]))
        mom_p = np.concatenate(([-mom[1], -mom[0]], mom, [0.0, 0.0]))
    else:
        rho_p = np.concatenate(([rb, rb], rho, [rb, rb]))
        mom_p = np.concatenate(([0.0, 0.0], mom, [0.0, 0.0]))
    return rho_p, mom_p


def _rusanov(
    rhoL: np.ndarray, momL: np.ndarray, rhoR: np.ndarray, momR: np.ndarray, eos: EosParams
) -> tuple[np.ndarray, np.ndarray]:
    vL, vR = momL / rhoL, momR / rhoR
    pL = eos.K * rhoL ** eos.gamma
    pR = eos.K * rhoR ** eos.gamma
    a = np.maximum(np.abs(vL) + signal_speed(eos, rhoL), np.abs(vR) + signal_speed(eos, rhoR))
    f1 = 0.5 * (momL + momR) - 0.5 * a * (rhoR - rhoL)
    f2 = 0.5 * (momL * vL + pL + momR * vR + pR) - 0.5 * a * (momR - momL)
    return f1, f2


def _rhs(
    rho: np.ndarray,
    mom: np.ndarray,
    centers: np.ndarray,
    dx: float,
    geometry: Geometry,
    eos: EosParams,
    reconstruction: str,
) -> tuple[np.ndarray, np.ndarray]:
    rho_p, mom_p = _pad(rho, mom, geometry, eos)
    if reconstruction == FIRST_ORDER:
        rL, mL = rho_p[1:-2], mom_p[1:-2]
        rR, mR = rho_p[2:-1], mom_p[2:-1]
    else:
        hr, hm = 0.5 * _slopes(rho_p), 0.5 * _slopes(mom_p)
        rL, mL = rho_p[1:-2] + hr[:-1], mom_p[1:-2] + hm[:-1]
        rR, mR = rho_p[2:-1] - hr[1:], mom_p[2:-1] - hm[1:]
        if rL.min() <= 0 or rR.min() <= 0:
            # limited face states should stay positive; fall back locally
            bad = (rL <= 0) | (rR <= 0)
            rL = np.where(bad, rho_p[1:-2], rL)
            mL = np.where(bad, mom_p[1:-2], mL)
            rR = np.where(bad, rho_p[2:-1], rR)
            mR = np.where(bad, mom_p[2:-1], mR)
    f1, f2 = _rusanov(rL, mL, rR, mR, eos)
    d_rho = -(f1[1:] - f1[:-1]) / dx
    d_mom = -(f2[1:] - f2[:-1]) / dx
    if geometry.is_radial and geometry.ndim > 1:
        r = np.maximum(centers, 0.5 * dx)
        coeff = (geometry.ndim - 1) / r
        d_rho = d_rho - coeff * mom
        d_mom = d_mom - coeff * mom * (mom / rho)
    return d_rho, d_mom


def step(
    snap: FieldSnapshot,
    eos: EosParams,
    geometry: Geometry,
    dt: float,
    reconstruction: str = FIRST_ORDER,
) -> FieldSnapshot:
    """Advance one time step; raises on non-positive density or unstable dt."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    hard_limit = cfl_dt(snap, eos, cfl=1.0)
    if dt > hard_limit * (1.0 + 1e-12):
        raise ValueError(f"dt {dt:g} exceeds the unit-CFL limit {hard_limit:g}")
    rho, mom = snap.rho, snap.rho * snap.V
    dx, centers = snap.spacing, snap.centers
    args = (centers, dx, geometry, eos, reconstruction)
    d1_rho, d1_mom = _rhs(rho, mom, *args)
    rho1 = rho + dt * d1_rho
    mom1 = mom + dt * d1_mom
    if reconstruction == MUSCL:
        if rho1.min() <= 0:
            i = int(np.argmin(rho1))
            raise NegativeDensityError(snap.t + dt, centers[i], rho1[i])
        d2_rho, d2_mom = _rhs(rho1, mom1, *args)
        rho_new = 0.5 * (rho + rho1 + dt * d2_rho)
        mom_new = 0.5 * (mom + mom1 + dt * d2_mom)
    else:
        rho_new, mom_new = rho1, mom1
    if rho_new.min() <= 0:
        i = int(np.argmin(rho_new))
        raise NegativeDensityError(snap.t + dt, centers[i], rho_new[i])
    return FieldSnapshot(t=snap.t + dt, centers=centers, rho=rho_new, V=mom_new / rho_new, spacing=dx)


# cells one step can carry a disturbance: 2 per stage of the MUSCL stencil
_REACH = {FIRST_ORDER: 1, MUSCL: 4}


def _perturbed(rho: np.ndarray, V: np.ndarray, rho_bar: float, offset: int = 0) -> tuple[int, int] | None:
    """Index range [lo, hi] (shifted by offset) of cells off (rho_bar, 0), or None."""
    off = np.flatnonzero((rho != rho_bar) | (V != 0.0))
    if off.size == 0:
        return None
    return offset + int(off[0]), offset + int(off[-1])


def _advance(
    snap: FieldSnapshot,
    perturbed: tuple[int, int] | None,
    eos: EosParams,
    geometry: Geometry,
    dt: float,
    reconstruction: str,
) -> tuple[FieldSnapshot, tuple[int, int] | None]:
    """One full-grid step that runs ``step`` on the perturbed window only."""
    rho, V = snap.rho.copy(), snap.V.copy()
    if perturbed is None:
        return FieldSnapshot(snap.t + dt, snap.centers, rho, V, snap.spacing), None
    lo, hi = perturbed
    reach = _REACH[reconstruction]
    a = 0 if geometry.is_radial else max(lo - reach, 0)
    b = min(hi + reach + 1, rho.size)
    window = FieldSnapshot(snap.t, snap.centers[a:b], rho[a:b], V[a:b], snap.spacing)
    moved = step(window, eos, geometry, dt, reconstruction)
    rho[a:b], V[a:b] = moved.rho, moved.V
    new = FieldSnapshot(moved.t, snap.centers, rho, V, snap.spacing)
    return new, _perturbed(moved.rho, moved.V, eos.rho_bar, a)


def detect_blowup(snap: FieldSnapshot, eos: EosParams, detector: DetectorParams) -> BlowupEvent | None:
    """Flag a per-cell velocity jump at or above slope_factor * sound speed."""
    jumps = np.abs(np.diff(snap.V))
    i = int(np.argmax(jumps))
    threshold = detector.slope_factor * signal_speed(eos, eos.rho_bar)
    if jumps[i] >= threshold:
        loc = 0.5 * (snap.centers[i] + snap.centers[i + 1])
        return BlowupEvent(t=snap.t, cause=SLOPE_THRESHOLD, location=float(loc), value=float(jumps[i]))
    return None


def run(
    scenario: Scenario,
    config: SolverConfig,
    recorder: SeriesRecorder | None = None,
) -> SolutionTrace:
    """Run a scenario to t_end or first detector event.

    The grid must contain the sound cone of the horizon: extent > R +
    sigma * t_end.  Snapshots are recorded at t = 0, at every crossing of
    the snapshot interval, and at the final time; the recorder (if given)
    observes the state at every crossing of the detector sample interval,
    always strictly before any detection time.
    """
    eos, geom = scenario.eos, scenario.geometry
    sigma = signal_speed(eos, eos.rho_bar)
    if scenario.grid.extent <= scenario.R + sigma * config.t_end:
        raise ValueError(
            "grid extent does not contain the sound cone of t_end: need extent > "
            f"{scenario.R + sigma * config.t_end:g}"
        )
    snap = initial_snapshot(scenario)
    perturbed = _perturbed(snap.rho, snap.V, eos.rho_bar)
    snapshots = [snap]
    blowup = detect_blowup(snap, eos, scenario.detector)
    if blowup is None and recorder is not None:
        recorder.observe(snap)
    t, steps = 0.0, 0
    next_snap = config.snapshot_interval
    next_sample = scenario.detector.sample_interval
    eps = 1e-12 * config.t_end
    while blowup is None and t < config.t_end - eps and steps < config.max_steps:
        dtc = cfl_dt(snap, eos, config.cfl)
        if dtc < scenario.detector.dt_floor:
            blowup = BlowupEvent(t=t, cause=DT_FLOOR, location=float("nan"), value=dtc)
            break
        dt = min(dtc, config.t_end - t)
        snap, perturbed = _advance(snap, perturbed, eos, geom, dt, config.reconstruction)
        t = snap.t
        steps += 1
        blowup = detect_blowup(snap, eos, scenario.detector)
        if blowup is None and recorder is not None and (t >= next_sample - eps or t >= config.t_end - eps):
            recorder.observe(snap)
            while next_sample <= t + eps:
                next_sample += scenario.detector.sample_interval
        if t >= next_snap - eps or t >= config.t_end - eps or blowup is not None:
            snapshots.append(snap)
            while next_snap <= t + eps:
                next_snap += config.snapshot_interval
    series = recorder.series() if recorder is not None else None
    return SolutionTrace(
        scenario=scenario,
        config=config,
        snapshots=snapshots,
        series=series,
        blowup=blowup,
        steps=steps,
        t_final=t,
    )
