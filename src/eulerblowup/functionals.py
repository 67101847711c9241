"""Integral functionals of field snapshots and their time series.

The blowup criteria watch weighted velocity integrals H(t), weight
integrals B(t) over the sound cone, perturbed-mass integrals m(t) and a
per-theorem slack term G(t).  This module evaluates all of them on
cell-centered snapshots (trapezoid quadrature on the centers) and
collects them into a :class:`FunctionalSeries` as a run progresses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import EosParams, Geometry, Scenario, TestingFunction, riemann_variable, sound_speed
from .quadrature import DEFAULT_RULE, QuadratureRule, integrate_fn, integrate_samples, integrate_segments


class WeightDivergenceError(ValueError):
    """The weight integrand f**2/f' grows without bound toward the origin."""


class GridCoverageError(ValueError):
    """An integral or cone extends beyond the sampled grid."""


@dataclass
class FieldSnapshot:
    """Density and velocity sampled at cell centers at one instant.

    ``spacing`` defaults to ``centers[1] - centers[0]``; a window cut from
    a larger grid passes the full grid's value, which the difference of
    its own first two centers may miss in the last bit.
    """

    t: float
    centers: np.ndarray
    rho: np.ndarray
    V: np.ndarray
    spacing: float | None = None

    def __post_init__(self) -> None:
        self.centers = np.asarray(self.centers, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        n = self.centers.size
        if self.rho.size != n or self.V.size != n or n < 2:
            raise ValueError("snapshot arrays must share one length >= 2")
        if self.spacing is None:
            self.spacing = float(self.centers[1] - self.centers[0])


def initial_snapshot(scenario: Scenario) -> FieldSnapshot:
    """Sample the scenario's initial data on its grid."""
    centers = scenario.grid.centers(scenario.geometry)
    rho = scenario.eos.rho_bar + scenario.rho0(centers)
    V = scenario.v0(centers)
    return FieldSnapshot(t=0.0, centers=centers, rho=rho, V=V)


def _band(snap: FieldSnapshot, geometry: Geometry, upper: float | None) -> np.ndarray:
    if upper is None:
        return np.ones(snap.centers.size, dtype=bool)
    if upper > snap.centers[-1] + 0.5 * snap.spacing:
        raise GridCoverageError(f"integration bound {upper:g} exceeds grid coverage")
    if geometry.is_radial:
        return snap.centers <= upper
    return np.abs(snap.centers) <= upper


def momentum_functional(
    snap: FieldSnapshot, f: TestingFunction, geometry: Geometry, upper: float | None = None
) -> float:
    """Weighted velocity integral of f * V over the grid (or up to ``upper``).

    Radial geometry integrates in the plain radial measure dr; the 1-D
    geometry integrates over the symmetric interval.
    """
    mask = _band(snap, geometry, upper)
    if mask.sum() < 2:
        raise GridCoverageError("integration band covers fewer than two cells")
    vals = np.asarray(f.f(snap.centers[mask]), dtype=float) * snap.V[mask]
    return integrate_samples(vals, snap.spacing)


def mass_functional(snap: FieldSnapshot, eos: EosParams, geometry: Geometry) -> float:
    """Perturbed mass: integral of (rho - rho_bar), with r**(N-1) weight radially.

    Uses the midpoint (cell-average) rule, which is the quantity the
    finite-volume update actually conserves; trapezoid over cell centers
    would add a spurious O(dx) boundary term at the bump center.
    """
    diff = snap.rho - eos.rho_bar
    if geometry.is_radial and geometry.ndim > 1:
        diff = diff * snap.centers ** (geometry.ndim - 1)
    return float(np.sum(diff) * snap.spacing)


def weight_functional_B(
    f: TestingFunction,
    R: float,
    sigma: float,
    t: float,
    geometry: Geometry,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Weight integral B(t) of f**2/f' over the sound cone section at time t.

    Uses the closed form attached to ``f`` when present, otherwise the
    quadrature rule.  A quadrature integrand that grows toward the radial
    origin is reported as divergent rather than silently truncated.
    """
    if R <= 0 or sigma <= 0 or t < 0:
        raise ValueError("require R > 0, sigma > 0, t >= 0")
    if f.analytic_B is not None:
        return float(f.analytic_B(R, sigma, t, geometry))
    upper = R + sigma * t
    lower = 0.0 if geometry.is_radial else -upper
    if geometry.is_radial:
        _probe_origin(f, upper)
    return integrate_fn(f.weight_integrand, lower, upper, rule)


def weight_functional_B_table(
    f: TestingFunction,
    R: float,
    sigma: float,
    times,
    geometry: Geometry,
    rule: QuadratureRule = DEFAULT_RULE,
) -> np.ndarray:
    """B(t) at each time of an increasing grid of two or more times, the first 0.

    A closed form attached to ``f`` is called once on the whole array; a
    closed form that only takes scalars is called per time.  Otherwise
    B(0) comes from :func:`weight_functional_B` with ``rule`` and each
    later value adds the integral over the cone's growth since the
    previous time, [R + sigma*t_k, R + sigma*t_(k+1)] (mirrored in 1-D),
    by :func:`~eulerblowup.quadrature.integrate_segments`.  With the
    2048-panel Simpson rule on a 2049-point grid the table matches a
    separate :func:`weight_functional_B` per time to 1e-12 relative
    wherever that Simpson value is itself this accurate; fast-growing 1-D
    weights such as exp(2x) lose that accuracy past U = R + sigma*t of
    about 2, and there the table is the more accurate of the two.  A
    radial integrand that grows toward the origin at the last time raises
    :class:`WeightDivergenceError`.
    """
    ts = np.asarray(times, dtype=float)
    if R <= 0 or sigma <= 0:
        raise ValueError("require R > 0, sigma > 0")
    if ts.ndim != 1 or ts.size < 2 or ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
        raise ValueError("times must be an increasing 1-D grid of two or more, starting at 0")
    if f.analytic_B is not None:
        try:
            B = np.asarray(f.analytic_B(R, sigma, ts, geometry), dtype=float)
            if B.shape != ts.shape:
                raise TypeError
        except (TypeError, ValueError):
            B = np.array([float(f.analytic_B(R, sigma, float(t), geometry)) for t in ts])
        return B
    B0 = weight_functional_B(f, R, sigma, 0.0, geometry, rule)
    upper = R + sigma * ts
    if geometry.is_radial:
        _probe_origin(f, upper[-1])
    growth = integrate_segments(f.weight_integrand, upper)
    if not geometry.is_radial:
        growth = growth + integrate_segments(f.weight_integrand, -upper[::-1])[::-1]
    return B0 + np.concatenate(([0.0], np.cumsum(growth)))


def _probe_origin(f: TestingFunction, upper: float) -> None:
    # admissible weights have f**2/f' -> 0 at the origin; growth by orders of
    # magnitude as r -> 0 marks a divergent B integral
    probes = upper * np.array([1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    vals = np.asarray(f.weight_integrand(probes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise WeightDivergenceError("weight integrand is not finite near the origin")
    if vals[-1] > 10.0 * max(vals[0], 1e-300):
        raise WeightDivergenceError(
            "weight integrand grows toward the origin; B integral looks divergent"
        )


# ---------------------------------------------------------------------------
# Cone energy apparatus


def _cone_interval(
    snap: FieldSnapshot, sigma: float, x_center: float, t_apex: float, geometry: Geometry
) -> tuple[float, float]:
    if snap.t > t_apex:
        raise ValueError("snapshot lies above the cone apex time")
    radius = sigma * (t_apex - snap.t)
    lo, hi = x_center - radius, x_center + radius
    if geometry.is_radial:
        lo = max(lo, 0.0)
    half = 0.5 * snap.spacing
    if hi > snap.centers[-1] + half or lo < snap.centers[0] - half:
        raise GridCoverageError("cone cross-section leaves the sampled grid")
    return lo, hi


def cone_energy(
    snap: FieldSnapshot,
    eos: EosParams,
    x_center: float,
    t_apex: float,
    geometry: Geometry,
) -> float:
    """Energy (v**2 + V**2)/2 integrated over the backward sound cone section.

    The cone has apex (t_apex, x_center) and slope equal to the background
    sound speed.  The 1-D form is the one the supporting estimates use;
    the radial form integrates in dr and serves as a diagnostic.
    """
    sigma = sound_speed(eos)
    lo, hi = _cone_interval(snap, sigma, x_center, t_apex, geometry)
    if hi <= lo:
        return 0.0
    v = riemann_variable(eos, snap.rho)
    energy = 0.5 * (v ** 2 + snap.V ** 2)
    npts = max(33, int(np.ceil((hi - lo) / snap.spacing)) + 2)
    xs = np.linspace(lo, hi, npts)
    vals = np.interp(xs, snap.centers, energy)
    return integrate_samples(vals, (hi - lo) / (npts - 1))


def cone_gradient_constant(
    snapshots: Sequence[FieldSnapshot],
    eos: EosParams,
    x_center: float,
    t_apex: float,
    geometry: Geometry,
) -> float:
    """Gradient bound gamma * max(|grad v| + 2*sqrt(sum |grad u_i|**2)) over the cone.

    Gradients are centered differences on the snapshots whose cross-section
    intersects the grid; at least two snapshots must contribute.
    """
    sigma = sound_speed(eos)
    worst = 0.0
    contributing = 0
    for snap in snapshots:
        if snap.t >= t_apex:
            continue
        lo, hi = _cone_interval(snap, sigma, x_center, t_apex, geometry)
        pad = snap.spacing
        mask = (snap.centers >= lo - pad) & (snap.centers <= hi + pad)
        if mask.sum() < 3:
            continue
        x = snap.centers[mask]
        v = riemann_variable(eos, snap.rho[mask])
        dv = np.gradient(v, x)
        dV = np.gradient(snap.V[mask], x)
        if geometry.is_radial and geometry.ndim > 1:
            r = np.maximum(x, 0.5 * snap.spacing)
            grad_u = np.sqrt(dV ** 2 + (geometry.ndim - 1) * (snap.V[mask] / r) ** 2)
        else:
            grad_u = np.abs(dV)
        inside = (x >= lo) & (x <= hi)
        if not inside.any():
            continue
        local = np.max(np.abs(dv[inside]) + 2.0 * grad_u[inside])
        worst = max(worst, float(local))
        contributing += 1
    if contributing < 2:
        raise ValueError("need at least two snapshots intersecting the cone")
    return eos.gamma * worst


# ---------------------------------------------------------------------------
# Time series


@dataclass
class FunctionalSeries:
    """Sampled time series of H, B, m and the theorem slack G."""

    times: np.ndarray
    H: np.ndarray
    B: np.ndarray
    m: np.ndarray
    G: np.ndarray
    theorem: str = ""

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        for name in ("H", "B", "m", "G"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size != self.times.size:
                raise ValueError("series columns must share the times length")
            setattr(self, name, arr)

    def dH_dt(self) -> np.ndarray:
        """Time derivative of H: centered differences, one-sided at the ends.

        End points use the second-order one-sided stencil; the inequality
        monitor reads them, and the first-order secant is biased at the
        start where H bends fastest.
        """
        if self.times.size < 2:
            return np.zeros_like(self.H)
        if self.times.size == 2:
            return np.gradient(self.H, self.times)
        return np.gradient(self.H, self.times, edge_order=2)

    def to_csv(self, path) -> None:
        dH = self.dH_dt()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "H", "B", "m", "G", "dH_dt"])
            for k in range(self.times.size):
                writer.writerow(
                    [
                        format(col[k], ".17g")
                        for col in (self.times, self.H, self.B, self.m, self.G, dH)
                    ]
                )


class SeriesRecorder:
    """Accumulates a :class:`FunctionalSeries` from snapshots during a run.

    The four column callables come from a theorem context: ``H`` and ``m``
    map a snapshot to a value, ``B`` maps the sample time, and ``G`` (may
    be None) maps (t, H_t, m_0, snapshot) to the slack term.
    """

    def __init__(
        self,
        H: Callable[[FieldSnapshot], float],
        B: Callable[[float], float],
        m: Callable[[FieldSnapshot], float],
        G: Callable | None = None,
        theorem: str = "",
    ):
        self._H, self._B, self._m, self._G = H, B, m, G
        self._theorem = theorem
        self._rows: list[tuple[float, float, float, float, float]] = []
        self._m0: float | None = None

    def observe(self, snap: FieldSnapshot) -> None:
        h = float(self._H(snap))
        b = float(self._B(snap.t))
        mval = float(self._m(snap))
        if self._m0 is None:
            self._m0 = mval
        g = float(self._G(snap.t, h, self._m0, snap)) if self._G is not None else float("nan")
        self._rows.append((snap.t, h, b, mval, g))

    def series(self) -> FunctionalSeries:
        if not self._rows:
            return FunctionalSeries(
                np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), self._theorem
            )
        cols = list(zip(*self._rows))
        return FunctionalSeries(*[np.array(c) for c in cols], theorem=self._theorem)
