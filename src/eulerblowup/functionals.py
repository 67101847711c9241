"""Integral functionals of field snapshots and their time series.

The blowup criteria watch weighted velocity integrals H(t), weight
integrals B(t) over the sound cone, perturbed-mass integrals m(t) and a
per-theorem slack term G(t).  This module evaluates all of them on
cell-centered snapshots (trapezoid quadrature on the centers) and
collects them into a :class:`FunctionalSeries` as a run progresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import EosParams, Geometry, Scenario, TestingFunction, riemann_variable, sound_speed
from .quadrature import _GL8_RUNNING, _GL8_WEIGHTS, _check_finite, _evaluate, integrate_samples, segment_nodes


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


def _band(snap: FieldSnapshot, geometry: Geometry, upper: float | None) -> slice:
    """Index range of the cells within ``upper``: r <= upper radially, |x| <= upper in 1-D.

    The centers increase, so the range is [0, #{r <= upper}) radially and
    [#{x < -upper}, #{x <= upper}) in 1-D, the cells -upper <= x <= upper.
    Without ``upper`` it is every cell; a NaN ``upper`` or one past the grid
    raises GridCoverageError.
    """
    centers = snap.centers
    if upper is None:
        return slice(0, centers.size)
    if not upper <= centers[-1] + 0.5 * snap.spacing:
        raise GridCoverageError(f"integration bound {upper:g} exceeds grid coverage")
    start = 0 if geometry.is_radial else int(centers.searchsorted(-upper, "left"))
    return slice(start, int(centers.searchsorted(upper, "right")))


def cone_band_upper(snap: FieldSnapshot, U: float) -> float:
    """Upper bound of the band the criteria integrate over at a snapshot.

    The sound cone's radius ``U = R + sigma*t`` at the snapshot's time
    plus a three-cell halo, clipped to the grid; at t = 0, U is the bump
    radius R.
    """
    return min(U + 3.0 * snap.spacing, float(snap.centers[-1]) + 0.5 * snap.spacing)


def momentum_functional(
    snap: FieldSnapshot, f: TestingFunction, geometry: Geometry, upper: float | None = None
) -> float:
    """Weighted velocity integral of f * V over the grid (or up to ``upper``).

    Radial geometry integrates in the plain radial measure dr; the 1-D
    geometry integrates over the symmetric interval.
    """
    band = _band(snap, geometry, upper)
    if band.stop - band.start < 2:
        raise GridCoverageError("integration band covers fewer than two cells")
    vals = np.asarray(f.f(snap.centers[band]), dtype=float) * snap.V[band]
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


def weight_functional_B(f: TestingFunction, R: float, sigma: float, t: float, geometry: Geometry) -> float:
    """Weight integral B(t) of f**2/f' over the sound cone section at time t.

    Uses the closed form attached to ``f`` when present, otherwise the
    horizon rule over [0, t] (:func:`horizon_B`), the B(tau) the general
    criteria read.  A radial integrand that grows toward the origin is
    reported as divergent rather than silently truncated.
    """
    if not (R > 0 and sigma > 0 and t >= 0):
        raise ValueError("require R > 0, sigma > 0, t >= 0")
    if f.analytic_B is not None:
        return float(f.analytic_B(R, sigma, t, geometry))
    return horizon_B(f, R, sigma, t, geometry)[0]


# the horizon rule: 64 segments of 8-node Gauss-Legendre on the support of a
# bump of radius 1, [0, 1] radially and [-1, 1] in 1-D, and on the cone's
# growth the union of at least 64 segments graded geometrically and 64 of
# equal width; a geometric segment grows the cone by at most the factor
# 64 segments give at sigma*tau/R = 1e6
_SEGMENTS = 64
SUPPORT_EDGES = {True: np.linspace(0.0, 1.0, _SEGMENTS + 1), False: np.linspace(-1.0, 1.0, _SEGMENTS + 1)}
_SUPPORT_NODES = {radial: segment_nodes(edges) for radial, edges in SUPPORT_EDGES.items()}
_GRADING = np.arange(_SEGMENTS + 1) / _SEGMENTS
_MAX_LOG_GROWTH = math.log1p(1e6) / _SEGMENTS


def horizon_B(f: TestingFunction, R: float, sigma: float, tau: float, geometry: Geometry) -> tuple[float, float]:
    """(B(tau), the integral of 1/B over [0, tau]) by the horizon rule.

    The rule integrates in s = sigma*t/R, so the cone radius is
    U = R + R*s and dt = (R/sigma) ds, with 8-node Gauss-Legendre on at
    least 127 segments of [0, sigma*tau/R]: the union of the edges
    s_k = expm1((k/n) log1p(sigma*tau/R)), graded geometrically from R to
    R + sigma*tau and none the difference of two radii, and of the edges
    k*sigma*tau/(64 R).  The geometric grading has n = 64 segments up to
    sigma*tau/R = 1e6 and more past it, so that no segment grows U by
    more than a factor min(1 + sigma*tau/R, 1 + 1e6)**(1/64) or spans more
    than sigma*tau/64 of it.

    A weight with ``analytic_B`` gives B at the nodes and at tau.  Any
    other weight takes B(0) by 64 Gauss-Legendre segments over the support,
    [0, R] or [-R, R], and B at a node as B(0) plus the integral of f**2/f'
    over the cone's growth up to it (mirrored in 1-D): the whole segments
    below plus ``_GL8_RUNNING`` within its own.  B(tau) is B(0) plus every
    segment.  That is at least 1528 evaluations of f**2/f' radially and
    2544 in 1-D, in one call.  A radial integrand that grows toward the
    origin raises :class:`WeightDivergenceError`, a non-finite one
    :class:`~eulerblowup.quadrature.NonFiniteIntegrandError`; a non-finite
    sigma*tau/R or B(tau) raises OverflowError.  A B(0) that underflows to
    0 gives an infinite integral.
    """
    if not (R > 0 and sigma > 0 and tau >= 0):
        raise ValueError("require R > 0, sigma > 0, tau >= 0")
    x = sigma * tau / R
    if not x < math.inf:
        raise OverflowError(f"the cone's growth sigma*tau/R = {x!r} is not finite")
    # the quotient is at most 64, exactly, wherever x <= 1e6
    n = max(_SEGMENTS, math.ceil(math.log1p(x) / _MAX_LOG_GROWTH))
    geometric = np.expm1(np.arange(n + 1) / n * math.log1p(x))
    s = np.sort(np.concatenate((geometric, x * _GRADING[1:-1])))
    s[-1] = x
    nodes, half = segment_nodes(s)
    if f.analytic_B is not None:
        # a B past the float range is inf at the nodes; the scalar B(tau) raises
        with np.errstate(over="ignore"):
            B = _evaluate(lambda t: f.analytic_B(R, sigma, t, geometry), (R / sigma) * nodes.ravel())
        B, B_tau = B.reshape(nodes.shape), float(f.analytic_B(R, sigma, tau, geometry))
    else:
        radial = geometry.is_radial
        if radial:
            _probe_origin(f, R)
        support, support_half = _SUPPORT_NODES[radial]
        U = R + R * nodes
        xs = np.concatenate((R * support, U) if radial else (R * support, U, -U)).ravel()
        g = f.weight_integrand(xs)
        _check_finite(g, xs)
        B0 = R * float(support_half @ (g[:support.size].reshape(support.shape) @ _GL8_WEIGHTS))
        g = g[support.size:].reshape(-1, *nodes.shape)
        growth = g[0] if radial else g[0] + g[1]
        with np.errstate(over="ignore"):  # an infinite B(tau) raises below
            segments = R * half * (growth @ _GL8_WEIGHTS)
            below = np.cumsum(segments)
        B_tau = B0 + float(below[-1])
        if not math.isfinite(B_tau):
            raise OverflowError("B(tau), the integral of f**2/f' over the cone, is not finite")
        starts = np.concatenate(([0.0], below[:-1]))
        B = B0 + (starts[:, None] + (R * half)[:, None] * (growth @ _GL8_RUNNING.T))
    # a B(0) that underflows to 0 has an infinite reciprocal
    with np.errstate(divide="ignore", over="ignore"):
        integral = R / sigma * float(np.sum(half[:, None] * _GL8_WEIGHTS / B))
    return B_tau, integral


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
