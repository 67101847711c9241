"""Physical model: equation of state, geometry, scenarios, weight functions.

The fluid is an isentropic gas with pressure P = K * rho**gamma carrying a
constant far-field state (rho_bar, 0).  Initial data are compactly
supported C1 bump perturbations of that state, so every disturbance lives
inside the sound cone r <= R + sigma*t of the background sound speed
sigma.  Scenarios bundle the gas, the geometry (1-D slab or radially
symmetric in N dimensions), the bump amplitudes and the discretization,
and are the single currency passed between the solver, the analytical
blowup criteria and the verification checks.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .quadrature import integrate_segments

# ---------------------------------------------------------------------------
# Equation of state


@dataclass(frozen=True)
class EosParams:
    """Polytropic equation of state P = K * rho**gamma with background rho_bar."""

    K: float
    gamma: float
    rho_bar: float

    def __post_init__(self) -> None:
        for name in ("K", "gamma", "rho_bar"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.K > 0:
            raise ValueError("K must be positive")
        if not self.gamma >= 1:
            raise ValueError("gamma must be >= 1")
        if not self.rho_bar > 0:
            raise ValueError("rho_bar must be positive (non-vacuum background)")


def pressure(eos: EosParams, rho):
    """Pressure K * rho**gamma; rejects negative density."""
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("density must be non-negative")
    p = eos.K * r ** eos.gamma
    return float(p) if np.isscalar(rho) else p


def rho_power(rho, e: float, out=None):
    """rho ** e, with the shortcuts e == 1 -> rho and e == 2 -> rho * rho.

    pow(x, 1) is x, and rho * rho is the correctly rounded square, so it
    equals pow(rho, 2) wherever pow rounds correctly; with gamma = 2, the
    gas of every preset, neither the pressure nor the sound speed calls pow.
    Given an array ``out``, the square and the power are written there
    (``np.power`` gives the bits of ``**``); e == 1 still returns rho.
    """
    if e == 1.0:
        return rho
    if e == 2.0:
        return rho * rho if out is None else np.multiply(rho, rho, out=out)
    return rho ** e if out is None else np.power(rho, e, out=out)


def signal_speed(eos: EosParams, rho, out=None):
    """Local sound speed sqrt(P'(rho)) = sqrt(K * gamma * rho**(gamma-1)), written into ``out`` if given."""
    if out is None:
        return np.sqrt(eos.K * eos.gamma * rho_power(rho, eos.gamma - 1.0))
    np.multiply(eos.K * eos.gamma, rho_power(rho, eos.gamma - 1.0, out), out=out)
    return np.sqrt(out, out=out)


def sound_speed(eos: EosParams) -> float:
    """Background sound speed sigma = signal_speed(eos, rho_bar); needs gamma > 1."""
    if not eos.gamma > 1:
        raise ValueError("sound speed of the background state requires gamma > 1")
    return float(signal_speed(eos, eos.rho_bar))


def riemann_variable(eos: EosParams, rho):
    """Riemann-type variable 2/(gamma-1) * (sqrt(P'(rho)) - sigma).

    Vanishes identically at the background state and inherits its sign
    from rho - rho_bar.
    """
    if not eos.gamma > 1:
        raise ValueError("riemann variable requires gamma > 1")
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("density must be non-negative")
    v = 2.0 / (eos.gamma - 1.0) * (signal_speed(eos, r) - sound_speed(eos))
    return float(v) if np.isscalar(rho) else v


# ---------------------------------------------------------------------------
# Geometry and grid


def _integer(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is an
    integral number other than a bool (a numpy integer is one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Geometry:
    """Either a 1-D slab on [-L, L] or radial symmetry in N >= 1 dimensions."""

    kind: str
    ndim: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "ndim", _integer("ndim", self.ndim))
        if self.kind not in ("cartesian1d", "radial"):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.kind == "cartesian1d" and self.ndim != 1:
            raise ValueError("the 1-D slab geometry has ndim = 1")
        if self.ndim < 1:
            raise ValueError("ndim must be >= 1")

    @staticmethod
    def cartesian1d() -> "Geometry":
        return Geometry("cartesian1d", 1)

    @staticmethod
    def radial(ndim: int) -> "Geometry":
        return Geometry("radial", ndim)

    @property
    def is_radial(self) -> bool:
        return self.kind == "radial"

    def label(self) -> str:
        return f"radial{self.ndim}" if self.is_radial else "cartesian1d"


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid: [0, extent] radial, [-extent, extent] 1-D."""

    extent: float
    cells: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.extent):
            raise ValueError(f"grid extent must be finite, got {self.extent!r}")
        if not self.extent > 0:
            raise ValueError("grid extent must be positive")
        object.__setattr__(self, "cells", _integer("cells", self.cells))
        if self.cells < 16:
            raise ValueError("need at least 16 cells")

    def spacing(self, geometry: Geometry) -> float:
        width = self.extent if geometry.is_radial else 2.0 * self.extent
        return width / self.cells

    def centers(self, geometry: Geometry) -> np.ndarray:
        dx = self.spacing(geometry)
        left = 0.0 if geometry.is_radial else -self.extent
        return left + (np.arange(self.cells) + 0.5) * dx


# ---------------------------------------------------------------------------
# Initial data


@dataclass(frozen=True)
class BumpProfile:
    """Quartic C1 bump amp*(1-(x/R)**2)**2 on |x| <= R, odd-extended for velocity."""

    amp: float
    R: float
    odd: bool = False

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        y = xs / self.R
        inside = np.abs(y) <= 1.0
        if np.isscalar(x):
            return float(np.where(inside, self.amp * self._shape(y), 0.0))
        # the quartic on |x| <= R only; +0.0 elsewhere, NaN included
        vals = np.zeros_like(y)
        vals[inside] = self.amp * self._shape(y[inside])
        return vals

    def _shape(self, y):
        shape = (1.0 - y ** 2) ** 2
        return y * shape if self.odd else shape


@dataclass(frozen=True)
class DetectorParams:
    """Blowup proxy thresholds for the solver.

    ``slope_factor`` scales the background sound speed into a per-cell
    velocity jump that flags gradient blowup; ``dt_floor`` flags stalled
    time stepping; ``sample_interval`` spaces the functional time series.
    """

    slope_factor: float = 0.2
    dt_floor: float = 1e-10
    sample_interval: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.slope_factor <= 1:
            raise ValueError("slope_factor must lie in (0, 1]")
        if not self.dt_floor > 0:
            raise ValueError("dt_floor must be positive")
        if not self.sample_interval > 0:
            raise ValueError("sample_interval must be positive")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one run: gas, geometry, bump data, grid."""

    eos: EosParams
    geometry: Geometry
    R: float
    rho0: BumpProfile
    v0: BumpProfile
    grid: GridSpec
    detector: DetectorParams = field(default_factory=DetectorParams)

    @property
    def amp_rho(self) -> float:
        return self.rho0.amp

    @property
    def amp_v(self) -> float:
        return self.v0.amp

    def label(self) -> str:
        return (
            f"{self.geometry.label()}-R{self.R:g}-ar{self.amp_rho:g}"
            f"-av{self.amp_v:g}-c{self.grid.cells}"
        )


def make_bump_scenario(
    eos: EosParams,
    geometry: Geometry,
    R: float,
    amp_rho: float,
    amp_v: float,
    grid: GridSpec,
    detector: DetectorParams | None = None,
) -> Scenario:
    """Build and validate a quartic-bump scenario.

    Rejects non-finite amplitudes, initial vacuum (rho_bar + amp_rho <= 0),
    grids that do not contain the bump, grids with fewer than 16 cells
    across [0, R], and an odd cell count in 1-D, where a run steps the
    half-line behind a mirror face at x = 0.
    """
    if not R > 0:
        raise ValueError("bump radius R must be positive")
    for name, amp in (("amp_rho", amp_rho), ("amp_v", amp_v)):
        if not math.isfinite(amp):
            raise ValueError(f"{name} must be finite, got {amp!r}")
    if eos.rho_bar + min(amp_rho, 0.0) <= 0:
        raise ValueError("initial data touch vacuum: rho_bar + amp_rho must be positive")
    if not grid.extent > R:
        raise ValueError("grid extent must exceed the bump radius R")
    if R / grid.spacing(geometry) < 16:
        raise ValueError("grid too coarse: fewer than 16 cells across [0, R]")
    if not geometry.is_radial and grid.cells % 2:
        raise ValueError(f"grid.cells must be even in 1-D, where x = 0 is a cell face, got {grid.cells}")
    return Scenario(
        eos=eos,
        geometry=geometry,
        R=R,
        rho0=BumpProfile(amp_rho, R, odd=False),
        v0=BumpProfile(amp_v, R, odd=True),
        grid=grid,
        detector=detector if detector is not None else DetectorParams(),
    )


# ---------------------------------------------------------------------------
# Testing (weight) functions for the momentum functionals

RADIAL_VANISHING = "radial_vanishing"
NONNEG_INCREASING = "nonneg_increasing"
POWER_LAW = "power_law"
LINEAR = "linear"

# which weight classes may feed the general radial / 1-D criteria
RADIAL_CLASSES = (RADIAL_VANISHING, POWER_LAW, LINEAR)
CARTESIAN_CLASSES = (NONNEG_INCREASING,)

_VALIDATION_POINTS = 1000
_VALIDATION_SPAN = 10.0
# segments of the 8-node Gauss-Legendre rule the closed forms are cross-checked with
_CROSS_CHECK_SEGMENTS = 64
# half an ulp of 1: a relative correction below it is lost to rounding
_HALF_ULP = 2.0 ** -53


@dataclass(frozen=True)
class TestingFunction:
    """Strictly increasing weight f with derivative and optional closed forms.

    ``cls`` records which admissibility class the function certifies:
    weights vanishing at the origin for radial criteria, non-negative
    increasing weights for 1-D ones, and the two concrete families
    (powers and the identity) used by the sharp theorems.  ``analytic_B``
    maps (R, sigma, t, geometry) to the weight integral of f**2/f' over
    the sound cone.  ``analytic_horizon``, which needs ``analytic_B``,
    maps (R, sigma, tau, geometry) to the integral of 1/B(t) over
    [0, tau], the general criterion's horizon integral.  Both are
    cross-checked against quadrature on construction.
    """

    f: Callable
    f_prime: Callable
    cls: str
    analytic_B: Callable | None = None
    name: str = ""
    analytic_horizon: Callable | None = None

    def weight_integrand(self, x):
        """f**2/f' with the removable 0/0 at zeros of f evaluated as 0."""
        xs = np.asarray(x, dtype=float)
        # an overflowing weight gives a non-finite value its caller reports
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            num = np.asarray(self.f(xs), dtype=float) ** 2
            den = np.asarray(self.f_prime(xs), dtype=float)
            g = num / den
        g = np.where(num == 0.0, 0.0, g)
        return float(g) if np.isscalar(x) else g


def _sample_domain(cls: str) -> np.ndarray:
    if cls in RADIAL_CLASSES:
        return np.linspace(_VALIDATION_SPAN / _VALIDATION_POINTS, _VALIDATION_SPAN, _VALIDATION_POINTS)
    return np.linspace(-_VALIDATION_SPAN, _VALIDATION_SPAN, _VALIDATION_POINTS)


def _validate_testing_function(tf: TestingFunction) -> None:
    xs = _sample_domain(tf.cls)
    # an overflowing weight is reported by the checks below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        fp = np.asarray(tf.f_prime(xs), dtype=float)
        fv = np.asarray(tf.f(xs), dtype=float)
    if not np.all(np.isfinite(fp)) or not np.all(fp > 0):
        raise ValueError(f"testing function {tf.name or tf.cls}: f' must be finite and positive")
    if not np.all(np.isfinite(fv)):
        raise ValueError(f"testing function {tf.name or tf.cls}: f must be finite")
    if tf.cls in (RADIAL_VANISHING, POWER_LAW, LINEAR):
        if abs(float(tf.f(0.0))) > 1e-12:
            raise ValueError(f"testing function {tf.name or tf.cls}: f(0) must vanish")
    if tf.cls == NONNEG_INCREASING and np.any(fv < 0):
        raise ValueError(f"testing function {tf.name or tf.cls}: f must be non-negative")
    if tf.analytic_horizon is not None and tf.analytic_B is None:
        raise ValueError(f"testing function {tf.name or tf.cls}: analytic_horizon needs analytic_B")
    if tf.analytic_B is not None:
        _cross_check_analytic_B(tf)


def _cross_check_analytic_B(tf: TestingFunction) -> None:
    """B against quadrature of f**2/f' at t = 0 and 0.7, and the horizon
    integral against the quadrature of 1/B over [0, 0.7], both by 8-node
    Gauss-Legendre on 64 equal segments."""
    geoms = []
    if tf.cls in RADIAL_CLASSES:
        geoms.append(Geometry.radial(3))
    if tf.cls in CARTESIAN_CLASSES or tf.cls == LINEAR:
        geoms.append(Geometry.cartesian1d())
    R, sigma = 1.0, math.sqrt(2.0)
    for geom in geoms:
        for t in (0.0, 0.7):
            upper = R + sigma * t
            lower = 0.0 if geom.is_radial else -upper
            numeric = _integrate(tf.weight_integrand, lower, upper)
            _agree(tf, "analytic_B", float(tf.analytic_B(R, sigma, t, geom)), numeric, t, geom)
        if tf.analytic_horizon is not None:
            tau = 0.7
            numeric = _integrate(lambda s: 1.0 / np.asarray(tf.analytic_B(R, sigma, s, geom), dtype=float), 0.0, tau)
            _agree(tf, "analytic_horizon", float(tf.analytic_horizon(R, sigma, tau, geom)), numeric, tau, geom)


def _integrate(g: Callable, a: float, b: float) -> float:
    return float(integrate_segments(g, np.linspace(a, b, _CROSS_CHECK_SEGMENTS + 1)).sum())


def _agree(tf: TestingFunction, form: str, closed: float, numeric: float, t: float, geom: Geometry) -> None:
    if abs(closed - numeric) > 1e-8 * max(abs(closed), 1e-30):
        raise ValueError(
            f"testing function {tf.name or tf.cls}: {form} disagrees with "
            f"quadrature ({closed!r} vs {numeric!r} at t={t}, {geom.label()})"
        )


def _build(tf: TestingFunction) -> TestingFunction:
    # a weight whose own arithmetic fails (beta**2 underflowing to 0) is a bad weight
    try:
        _validate_testing_function(tf)
    except ArithmeticError as exc:
        raise ValueError(f"testing function {tf.name or tf.cls}: {type(exc).__name__}: {exc}") from exc
    return tf


def power_law_B(n: float, R: float, sigma: float, t, geometry):
    """Closed-form weight integral of f = x**n up to the sound cone.

    Radial geometry integrates f**2/f' over [0, R + sigma*t]; the 1-D
    geometry integrates over [-(R + sigma*t), R + sigma*t] and is defined
    for the linear weight (n = 1) only.  A scalar ``t`` gives a float, an
    array of times an array; a Python or numpy float or a Python int skips
    the array tests.
    """
    scalar = isinstance(t, (float, int))
    kind = _power_law_kind(n, R, sigma, t >= 0 if scalar else np.all(np.asarray(t) >= 0), geometry)
    array = not scalar and np.ndim(t) > 0
    upper = R + sigma * (np.asarray(t, dtype=float) if array else t)
    B = upper ** (n + 2) / (n * (n + 2)) if kind == "radial" else 2.0 * upper ** 3 / 3.0
    return B if array else float(B)


def power_law_horizon(n: float, R: float, sigma: float, tau: float, geometry) -> float:
    """Closed-form integral of 1/B(t) over [0, tau] for f = x**n, B as in
    :func:`power_law_B`, at a scalar ``tau``.

    With x = sigma*tau/R it is n(n+2)/((n+1) sigma R**(n+1)) times
    1 - (1+x)**-(n+1) radially, and 3/(4 sigma R**2) times 1 - (1+x)**-2 in
    1-D.  Each 1 - (1+x)**-k is evaluated as -expm1(-k log1p(x)), which has
    no cancellation at small tau.  Where (k+1) x/2, the relative size of its
    next term, is below half an ulp, the integral is tau/B(0) to rounding:
    scale * k * sigma times tau/R, which keeps full precision where
    sigma*tau is subnormal.
    """
    kind = _power_law_kind(n, R, sigma, tau >= 0, geometry)
    k = n + 1 if kind == "radial" else 2
    scale = n * (n + 2) / (k * sigma * R ** k) if kind == "radial" else 3.0 / (4.0 * sigma * R ** 2)
    x = sigma * tau / R
    if (k + 1) * x / 2.0 < _HALF_ULP:
        return scale * k * sigma * (tau / R)
    return scale * -math.expm1(-k * math.log1p(x))


def _power_law_kind(n: float, R: float, sigma: float, t_ok, geometry) -> str:
    """The geometry kind of a power-law closed form, after checking its arguments."""
    if n <= 0:
        raise ValueError("power-law exponent must be positive")
    if not (R > 0 and sigma > 0 and t_ok):
        raise ValueError("require R > 0, sigma > 0, t >= 0")
    kind = getattr(geometry, "kind", geometry)
    if kind == "cartesian1d" and n != 1:
        raise ValueError("1-D closed form is defined for the linear weight only")
    if kind not in ("radial", "cartesian1d"):
        raise ValueError(f"unknown geometry {geometry!r}")
    return kind


# the built-in weights are pure functions of their arguments; each is built
# (and its closed form cross-checked) once per process
_WEIGHT_CACHE = 16


@functools.lru_cache(maxsize=_WEIGHT_CACHE, typed=True)
def power_law(n: float) -> TestingFunction:
    """Weight f(r) = r**n for the radial momentum functionals."""
    if n <= 0:
        raise ValueError("power-law exponent must be positive")

    def f(x):
        return np.asarray(x, dtype=float) ** n

    def f_prime(x):
        return n * np.asarray(x, dtype=float) ** (n - 1.0)

    def analytic_B(R, sigma, t, geometry):
        return power_law_B(n, R, sigma, t, geometry)

    def analytic_horizon(R, sigma, tau, geometry):
        return power_law_horizon(n, R, sigma, tau, geometry)

    return _build(
        TestingFunction(f, f_prime, POWER_LAW, analytic_B=analytic_B, name=f"r^{n:g}",
                        analytic_horizon=analytic_horizon)
    )


@functools.lru_cache(maxsize=_WEIGHT_CACHE)
def linear() -> TestingFunction:
    """The identity weight, admissible in both geometries: the power law of
    exponent 1, whose f, f' and closed forms it takes."""
    return _build(replace(power_law(1.0), cls=LINEAR, name="x"))


@functools.lru_cache(maxsize=_WEIGHT_CACHE, typed=True)
def exponential(beta: float = 1.0) -> TestingFunction:
    """Weight f(x) = exp(beta*x), a positive increasing weight for 1-D criteria."""
    if beta <= 0:
        raise ValueError("beta must be positive")

    # past x = 709/beta the weight is inf, which its callers report; a float
    # well inside the range skips the errstate, which costs more than the exp
    def f(x):
        if isinstance(x, float) and beta * x < 709.0:
            return np.exp(beta * x)
        with np.errstate(over="ignore"):
            return np.exp(beta * np.asarray(x, dtype=float))

    def f_prime(x):
        # beta * f is inf, without a warning, where f is finite and it is not
        with np.errstate(over="ignore"):
            return beta * f(x)

    def analytic_B(R, sigma, t, geometry):
        if getattr(geometry, "is_radial", False):
            raise ValueError("exponential weight is for the 1-D geometry")
        if np.ndim(t) == 0:
            upper = R + sigma * t
            return 2.0 * math.sinh(beta * upper) / beta ** 2
        # an array overflows as math.sinh does on a scalar: with OverflowError
        with np.errstate(over="ignore"):
            sinh = np.sinh(beta * (R + sigma * np.asarray(t, dtype=float)))
        if np.isinf(sinh).any():
            raise OverflowError("math range error")
        return 2.0 * sinh / beta ** 2

    def analytic_horizon(R, sigma, tau, geometry):
        # the integral of beta**2/(2 sinh(beta*U)) is beta/(2 sigma) times the
        # log of tanh(beta*U/2)/tanh(beta*R/2), which is log1p of this ratio;
        # it is tau/B(0) to rounding where its next term, relatively
        # beta*sigma*tau*coth(beta*R)/2 <= sigma*tau*(beta + 1/R)/2, is below
        # half an ulp, which keeps full precision where sigma*tau is subnormal
        if getattr(geometry, "is_radial", False):
            raise ValueError("exponential weight is for the 1-D geometry")
        if sigma * tau * (beta + 1.0 / R) / 2.0 < _HALF_ULP:
            return tau / analytic_B(R, sigma, 0.0, geometry)
        U = R + sigma * tau
        ratio = -2.0 * math.expm1(-beta * sigma * tau) / (math.expm1(beta * R) * (1.0 + math.exp(-beta * U)))
        return beta / (2.0 * sigma) * math.log1p(ratio)

    return _build(
        TestingFunction(f, f_prime, NONNEG_INCREASING, analytic_B=analytic_B, name=f"exp({beta:g}x)",
                        analytic_horizon=analytic_horizon)
    )


def radial_vanishing(f: Callable, f_prime: Callable, analytic_B: Callable | None = None, name: str = "") -> TestingFunction:
    """Wrap a custom strictly increasing weight with f(0) = 0 for radial use."""
    return _build(TestingFunction(f, f_prime, RADIAL_VANISHING, analytic_B=analytic_B, name=name))


def nonneg_increasing(f: Callable, f_prime: Callable, analytic_B: Callable | None = None, name: str = "") -> TestingFunction:
    """Wrap a custom non-negative strictly increasing weight for 1-D use."""
    return _build(TestingFunction(f, f_prime, NONNEG_INCREASING, analytic_B=analytic_B, name=name))
