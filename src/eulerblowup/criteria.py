"""Analytical blowup criteria for compactly supported non-vacuum bump data.

Each check compares an initial weighted momentum H(0) against a finite
threshold built from the gas constants, the bump radius R, the background
sound speed and a time horizon tau.  A satisfied criterion certifies that
the smooth solution breaks down before tau (or in finite time for the
horizon-free variant).  Thresholds come in two flavors: closed forms for
the concrete weights (powers of r, the identity) and quadrature-based
ones for general strictly increasing weights.

Comparisons are exact float comparisons with the strictness each
criterion actually claims; margins are always reported so near-boundary
cases are visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from .functionals import (
    SUPPORT_EDGES,
    FieldSnapshot,
    SeriesRecorder,
    _band,
    cone_band_upper,
    horizon_B,
    mass_functional,
    momentum_functional,
    weight_functional_B,
)
from .model import (
    CARTESIAN_CLASSES,
    RADIAL_CLASSES,
    BumpProfile,
    EosParams,
    Geometry,
    Scenario,
    TestingFunction,
    linear,
    power_law,
    sound_speed,
)
from .quadrature import NonFiniteIntegrandError, integrate_samples, integrate_segments

# resolved theorem families
GENERAL_RADIAL = "general_radial"
GENERAL_1D = "general_1d"
POWER_RADIAL_CASE1 = "power_radial_case1"
POWER_RADIAL_CASE2 = "power_radial_case2"
LINEAR_1D_INFINITE = "linear_1d_infinite"
LINEAR_1D_TAU_CASE1 = "linear_1d_tau_case1"
LINEAR_1D_TAU_CASE2 = "linear_1d_tau_case2"

# family groups accepted by the API and the CLI (see FAMILY_GROUPS)
FAMILY_GENERAL_RADIAL = "general-radial"
FAMILY_GENERAL_1D = "general-1d"
FAMILY_POWER_RADIAL = "power-radial"
FAMILY_LINEAR_1D_TAU = "linear-1d-tau"
FAMILY_LINEAR_1D = "linear-1d"


class HorizonRangeError(ValueError):
    """A horizon tau a criterion cannot evaluate: not a positive finite
    float, too small for its horizon integral, or where its values leave
    the float range."""


def _overflow(quantity: str, family: str, tau: float) -> HorizonRangeError:
    """The error for an OverflowError of Python float arithmetic in a tau-dependent quantity."""
    return HorizonRangeError(
        f"criterion values are not finite at tau={tau:g}: {quantity} of the {family} criterion overflows"
    )


def _holds(lhs: float, rhs: float, op: str) -> bool:
    """One condition's comparison, exact as claimed."""
    return lhs > rhs if op == ">" else lhs >= rhs


def _certified(rows: tuple | None) -> bool:
    """The verdict rule: a criterion certifies exactly when its theorem
    covers the data and every condition row (name, lhs, rhs, op) holds."""
    return rows is not None and all(_holds(lhs, rhs, op) for _, lhs, rhs, op in rows)


@dataclass(frozen=True)
class Condition:
    """One inequality of a criterion, compared exactly as claimed."""

    name: str
    lhs: float
    rhs: float
    op: str  # ">" or ">="

    @property
    def satisfied(self) -> bool:
        return _holds(self.lhs, self.rhs, self.op)

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "op": self.op,
            "satisfied": self.satisfied,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class Verdict:
    kind: str  # "blowup_before" | "blowup_finite" | "inconclusive"
    tau: float | None = None
    reason: str | None = None

    @staticmethod
    def blowup_before(tau: float) -> "Verdict":
        return Verdict("blowup_before", tau=float(tau))

    @staticmethod
    def blowup_finite() -> "Verdict":
        return Verdict("blowup_finite")

    @staticmethod
    def inconclusive(reason: str) -> "Verdict":
        return Verdict("inconclusive", reason=reason)

    @property
    def certifies_blowup(self) -> bool:
        return self.kind in ("blowup_before", "blowup_finite")

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.tau is not None:
            d["tau"] = self.tau
        if self.reason is not None:
            d["reason"] = self.reason
        return d


@dataclass
class CriterionReport:
    theorem: str
    inputs: dict
    conditions: list
    verdict: Verdict
    notes: list = dc_field(default_factory=list)

    @property
    def margins(self) -> dict:
        return {c.name: c.margin for c in self.conditions}

    @property
    def threshold(self) -> float:
        """The H(0) the criterion needs: a closed form's threshold, a general
        family's combined threshold, NaN where no threshold applies."""
        return self.inputs.get("threshold", self.inputs.get("combined_threshold", math.nan))

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "conditions": [c.to_dict() for c in self.conditions],
            "verdict": self.verdict.to_dict(),
            "margins": self.margins,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Closed-form thresholds and root constants


def power_radial_case1_threshold(N: int, R: float, sigma: float, tau: float) -> float:
    """Strict H threshold for the power-weight radial criterion, non-negative mass."""
    U = R + sigma * tau
    gap = U ** (N + 1) - R ** (N + 1)  # 0 when R + sigma*tau rounds to R: no finite threshold
    return 2.0 * sigma * R ** (N + 1) * U ** (N + 1) / (N * gap) if gap else math.inf


def power_radial_case2_a(N: int, K: float, m1_0: float, R: float, sigma: float, tau: float) -> float:
    """Root constant a > 2 balancing the negative-mass drag for the radial case."""
    U = R + sigma * tau
    gap = U ** (N + 1) - R ** (N + 1)
    rad = 1.0 - 4.0 * N ** 2 * K * m1_0 * gap ** 2 / ((N + 1) * sigma ** 2 * R ** (2 * N + 2) * U ** N)
    return 1.0 + math.sqrt(rad)


def power_radial_case2_threshold(a: float, N: int, R: float, sigma: float, tau: float) -> float:
    return 0.5 * a * power_radial_case1_threshold(N, R, sigma, tau)


def power_radial_root_residual(
    a: float, N: int, K: float, m1_0: float, R: float, sigma: float, tau: float
) -> float:
    """Relative residual of the equation the case-2 root constant solves."""
    U = R + sigma * tau
    lhs = power_radial_case2_threshold(a, N, R, sigma, tau)
    rhs = math.sqrt(-4.0 * a * K * m1_0 * U ** (N + 2) / ((a - 2.0) * (N + 1)))
    return (lhs - rhs) / rhs


def linear_1d_threshold(R: float, sigma: float) -> float:
    """Strict H threshold for the horizon-free 1-D criterion."""
    return 8.0 * sigma * R ** 2 / 3.0


def linear_tau_case1_threshold(R: float, sigma: float, tau: float) -> float:
    U = R + sigma * tau
    return 8.0 * R ** 2 * U ** 2 / (3.0 * tau * (2.0 * R + sigma * tau))


def linear_tau_case2_a(K: float, m2_0: float, R: float, sigma: float, tau: float) -> float:
    """Root constant a > 4/3 balancing the negative-mass drag in 1-D."""
    U = R + sigma * tau
    rad = 4.0 / 9.0 - 6.0 * K * m2_0 * tau ** 2 * (2.0 * R + sigma * tau) ** 2 / (9.0 * R ** 4 * U)
    return 2.0 / 3.0 + math.sqrt(rad)


def linear_tau_case2_threshold(a: float, R: float, sigma: float, tau: float) -> float:
    U = R + sigma * tau
    return 2.0 * a * R ** 2 * U ** 2 / (tau * (2.0 * R + sigma * tau))


def linear_tau_root_residual(
    a: float, K: float, m2_0: float, R: float, sigma: float, tau: float
) -> float:
    U = R + sigma * tau
    lhs = linear_tau_case2_threshold(a, R, sigma, tau)
    rhs = math.sqrt(-8.0 * a * K * m2_0 * U ** 3 / (3.0 * a - 4.0))
    return (lhs - rhs) / rhs


def _barrier(eos: EosParams) -> float:
    # enthalpy of the background state, K gamma/(gamma-1) rho_bar**(gamma-1)
    return eos.K * eos.gamma / (eos.gamma - 1.0) * eos.rho_bar ** (eos.gamma - 1.0)


def general_condition_thresholds(
    f: TestingFunction,
    a: float,
    eos: EosParams,
    R: float,
    tau: float,
    geometry: Geometry,
) -> tuple[float, float]:
    """(strict, horizon) H(0) thresholds of the general-weight criterion.

    The strict threshold makes the pressure-barrier inequality hold at
    B(tau).  The horizon threshold is the reciprocal of the time integral
    of 1/(a*B) over [0, tau], that is ``a`` over the integral of 1/B.

    - A weight with ``analytic_horizon`` (the built-in x**n, x and
      exp(beta*x)) takes that integral in closed form, exact to rounding
      at every horizon, and B(tau) from ``analytic_B``.
    - Any other weight takes it by one fixed Gauss-Legendre rule,
      :func:`~eulerblowup.functionals.horizon_B`: at least 127 segments of
      8 nodes on the cone radius R + sigma*t, the union of at least 64
      graded geometrically from R to R + sigma*tau and 64 of equal width.
      B at the nodes is ``analytic_B``'s where there is one, else B(0)
      plus the running integral of f**2/f' over the cone's growth, and so
      is B(tau).  On the built-in weights with their closed forms removed
      it is within 1e-13 relative of them.

    A tau that is not a positive finite float raises HorizonRangeError
    before any B is computed, on either path.  So does a B or horizon
    integral past the float range, or a weight that overflows on the cone.
    """
    _check_horizon(tau, FAMILY_GENERAL_RADIAL if geometry.is_radial else FAMILY_GENERAL_1D)
    return _horizon_side(f, a, eos, R, tau, geometry, sound_speed(eos))[1:]


# ---------------------------------------------------------------------------
# Criterion checks


def _horizon_side(
    f: TestingFunction, a: float, eos: EosParams, R: float, tau: float, geometry: Geometry, sigma: float
) -> tuple[float, float, float]:
    """(B(tau), strict, horizon) of the general criterion at a positive finite
    tau and the background sound speed sigma; see general_condition_thresholds.

    A closed-form horizon integral reads B(tau) from
    :func:`weight_functional_B`; any other weight reads B(tau) and the
    integral of 1/B from one :func:`horizon_B`.
    """
    family = FAMILY_GENERAL_RADIAL if geometry.is_radial else FAMILY_GENERAL_1D
    try:
        if f.analytic_horizon is None:
            B_tau, integral = horizon_B(f, R, sigma, tau, geometry)
        else:
            B_tau = weight_functional_B(f, R, sigma, tau, geometry)
    except (OverflowError, NonFiniteIntegrandError) as exc:
        raise _overflow("B_tau", family, tau) from exc
    U = R + sigma * tau
    strict = math.sqrt(2.0 * a / (a - 2.0) * B_tau * _barrier(eos) * float(f.f(U)))
    if f.analytic_horizon is not None:
        try:
            # the integral of 1/B overflows where R**(n+1) underflows
            integral = float(f.analytic_horizon(R, sigma, tau, geometry))
        except ArithmeticError as exc:
            raise _overflow("horizon integral", family, tau) from exc
    if not math.isfinite(integral):
        raise _overflow("horizon integral", family, tau)
    # a zero integral is an infinite threshold, which the CLI rejects as an overflow
    return B_tau, strict, a / integral if integral else math.inf


def _check_horizon(tau: float, family: str) -> None:
    """HorizonRangeError unless tau is a positive finite float."""
    if not 0 < tau < math.inf:
        raise HorizonRangeError(f"the {family} criterion needs a positive finite horizon, got tau={tau:g}")


@dataclass(frozen=True)
class _ClosedForm:
    """How one closed-form family resolves to its case-1 or case-2 theorem.

    Case 1 (non-negative perturbed mass) compares H(0) against
    ``threshold(N, R, sigma, tau)`` with ``op``.  Case 2 (gamma = 2,
    negative mass) raises that bar through the root constant
    ``root(N, K, m0, R, sigma, tau)``, admissible above ``a_min``: its
    threshold is ``case2_threshold(a, N, R, sigma, tau)``.  A family with
    no case 2 states non-negative mass as a condition of case 1.
    ``weight(geometry)`` is the weight both cases integrate against.
    """

    name: str  # as error messages name the criterion
    case1: str
    case2: str | None
    weight: Callable[[Geometry], TestingFunction]
    threshold: Callable[..., float]
    op: str
    condition: str
    shortfall: str  # inconclusive reason of case 1
    equality_note: str  # note when H(0) sits on a strict threshold
    root: Callable[..., float] | None = None
    a_min: float | None = None
    case2_threshold: Callable[..., float] | None = None


_STRICT_NOTE = "H(0) sits exactly on the strict threshold"
# a general family's inconclusive reason where it is not "condition <name> not met"
_GENERAL_REASONS = {"initial_momentum_positive": "initial weighted momentum is not positive"}

# name, theorems, weight; case-1 threshold, operator and condition; shortfall
# reason and equality note; case-2 root constant, its bound and threshold
_POWER_RADIAL = _ClosedForm(
    "power-weight", POWER_RADIAL_CASE1, POWER_RADIAL_CASE2, lambda geometry: power_law(geometry.ndim),
    power_radial_case1_threshold, ">", "initial_momentum_exceeds_threshold",
    "initial momentum does not exceed the threshold",
    "H(0) sits exactly on the threshold: the strict form does not certify, the non-strict variant would",
    power_radial_case2_a, 2.0, power_radial_case2_threshold,
)
_LINEAR_1D_TAU = _ClosedForm(
    "horizon", LINEAR_1D_TAU_CASE1, LINEAR_1D_TAU_CASE2, lambda geometry: linear(),
    lambda N, R, sigma, tau: linear_tau_case1_threshold(R, sigma, tau), ">=",
    "initial_momentum_meets_threshold",
    "initial momentum below the horizon threshold", _STRICT_NOTE,
    lambda N, K, m0, R, sigma, tau: linear_tau_case2_a(K, m0, R, sigma, tau), 4.0 / 3.0,
    lambda a, N, R, sigma, tau: linear_tau_case2_threshold(a, R, sigma, tau),
)
_LINEAR_1D = _ClosedForm(
    "horizon-free", LINEAR_1D_INFINITE, None, lambda geometry: linear(),
    lambda N, R, sigma, tau: linear_1d_threshold(R, sigma), ">", "initial_momentum_exceeds_threshold",
    "requires non-negative perturbed mass and momentum above the threshold", _STRICT_NOTE,
)


# ---------------------------------------------------------------------------
# Family groups


@dataclass(frozen=True)
class FamilyGroup:
    """A criterion family as the API and the CLI name it.

    ``radial`` is the geometry its theorems are stated for, ``horizon``
    whether the verdict depends on tau, and ``default`` marks the family
    that simulate and verify monitor on that geometry when none is named.
    A closed-form family resolves through its ``closed_form`` row and fixes
    its own weight; a general family has no row and takes the caller's.
    """

    radial: bool
    horizon: bool
    default: bool = False
    closed_form: _ClosedForm | None = None


FAMILY_GROUPS = {
    FAMILY_GENERAL_RADIAL: FamilyGroup(True, True),
    FAMILY_GENERAL_1D: FamilyGroup(False, True),
    FAMILY_POWER_RADIAL: FamilyGroup(True, True, True, _POWER_RADIAL),
    FAMILY_LINEAR_1D_TAU: FamilyGroup(False, True, closed_form=_LINEAR_1D_TAU),
    FAMILY_LINEAR_1D: FamilyGroup(False, False, True, _LINEAR_1D),
}
FAMILIES = tuple(FAMILY_GROUPS)


def default_family(geometry: Geometry) -> str:
    """The closed-form family monitored on a geometry when none is named."""
    return next(n for n, g in FAMILY_GROUPS.items() if g.default and g.radial == geometry.is_radial)


# ---------------------------------------------------------------------------
# Prepared criteria


def _unit_integral(profile: BumpProfile, weight: Callable, geometry: Geometry) -> float:
    """The integral of ``weight`` times ``profile`` at amplitude 1 over its
    support, [0, R] radially and [-R, R] in 1-D, by 8-node Gauss-Legendre on
    64 segments: exact to rounding for a polynomial weight against the
    quartic bump."""
    unit = replace(profile, amp=1.0)
    # the nodes lie inside the support, where a BumpProfile is its shape;
    # a subclass may override __call__
    shape = (lambda x: unit._shape(x / unit.R)) if type(unit) is BumpProfile else unit
    return float(integrate_segments(lambda x: weight(x) * shape(x), unit.R * SUPPORT_EDGES[geometry.is_radial]).sum())


def _profile_key(s: Scenario) -> tuple | None:
    """What the unit integrals read besides the weight: the geometry and both
    profiles up to their amplitudes.  None for a BumpProfile subclass, whose
    shape may read more than R and parity."""
    if type(s.v0) is BumpProfile and type(s.rho0) is BumpProfile:
        return s.geometry, s.v0.R, s.v0.odd, s.rho0.R, s.rho0.odd
    return None


class PreparedCriterion:
    """One criterion family on one scenario; build it with :func:`prepare`.

    A check compares the data side H(0), m(0), fixed by the scenario and
    the weight, against the horizon side, thresholds fixed by the gas, R,
    the geometry, the weight, ``a`` and tau.  The data side is the
    theorems' integrals of the continuous initial data, which do not read
    the grid: H(0) = amp_v * h with h the integral of the weight against
    v0 at amplitude 1, and m(0) = amp_rho * m1 with m1 that of r**(N-1)
    (1 in 1-D) against rho0 at amplitude 1 (see :func:`_unit_integral`).
    ``units = (h, m1)`` is computed once and kept by :meth:`with_scenario`
    while the geometry and both profiles up to their amplitudes are
    unchanged.  The horizon side is computed once per tau into
    ``horizons``.  ``weight`` is the weight H(0) integrates against: a
    closed form's own, else ``f``.
    """

    def __init__(
        self, scenario: Scenario, family: str, f: TestingFunction | None, a: float, horizons: dict,
        units: tuple[float, float] | None = None,
    ):
        group = FAMILY_GROUPS[family]
        row = group.closed_form
        eos, geom = scenario.eos, scenario.geometry
        if geom.is_radial != group.radial:
            where = "radial geometry" if group.radial else "the 1-D geometry"
            raise ValueError(f"the {row.name if row else family} criterion applies to {where}")
        if row is not None:
            # a closed form takes no weight and ignores a: case 2 solves for its own
            if f is not None:
                raise ValueError("closed-form families fix their own weight; drop the weight")
            if not eos.gamma >= 2:
                raise ValueError(f"the {row.name} criterion requires gamma >= 2")
            weight = row.weight(geom)
        else:
            if f is None:
                raise ValueError("the general families need an explicit weight function")
            if not eos.gamma > 1:
                raise ValueError("the general criterion requires gamma > 1")
            if not a > 2:
                raise ValueError("the trade-off constant a must exceed 2")
            if a == math.inf:
                raise ValueError("the trade-off constant a must be finite")
            admissible = RADIAL_CLASSES if geom.is_radial else CARTESIAN_CLASSES
            if f.cls not in admissible:
                raise ValueError(f"weight class {f.cls!r} is not admissible for {geom.label()} geometry")
            weight = f
        self.family, self.f, self.a, self.weight = family, f, a, weight
        self.group, self.horizons = group, horizons
        self.sigma = sound_speed(eos)
        if units is None:
            try:
                h = _unit_integral(scenario.v0, weight.f, geom)
            except NonFiniteIntegrandError as exc:  # the weight overflows on the support
                raise OverflowError(f"the initial weighted momentum H0 is not finite: {exc}") from exc
            measure = (lambda r: r ** (geom.ndim - 1)) if geom.is_radial else np.ones_like
            units = h, _unit_integral(scenario.rho0, measure, geom)
        self.units = units
        self._take_amplitudes(scenario)

    def _take_amplitudes(self, scenario: Scenario) -> None:
        h, m1 = self.units
        self.scenario, self.H0, self.m0 = scenario, scenario.amp_v * h, scenario.amp_rho * m1
        if not math.isfinite(self.H0):
            raise OverflowError(
                f"the initial weighted momentum H0 is not finite: amp_v={scenario.amp_v:g} times h={h:g}"
            )

    def with_scenario(self, scenario: Scenario) -> "PreparedCriterion":
        """This criterion on another scenario, keeping what the change leaves valid.

        ``units`` is kept while :func:`_profile_key` compares equal, and
        ``horizons`` while the gas, R and the geometry do (their floats are
        validated positive).  The grid is read by neither.  Where both
        hold, the result is a copy with H(0) and m(0) rescaled, one
        multiply each: every check of ``__init__`` reads fields that did
        not change.
        """
        old = self.scenario
        same_horizon = (scenario.eos, scenario.R, scenario.geometry) == (old.eos, old.R, old.geometry)
        key = _profile_key(scenario)
        same_units = key is not None and key == _profile_key(old)
        if same_horizon and same_units:
            moved = object.__new__(PreparedCriterion)  # a shallow copy, a quarter of copy.copy's cost
            moved.__dict__.update(self.__dict__)
            moved._take_amplitudes(scenario)
            return moved
        horizons = self.horizons if same_horizon else {}
        return PreparedCriterion(scenario, self.family, self.f, self.a, horizons, self.units if same_units else None)

    def report(self, tau: float = 1.0) -> CriterionReport:
        """The criterion at horizon ``tau``, which must be positive and
        finite, also for the horizon-free family that never reads it.

        It certifies exactly when :meth:`certifies` does.  Otherwise a
        general family names its first condition that fails, and a closed
        form gives its theorem's reason.
        """
        theorem, rows, a, notes = self._decide(tau)
        conds = [Condition(*r) for r in rows or ()]
        geom, row = self.scenario.geometry, self.group.closed_form
        if row is None:
            B_tau, strict, horizon = self._horizon(tau)
            inputs = {
                "geometry": geom.label(),
                "weight": self.f.name or self.f.cls,
                "a": self.a,
                "tau": tau,
                "sigma": self.sigma,
                "H0": self.H0,
                "B_tau": B_tau,
                "strict_threshold": strict,
                "horizon_threshold": horizon,
                "combined_threshold": max(strict, horizon),
            }
        else:
            inputs = {
                "geometry": geom.label(),
                "N": geom.ndim if geom.is_radial else None,
                "tau": tau if self.group.horizon else None,
                "sigma": self.sigma,
                "H0": self.H0,
                "m0": self.m0,
                "a": a,
                "threshold": conds[-1].rhs if conds else math.nan,
            }
            # keys that do not apply to this family or case are left out
            inputs = {k: v for k, v in inputs.items() if v is not None}
        if _certified(rows):
            verdict = Verdict.blowup_before(tau) if self.group.horizon else Verdict.blowup_finite()
        elif row is None:
            failed = next(c.name for c in conds if not c.satisfied)
            verdict = Verdict.inconclusive(_GENERAL_REASONS.get(failed, f"condition {failed} not met"))
        elif rows is None:
            verdict = Verdict.inconclusive("negative perturbed mass is only covered for gamma = 2")
        else:
            case1 = theorem == row.case1
            verdict = Verdict.inconclusive(row.shortfall if case1 else "negative-mass threshold not exceeded")
        return CriterionReport(theorem, inputs, conds, verdict, notes)

    def certifies(self, tau: float = 1.0) -> bool:
        """Whether ``report(tau)`` certifies blowup, read without building the report."""
        return _certified(self._decide(tau)[1])

    def _decide(self, tau: float) -> tuple[str, tuple | None, float | None, list]:
        """(theorem, rows, a, notes) at horizon ``tau``, which is checked first.

        ``rows`` are the theorem's conditions as (name, lhs, rhs, op), None
        where the data fall outside every case, and the verdict certifies
        exactly when all of them hold.  ``a`` is a closed form's case-2 root
        constant, else None, and ``notes`` the report's notes.
        """
        _check_horizon(tau, self.family)
        H0, row = self.H0, self.group.closed_form
        if row is None:
            _, strict, horizon = self._horizon(tau)
            theorem = GENERAL_RADIAL if self.scenario.geometry.is_radial else GENERAL_1D
            rows = (
                ("initial_momentum_positive", H0, 0.0, ">"),
                ("pressure_barrier_strict", H0, strict, ">"),
                ("horizon_budget", H0, horizon, ">="),
            )
            return theorem, rows, None, []
        if not self.group.horizon:
            tau = None
        s, m0 = self.scenario, self.m0
        if row.case2 is None or m0 >= 0.0:
            theorem, a, notes = row.case1, None, []
            rows = ((row.condition, H0, self._horizon(tau), row.op),)
            if row.case2 is None:
                rows = (("perturbed_mass_nonnegative", m0, 0.0, ">="),) + rows
        elif s.eos.gamma != 2.0:
            return row.case2, None, None, []
        else:
            N, R, sigma = s.geometry.ndim, s.R, self.sigma
            try:
                # the root raises first: it takes the powers the threshold takes, or larger
                a = row.root(N, s.eos.K, m0, R, sigma, tau)
            except OverflowError as exc:
                raise _overflow("a", self.family, tau) from exc
            theorem, notes = row.case2, []
            rows = (
                ("root_constant_admissible", a, row.a_min, ">"),
                ("initial_momentum_exceeds_threshold", H0, row.case2_threshold(a, N, R, sigma, tau), ">"),
            )
            if a == row.a_min:
                notes.append(f"root constant degenerates to the admissibility boundary a = {row.a_min:g}")
        if H0 == rows[-1][2] and rows[-1][3] == ">":
            notes.append(row.equality_note)
        return theorem, rows, a, notes

    def _horizon(self, tau: float | None):
        # (B(tau), strict, horizon) of a general family, a closed form's case-1 threshold
        if tau not in self.horizons:
            s = self.scenario
            row = self.group.closed_form
            if row is None:
                side = _horizon_side(self.f, self.a, s.eos, s.R, tau, s.geometry, self.sigma)
            else:
                try:
                    side = row.threshold(s.geometry.ndim, s.R, self.sigma, tau)
                except OverflowError as exc:
                    raise _overflow("threshold", self.family, tau) from exc
            self.horizons[tau] = side
        return self.horizons[tau]


def prepare(
    scenario: Scenario,
    family: str,
    f: TestingFunction | None = None,
    a: float = 4.0,
) -> PreparedCriterion:
    """Run a named family's tau-independent checks on a scenario and compute its
    data side: the family, the geometry, the weight (required by the general
    families, refused by the closed forms), gamma, then a general family's ``a``
    and weight class."""
    if family not in FAMILY_GROUPS:
        raise ValueError(f"unknown criterion family {family!r}")
    return PreparedCriterion(scenario, family, f, a, {})


def run_family_check(
    scenario: Scenario,
    family: str,
    tau: float = 1.0,
    f: TestingFunction | None = None,
    a: float = 4.0,
) -> CriterionReport:
    """Dispatch one of the named criterion families."""
    return prepare(scenario, family, f, a).report(tau)


def check_general(scenario: Scenario, f: TestingFunction, a: float = 4.0, tau: float = 1.0) -> CriterionReport:
    """General-weight criterion: certify breakdown before tau.

    Needs gamma > 1, a finite a > 2, a weight admissible for the geometry,
    and a positive initial weighted momentum.
    """
    family = FAMILY_GENERAL_RADIAL if scenario.geometry.is_radial else FAMILY_GENERAL_1D
    return prepare(scenario, family, f, a).report(tau)


def check_power_radial(scenario: Scenario, tau: float = 1.0) -> CriterionReport:
    """Power-weight radial criterion: certify breakdown before tau.

    Case 1 needs gamma >= 2 with non-negative perturbed mass; case 2
    covers gamma = 2 with negative perturbed mass through the root
    constant a.
    """
    return prepare(scenario, FAMILY_POWER_RADIAL).report(tau)


def check_linear_1d(scenario: Scenario) -> CriterionReport:
    """Horizon-free 1-D criterion: certify breakdown in finite time."""
    return prepare(scenario, FAMILY_LINEAR_1D).report()


def check_linear_1d_tau(scenario: Scenario, tau: float = 1.0) -> CriterionReport:
    """Horizon 1-D criterion: certify breakdown before tau.

    Case 1 (non-negative perturbed mass, gamma >= 2) uses a non-strict
    comparison; case 2 (gamma = 2, negative mass) is strict with the root
    constant a.
    """
    return prepare(scenario, FAMILY_LINEAR_1D_TAU).report(tau)


# ---------------------------------------------------------------------------
# Minimal certifying horizon


def minimal_tau(
    scenario: Scenario,
    family: str,
    f: TestingFunction | None = None,
    a: float = 4.0,
    tau_lo: float = 1e-3,
    tau_hi: float = 1e3,
    rtol: float = 1e-6,
    scan_points: int = 64,
) -> float | None:
    """Smallest horizon in [tau_lo, tau_hi] the family certifies, or None.

    Scans ``scan_points >= 2`` log-spaced horizons upward, stops at the
    first that certifies, and bisects the bracket below it to relative
    precision ``rtol`` in (0, 1), or to adjacent floats.  The criteria are
    sufficient conditions only: for a general weight the certifying
    horizons form a window, not an upper tail, so no horizon past the
    first certifying one is probed.  A window narrower than the grid
    spacing can be missed.  The bounds must be finite with
    0 < tau_lo < tau_hi.  The family is prepared once for every probe,
    and a probe reads only whether the criterion certifies
    (:meth:`PreparedCriterion.certifies`).

    Every family's threshold is positive, so an H(0) <= 0 returns None
    before any probe.  A general family's strict threshold grows with tau,
    as B(tau) and f(R + sigma*tau) do, so the scan returns None at the
    first horizon where the strict condition fails: no later one certifies.
    """
    if family not in FAMILY_GROUPS or not FAMILY_GROUPS[family].horizon:
        raise ValueError(f"family {family!r} does not take a horizon")
    if not (math.isfinite(tau_lo) and math.isfinite(tau_hi)):
        raise ValueError("the horizon bounds must be finite")
    if not 0 < tau_lo < tau_hi:
        raise ValueError("the horizon bounds must satisfy 0 < tau_lo < tau_hi")
    if not 0 < rtol < 1:
        raise ValueError("rtol must lie in (0, 1)")
    if scan_points < 2:
        raise ValueError("scan_points must be at least 2")
    prepared = prepare(scenario, family, f, a)
    H0 = prepared.H0
    if not H0 > 0:
        return None
    general = FAMILY_GROUPS[family].closed_form is None
    grid = np.geomspace(tau_lo, tau_hi, scan_points).tolist()
    for first, tau in enumerate(grid):
        if prepared.certifies(tau):
            break
        if general and not H0 > prepared.horizons[tau][1]:  # the strict condition fails from here on
            return None
    else:
        return None
    if first == 0:
        return grid[0]
    lo, hi = grid[first - 1], grid[first]
    while (hi - lo) > rtol * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink
            break
        if prepared.certifies(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Theorem context: the differential inequality a certified run must obey


@dataclass(frozen=True)
class FamilySpec:
    """Monitored inequality of one theorem.

    ``riccati(ctx, t, U)`` is the coefficient c(t) with U = R + sigma*t,
    and ``G(ctx, H, m0, snap, U_tau)`` the slack term of
    dH/dt >= c(t) H**2 + G(t), with U_tau = R + sigma*tau.  Both read the
    context's weight and, where the theorem has one, its ``a``; a general
    family's G reads the B(tau) its report compared H(0) with.
    """

    riccati: Callable
    G: Callable


@dataclass
class TheoremContext:
    """Monitored form dH/dt >= coeff(t) * H**2 + G(t) of one resolved criterion.

    Built from a scenario plus family; exposes the series callables the
    recorder needs and the hypothesis check used to gate monitoring.
    """

    scenario: Scenario
    family: str
    report: CriterionReport
    f: TestingFunction
    a: float
    tau: float

    def __post_init__(self) -> None:
        self.spec = FAMILY_SPECS[self.family]
        self.sigma = sound_speed(self.scenario.eos)
        self.N = self.scenario.geometry.ndim

    def _upper(self, snap: FieldSnapshot) -> float:
        return cone_band_upper(snap, self.scenario.R + self.sigma * snap.t)

    # -- series callables -------------------------------------------------
    def H(self, snap: FieldSnapshot) -> float:
        return momentum_functional(snap, self.f, self.scenario.geometry, upper=self._upper(snap))

    def B(self, t: float) -> float:
        """B(t) by the rule of the report's B(tau), which it is bit for bit at tau."""
        return weight_functional_B(self.f, self.scenario.R, self.sigma, t, self.scenario.geometry)

    def m(self, snap: FieldSnapshot) -> float:
        return mass_functional(snap, self.scenario.eos, self.scenario.geometry)

    def riccati_coeff(self, t: float) -> float:
        U = self.scenario.R + self.sigma * t
        return self.spec.riccati(self, t, U)

    def G(self, t: float, H: float, m0: float, snap: FieldSnapshot) -> float:
        U_tau = self.scenario.R + self.sigma * self.tau
        return self.spec.G(self, H, m0, snap, U_tau)

    def hypotheses_hold(self) -> bool:
        return self.report.verdict.certifies_blowup

    def recorder(self) -> SeriesRecorder:
        return SeriesRecorder(H=self.H, B=self.B, m=self.m, G=self.G, theorem=self.family)


def _pressure_slack(ctx: TheoremContext, H: float, m0: float, snap: FieldSnapshot, U_tau: float) -> float:
    # G of the non-negative-mass theorems: weighted integral of the perturbed
    # pressure-law term over the cone
    eos = ctx.scenario.eos
    geom = ctx.scenario.geometry
    band = _band(snap, geom, ctx._upper(snap))
    diff = snap.rho[band] ** (eos.gamma - 1.0) - eos.rho_bar ** (eos.gamma - 1.0)
    if geom.is_radial and geom.ndim > 1:
        diff = diff * snap.centers[band] ** (geom.ndim - 1)
    integral = integrate_samples(diff, snap.spacing)
    scale = eos.K * eos.gamma / (eos.gamma - 1.0)
    if geom.is_radial:
        scale *= geom.ndim
    return scale * integral


_GENERAL = FamilySpec(
    lambda c, t, U: 1.0 / (c.a * c.B(t)),
    lambda c, H, m0, snap, U: (c.a - 2.0) * H ** 2 / (2.0 * c.a * c.report.inputs["B_tau"])
    - _barrier(c.scenario.eos) * float(c.f.f(U)),
)
_POWER = FamilySpec(lambda c, t, U: c.N * (c.N + 1) / (2.0 * U ** (c.N + 2)), _pressure_slack)
_LINEAR = FamilySpec(lambda c, t, U: 3.0 / (4.0 * U ** 3), _pressure_slack)

# resolved theorem -> spec; the negative-mass cases 2 carry the root constant a
FAMILY_SPECS = {
    GENERAL_RADIAL: _GENERAL,
    GENERAL_1D: _GENERAL,
    POWER_RADIAL_CASE1: _POWER,
    POWER_RADIAL_CASE2: FamilySpec(
        lambda c, t, U: c.N * (c.N + 1) / (c.a * U ** (c.N + 2)),
        lambda c, H, m0, snap, U: (c.a - 2.0) * c.N * (c.N + 1) * H ** 2
        / (2.0 * c.a * U ** (c.N + 2))
        + 2.0 * c.scenario.eos.K * c.N * m0,
    ),
    LINEAR_1D_INFINITE: _LINEAR,
    LINEAR_1D_TAU_CASE1: _LINEAR,
    LINEAR_1D_TAU_CASE2: FamilySpec(
        lambda c, t, U: 1.0 / (c.a * U ** 3),
        lambda c, H, m0, snap, U: (3.0 * c.a - 4.0) * H ** 2 / (4.0 * c.a * U ** 3)
        + 2.0 * c.scenario.eos.K * m0,
    ),
}


def theorem_context(
    scenario: Scenario,
    family: str,
    tau: float = 1.0,
    f: TestingFunction | None = None,
    a: float = 4.0,
) -> TheoremContext:
    """Resolve a family on a scenario and package its monitored inequality."""
    prepared = prepare(scenario, family, f, a)
    report = prepared.report(tau)
    # a case-1 closed form has no trade-off constant, and its inequality reads none
    a_eff = report.inputs.get("a", math.nan)
    return TheoremContext(scenario, report.theorem, report, prepared.weight, float(a_eff), float(tau))
