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

import json
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from .functionals import (
    FieldSnapshot,
    SeriesRecorder,
    _band,
    initial_snapshot,
    mass_functional,
    momentum_functional,
    weight_functional_B,
    weight_functional_B_table,
)
from .model import (
    CARTESIAN_CLASSES,
    RADIAL_CLASSES,
    EosParams,
    Geometry,
    Scenario,
    TestingFunction,
    linear,
    power_law,
    sound_speed,
)
from .quadrature import QuadratureRule, SIMPSON, integrate_fn, integrate_samples

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

_HORIZON_RULE = QuadratureRule(SIMPSON, 2048)


class NonMonotoneVerdictError(RuntimeError):
    """The verdict flips more than once along the scanned horizon grid."""


@dataclass(frozen=True)
class Condition:
    """One inequality of a criterion, compared exactly as claimed."""

    name: str
    lhs: float
    rhs: float
    op: str  # ">" or ">="

    @property
    def satisfied(self) -> bool:
        return self.lhs > self.rhs if self.op == ">" else self.lhs >= self.rhs

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

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "conditions": [c.to_dict() for c in self.conditions],
            "verdict": self.verdict.to_dict(),
            "margins": self.margins,
            "notes": list(self.notes),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Closed-form thresholds and root constants


def power_radial_case1_threshold(N: int, R: float, sigma: float, tau: float) -> float:
    """Strict H threshold for the power-weight radial criterion, non-negative mass."""
    U = R + sigma * tau
    return 2.0 * sigma * R ** (N + 1) * U ** (N + 1) / (N * (U ** (N + 1) - R ** (N + 1)))


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

    The strict threshold makes the pressure-barrier inequality hold; it
    reads B(tau) from :func:`weight_functional_B` with ``_HORIZON_RULE``.
    The horizon threshold is the reciprocal of the time integral of
    1/(a*B) by the same Simpson rule over [0, tau].  B at all of its
    abscissae comes from one :func:`weight_functional_B_table`: one
    vector call of a closed form, or B(0) plus a cumulative sum of
    Gauss-Legendre growth increments.  With a quadrature B the horizon
    threshold stays within 1e-12 relative of evaluating each abscissa's B
    by its own Simpson rule.
    """
    sigma = sound_speed(eos)
    U = R + sigma * tau
    B_tau = weight_functional_B(f, R, sigma, tau, geometry, _HORIZON_RULE)
    strict = math.sqrt(2.0 * a / (a - 2.0) * B_tau * _barrier(eos) * float(f.f(U)))

    # the abscissae and spacing integrate_fn would use; integrating the table
    # directly keeps its typed errors out of integrate_fn's per-point fallback
    times = np.linspace(0.0, tau, _HORIZON_RULE.panels + 1)
    B = weight_functional_B_table(f, R, sigma, times, geometry, _HORIZON_RULE)
    horizon_integral = integrate_samples(1.0 / (a * B), tau / _HORIZON_RULE.panels, _HORIZON_RULE)
    return strict, 1.0 / horizon_integral


# ---------------------------------------------------------------------------
# Criterion checks


def _initial_upper(scenario: Scenario) -> float:
    return scenario.R + 3.0 * scenario.grid.spacing(scenario.geometry)


def check_general(scenario: Scenario, f: TestingFunction, a: float = 4.0, tau: float = 1.0) -> CriterionReport:
    """General-weight criterion: certify breakdown before tau.

    Needs gamma > 1, a > 2, a weight admissible for the geometry, and a
    positive initial weighted momentum.
    """
    eos = scenario.eos
    if not eos.gamma > 1:
        raise ValueError("the general criterion requires gamma > 1")
    if not a > 2:
        raise ValueError("the trade-off constant a must exceed 2")
    if not tau > 0:
        raise ValueError("the horizon tau must be positive")
    geom = scenario.geometry
    admissible = RADIAL_CLASSES if geom.is_radial else CARTESIAN_CLASSES
    if f.cls not in admissible:
        raise ValueError(
            f"weight class {f.cls!r} is not admissible for {geom.label()} geometry"
        )
    theorem = GENERAL_RADIAL if geom.is_radial else GENERAL_1D
    sigma = sound_speed(eos)
    snap = initial_snapshot(scenario)
    H0 = momentum_functional(snap, f, geom, upper=_initial_upper(scenario))
    B_tau = weight_functional_B(f, scenario.R, sigma, tau, geom, _HORIZON_RULE)
    strict_thr, horizon_thr = general_condition_thresholds(f, a, eos, scenario.R, tau, geom)

    conds = [
        Condition("initial_momentum_positive", H0, 0.0, ">"),
        Condition("pressure_barrier_strict", H0, strict_thr, ">"),
        Condition("horizon_budget", H0, horizon_thr, ">="),
    ]
    inputs = {
        "geometry": geom.label(),
        "weight": f.name or f.cls,
        "a": a,
        "tau": tau,
        "sigma": sigma,
        "H0": H0,
        "B_tau": B_tau,
        "strict_threshold": strict_thr,
        "horizon_threshold": horizon_thr,
        "combined_threshold": max(strict_thr, horizon_thr),
    }
    if not conds[0].satisfied:
        verdict = Verdict.inconclusive("initial weighted momentum is not positive")
    elif conds[1].satisfied and conds[2].satisfied:
        verdict = Verdict.blowup_before(tau)
    else:
        failed = next(c.name for c in conds if not c.satisfied)
        verdict = Verdict.inconclusive(f"condition {failed} not met")
    return CriterionReport(theorem, inputs, conds, verdict)


def _checked_linear_tau_threshold(R: float, sigma: float, tau: float) -> float:
    # the closed form must equal the reciprocal horizon integral it came from;
    # integrate on a log-radius grid so horizons of any length stay resolved
    thr = linear_tau_case1_threshold(R, sigma, tau)
    w_hi = math.log((R + sigma * tau) / R)
    integral = integrate_fn(
        lambda w: 3.0 * np.exp(-2.0 * np.asarray(w, dtype=float)) / (4.0 * sigma * R ** 2),
        0.0,
        w_hi,
        QuadratureRule(SIMPSON, 512),
    )
    if abs(thr * integral - 1.0) > 1e-6:
        raise RuntimeError("horizon threshold fails its reciprocity identity")
    return thr


@dataclass(frozen=True)
class _ClosedForm:
    """How one closed-form family resolves to its case-1 or case-2 theorem.

    Case 1 (non-negative perturbed mass) compares H(0) against
    ``threshold(N, R, sigma, tau)`` with ``op``.  Case 2 (gamma = 2,
    negative mass) raises that bar through the root constant
    ``root(N, K, m0, R, sigma, tau)``: its threshold is
    ``case2_threshold(a, N, R, sigma, tau)`` and ``residual(a, N, K, m0,
    R, sigma, tau)`` the relative residual of its defining equation.  A
    family with no case 2 states non-negative mass as a condition of case
    1.  The weight and the admissibility bound of a come from the case-1
    theorem's ``FAMILY_SPECS`` row.
    """

    name: str  # as error messages name the criterion
    radial: bool
    case1: str
    case2: str | None
    threshold: Callable[..., float]
    op: str
    condition: str
    shortfall: str  # inconclusive reason of case 1
    equality_note: str  # note when H(0) sits on a strict threshold
    root: Callable[..., float] | None = None
    case2_threshold: Callable[..., float] | None = None
    residual: Callable[..., float] | None = None


_STRICT_NOTE = "H(0) sits exactly on the strict threshold"

# name, geometry, theorems; case-1 threshold, operator and condition;
# shortfall reason and equality note; case-2 root constant, threshold, residual
_POWER_RADIAL = _ClosedForm(
    "power-weight", True, POWER_RADIAL_CASE1, POWER_RADIAL_CASE2,
    power_radial_case1_threshold, ">", "initial_momentum_exceeds_threshold",
    "initial momentum does not exceed the threshold",
    "H(0) sits exactly on the threshold: the strict form does not certify, the non-strict variant would",
    power_radial_case2_a, power_radial_case2_threshold, power_radial_root_residual,
)
_LINEAR_1D_TAU = _ClosedForm(
    "horizon", False, LINEAR_1D_TAU_CASE1, LINEAR_1D_TAU_CASE2,
    lambda N, R, sigma, tau: _checked_linear_tau_threshold(R, sigma, tau), ">=",
    "initial_momentum_meets_threshold",
    "initial momentum below the horizon threshold", _STRICT_NOTE,
    lambda N, K, m0, R, sigma, tau: linear_tau_case2_a(K, m0, R, sigma, tau),
    lambda a, N, R, sigma, tau: linear_tau_case2_threshold(a, R, sigma, tau),
    lambda a, N, K, m0, R, sigma, tau: linear_tau_root_residual(a, K, m0, R, sigma, tau),
)
_LINEAR_1D = _ClosedForm(
    "horizon-free", False, LINEAR_1D_INFINITE, None,
    lambda N, R, sigma, tau: linear_1d_threshold(R, sigma), ">", "initial_momentum_exceeds_threshold",
    "requires non-negative perturbed mass and momentum above the threshold", _STRICT_NOTE,
)


def _closed_form_check(row: _ClosedForm, scenario: Scenario, tau: float | None) -> CriterionReport:
    """Resolve a closed-form family on a scenario; ``tau`` is None when it has no horizon."""
    eos = scenario.eos
    geom = scenario.geometry
    if geom.is_radial != row.radial:
        where = "radial geometry" if row.radial else "the 1-D geometry"
        raise ValueError(f"the {row.name} criterion applies to {where}")
    if not eos.gamma >= 2:
        raise ValueError(f"the {row.name} criterion requires gamma >= 2")
    if tau is not None and not tau > 0:
        raise ValueError("the horizon tau must be positive")
    spec = FAMILY_SPECS[row.case1]
    N, R = geom.ndim, scenario.R
    sigma = sound_speed(eos)
    snap = initial_snapshot(scenario)
    H0 = momentum_functional(snap, spec.weight(geom, None), geom, upper=_initial_upper(scenario))
    m0 = mass_functional(snap, eos, geom)
    inputs: dict = {"geometry": geom.label()}
    if row.radial:
        inputs["N"] = N
    if tau is not None:
        inputs["tau"] = tau
    inputs.update(sigma=sigma, H0=H0, m0=m0)
    notes: list[str] = []

    if row.case2 is None or m0 >= 0.0:
        theorem, shortfall = row.case1, row.shortfall
        thr = row.threshold(N, R, sigma, tau)
        conds = [] if row.case2 else [Condition("perturbed_mass_nonnegative", m0, 0.0, ">=")]
        conds.append(Condition(row.condition, H0, thr, row.op))
    elif eos.gamma != 2.0:
        inputs["threshold"] = float("nan")
        verdict = Verdict.inconclusive("negative perturbed mass is only covered for gamma = 2")
        return CriterionReport(row.case2, inputs, [], verdict, notes)
    else:
        theorem, shortfall = row.case2, "negative-mass threshold not exceeded"
        a = row.root(N, eos.K, m0, R, sigma, tau)
        # closer to a_min, rounding in a - a_min alone exceeds the tolerance
        if a - spec.a > 1e-6 * spec.a:
            resid = row.residual(a, N, eos.K, m0, R, sigma, tau)
            if abs(resid) > 1e-9:
                raise RuntimeError(f"root constant fails its defining equation (residual {resid:g})")
        thr = row.case2_threshold(a, N, R, sigma, tau)
        inputs["a"] = a
        conds = [
            Condition("root_constant_admissible", a, spec.a, ">"),
            Condition("initial_momentum_exceeds_threshold", H0, thr, ">"),
        ]
        if a == spec.a:
            notes.append(f"root constant degenerates to the admissibility boundary a = {spec.a:g}")
    inputs["threshold"] = thr
    if H0 == thr and conds[-1].op == ">":
        notes.append(row.equality_note)
    certified = Verdict.blowup_finite() if tau is None else Verdict.blowup_before(tau)
    verdict = certified if all(c.satisfied for c in conds) else Verdict.inconclusive(shortfall)
    return CriterionReport(theorem, inputs, conds, verdict, notes)


def check_power_radial(scenario: Scenario, tau: float = 1.0) -> CriterionReport:
    """Power-weight radial criterion: certify breakdown before tau.

    Case 1 needs gamma >= 2 with non-negative perturbed mass; case 2
    covers gamma = 2 with negative perturbed mass through the root
    constant a.
    """
    return _closed_form_check(_POWER_RADIAL, scenario, tau)


def check_linear_1d(scenario: Scenario) -> CriterionReport:
    """Horizon-free 1-D criterion: certify breakdown in finite time."""
    return _closed_form_check(_LINEAR_1D, scenario, None)


def check_linear_1d_tau(scenario: Scenario, tau: float = 1.0) -> CriterionReport:
    """Horizon 1-D criterion: certify breakdown before tau.

    Case 1 (non-negative perturbed mass, gamma >= 2) uses a non-strict
    comparison; case 2 (gamma = 2, negative mass) is strict with the root
    constant a.
    """
    return _closed_form_check(_LINEAR_1D_TAU, scenario, tau)

# ---------------------------------------------------------------------------
# Family groups


@dataclass(frozen=True)
class FamilyGroup:
    """A criterion family as the API and the CLI name it.

    ``check(scenario, tau, f, a)`` resolves the family to one of its
    theorems; ``radial`` is the geometry they are stated for, ``horizon``
    whether the verdict depends on tau, and ``default`` marks the family
    that simulate and verify monitor on that geometry when none is named.
    """

    check: Callable[..., CriterionReport]
    radial: bool
    horizon: bool
    default: bool = False


def _general_check(scenario: Scenario, tau: float, f: TestingFunction | None, a: float) -> CriterionReport:
    if f is None:
        raise ValueError("the general families need an explicit weight function")
    return check_general(scenario, f, a=a, tau=tau)


def _closed_form_group(check: Callable[[Scenario, float], CriterionReport]) -> Callable[..., CriterionReport]:
    """Group check of a closed-form family, which fixes its own weight.

    A weight is an error rather than silently dropped, and so is a
    non-positive tau, also for the horizon-free family that never reads
    it.  The trade-off constant ``a`` is accepted and unused: the closed
    forms carry their own (case 2 solves for it).
    """

    def group_check(scenario: Scenario, tau: float, f: TestingFunction | None, a: float) -> CriterionReport:
        if f is not None:
            raise ValueError("closed-form families fix their own weight; drop the weight")
        if not tau > 0:
            raise ValueError("the horizon tau must be positive")
        return check(scenario, tau)

    return group_check


# the closed-form rows call the checks by their module names, which the
# tracer in perfbench/spans.py wraps
FAMILY_GROUPS = {
    FAMILY_GENERAL_RADIAL: FamilyGroup(_general_check, True, True),
    FAMILY_GENERAL_1D: FamilyGroup(_general_check, False, True),
    FAMILY_POWER_RADIAL: FamilyGroup(_closed_form_group(lambda s, tau: check_power_radial(s, tau)), True, True, True),
    FAMILY_LINEAR_1D_TAU: FamilyGroup(_closed_form_group(lambda s, tau: check_linear_1d_tau(s, tau)), False, True),
    FAMILY_LINEAR_1D: FamilyGroup(_closed_form_group(lambda s, tau: check_linear_1d(s)), False, False, True),
}
FAMILIES = tuple(FAMILY_GROUPS)


def default_family(geometry: Geometry) -> str:
    """The closed-form family monitored on a geometry when none is named."""
    return next(n for n, g in FAMILY_GROUPS.items() if g.default and g.radial == geometry.is_radial)


def run_family_check(
    scenario: Scenario,
    family: str,
    tau: float = 1.0,
    f: TestingFunction | None = None,
    a: float = 4.0,
) -> CriterionReport:
    """Dispatch one of the named criterion families."""
    if family not in FAMILY_GROUPS:
        raise ValueError(f"unknown criterion family {family!r}")
    return FAMILY_GROUPS[family].check(scenario, tau, f, a)


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

    Scans a log-spaced grid, requires the positive verdicts to form one
    contiguous upper tail (otherwise raises
    :class:`NonMonotoneVerdictError`), then bisects the first sign change
    to relative precision ``rtol``.
    """
    if family not in FAMILY_GROUPS or not FAMILY_GROUPS[family].horizon:
        raise ValueError(f"family {family!r} does not take a horizon")

    def positive(tau: float) -> bool:
        return run_family_check(scenario, family, tau, f, a).verdict.certifies_blowup

    grid = np.geomspace(tau_lo, tau_hi, scan_points)
    verdicts = [positive(float(t)) for t in grid]
    if not any(verdicts):
        return None
    first = verdicts.index(True)
    if not all(verdicts[first:]):
        flips = [float(grid[i]) for i in range(first, len(grid) - 1) if verdicts[i] != verdicts[i + 1]]
        raise NonMonotoneVerdictError(
            f"verdict is not monotone in the horizon; flips near {flips}"
        )
    if first == 0:
        return float(grid[0])
    lo, hi = float(grid[first - 1]), float(grid[first])
    while (hi - lo) > rtol * hi:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Theorem context: the differential inequality a certified run must obey


@dataclass(frozen=True)
class FamilySpec:
    """Weight, default trade-off constant and monitored inequality of one theorem.

    ``weight(geometry, f)`` is the weight the theorem integrates against
    (``f`` is the caller's) and ``a`` the trade-off constant when the report
    records none.  ``riccati(ctx, t, U)`` is the coefficient c(t) with
    U = R + sigma*t, and ``G(ctx, H, m0, snap, U_tau)`` the slack term of
    dH/dt >= c(t) H**2 + G(t), with U_tau = R + sigma*tau.
    """

    weight: Callable
    a: float | None
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
        # sound cone plus a three-cell halo, clipped to the grid
        upper = self.scenario.R + self.sigma * snap.t + 3.0 * snap.spacing
        return min(upper, float(snap.centers[-1]) + 0.5 * snap.spacing)

    # -- series callables -------------------------------------------------
    def H(self, snap: FieldSnapshot) -> float:
        return momentum_functional(snap, self.f, self.scenario.geometry, upper=self._upper(snap))

    def B(self, t: float) -> float:
        return weight_functional_B(
            self.f, self.scenario.R, self.sigma, t, self.scenario.geometry
        )

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
    mask = _band(snap, geom, ctx._upper(snap))
    diff = snap.rho[mask] ** (eos.gamma - 1.0) - eos.rho_bar ** (eos.gamma - 1.0)
    if geom.is_radial and geom.ndim > 1:
        diff = diff * snap.centers[mask] ** (geom.ndim - 1)
    integral = integrate_samples(diff, snap.spacing)
    scale = eos.K * eos.gamma / (eos.gamma - 1.0)
    if geom.is_radial:
        scale *= geom.ndim
    return scale * integral


_GENERAL = FamilySpec(
    lambda geometry, f: f,
    None,
    lambda c, t, U: 1.0 / (c.a * c.B(t)),
    lambda c, H, m0, snap, U: (c.a - 2.0) * H ** 2 / (2.0 * c.a * c.B(c.tau))
    - _barrier(c.scenario.eos) * float(c.f.f(U)),
)
_POWER = FamilySpec(
    lambda geometry, f: power_law(geometry.ndim),
    2.0,
    lambda c, t, U: c.N * (c.N + 1) / (2.0 * U ** (c.N + 2)),
    _pressure_slack,
)
_LINEAR = FamilySpec(
    lambda geometry, f: linear(), 4.0 / 3.0, lambda c, t, U: 3.0 / (4.0 * U ** 3), _pressure_slack
)

# resolved theorem -> spec; the negative-mass cases 2 carry the root constant a
FAMILY_SPECS = {
    GENERAL_RADIAL: _GENERAL,
    GENERAL_1D: _GENERAL,
    POWER_RADIAL_CASE1: _POWER,
    POWER_RADIAL_CASE2: replace(
        _POWER,
        riccati=lambda c, t, U: c.N * (c.N + 1) / (c.a * U ** (c.N + 2)),
        G=lambda c, H, m0, snap, U: (c.a - 2.0) * c.N * (c.N + 1) * H ** 2
        / (2.0 * c.a * U ** (c.N + 2))
        + 2.0 * c.scenario.eos.K * c.N * m0,
    ),
    LINEAR_1D_INFINITE: _LINEAR,
    LINEAR_1D_TAU_CASE1: _LINEAR,
    LINEAR_1D_TAU_CASE2: replace(
        _LINEAR,
        riccati=lambda c, t, U: 1.0 / (c.a * U ** 3),
        G=lambda c, H, m0, snap, U: (3.0 * c.a - 4.0) * H ** 2 / (4.0 * c.a * U ** 3)
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
    report = run_family_check(scenario, family, tau, f, a)
    spec = FAMILY_SPECS[report.theorem]
    weight = spec.weight(scenario.geometry, f)
    a_eff = report.inputs.get("a", spec.a)
    return TheoremContext(scenario, report.theorem, report, weight, float(a_eff), float(tau))
