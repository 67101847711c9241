"""Frozen scenario presets: gentle reference bumps and certified blowup data.

The reference bumps are small perturbations used to exercise the
conservation, propagation and cone-energy checks in the smooth regime.
The certified scenarios are built backwards from the criteria: the
velocity amplitude is chosen so the initial weighted momentum lands at a
fixed margin (default 1.5x) above the threshold of the criterion that
certifies the preset, which certifies breakdown before the preset
horizon and makes the runs end in a detector event.  Both numbers come
from that criterion, prepared on the preset at unit velocity amplitude
(:func:`~eulerblowup.criteria.prepare`): its H(0) and its threshold at
the horizon.  Neither reads the grid.

Minimum resolution of the certified presets: with fewer cells the initial
velocity jump per cell already reaches the detector threshold, so a run
stops at t = 0 with no step (four of the five do at 256 cells).

    cert-linear-tau-1d        330 cells
    cert-linear-infinite-1d   273 cells
    cert-power-radial-n3      211 cells
    cert-general-radial-n1    320 cells
    cert-general-1d-exp       687 cells (use 768 or more)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

from .criteria import (
    FAMILY_GENERAL_1D,
    FAMILY_GENERAL_RADIAL,
    FAMILY_LINEAR_1D,
    FAMILY_LINEAR_1D_TAU,
    FAMILY_POWER_RADIAL,
    prepare,
)
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
)

REFERENCE_CELLS = 4096
CERTIFIED_MARGIN = 1.5

# certified runs detect at per-cell velocity jumps of half a sound speed;
# the tighter factor keeps the detection time stable under refinement
CERTIFIED_DETECTOR = DetectorParams(slope_factor=0.5, sample_interval=1e-3)


def reference_eos() -> EosParams:
    return EosParams(K=1.0, gamma=2.0, rho_bar=1.0)


def _bump(geometry: Geometry, cells: int, amp_rho: float, amp_v: float) -> Scenario:
    """A bump of radius 1 in the reference gas, on a grid of extent 2.2."""
    return make_bump_scenario(
        eos=reference_eos(),
        geometry=geometry,
        R=1.0,
        amp_rho=amp_rho,
        amp_v=amp_v,
        grid=GridSpec(extent=2.2, cells=cells),
    )


def reference_scenario(geometry: Geometry | None = None, cells: int = REFERENCE_CELLS) -> Scenario:
    """Gentle bump (amp_rho 0.01, amp_v 0.02) on a cone-containing grid."""
    return _bump(geometry if geometry is not None else Geometry.radial(3), cells, 0.01, 0.02)


def constant_scenario(geometry: Geometry | None = None, cells: int = 256) -> Scenario:
    """Pure background state: both bump amplitudes zero."""
    return _bump(geometry if geometry is not None else Geometry.cartesian1d(), cells, 0.0, 0.0)


@dataclass(frozen=True)
class CertifiedCase:
    """A preset scenario together with the criterion that certifies it."""

    name: str
    scenario: Scenario
    family: str
    tau: float
    f: TestingFunction | None = None
    a: float = 4.0


# every certified preset has bump radius 1 and horizon 1
_R, _TAU = 1.0, 1.0


@dataclass(frozen=True)
class _CertifiedPreset:
    """Row of the certified-preset table: the family that certifies the
    preset, its gas, geometry and grid extent, ``weight()``, which builds a
    general family's weight (None for a closed form), and ``a``.  The row
    holds no threshold and no H(0): see :func:`certified_case`.
    """

    family: str
    eos: EosParams
    geometry: Geometry
    extent: float
    weight: Callable[[], TestingFunction | None] = lambda: None
    a: float = 4.0


CERTIFIED_PRESETS = {
    # 1-D identity-weight horizon criterion, case 1
    "cert-linear-tau-1d": _CertifiedPreset(FAMILY_LINEAR_1D_TAU, reference_eos(), Geometry.cartesian1d(), 2.6),
    # 1-D identity-weight horizon-free criterion (finite-time verdict)
    "cert-linear-infinite-1d": _CertifiedPreset(FAMILY_LINEAR_1D, reference_eos(), Geometry.cartesian1d(), 2.6),
    # radial cubic-weight criterion, case 1, N = 3
    "cert-power-radial-n3": _CertifiedPreset(FAMILY_POWER_RADIAL, reference_eos(), Geometry.radial(3), 2.6),
    # general radial criterion with the identity weight, N = 1
    "cert-general-radial-n1": _CertifiedPreset(
        FAMILY_GENERAL_RADIAL, EosParams(K=0.5, gamma=2.0, rho_bar=0.5), Geometry.radial(1), 2.0, weight=linear,
    ),
    # general 1-D criterion with an exponential weight: beta = 2 and a = 3.5
    # sit near the minimizer of the combined threshold divided by H(0) at
    # unit amplitude, which keeps the certified amplitude (and so the Mach
    # number of the run) as small as the criterion allows
    "cert-general-1d-exp": _CertifiedPreset(
        FAMILY_GENERAL_1D, EosParams(K=0.25, gamma=2.0, rho_bar=0.5), Geometry.cartesian1d(), 2.0,
        weight=lambda: exponential(2.0), a=3.5,
    ),
}


def _scenario(p: _CertifiedPreset, cells: int, amp_v: float) -> Scenario:
    return make_bump_scenario(
        eos=p.eos,
        geometry=p.geometry,
        R=_R,
        amp_rho=0.0,
        amp_v=amp_v,
        grid=GridSpec(extent=p.extent, cells=cells),
        detector=CERTIFIED_DETECTOR,
    )


@cache
def _unit_momentum_and_threshold(name: str) -> tuple[float, float]:
    """H(0) of preset ``name`` at unit velocity amplitude, and the threshold
    of its criterion at the preset horizon.  Neither reads the grid, so
    both are computed once per process per preset."""
    p = CERTIFIED_PRESETS[name]
    return prepare(_scenario(p, REFERENCE_CELLS, 1.0), p.family, p.weight(), p.a).outcome(_TAU)[:2]


def certified_case(name: str, cells: int = REFERENCE_CELLS, margin: float = CERTIFIED_MARGIN) -> CertifiedCase:
    """Certified preset ``name``: H(0) sits at ``margin`` times the threshold."""
    p = CERTIFIED_PRESETS[name]
    h, threshold = _unit_momentum_and_threshold(name)
    scen = _scenario(p, cells, margin * threshold / h)
    return CertifiedCase(name, scen, p.family, _TAU, f=p.weight(), a=p.a)


certified_linear_tau_case = partial(certified_case, "cert-linear-tau-1d")
certified_linear_infinite_case = partial(certified_case, "cert-linear-infinite-1d")
certified_power_radial_case = partial(certified_case, "cert-power-radial-n3")
certified_general_radial_case = partial(certified_case, "cert-general-radial-n1")
certified_general_1d_case = partial(certified_case, "cert-general-1d-exp")


def certified_suite(cells: int = REFERENCE_CELLS) -> list[CertifiedCase]:
    """Every certified preset shipped with the package."""
    return [certified_case(name, cells) for name in CERTIFIED_PRESETS]


PRESETS = {
    "ref-radial3": lambda cells=REFERENCE_CELLS: reference_scenario(Geometry.radial(3), cells),
    "ref-radial1": lambda cells=REFERENCE_CELLS: reference_scenario(Geometry.radial(1), cells),
    "ref-1d": lambda cells=REFERENCE_CELLS: reference_scenario(Geometry.cartesian1d(), cells),
    "constant-1d": lambda cells=256: constant_scenario(Geometry.cartesian1d(), cells),
    "constant-radial3": lambda cells=256: constant_scenario(Geometry.radial(3), cells),
    **{
        name: lambda cells=REFERENCE_CELLS, name=name: certified_case(name, cells).scenario
        for name in CERTIFIED_PRESETS
    },
}
