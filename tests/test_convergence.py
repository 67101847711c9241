"""The solver against exact solutions of the PDE: L1 errors and convergence orders.

Two oracles, each independent of the package's solver:

- gamma = 3 (1-D and radial N = 1): 2c/(gamma - 1) = c, so the Riemann
  invariants w = V + c and z = V - c are also the characteristic speeds and
  each solves Burgers' equation, w_t + w w_x = 0 and z_t + z z_x = 0.  Up to
  the lifespan T* = 1 / max(-w0', -z0'), w(x, t) = w0(xi) where xi + w0(xi) t
  = x, one bisection per cell, and likewise z; then V = (w + z) / 2 and rho
  = (w - z) / (2 sqrt(3 K)), since c = sqrt(3 K) rho.  Radial N = 1 has no
  geometric source and reflects the origin: its solution is the 1-D one of
  the even extension of the data, which the bump profiles already are.
- radial N = 3 linear acoustics: a density bump eps * b(r) at rest, for
  which r * rho' solves the 1-D wave equation with the background sound
  speed sigma, so d'Alembert's formula with the odd extension of r * b
  gives rho' = eps * ((r - sigma t) b(r - sigma t) + (r + sigma t) b(r +
  sigma t)) / (2 r), up to O(eps^2) (Whitham 1974, spherical waves).

The bounds: each order is the one measured at 256-1024 cells less a margin
stated with it, and MUSCL's error at 1024 cells is at most 1.2 times the
error the two-stage SSP-RK2 MUSCL step gave there (numpy 2.4, x86-64).  At
1024 cells the default time step is no less accurate than the Courant
number 0.45 it replaced, under either scheme.
"""

import math

import numpy as np
import pytest

from eulerblowup.functionals import initial_snapshot
from eulerblowup.model import EosParams, Geometry, GridSpec, make_bump_scenario, signal_speed
from eulerblowup.solver import FIRST_ORDER, MUSCL, SolverConfig, run

CELLS = (256, 512, 1024)


def _burgers(u0, x, t, lo, hi):
    """u(x, t) of Burgers' equation with data u0 whose values lie in [lo, hi], before breaking.

    Bisects xi + u0(xi) t = x per point; xi lies in [x - hi t, x - lo t].
    """
    a, b = x - hi * t - 1e-12, x - lo * t + 1e-12
    for _ in range(80):
        mid = 0.5 * (a + b)
        right = mid + u0(mid) * t >= x
        b, a = np.where(right, mid, b), np.where(right, a, mid)
    return u0(0.5 * (a + b))


def gamma3_lifespan(scenario) -> float:
    """T* = 1 / max(-w0', -z0') of gamma = 3 data, from a fine sample of the invariants."""
    k = math.sqrt(3.0 * scenario.eos.K)
    x = np.linspace(-scenario.R, scenario.R, 400_001)
    rho, V = scenario.eos.rho_bar + scenario.rho0(x), scenario.v0(x)
    steepest = max(np.max(-np.gradient(V + k * rho, x)), np.max(-np.gradient(V - k * rho, x)))
    return 1.0 / steepest


def gamma3_solution(scenario, t: float, x=None):
    """(rho, V) of gamma = 3 data at time t < T*, in 1-D or radial1, at x or the scenario's cell centers."""
    eos, geom = scenario.eos, scenario.geometry
    assert eos.gamma == 3.0 and (not geom.is_radial or geom.ndim == 1)
    k = math.sqrt(3.0 * eos.K)

    def w0(x):
        return scenario.v0(x) + k * (eos.rho_bar + scenario.rho0(x))

    def z0(x):
        return scenario.v0(x) - k * (eos.rho_bar + scenario.rho0(x))

    x = scenario.grid.centers(geom) if x is None else x
    sample = np.linspace(-scenario.R, scenario.R, 20_001)
    w = _burgers(w0, x, t, w0(sample).min(), w0(sample).max())
    z = _burgers(z0, x, t, z0(sample).min(), z0(sample).max())
    return (w - z) / (2.0 * k), 0.5 * (w + z)


def acoustic_density(scenario, t: float):
    """rho of a small radial-3 density bump at rest at time t, by d'Alembert's formula for r * rho'."""
    assert scenario.geometry.is_radial and scenario.geometry.ndim == 3 and scenario.v0.amp == 0.0
    sigma = signal_speed(scenario.eos, scenario.eos.rho_bar)
    r = scenario.grid.centers(scenario.geometry)

    def odd(s):
        return s * scenario.rho0(np.abs(s))

    return scenario.eos.rho_bar + (odd(r - sigma * t) + odd(r + sigma * t)) / (2.0 * r)


def l1_error(scenario, recon: str, t: float, exact, weight=None, cfl: float = SolverConfig.cfl) -> float:
    """The L1 distance of the final density of a run to ``exact``, with the cells' weight."""
    trace = run(scenario, SolverConfig(cfl=cfl, t_end=t, snapshot_interval=10.0 * t, reconstruction=recon))
    assert trace.blowup is None and trace.t_final == pytest.approx(t, rel=1e-12)
    final = trace.snapshots[-1]
    assert final.t == trace.t_final
    diff = np.abs(final.rho - exact)
    if weight is not None:
        diff *= weight
    return float(np.sum(diff) * final.spacing)


def orders(errors):
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


ACOUSTIC = "acoustic-radial3"


def oracle_error(name, cells, recon, cfl=SolverConfig.cfl):
    """The L1 error of rho of the oracle ``name`` at ``cells``.

    A GAMMA3_DATA entry is read at T*/2 on [-2.2, 2.2] or [0, 2.2];
    ACOUSTIC is a radial-3 density bump 1e-6 at rest, read at t = 0.5
    with the weight r^2.
    """
    if name == ACOUSTIC:
        scen = make_bump_scenario(EosParams(1.0, 2.0, 1.0), Geometry.radial(3), 1.0, 1e-6, 0.0, GridSpec(2.2, cells))
        r = initial_snapshot(scen).centers
        return l1_error(scen, recon, 0.5, acoustic_density(scen, 0.5), r * r, cfl=cfl)
    geometry, K, rho_bar, amp_rho, amp_v = GAMMA3_DATA[name]
    scen = make_bump_scenario(EosParams(K, 3.0, rho_bar), geometry, 1.0, amp_rho, amp_v, GridSpec(2.2, cells))
    t = 0.5 * gamma3_lifespan(scen)
    return l1_error(scen, recon, t, gamma3_solution(scen, t)[0], cfl=cfl)


class TestExactSolutions:
    """The oracles themselves, against what they must satisfy."""

    def test_gamma3_solution_at_t0_is_the_data(self):
        for geom in (Geometry.cartesian1d(), Geometry.radial(1)):
            scen = make_bump_scenario(EosParams(1.0, 3.0, 1.0), geom, 1.0, 0.3, 0.5, GridSpec(2.2, 256))
            rho, V = gamma3_solution(scen, 0.0)
            snap = initial_snapshot(scen)
            np.testing.assert_allclose(rho, snap.rho, rtol=0, atol=1e-12)
            np.testing.assert_allclose(V, snap.V, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("amp_rho, amp_v, want", [(0.0, 1.0, 1.25), (0.5, 0.0, 0.75)])
    def test_gamma3_lifespan_of_a_single_bump(self, amp_rho, amp_v, want):
        # velocity only: T* = 1.25 R / amp_v; density only: 3 R / (8 amp_rho sqrt(K))
        scen = make_bump_scenario(EosParams(1.0, 3.0, 1.0), Geometry.cartesian1d(), 1.0, amp_rho, amp_v,
                                  GridSpec(2.2, 256))
        assert gamma3_lifespan(scen) == pytest.approx(want, rel=1e-6)

    def test_gamma3_solution_keeps_the_invariants_on_characteristics(self):
        # w = V + c is constant along x = xi + w0(xi) t: the solution at t,
        # read at the heads of a few characteristics, has their values
        scen = make_bump_scenario(EosParams(1.0, 3.0, 1.0), Geometry.cartesian1d(), 1.0, 0.3, 0.5,
                                  GridSpec(2.2, 512))
        t, k = 0.4, math.sqrt(3.0)
        xi = np.linspace(-0.9, 0.9, 7)
        w0 = scen.v0(xi) + k * (1.0 + scen.rho0(xi))
        rho, V = gamma3_solution(scen, t, xi + w0 * t)
        np.testing.assert_allclose(V + k * rho, w0, rtol=0, atol=1e-12)

    def test_acoustic_density_at_t0_is_the_data(self):
        scen = make_bump_scenario(EosParams(1.0, 2.0, 1.0), Geometry.radial(3), 1.0, 1e-6, 0.0, GridSpec(2.2, 256))
        np.testing.assert_allclose(acoustic_density(scen, 0.0), initial_snapshot(scen).rho, rtol=0, atol=1e-18)


# (geometry, K, rho_bar, amp_rho, amp_v): ROADMAP item 10's data, three in
# 1-D (both families moving and crossing, a density bump, a velocity bump)
# and one in radial1
GAMMA3_DATA = {
    "1d-mixed": (Geometry.cartesian1d(), 1.0, 1.0, 0.3, 0.5),
    "1d-density": (Geometry.cartesian1d(), 1.0, 1.0, 0.5, 0.0),
    "1d-velocity": (Geometry.cartesian1d(), 1.0, 1.0, 0.0, 1.0),
    "radial1-mixed": (Geometry.radial(1), 0.5, 0.5, 0.3, 0.5),
}

# the L1 orders of rho between 256 and 512 and between 512 and 1024 cells,
# as measured at the Courant number 0.45 (numpy 2.4, x86-64); each bound is
# the measured order less MARGIN
MARGIN = 0.1
GAMMA3_ORDERS = {
    ("1d-mixed", MUSCL): (1.887, 1.874),
    ("1d-density", MUSCL): (1.881, 1.939),
    ("1d-velocity", MUSCL): (1.815, 1.870),
    ("radial1-mixed", MUSCL): (1.951, 1.975),
    ("1d-mixed", FIRST_ORDER): (0.960, 0.977),
    ("1d-density", FIRST_ORDER): (0.959, 0.976),
    ("1d-velocity", FIRST_ORDER): (0.903, 0.942),
    ("radial1-mixed", FIRST_ORDER): (0.984, 0.992),
}
ACOUSTIC_ORDERS = {MUSCL: (1.915, 1.927), FIRST_ORDER: (0.993, 0.995)}
# MUSCL's L1 error at 1024 cells under the two-stage SSP-RK2 step that the
# MUSCL-Hancock step replaced; the step may lose at most a factor 1.2 on it
# (MUSCL-Hancock measured 0.58-0.74 times these)
SSP_RK2_ERROR_1024 = {
    "1d-mixed": 7.4647e-05,
    "1d-density": 6.4723e-05,
    "1d-velocity": 1.4814e-04,
    "radial1-mixed": 5.4292e-06,
    "acoustic-radial3": 9.8303e-12,
}


def assert_converges(errors, measured, recon, ssp_rk2_error):
    got = orders(errors)
    assert all(order >= want - MARGIN for order, want in zip(got, measured)), (errors, got)
    if recon == MUSCL:
        assert errors[-1] <= 1.2 * ssp_rk2_error, errors


class TestConvergence:
    """L1 errors of the density against the exact solutions, at 256, 512 and 1024 cells."""

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("name", sorted(GAMMA3_DATA))
    def test_gamma3_orders(self, name, recon):
        errors = [oracle_error(name, cells, recon) for cells in CELLS]
        assert_converges(errors, GAMMA3_ORDERS[(name, recon)], recon, SSP_RK2_ERROR_1024[name])

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    def test_radial3_acoustic_orders(self, recon):
        errors = [oracle_error(ACOUSTIC, cells, recon) for cells in CELLS]
        assert_converges(errors, ACOUSTIC_ORDERS[recon], recon, SSP_RK2_ERROR_1024[ACOUSTIC])

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("name", sorted(GAMMA3_DATA) + [ACOUSTIC])
    def test_default_step_is_no_less_accurate_than_cfl_045(self, name, recon):
        # measured at the Courant number 0.8: MUSCL 0.49-0.66 times the
        # error at 0.45, first order 0.54-0.98
        assert oracle_error(name, 1024, recon) <= oracle_error(name, 1024, recon, cfl=0.45)
