import math
from dataclasses import replace

import numpy as np
import pytest

from eulerblowup.criteria import _barrier, general_condition_thresholds
from eulerblowup.functionals import (
    FieldSnapshot,
    FunctionalSeries,
    GridCoverageError,
    SeriesRecorder,
    WeightDivergenceError,
    _band,
    cone_energy,
    cone_gradient_constant,
    initial_snapshot,
    mass_functional,
    momentum_functional,
    horizon_B,
    weight_functional_B,
)
from eulerblowup.model import (
    EosParams,
    Geometry,
    GridSpec,
    RADIAL_VANISHING,
    TestingFunction as WeightFn,
    linear,
    make_bump_scenario,
    power_law,
    radial_vanishing,
)
from eulerblowup.quadrature import NonFiniteIntegrandError, QuadratureRule, SIMPSON, integrate_fn, integrate_samples

SQRT2 = math.sqrt(2.0)
EOS = EosParams(1.0, 2.0, 1.0)


def reference_1d(cells=4096):
    return make_bump_scenario(
        EOS, Geometry.cartesian1d(), 1.0, 0.01, 0.02, GridSpec(2.2, cells)
    )


def reference_radial(N, cells=4096):
    return make_bump_scenario(
        EOS, Geometry.radial(N), 1.0, 0.01, 0.02, GridSpec(2.2, cells)
    )


def constant_snapshot(geometry, V=0.0, rho=1.0, extent=2.0, cells=512):
    grid = GridSpec(extent, cells)
    centers = grid.centers(geometry)
    return FieldSnapshot(0.0, centers, np.full(cells, rho), np.full(cells, V))


class TestSnapshots:
    def test_initial_snapshot_samples_bump(self):
        scen = reference_1d(256)
        snap = initial_snapshot(scen)
        assert snap.t == 0.0
        assert snap.rho.max() == pytest.approx(1.01, abs=1e-4)
        assert np.all(snap.rho[np.abs(snap.centers) > 1.0] == 1.0)
        # odd velocity bump
        assert np.max(snap.V) == pytest.approx(-np.min(snap.V), rel=1e-12)

    def test_snapshot_shape_validation(self):
        with pytest.raises(ValueError):
            FieldSnapshot(0.0, np.zeros(3), np.zeros(2), np.zeros(3))


GEOMETRIES = [Geometry.cartesian1d(), Geometry.radial(1), Geometry.radial(3)]
SIGNED_AMPLITUDES = [0.02, -0.02, 0.0, -0.0, 5e-324, -5e-324, 1e300, -3.7]


class TestInitialSnapshot:
    """The initial snapshot samples the scenario's own profiles on its grid."""

    @pytest.mark.parametrize("amp", SIGNED_AMPLITUDES)
    @pytest.mark.parametrize("geom", GEOMETRIES, ids=lambda g: g.label())
    def test_fields_are_the_profiles_at_the_centers(self, geom, amp):
        scen = make_bump_scenario(EOS, geom, 1.0, 0.01, amp, GridSpec(2.2, 512))
        snap = initial_snapshot(scen)
        centers = scen.grid.centers(geom)
        assert snap.centers.tobytes() == centers.tobytes()
        assert snap.V.tobytes() == scen.v0(centers).tobytes()
        assert snap.rho.tobytes() == (scen.eos.rho_bar + scen.rho0(centers)).tobytes()
        assert snap.t == 0.0

    def test_momentum_band_needs_two_cells(self):
        snap = constant_snapshot(Geometry.radial(1))
        with pytest.raises(GridCoverageError, match="fewer than two cells"):
            momentum_functional(snap, linear(), Geometry.radial(1), upper=0.001)


class TestMomentumFunctional:
    def test_cartesian_bump_closed_form(self):
        # int x * amp_v*(x/R)(1-(x/R)^2)^2 dx over [-R, R] = amp_v * 16/105 for R=1
        snap = initial_snapshot(reference_1d())
        H0 = momentum_functional(snap, linear(), Geometry.cartesian1d())
        assert H0 == pytest.approx(0.02 * 16.0 / 105.0, rel=1e-5)

    def test_radial_cubic_weight_closed_form(self):
        # int r^3 * amp_v*(r/R)(1-(r/R)^2)^2 dr over [0, R] = amp_v * 8/315 for R=1
        snap = initial_snapshot(reference_radial(3))
        H0 = momentum_functional(snap, power_law(3), Geometry.radial(3))
        assert H0 == pytest.approx(0.02 * 8.0 / 315.0, rel=1e-5)

    def test_upper_band_restricts_integral(self):
        geom = Geometry.radial(1)
        snap = constant_snapshot(geom, V=1.0)
        full = momentum_functional(snap, linear(), geom)
        half = momentum_functional(snap, linear(), geom, upper=1.0)
        # int_0^1 r dr = 1/2 up to the half-cell band edges
        assert half == pytest.approx(0.5, rel=5e-3)
        assert half < full

    def test_upper_beyond_grid_raises(self):
        snap = initial_snapshot(reference_1d(256))
        with pytest.raises(GridCoverageError):
            momentum_functional(snap, linear(), Geometry.cartesian1d(), upper=50.0)


class TestBand:
    """The recorder's band is an index range: the cells of the boolean mask it replaced."""

    @staticmethod
    def masked(snap, geometry, upper):
        mask = snap.centers <= upper if geometry.is_radial else np.abs(snap.centers) <= upper
        return np.flatnonzero(mask)

    @pytest.mark.parametrize("geom", [Geometry.radial(3), Geometry.cartesian1d()], ids=lambda g: g.label())
    def test_range_holds_the_masked_cells(self, geom):
        snap = constant_snapshot(geom, cells=64)
        c, dx = snap.centers, snap.spacing
        uppers = [0.0, -0.0, c[-1] + 0.5 * dx]
        for k in (0, 1, 20, 31, 32, 62, 63):
            # on a center, a rounding off it either way, half a cell off
            # either way, and the mirror image, negative in 1-D
            for upper in (c[k], np.nextafter(c[k], -9.0), np.nextafter(c[k], 9.0), c[k] - 0.5 * dx, c[k] + 0.5 * dx):
                uppers += [upper, -upper]
        for upper in uppers:
            if upper > c[-1] + 0.5 * dx:
                continue
            band = _band(snap, geom, float(upper))
            assert isinstance(band, slice) and band.step is None
            assert np.array_equal(np.arange(band.start, band.stop), self.masked(snap, geom, upper))

    def test_negative_upper_in_1d_is_empty(self):
        geom = Geometry.cartesian1d()
        snap = constant_snapshot(geom, V=1.0, cells=64)
        band = _band(snap, geom, -0.5)
        assert band.stop - band.start < 0 and snap.V[band].size == 0
        with pytest.raises(GridCoverageError, match="fewer than two cells"):
            momentum_functional(snap, linear(), geom, upper=-0.5)

    @pytest.mark.parametrize("geom", [Geometry.radial(1), Geometry.cartesian1d()], ids=lambda g: g.label())
    def test_no_upper_is_every_cell(self, geom):
        snap = constant_snapshot(geom, cells=64)
        assert _band(snap, geom, None) == slice(0, 64)

    @pytest.mark.parametrize("geom", [Geometry.radial(1), Geometry.cartesian1d()], ids=lambda g: g.label())
    def test_nan_or_past_the_grid_raises(self, geom):
        snap = constant_snapshot(geom, V=1.0, cells=64)
        edge = snap.centers[-1] + 0.5 * snap.spacing
        assert _band(snap, geom, edge) == slice(0, 64)
        for upper in (math.nan, np.nextafter(edge, 9.0), math.inf):
            with pytest.raises(GridCoverageError, match="exceeds grid coverage"):
                _band(snap, geom, upper)
            with pytest.raises(GridCoverageError):
                momentum_functional(snap, linear(), geom, upper=upper)


class TestMassFunctional:
    def test_cartesian_closed_form(self):
        # int amp_rho*(1-(x/R)^2)^2 dx over [-R, R] = amp_rho * 16/15 for R=1
        snap = initial_snapshot(reference_1d())
        m0 = mass_functional(snap, EOS, Geometry.cartesian1d())
        assert m0 == pytest.approx(0.01 * 16.0 / 15.0, rel=1e-5)

    def test_radial3_closed_form(self):
        # int r^2 * amp_rho*(1-(r/R)^2)^2 dr over [0, R] = amp_rho * 8/105 for R=1
        snap = initial_snapshot(reference_radial(3))
        m0 = mass_functional(snap, EOS, Geometry.radial(3))
        assert m0 == pytest.approx(0.01 * 8.0 / 105.0, rel=1e-5)

    def test_matches_solver_conserved_sum(self):
        # the functional must be the plain cell sum the finite-volume update conserves
        snap = initial_snapshot(reference_radial(1, cells=512))
        m0 = mass_functional(snap, EOS, Geometry.radial(1))
        assert m0 == pytest.approx(float(np.sum(snap.rho - 1.0)) * snap.spacing, rel=1e-15)


class TestWeightFunctionalB:
    @pytest.mark.parametrize("R, sigma, t", [(math.nan, SQRT2, 1.0), (1.0, math.nan, 1.0), (1.0, SQRT2, math.nan)])
    @pytest.mark.parametrize("closed_form", [True, False], ids=["closed-form", "quadrature"])
    def test_nan_input_raises(self, closed_form, R, sigma, t):
        f = linear() if closed_form else WeightFn(f=linear().f, f_prime=linear().f_prime, cls=RADIAL_VANISHING)
        with pytest.raises(ValueError, match="require R > 0, sigma > 0, t >= 0"):
            weight_functional_B(f, R, sigma, t, Geometry.radial(1))

    def test_analytic_form_is_used(self):
        geom = Geometry.radial(3)
        U = 1.0 + SQRT2
        got = weight_functional_B(linear(), 1.0, SQRT2, 1.0, geom)
        assert got == pytest.approx(U**3 / 3.0, rel=1e-15)

    def test_quadrature_path_is_the_horizon_rule(self):
        f = radial_vanishing(
            lambda x: np.sinh(np.asarray(x, dtype=float)),
            lambda x: np.cosh(np.asarray(x, dtype=float)),
            name="sinh",
        )
        geom = Geometry.radial(2)
        got = weight_functional_B(f, 1.0, SQRT2, 0.5, geom)
        assert got == horizon_B(f, 1.0, SQRT2, 0.5, geom)[0]
        fine = integrate_fn(f.weight_integrand, 0.0, 1.0 + SQRT2 * 0.5, QuadratureRule(SIMPSON, 8192))
        assert got == pytest.approx(fine, rel=1e-12)

    def test_divergent_weight_rejected(self):
        # f^2/f' = (1+r^2)^2/(2r) grows without bound toward the origin;
        # built directly to bypass the factory's own admissibility checks
        bad = WeightFn(
            f=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
            f_prime=lambda x: 2.0 * np.asarray(x, dtype=float),
            cls=RADIAL_VANISHING,
        )
        with pytest.raises(WeightDivergenceError):
            weight_functional_B(bad, 1.0, SQRT2, 1.0, Geometry.radial(3))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weight_functional_B(linear(), 0.0, SQRT2, 1.0, Geometry.radial(1))
        with pytest.raises(ValueError):
            weight_functional_B(linear(), 1.0, SQRT2, -1.0, Geometry.radial(1))


class TestConeEnergy:
    def test_constant_velocity_slab(self):
        geom = Geometry.cartesian1d()
        snap = constant_snapshot(geom, V=0.1)
        # rho = rho_bar so the riemann part vanishes; base width 2*sigma*t_apex
        e = cone_energy(snap, EOS, 0.0, 0.5, geom)
        assert e == pytest.approx(0.5 * 0.01 * 2.0 * SQRT2 * 0.5, rel=1e-10)

    def test_cone_leaving_grid_raises(self):
        geom = Geometry.cartesian1d()
        snap = constant_snapshot(geom, V=0.1)
        with pytest.raises(GridCoverageError):
            cone_energy(snap, EOS, 50.0, 0.1, geom)

    def test_background_state_has_zero_energy(self):
        geom = Geometry.cartesian1d()
        snap = constant_snapshot(geom, V=0.0)
        assert cone_energy(snap, EOS, 0.0, 0.5, geom) == pytest.approx(0.0, abs=1e-15)


class TestConeGradientConstant:
    def test_linear_velocity_profile(self):
        geom = Geometry.cartesian1d()
        grid = GridSpec(2.0, 512)
        centers = grid.centers(geom)
        slope = 0.25
        snaps = [
            FieldSnapshot(t, centers, np.ones_like(centers), slope * centers)
            for t in (0.0, 0.1)
        ]
        # v = 0 and |dV/dx| = slope everywhere: bound = gamma * 2 * slope
        got = cone_gradient_constant(snaps, EOS, 0.0, 0.5, geom)
        assert got == pytest.approx(2.0 * 2.0 * slope, rel=1e-10)

    def test_needs_two_contributing_snapshots(self):
        geom = Geometry.cartesian1d()
        snap = constant_snapshot(geom)
        with pytest.raises(ValueError):
            cone_gradient_constant([snap], EOS, 0.0, 0.5, geom)


class TestSeries:
    def test_dh_dt_exact_on_quadratic(self):
        t = np.linspace(0.0, 1.0, 11)
        series = FunctionalSeries(t, t**2, np.ones_like(t), np.zeros_like(t), np.zeros_like(t))
        np.testing.assert_allclose(series.dH_dt(), 2.0 * t, atol=1e-12)

    def test_column_length_validation(self):
        with pytest.raises(ValueError):
            FunctionalSeries(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), np.zeros(3))

    def test_recorder_freezes_initial_mass(self):
        geom = Geometry.cartesian1d()
        seen_m0 = []

        def G(t, h, m0, snap):
            seen_m0.append(m0)
            return 0.0

        rec = SeriesRecorder(
            H=lambda s: float(s.t),
            B=lambda t: 1.0,
            m=lambda s: float(s.t) + 5.0,
            G=G,
        )
        for t in (0.0, 0.1, 0.2):
            snap = constant_snapshot(geom)
            snap.t = t
            rec.observe(snap)
        series = rec.series()
        assert series.times.size == 3
        # m column tracks the current mass, G always sees the t=0 value
        np.testing.assert_allclose(series.m, [5.0, 5.1, 5.2])
        assert seen_m0 == [5.0, 5.0, 5.0]

    def test_empty_recorder_yields_empty_series(self):
        rec = SeriesRecorder(H=lambda s: 0.0, B=lambda t: 1.0, m=lambda s: 0.0)
        assert rec.series().times.size == 0


def _fine_horizon(f, R, sigma, tau, radial, panels=2 ** 16):
    """(B(tau), integral of 1/B over [0, tau]) by Simpson rules on a uniform
    grid of the cone radius: B at every other point is B(0) plus the running
    Simpson sum of f**2/f' over the cone's growth (mirrored in 1-D)."""
    B0 = integrate_fn(f.weight_integrand, 0.0 if radial else -R, R, QuadratureRule(SIMPSON, panels))
    h = sigma * tau / panels
    U = R + h * np.arange(panels + 1)
    g = f.weight_integrand(U) + (0.0 if radial else f.weight_integrand(-U))
    B = B0 + np.concatenate(([0.0], np.cumsum(h / 3.0 * (g[:-2:2] + 4.0 * g[1:-1:2] + g[2::2]))))
    return float(B[-1]), integrate_samples(1.0 / B, 2.0 * h, QuadratureRule(SIMPSON)) / sigma


def _fine_bound(geom):
    # the radial weights r**p (1 + c r) have a non-integer power at the
    # origin, which the first support segment's 8 nodes follow to 2.6e-13
    # of B(0) (seed 2), whatever the fine rule's panels
    return 1e-12 if geom.is_radial else 1e-13


class TestHorizonB:
    """B(tau) and the integral of 1/B over [0, tau] by the horizon rule."""

    @pytest.mark.parametrize("f, geom", [(linear(), Geometry.radial(3)), (linear(), Geometry.cartesian1d()),
                                         (power_law(2.5), Geometry.radial(2))])
    def test_closed_form_is_one_vector_call(self, f, geom):
        calls = []
        counted = replace(f, analytic_B=lambda *a: calls.append(np.shape(a[2])) or f.analytic_B(*a))
        B_tau, integral = horizon_B(counted, 1.0, SQRT2, 1.7, geom)
        # every node at once, then tau
        assert calls == [(127 * 8,), ()]
        assert B_tau == weight_functional_B(f, 1.0, SQRT2, 1.7, geom)
        assert integral == pytest.approx(f.analytic_horizon(1.0, SQRT2, 1.7, geom), rel=1e-14)

    def test_scalar_only_closed_form_falls_back_per_node(self):
        def analytic_B(R, sigma, t, geometry):
            return math.pow(R + sigma * t, 3) / 3.0

        f = radial_vanishing(
            lambda x: np.asarray(x, dtype=float) + 0.0,
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            analytic_B=analytic_B,
        )
        B_tau, integral = horizon_B(f, 1.0, SQRT2, 0.9, Geometry.radial(1))
        vector = horizon_B(linear(), 1.0, SQRT2, 0.9, Geometry.radial(1))
        assert integral == pytest.approx(vector[1], rel=1e-15)
        assert B_tau == analytic_B(1.0, SQRT2, 0.9, None)

    @pytest.mark.parametrize("radial, evaluations", [(True, 1528), (False, 2544)])
    def test_one_call_of_the_integrand(self, radial, evaluations, seeded_weight):
        f = seeded_weight(radial, 0)
        sizes = []
        counted = replace(f, f=lambda x: sizes.append(np.size(x)) or f.f(x))
        geom = Geometry.radial(3) if radial else Geometry.cartesian1d()
        horizon_B(counted, 1.0, SQRT2, 1.0, geom)
        # the radial origin probe, then every node at once
        assert sizes == ([5] if radial else []) + [evaluations]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "geom, tau",
        [(Geometry.radial(1), 0.05), (Geometry.radial(1), 5.0), (Geometry.radial(3), 1.0),
         (Geometry.radial(3), 5.0), (Geometry.cartesian1d(), 0.05), (Geometry.cartesian1d(), 5.0)],
    )
    def test_B_tau_matches_a_fine_rule(self, seeded_weight, seed, geom, tau):
        f = seeded_weight(geom.is_radial, seed)
        B_tau, _ = horizon_B(f, 1.0, SQRT2, tau, geom)
        U = 1.0 + SQRT2 * tau
        fine = integrate_fn(f.weight_integrand, 0.0 if geom.is_radial else -U, U, QuadratureRule(SIMPSON, 2 ** 16))
        assert abs(B_tau - fine) <= _fine_bound(geom) * fine

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("geom, tau", [(Geometry.radial(3), 5.0), (Geometry.cartesian1d(), 0.05),
                                           (Geometry.cartesian1d(), 5.0)])
    def test_thresholds_match_a_fine_integral_of_one_over_B(self, seeded_weight, seed, geom, tau):
        f = seeded_weight(geom.is_radial, seed)
        B_tau, integral = _fine_horizon(f, 1.0, SQRT2, tau, geom.is_radial)
        strict, horizon = general_condition_thresholds(f, 4.0, EOS, 1.0, tau, geom)
        want_strict = math.sqrt(4.0 * B_tau * _barrier(EOS) * float(f.f(1.0 + SQRT2 * tau)))
        assert strict == pytest.approx(want_strict, rel=_fine_bound(geom))
        assert horizon == pytest.approx(4.0 / integral, rel=_fine_bound(geom))

    def test_zero_horizon_is_B0(self, seeded_weight):
        f = seeded_weight(True, 0)
        B_tau, integral = horizon_B(f, 1.0, SQRT2, 0.0, Geometry.radial(3))
        assert integral == 0.0
        fine = integrate_fn(f.weight_integrand, 0.0, 1.0, QuadratureRule(SIMPSON, 2 ** 14))
        assert B_tau == weight_functional_B(f, 1.0, SQRT2, 0.0, Geometry.radial(3)) == pytest.approx(fine, rel=1e-12)

    def test_divergent_weight_rejected(self):
        bad = WeightFn(
            f=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
            f_prime=lambda x: 2.0 * np.asarray(x, dtype=float),
            cls=RADIAL_VANISHING,
        )
        with pytest.raises(WeightDivergenceError):
            horizon_B(bad, 1.0, SQRT2, 1.0, Geometry.radial(3))

    @pytest.mark.parametrize("geom", [Geometry.radial(2), Geometry.cartesian1d()])
    def test_nan_integrand_past_B0_raises(self, geom):
        # finite on the initial support [-1, 1], NaN once the cone passes |x| = 2
        nan_far = WeightFn(
            f=lambda x: np.where(np.abs(np.asarray(x, dtype=float)) > 2.0, np.nan, np.exp(np.asarray(x, dtype=float))),
            f_prime=lambda x: np.exp(np.asarray(x, dtype=float)),
            cls=RADIAL_VANISHING,
        )
        with pytest.raises(NonFiniteIntegrandError, match="is not finite at x=") as err:
            horizon_B(nan_far, 1.0, SQRT2, 1.0, geom)
        assert abs(err.value.abscissa) > 2.0

    @pytest.mark.parametrize("R, sigma, tau", [(0.0, SQRT2, 1.0), (math.nan, SQRT2, 1.0), (1.0, math.nan, 1.0),
                                               (1.0, SQRT2, -1.0), (1.0, SQRT2, math.nan)])
    def test_parameter_validation(self, R, sigma, tau):
        with pytest.raises(ValueError, match=r"^require R > 0, sigma > 0, tau >= 0$"):
            horizon_B(linear(), R, sigma, tau, Geometry.radial(1))

    def test_a_cone_growth_past_the_float_range_overflows(self):
        with pytest.raises(OverflowError, match=r"sigma\*tau/R = inf"):
            horizon_B(linear(), 1e-10, SQRT2, 1e300, Geometry.radial(1))
