import math

import numpy as np
import pytest

from eulerblowup.functionals import (
    FieldSnapshot,
    FunctionalSeries,
    GridCoverageError,
    SeriesRecorder,
    WeightDivergenceError,
    cone_energy,
    cone_gradient_constant,
    initial_snapshot,
    mass_functional,
    momentum_functional,
    weight_functional_B,
    weight_functional_B_table,
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
from eulerblowup.quadrature import NonFiniteIntegrandError, QuadratureRule, SIMPSON, integrate_fn

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
    def test_analytic_form_is_used(self):
        geom = Geometry.radial(3)
        U = 1.0 + SQRT2
        got = weight_functional_B(linear(), 1.0, SQRT2, 1.0, geom)
        assert got == pytest.approx(U**3 / 3.0, rel=1e-15)

    def test_quadrature_path_matches_refined_rule(self):
        f = radial_vanishing(
            lambda x: np.sinh(np.asarray(x, dtype=float)),
            lambda x: np.cosh(np.asarray(x, dtype=float)),
            name="sinh",
        )
        geom = Geometry.radial(2)
        coarse = weight_functional_B(f, 1.0, SQRT2, 0.5, geom)
        fine = weight_functional_B(f, 1.0, SQRT2, 0.5, geom, QuadratureRule(SIMPSON, 8192))
        assert coarse == pytest.approx(fine, rel=1e-6)

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

    def test_csv_round_trip(self, tmp_path):
        t = np.linspace(0.0, 0.4, 5)
        series = FunctionalSeries(t, 2 * t, np.ones_like(t), np.zeros_like(t), t - 1.0)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,H,B,m,G,dH_dt"
        assert len(lines) == 6
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(back[:, 0], t, rtol=1e-15)
        np.testing.assert_allclose(back[:, 5], 2.0, rtol=1e-12)

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


class TestWeightFunctionalBTable:
    # the horizon rule of the general criteria
    RULE = QuadratureRule(SIMPSON, 2048)

    @staticmethod
    def _times(tau):
        return np.linspace(0.0, tau, 2049)

    @pytest.mark.parametrize("f, geom", [(linear(), Geometry.radial(3)), (linear(), Geometry.cartesian1d()),
                                         (power_law(2.5), Geometry.radial(2))])
    def test_closed_form_is_one_vector_call(self, f, geom):
        ts = self._times(1.7)
        table = weight_functional_B_table(f, 1.0, SQRT2, ts, geom, self.RULE)
        np.testing.assert_array_equal(table, f.analytic_B(1.0, SQRT2, ts, geom))
        scalars = np.array([weight_functional_B(f, 1.0, SQRT2, float(t), geom, self.RULE) for t in ts])
        assert np.max(np.abs(table - scalars) / scalars) <= 4e-16

    def test_scalar_only_closed_form_falls_back_per_time(self):
        def analytic_B(R, sigma, t, geometry):
            return math.pow(R + sigma * t, 3) / 3.0

        f = radial_vanishing(
            lambda x: np.asarray(x, dtype=float) + 0.0,
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            analytic_B=analytic_B,
        )
        ts = self._times(0.9)
        table = weight_functional_B_table(f, 1.0, SQRT2, ts, Geometry.radial(1), self.RULE)
        np.testing.assert_array_equal(table, [analytic_B(1.0, SQRT2, float(t), None) for t in ts])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "geom, tau",
        [(Geometry.radial(1), 0.05), (Geometry.radial(1), 5.0), (Geometry.radial(3), 1.0),
         (Geometry.radial(3), 5.0), (Geometry.cartesian1d(), 0.05), (Geometry.cartesian1d(), 0.4)],
    )
    def test_quadrature_table_matches_per_time_rule(self, seeded_weight, seed, geom, tau):
        f = seeded_weight(geom.is_radial, seed)
        ts = self._times(tau)
        table = weight_functional_B_table(f, 1.0, SQRT2, ts, geom, self.RULE)
        assert table.shape == ts.shape
        # every 64th abscissa and the last one against a Simpson rule of their own
        for k in list(range(0, ts.size, 64)) + [ts.size - 1]:
            per_time = weight_functional_B(f, 1.0, SQRT2, float(ts[k]), geom, self.RULE)
            assert abs(table[k] - per_time) <= 1e-12 * per_time, k
        assert table[0] == weight_functional_B(f, 1.0, SQRT2, 0.0, geom, self.RULE)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_table_beats_per_time_rule_on_long_slab_horizons(self, seeded_weight, seed):
        # past U ~ 2 the per-time Simpson rule on exponential weights drifts
        # above 1e-12 relative; the Gauss-Legendre increments do not
        f = seeded_weight(False, seed)
        geom = Geometry.cartesian1d()
        table = weight_functional_B_table(f, 1.0, SQRT2, self._times(5.0), geom, self.RULE)
        U = 1.0 + SQRT2 * 5.0
        fine = integrate_fn(f.weight_integrand, -U, U, QuadratureRule(SIMPSON, 2 ** 16))
        per_time = weight_functional_B(f, 1.0, SQRT2, 5.0, geom, self.RULE)
        assert abs(table[-1] - fine) <= 1e-13 * fine
        assert abs(table[-1] - fine) < abs(per_time - fine)

    def test_divergent_weight_rejected(self):
        bad = WeightFn(
            f=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
            f_prime=lambda x: 2.0 * np.asarray(x, dtype=float),
            cls=RADIAL_VANISHING,
        )
        with pytest.raises(WeightDivergenceError):
            weight_functional_B_table(bad, 1.0, SQRT2, self._times(1.0), Geometry.radial(3), self.RULE)

    @pytest.mark.parametrize("geom", [Geometry.radial(2), Geometry.cartesian1d()])
    def test_nan_integrand_past_B0_raises(self, geom):
        # finite on the initial support [-1, 1], NaN once the cone passes |x| = 2
        nan_far = WeightFn(
            f=lambda x: np.where(np.abs(np.asarray(x, dtype=float)) > 2.0, np.nan, np.exp(np.asarray(x, dtype=float))),
            f_prime=lambda x: np.exp(np.asarray(x, dtype=float)),
            cls=RADIAL_VANISHING,
        )
        with pytest.raises(NonFiniteIntegrandError) as err:
            weight_functional_B_table(nan_far, 1.0, SQRT2, self._times(1.0), geom, self.RULE)
        assert abs(err.value.abscissa) > 2.0

    @pytest.mark.parametrize("times", [[0.1, 0.2], [0.0, 0.5, 0.5], [0.0, -0.5], [[0.0, 1.0]], [0.0], []])
    def test_time_grid_validation(self, times):
        with pytest.raises(ValueError, match="times"):
            weight_functional_B_table(linear(), 1.0, SQRT2, np.array(times), Geometry.radial(1))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weight_functional_B_table(linear(), 0.0, SQRT2, self._times(1.0), Geometry.radial(1))
