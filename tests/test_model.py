import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import eulerblowup.cli as cli
import eulerblowup.model as model
from eulerblowup.model import (
    BumpProfile,
    DetectorParams,
    EosParams,
    Geometry,
    GridSpec,
    LINEAR,
    NONNEG_INCREASING,
    POWER_LAW,
    exponential,
    linear,
    make_bump_scenario,
    nonneg_increasing,
    power_law,
    power_law_B,
    power_law_horizon,
    pressure,
    radial_vanishing,
    riemann_variable,
    sound_speed,
)
from eulerblowup.quadrature import QuadratureRule, SIMPSON, integrate_fn

SQRT2 = math.sqrt(2.0)


class TestEos:
    def test_validation(self):
        with pytest.raises(ValueError):
            EosParams(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            EosParams(1.0, 0.9, 1.0)
        with pytest.raises(ValueError):
            EosParams(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["K", "gamma", "rho_bar"])
    def test_non_finite_value_is_named(self, field, value):
        values = {"K": 1.0, "gamma": 2.0, "rho_bar": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            EosParams(**values)

    def test_pressure_closed_form(self):
        eos = EosParams(2.0, 1.4, 1.0)
        assert pressure(eos, 1.5) == pytest.approx(3.5282370675740204, rel=1e-14)

    def test_pressure_rejects_negative_density(self):
        with pytest.raises(ValueError):
            pressure(EosParams(1.0, 2.0, 1.0), -0.1)

    def test_pressure_vectorizes(self):
        eos = EosParams(1.0, 2.0, 1.0)
        rho = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(pressure(eos, rho), rho**2)

    def test_sound_speed_value(self):
        assert sound_speed(EosParams(1.0, 2.0, 1.0)) == pytest.approx(SQRT2, rel=1e-15)
        assert sound_speed(EosParams(0.5, 2.0, 0.5)) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_sound_speed_needs_gamma_above_one(self):
        with pytest.raises(ValueError):
            sound_speed(EosParams(1.0, 1.0, 1.0))


class TestRiemannVariable:
    def test_vanishes_at_background(self):
        eos = EosParams(1.3, 1.7, 0.8)
        assert riemann_variable(eos, eos.rho_bar) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_two_value(self):
        # v = 2*(sqrt(2*rho) - sqrt(2)) for K=1, gamma=2, rho_bar=1
        eos = EosParams(1.0, 2.0, 1.0)
        assert riemann_variable(eos, 2.0) == pytest.approx(1.1715728752538097, rel=1e-14)

    def test_general_gamma_value(self):
        eos = EosParams(1.0, 1.4, 1.0)
        assert riemann_variable(eos, 1.5) == pytest.approx(0.49974173782532105, rel=1e-13)

    def test_sign_follows_density_perturbation(self):
        eos = EosParams(1.0, 2.0, 1.0)
        vals = riemann_variable(eos, np.array([0.5, 1.0, 1.5]))
        assert vals[0] < 0 < vals[2]
        assert vals[1] == pytest.approx(0.0, abs=1e-15)

    def test_requires_gamma_above_one(self):
        with pytest.raises(ValueError):
            riemann_variable(EosParams(1.0, 1.0, 1.0), 1.0)


class TestGeometryAndGrid:
    def test_labels_and_flags(self):
        r3 = Geometry.radial(3)
        assert r3.is_radial and r3.ndim == 3 and r3.label() == "radial3"
        c = Geometry.cartesian1d()
        assert not c.is_radial and c.ndim == 1 and c.label() == "cartesian1d"

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Geometry("spherical", 3)
        with pytest.raises(ValueError):
            Geometry("cartesian1d", 2)
        with pytest.raises(ValueError):
            Geometry.radial(0)

    def test_radial_grid(self):
        grid = GridSpec(2.0, 100)
        geom = Geometry.radial(2)
        assert grid.spacing(geom) == pytest.approx(0.02)
        centers = grid.centers(geom)
        assert centers[0] == pytest.approx(0.01)
        assert centers[-1] == pytest.approx(1.99)

    def test_cartesian_grid_spans_symmetric_interval(self):
        grid = GridSpec(2.0, 100)
        geom = Geometry.cartesian1d()
        assert grid.spacing(geom) == pytest.approx(0.04)
        centers = grid.centers(geom)
        assert centers[0] == pytest.approx(-1.98)
        assert centers[-1] == pytest.approx(1.98)
        np.testing.assert_allclose(centers, -centers[::-1], atol=1e-15)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 64)
        with pytest.raises(ValueError):
            GridSpec(1.0, 8)

    @pytest.mark.parametrize("extent", [math.inf, -math.inf, math.nan])
    def test_non_finite_extent_is_named(self, extent):
        with pytest.raises(ValueError, match=f"^grid extent must be finite, got {extent!r}$"):
            GridSpec(extent, 64)


class TestIntegerSizes:
    """ndim and cells are integers: a float, even an integral one, or a bool
    raises a ValueError naming the field instead of being truncated or
    carried into a label; numpy integers keep working."""

    @pytest.mark.parametrize("make", [
        lambda: Geometry.radial(2.7),
        lambda: Geometry("radial", 2.5),
        lambda: Geometry("radial", 3.0),
        lambda: Geometry("radial", True),
        lambda: Geometry("radial", math.nan),
        lambda: Geometry("cartesian1d", True),
    ])
    def test_non_integer_ndim_raises(self, make):
        with pytest.raises(ValueError, match="^ndim must be an integer, got "):
            make()

    @pytest.mark.parametrize("cells", [100.5, 64.0, math.nan, math.inf, True])
    def test_non_integer_cells_raise(self, cells):
        with pytest.raises(ValueError, match="^cells must be an integer, got "):
            GridSpec(2.2, cells)

    @pytest.mark.parametrize("kind", [np.int8, np.int32, np.int64, np.uint16])
    def test_numpy_integers_keep_their_labels(self, kind):
        geometry = Geometry("radial", kind(3))
        assert geometry == Geometry.radial(kind(3)) == Geometry.radial(3)
        assert geometry.label() == "radial3" and cli.parse_geometry(geometry.label()) == geometry
        assert type(geometry.ndim) is int  # a report's inputs hold it, and JSON takes no numpy integer
        grid = GridSpec(2.2, kind(64))
        assert grid == GridSpec(2.2, 64) and type(grid.cells) is int
        assert grid.centers(geometry).tobytes() == GridSpec(2.2, 64).centers(geometry).tobytes()
        scen = make_bump_scenario(EosParams(1.0, 2.0, 1.0), geometry, 1.0, 0.01, 0.02, grid)
        assert scen.label() == "radial3-R1-ar0.01-av0.02-c64"


class TestBumpProfile:
    def test_even_bump_peak_and_support(self):
        bump = BumpProfile(0.3, 2.0)
        assert bump(0.0) == pytest.approx(0.3)
        assert bump(2.0) == 0.0
        assert bump(2.5) == 0.0
        assert bump(-1.0) == bump(1.0)

    def test_c1_join_at_support_edge(self):
        bump = BumpProfile(1.0, 1.0)
        eps = 1e-6
        # value and one-sided slope both vanish at the edge
        assert bump(1.0 - eps) == pytest.approx(0.0, abs=1e-11)
        assert (bump(1.0) - bump(1.0 - eps)) / eps == pytest.approx(0.0, abs=1e-5)

    def test_odd_bump_antisymmetric(self):
        bump = BumpProfile(2.0, 1.5, odd=True)
        xs = np.linspace(-1.5, 1.5, 31)
        np.testing.assert_allclose(bump(xs), -bump(-xs), atol=1e-15)

    def test_odd_bump_extremum(self):
        # max of y*(1-y^2)^2 on [0,1] sits at y = 1/sqrt(5), value 16/(25*sqrt(5))
        bump = BumpProfile(1.0, 1.0, odd=True)
        y = 1.0 / math.sqrt(5.0)
        assert bump(y) == pytest.approx(16.0 / (25.0 * math.sqrt(5.0)), rel=1e-14)
        xs = np.linspace(0.0, 1.0, 20001)
        assert np.max(bump(xs)) <= bump(y) + 1e-9

    @staticmethod
    def _where_form(bump, x):
        # the quartic on every point, masked by np.where; inf * 0 outside is NaN
        y = np.asarray(x, dtype=float) / bump.R
        with np.errstate(invalid="ignore"):
            shape = (1.0 - y ** 2) ** 2
            if bump.odd:
                shape = y * shape
            return np.where(np.abs(y) <= 1.0, bump.amp * shape, 0.0)

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("amp", [0.3, -0.02, 0.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_arrays_match_the_where_form(self, seed, amp, odd):
        rng = np.random.default_rng(seed)
        R = rng.uniform(0.3, 2.0)
        x = np.concatenate([
            rng.uniform(-3.0 * R, 3.0 * R, 500),
            [R, -R, np.nextafter(R, 0.0), np.nextafter(-R, 0.0), np.nextafter(R, 9.0), 0.0, -0.0],
            [np.nan, np.inf, -np.inf],
        ])
        bump = BumpProfile(amp, R, odd=odd)
        got, want = bump(x), self._where_form(bump, x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.all(got[np.abs(x / R) > 1.0] == 0.0) and not np.any(np.signbit(got[np.isnan(x)]))
        for xi in x[::37].tolist() + [R, -R, np.nan]:
            value = bump(xi)
            assert isinstance(value, float)
            assert math.copysign(1.0, value) == math.copysign(1.0, float(self._where_form(bump, xi)))
            assert value == float(self._where_form(bump, xi))


class TestDetectorParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(slope_factor=0.0)
        with pytest.raises(ValueError):
            DetectorParams(slope_factor=1.5)
        with pytest.raises(ValueError):
            DetectorParams(dt_floor=0.0)
        with pytest.raises(ValueError):
            DetectorParams(sample_interval=-1.0)


class TestScenarioConstruction:
    eos = EosParams(1.0, 2.0, 1.0)

    def test_round_trip_amplitudes(self):
        scen = make_bump_scenario(
            self.eos, Geometry.radial(3), 1.0, 0.1, -0.2, GridSpec(2.0, 256)
        )
        assert scen.amp_rho == pytest.approx(0.1)
        assert scen.amp_v == pytest.approx(-0.2)
        assert not scen.rho0.odd and scen.v0.odd
        assert "radial3" in scen.label()

    def test_rejects_vacuum(self):
        with pytest.raises(ValueError, match="vacuum"):
            make_bump_scenario(
                self.eos, Geometry.cartesian1d(), 1.0, -1.0, 0.0, GridSpec(2.0, 256)
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["amp_rho", "amp_v"])
    def test_rejects_non_finite_amplitude(self, key, value):
        amps = {"amp_rho": 0.01, "amp_v": 0.02, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            make_bump_scenario(self.eos, Geometry.cartesian1d(), 1.0, grid=GridSpec(2.0, 256), **amps)

    def test_rejects_grid_smaller_than_bump(self):
        with pytest.raises(ValueError, match="extent"):
            make_bump_scenario(
                self.eos, Geometry.radial(1), 1.5, 0.1, 0.0, GridSpec(1.0, 256)
            )

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="coarse"):
            make_bump_scenario(
                self.eos, Geometry.radial(1), 0.05, 0.1, 0.0, GridSpec(2.0, 256)
            )

    @pytest.mark.parametrize("cells", [257, 1025])
    def test_rejects_an_odd_1d_cell_count(self, cells):
        # a 1-D run steps the half-line behind a mirror face at x = 0
        with pytest.raises(ValueError, match=f"^grid.cells must be even in 1-D, .* got {cells}$"):
            make_bump_scenario(self.eos, Geometry.cartesian1d(), 1.0, 0.1, 0.0, GridSpec(2.0, cells))
        # radial grids start at the origin, a face whatever the count
        scen = make_bump_scenario(self.eos, Geometry.radial(1), 1.0, 0.1, 0.0, GridSpec(2.0, cells))
        assert scen.grid.cells == cells

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            make_bump_scenario(
                self.eos, Geometry.radial(1), 0.0, 0.1, 0.0, GridSpec(2.0, 256)
            )


class TestTestingFunctions:
    def test_power_law_basics(self):
        f = power_law(2.0)
        assert f.cls == POWER_LAW and f.f(2.0) == 2.0 ** 2.0
        assert f.f(3.0) == pytest.approx(9.0)
        assert f.f_prime(3.0) == pytest.approx(6.0)
        # f^2/f' = r^3/2
        assert f.weight_integrand(2.0) == pytest.approx(4.0)

    def test_weight_integrand_removable_zero(self):
        f = power_law(3.0)
        assert f.weight_integrand(0.0) == 0.0

    def test_linear_closed_forms(self):
        f = linear()
        assert f.cls == LINEAR
        U = 1.0 + SQRT2
        assert f.analytic_B(1.0, SQRT2, 1.0, Geometry.radial(3)) == pytest.approx(U**3 / 3.0)
        assert f.analytic_B(1.0, SQRT2, 1.0, Geometry.cartesian1d()) == pytest.approx(
            2.0 * U**3 / 3.0
        )

    def test_exponential_is_cartesian_only(self):
        f = exponential(2.0)
        assert f.cls == NONNEG_INCREASING
        U = 1.0 + SQRT2
        assert f.analytic_B(1.0, SQRT2, 1.0, Geometry.cartesian1d()) == pytest.approx(
            2.0 * math.sinh(2.0 * U) / 4.0
        )
        with pytest.raises(ValueError):
            f.analytic_B(1.0, SQRT2, 1.0, Geometry.radial(3))

    def test_factory_parameter_validation(self):
        with pytest.raises(ValueError):
            power_law(0.0)
        with pytest.raises(ValueError):
            exponential(0.0)

    def test_decreasing_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            radial_vanishing(lambda x: -np.asarray(x), lambda x: -np.ones_like(np.asarray(x)))

    def test_radial_weight_must_vanish_at_origin(self):
        with pytest.raises(ValueError, match="vanish"):
            radial_vanishing(
                lambda x: np.asarray(x) + 1.0, lambda x: np.ones_like(np.asarray(x))
            )

    def test_cartesian_weight_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="non-negative"):
            nonneg_increasing(lambda x: np.asarray(x), lambda x: np.ones_like(np.asarray(x)))

    def test_wrong_analytic_form_caught(self):
        with pytest.raises(ValueError, match="disagrees"):
            radial_vanishing(
                lambda x: np.asarray(x, dtype=float) ** 2,
                lambda x: 2.0 * np.asarray(x, dtype=float),
                analytic_B=lambda R, sigma, t, geom: 999.0,
            )

    def test_underflowing_closed_form_is_a_bad_weight(self):
        # beta**2 underflows to 0 in the closed-form B of the cross-check
        with pytest.raises(ValueError, match=r"exp\(1e-200x\): ZeroDivisionError"):
            exponential(1e-200)

    def test_arithmetic_error_in_a_closed_form_names_the_weight(self):
        with pytest.raises(ValueError, match="testing function r2: ZeroDivisionError"):
            radial_vanishing(
                lambda x: np.asarray(x, dtype=float) ** 2,
                lambda x: 2.0 * np.asarray(x, dtype=float),
                analytic_B=lambda R, sigma, t, geom: R ** 4 / (4.0 * t),  # t = 0 is cross-checked
                name="r2",
            )

    def test_custom_weight_accepted(self):
        f = radial_vanishing(
            lambda x: np.sinh(np.asarray(x, dtype=float)),
            lambda x: np.cosh(np.asarray(x, dtype=float)),
            name="sinh",
        )
        assert f.weight_integrand(1.0) == pytest.approx(
            math.sinh(1.0) ** 2 / math.cosh(1.0), rel=1e-14
        )


class TestPowerLawB:
    def test_radial_quadratic_closed_form(self):
        # f = r^2 over [0, 1 + sqrt(2)]: integral of f^2/f' = U^4/8
        got = power_law_B(2, 1.0, SQRT2, 1.0, Geometry.radial(3))
        assert got == pytest.approx(4.246320343559642, rel=1e-14)

    def test_cartesian_linear_closed_form(self):
        # f = x over [-U, U]: integral of f^2/f' = 2 U^3/3
        got = power_law_B(1, 1.0, SQRT2, 1.0, Geometry.cartesian1d())
        assert got == pytest.approx(9.380711874576983, rel=1e-14)

    def test_cartesian_rejects_nonlinear_power(self):
        with pytest.raises(ValueError):
            power_law_B(2, 1.0, SQRT2, 1.0, Geometry.cartesian1d())

    def test_bad_parameters_rejected(self):
        geom = Geometry.radial(2)
        with pytest.raises(ValueError):
            power_law_B(0, 1.0, SQRT2, 1.0, geom)
        with pytest.raises(ValueError):
            power_law_B(1, -1.0, SQRT2, 1.0, geom)
        with pytest.raises(ValueError):
            power_law_B(1, 1.0, SQRT2, -0.5, geom)

    @pytest.mark.parametrize("n, geom", [(3, Geometry.radial(3)), (2.5, Geometry.radial(2)), (1, Geometry.cartesian1d())])
    @pytest.mark.parametrize("t", [0.0, 1.0, 0.37, 2.5])
    def test_scalar_time_of_any_type_gives_the_float_of_a_0d_array(self, t, n, geom):
        want = power_law_B(n, 0.8, SQRT2, np.array(t), geom)
        assert type(want) is float
        for scalar in [t, np.float64(t)] + ([int(t)] if t.is_integer() else []):
            got = power_law_B(n, 0.8, SQRT2, scalar, geom)
            assert type(got) is float
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("R, sigma, t", [
        (math.nan, SQRT2, 1.0), (1.0, math.nan, 1.0), (1.0, SQRT2, math.nan),
        (1.0, SQRT2, np.array([0.0, 1.0, math.nan])),
    ])
    @pytest.mark.parametrize("geom", [Geometry.radial(1), Geometry.cartesian1d()])
    def test_nan_input_raises(self, R, sigma, t, geom):
        with pytest.raises(ValueError, match="require R > 0, sigma > 0, t >= 0"):
            power_law_B(1, R, sigma, t, geom)

    def test_scalar_time_checks(self):
        geom = Geometry.radial(3)
        for t in (-1, -1.0, np.float64(-1e-300), np.array(-1.0)):
            with pytest.raises(ValueError, match="t >= 0"):
                power_law_B(1, 1.0, SQRT2, t, geom)
        # a NaN time is no valid time either
        for t, geometry in ((math.nan, geom), (np.float64(math.nan), Geometry.cartesian1d())):
            with pytest.raises(ValueError, match="t >= 0"):
                power_law_B(1, 1.0, SQRT2, t, geometry)
        with pytest.raises(ValueError, match="linear weight only"):
            power_law_B(2, 1.0, SQRT2, 0.5, Geometry.cartesian1d())
        for geometry in ("spherical", None):
            with pytest.raises(ValueError, match="unknown geometry"):
                power_law_B(1, 1.0, SQRT2, 0.5, geometry)

    def test_matches_quadrature(self):
        geom = Geometry.radial(2)
        closed = power_law_B(3, 0.7, 1.3, 0.9, geom)
        upper = 0.7 + 1.3 * 0.9
        # f^2/f' for f = r^3 is r^4/3
        quad = integrate_fn(lambda r: r**4 / 3.0, 0.0, upper, QuadratureRule(SIMPSON, 512))
        assert closed == pytest.approx(quad, rel=1e-10)


class TestAnalyticHorizon:
    """The closed-form horizon integrals: construction checks and argument checks."""

    @staticmethod
    def _r2(horizon_factor: float):
        # f = r**2: f**2/f' = r**3/2, B = U**4/8, and the integral of 1/B is
        # 8/(3 sigma) (R**-3 - U**-3)
        def horizon(R, sigma, tau, geom):
            return horizon_factor * 8.0 / (3.0 * sigma) * (R ** -3 - (R + sigma * tau) ** -3)

        return model._build(model.TestingFunction(
            lambda x: np.asarray(x, dtype=float) ** 2, lambda x: 2.0 * np.asarray(x, dtype=float), model.RADIAL_VANISHING,
            analytic_B=lambda R, sigma, t, geom: (R + sigma * np.asarray(t, dtype=float)) ** 4 / 8.0,
            name="r2", analytic_horizon=horizon,
        ))

    def test_a_correct_antiderivative_is_accepted(self):
        f = self._r2(1.0)
        assert f.analytic_horizon(1.0, SQRT2, 0.7, Geometry.radial(3)) > 0

    def test_an_antiderivative_off_by_a_part_per_million_is_rejected(self):
        with pytest.raises(ValueError, match=r"testing function r2: analytic_horizon disagrees with quadrature"):
            self._r2(1.0 + 1e-6)

    def test_an_antiderivative_off_by_a_part_per_million_is_rejected_in_1d(self):
        exp1 = exponential(1.0)
        with pytest.raises(ValueError, match="analytic_horizon disagrees"):
            model._build(replace(exp1, analytic_horizon=lambda *args: (1.0 + 1e-6) * exp1.analytic_horizon(*args)))
        assert model._build(replace(exp1, name="copy")).analytic_horizon is exp1.analytic_horizon

    def test_a_horizon_form_needs_a_closed_form_B(self):
        with pytest.raises(ValueError, match="analytic_horizon needs analytic_B"):
            model._build(replace(linear(), analytic_B=None))

    @pytest.mark.parametrize("n", [74.0, 100.0, 162.5])
    def test_high_powers_build(self, n):
        # the horizon cross-check uses the 8192-panel rule, whose Simpson error
        # for 1/B stays below 1e-9 relative up to the largest n whose f' is
        # finite on the validation grid; the 2048-panel rule refused n >= 74
        assert power_law(n).analytic_horizon is not None

    def test_a_power_whose_derivative_overflows_is_refused_as_before(self):
        with pytest.raises(ValueError, match=r"testing function r\^200: f' must be finite and positive"):
            power_law(200.0)

    def test_builtin_weights_have_the_form(self):
        for f in (power_law(2.5), linear(), exponential(2.0)):
            assert f.analytic_horizon is not None

    def test_power_law_horizon_values(self):
        # n = 1, R = 1, sigma = 1, tau = 1: 3/2 (1 - 1/4) radially, 3/4 (1 - 1/4) in 1-D
        assert power_law_horizon(1, 1.0, 1.0, 1.0, Geometry.radial(3)) == pytest.approx(9.0 / 8.0, rel=1e-15)
        assert power_law_horizon(1, 1.0, 1.0, 1.0, Geometry.cartesian1d()) == pytest.approx(9.0 / 16.0, rel=1e-15)
        assert power_law_horizon(3, 1.0, 1.0, 0.0, Geometry.radial(3)) == 0.0

    def test_power_law_horizon_checks_its_arguments(self):
        geom = Geometry.radial(3)
        for args in ((0, 1.0, SQRT2, 1.0, geom), (1, -1.0, SQRT2, 1.0, geom), (1, 1.0, math.nan, 1.0, geom),
                     (1, 1.0, SQRT2, -0.5, geom), (1, 1.0, SQRT2, math.nan, geom)):
            with pytest.raises(ValueError):
                power_law_horizon(*args)
        with pytest.raises(ValueError, match="linear weight only"):
            power_law_horizon(2, 1.0, SQRT2, 0.5, Geometry.cartesian1d())
        with pytest.raises(ValueError, match="unknown geometry"):
            power_law_horizon(1, 1.0, SQRT2, 0.5, "spherical")

    def test_exponential_horizon_is_cartesian_only(self):
        with pytest.raises(ValueError, match="1-D geometry"):
            exponential(2.0).analytic_horizon(1.0, SQRT2, 1.0, Geometry.radial(3))


class TestClosedFormBArrays:
    TIMES = np.linspace(0.0, 3.0, 2049)

    @staticmethod
    def _max_rel(array, scalars):
        scalars = np.asarray(scalars)
        return float(np.max(np.abs(array - scalars) / np.abs(scalars)))

    @pytest.mark.parametrize(
        "n, geom",
        [(1, Geometry.radial(1)), (2.5, Geometry.radial(2)), (3, Geometry.radial(3)), (1, Geometry.cartesian1d())],
    )
    def test_power_law_array_matches_scalar_calls(self, n, geom):
        got = power_law_B(n, 0.8, SQRT2, self.TIMES, geom)
        assert isinstance(got, np.ndarray) and got.shape == self.TIMES.shape
        scalars = [power_law_B(n, 0.8, SQRT2, float(t), geom) for t in self.TIMES]
        assert all(type(b) is float for b in scalars)
        assert self._max_rel(got, scalars) <= 4e-16

    def test_power_law_array_rejects_negative_time(self):
        with pytest.raises(ValueError):
            power_law_B(1, 1.0, SQRT2, np.array([0.0, -0.1]), Geometry.radial(1))

    def test_exponential_array_matches_scalar_calls(self):
        f = exponential(2.0)
        geom = Geometry.cartesian1d()
        got = f.analytic_B(1.0, SQRT2, self.TIMES, geom)
        scalars = [f.analytic_B(1.0, SQRT2, float(t), geom) for t in self.TIMES]
        assert self._max_rel(got, scalars) <= 4e-16

    def test_exponential_array_overflow_raises(self):
        f = exponential(2.0)
        # sinh(2 * (1 + sqrt(2) * 300)) exceeds the double range
        with pytest.raises(OverflowError):
            f.analytic_B(1.0, SQRT2, np.array([0.0, 1.0, 300.0]), Geometry.cartesian1d())
        with pytest.raises(OverflowError):
            f.analytic_B(1.0, SQRT2, 300.0, Geometry.cartesian1d())


class TestWeightMemoization:
    def test_builtin_weights_are_built_once(self):
        assert linear() is linear()
        assert power_law(3) is power_law(3)
        assert exponential(2.0) is exponential(2.0)
        assert power_law(3) is not power_law(2)

    def test_cross_check_runs_once_per_weight(self, monkeypatch):
        calls = []
        original = model._cross_check_analytic_B
        monkeypatch.setattr(model, "_cross_check_analytic_B", lambda tf: calls.append(tf) or original(tf))
        exponential.cache_clear()
        try:
            first = exponential(2.0)
            assert exponential(2.0) is first
            assert len(calls) == 1
        finally:
            exponential.cache_clear()

    def test_custom_weights_are_not_cached(self):
        def f(x):
            return np.asarray(x, dtype=float) ** 2

        def fp(x):
            return 2.0 * np.asarray(x, dtype=float)

        assert radial_vanishing(f, fp) is not radial_vanishing(f, fp)


def errstate_exp(beta, x):
    """``exponential(beta).f`` as it was: numpy's exp under errstate(over='ignore')."""
    with np.errstate(over="ignore"):
        return np.exp(beta * np.asarray(x, dtype=float))


class TestExponentialWeight:
    """A float argument skips the errstate; every argument keeps numpy's bits."""

    BETAS = (0.5, 1.0, 2.0, 3.7)

    @staticmethod
    def _arguments(beta, seed):
        rng = np.random.default_rng(seed)
        edge = math.log(np.finfo(float).max) / beta  # 709.78/beta
        return np.concatenate([
            rng.uniform(-50.0, 50.0, 200) / beta,
            edge + rng.uniform(-1.0, 1.0, 200) / beta,  # either side of the float range
            edge * rng.uniform(1.0, 3.0, 50),  # past it
            [709.0 / beta, np.nextafter(709.0 / beta, 0.0), edge, np.nextafter(edge, math.inf), 0.0, -0.0,
             -edge, math.inf, -math.inf, math.nan],
        ])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("beta", BETAS)
    def test_scalars_keep_the_errstate_bits(self, beta, seed):
        f = exponential(beta).f
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in self._arguments(beta, seed).tolist():
                for arg in (x, np.float64(x)):
                    got, want = f(arg), errstate_exp(beta, arg)
                    assert type(got) is type(want) is np.float64
                    assert got.tobytes() == want.tobytes(), (beta, x)

    @pytest.mark.parametrize("beta", BETAS)
    def test_arrays_keep_the_errstate_bits(self, beta):
        xs = self._arguments(beta, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exponential(beta).f(xs)
        assert got.tobytes() == errstate_exp(beta, xs).tobytes()
        assert np.isinf(got[xs > math.log(np.finfo(float).max) / beta]).all()

    def test_inf_past_the_float_range_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exponential(2.0).f(400.0) == math.inf
            assert exponential(2.0).f_prime(400.0) == math.inf
            assert exponential(2.0).f(354.0) < math.inf

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("beta", BETAS)
    def test_derivative_is_inf_where_beta_f_overflows(self, beta, seed):
        # exp(beta*x) is finite up to 709.78/beta, beta*exp(beta*x) up to log(max/beta)/beta
        xs = self._arguments(beta, seed)
        with np.errstate(over="ignore"):
            want = beta * errstate_exp(beta, xs)
            scalars = [beta * errstate_exp(beta, x) for x in xs.tolist()]
        f_prime = exponential(beta).f_prime
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f_prime(xs)
            for x, w in zip(xs.tolist(), scalars):
                for arg in (x, np.float64(x)):
                    g = f_prime(arg)
                    assert type(g) is np.float64 and g.tobytes() == w.tobytes(), (beta, x)
        assert got.tobytes() == want.tobytes()
        finite_f = np.isfinite(errstate_exp(beta, xs))
        assert np.isinf(got[finite_f & ~np.isfinite(want)]).all()
        if beta > 1.0:  # a window where f is finite and f' is not
            assert (finite_f & np.isinf(want)).any()


class TestIdentityWeightBits:
    """``linear()`` and ``power_law_B`` for n = 1, 1.0 and 3, pinned bit for
    bit at seeded arguments: every kind of time a caller passes, and the
    horizon integral's tau/B(0) branch at a tiny tau."""

    rng = np.random.default_rng(30)
    X = rng.uniform(-4.0, 4.0, 6)
    R, SIGMA = float(0.5 + rng.uniform()), float(0.5 + 1.5 * rng.uniform())
    T = rng.uniform(0.0, 3.0, 4)
    TIMES = {"float": float(T[0]), "int": 2, "np.float64": np.float64(T[1]), "0-d": np.array(T[2]), "1-D": T}
    GEOMETRIES = {"radial3": Geometry.radial(3), "cartesian1d": Geometry.cartesian1d()}
    # B of the identity weight: x**1 radially, 2x**3/3 over [-U, U] in 1-D
    B_LINEAR = {
        "radial3": {
            "float": "0x1.6bb06a0d3809bp+0", "int": "0x1.ab1e7ebf70c4fp+1", "np.float64": "0x1.58336db738474p+1",
            "0-d": "0x1.8d1338d875db5p-1",
            "1-D": ["0x1.6bb06a0d3809bp+0", "0x1.58336db738474p+1", "0x1.8d1338d875db4p-1", "0x1.90f1bae73e23fp+1"],
        },
        "cartesian1d": {
            "float": "0x1.6bb06a0d3809bp+1", "int": "0x1.ab1e7ebf70c4fp+2", "np.float64": "0x1.58336db738474p+2",
            "0-d": "0x1.8d1338d875db5p+0",
            "1-D": ["0x1.6bb06a0d3809bp+1", "0x1.58336db738474p+2", "0x1.8d1338d875db4p+0", "0x1.90f1bae73e23fp+2"],
        },
    }
    B_CUBE_RADIAL3 = {
        "float": "0x1.7e697035aac84p-1", "int": "0x1.8cc853f3e681dp+1", "np.float64": "0x1.14e69946fb2b7p+1",
        "0-d": "0x1.16e0ee8c83136p-2",
        "1-D": ["0x1.7e697035aac84p-1", "0x1.14e69946fb2b7p+1", "0x1.16e0ee8c83136p-2", "0x1.651700fa2161dp+1"],
    }
    HORIZON = {
        ("radial3", "T3"): "0x1.66363f45a86e1p+1", ("radial3", "tiny"): "0x1.f5f1266f168fcp-65",
        ("cartesian1d", "T3"): "0x1.66363f45a86e1p+0", ("cartesian1d", "tiny"): "0x1.f5f1266f168fcp-66",
    }

    @staticmethod
    def hexes(value):
        if isinstance(value, np.ndarray) and value.ndim:
            return [float(v).hex() for v in value]
        assert type(value) is float
        return value.hex()

    def test_seeded_arguments(self):
        assert [x.hex() for x in self.X[:2]] == ["-0x1.0e8ac21393bf4p+1", "-0x1.2260b323ee150p-1"]
        assert (self.R.hex(), self.SIGMA.hex()) == ("0x1.a7251746055ddp-1", "0x1.542860b2543e0p-1")

    def test_weight_and_integrand(self):
        w = linear()
        for x in self.X.tolist():
            assert float(w.f(x)).hex() == x.hex()
            assert float(w.f_prime(x)).hex() == (1.0).hex()
            assert w.weight_integrand(x).hex() == (x * x).hex()
        assert w.f(self.X).tobytes() == self.X.tobytes()
        assert w.f_prime(self.X).tobytes() == np.ones(6).tobytes()
        assert w.weight_integrand(self.X).tobytes() == (self.X * self.X).tobytes()

    @pytest.mark.parametrize("geometry", ["radial3", "cartesian1d"])
    @pytest.mark.parametrize("time", ["float", "int", "np.float64", "0-d", "1-D"])
    def test_B(self, geometry, time):
        t, geom = self.TIMES[time], self.GEOMETRIES[geometry]
        want = self.B_LINEAR[geometry][time]
        assert self.hexes(linear().analytic_B(self.R, self.SIGMA, t, geom)) == want
        for n in (1, 1.0):
            assert self.hexes(power_law_B(n, self.R, self.SIGMA, t, geom)) == want
        if geometry == "radial3":
            assert self.hexes(power_law_B(3, self.R, self.SIGMA, t, geom)) == self.B_CUBE_RADIAL3[time]

    @pytest.mark.parametrize("geometry", ["radial3", "cartesian1d"])
    @pytest.mark.parametrize("tau", ["T3", "tiny"])
    def test_horizon(self, geometry, tau):
        value = float(self.T[3]) if tau == "T3" else 1e-20  # 1e-20: the tau/B(0) branch
        got = linear().analytic_horizon(self.R, self.SIGMA, value, self.GEOMETRIES[geometry])
        assert got.hex() == self.HORIZON[geometry, tau]
