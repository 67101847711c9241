import math

import numpy as np
import pytest

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

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            make_bump_scenario(
                self.eos, Geometry.radial(1), 0.0, 0.1, 0.0, GridSpec(2.0, 256)
            )


class TestTestingFunctions:
    def test_power_law_basics(self):
        f = power_law(2.0)
        assert f.cls == POWER_LAW and f.power == 2.0
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

    def test_matches_quadrature(self):
        geom = Geometry.radial(2)
        closed = power_law_B(3, 0.7, 1.3, 0.9, geom)
        upper = 0.7 + 1.3 * 0.9
        # f^2/f' for f = r^3 is r^4/3
        quad = integrate_fn(lambda r: r**4 / 3.0, 0.0, upper, QuadratureRule(SIMPSON, 512))
        assert closed == pytest.approx(quad, rel=1e-10)


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
