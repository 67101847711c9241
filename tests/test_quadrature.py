import math

import numpy as np
import pytest

from eulerblowup.quadrature import (
    NonFiniteIntegrandError,
    QuadratureRule,
    SIMPSON,
    TRAPEZOID,
    integrate_fn,
    integrate_samples,
)


class TestRuleValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule("gauss", 16)

    def test_simpson_odd_panels_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(SIMPSON, 3)

    def test_nonpositive_panels_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(TRAPEZOID, 0)


class TestIntegrateSamples:
    def test_trapezoid_exact_on_linear(self):
        xs = np.linspace(0.0, 2.0, 9)
        # int_0^2 (3x + 1) dx = 8
        got = integrate_samples(3.0 * xs + 1.0, xs[1] - xs[0])
        assert got == pytest.approx(8.0, rel=1e-14)

    def test_simpson_exact_on_cubic(self):
        xs = np.linspace(0.0, 1.0, 17)
        # int_0^1 (3x^3 - 2x + 1) dx = 3/4
        vals = 3.0 * xs**3 - 2.0 * xs + 1.0
        got = integrate_samples(vals, xs[1] - xs[0], QuadratureRule(SIMPSON, 2))
        assert got == pytest.approx(0.75, rel=1e-14)

    def test_simpson_needs_even_panel_count(self):
        with pytest.raises(ValueError):
            integrate_samples(np.ones(4), 0.1, QuadratureRule(SIMPSON, 2))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            integrate_samples(np.ones(1), 0.1)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError):
            integrate_samples(np.ones(5), 0.0)

    def test_nan_sample_raises_with_abscissa(self):
        vals = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate_samples(vals, 0.5)
        assert err.value.abscissa == pytest.approx(1.0)


class TestIntegrateFn:
    def test_matches_closed_form_sin(self):
        got = integrate_fn(np.sin, 0.0, math.pi, QuadratureRule(SIMPSON, 64))
        assert got == pytest.approx(2.0, rel=1e-7)

    def test_trapezoid_second_order_convergence(self):
        exact = 2.0
        errs = []
        for panels in (16, 32, 64):
            got = integrate_fn(np.sin, 0.0, math.pi, QuadratureRule(TRAPEZOID, panels))
            errs.append(abs(got - exact))
        # halving h should cut the error ~4x on a smooth integrand
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_simpson_beats_trapezoid(self):
        exact = math.e - 1.0
        tr = abs(integrate_fn(np.exp, 0.0, 1.0, QuadratureRule(TRAPEZOID, 64)) - exact)
        si = abs(integrate_fn(np.exp, 0.0, 1.0, QuadratureRule(SIMPSON, 64)) - exact)
        assert si < tr / 100.0

    def test_scalar_only_callable_accepted(self):
        got = integrate_fn(lambda x: float(x) ** 2, 0.0, 1.0, QuadratureRule(SIMPSON, 32))
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_empty_interval_is_zero(self):
        assert integrate_fn(np.exp, 1.5, 1.5) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_fn(np.exp, 1.0, 0.0)

    def test_divergent_integrand_reports_abscissa(self):
        def g(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.asarray(x, dtype=float)

        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate_fn(g, 0.0, 1.0)
        assert err.value.abscissa == 0.0
