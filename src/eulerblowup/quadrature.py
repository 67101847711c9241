"""Composite Newton-Cotes quadrature for sampled fields and callables.

Two fixed rules (trapezoid and Simpson) cover every integral the package
needs: functionals of solver snapshots, weight integrals of testing
functions, and the time integrals appearing in blowup thresholds.  The
rules are deliberately non-adaptive so that every result is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

TRAPEZOID = "trapezoid"
SIMPSON = "simpson"
_METHODS = (TRAPEZOID, SIMPSON)


class NonFiniteIntegrandError(ValueError):
    """Integrand returned a non-finite value; carries the abscissa."""

    def __init__(self, abscissa: float, value: float):
        self.abscissa = float(abscissa)
        self.value = float(value)
        super().__init__(
            f"integrand is not finite at x={self.abscissa!r} (value {self.value!r})"
        )


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature method plus panel count for callable integrands.

    ``panels`` is ignored by :func:`integrate_samples`, where the sample
    spacing already fixes the panels.
    """

    method: str = TRAPEZOID
    panels: int = 1024

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.panels < 1:
            raise ValueError("panel count must be positive")
        if self.method == SIMPSON and self.panels % 2 != 0:
            raise ValueError("Simpson rule requires an even panel count")


DEFAULT_RULE = QuadratureRule(TRAPEZOID, 1024)


def _check_finite(values: np.ndarray, xs: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteIntegrandError(xs[i], values[i])


def integrate_samples(values: np.ndarray, spacing: float, rule: QuadratureRule = DEFAULT_RULE) -> float:
    """Integrate uniformly spaced samples with the rule's method.

    The panel count is ``len(values) - 1``; Simpson requires it to be even.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-D array of at least two samples")
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    _check_finite(v, np.arange(v.size) * spacing)
    if rule.method == TRAPEZOID:
        return float(spacing * (v.sum() - 0.5 * (v[0] + v[-1])))
    n = v.size - 1
    if n % 2 != 0:
        raise ValueError("Simpson rule requires an even panel count")
    return float(spacing / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum()))


def _evaluate(g: Callable, xs: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(g(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(g(x)) for x in xs])
    return vals

def integrate_fn(g: Callable, a: float, b: float, rule: QuadratureRule = DEFAULT_RULE) -> float:
    """Integrate a callable over [a, b] on the rule's uniform panels.

    ``g`` may be vectorized over numpy arrays or accept scalars.  A
    non-finite evaluation raises :class:`NonFiniteIntegrandError` naming
    the offending abscissa.
    """
    if not b >= a:
        raise ValueError("integration bounds must satisfy b >= a")
    if b == a:
        return 0.0
    xs = np.linspace(a, b, rule.panels + 1)
    vals = _evaluate(g, xs)
    _check_finite(vals, xs)
    return integrate_samples(vals, (b - a) / rule.panels, QuadratureRule(rule.method, rule.panels))
