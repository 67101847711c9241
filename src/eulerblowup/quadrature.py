"""Composite Newton-Cotes and Gauss-Legendre quadrature for sampled fields and callables.

Two fixed rules (trapezoid and Simpson) integrate sampled fields, the
functionals of solver snapshots, and through :func:`integrate_fn` a
callable on uniform panels.  The 8-node Gauss-Legendre rule takes every
integral of a callable the package needs: the initial data over a bump's
support (:func:`integrate_segments`, exact to rounding for the quartic
bump against a polynomial weight), the cross-checks of the weights'
closed forms, and B(t) with the integral of 1/B over a horizon, on the
nodes of :func:`segment_nodes` with the weights ``_GL8_WEIGHTS`` and the
running integral ``_GL8_RUNNING``.  No rule is adaptive, so every result
is a pure function of its inputs.
"""

from __future__ import annotations

import math
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
    A non-finite sample raises :class:`NonFiniteIntegrandError` at its
    abscissa ``i * spacing``.  The samples are scanned only when the
    rule's result is not finite.  Where the scan finds every sample
    finite, the sum or its end correction overflowed, and OverflowError
    names the rule.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-D array of at least two samples")
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    if rule.method == TRAPEZOID:
        # Python floats: an infinite end sample gives inf - inf with no numpy warning
        total = float(spacing * (float(v.sum()) - 0.5 * (float(v[0]) + float(v[-1]))))
        if not math.isfinite(total):
            raise _overflow(v, spacing, rule)
        return total
    if (v.size - 1) % 2 != 0:
        _check_finite(v, np.arange(v.size) * spacing)
        raise ValueError("Simpson rule requires an even panel count")
    total = float(spacing / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum()))
    if not math.isfinite(total):
        raise _overflow(v, spacing, rule)
    return total


def _overflow(v: np.ndarray, spacing: float, rule: QuadratureRule) -> OverflowError:
    """The error for a non-finite sum of samples: NonFiniteIntegrandError, raised
    here, at a non-finite sample, else the OverflowError to raise."""
    _check_finite(v, np.arange(v.size) * spacing)
    return OverflowError(f"the {rule.method} rule's sum of {v.size} finite samples overflows")


def _evaluate(g: Callable, xs: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(g(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(g(x)) for x in xs])
    return vals


# 8-node Gauss-Legendre rule on [-1, 1], nodes and weights to 25 digits
_GL8_NODES = np.array([
    -0.9602898564975362316835609, -0.7966664774136267395915539,
    -0.5255324099163289858177390, -0.1834346424956498049394761,
    0.1834346424956498049394761, 0.5255324099163289858177390,
    0.7966664774136267395915539, 0.9602898564975362316835609,
])
_GL8_WEIGHTS = np.array([
    0.1012285362903762591525314, 0.2223810344533744705443560,
    0.3137066458778872873379622, 0.3626837833783619829651504,
    0.3626837833783619829651504, 0.3137066458778872873379622,
    0.2223810344533744705443560, 0.1012285362903762591525314,
])


def _running_matrix() -> np.ndarray:
    """Q[k, j], the integral over [-1, x_k] of the Lagrange basis polynomial
    l_j of the nodes: Q @ g gives the integral of the interpolant of g from
    -1 up to each node.  Built in the Legendre basis, where the nodes'
    discrete orthogonality gives l_j = sum of (m + 1/2) w_j P_m(x_j) P_m and
    P_m integrates to (P_(m+1) - P_(m-1))/(2m + 1), with P_(-1) = -1 for
    m = 0: within 2e-16 of the exact matrix of the float nodes."""
    P = [-np.ones(8), np.ones(8), _GL8_NODES]  # P_(-1), ..., P_8 at the nodes
    for m in range(1, 8):
        P.append(((2 * m + 1) * _GL8_NODES * P[m + 1] - m * P[m]) / (m + 1))
    P, m = np.array(P), np.arange(8)[:, None]
    return ((P[2:] - P[:-2]) / (2 * m + 1)).T @ ((m + 0.5) * P[1:9] * _GL8_WEIGHTS)


_GL8_RUNNING = _running_matrix()


def segment_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 8-node rule's nodes on each segment [edges[k], edges[k+1]], one row
    per segment, and the segments' half-widths.  The integral of g over
    segment k is ``half[k] * (g(nodes[k]) @ _GL8_WEIGHTS)``; edges that repeat
    give a segment of width 0."""
    half = 0.5 * np.diff(edges)
    return (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _GL8_NODES, half


def integrate_segments(g: Callable, edges) -> np.ndarray:
    """Integral of a callable over each segment [edges[k], edges[k+1]].

    One 8-node Gauss-Legendre rule per segment, exact for polynomials of
    degree 15 on it; all nodes go to ``g`` in one call when it accepts
    arrays.  The edges must be increasing.  A non-finite evaluation
    raises :class:`NonFiniteIntegrandError` naming the offending node.
    """
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("need a 1-D array of at least two edges")
    if not np.all(np.diff(e) > 0):
        raise ValueError("segment edges must be increasing")
    xs, half = segment_nodes(e)
    vals = _evaluate(g, xs.ravel())
    _check_finite(vals, xs.ravel())
    return half * (vals.reshape(xs.shape) @ _GL8_WEIGHTS)


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
