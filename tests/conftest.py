"""Shared fixtures: session-cached solver traces for the expensive runs, seeded weights."""

import numpy as np
import pytest

from eulerblowup.criteria import theorem_context
from eulerblowup.model import Geometry, nonneg_increasing, radial_vanishing
from eulerblowup.scenarios import certified_suite, reference_scenario
from eulerblowup.solver import SolverConfig, run

GEOMS = {
    "radial3": Geometry.radial(3),
    "radial1": Geometry.radial(1),
    "1d": Geometry.cartesian1d(),
}


@pytest.fixture(scope="session")
def ref_traces():
    """Lazy cache of reference-bump traces keyed by (geometry tag, cells)."""
    cache = {}

    def get(tag: str, cells: int = 4096):
        key = (tag, cells)
        if key not in cache:
            scen = reference_scenario(GEOMS[tag], cells=cells)
            cache[key] = run(scen, SolverConfig(t_end=0.5))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def cert_runs():
    """Lazy cache of certified runs: (case, context, trace) by (name, cells)."""
    cache = {}

    def get(name: str, cells: int = 4096):
        key = (name, cells)
        if key not in cache:
            case = next(c for c in certified_suite(cells=cells) if c.name == name)
            ctx = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
            rec = ctx.recorder()
            trace = run(case.scenario, SolverConfig(t_end=1.0), recorder=rec)
            cache[key] = (case, ctx, trace)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def seeded_weight():
    """Seeded weights with no closed-form B: r^p (1 + c r) radially, a sum of exponentials in 1-D."""

    def get(radial: bool, seed: int):
        rng = np.random.default_rng(seed)
        if radial:
            p, c = rng.uniform(1.0, 2.0), rng.uniform(0.2, 1.0)
            return radial_vanishing(
                lambda x: np.asarray(x, dtype=float) ** p * (1.0 + c * np.asarray(x, dtype=float)),
                lambda x: p * np.asarray(x, dtype=float) ** (p - 1.0)
                + c * (p + 1.0) * np.asarray(x, dtype=float) ** p,
                name=f"r^{p:.3f}(1+{c:.3f}r)",
            )
        b1, b2, c2 = rng.uniform(1.0, 2.0), rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.5)
        return nonneg_increasing(
            lambda x: np.exp(b1 * np.asarray(x, dtype=float)) + c2 * np.exp(b2 * np.asarray(x, dtype=float)),
            lambda x: b1 * np.exp(b1 * np.asarray(x, dtype=float))
            + c2 * b2 * np.exp(b2 * np.asarray(x, dtype=float)),
            name=f"exp({b1:.3f}x)+{c2:.3f}exp({b2:.3f}x)",
        )

    return get
