"""Kernel probe: ``solver.step`` timed directly, per geometry, scheme and size.

Each configuration steps the reference bump from its initial state and
checks that the result stays positive, and steps the constant state and
checks that it is a bitwise fixed point.  The probe covers the first-order
scheme, which no workload can gate: on ref-radial3 first order fails the
propagation and mass checks.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from eulerblowup import functionals, model, scenarios, solver

GEOMETRIES = {"radial3": model.Geometry.radial(3), "1d": model.Geometry.cartesian1d()}
SCHEMES = (solver.MUSCL, solver.FIRST_ORDER)
CELLS = (256, 4096, 16384)
FIXED_POINT_STEPS = 3


def run_probe(budget_s: float, min_reps: int) -> tuple[dict, list[str]]:
    """Median microseconds per step for each configuration, and any failures."""
    timings, failures = {}, []
    for tag, geom in GEOMETRIES.items():
        for scheme in SCHEMES:
            for cells in CELLS:
                name = f"solver.probe.step_us.{tag}.{scheme}.{cells}"
                scen = scenarios.reference_scenario(geom, cells)
                snap = functionals.initial_snapshot(scen)
                eos = scen.eos
                dt = solver.cfl_dt(snap, eos)
                out = solver.step(snap, eos, geom, dt, scheme)  # warm-up
                if not np.all(out.rho > 0):
                    failures.append(f"{name}: non-positive density")
                samples = []
                deadline = perf_counter() + budget_s
                while len(samples) < min_reps or perf_counter() < deadline:
                    t0 = perf_counter()
                    solver.step(snap, eos, geom, dt, scheme)
                    samples.append(perf_counter() - t0)
                timings[name] = 1e6 * median(samples)

                const = functionals.initial_snapshot(scenarios.constant_scenario(geom, cells))
                state = const
                for _ in range(FIXED_POINT_STEPS):
                    state = solver.step(state, eos, geom, solver.cfl_dt(const, eos), scheme)
                if not (np.array_equal(state.rho, const.rho) and np.array_equal(state.V, const.V)):
                    failures.append(f"{name}: constant state is not a fixed point")
    return timings, failures
