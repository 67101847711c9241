"""In-memory span tracing of the eulerblowup layers, from outside the package.

The package is not edited. Instead, each traced function is replaced, for
the length of a traced pass, by a wrapper at every name the package's
modules hold it under, so a call from ``solver.run`` to ``step`` or from
``verify`` to ``run`` goes through the wrapper.  A span records its id,
its parent, the benchmark operation it belongs to, its name, start, end,
self time and one value (cells stepped, quadrature points, a failed check,
bytes a command wrote or a nesting flag).  Spans stay in memory until the
benchmark writes them out.

The sweep command evaluates its rows on a thread pool.  A span opened on
a thread with no open span of its own takes the open ``cli.main`` span as
its parent, so pool work is attributed to the command.
"""

from __future__ import annotations

import functools
import itertools
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import eulerblowup
from eulerblowup import cli, criteria, functionals, model, quadrature, scenarios, solver, verify

PACKAGE_MODULES = (eulerblowup, model, quadrature, functionals, criteria, solver, verify, scenarios, cli)


def _cells(args, kwargs, result):
    snap = args[0] if args else kwargs["snap"]
    return snap.rho.size


def _points(args, kwargs, result):
    a, b = args[1], args[2]
    rule = args[3] if len(args) > 3 else kwargs.get("rule", quadrature.DEFAULT_RULE)
    return rule.panels + 1 if b > a else 0


def _bytes_written(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" not in argv:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0


def _failed(args, kwargs, result):
    return 1 if result.status == verify.FAIL else 0


# (owner, attribute, span name, value recorder).  Several functions may
# share one span name; owners that are classes get their method replaced
# on the class.
TARGETS = (
    (solver, "run", "solver.run", None),
    (solver, "step", "solver.step", _cells),
    (solver, "cfl_dt", "solver.cfl_dt", None),
    (solver, "detect_blowup", "solver.detect_blowup", None),
    (functionals.SeriesRecorder, "observe", "functionals.observe", None),
    (functionals, "momentum_functional", "functionals.momentum_functional", None),
    (functionals, "mass_functional", "functionals.mass_functional", None),
    (functionals, "weight_functional_B", "functionals.weight_functional_B", None),
    (functionals, "initial_snapshot", "functionals.initial_snapshot", None),
    (functionals, "cone_energy", "functionals.cone", None),
    (functionals, "cone_gradient_constant", "functionals.cone", None),
    (quadrature, "integrate_fn", "quadrature.integrate_fn", _points),
    (quadrature, "integrate_samples", "quadrature.integrate_samples", None),
    (criteria, "check_general", "criteria.check", None),
    (criteria, "check_power_radial", "criteria.check", None),
    (criteria, "check_linear_1d", "criteria.check", None),
    (criteria, "check_linear_1d_tau", "criteria.check", None),
    (criteria, "general_condition_thresholds", "criteria.general_condition_thresholds", None),
    (criteria, "theorem_context", "criteria.theorem_context", None),
    (criteria, "minimal_tau", "criteria.minimal_tau", None),
    (criteria.TheoremContext, "riccati_coeff", "criteria.riccati", None),
    (model, "power_law", "model.weight_build", None),
    (model, "linear", "model.weight_build", None),
    (model, "exponential", "model.weight_build", None),
    (model, "radial_vanishing", "model.weight_build", None),
    (model, "nonneg_increasing", "model.weight_build", None),
    (model, "make_bump_scenario", "model.make_bump_scenario", None),
    (scenarios, "reference_scenario", "scenarios.build", None),
    (scenarios, "constant_scenario", "scenarios.build", None),
    (scenarios, "certified_linear_tau_case", "scenarios.build", None),
    (scenarios, "certified_linear_infinite_case", "scenarios.build", None),
    (scenarios, "certified_power_radial_case", "scenarios.build", None),
    (scenarios, "certified_general_radial_case", "scenarios.build", None),
    (scenarios, "certified_general_1d_case", "scenarios.build", None),
    (scenarios, "certified_suite", "scenarios.build", None),
    (verify, "check_differential_inequality", "verify.inequality", _failed),
    (verify, "check_positivity", "verify.positivity", _failed),
    (verify, "check_finite_propagation", "verify.propagation", _failed),
    (verify, "check_mass_conservation", "verify.mass", _failed),
    (verify, "check_characteristic_density", "verify.characteristic", _failed),
    (verify, "check_cone_energy", "verify.cone", _failed),
    (cli, "main", "cli.main", _bytes_written),
    (cli, "cmd_sweep", "cli.sweep", None),
    (cli, "_sweep_row", "cli.sweep.row", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
ADOPTING_SPAN = "cli.main"  # parent of spans opened on the sweep's pool threads
_INDEX = {name: i for i, name in enumerate(SPAN_NAMES)}

# spans whose value flags a nesting: a solver run started from inside a
# verification check, a criterion check made for minimal_tau
NESTED_UNDER = {"solver.run": "verify.", "criteria.check": "criteria.minimal_tau"}

COLUMNS = ("id", "parent", "op", "name", "start", "end", "self", "value")


class Tracer:
    """Collects spans while installed; ``paused`` lets untimed code call through.

    Each finished span appends one row of ``COLUMNS`` to a flat float
    array in a single call, which the interpreter lock keeps whole when
    pool threads finish spans concurrently.  Self time is worked out as
    spans close: a span's same-thread children run one after another, so
    their durations add up; for an adopting span, whose pool children
    overlap, it is the length of the union of all child intervals.
    """

    def __init__(self):
        self.records = array("d")
        self.op = -1
        self.paused = False
        self._adopted: list | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, value_of):
        tracer, records, ids = self, self.records, self._ids
        index = _INDEX[name]
        adopts = name == ADOPTING_SPAN
        under = NESTED_UNDER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            local = tracer._local
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._adopted
            # frame: id, name, same-thread child time, child intervals
            frame = [next(ids), name, 0.0, [] if adopts else None]
            value = 0
            if under is not None and any(f[1].startswith(under) for f in stack):
                value = 1
            stack.append(frame)
            if adopts:
                outer, tracer._adopted = tracer._adopted, frame
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                error = exc
            else:
                t1 = perf_counter()
                error = None
                if value_of is not None:
                    value = value_of(args, kwargs, result)
            stack.pop()
            if adopts:
                tracer._adopted = outer
                own = (t1 - t0) - _covered(frame[3], t0, t1)
            else:
                own = (t1 - t0) - frame[2]
            if parent is None:
                pid = 0
            else:
                pid = parent[0]
                if parent[3] is not None:
                    parent[3].append((t0, t1))
                else:
                    parent[2] += t1 - t0
            records.extend((frame[0], pid, tracer.op, index, t0, t1, own, value))
            if error is not None:
                raise error
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, value_of in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, value_of)
            holders = (owner,) if isinstance(owner, type) else PACKAGE_MODULES
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def table(self) -> np.ndarray:
        """The spans as rows of ``COLUMNS``."""
        return np.frombuffer(self.records, dtype=float).reshape(-1, len(COLUMNS)).copy()


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def aggregate(table: np.ndarray) -> dict:
    """Per span name: calls, self seconds, total seconds and value sum."""
    name = table[:, 3].astype(int)
    n = len(SPAN_NAMES)

    def by_name(weights=None):
        return np.bincount(name, weights=weights, minlength=n)

    calls, own = by_name(), by_name(table[:, 6])
    total, values = by_name(table[:, 5] - table[:, 4]), by_name(table[:, 7])
    return {
        span: {"calls": int(calls[i]), "self_s": float(own[i]), "total_s": float(total[i]), "value": float(values[i])}
        for i, span in enumerate(SPAN_NAMES)
    }
