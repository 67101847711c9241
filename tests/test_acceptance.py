"""End-to-end acceptance suite: one test per shipped guarantee.

Each test line is a standalone pass/fail statement about the package:
closed-form thresholds against an independent integrator, root-constant
residuals, frozen worked-example values, and the simulation-side claims
(finite propagation, mass conservation, certified blowup detection,
inequality monitoring, cone energy, solver sanity, sweep crossing).
"""

import json
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from eulerblowup.cli import main
from eulerblowup.criteria import (
    general_condition_thresholds,
    linear_1d_threshold,
    linear_tau_case1_threshold,
    linear_tau_case2_a,
    linear_tau_case2_threshold,
    linear_tau_root_residual,
    power_radial_case1_threshold,
    power_radial_case2_a,
    power_radial_root_residual,
)
from eulerblowup.functionals import FieldSnapshot, initial_snapshot
from eulerblowup.model import EosParams, Geometry, GridSpec, linear
from eulerblowup.scenarios import (
    certified_linear_tau_case,
    certified_power_radial_case,
    certified_suite,
    reference_scenario,
)
from eulerblowup.solver import SLOPE_THRESHOLD, SolverConfig, cfl_dt, run, step
from eulerblowup.verify import (
    check_cone_energy,
    check_differential_inequality,
    check_finite_propagation,
    check_mass_conservation,
    check_positivity,
)

SQRT2 = math.sqrt(2.0)

CERT_NAMES = (
    "cert-linear-tau-1d",
    "cert-linear-infinite-1d",
    "cert-power-radial-n3",
    "cert-general-radial-n1",
    "cert-general-1d-exp",
)

_GAUSS_X, _GAUSS_W = leggauss(32)


def gauss(fn, lo: float, hi: float) -> float:
    """Fixed 32-point Gauss-Legendre rule: exact for the polynomial
    integrands below, and independent of the package quadrature."""
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return half * float(np.sum(_GAUSS_W * fn(mid + half * _GAUSS_X)))


def _assert_reciprocity(N, R, tau, K, rho_bar, m2):
    # substituting w = 1/(R + sigma*s) turns each time integral of a Riccati
    # coefficient into a polynomial that the Gauss rule evaluates exactly
    sigma = math.sqrt(2.0 * K * rho_bar)  # gamma = 2
    U = R + sigma * tau
    ints = {
        "power1": gauss(lambda w: 0.5 * N * (N + 1) * w ** N, 1.0 / U, 1.0 / R) / sigma,
        "linear": gauss(lambda w: 0.75 * w, 0.0, 1.0 / R) / sigma,
        "tau1": gauss(lambda w: 0.75 * w, 1.0 / U, 1.0 / R) / sigma,
    }
    a = linear_tau_case2_a(K, m2, R, sigma, tau)
    ints["tau2"] = gauss(lambda w: w / a, 1.0 / U, 1.0 / R) / sigma
    thrs = {
        "power1": power_radial_case1_threshold(N, R, sigma, tau),
        "linear": linear_1d_threshold(R, sigma),
        "tau1": linear_tau_case1_threshold(R, sigma, tau),
        "tau2": linear_tau_case2_threshold(a, R, sigma, tau),
    }
    for key in thrs:
        assert abs(thrs[key] * ints[key] - 1.0) < 1e-10, (key, tau)


def test_criterion_01_threshold_reciprocity():
    # every closed-form threshold is the reciprocal of the time integral
    # of its Riccati coefficient
    rng = np.random.default_rng(2026)
    for _ in range(200):
        N = int(rng.integers(1, 4))
        R = rng.uniform(0.5, 2.0)
        tau = rng.uniform(0.1, 5.0)
        K = rng.uniform(0.5, 2.0)
        rho_bar = rng.uniform(0.5, 2.0)
        m2 = -rng.uniform(1e-4, 1.0)
        _assert_reciprocity(N, R, tau, K, rho_bar, m2)
    # horizons over fifteen decades, log-uniform
    rng = np.random.default_rng(2027)
    for _ in range(200):
        N = int(rng.integers(1, 4))
        R = rng.uniform(0.5, 2.0)
        tau = 10.0 ** rng.uniform(-3.0, 12.0)
        K = rng.uniform(0.5, 2.0)
        rho_bar = rng.uniform(0.5, 2.0)
        m2 = -rng.uniform(1e-4, 1.0)
        _assert_reciprocity(N, R, tau, K, rho_bar, m2)


def test_criterion_02_root_formula_residuals():
    rng = np.random.default_rng(7)
    for _ in range(200):
        N = int(rng.integers(1, 4))
        R = rng.uniform(0.5, 2.0)
        tau = rng.uniform(0.1, 5.0)
        K = rng.uniform(0.5, 2.0)
        sigma = math.sqrt(2.0 * K * rng.uniform(0.5, 2.0))
        m1 = -rng.uniform(1e-4, 1.0)
        m2 = -rng.uniform(1e-4, 1.0)

        a_r = power_radial_case2_a(N, K, m1, R, sigma, tau)
        assert a_r > 2.0
        assert abs(power_radial_root_residual(a_r, N, K, m1, R, sigma, tau)) < 1e-9

        a_1 = linear_tau_case2_a(K, m2, R, sigma, tau)
        assert a_1 > 4.0 / 3.0
        assert abs(linear_tau_root_residual(a_1, K, m2, R, sigma, tau)) < 1e-9


def test_criterion_03_worked_example_thresholds():
    U = 1.0 + SQRT2

    thr_power = power_radial_case1_threshold(1, 1.0, SQRT2, 1.0)
    assert abs(thr_power - (2.0 + SQRT2)) / (2.0 + SQRT2) < 1e-9

    thr_linear = linear_1d_threshold(1.0, SQRT2)
    assert abs(thr_linear - 8.0 * SQRT2 / 3.0) / (8.0 * SQRT2 / 3.0) < 1e-12

    strict, horizon = general_condition_thresholds(
        linear(), 4.0, EosParams(1.0, 2.0, 1.0), 1.0, 1.0, Geometry.radial(1)
    )
    # closed forms: strict = sqrt(8/3) U^2, horizon = 8 U^2 / (3 (U + 1))
    assert abs(strict - math.sqrt(8.0 / 3.0) * U ** 2) / strict < 1e-4
    assert abs(horizon - (8.0 + 4.0 * SQRT2) / 3.0) / horizon < 1e-4


def test_criterion_04_finite_propagation_outside_cone(ref_traces):
    trace = ref_traces("radial3")
    rep = check_finite_propagation(trace, halo_cells=5)
    assert rep.ok
    assert rep.metrics["max_deviation"] < 1e-6


def test_criterion_05_mass_conservation_and_refinement(ref_traces):
    for tag in ("1d", "radial1", "radial3"):
        rep = check_mass_conservation(ref_traces(tag))
        assert rep.ok, tag
        if tag != "radial3":
            # conservative-form geometries: drift at rounding level
            assert rep.metrics["max_drift"] < 1e-13, tag

    drift_coarse = check_mass_conservation(ref_traces("radial3")).metrics["max_drift"]
    fine = run(reference_scenario(Geometry.radial(3), cells=8192), SolverConfig(t_end=0.5))
    drift_fine = check_mass_conservation(fine).metrics["max_drift"]
    assert drift_coarse / drift_fine >= 3.0


def test_criterion_06_certified_blowup_detection(cert_runs):
    for name, maker in (
        ("cert-linear-tau-1d", certified_linear_tau_case),
        ("cert-power-radial-n3", certified_power_radial_case),
    ):
        case, ctx, trace = cert_runs(name)
        assert trace.blowup is not None and trace.blowup.cause == SLOPE_THRESHOLD
        assert 0.0 < trace.t_detect < case.tau

        # the constructed amplitude puts H(0) at 1.5x the closed-form threshold
        H0 = ctx.H(initial_snapshot(case.scenario))
        thr = {
            "cert-linear-tau-1d": linear_tau_case1_threshold(1.0, SQRT2, 1.0),
            "cert-power-radial-n3": power_radial_case1_threshold(3, 1.0, SQRT2, 1.0),
        }[name]
        assert abs(H0 / thr - 1.5) < 5e-3

        fine = run(maker(cells=8192).scenario, SolverConfig(t_end=1.0))
        assert abs(fine.t_detect - trace.t_detect) / trace.t_detect < 0.05, name


def test_criterion_07_differential_inequality_monitoring(cert_runs):
    for name in CERT_NAMES:
        case, ctx, trace = cert_runs(name)
        rep = check_differential_inequality(
            trace, case.family, tau=case.tau, f=case.f,
            a=case.a if case.a is not None else 4.0, context=ctx,
        )
        assert rep.status == "pass", f"{name}: {rep.reason}"
        eps = rep.metrics["eps_num"]
        assert rep.metrics["min_margin"] >= -eps, name
        assert rep.metrics["min_G"] >= -eps, name
        assert rep.metrics["n_samples"] >= 3, name


def test_criterion_08_cone_energy_bounds(ref_traces):
    trace = ref_traces("1d")

    interior = check_cone_energy(trace, x_center=0.0, t_apex=0.4)
    assert interior.ok
    assert interior.metrics["max_e"] <= interior.metrics["bound"]
    assert not interior.metrics["exterior"]

    # apex beyond R + sigma*t_apex: the cone never meets the data cone
    exterior = check_cone_energy(trace, x_center=1.6, t_apex=0.3)
    assert exterior.ok
    assert exterior.metrics["exterior"]
    assert exterior.metrics["max_e"] <= exterior.metrics["tolerance"]


def test_criterion_09_solver_sanity(ref_traces, cert_runs):
    eos = EosParams(1.0, 2.0, 1.0)
    for geom in (Geometry.cartesian1d(), Geometry.radial(3)):
        centers = GridSpec(2.0, 128).centers(geom)
        snap = FieldSnapshot(0.0, centers, np.ones(128), np.zeros(128))
        dt = cfl_dt(snap, eos)
        for _ in range(10_000):
            snap = step(snap, eos, geom, dt)
        assert np.all(snap.rho == 1.0) and np.all(snap.V == 0.0), geom.label()

    for tag in ("1d", "radial1", "radial3"):
        assert check_positivity(ref_traces(tag)).ok, tag
    for name in CERT_NAMES:
        _, _, trace = cert_runs(name)
        assert check_positivity(trace).ok, name

    sym = run(reference_scenario(Geometry.cartesian1d(), cells=512), SolverConfig(t_end=0.1))
    rho, V = sym.snapshots[-1].rho, sym.snapshots[-1].V
    assert np.max(np.abs(rho - rho[::-1])) < 1e-13
    assert np.max(np.abs(V + V[::-1])) < 1e-13


def test_criterion_10_sweep_locates_threshold(tmp_path, capsys):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text("preset = ref-1d\ngrid.cells = 256\n")
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--theorem", "linear-1d", "--parameter", "amp_v",
        "--lo", "0", "--hi", "30", "--steps", "31",
        "--out", str(out), str(cfg),
    ])
    capsys.readouterr()
    assert code == 0

    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    flips = [
        (float(lo[1]), float(hi[1]))
        for lo, hi in zip(rows, rows[1:])
        if lo[4] != hi[4]
    ]
    # analytic crossing where H(0)(amp) = 8 sigma R^2 / 3: amp* = 35 sqrt(2) / 2
    amp_star = 35.0 * SQRT2 / 2.0
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo < amp_star < hi
    assert hi - lo <= (30.0 - 0.0) / 30.0 + 1e-12
