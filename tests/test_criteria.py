import csv
import functools
import json
import math
import re
import sys
import warnings
from collections import Counter
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eulerblowup.cli as cli
import eulerblowup.criteria as criteria
from eulerblowup.criteria import (
    Condition,
    CriterionReport,
    FAMILIES,
    FAMILY_GENERAL_1D,
    FAMILY_GENERAL_RADIAL,
    FAMILY_LINEAR_1D,
    FAMILY_LINEAR_1D_TAU,
    FAMILY_POWER_RADIAL,
    GENERAL_1D,
    GENERAL_RADIAL,
    LINEAR_1D_INFINITE,
    LINEAR_1D_TAU_CASE1,
    LINEAR_1D_TAU_CASE2,
    POWER_RADIAL_CASE1,
    POWER_RADIAL_CASE2,
    Verdict,
    check_general,
    check_linear_1d,
    check_linear_1d_tau,
    check_power_radial,
    general_condition_thresholds,
    linear_1d_threshold,
    linear_tau_case1_threshold,
    linear_tau_case2_a,
    linear_tau_root_residual,
    minimal_tau,
    power_radial_case1_threshold,
    power_radial_case2_a,
    power_radial_root_residual,
    run_family_check,
    theorem_context,
)
import eulerblowup.functionals as functionals
from eulerblowup.functionals import (
    WeightDivergenceError,
    initial_snapshot,
    momentum_functional,
)
import eulerblowup.model as model
from eulerblowup.model import (
    LINEAR,
    POWER_LAW,
    RADIAL_VANISHING,
    EosParams,
    Geometry,
    GridSpec,
    TestingFunction as WeightFn,
    exponential,
    linear,
    make_bump_scenario,
    power_law,
    radial_vanishing,
    sound_speed,
)
import eulerblowup.quadrature as quadrature
from eulerblowup.quadrature import QuadratureRule, SIMPSON, integrate_fn
from eulerblowup.scenarios import (
    CERTIFIED_PRESETS,
    PRESETS,
    certified_case,
    certified_general_1d_case,
    certified_general_radial_case,
    certified_linear_infinite_case,
    certified_linear_tau_case,
    certified_power_radial_case,
    certified_suite,
)
from eulerblowup.solver import FIRST_ORDER, MUSCL, SolverConfig, run

SQRT2 = math.sqrt(2.0)
EOS = EosParams(1.0, 2.0, 1.0)


def bump(geometry, amp_rho=0.01, amp_v=0.02, cells=512, extent=2.2, K=1.0, gamma=2.0):
    return make_bump_scenario(
        EosParams(K, gamma, 1.0), geometry, 1.0, amp_rho, amp_v, GridSpec(extent, cells)
    )


class TestClosedFormThresholds:
    def test_power_case1_n1_worked_value(self):
        got = power_radial_case1_threshold(1, 1.0, SQRT2, 1.0)
        assert got == pytest.approx(2.0 + SQRT2, rel=1e-12)

    def test_power_case1_n3_value(self):
        got = power_radial_case1_threshold(3, 1.0, SQRT2, 1.0)
        assert got == pytest.approx(0.9714045207910318, rel=1e-12)

    @pytest.mark.parametrize("amp_rho, theorem", [(0.01, POWER_RADIAL_CASE1), (-0.01, POWER_RADIAL_CASE2)])
    def test_power_threshold_is_infinite_when_the_horizon_rounds_away(self, amp_rho, theorem):
        # R + sigma*tau rounds to R, so U**(N+1) - R**(N+1) is 0
        assert power_radial_case1_threshold(3, 1.0, SQRT2, 1e-17) == math.inf
        report = run_family_check(bump(Geometry.radial(3), amp_rho=amp_rho), FAMILY_POWER_RADIAL, tau=1e-17)
        assert report.theorem == theorem
        assert report.inputs["threshold"] == math.inf
        assert report.verdict.kind == "inconclusive"

    @pytest.mark.parametrize("tau", [1e-12, 1e-17, 1e-300])
    def test_linear_tau_threshold_at_tiny_horizons(self, tau):
        # sigma*tau/R far below the float spacing of 1 still passes the
        # reciprocity check, and the threshold is the closed form's
        report = check_linear_1d_tau(bump(Geometry.cartesian1d()), tau)
        assert report.inputs["threshold"] == linear_tau_case1_threshold(1.0, SQRT2, tau)
        assert report.verdict.kind == "inconclusive"

    def test_linear_tau_case1_value(self):
        got = linear_tau_case1_threshold(1.0, SQRT2, 1.0)
        assert got == pytest.approx(4.552284749830794, rel=1e-12)
        assert got == pytest.approx((8.0 + 4.0 * SQRT2) / 3.0, rel=1e-12)

    def test_linear_1d_value(self):
        got = linear_1d_threshold(1.0, SQRT2)
        assert got == pytest.approx(8.0 * SQRT2 / 3.0, rel=1e-14)

    def test_power_case1_reciprocity(self):
        # the threshold is the reciprocal of the integrated Riccati coefficient
        N, R, sigma, tau = 2, 0.8, 1.3, 1.7
        thr = power_radial_case1_threshold(N, R, sigma, tau)
        integral = integrate_fn(
            lambda s: N * (N + 1) / (2.0 * (R + sigma * np.asarray(s)) ** (N + 2)),
            0.0,
            tau,
            QuadratureRule(SIMPSON, 4096),
        )
        assert thr * integral == pytest.approx(1.0, rel=1e-10)

    def test_linear_tau_case1_reciprocity(self):
        R, sigma, tau = 1.2, 0.9, 2.5
        thr = linear_tau_case1_threshold(R, sigma, tau)
        integral = integrate_fn(
            lambda s: 3.0 / (4.0 * (R + sigma * np.asarray(s)) ** 3),
            0.0,
            tau,
            QuadratureRule(SIMPSON, 4096),
        )
        assert thr * integral == pytest.approx(1.0, rel=1e-10)

    def test_general_worked_example(self):
        # linear weight, a=4, tau=1, K=1, gamma=2, rho_bar=1, R=1
        strict, horizon = general_condition_thresholds(
            linear(), 4.0, EOS, 1.0, 1.0, Geometry.radial(1)
        )
        assert strict == pytest.approx(9.517781639083362, rel=1e-12)
        assert horizon == pytest.approx(4.552284749830794, rel=1e-9)

    def test_general_weight_horizon_reciprocity(self):
        f = linear()
        a, R, tau = 3.0, 1.0, 0.8
        _, horizon = general_condition_thresholds(f, a, EOS, R, tau, Geometry.radial(2))
        integral = integrate_fn(
            lambda s: 3.0 / (a * (R + SQRT2 * np.asarray(s)) ** 3),
            0.0,
            tau,
            QuadratureRule(SIMPSON, 4096),
        )
        assert horizon * integral == pytest.approx(1.0, rel=1e-8)


class TestRootConstants:
    def test_power_case2_residuals_on_seeded_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            N = int(rng.integers(1, 4))
            K = float(rng.uniform(0.2, 3.0))
            m1 = float(-rng.uniform(1e-4, 1.0))
            R = float(rng.uniform(0.3, 2.0))
            sigma = float(rng.uniform(0.3, 3.0))
            tau = float(rng.uniform(0.1, 4.0))
            a = power_radial_case2_a(N, K, m1, R, sigma, tau)
            assert a > 2.0
            assert abs(power_radial_root_residual(a, N, K, m1, R, sigma, tau)) < 1e-9

    def test_linear_tau_case2_residuals_on_seeded_draws(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            K = float(rng.uniform(0.2, 3.0))
            m2 = float(-rng.uniform(1e-4, 1.0))
            R = float(rng.uniform(0.3, 2.0))
            sigma = float(rng.uniform(0.3, 3.0))
            tau = float(rng.uniform(0.1, 4.0))
            a = linear_tau_case2_a(K, m2, R, sigma, tau)
            assert a > 4.0 / 3.0
            assert abs(linear_tau_root_residual(a, K, m2, R, sigma, tau)) < 1e-9

    def test_residuals_over_wide_horizons_and_masses(self):
        # log-uniform horizons over fifteen decades; the masses are uniform,
        # because the residual divides by a - a_min: draws within rounding of
        # the bound measure that division, not the root
        rng = np.random.default_rng(44)
        for _ in range(200):
            N = int(rng.integers(1, 4))
            K = float(rng.uniform(0.2, 3.0))
            m0 = float(-rng.uniform(1e-6, 1e3))
            R = float(rng.uniform(0.3, 2.0))
            sigma = float(rng.uniform(0.3, 3.0))
            tau = float(10.0 ** rng.uniform(-3.0, 12.0))
            a = power_radial_case2_a(N, K, m0, R, sigma, tau)
            assert a > 2.0
            assert abs(power_radial_root_residual(a, N, K, m0, R, sigma, tau)) < 1e-9, tau
            a = linear_tau_case2_a(K, m0, R, sigma, tau)
            assert a > 4.0 / 3.0
            assert abs(linear_tau_root_residual(a, K, m0, R, sigma, tau)) < 1e-9, tau

    def test_vanishing_mass_recovers_case1_scaling(self):
        # as m -> 0 the root constant approaches its degenerate value
        a = power_radial_case2_a(2, 1.0, -1e-14, 1.0, SQRT2, 1.0)
        assert a == pytest.approx(2.0, abs=1e-6)
        a2 = linear_tau_case2_a(1.0, -1e-14, 1.0, SQRT2, 1.0)
        assert a2 == pytest.approx(4.0 / 3.0, abs=1e-6)


class TestConditionSemantics:
    def test_strict_versus_nonstrict_on_the_boundary(self):
        assert not Condition("x", 1.0, 1.0, ">").satisfied
        assert Condition("x", 1.0, 1.0, ">=").satisfied
        assert Condition("x", 1.0, 1.0, ">").margin == 0.0

    def test_verdict_kinds(self):
        assert Verdict.blowup_before(2.0).certifies_blowup
        assert Verdict.blowup_finite().certifies_blowup
        assert not Verdict.inconclusive("x").certifies_blowup
        assert Verdict.blowup_before(2.0).tau == 2.0


class TestReportThreshold:
    @pytest.mark.parametrize(
        "geometry, family, weight, amp_rho, theorem, key",
        [
            (Geometry.radial(1), FAMILY_GENERAL_RADIAL, linear, 0.01, GENERAL_RADIAL, "combined_threshold"),
            (Geometry.cartesian1d(), FAMILY_GENERAL_1D, lambda: exponential(2.0), 0.01, GENERAL_1D,
             "combined_threshold"),
            (Geometry.radial(3), FAMILY_POWER_RADIAL, None, 0.01, POWER_RADIAL_CASE1, "threshold"),
            (Geometry.radial(3), FAMILY_POWER_RADIAL, None, -0.01, POWER_RADIAL_CASE2, "threshold"),
            (Geometry.cartesian1d(), FAMILY_LINEAR_1D, None, 0.01, LINEAR_1D_INFINITE, "threshold"),
            (Geometry.cartesian1d(), FAMILY_LINEAR_1D_TAU, None, 0.01, LINEAR_1D_TAU_CASE1, "threshold"),
            (Geometry.cartesian1d(), FAMILY_LINEAR_1D_TAU, None, -0.01, LINEAR_1D_TAU_CASE2, "threshold"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_threshold_is_the_resolved_theorems_input(self, geometry, family, weight, amp_rho, theorem, key):
        f = weight() if weight is not None else None
        report = run_family_check(bump(geometry, amp_rho=amp_rho), family, f=f)
        assert report.theorem == theorem
        assert math.isfinite(report.inputs[key])
        assert report.threshold == report.inputs[key]

    @pytest.mark.parametrize(
        "geometry, family, theorem",
        [(Geometry.radial(3), FAMILY_POWER_RADIAL, POWER_RADIAL_CASE2),
         (Geometry.cartesian1d(), FAMILY_LINEAR_1D_TAU, LINEAR_1D_TAU_CASE2)],
    )
    def test_threshold_is_nan_for_uncovered_negative_mass(self, geometry, family, theorem):
        # negative mass is covered for gamma = 2 only
        report = run_family_check(bump(geometry, amp_rho=-0.1, gamma=3.0), family)
        assert report.theorem == theorem
        assert math.isnan(report.threshold)

    def test_threshold_is_nan_without_a_threshold_input(self):
        assert math.isnan(CriterionReport("x", {"H0": 1.0}, [], Verdict.inconclusive("x")).threshold)


class TestCheckGeneral:
    def test_certified_scenario_certifies(self):
        case = certified_general_radial_case(cells=512)
        report = run_family_check(case.scenario, case.family, case.tau, case.f, case.a)
        assert report.theorem == GENERAL_RADIAL
        assert report.verdict.kind == "blowup_before"
        assert report.verdict.tau == case.tau
        names = [c.name for c in report.conditions]
        assert names == [
            "initial_momentum_positive",
            "pressure_barrier_strict",
            "horizon_budget",
        ]
        assert all(c.satisfied for c in report.conditions)
        assert report.inputs["combined_threshold"] == pytest.approx(
            max(report.inputs["strict_threshold"], report.inputs["horizon_threshold"])
        )

    def test_small_amplitude_is_inconclusive(self):
        scen = bump(Geometry.radial(1))
        report = check_general(scen, linear(), a=4.0, tau=1.0)
        assert report.verdict.kind == "inconclusive"
        assert "pressure_barrier_strict" in report.verdict.reason

    def test_nonpositive_momentum_is_inconclusive(self):
        scen = bump(Geometry.radial(1), amp_v=-0.02)
        report = check_general(scen, linear(), a=4.0, tau=1.0)
        assert report.verdict.kind == "inconclusive"
        assert "momentum" in report.verdict.reason

    @pytest.mark.parametrize("n", [100.0, 162.5])
    def test_high_powers_give_a_verdict(self, n):
        report = check_general(bump(Geometry.radial(3)), power_law(n), a=4.0, tau=1.0)
        assert report.verdict.kind in ("blowup_before", "inconclusive")
        assert math.isfinite(report.inputs["horizon_threshold"])

    def test_parameter_validation(self):
        scen = bump(Geometry.radial(1))
        with pytest.raises(ValueError):
            check_general(scen, linear(), a=2.0)
        with pytest.raises(ValueError):
            check_general(scen, linear(), tau=0.0)
        with pytest.raises(ValueError):
            check_general(bump(Geometry.radial(1), gamma=1.0), linear())
        with pytest.raises(ValueError, match="finite"):
            check_general(scen, linear(), a=math.inf)

    def test_huge_trade_off_constant_gives_an_infinite_horizon_threshold(self):
        # a over the closed-form integral of 1/B overflows
        case = certified_general_1d_case(cells=512)
        report = check_general(case.scenario, case.f, a=1.5e308, tau=case.tau)
        assert report.inputs["horizon_threshold"] == math.inf
        assert report.verdict.kind == "inconclusive"

    def test_weight_admissibility_by_geometry(self):
        # exponential weights do not vanish at the radial origin
        with pytest.raises(ValueError, match="admissible"):
            check_general(bump(Geometry.radial(1)), exponential(1.0))
        # the bare identity is not non-negative on the slab
        with pytest.raises(ValueError, match="admissible"):
            check_general(bump(Geometry.cartesian1d()), linear())

    def test_exponential_weight_on_slab_certifies(self):
        case = certified_general_1d_case(cells=512)
        report = check_general(case.scenario, case.f, a=case.a, tau=case.tau)
        assert report.theorem == criteria.GENERAL_1D
        assert report.verdict.certifies_blowup


class TestGeneralThresholdTable:
    EOS_RADIAL = EosParams(K=0.5, gamma=2.0, rho_bar=0.5)
    EOS_1D = EosParams(K=0.25, gamma=2.0, rho_bar=0.5)

    def test_overflowing_closed_form_raises(self):
        # sinh's OverflowError, re-raised naming the horizon and B_tau
        with pytest.raises(criteria.HorizonRangeError, match=r"tau=1000: B_tau of the general-1d criterion overflows"):
            general_condition_thresholds(exponential(2.0), 3.5, self.EOS_1D, 1.0, 1000.0, Geometry.cartesian1d())

    def test_divergent_weight_raises_typed_error(self):
        bad = WeightFn(
            f=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
            f_prime=lambda x: 2.0 * np.asarray(x, dtype=float),
            cls=RADIAL_VANISHING,
        )
        with pytest.raises(WeightDivergenceError):
            general_condition_thresholds(bad, 4.0, self.EOS_RADIAL, 1.0, 1.0, Geometry.radial(3))

    def test_check_general_computes_one_horizon_B(self, seeded_weight, monkeypatch):
        # B(tau) and the integral of 1/B come from one horizon rule: no separate B(tau) integral
        case = certified_general_radial_case(cells=512)
        calls, real = [], functionals.horizon_B
        monkeypatch.setattr(criteria, "horizon_B", lambda *a: calls.append(a[3]) or real(*a))
        monkeypatch.setattr(criteria, "weight_functional_B", lambda *a: calls.append(("B", a)))
        report = check_general(case.scenario, seeded_weight(True, 0), a=4.0, tau=0.8)
        assert calls == [0.8]
        strict, horizon = general_condition_thresholds(seeded_weight(True, 0), 4.0, case.scenario.eos,
                                                       case.scenario.R, 0.8, case.scenario.geometry)
        assert (report.inputs["strict_threshold"], report.inputs["horizon_threshold"]) == (strict, horizon)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_overflowing_quadrature_weight_raises_the_closed_forms_error(self, seeded_weight, seed):
        # f**2 of the weight overflows where the cone passes x = 355 or so: the
        # closed forms' HorizonRangeError, as exp(2x) raises it, with no numpy warning
        case = certified_general_1d_case(cells=256)
        message = "criterion values are not finite at tau=1000: B_tau of the general-1d criterion overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (seeded_weight(False, seed), exponential(2.0)):
                with pytest.raises(criteria.HorizonRangeError, match=re.escape(message)):
                    check_general(case.scenario, f, a=case.a, tau=1000.0)


def x_without_horizon_form():
    """The identity weight with its closed-form B but no closed-form horizon
    integral: the horizon rule over closed-form B values."""
    return radial_vanishing(linear().f, linear().f_prime, analytic_B=linear().analytic_B, name="x, horizon rule")


def stripped(f):
    """``f`` with no closed form: B and its horizon integral by the horizon rule."""
    return replace(f, analytic_B=None, analytic_horizon=None)


# weight, geometry and gas of the quadrature path's exact oracles: the
# built-in weights' closed forms
ORACLE_WEIGHTS = {
    "x, radial1": (linear(), Geometry.radial(1), TestGeneralThresholdTable.EOS_RADIAL),
    "x^3, radial3": (power_law(3), Geometry.radial(3), TestGeneralThresholdTable.EOS_RADIAL),
    "exp(0.5x), 1-D": (exponential(0.5), Geometry.cartesian1d(), TestGeneralThresholdTable.EOS_1D),
    "exp(2x), 1-D": (exponential(2.0), Geometry.cartesian1d(), TestGeneralThresholdTable.EOS_1D),
}
# subnormal horizons give an infinite horizon threshold on both paths,
# 1e-300 and below resolve no growth of the cone past R, and from 1e20 the
# geometric grading takes more than 64 segments
ORACLE_TAUS = [5e-324, 1e-321, 1e-300, 1e-14, 1e-3, 0.37, 0.5, 2.0, 5.0, 1000.0, 1e20, 1e40, 1e100]
# B(tau) of every oracle weight is past the float range
OVERFLOW_TAUS = [1e110, 1e200, 1e300]


def _relative_errors(got, want):
    # an infinite threshold is matched only by an infinite one
    return [abs(g - w) / abs(w) if math.isfinite(w) else (0.0 if g == w else math.inf) for g, w in zip(got, want)]


class TestHorizonRuleOracles:
    """The horizon rule of a weight without a closed-form horizon against the
    built-in weights' closed forms, which are exact to rounding."""

    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    @pytest.mark.parametrize("name", sorted(ORACLE_WEIGHTS))
    def test_stripped_weight_matches_the_closed_forms(self, name, tau):
        f, geom, eos = ORACLE_WEIGHTS[name]
        try:
            want = criteria._horizon_side(f, 4.0, eos, 1.0, tau, geom, sound_speed(eos))
        except criteria.HorizonRangeError as exc:
            # past the float range for the closed forms too, with the same error
            with pytest.raises(criteria.HorizonRangeError, match=re.escape(str(exc))):
                criteria._horizon_side(stripped(f), 4.0, eos, 1.0, tau, geom, sound_speed(eos))
            return
        got = criteria._horizon_side(stripped(f), 4.0, eos, 1.0, tau, geom, sound_speed(eos))
        # (B(tau), strict, horizon)
        assert max(_relative_errors(got, want)) <= 1e-13

    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    def test_a_closed_form_B_matches_the_closed_form_horizon(self, tau):
        eos, geom = TestGeneralThresholdTable.EOS_RADIAL, Geometry.radial(3)
        want = criteria._horizon_side(linear(), 4.0, eos, 1.0, tau, geom, sound_speed(eos))
        got = criteria._horizon_side(x_without_horizon_form(), 4.0, eos, 1.0, tau, geom, sound_speed(eos))
        # B(tau) and the strict threshold read analytic_B itself
        assert got[:2] == want[:2]
        assert _relative_errors(got[2:], want[2:])[0] <= 1e-13

    @pytest.mark.parametrize("tau", OVERFLOW_TAUS)
    @pytest.mark.parametrize("name", sorted(ORACLE_WEIGHTS))
    def test_an_overflowing_B_raises_the_closed_forms_error(self, name, tau):
        # B(tau) past the float range: the closed forms' HorizonRangeError
        # naming B_tau, with no numpy warning from the nodes or the segments
        f, geom, eos = ORACLE_WEIGHTS[name]
        others = [stripped(f)] + ([x_without_horizon_form()] if f.name == linear().name else [])
        message = f"criterion values are not finite at tau={tau:g}: B_tau of the "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(criteria.HorizonRangeError, match=re.escape(message)) as want:
                criteria._horizon_side(f, 4.0, eos, 1.0, tau, geom, sound_speed(eos))
            for other in others:
                with pytest.raises(criteria.HorizonRangeError, match=re.escape(str(want.value))):
                    criteria._horizon_side(other, 4.0, eos, 1.0, tau, geom, sound_speed(eos))

    @pytest.mark.parametrize("name", sorted(ORACLE_WEIGHTS))
    def test_running_B_matches_the_closed_form_B(self, name):
        # B(0) plus whole segments plus the running integral within its own,
        # against analytic_B at the same nodes
        f, geom, eos = ORACLE_WEIGHTS[name]
        R, sigma, tau = 1.0, sound_speed(eos), 5.0
        running = functionals.horizon_B(stripped(f), R, sigma, tau, geom)
        closed = functionals.horizon_B(replace(f, analytic_horizon=None), R, sigma, tau, geom)
        assert max(_relative_errors(running, closed)) <= 1e-13
        assert closed[1] == pytest.approx(f.analytic_horizon(R, sigma, tau, geom), rel=1e-13)

    def test_subnormal_horizon_fails_as_the_closed_forms_do(self, tmp_path, monkeypatch, capsys):
        # at 1e-321 the integral of 1/B is subnormal and the horizon threshold
        # a over it overflows: "not finite", exit 2, as for the closed form
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("preset = cert-general-radial-n1\ngrid.cells = 512\n")
        argv = ["check", "--theorem", "general-radial", "--weight", "linear", "--tau", "1e-321", str(cfg)]
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        closed = capsys.readouterr().err
        monkeypatch.setattr(cli, "parse_weight", lambda spec: stripped(linear()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "criterion values are not finite at tau=9.98013e-322: horizon_threshold" in err
        assert err == closed

    @pytest.mark.parametrize("radial", [True, False])
    def test_theorem_context_B_is_the_reports_B_tau(self, radial, seeded_weight):
        case = (certified_general_radial_case if radial else certified_general_1d_case)(cells=512)
        weight = seeded_weight(radial, 1)
        ctx = theorem_context(case.scenario, case.family, case.tau, weight, case.a)
        B_tau = ctx.report.inputs["B_tau"]
        assert np.array(ctx.B(case.tau)).tobytes() == np.array(B_tau).tobytes()
        assert ctx.B(0.0) < ctx.B(0.5 * case.tau) < B_tau

    def test_a_horizon_below_the_rounding_of_R_resolves(self):
        # sigma*tau = 7e-15 is below half an ulp of R = 1: the rule integrates
        # in s = sigma*t/R, never forming R + sigma*t, and matches the closed form
        case = certified_general_radial_case(256)
        s = case.scenario
        want = criteria._horizon_side(linear(), 4.0, s.eos, s.R, 1e-14, s.geometry, sound_speed(s.eos))
        got = criteria._horizon_side(stripped(linear()), 4.0, s.eos, s.R, 1e-14, s.geometry, sound_speed(s.eos))
        assert max(_relative_errors(got, want)) <= 1e-13
        assert check_general(s, stripped(linear()), a=4.0, tau=1e-14).verdict.kind == "inconclusive"


def _recording(f, calls):
    """``f`` with every closed form recording its arguments in ``calls``."""
    def wrap(form):
        return None if form is None else lambda *args: calls.append(args) or form(*args)
    return replace(f, analytic_B=wrap(f.analytic_B), analytic_horizon=wrap(f.analytic_horizon))


class TestHorizonValidation:
    """A horizon that is not a positive finite float is named before any B is computed."""

    @pytest.mark.parametrize("tau", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("weight", ["linear", "x_without_horizon_form", "seeded"])
    def test_invalid_horizon_computes_no_B(self, tau, weight, seeded_weight, monkeypatch):
        f = {"linear": linear, "x_without_horizon_form": x_without_horizon_form,
             "seeded": lambda: seeded_weight(True, 0)}[weight]()
        called = []
        monkeypatch.setattr(criteria, "weight_functional_B", lambda *a: called.append(a))
        monkeypatch.setattr(criteria, "horizon_B", lambda *a: called.append(a))
        message = f"the general-radial criterion needs a positive finite horizon, got tau={tau:g}"
        with np.errstate(all="raise"), pytest.raises(criteria.HorizonRangeError, match=re.escape(message)):
            general_condition_thresholds(_recording(f, called), 4.0, TestGeneralThresholdTable.EOS_RADIAL, 1.0,
                                         tau, Geometry.radial(3))
        assert called == []

    def test_invalid_horizon_of_the_1d_family(self):
        with pytest.raises(criteria.HorizonRangeError, match=re.escape("general-1d criterion needs a positive")):
            general_condition_thresholds(exponential(2.0), 3.5, TestGeneralThresholdTable.EOS_1D, 1.0, -1.0,
                                         Geometry.cartesian1d())


def exact_power_horizon(n: int, R: float, sigma: float, tau: float, radial: bool) -> Fraction:
    """The integral of 1/B over [0, tau] for f = x**n (radial) or f = x (1-D),
    exact in the float inputs."""
    U = Fraction(R) + Fraction(sigma) * Fraction(tau)
    if radial:
        return Fraction(n * (n + 2), n + 1) / Fraction(sigma) * (1 / Fraction(R) ** (n + 1) - 1 / U ** (n + 1))
    return Fraction(3, 4) / Fraction(sigma) * (1 / Fraction(R) ** 2 - 1 / U ** 2)


def exact_exp_horizon(beta: float, R: float, sigma: float, tau: float) -> Fraction:
    """beta/(2 sigma) log(tanh(beta U/2) / tanh(beta R/2)), U = R + sigma*tau: the
    integral of 1/B for f = exp(beta x), in decimal with 50 digits beyond
    those U - R needs and those 1 - exp(-beta R) cancels."""
    b, s, r, t = map(Decimal, (beta, sigma, R, tau))
    with localcontext() as ctx:
        ctx.prec = 50 + max(0, -(s * t / r).adjusted()) + max(0, -(b * r).adjusted())

        def half_tanh(z):
            return (1 - (-z).exp()) / (1 + (-z).exp())

        return Fraction(b / (2 * s) * (half_tanh(b * (r + s * t)) / half_tanh(b * r)).ln())


# (weight, geometry, beta or None, exact integral of 1/B)
HORIZON_FORMS = {
    **{f"r^{n}": (power_law(n), Geometry.radial(3), None,
                  functools.partial(lambda n, R, s, t: exact_power_horizon(n, R, s, t, True), n))
       for n in (1, 2, 3, 4)},
    "x, radial": (linear(), Geometry.radial(1), None, lambda R, s, t: exact_power_horizon(1, R, s, t, True)),
    "x, 1-D": (linear(), Geometry.cartesian1d(), None, lambda R, s, t: exact_power_horizon(1, R, s, t, False)),
    **{f"exp({b:g}x)": (exponential(b), Geometry.cartesian1d(), b, functools.partial(exact_exp_horizon, b))
       for b in (0.5, 1.0, 2.0, 5.0)},
}


class TestClosedFormHorizon:
    """The built-in weights' closed-form horizon integrals against exact oracles."""

    # Measured: at most 4.3e-16 relative over these draws, and 7.3e-15 over
    # 415 log-spaced horizons from 5e-324 to 1e3 (exp(5x), whose log1p
    # argument is then just above the subnormal range).  Where an argument
    # (sigma*tau/R, beta*sigma*tau or the log1p ratio) is subnormal, it
    # carries an absolute rounding of up to 2 subnormal ulps u.  That moves
    # the integral by at most 2u max(R, 1/beta)/(sigma B(0)), plus
    # 2u max(1, beta/sigma) of its own rounding: measured at most 0.31 of
    # that bound over these draws, 0.63 over the 415 horizons.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(tau=st.floats(min_value=5e-324, max_value=1e3),
           R_sigma=st.sampled_from([(1.0, SQRT2), (0.7, 0.5), (1.3, 2.3), (0.3, 1.0)]))
    @pytest.mark.parametrize("name", sorted(HORIZON_FORMS))
    def test_matches_the_exact_integral(self, name, tau, R_sigma):
        f, geom, beta, exact_fn = HORIZON_FORMS[name]
        R, sigma = R_sigma
        got = f.analytic_horizon(R, sigma, tau, geom)
        exact = exact_fn(R, sigma, tau)
        error = abs(Fraction(got) - exact)
        b = beta or 1.0
        arguments = (sigma * tau, sigma * tau / R, b * sigma * tau, float(exact) * sigma / b)
        if min(arguments) >= sys.float_info.min:
            assert error <= Fraction(1e-14) * exact
        else:
            u = 5e-324
            B0 = f.analytic_B(R, sigma, 0.0, geom)
            assert error <= Fraction(2 * u * max(R, 1 / b) / (sigma * B0) + 2 * u * max(1.0, b / sigma))

    def test_linear_radial3_at_a_long_horizon(self):
        # the 2048-panel Simpson rule gave 3.58283778448743 here, 5.0 % low
        case_eos = EosParams(1.0, 2.0, 1.0)  # ref-radial3's gas: sigma = sqrt(2), R = 1
        _, horizon = general_condition_thresholds(linear(), 4.0, case_eos, 1.0, 1000.0, Geometry.radial(3))
        exact = 4 / exact_power_horizon(1, 1.0, SQRT2, 1000.0, True)
        assert abs(Fraction(horizon) - exact) <= Fraction(1e-13) * exact
        assert horizon == pytest.approx(3.7712380492834361, rel=1e-15)

    # sigma*tau is subnormal, the integral is not: the closed forms took the
    # product's rounding into their log1p argument, 8.6e-10 and 1.3e-4 off for
    # x in radial3; the integral is tau/B(0) to rounding there (measured at
    # most 2.1e-16 relative)
    @pytest.mark.parametrize("tau", [1e-315, 1e-320])
    @pytest.mark.parametrize("name", sorted(HORIZON_FORMS))
    def test_subnormal_products_keep_full_precision(self, name, tau):
        f, geom, _, exact_fn = HORIZON_FORMS[name]
        R, sigma = 1e-50, SQRT2
        got, exact = f.analytic_horizon(R, sigma, tau, geom), exact_fn(R, sigma, tau)
        assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact

    def test_exponential_preset_at_a_long_horizon(self):
        case = certified_general_1d_case(cells=256)
        s = case.scenario
        _, horizon = general_condition_thresholds(case.f, case.a, s.eos, s.R, 100.0, s.geometry)
        exact = Fraction(case.a) / exact_exp_horizon(2.0, s.R, sound_speed(s.eos), 100.0)
        assert abs(Fraction(horizon) - exact) <= Fraction(1e-13) * exact

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(taus=st.lists(st.floats(min_value=1e-300, max_value=500.0), min_size=2, max_size=40))
    @pytest.mark.parametrize("name", sorted(HORIZON_FORMS))
    def test_horizon_threshold_is_non_increasing_in_tau(self, name, taus):
        f, geom, _, _ = HORIZON_FORMS[name]
        eos = TestGeneralThresholdTable.EOS_RADIAL if geom.is_radial else TestGeneralThresholdTable.EOS_1D
        if f.name == "exp(5x)":
            taus = [t for t in taus if t < 50.0]  # B overflows past U = 142
        thresholds = [general_condition_thresholds(f, 4.0, eos, 1.0, t, geom)[1] for t in sorted(taus)]
        assert all(later <= earlier for earlier, later in zip(thresholds, thresholds[1:]))

    @pytest.mark.parametrize("name", sorted(HORIZON_FORMS))
    def test_threshold_is_a_over_the_closed_form(self, name):
        f, geom, _, _ = HORIZON_FORMS[name]
        eos = TestGeneralThresholdTable.EOS_RADIAL if geom.is_radial else TestGeneralThresholdTable.EOS_1D
        _, horizon = general_condition_thresholds(f, 3.5, eos, 0.9, 0.8, geom)
        assert horizon == 3.5 / f.analytic_horizon(0.9, sound_speed(eos), 0.8, geom)

    # the integral 3/(2 sigma R**2) (1 - (R/U)**2) is past the float range: R**2
    # underflows to 0 (ZeroDivisionError) or to a subnormal (an infinite factor)
    @pytest.mark.parametrize("R", [1e-200, 1e-160])
    def test_an_overflowing_integral_is_named(self, R):
        with pytest.raises(criteria.HorizonRangeError,
                           match=re.escape("tau=1: horizon integral of the general-radial criterion overflows")):
            general_condition_thresholds(linear(), 4.0, EOS, R, 1.0, Geometry.radial(3))


@pytest.fixture()
def computed(monkeypatch):
    """Count the unit integrals of the data side and the horizon rules the
    checks compute (``clear()`` restarts the count); a data side is two unit
    integrals, h and m1."""
    counts = Counter()
    for name in ("_unit_integral", "horizon_B"):
        original = getattr(criteria, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(criteria, name, counted)
    return counts


class Power:
    """A callable weight that compares by value, so it has no hash."""

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return isinstance(other, Power) and other.n == self.n

    def __call__(self, x):
        return np.asarray(x, dtype=float) ** self.n


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


HORIZON_FAMILIES = [f for f in FAMILIES if f != FAMILY_LINEAR_1D]


# the certified preset of each family
CERTIFIED_NAMES = {p.family: name for name, p in CERTIFIED_PRESETS.items()}


@functools.lru_cache(maxsize=None)
def certified_512() -> dict:
    """The certified case of each family at 512 cells, by family."""
    return {case.family: case for case in certified_suite(cells=512)}


def with_amp_v(scenario, amp):
    return replace(scenario, v0=replace(scenario.v0, amp=amp))


def with_amp_rho(scenario, amp):
    return replace(scenario, rho0=replace(scenario.rho0, amp=amp))


def with_gamma(scenario, gamma):
    return replace(scenario, eos=replace(scenario.eos, gamma=gamma))


def data_side(computed) -> int:
    """The unit integrals computed so far."""
    return computed["_unit_integral"]


def assert_same_data_side(prepared, fresh) -> None:
    """The bits of h, m1, H(0) and m(0) of a fresh prepare."""
    got, want = np.array([*prepared.units, prepared.H0, prepared.m0]), np.array([*fresh.units, fresh.H0, fresh.m0])
    assert got.tobytes() == want.tobytes()


class TestPreparedCriterion:
    """A prepared criterion computes its data side once and the horizon
    side of each tau once along a chain of ``with_scenario`` calls."""

    @pytest.mark.parametrize("family, tau, message", [
        (FAMILY_GENERAL_RADIAL, math.inf, "the general-radial criterion needs a positive finite horizon, got tau=inf"),
        (FAMILY_GENERAL_1D, math.inf, "the general-1d criterion needs a positive finite horizon, got tau=inf"),
        (FAMILY_GENERAL_RADIAL, 1e300, "tau=1e+300: B_tau of the general-radial criterion overflows"),
        (FAMILY_GENERAL_1D, 1e6, "tau=1e+06: B_tau of the general-1d criterion overflows"),
        (FAMILY_POWER_RADIAL, 1e300, "tau=1e+300: threshold of the power-radial criterion overflows"),
        (FAMILY_LINEAR_1D_TAU, 1e300, "tau=1e+300: threshold of the linear-1d-tau criterion overflows"),
    ])
    def test_horizon_out_of_range_is_a_typed_error(self, family, tau, message):
        case = next(c for c in certified_suite(cells=256) if c.family == family)
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        with pytest.raises(criteria.HorizonRangeError, match=re.escape(message)):
            prepared.report(tau)
        # the error leaves no horizon side behind, and a valid tau still reports
        assert tau not in prepared.horizons
        assert prepared.report(case.tau).verdict.certifies_blowup

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_data_side_per_prepare(self, family, computed):
        case = next(c for c in certified_suite(cells=512) if c.family == family)
        computed.clear()
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        for tau in (0.5, 1.0, 2.0, 1.0):
            prepared.report(tau)
        assert data_side(computed) == 2
        # amp_v, amp_rho and gamma rows keep h and m1: each row is a multiply
        for row in (lambda s: with_amp_v(s, 2.0 * case.scenario.amp_v), lambda s: with_amp_v(s, -0.0),
                    lambda s: with_amp_rho(s, 0.01), lambda s: with_gamma(s, 3.0)):
            prepared = prepared.with_scenario(row(prepared.scenario))
            prepared.report(1.0)
            assert data_side(computed) == 2
        assert (prepared.H0, prepared.m0) == (-0.0 * prepared.units[0], 0.01 * prepared.units[1])

    @pytest.mark.parametrize("radial", [True, False])
    def test_one_horizon_rule_per_tau_along_a_chain(self, radial, seeded_weight, computed):
        # every row rebuilds its scenario, as the CLI sweep does; the horizon
        # side is kept while the gas, R and the geometry compare equal, the
        # data side while the geometry and the profiles' radii do
        case = (certified_general_radial_case if radial else certified_general_1d_case)(cells=512)
        family = FAMILY_GENERAL_RADIAL if radial else criteria.FAMILY_GENERAL_1D
        weight = seeded_weight(radial, 3)
        computed.clear()
        prepared = criteria.prepare(case.scenario, family, weight, case.a)
        rows = []
        for amp in np.linspace(0.5, 1.5, 5) * case.scenario.amp_v:
            prepared = prepared.with_scenario(
                replace(with_amp_v(case.scenario, amp), eos=replace(case.scenario.eos)))
            rows += [prepared.report(0.8), prepared.report(1.2)]
        assert computed == {"_unit_integral": 2, "horizon_B": 2}
        assert len({r.inputs["combined_threshold"] for r in rows}) == 2

    @pytest.mark.parametrize("change", [
        lambda s: replace(s, eos=replace(s.eos, gamma=3.0)),
        lambda s: replace(s, R=0.9, rho0=replace(s.rho0, R=0.9), v0=replace(s.v0, R=0.9)),
    ], ids=["gamma", "R"])
    def test_a_new_gas_or_radius_recomputes_the_horizon(self, change, computed):
        # the preset's linear weight takes its horizon integral in closed form
        case = certified_general_radial_case(cells=512)
        calls = []
        prepared = criteria.prepare(case.scenario, case.family, _recording(case.f, calls), case.a)
        prepared.report(0.8)
        moved = prepared.with_scenario(change(case.scenario))
        report = moved.report(0.8)
        assert len(calls) == 4  # B(tau) and the horizon integral, per horizon side
        assert computed["horizon_B"] == 0
        fresh = criteria.prepare(change(case.scenario), case.family, case.f, case.a).report(0.8)
        assert report_json(report) == report_json(fresh)
        assert report.inputs["horizon_threshold"] != prepared.report(0.8).inputs["horizon_threshold"]

    def test_a_new_radius_recomputes_the_closed_form_threshold(self, monkeypatch):
        scen = certified_linear_tau_case(cells=512).scenario
        calls = []
        original = criteria.linear_tau_case1_threshold
        monkeypatch.setattr(criteria, "linear_tau_case1_threshold", lambda *args: calls.append(args) or original(*args))
        prepared = criteria.prepare(scen, FAMILY_LINEAR_1D_TAU)
        prepared.with_scenario(with_amp_v(scen, 2.0 * scen.amp_v)).report(1.0)
        prepared.report(1.0)
        assert len(calls) == 1
        wider = replace(scen, R=1.2, rho0=replace(scen.rho0, R=1.2), v0=replace(scen.v0, R=1.2))
        prepared.with_scenario(wider).report(1.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("family", HORIZON_FAMILIES)
    def test_scans_give_the_reports_of_a_fresh_prepare(self, family):
        # a tau scan and an amplitude scan through one prepared criterion,
        # against a fresh prepare for every check
        case = next(c for c in certified_suite(cells=512) if c.family == family)
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        taus = np.linspace(0.3, 2.0, 6).tolist()
        scanned = [report_json(prepared.report(tau)) for tau in taus]
        fresh = [report_json(criteria.prepare(case.scenario, family, case.f, case.a).report(tau)) for tau in taus]
        for amp in (np.linspace(0.5, 1.5, 6) * case.scenario.amp_v).tolist():
            scen = with_amp_v(case.scenario, amp)
            prepared = prepared.with_scenario(scen)
            scanned.append(report_json(prepared.report(case.tau)))
            fresh.append(report_json(run_family_check(scen, family, case.tau, case.f, case.a)))
        assert scanned == fresh

    @pytest.mark.parametrize("amp", [0.0, -0.0])
    def test_signed_zero_amplitude_gives_its_own_functionals(self, amp, computed):
        # the other sign's criterion is prepared first: the new zeros scale
        # the kept h and m1, so H(0) and m(0) carry their signs
        geom = Geometry.cartesian1d()
        other = bump(geom, amp_rho=-amp, amp_v=-amp)
        scen = bump(geom, amp_rho=amp, amp_v=amp)
        report = criteria.prepare(other, FAMILY_LINEAR_1D_TAU).with_scenario(scen).report()
        assert data_side(computed) == 2
        got = (report.inputs["H0"], report.inputs["m0"])
        assert [(v, math.copysign(1.0, v)) for v in got] == [(amp, math.copysign(1.0, amp))] * 2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_chains_give_the_reports_of_a_fresh_prepare(self, family):
        # rows moving amp_v, amp_rho and gamma (>= 2 for the closed forms) in
        # turn, each against a fresh prepare of its scenario
        case = next(c for c in certified_suite(cells=512) if c.family == family)
        rows = [
            lambda s: with_amp_v(s, 0.6 * s.amp_v),
            lambda s: with_amp_rho(s, 0.02),
            lambda s: with_gamma(s, 3.0),
            lambda s: with_amp_v(s, -s.amp_v),
            lambda s: with_amp_rho(s, -0.02),
            lambda s: with_gamma(s, 2.0),
            lambda s: with_amp_rho(s, -0.03),
            lambda s: with_amp_v(s, -2.0 * s.amp_v),
        ]
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        for row in rows:
            scen = row(prepared.scenario)
            prepared = prepared.with_scenario(scen)
            fresh = criteria.prepare(scen, family, case.f, case.a)
            assert report_json(prepared.report(case.tau)) == report_json(fresh.report(case.tau))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(FAMILIES), rows=st.lists(st.one_of(
        st.tuples(st.just("amp_v"), st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))),
        st.tuples(st.just("amp_rho"), st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.05, 0.05))),
        st.tuples(st.just("gamma"), st.sampled_from([2.0, 2.5, 3.0])),
    ), min_size=1, max_size=8))
    def test_random_chains_give_a_fresh_prepare(self, family, rows):
        # amp_v is drawn relative to the case's amplitude, so zero crosses
        # both ways; every row against a fresh prepare of its scenario
        case = certified_512()[family]
        moved = {"amp_v": lambda s, v: with_amp_v(s, v * case.scenario.amp_v),
                 "amp_rho": with_amp_rho, "gamma": with_gamma}
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        for kind, value in rows:
            scen = moved[kind](prepared.scenario, value)
            prepared = prepared.with_scenario(scen)
            fresh = criteria.prepare(scen, family, case.f, case.a)
            assert_same_data_side(prepared, fresh)
            assert report_json(prepared.report(case.tau)) == report_json(fresh.report(case.tau))

    @pytest.mark.parametrize("field", ["amp_v", "amp_rho"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_amplitudes_crossing_zero_keep_their_signs(self, family, field, computed):
        case = next(c for c in certified_suite(cells=512) if c.family == family)
        moved = with_amp_v if field == "amp_v" else with_amp_rho
        amp = 0.5 * (getattr(case.scenario, field) or 0.02)
        scens = [moved(case.scenario, value) for value in (amp, 0.0, -0.0, -amp, -0.0, 0.0, -0.0, amp)]
        fresh = [criteria.prepare(scen, family, case.f, case.a) for scen in scens]
        computed.clear()
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        for scen, want in zip(scens, fresh):
            prepared = prepared.with_scenario(scen)
            assert_same_data_side(prepared, want)
            assert report_json(prepared.report(case.tau)) == report_json(want.report(case.tau))
        # every row differs from the one before in the moved amplitude's bits,
        # and every row keeps h and m1
        assert data_side(computed) == 2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_bump_subclass_integrates_through_its_own_call(self, family, computed):
        # a subclass may override __call__: its unit integral goes through
        # that call, and no row keeps it, neither while it is the velocity
        # nor when a BumpProfile follows
        class Shifted(model.BumpProfile):
            def __call__(self, x):
                return super().__call__(np.asarray(x, dtype=float) - 0.05)

        case = next(c for c in certified_suite(cells=512) if c.family == family)
        v0 = case.scenario.v0
        scens = [replace(case.scenario, v0=Shifted(v0.amp * k, v0.R, v0.odd)) for k in (1.0, 1.5, -0.0, 0.5)]
        scens += [with_amp_v(case.scenario, 0.7 * v0.amp), replace(case.scenario, v0=Shifted(v0.amp, v0.R, v0.odd))]
        computed.clear()
        prepared = criteria.prepare(scens[0], family, case.f, case.a)
        for scen in scens[1:]:
            prepared = prepared.with_scenario(scen)
            fresh = criteria.prepare(scen, family, case.f, case.a)
            assert_same_data_side(prepared, fresh)
            assert report_json(prepared.report(case.tau)) == report_json(fresh.report(case.tau))
        # each row: its own unit integrals and a fresh prepare's
        assert data_side(computed) == 2 + 4 * (len(scens) - 1)
        shifted = criteria._unit_integral(Shifted(1.0, v0.R, v0.odd), prepared.weight.f, case.scenario.geometry)
        assert prepared.units[0] == shifted != criteria._unit_integral(replace(v0, amp=1.0), prepared.weight.f,
                                                                      case.scenario.geometry)

    @pytest.mark.parametrize("field", ["amp_v", "amp_rho"])
    @pytest.mark.parametrize("amp", [0.0, -0.0])
    def test_signed_zero_flip_of_one_amplitude_scales_by_its_own_sign(self, field, amp, computed):
        # the other sign's criterion is prepared first; the flipped zero
        # scales the kept unit integral
        moved = with_amp_v if field == "amp_v" else with_amp_rho
        base = bump(Geometry.cartesian1d(), amp_rho=0.01, amp_v=0.02)
        other, scen = moved(base, -amp), moved(base, amp)
        computed.clear()
        prepared = criteria.prepare(other, FAMILY_LINEAR_1D_TAU).with_scenario(scen)
        assert data_side(computed) == 2
        fresh = criteria.prepare(scen, FAMILY_LINEAR_1D_TAU)
        assert report_json(prepared.report()) == report_json(fresh.report())
        assert_same_data_side(prepared, fresh)
        got, want = (prepared.H0, prepared.m0), (fresh.H0, fresh.m0)
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]

    @pytest.mark.parametrize("change, counts", [
        # the data side reads no grid, no background and no cone radius
        (lambda s: replace(s, grid=replace(s.grid, cells=1024)), 2),
        (lambda s: replace(s, grid=replace(s.grid, extent=2.0 * s.grid.extent)), 2),
        (lambda s: replace(s, R=0.9, rho0=replace(s.rho0, R=0.9), v0=replace(s.v0, R=0.9)), 4),
        (lambda s: replace(s, v0=replace(s.v0, R=0.9)), 4),
        (lambda s: replace(s, rho0=replace(s.rho0, R=0.9)), 4),
        (lambda s: replace(s, R=0.9), 2),
        (lambda s: replace(s, eos=replace(s.eos, rho_bar=2.0)), 2),
    ], ids=["cells", "extent", "R", "v0-R", "rho0-R", "cone-R", "rho_bar"])
    @pytest.mark.parametrize("family", [FAMILY_LINEAR_1D_TAU, FAMILY_GENERAL_RADIAL])
    def test_a_new_grid_radius_or_background_recomputes_the_parts_reading_it(self, family, change, counts, computed):
        case = next(c for c in certified_suite(cells=512) if c.family == family)
        computed.clear()
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        moved = prepared.with_scenario(change(case.scenario))
        assert data_side(computed) == counts
        fresh = criteria.prepare(change(case.scenario), family, case.f, case.a)
        assert_same_data_side(moved, fresh)
        assert report_json(moved.report(case.tau)) == report_json(fresh.report(case.tau))

    @pytest.mark.parametrize("family, ndim", [(FAMILY_GENERAL_RADIAL, 3), (FAMILY_POWER_RADIAL, 1)])
    def test_a_new_geometry_recomputes_the_data_side(self, family, ndim, computed):
        # the supports of radial geometries coincide, but m1 reads r**(N-1)
        case = next(c for c in certified_suite(cells=512) if c.family == family)
        scen = replace(case.scenario, geometry=Geometry.radial(ndim))
        computed.clear()
        moved = criteria.prepare(case.scenario, family, case.f, case.a).with_scenario(scen)
        assert data_side(computed) == 4
        fresh = criteria.prepare(scen, family, case.f, case.a)
        assert_same_data_side(moved, fresh)
        assert report_json(moved.report(case.tau)) == report_json(fresh.report(case.tau))

    def test_unhashable_weight(self, computed):
        weight = radial_vanishing(Power(2.0), lambda x: 2.0 * np.asarray(x, dtype=float), name="r^2")
        with pytest.raises(TypeError):
            hash(weight)
        scen = certified_general_radial_case(cells=512).scenario
        computed.clear()
        prepared = criteria.prepare(scen, FAMILY_GENERAL_RADIAL, weight, 4.0)
        first, again = prepared.report(0.8), prepared.report(0.8)
        assert computed == {"_unit_integral": 2, "horizon_B": 1}
        assert report_json(again) == report_json(first) == report_json(check_general(scen, weight, tau=0.8))

    @pytest.mark.parametrize("family", HORIZON_FAMILIES)
    def test_minimal_tau_computes_one_data_side(self, family, computed):
        case = next(c for c in certified_suite(cells=512) if c.family == family)
        computed.clear()
        got = minimal_tau(case.scenario, family, f=case.f, a=case.a, tau_lo=0.1, tau_hi=1.0, rtol=1e-4)
        assert 0.1 < got < case.tau
        assert data_side(computed) == 2


def exact_exp_unit(beta: float, R: float) -> Fraction:
    """The integral of exp(beta x) y (1 - y**2)**2, y = x/R, over [-R, R], in
    decimal with 60 digits: R [exp(b y) P(y)] from -1 to 1, b = beta R, with
    P = sum of (-1)**k q^(k)/b**(k+1) for q = y - 2y**3 + y**5, whose
    derivatives at y = +-1 are 0, 0, +-8, 48, +-120, 120."""
    with localcontext() as ctx:
        ctx.prec = 60
        b, r = Decimal(beta) * Decimal(R), Decimal(R)
        upper = 8 / b ** 3 - 48 / b ** 4 + 120 / b ** 5 - 120 / b ** 6
        lower = -8 / b ** 3 - 48 / b ** 4 - 120 / b ** 5 - 120 / b ** 6
        return Fraction(r * (b.exp() * upper - (-b).exp() * lower))


def bump_at(geometry, R, amp_rho=0.3, amp_v=-2.5):
    """A bump of radius R on a grid of 256 cells over [0, 2R] (radial) or [-2R, 2R]."""
    return make_bump_scenario(EOS, geometry, R, amp_rho, amp_v, GridSpec(2.0 * R, 256))


# measured: at most 3.1e-16 relative over these radii, N = 1, 2, 3, 5 and r**1 to r**4
UNIT_RTOL = Fraction(4 * sys.float_info.epsilon)
RADII = (1.0, 0.7, 2.5, 1e-3, 37.0)


class TestDataSide:
    """H(0) and m(0) are the integrals of the continuous data: amp_v * h and
    amp_rho * m1, by Gauss-Legendre on the support, read from no grid."""

    @pytest.mark.parametrize("R", RADII)
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_radial_mass_unit_is_exact(self, N, R):
        prepared = criteria.prepare(bump_at(Geometry.radial(N), R), FAMILY_POWER_RADIAL)
        exact = 8 * Fraction(R) ** N / (N * (N + 2) * (N + 4))
        assert abs(Fraction(prepared.units[1]) - exact) <= UNIT_RTOL * exact
        assert prepared.m0 == 0.3 * prepared.units[1]

    @pytest.mark.parametrize("R", RADII)
    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, "x"])
    def test_radial_momentum_unit_is_exact(self, n, N, R):
        # the weight r**n (the identity for "x") integrates in dr: h = 8 R**(n+1)/((n+2)(n+4)(n+6))
        f = linear() if n == "x" else power_law(n)
        prepared = criteria.prepare(bump_at(Geometry.radial(N), R), FAMILY_GENERAL_RADIAL, f)
        k = 1 if n == "x" else n
        exact = 8 * Fraction(R) ** (k + 1) / ((k + 2) * (k + 4) * (k + 6))
        assert abs(Fraction(prepared.units[0]) - exact) <= UNIT_RTOL * exact
        assert prepared.H0 == -2.5 * prepared.units[0]

    @pytest.mark.parametrize("R", RADII)
    def test_1d_linear_units_are_exact(self, R):
        prepared = criteria.prepare(bump_at(Geometry.cartesian1d(), R), FAMILY_LINEAR_1D_TAU)
        exact = (16 * Fraction(R) ** 2 / 105, 16 * Fraction(R) / 15)
        for got, want in zip(prepared.units, exact):
            assert abs(Fraction(got) - want) <= UNIT_RTOL * want

    @pytest.mark.parametrize("R", [1.0, 0.7, 2.5])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
    def test_exponential_momentum_unit_matches_its_closed_form(self, beta, R):
        # not a polynomial: measured at most 1.8e-16 relative
        prepared = criteria.prepare(bump_at(Geometry.cartesian1d(), R), FAMILY_GENERAL_1D, exponential(beta), 3.5)
        exact = exact_exp_unit(beta, R)
        assert abs(Fraction(prepared.units[0]) - exact) <= UNIT_RTOL * exact

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_reports_read_no_grid(self, preset):
        # H0 and m0 bit for bit at 512, 1024 and 4096 cells, every family of the geometry
        base = PRESETS[preset](512)
        families = [f for f, g in criteria.FAMILY_GROUPS.items() if g.radial == base.geometry.is_radial]
        for family in families:
            weight = None if criteria.FAMILY_GROUPS[family].closed_form else (
                linear() if base.geometry.is_radial else exponential(2.0))
            seen = set()
            for cells in (512, 1024, 4096):
                report = criteria.prepare(PRESETS[preset](cells), family, weight, 3.5).report(1.0)
                inputs = report.inputs
                seen.add((inputs["H0"].hex(), inputs.get("m0", 0.0).hex(), report.verdict.kind))
            assert len(seen) == 1, (family, seen)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_amp_v_rows_are_one_multiply(self, family, tmp_path, capsys):
        # every row of an amp_v sweep, through the CLI and through with_scenario
        case = certified_512()[family]
        h = criteria.prepare(case.scenario, family, case.f, case.a).units[0]
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"preset = {CERTIFIED_NAMES[family]}\ngrid.cells = 512\n")
        weight = {FAMILY_GENERAL_RADIAL: ["--weight", "linear"], FAMILY_GENERAL_1D: ["--weight", "exp:2"]}
        argv = ["sweep", "--theorem", family, *weight.get(family, []), "--a", repr(case.a), "--parameter", "amp_v",
                "--lo", "-80", "--hi", "120", "--steps", "9", "--out", str(tmp_path / "o"), str(cfg)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        with open(tmp_path / "o" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["H0"]) for r in rows] == [float(r["value"]) * h for r in rows]
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        for amp in (-80.0, -0.0, 0.0, 5e-324, 37.5, 1e300):
            prepared = prepared.with_scenario(with_amp_v(case.scenario, amp))
            assert np.array(prepared.H0).tobytes() == np.array(amp * h).tobytes()

    def test_a_weight_overflowing_on_the_support_names_H0(self):
        scen = make_bump_scenario(EOS, Geometry.cartesian1d(), 400.0, 0.0, 1.0, GridSpec(800.0, 512))
        with np.errstate(over="ignore"), pytest.raises(OverflowError, match="H0 is not finite"):
            criteria.prepare(scen, FAMILY_GENERAL_1D, exponential(2.0), 3.5)


class TestClosedFormFamilyFlags:
    @pytest.mark.parametrize(
        "family, geom",
        [(FAMILY_POWER_RADIAL, Geometry.radial(3)), (FAMILY_LINEAR_1D_TAU, Geometry.cartesian1d()),
         (FAMILY_LINEAR_1D, Geometry.cartesian1d())],
    )
    def test_weight_is_rejected(self, family, geom):
        with pytest.raises(ValueError, match="own weight"):
            run_family_check(bump(geom), family, tau=1.0, f=linear())

    @pytest.mark.parametrize("family", [FAMILY_LINEAR_1D, FAMILY_LINEAR_1D_TAU])
    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_tau_is_rejected(self, family, tau):
        with pytest.raises(ValueError, match="needs a positive finite horizon"):
            run_family_check(bump(Geometry.cartesian1d()), family, tau=tau)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_non_finite_tau_gets_the_horizon_message(self, family, tau):
        # one check for every family: a NaN has no sign to blame
        case = certified_512()[family]
        prepared = criteria.prepare(case.scenario, family, case.f, case.a)
        message = f"the {family} criterion needs a positive finite horizon, got tau={tau:g}"
        with pytest.raises(criteria.HorizonRangeError, match=f"^{re.escape(message)}$"):
            prepared.report(tau)
        assert prepared.horizons == {}

    @pytest.mark.parametrize(
        "family, geom",
        [(FAMILY_POWER_RADIAL, Geometry.radial(3)), (FAMILY_LINEAR_1D_TAU, Geometry.cartesian1d()),
         (FAMILY_LINEAR_1D, Geometry.cartesian1d())],
    )
    def test_trade_off_constant_is_accepted_and_unused(self, family, geom):
        scen = bump(geom)
        default = run_family_check(scen, family, tau=1.0)
        assert run_family_check(scen, family, tau=1.0, a=3.0).to_dict() == default.to_dict()


class TestCheckPowerRadial:
    def test_case1_routing_and_verdict(self):
        case = certified_power_radial_case(cells=512)
        report = check_power_radial(case.scenario, tau=case.tau)
        assert report.theorem == POWER_RADIAL_CASE1
        assert report.verdict.kind == "blowup_before"
        assert report.inputs["m0"] >= 0.0
        assert report.conditions[0].op == ">"

    def test_case2_routing_on_negative_mass(self):
        scen = bump(Geometry.radial(2), amp_rho=-0.05, amp_v=80.0, extent=2.6)
        report = check_power_radial(scen, tau=1.0)
        assert report.theorem == POWER_RADIAL_CASE2
        assert report.inputs["m0"] < 0.0
        assert report.inputs["a"] > 2.0
        names = [c.name for c in report.conditions]
        assert names == ["root_constant_admissible", "initial_momentum_exceeds_threshold"]
        assert report.verdict.certifies_blowup

    def test_case2_threshold_exceeds_case1(self):
        # the negative-mass drag can only raise the bar
        scen = bump(Geometry.radial(2), amp_rho=-0.05, amp_v=80.0, extent=2.6)
        report = check_power_radial(scen, tau=1.0)
        case1 = power_radial_case1_threshold(2, 1.0, SQRT2, 1.0)
        assert report.inputs["threshold"] > case1

    def test_negative_mass_off_gamma_two_inconclusive(self):
        scen = bump(Geometry.radial(2), amp_rho=-0.05, gamma=2.5, extent=2.6)
        report = check_power_radial(scen, tau=1.0)
        assert report.theorem == POWER_RADIAL_CASE2
        assert report.verdict.kind == "inconclusive"
        assert "gamma = 2" in report.verdict.reason

    def test_geometry_and_gamma_gates(self):
        with pytest.raises(ValueError):
            check_power_radial(bump(Geometry.cartesian1d()), tau=1.0)
        with pytest.raises(ValueError):
            check_power_radial(bump(Geometry.radial(2), gamma=1.5), tau=1.0)
        with pytest.raises(ValueError):
            check_power_radial(bump(Geometry.radial(2)), tau=-1.0)


class TestCheckLinear1d:
    def test_certified_scenario_finite_time(self):
        case = certified_linear_infinite_case(cells=512)
        report = check_linear_1d(case.scenario)
        assert report.theorem == LINEAR_1D_INFINITE
        assert report.verdict.kind == "blowup_finite"
        assert report.verdict.tau is None

    def test_negative_mass_blocks_certification(self):
        scen = bump(Geometry.cartesian1d(), amp_rho=-0.05, amp_v=60.0, extent=2.6)
        report = check_linear_1d(scen)
        assert not report.conditions[0].satisfied
        assert report.verdict.kind == "inconclusive"

    def test_radial_scenario_rejected(self):
        with pytest.raises(ValueError):
            check_linear_1d(bump(Geometry.radial(1)))


class TestCheckLinear1dTau:
    def test_grid_edge_within_the_halo_clips_the_band(self):
        # R + 3 dx lies past the grid's edge; the band stops there and still
        # holds the whole bump: H(0) = 16/105 amp_v R**2
        scen = bump(Geometry.cartesian1d(), extent=1.001, cells=4096)
        report = check_linear_1d_tau(scen)
        assert report.inputs["H0"] == pytest.approx(16.0 / 105.0 * 0.02, rel=1e-6)

    def test_case1_uses_nonstrict_comparison(self):
        case = certified_linear_tau_case(cells=512)
        report = check_linear_1d_tau(case.scenario, tau=case.tau)
        assert report.theorem == LINEAR_1D_TAU_CASE1
        assert report.conditions[0].op == ">="
        assert report.verdict.kind == "blowup_before"

    def test_case2_routing_on_negative_mass(self):
        scen = bump(Geometry.cartesian1d(), amp_rho=-0.05, amp_v=80.0, extent=2.6)
        report = check_linear_1d_tau(scen, tau=1.0)
        assert report.theorem == LINEAR_1D_TAU_CASE2
        assert report.inputs["a"] > 4.0 / 3.0
        assert report.conditions[1].op == ">"
        assert report.verdict.certifies_blowup

    def test_geometry_gate(self):
        with pytest.raises(ValueError):
            check_linear_1d_tau(bump(Geometry.radial(1)), tau=1.0)


NAN = float("nan")

# report.to_dict() of each resolved closed-form theorem on the negative-mass
# bump (amp_v = 80, extent 2.6, tau = 1) or its positive-mass mirror; the
# wording, key order, operators and verdicts are exact, floats to 1e-12.
# H0 and m0 are the exact integrals of the data, amp_v * 8/(4*6*8) for r**2
# and amp_rho * 8/(2*4*6) in radial2, amp_v * 16/105 and amp_rho * 16/15 in
# 1-D; the other floats are the closed forms at those values.
PINNED_REPORTS = {
    "power-case1": (
        check_power_radial, Geometry.radial(2), 0.05, 2.0,
        {"theorem": "power_radial_case1",
         "inputs": {"geometry": "radial2",
                    "N": 2,
                    "tau": 1.0,
                    "sigma": 1.4142135623730951,
                    "H0": 80.0 / 24.0,
                    "m0": 0.05 / 6.0,
                    "threshold": 1.5224077499274828},
         "conditions": [{"name": "initial_momentum_exceeds_threshold",
                         "lhs": 80.0 / 24.0,
                         "rhs": 1.5224077499274828,
                         "op": ">",
                         "satisfied": True,
                         "margin": 1.8109255834058502}],
         "verdict": {"kind": "blowup_before", "tau": 1.0},
         "margins": {"initial_momentum_exceeds_threshold": 1.8109255834058502},
         "notes": []},
    ),
    "power-case2": (
        check_power_radial, Geometry.radial(2), -0.05, 2.0,
        {"theorem": "power_radial_case2",
         "inputs": {"geometry": "radial2",
                    "N": 2,
                    "tau": 1.0,
                    "sigma": 1.4142135623730951,
                    "H0": 80.0 / 24.0,
                    "m0": -0.05 / 6.0,
                    "a": 2.2850742174761285,
                    "threshold": 1.739407348922568},
         "conditions": [{"name": "root_constant_admissible",
                         "lhs": 2.2850742174761285,
                         "rhs": 2.0,
                         "op": ">",
                         "satisfied": True,
                         "margin": 0.2850742174761285},
                        {"name": "initial_momentum_exceeds_threshold",
                         "lhs": 80.0 / 24.0,
                         "rhs": 1.739407348922568,
                         "op": ">",
                         "satisfied": True,
                         "margin": 1.593925984410765}],
         "verdict": {"kind": "blowup_before", "tau": 1.0},
         "margins": {"root_constant_admissible": 0.2850742174761285,
                     "initial_momentum_exceeds_threshold": 1.593925984410765},
         "notes": []},
    ),
    "power-uncovered": (
        check_power_radial, Geometry.radial(2), -0.05, 3.0,
        {"theorem": "power_radial_case2",
         "inputs": {"geometry": "radial2",
                    "N": 2,
                    "tau": 1.0,
                    "sigma": 1.7320508075688772,
                    "H0": 80.0 / 24.0,
                    "m0": -0.05 / 6.0,
                    "threshold": NAN},
         "conditions": [],
         "verdict": {"kind": "inconclusive",
                     "reason": "negative perturbed mass is only covered for gamma = 2"},
         "margins": {},
         "notes": []},
    ),
    "linear-1d": (
        check_linear_1d, Geometry.cartesian1d(), -0.05, 2.0,
        {"theorem": "linear_1d_infinite",
         "inputs": {"geometry": "cartesian1d",
                    "sigma": 1.4142135623730951,
                    "H0": 80.0 * 16.0 / 105.0,
                    "m0": -0.05 * 16.0 / 15.0,
                    "threshold": 3.771236166328254},
         "conditions": [{"name": "perturbed_mass_nonnegative",
                         "lhs": -0.05 * 16.0 / 15.0,
                         "rhs": 0.0,
                         "op": ">=",
                         "satisfied": False,
                         "margin": -0.05 * 16.0 / 15.0},
                        {"name": "initial_momentum_exceeds_threshold",
                         "lhs": 80.0 * 16.0 / 105.0,
                         "rhs": 3.771236166328254,
                         "op": ">",
                         "satisfied": True,
                         "margin": 8.419240024147937}],
         "verdict": {"kind": "inconclusive",
                     "reason": "requires non-negative perturbed mass and momentum above the "
                               "threshold"},
         "margins": {"perturbed_mass_nonnegative": -0.05 * 16.0 / 15.0,
                     "initial_momentum_exceeds_threshold": 8.419240024147937},
         "notes": []},
    ),
    "linear-tau-case1": (
        check_linear_1d_tau, Geometry.cartesian1d(), 0.05, 2.0,
        {"theorem": "linear_1d_tau_case1",
         "inputs": {"geometry": "cartesian1d",
                    "tau": 1.0,
                    "sigma": 1.4142135623730951,
                    "H0": 80.0 * 16.0 / 105.0,
                    "m0": 0.05 * 16.0 / 15.0,
                    "threshold": 4.552284749830794},
         "conditions": [{"name": "initial_momentum_meets_threshold",
                         "lhs": 80.0 * 16.0 / 105.0,
                         "rhs": 4.552284749830794,
                         "op": ">=",
                         "satisfied": True,
                         "margin": 7.6381914406453975}],
         "verdict": {"kind": "blowup_before", "tau": 1.0},
         "margins": {"initial_momentum_meets_threshold": 7.6381914406453975},
         "notes": []},
    ),
    "linear-tau-case2": (
        check_linear_1d_tau, Geometry.cartesian1d(), -0.05, 2.0,
        {"theorem": "linear_1d_tau_case2",
         "inputs": {"geometry": "cartesian1d",
                    "tau": 1.0,
                    "sigma": 1.4142135623730951,
                    "H0": 80.0 * 16.0 / 105.0,
                    "m0": -0.05 * 16.0 / 15.0,
                    "a": 1.4516009653976552,
                    "threshold": 4.956075703214553},
         "conditions": [{"name": "root_constant_admissible",
                         "lhs": 1.4516009653976552,
                         "rhs": 1.3333333333333333,
                         "op": ">",
                         "satisfied": True,
                         "margin": 0.11826763206432189},
                        {"name": "initial_momentum_exceeds_threshold",
                         "lhs": 80.0 * 16.0 / 105.0,
                         "rhs": 4.956075703214553,
                         "op": ">",
                         "satisfied": True,
                         "margin": 7.234400487261639}],
         "verdict": {"kind": "blowup_before", "tau": 1.0},
         "margins": {"root_constant_admissible": 0.11826763206432189,
                     "initial_momentum_exceeds_threshold": 7.234400487261639},
         "notes": []},
    ),
    "linear-tau-uncovered": (
        check_linear_1d_tau, Geometry.cartesian1d(), -0.05, 3.0,
        {"theorem": "linear_1d_tau_case2",
         "inputs": {"geometry": "cartesian1d",
                    "tau": 1.0,
                    "sigma": 1.7320508075688772,
                    "H0": 80.0 * 16.0 / 105.0,
                    "m0": -0.05 * 16.0 / 15.0,
                    "threshold": NAN},
         "conditions": [],
         "verdict": {"kind": "inconclusive",
                     "reason": "negative perturbed mass is only covered for gamma = 2"},
         "margins": {},
         "notes": []},
    ),
}


def _flatten(value, path=""):
    if isinstance(value, dict):
        return [kv for k, v in value.items() for kv in _flatten(v, f"{path}/{k}")]
    if isinstance(value, list):
        return [kv for i, v in enumerate(value) for kv in _flatten(v, f"{path}/{i}")]
    return [(path, value)]


class TestClosedFormResolution:
    @pytest.mark.parametrize("case", list(PINNED_REPORTS))
    def test_report_matches_the_pinned_value(self, case):
        check, geometry, amp_rho, gamma, expected = PINNED_REPORTS[case]
        scen = bump(geometry, amp_rho=amp_rho, amp_v=80.0, extent=2.6, gamma=gamma)
        report = check(scen) if check is check_linear_1d else check(scen, tau=1.0)
        got, want = _flatten(report.to_dict()), _flatten(expected)
        assert [p for p, _ in got] == [p for p, _ in want]
        for (path, g), (_, w) in zip(got, want):
            if isinstance(w, float):
                assert g == pytest.approx(w, rel=1e-12, nan_ok=True), path
            else:
                assert (type(g), g) == (type(w), w), path

    @pytest.mark.parametrize(
        "check, scenario, message",
        [
            (check_power_radial, bump(Geometry.cartesian1d()),
             "the power-weight criterion applies to radial geometry"),
            (check_linear_1d_tau, bump(Geometry.radial(1)),
             "the horizon criterion applies to the 1-D geometry"),
            (check_linear_1d, bump(Geometry.radial(1)),
             "the horizon-free criterion applies to the 1-D geometry"),
            (check_power_radial, bump(Geometry.radial(2), gamma=1.5),
             "the power-weight criterion requires gamma >= 2"),
            (check_linear_1d_tau, bump(Geometry.cartesian1d(), gamma=1.5),
             "the horizon criterion requires gamma >= 2"),
            (check_linear_1d, bump(Geometry.cartesian1d(), gamma=1.5),
             "the horizon-free criterion requires gamma >= 2"),
            (lambda s: check_power_radial(s, tau=0.0), bump(Geometry.radial(2)),
             "the power-radial criterion needs a positive finite horizon, got tau=0"),
            (lambda s: check_linear_1d_tau(s, tau=-1.0), bump(Geometry.cartesian1d()),
             "the linear-1d-tau criterion needs a positive finite horizon, got tau=-1"),
        ],
    )
    def test_guard_messages(self, check, scenario, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(scenario)

    @pytest.mark.parametrize(
        "family, geometry, notes",
        [
            (FAMILY_POWER_RADIAL, Geometry.radial(2),
             ["H(0) sits exactly on the threshold: the strict form does not certify, "
              "the non-strict variant would"]),
            (FAMILY_LINEAR_1D, Geometry.cartesian1d(), ["H(0) sits exactly on the strict threshold"]),
            # case 1 of the horizon criterion is non-strict: equality certifies
            (FAMILY_LINEAR_1D_TAU, Geometry.cartesian1d(), []),
        ],
    )
    def test_equality_note_only_on_strict_thresholds(self, family, geometry, notes, monkeypatch):
        scen = bump(geometry, amp_v=80.0, extent=2.6)
        H0 = criteria.prepare(scen, family).H0
        group = criteria.FAMILY_GROUPS[family]
        on_threshold = replace(group.closed_form, threshold=lambda N, R, sigma, tau: H0)
        monkeypatch.setitem(criteria.FAMILY_GROUPS, family, replace(group, closed_form=on_threshold))
        report = run_family_check(scen, family)
        assert report.notes == notes
        assert report.verdict.certifies_blowup == (notes == [])


class TestMinimalTau:
    def test_power_radial_matches_closed_form(self):
        case = certified_power_radial_case(cells=512)
        scen = case.scenario
        snap = initial_snapshot(scen)
        dx = scen.grid.spacing(scen.geometry)
        H0 = momentum_functional(snap, power_law(3), scen.geometry, upper=1.0 + 3.0 * dx)
        # threshold(tau) = H0 has the closed solution U^4 = 3 H0/(3 H0 - 2 sigma)
        U4 = 3.0 * H0 / (3.0 * H0 - 2.0 * SQRT2)
        tau_closed = (U4**0.25 - 1.0) / SQRT2
        got = minimal_tau(scen, FAMILY_POWER_RADIAL, rtol=1e-7)
        assert got == pytest.approx(tau_closed, rel=1e-5)

    def test_linear_tau_matches_closed_form(self):
        case = certified_linear_tau_case(cells=512)
        scen = case.scenario
        snap = initial_snapshot(scen)
        dx = scen.grid.spacing(scen.geometry)
        H0 = momentum_functional(snap, linear(), scen.geometry, upper=1.0 + 3.0 * dx)
        # threshold(tau) = H0 reduces to a quadratic in tau
        coeffs = [3.0 * SQRT2 * H0 - 16.0, 6.0 * H0 - 16.0 * SQRT2, -8.0]
        roots = np.roots(coeffs)
        tau_closed = float(min(r.real for r in roots if r.real > 0 and abs(r.imag) < 1e-12))
        got = minimal_tau(scen, FAMILY_LINEAR_1D_TAU, rtol=1e-7)
        assert got == pytest.approx(tau_closed, rel=1e-5)

    def test_certified_horizon_brackets_result(self):
        case = certified_power_radial_case(cells=512)
        got = minimal_tau(case.scenario, FAMILY_POWER_RADIAL)
        assert got is not None and got < case.tau
        assert run_family_check(case.scenario, case.family, tau=got * 1.01).verdict.certifies_blowup
        assert not run_family_check(case.scenario, case.family, tau=got * 0.99).verdict.certifies_blowup

    def test_uncertifiable_scenario_returns_none(self):
        scen = bump(Geometry.radial(3))
        assert minimal_tau(scen, FAMILY_POWER_RADIAL) is None

    def test_horizon_free_family_rejected(self):
        scen = bump(Geometry.cartesian1d())
        with pytest.raises(ValueError):
            minimal_tau(scen, FAMILY_LINEAR_1D)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_accepts_exactly_the_horizon_families(self, family):
        case = next(c for c in certified_suite(cells=512) if c.family == family)

        def search():
            return minimal_tau(
                case.scenario, family, f=case.f, a=case.a,
                tau_lo=0.1, tau_hi=1.0, rtol=1e-3, scan_points=8,
            )

        if family == FAMILY_LINEAR_1D:
            with pytest.raises(ValueError):
                search()
        else:
            assert 0.1 < search() < case.tau

    def test_certifying_window_gives_its_left_end(self, monkeypatch):
        # sufficient conditions only: the certifying horizons may form a window
        scen = bump(Geometry.radial(3))
        probes = []

        class Fake:
            H0 = 1.0

            def certifies(self, tau):
                probes.append(tau)
                return 0.1 < tau < 1.0 or tau > 50.0

        monkeypatch.setattr(criteria, "prepare", lambda *args: Fake())
        got = minimal_tau(scen, FAMILY_POWER_RADIAL)
        assert 0.1 < got <= 0.1 * (1.0 + 2e-6)
        assert max(probes) < 1.0

    @pytest.mark.parametrize("name", ["cert-general-radial-n1", "cert-general-1d-exp"])
    def test_general_presets_give_the_smallest_certifying_horizon(self, name):
        case = certified_case(name, cells=1024)

        def certifies(tau):
            return run_family_check(case.scenario, case.family, tau, case.f, case.a).verdict.certifies_blowup

        got = minimal_tau(case.scenario, case.family, f=case.f, a=case.a)
        assert got is not None and got < case.tau
        assert certifies(got)
        assert not certifies(got * (1.0 - 2e-6))

    @pytest.mark.parametrize(
        "name, want", [("cert-power-radial-n3", 0.21028363246797344), ("cert-linear-tau-1d", 0.34967211604259496)]
    )
    def test_closed_form_presets_pinned(self, name, want):
        # the horizon an exhaustive scan of the grid bisects to, bit for bit
        case = certified_case(name)
        assert minimal_tau(case.scenario, case.family) == want

    @pytest.mark.parametrize("kwargs", [
        dict(tau_lo=0.0), dict(tau_lo=-1.0), dict(tau_lo=2.0, tau_hi=1.0), dict(tau_lo=1.0, tau_hi=1.0),
        dict(tau_hi=math.inf), dict(tau_lo=math.nan), dict(rtol=0.0), dict(rtol=1.0), dict(rtol=-1e-6),
        dict(rtol=math.nan), dict(scan_points=0), dict(scan_points=1),
    ])
    def test_invalid_arguments_raise_before_any_check(self, kwargs, monkeypatch):
        def no_check(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(criteria, "_unit_integral", no_check)
        with pytest.raises(ValueError):
            minimal_tau(bump(Geometry.radial(3)), FAMILY_POWER_RADIAL, **kwargs)

    def test_rtol_below_the_float_spacing_stops_at_adjacent_floats(self, monkeypatch):
        probes = []
        certifies = criteria.PreparedCriterion.certifies

        def bounded(self, tau=1.0):
            probes.append(tau)
            assert len(probes) < 200, "the bisection does not stop"
            return certifies(self, tau)

        monkeypatch.setattr(criteria.PreparedCriterion, "certifies", bounded)
        case = certified_power_radial_case(cells=512)
        got = minimal_tau(case.scenario, FAMILY_POWER_RADIAL, tau_lo=0.1, tau_hi=1.0, rtol=1e-20, scan_points=8)
        assert check_power_radial(case.scenario, got).verdict.certifies_blowup
        assert not check_power_radial(case.scenario, float(np.nextafter(got, 0.0))).verdict.certifies_blowup

    @pytest.mark.parametrize("name, want, probes", [
        ("cert-general-radial-n1", "0x1.e3690d0c66ab7p-2", 48),
        ("cert-general-1d-exp", "0x1.ff4930e499daap-2", 48),
        ("cert-power-radial-n3", "0x1.aea92f62ac17cp-3", 44),
        ("cert-linear-tau-1d", "0x1.6610727ae77cep-2", 46),
    ])
    def test_horizon_presets_pinned_with_their_probe_counts(self, name, want, probes, monkeypatch):
        # the horizon and the probe count of the report-reading scan, bit for bit
        case = certified_case(name)
        seen = count_probes(monkeypatch)
        assert minimal_tau(case.scenario, case.family, f=case.f, a=case.a).hex() == want
        assert len(seen) == probes

    @pytest.mark.parametrize("name, want, probes", [
        ("cert-general-radial-n1", "0x1.37d88af610746p-2", 46),
        ("cert-general-1d-exp", "0x1.cefb6b492b594p-1", 51),
    ])
    def test_seeded_weights_pinned_with_their_probe_counts(self, name, want, probes, seeded_weight, monkeypatch):
        case = certified_case(name)
        weight = seeded_weight(case.scenario.geometry.is_radial, 1)
        seen = count_probes(monkeypatch)
        assert minimal_tau(case.scenario, case.family, f=weight, a=case.a).hex() == want
        assert len(seen) == probes

    @pytest.mark.parametrize("scale, probes", [(0.01, 1), (-1.0, 0)])
    @pytest.mark.parametrize("weight", ["exp:2", "exp:2 stripped", "seeded"])
    def test_general_data_that_never_certifies_give_none(self, weight, scale, probes, seeded_weight, monkeypatch):
        # these horizons reached exp(2x)'s overflowing B at tau = 803 and raised;
        # H(0) <= 0 probes nothing, and the scan stops where the strict condition fails
        case = certified_case("cert-general-1d-exp")
        f = {"exp:2": exponential(2.0), "exp:2 stripped": stripped(exponential(2.0)),
             "seeded": seeded_weight(False, 1)}[weight]
        scen = with_amp_v(case.scenario, scale * case.scenario.v0.amp)
        seen = count_probes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert minimal_tau(scen, case.family, f=f, a=case.a) is None
        assert len(seen) == probes

    @pytest.mark.parametrize("amp_v", [0.0, -2.0])
    @pytest.mark.parametrize("family, geometry", [
        (FAMILY_POWER_RADIAL, Geometry.radial(3)), (FAMILY_LINEAR_1D_TAU, Geometry.cartesian1d()),
        (FAMILY_GENERAL_RADIAL, Geometry.radial(3)),
    ])
    def test_no_positive_momentum_probes_nothing(self, family, geometry, amp_v, monkeypatch):
        seen = count_probes(monkeypatch)
        f = None if criteria.FAMILY_GROUPS[family].closed_form else linear()
        assert minimal_tau(bump(geometry, amp_v=amp_v), family, f=f) is None
        assert seen == []


def count_probes(monkeypatch) -> list:
    """The horizons ``minimal_tau`` probes, recorded by PreparedCriterion.certifies."""
    seen = []
    certifies = criteria.PreparedCriterion.certifies
    monkeypatch.setattr(criteria.PreparedCriterion, "certifies", lambda self, tau=1.0: seen.append(tau) or certifies(self, tau))
    return seen


def certifies_or_error(prepared, tau):
    try:
        return prepared.certifies(tau)
    except criteria.HorizonRangeError as exc:
        return str(exc)


def verdict_or_error(prepared, tau):
    try:
        return prepared.report(tau).verdict.certifies_blowup
    except criteria.HorizonRangeError as exc:
        return str(exc)


# log-uniform in [1e-3, 1e3], seeded
AGREEMENT_TAUS = (10.0 ** np.random.default_rng(29).uniform(-3.0, 3.0, 40)).tolist()


class TestCertifies:
    """``certifies(tau)`` is ``report(tau)``'s verdict, read from the same
    condition rows without building the report; an error is the same error."""

    def assert_agrees(self, prepared, taus=AGREEMENT_TAUS) -> list:
        got = [certifies_or_error(prepared, tau) for tau in taus]
        assert got == [verdict_or_error(prepared, tau) for tau in taus]
        return got

    @pytest.mark.parametrize("name", sorted(CERTIFIED_PRESETS))
    def test_certified_presets(self, name):
        case = certified_case(name, 512)
        got = self.assert_agrees(criteria.prepare(case.scenario, case.family, case.f, case.a))
        assert True in got
        if criteria.FAMILY_GROUPS[case.family].horizon:
            assert False in got

    @pytest.mark.parametrize("family, geometry, theorem", [
        (FAMILY_POWER_RADIAL, Geometry.radial(2), POWER_RADIAL_CASE2),
        (FAMILY_LINEAR_1D_TAU, Geometry.cartesian1d(), LINEAR_1D_TAU_CASE2),
    ])
    @pytest.mark.parametrize("amp_v", [80.0, 300.0])
    def test_negative_mass_case_two(self, family, geometry, theorem, amp_v):
        prepared = criteria.prepare(bump(geometry, amp_rho=-0.05, amp_v=amp_v, extent=2.6), family)
        assert prepared.report(1.0).theorem == theorem
        assert {True, False} <= set(self.assert_agrees(prepared))

    @pytest.mark.parametrize("family, geometry", [
        (FAMILY_POWER_RADIAL, Geometry.radial(2)), (FAMILY_LINEAR_1D_TAU, Geometry.cartesian1d()),
    ])
    def test_negative_mass_off_gamma_two(self, family, geometry):
        # no case covers the data, and the report has no conditions
        prepared = criteria.prepare(bump(geometry, amp_rho=-0.05, amp_v=80.0, gamma=2.5, extent=2.6), family)
        assert prepared.report(1.0).conditions == []
        assert set(self.assert_agrees(prepared)) == {False}

    @pytest.mark.parametrize("family, geometry, certifies", [
        (FAMILY_POWER_RADIAL, Geometry.radial(2), False),
        (FAMILY_LINEAR_1D, Geometry.cartesian1d(), False),
        (FAMILY_LINEAR_1D_TAU, Geometry.cartesian1d(), True),  # non-strict: equality certifies
    ])
    def test_momentum_on_the_threshold(self, family, geometry, certifies, monkeypatch):
        scen = bump(geometry, amp_v=80.0, extent=2.6)
        H0 = criteria.prepare(scen, family).H0
        group = criteria.FAMILY_GROUPS[family]
        on_threshold = replace(group.closed_form, threshold=lambda N, R, sigma, tau: H0)
        monkeypatch.setitem(criteria.FAMILY_GROUPS, family, replace(group, closed_form=on_threshold))
        prepared = criteria.prepare(scen, family)
        assert set(self.assert_agrees(prepared)) == {certifies}
        assert (prepared.report(1.0).notes != []) != certifies

    def test_momentum_on_the_general_strict_threshold(self, monkeypatch):
        case = certified_case("cert-general-radial-n1", 512)
        H0 = criteria.prepare(case.scenario, case.family, case.f, case.a).H0
        monkeypatch.setattr(criteria, "_horizon_side", lambda *args: (1.0, H0, 0.5 * H0))
        prepared = criteria.prepare(case.scenario, case.family, case.f, case.a)
        assert set(self.assert_agrees(prepared)) == {False}
        assert prepared.report(1.0).verdict.reason == "condition pressure_barrier_strict not met"

    @pytest.mark.parametrize("name", ["cert-general-radial-n1", "cert-general-1d-exp"])
    def test_seeded_weights(self, name, seeded_weight):
        case = certified_case(name, 512)
        weight = seeded_weight(case.scenario.geometry.is_radial, 1)
        got = self.assert_agrees(criteria.prepare(case.scenario, case.family, weight, case.a))
        assert {True, False} <= set(got)


GENERAL_KEYS = ["B_tau", "H0", "a", "combined_threshold", "geometry", "horizon_threshold", "sigma",
                "strict_threshold", "tau", "weight"]
POWER_KEYS = ["H0", "N", "geometry", "m0", "sigma", "tau", "threshold"]
TAU_KEYS = ["H0", "geometry", "m0", "sigma", "tau", "threshold"]
POWER_SHORT = "initial momentum does not exceed the threshold"
TAU_SHORT = "initial momentum below the horizon threshold"
INFINITE_SHORT = "requires non-negative perturbed mass and momentum above the threshold"
NEGATIVE_SHORT = "negative-mass threshold not exceeded"
UNCOVERED = "negative perturbed mass is only covered for gamma = 2"


class TestVerdictReasons:
    """Every verdict a report can give: its kind, the reason of an
    inconclusive one, the inputs it records and its notes."""

    # family, amp_rho, amp_v, gamma, tau; verdict kind, reason, sorted inputs, notes
    CASES = {
        "general-radial H0 <= 0": (FAMILY_GENERAL_RADIAL, 0.01, -5.0, 2.0, 1.0, "inconclusive",
                                   "initial weighted momentum is not positive", GENERAL_KEYS, []),
        "general-radial strict fails": (FAMILY_GENERAL_RADIAL, 0.01, 0.02, 2.0, 1.0, "inconclusive",
                                        "condition pressure_barrier_strict not met", GENERAL_KEYS, []),
        "general-radial horizon fails": (FAMILY_GENERAL_RADIAL, 0.01, 80.0, 2.0, 0.05, "inconclusive",
                                         "condition horizon_budget not met", GENERAL_KEYS, []),
        "general-radial certified": (FAMILY_GENERAL_RADIAL, 0.01, 200.0, 2.0, 0.5, "blowup_before", None,
                                     GENERAL_KEYS, []),
        "general-1d H0 <= 0": (FAMILY_GENERAL_1D, 0.01, -5.0, 2.0, 1.0, "inconclusive",
                               "initial weighted momentum is not positive", GENERAL_KEYS, []),
        "general-1d strict fails": (FAMILY_GENERAL_1D, 0.01, 0.02, 2.0, 1.0, "inconclusive",
                                    "condition pressure_barrier_strict not met", GENERAL_KEYS, []),
        "general-1d horizon fails": (FAMILY_GENERAL_1D, 0.01, 80.0, 2.0, 0.05, "inconclusive",
                                     "condition horizon_budget not met", GENERAL_KEYS, []),
        "general-1d certified": (FAMILY_GENERAL_1D, 0.01, 200.0, 2.0, 0.5, "blowup_before", None, GENERAL_KEYS, []),
        "power-radial case 1 fails": (FAMILY_POWER_RADIAL, 0.01, 0.02, 2.0, 1.0, "inconclusive", POWER_SHORT,
                                      POWER_KEYS, []),
        "power-radial case 1 certified": (FAMILY_POWER_RADIAL, 0.01, 80.0, 2.0, 1.0, "blowup_before", None,
                                          POWER_KEYS, []),
        "power-radial case 2 root at its bound": (
            FAMILY_POWER_RADIAL, -1e-20, 300.0, 2.0, 1.0, "inconclusive", NEGATIVE_SHORT, sorted(POWER_KEYS + ["a"]),
            ["root constant degenerates to the admissibility boundary a = 2"]),
        "power-radial case 2 below threshold": (FAMILY_POWER_RADIAL, -0.05, 0.5, 2.0, 1.0, "inconclusive",
                                                NEGATIVE_SHORT, sorted(POWER_KEYS + ["a"]), []),
        "power-radial case 2 certified": (FAMILY_POWER_RADIAL, -0.05, 80.0, 2.0, 1.0, "blowup_before", None,
                                          sorted(POWER_KEYS + ["a"]), []),
        "power-radial negative mass at gamma 2.5": (FAMILY_POWER_RADIAL, -0.05, 80.0, 2.5, 1.0, "inconclusive",
                                                    UNCOVERED, POWER_KEYS, []),
        "linear-1d-tau case 1 fails": (FAMILY_LINEAR_1D_TAU, 0.01, 0.02, 2.0, 1.0, "inconclusive", TAU_SHORT,
                                       TAU_KEYS, []),
        "linear-1d-tau case 1 certified": (FAMILY_LINEAR_1D_TAU, 0.01, 80.0, 2.0, 1.0, "blowup_before", None,
                                           TAU_KEYS, []),
        "linear-1d-tau case 2 root at its bound": (
            FAMILY_LINEAR_1D_TAU, -1e-20, 300.0, 2.0, 1.0, "inconclusive", NEGATIVE_SHORT, sorted(TAU_KEYS + ["a"]),
            ["root constant degenerates to the admissibility boundary a = 1.33333"]),
        "linear-1d-tau case 2 below threshold": (FAMILY_LINEAR_1D_TAU, -0.05, 0.5, 2.0, 1.0, "inconclusive",
                                                 NEGATIVE_SHORT, sorted(TAU_KEYS + ["a"]), []),
        "linear-1d-tau case 2 certified": (FAMILY_LINEAR_1D_TAU, -0.05, 80.0, 2.0, 1.0, "blowup_before", None,
                                           sorted(TAU_KEYS + ["a"]), []),
        "linear-1d-tau negative mass at gamma 2.5": (FAMILY_LINEAR_1D_TAU, -0.05, 80.0, 2.5, 1.0, "inconclusive",
                                                     UNCOVERED, TAU_KEYS, []),
        "linear-1d fails": (FAMILY_LINEAR_1D, 0.01, 0.02, 2.0, 1.0, "inconclusive", INFINITE_SHORT,
                            ["H0", "geometry", "m0", "sigma", "threshold"], []),
        "linear-1d certified": (FAMILY_LINEAR_1D, 0.01, 80.0, 2.0, 1.0, "blowup_finite", None,
                                ["H0", "geometry", "m0", "sigma", "threshold"], []),
        "linear-1d negative mass": (FAMILY_LINEAR_1D, -0.05, 80.0, 2.0, 1.0, "inconclusive", INFINITE_SHORT,
                                    ["H0", "geometry", "m0", "sigma", "threshold"], []),
    }
    WEIGHTS = {FAMILY_GENERAL_RADIAL: linear, FAMILY_GENERAL_1D: lambda: exponential(1.0)}

    @staticmethod
    def geometry(family):
        if family == FAMILY_GENERAL_RADIAL:
            return Geometry.radial(1)
        return Geometry.radial(2) if family == FAMILY_POWER_RADIAL else Geometry.cartesian1d()

    @staticmethod
    def assert_verdict(report, kind, reason, keys, notes, tau):
        assert (report.verdict.kind, report.verdict.reason) == (kind, reason)
        assert report.verdict.tau == (tau if kind == "blowup_before" else None)
        assert sorted(report.inputs) == keys
        assert report.notes == notes
        assert report.verdict.certifies_blowup == (report.conditions != [] and all(c.satisfied for c in report.conditions))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_table(self, case):
        family, amp_rho, amp_v, gamma, tau, kind, reason, keys, notes = self.CASES[case]
        scen = bump(self.geometry(family), amp_rho=amp_rho, amp_v=amp_v, gamma=gamma, extent=2.6)
        weight = self.WEIGHTS.get(family)
        report = run_family_check(scen, family, tau, weight() if weight else None, 4.0)
        self.assert_verdict(report, kind, reason, keys, notes, tau)
        assert (report.conditions == []) == (reason == UNCOVERED)

    @pytest.mark.parametrize("family, kind, reason, keys, notes", [
        (FAMILY_POWER_RADIAL, "inconclusive", POWER_SHORT, POWER_KEYS,
         ["H(0) sits exactly on the threshold: the strict form does not certify, the non-strict variant would"]),
        (FAMILY_LINEAR_1D, "inconclusive", INFINITE_SHORT, ["H0", "geometry", "m0", "sigma", "threshold"],
         ["H(0) sits exactly on the strict threshold"]),
        (FAMILY_LINEAR_1D_TAU, "blowup_before", None, TAU_KEYS, []),  # non-strict: equality certifies
    ])
    def test_momentum_on_a_threshold(self, family, kind, reason, keys, notes, monkeypatch):
        scen = bump(self.geometry(family), amp_v=80.0, extent=2.6)
        H0 = criteria.prepare(scen, family).H0
        group = criteria.FAMILY_GROUPS[family]
        on_threshold = replace(group.closed_form, threshold=lambda N, R, sigma, tau: H0)
        monkeypatch.setitem(criteria.FAMILY_GROUPS, family, replace(group, closed_form=on_threshold))
        report = run_family_check(scen, family, 1.0)
        self.assert_verdict(report, kind, reason, keys, notes, 1.0)
        assert report.inputs["threshold"] == report.inputs["H0"]


# ---------------------------------------------------------------------------
# The recorder's columns with boolean-mask bands, fancy indexing, a
# finiteness scan before each sum and an array test of t in the closed-form
# B: the series must equal them bit for bit.


def masked_band(snap, geometry, upper):
    if upper > snap.centers[-1] + 0.5 * snap.spacing:
        raise functionals.GridCoverageError(f"integration bound {upper:g} exceeds grid coverage")
    return snap.centers <= upper if geometry.is_radial else np.abs(snap.centers) <= upper


def scanned_trapezoid(values, spacing):
    v = np.asarray(values, dtype=float)
    quadrature._check_finite(v, np.arange(v.size) * spacing)
    return float(spacing * (v.sum() - 0.5 * (v[0] + v[-1])))


def array_tested_power_law_B(n, R, sigma, t, geometry):
    if n <= 0:
        raise ValueError("power-law exponent must be positive")
    if R <= 0 or sigma <= 0 or np.any(np.asarray(t) < 0):
        raise ValueError("require R > 0, sigma > 0, t >= 0")
    kind = getattr(geometry, "kind", geometry)
    if kind == "cartesian1d" and n != 1:
        raise ValueError("1-D closed form is defined for the linear weight only")
    if kind not in ("radial", "cartesian1d"):
        raise ValueError(f"unknown geometry {geometry!r}")
    if np.ndim(t) == 0:
        upper = R + sigma * t
        if kind == "radial":
            return float(upper ** (n + 2) / (n * (n + 2)))
        return float(2.0 * upper ** 3 / 3.0)
    upper = R + sigma * np.asarray(t, dtype=float)
    if kind == "radial":
        return upper ** (n + 2) / (n * (n + 2))
    return 2.0 * upper ** 3 / 3.0


def reference_observe(ctx, snap, m0):
    """A recorder row (t, H, B, m, G) by the masked formulas; m0 is None at the first sample."""
    geom, eos = ctx.scenario.geometry, ctx.scenario.eos
    mask = masked_band(snap, geom, ctx._upper(snap))
    assert mask.sum() >= 2
    H = scanned_trapezoid(np.asarray(ctx.f.f(snap.centers[mask]), dtype=float) * snap.V[mask], snap.spacing)
    m = float(ctx.m(snap))
    m0 = m if m0 is None else m0
    if ctx.spec.G is criteria._pressure_slack:
        diff = snap.rho[mask] ** (eos.gamma - 1.0) - eos.rho_bar ** (eos.gamma - 1.0)
        if geom.is_radial and geom.ndim > 1:
            diff = diff * snap.centers[mask] ** (geom.ndim - 1)
        scale = eos.K * eos.gamma / (eos.gamma - 1.0)
        if geom.is_radial:
            scale *= geom.ndim
        G = scale * scanned_trapezoid(diff, snap.spacing)
    else:
        G = ctx.spec.G(ctx, H, m0, snap, ctx.scenario.R + ctx.sigma * ctx.tau)
    return snap.t, H, float(ctx.B(snap.t)), m, float(G)


class TestTheoremContext:
    def test_power_radial_context(self):
        case = certified_power_radial_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        assert ctx.family == POWER_RADIAL_CASE1
        assert ctx.f.f(2.0) == 2.0 ** 3
        assert ctx.hypotheses_hold()
        # coefficient at t=0: N(N+1)/(2 R^(N+2)) with N=3, R=1
        assert ctx.riccati_coeff(0.0) == pytest.approx(6.0, rel=1e-12)

    def test_linear_tau_context_coefficient(self):
        case = certified_linear_tau_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        assert ctx.family == LINEAR_1D_TAU_CASE1
        assert ctx.riccati_coeff(0.0) == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(CERTIFIED_PRESETS))
    def test_context_weight_is_the_prepared_weight(self, name):
        case = certified_case(name, cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
        own = {"cert-power-radial-n3": power_law(3), "cert-linear-tau-1d": linear(), "cert-linear-infinite-1d": linear()}
        want = own.get(name, case.f)
        assert want is not None and ctx.f is want
        assert ctx.f is criteria.prepare(case.scenario, case.family, case.f, case.a).weight

    def test_general_context_keeps_weight_and_a(self):
        case = certified_general_radial_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
        assert ctx.family == GENERAL_RADIAL
        assert ctx.a == case.a
        # coefficient 1/(a*B(0)) with B(0) = R^3/3
        assert ctx.riccati_coeff(0.0) == pytest.approx(3.0 / case.a, rel=1e-12)

    @pytest.mark.parametrize(
        "geometry, family, resolved, coeff, slack",
        [
            # radial N = 2 and 1-D, K = 1, sigma = sqrt(2), R = tau = 1
            (
                Geometry.radial(2),
                FAMILY_POWER_RADIAL,
                POWER_RADIAL_CASE2,
                lambda a, U: 6.0 / (a * U ** 4),
                lambda a, H, m0, U: (a - 2.0) * 6.0 * H ** 2 / (2.0 * a * U ** 4) + 4.0 * m0,
            ),
            (
                Geometry.cartesian1d(),
                FAMILY_LINEAR_1D_TAU,
                LINEAR_1D_TAU_CASE2,
                lambda a, U: 1.0 / (a * U ** 3),
                lambda a, H, m0, U: (3.0 * a - 4.0) * H ** 2 / (4.0 * a * U ** 3) + 2.0 * m0,
            ),
        ],
    )
    def test_negative_mass_context_closed_forms(self, geometry, family, resolved, coeff, slack):
        scen = bump(geometry, amp_rho=-0.05, amp_v=80.0, extent=2.6)
        ctx = theorem_context(scen, family, tau=1.0)
        assert ctx.family == resolved
        assert ctx.a == ctx.report.inputs["a"]
        snap = initial_snapshot(scen)
        H, m0 = ctx.H(snap), ctx.m(snap)
        assert m0 < 0.0
        for t, h in ((0.0, H), (0.6, 2.0 * H)):
            U = 1.0 + SQRT2 * t
            assert ctx.riccati_coeff(t) == pytest.approx(coeff(ctx.a, U), rel=1e-13)
            got = ctx.G(t, h, m0, snap)
            assert got == pytest.approx(slack(ctx.a, h, m0, 1.0 + SQRT2), rel=1e-13)

    @pytest.mark.parametrize("cells", [512, 1024, 4096])
    @pytest.mark.parametrize("name", sorted(CERTIFIED_PRESETS))
    def test_context_momentum_matches_report(self, name, cells):
        # the report's H0 integrates the continuous data, the series' H at
        # t = 0 the grid's samples: measured |H - H0| / H0 at most 6.4e-3 dx**2
        # over 512 to 8192 cells (3.2e-3 dx**2 at 1024), so within 1e-2 dx**2
        case = certified_case(name, cells)
        ctx = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
        H0, dx = ctx.report.inputs["H0"], case.scenario.grid.spacing(case.scenario.geometry)
        assert abs(ctx.H(initial_snapshot(case.scenario)) - H0) <= 1e-2 * dx ** 2 * H0

    @pytest.mark.parametrize("name", sorted(CERTIFIED_PRESETS))
    def test_grid_momentum_converges_to_the_report_at_second_order(self, name):
        # measured orders between doublings of 512 to 8192 cells: 2.1 to 3.3
        # (linear weights in 1-D, r**3 in radial3), 3.0 (x, radial1), 4.0
        # (exp(2x), 1-D); the quartic's jump in V'' at R limits the first two
        gaps = []
        for cells in (1024, 2048, 4096):
            case = certified_case(name, cells)
            ctx = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
            H0 = ctx.report.inputs["H0"]
            gaps.append(abs(ctx.H(initial_snapshot(case.scenario)) - H0) / H0)
        assert all(math.log2(coarse / fine) >= 1.9 for coarse, fine in zip(gaps, gaps[1:]))

    def test_recorder_smoke(self):
        case = certified_power_radial_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        rec = ctx.recorder()
        rec.observe(initial_snapshot(case.scenario))
        series = rec.series()
        assert series.times.size == 1
        assert series.theorem == POWER_RADIAL_CASE1
        assert np.isfinite(series.G).all()

    @pytest.mark.parametrize("name", ["cert-general-radial-n1", "cert-general-1d-exp"])
    def test_general_run_evaluates_B_at_tau_once(self, name, monkeypatch):
        # the report evaluates B(tau) once; the run reads it from the report
        case = certified_case(name, 1024)
        real, at = criteria.weight_functional_B, []

        def counted(f, R, sigma, t, *args):
            at.append(t)
            return real(f, R, sigma, t, *args)

        monkeypatch.setattr(criteria, "weight_functional_B", counted)
        ctx = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
        assert at == [case.tau]
        at.clear()
        trace = run(case.scenario, SolverConfig(t_end=case.tau), recorder=ctx.recorder())
        # the B column reads B(t) at every sample, all before tau; G reads no B
        samples = trace.series.times.size
        assert samples > 10 and trace.t_detect < case.tau
        assert at.count(case.tau) == 0 and len(at) == samples
        # the G column, bit for bit, of the report's B(tau)
        B_tau = ctx.report.inputs["B_tau"]
        barrier = criteria._barrier(case.scenario.eos) * float(ctx.f.f(case.scenario.R + ctx.sigma * ctx.tau))
        want = np.array([(ctx.a - 2.0) * H ** 2 / (2.0 * ctx.a * B_tau) - barrier for H in trace.series.H.tolist()])
        assert np.array_equal(trace.series.G.view(np.uint64), want.view(np.uint64))

    def test_monitor_and_verdict_share_one_B(self):
        # a weight with no closed form: B comes from quadrature, by the rule of the verdict
        weight = radial_vanishing(
            lambda r: np.asarray(r, dtype=float) ** 1.5 + 0.3 * np.asarray(r, dtype=float) ** 2.5,
            lambda r: 1.5 * np.asarray(r, dtype=float) ** 0.5 + 0.75 * np.asarray(r, dtype=float) ** 1.5,
        )
        case = certified_case("cert-general-radial-n1", 1024)
        scen = case.scenario
        ctx = theorem_context(scen, case.family, case.tau, weight, case.a)
        series = run(scen, SolverConfig(t_end=case.tau), recorder=ctx.recorder()).series
        assert series.times.size > 10
        B_tau = ctx.report.inputs["B_tau"]
        barrier = criteria._barrier(scen.eos) * float(weight.f(scen.R + ctx.sigma * ctx.tau))
        want_G = np.array([(ctx.a - 2.0) * H ** 2 / (2.0 * ctx.a * B_tau) - barrier for H in series.H.tolist()])
        assert np.array_equal(series.G.view(np.uint64), want_G.view(np.uint64))
        want_B = np.array([
            functionals.horizon_B(weight, scen.R, ctx.sigma, t, scen.geometry)[0] for t in series.times.tolist()
        ])
        assert np.array_equal(series.B.view(np.uint64), want_B.view(np.uint64))

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("name", sorted(CERTIFIED_PRESETS))
    def test_recorder_columns_match_the_masked_formulas(self, name, recon, monkeypatch):
        case = certified_case(name, 1024)
        ctx = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
        recorder, observed = ctx.recorder(), []
        observe = recorder.observe

        def kept(snap):
            observed.append(snap)
            observe(snap)

        recorder.observe = kept
        series = run(case.scenario, SolverConfig(t_end=case.tau, reconstruction=recon), recorder=recorder).series
        assert series.times.size == len(observed) > 10
        closed_forms = []

        def counted(*args):
            closed_forms.append(args)
            return array_tested_power_law_B(*args)

        monkeypatch.setattr(model, "power_law_B", counted)
        ref = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
        rows, m0 = [], None
        for snap in observed:
            rows.append(reference_observe(ref, snap, m0))
            m0 = rows[0][3]
        assert bool(closed_forms) == (ref.f.cls in (POWER_LAW, LINEAR))
        for column, want in zip(("times", "H", "B", "m", "G"), np.array(rows).T):
            got = getattr(series, column)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), column

    def test_general_family_requires_weight(self):
        scen = bump(Geometry.radial(1))
        with pytest.raises(ValueError):
            run_family_check(scen, FAMILY_GENERAL_RADIAL)

    def test_unknown_family_rejected(self):
        scen = bump(Geometry.radial(1))
        with pytest.raises(ValueError):
            run_family_check(scen, "mystery")
