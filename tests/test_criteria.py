import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import eulerblowup.criteria as criteria
from eulerblowup.criteria import (
    Condition,
    CriterionReport,
    FAMILIES,
    FAMILY_GENERAL_RADIAL,
    FAMILY_LINEAR_1D,
    FAMILY_LINEAR_1D_TAU,
    FAMILY_POWER_RADIAL,
    GENERAL_RADIAL,
    LINEAR_1D_INFINITE,
    LINEAR_1D_TAU_CASE1,
    LINEAR_1D_TAU_CASE2,
    NonMonotoneVerdictError,
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
    weight_functional_B,
)
from eulerblowup.model import (
    RADIAL_VANISHING,
    EosParams,
    Geometry,
    GridSpec,
    TestingFunction as WeightFn,
    exponential,
    linear,
    make_bump_scenario,
    power_law,
    sound_speed,
)
from eulerblowup.quadrature import QuadratureRule, SIMPSON, integrate_fn
from eulerblowup.scenarios import (
    certified_general_1d_case,
    certified_general_radial_case,
    certified_linear_infinite_case,
    certified_linear_tau_case,
    certified_power_radial_case,
    certified_suite,
)

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

    def test_general_horizon_reciprocity(self):
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

    def test_parameter_validation(self):
        scen = bump(Geometry.radial(1))
        with pytest.raises(ValueError):
            check_general(scen, linear(), a=2.0)
        with pytest.raises(ValueError):
            check_general(scen, linear(), tau=0.0)
        with pytest.raises(ValueError):
            check_general(bump(Geometry.radial(1), gamma=1.0), linear())

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


def _per_time_thresholds(f, a, eos, R, tau, geometry):
    """General thresholds with a separate Simpson B at every abscissa of the
    horizon integral: the computation the B(t) table replaced, kept as an oracle."""
    rule = criteria._HORIZON_RULE
    sigma = sound_speed(eos)
    U = R + sigma * tau
    B_tau = weight_functional_B(f, R, sigma, tau, geometry, rule)
    strict = math.sqrt(2.0 * a / (a - 2.0) * B_tau * criteria._barrier(eos) * float(f.f(U)))

    def inv_aB(s):
        ss = np.atleast_1d(np.asarray(s, dtype=float))
        vals = np.array([1.0 / (a * weight_functional_B(f, R, sigma, float(t), geometry, rule)) for t in ss])
        return vals if np.ndim(s) else float(vals[0])

    return strict, 1.0 / integrate_fn(inv_aB, 0.0, tau, rule)


class TestGeneralThresholdTable:
    EOS_RADIAL = EosParams(K=0.5, gamma=2.0, rho_bar=0.5)
    EOS_1D = EosParams(K=0.25, gamma=2.0, rho_bar=0.5)

    @pytest.mark.parametrize(
        "geom, seed, tau",
        [(Geometry.radial(1), 0, 1.0), (Geometry.radial(3), 1, 0.4),
         (Geometry.cartesian1d(), 0, 2.0), (Geometry.cartesian1d(), 2, 5.0)],
    )
    def test_quadrature_weight_matches_per_time_oracle(self, seeded_weight, geom, seed, tau):
        f = seeded_weight(geom.is_radial, seed)
        eos = self.EOS_RADIAL if geom.is_radial else self.EOS_1D
        strict, horizon = general_condition_thresholds(f, 4.0, eos, 1.0, tau, geom)
        strict_ref, horizon_ref = _per_time_thresholds(f, 4.0, eos, 1.0, tau, geom)
        assert strict == strict_ref
        assert abs(horizon - horizon_ref) <= 1e-12 * horizon_ref

    @pytest.mark.parametrize(
        "f, geom, tau",
        [(linear(), Geometry.radial(1), 0.37), (power_law(3), Geometry.radial(3), 1.9),
         (exponential(2.0), Geometry.cartesian1d(), 1.0)],
    )
    def test_closed_form_weight_matches_per_time_oracle(self, f, geom, tau):
        eos = self.EOS_RADIAL if geom.is_radial else self.EOS_1D
        strict, horizon = general_condition_thresholds(f, 3.5, eos, 1.0, tau, geom)
        strict_ref, horizon_ref = _per_time_thresholds(f, 3.5, eos, 1.0, tau, geom)
        assert strict == strict_ref
        assert abs(horizon - horizon_ref) <= 1e-12 * horizon_ref

    def test_overflowing_closed_form_raises(self):
        with pytest.raises(OverflowError):
            general_condition_thresholds(exponential(2.0), 3.5, self.EOS_1D, 1.0, 1000.0, Geometry.cartesian1d())

    def test_divergent_weight_raises_typed_error(self):
        bad = WeightFn(
            f=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
            f_prime=lambda x: 2.0 * np.asarray(x, dtype=float),
            cls=RADIAL_VANISHING,
        )
        with pytest.raises(WeightDivergenceError):
            general_condition_thresholds(bad, 4.0, self.EOS_RADIAL, 1.0, 1.0, Geometry.radial(3))

    def test_check_general_makes_no_per_abscissa_B_calls(self, seeded_weight, monkeypatch):
        # B(tau) for the report and the strict threshold, B(0) for the table
        case = certified_general_radial_case(cells=512)
        calls = []
        original = functionals.weight_functional_B
        monkeypatch.setattr(functionals, "weight_functional_B", lambda *a: calls.append(a[3]) or original(*a))
        monkeypatch.setattr(criteria, "weight_functional_B", functionals.weight_functional_B)
        check_general(case.scenario, seeded_weight(True, 0), a=4.0, tau=0.8)
        assert len(calls) <= 3 and set(calls) == {0.0, 0.8}


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
        with pytest.raises(ValueError, match="tau must be positive"):
            run_family_check(bump(Geometry.cartesian1d()), family, tau=tau)

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
# wording, key order, operators and verdicts are exact, floats to 1e-12
PINNED_REPORTS = {
    "power-case1": (
        check_power_radial, Geometry.radial(2), 0.05, 2.0,
        {"theorem": "power_radial_case1",
         "inputs": {"geometry": "radial2",
                    "N": 2,
                    "tau": 1.0,
                    "sigma": 1.4142135623730951,
                    "H0": 3.3333330729590642,
                    "m0": 0.008333386895305567,
                    "threshold": 1.5224077499274828},
         "conditions": [{"name": "initial_momentum_exceeds_threshold",
                         "lhs": 3.3333330729590642,
                         "rhs": 1.5224077499274828,
                         "op": ">",
                         "satisfied": True,
                         "margin": 1.8109253230315814}],
         "verdict": {"kind": "blowup_before", "tau": 1.0},
         "margins": {"initial_momentum_exceeds_threshold": 1.8109253230315814},
         "notes": []},
    ),
    "power-case2": (
        check_power_radial, Geometry.radial(2), -0.05, 2.0,
        {"theorem": "power_radial_case2",
         "inputs": {"geometry": "radial2",
                    "N": 2,
                    "tau": 1.0,
                    "sigma": 1.4142135623730951,
                    "H0": 3.3333330729590642,
                    "m0": -0.00833338689530557,
                    "a": 2.2850758465379872,
                    "threshold": 1.7394085889707676},
         "conditions": [{"name": "root_constant_admissible",
                         "lhs": 2.2850758465379872,
                         "rhs": 2.0,
                         "op": ">",
                         "satisfied": True,
                         "margin": 0.28507584653798723},
                        {"name": "initial_momentum_exceeds_threshold",
                         "lhs": 3.3333330729590642,
                         "rhs": 1.7394085889707676,
                         "op": ">",
                         "satisfied": True,
                         "margin": 1.5939244839882967}],
         "verdict": {"kind": "blowup_before", "tau": 1.0},
         "margins": {"root_constant_admissible": 0.28507584653798723,
                     "initial_momentum_exceeds_threshold": 1.5939244839882967},
         "notes": []},
    ),
    "power-uncovered": (
        check_power_radial, Geometry.radial(2), -0.05, 3.0,
        {"theorem": "power_radial_case2",
         "inputs": {"geometry": "radial2",
                    "N": 2,
                    "tau": 1.0,
                    "sigma": 1.7320508075688772,
                    "H0": 3.3333330729590642,
                    "m0": -0.00833338689530557,
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
                    "H0": 12.190479841641569,
                    "m0": -0.053333335683495124,
                    "threshold": 3.771236166328254},
         "conditions": [{"name": "perturbed_mass_nonnegative",
                         "lhs": -0.053333335683495124,
                         "rhs": 0.0,
                         "op": ">=",
                         "satisfied": False,
                         "margin": -0.053333335683495124},
                        {"name": "initial_momentum_exceeds_threshold",
                         "lhs": 12.190479841641569,
                         "rhs": 3.771236166328254,
                         "op": ">",
                         "satisfied": True,
                         "margin": 8.419243675313314}],
         "verdict": {"kind": "inconclusive",
                     "reason": "requires non-negative perturbed mass and momentum above the "
                               "threshold"},
         "margins": {"perturbed_mass_nonnegative": -0.053333335683495124,
                     "initial_momentum_exceeds_threshold": 8.419243675313314},
         "notes": []},
    ),
    "linear-tau-case1": (
        check_linear_1d_tau, Geometry.cartesian1d(), 0.05, 2.0,
        {"theorem": "linear_1d_tau_case1",
         "inputs": {"geometry": "cartesian1d",
                    "tau": 1.0,
                    "sigma": 1.4142135623730951,
                    "H0": 12.190479841641569,
                    "m0": 0.0533333356834951,
                    "threshold": 4.552284749830794},
         "conditions": [{"name": "initial_momentum_meets_threshold",
                         "lhs": 12.190479841641569,
                         "rhs": 4.552284749830794,
                         "op": ">=",
                         "satisfied": True,
                         "margin": 7.638195091810775}],
         "verdict": {"kind": "blowup_before", "tau": 1.0},
         "margins": {"initial_momentum_meets_threshold": 7.638195091810775},
         "notes": []},
    ),
    "linear-tau-case2": (
        check_linear_1d_tau, Geometry.cartesian1d(), -0.05, 2.0,
        {"theorem": "linear_1d_tau_case2",
         "inputs": {"geometry": "cartesian1d",
                    "tau": 1.0,
                    "sigma": 1.4142135623730951,
                    "H0": 12.190479841641569,
                    "m0": -0.053333335683495124,
                    "a": 1.451600970216566,
                    "threshold": 4.956075719667343},
         "conditions": [{"name": "root_constant_admissible",
                         "lhs": 1.451600970216566,
                         "rhs": 1.3333333333333333,
                         "op": ">",
                         "satisfied": True,
                         "margin": 0.11826763688323272},
                        {"name": "initial_momentum_exceeds_threshold",
                         "lhs": 12.190479841641569,
                         "rhs": 4.956075719667343,
                         "op": ">",
                         "satisfied": True,
                         "margin": 7.234404121974226}],
         "verdict": {"kind": "blowup_before", "tau": 1.0},
         "margins": {"root_constant_admissible": 0.11826763688323272,
                     "initial_momentum_exceeds_threshold": 7.234404121974226},
         "notes": []},
    ),
    "linear-tau-uncovered": (
        check_linear_1d_tau, Geometry.cartesian1d(), -0.05, 3.0,
        {"theorem": "linear_1d_tau_case2",
         "inputs": {"geometry": "cartesian1d",
                    "tau": 1.0,
                    "sigma": 1.7320508075688772,
                    "H0": 12.190479841641569,
                    "m0": -0.053333335683495124,
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
             "the horizon tau must be positive"),
            (lambda s: check_linear_1d_tau(s, tau=-1.0), bump(Geometry.cartesian1d()),
             "the horizon tau must be positive"),
        ],
    )
    def test_guard_messages(self, check, scenario, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(scenario)

    @pytest.mark.parametrize(
        "row, geometry, tau, notes",
        [
            ("_POWER_RADIAL", Geometry.radial(2), 1.0,
             ["H(0) sits exactly on the threshold: the strict form does not certify, "
              "the non-strict variant would"]),
            ("_LINEAR_1D", Geometry.cartesian1d(), None, ["H(0) sits exactly on the strict threshold"]),
            # case 1 of the horizon criterion is non-strict: equality certifies
            ("_LINEAR_1D_TAU", Geometry.cartesian1d(), 1.0, []),
        ],
    )
    def test_equality_note_only_on_strict_thresholds(self, row, geometry, tau, notes):
        scen = bump(geometry, amp_v=80.0, extent=2.6)
        H0 = criteria._closed_form_check(getattr(criteria, row), scen, tau).inputs["H0"]
        on_threshold = replace(getattr(criteria, row), threshold=lambda N, R, sigma, tau: H0)
        report = criteria._closed_form_check(on_threshold, scen, tau)
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

    def test_non_monotone_verdicts_raise(self, monkeypatch):
        scen = bump(Geometry.radial(3))

        def fake_check(scenario, family, tau, f, a):
            ok = 0.1 < tau < 1.0 or tau > 50.0
            verdict = Verdict.blowup_before(tau) if ok else Verdict.inconclusive("no")
            return CriterionReport("fake", {}, [], verdict)

        monkeypatch.setattr(criteria, "run_family_check", fake_check)
        with pytest.raises(NonMonotoneVerdictError):
            minimal_tau(scen, FAMILY_POWER_RADIAL)


class TestTheoremContext:
    def test_power_radial_context(self):
        case = certified_power_radial_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        assert ctx.family == POWER_RADIAL_CASE1
        assert ctx.f.power == 3.0
        assert ctx.hypotheses_hold()
        # coefficient at t=0: N(N+1)/(2 R^(N+2)) with N=3, R=1
        assert ctx.riccati_coeff(0.0) == pytest.approx(6.0, rel=1e-12)

    def test_linear_tau_context_coefficient(self):
        case = certified_linear_tau_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        assert ctx.family == LINEAR_1D_TAU_CASE1
        assert ctx.riccati_coeff(0.0) == pytest.approx(0.75, rel=1e-12)

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

    def test_context_momentum_matches_report(self):
        case = certified_power_radial_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        snap = initial_snapshot(case.scenario)
        assert ctx.H(snap) == pytest.approx(ctx.report.inputs["H0"], rel=1e-12)

    def test_recorder_smoke(self):
        case = certified_power_radial_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        rec = ctx.recorder()
        rec.observe(initial_snapshot(case.scenario))
        series = rec.series()
        assert series.times.size == 1
        assert series.theorem == POWER_RADIAL_CASE1
        assert np.isfinite(series.G).all()

    def test_general_family_requires_weight(self):
        scen = bump(Geometry.radial(1))
        with pytest.raises(ValueError):
            run_family_check(scen, FAMILY_GENERAL_RADIAL)

    def test_unknown_family_rejected(self):
        scen = bump(Geometry.radial(1))
        with pytest.raises(ValueError):
            run_family_check(scen, "mystery")


class TestReportSerialization:
    def test_round_trip(self, tmp_path):
        case = certified_power_radial_case(cells=512)
        report = check_power_radial(case.scenario, tau=case.tau)
        path = tmp_path / "report.json"
        report.to_json(path)
        back = json.loads(path.read_text())
        assert back["theorem"] == POWER_RADIAL_CASE1
        assert back["verdict"]["kind"] == "blowup_before"
        assert back["conditions"][0]["satisfied"] is True
        assert set(back["margins"]) == {c.name for c in report.conditions}
