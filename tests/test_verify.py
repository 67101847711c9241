import copy
import math

import numpy as np
import pytest

from eulerblowup.criteria import CriterionReport, Verdict, run_family_check, theorem_context
from eulerblowup.functionals import (
    FieldSnapshot,
    FunctionalSeries,
    GridCoverageError,
)
from eulerblowup.model import (
    DetectorParams,
    EosParams,
    Geometry,
    GridSpec,
    make_bump_scenario,
)
import eulerblowup.verify as verify
from eulerblowup.scenarios import (
    certified_general_1d_case,
    certified_linear_infinite_case,
    certified_linear_tau_case,
    reference_scenario,
)
from eulerblowup.solver import T_END, SolutionTrace, SolverConfig, run
from eulerblowup.verify import (
    CHECK_INEQUALITY,
    CHECK_POSITIVITY,
    DINEQ_SLACK_COEFF,
    FAIL,
    MASS_DRIFT_COEFF,
    PASS,
    SKIPPED,
    TRACE_CHECKS,
    check_characteristic_density,
    check_cone_energy,
    check_differential_inequality,
    check_finite_propagation,
    check_mass_conservation,
    check_positivity,
    riccati_horizon,
    summary_table,
    validate_blowup_prediction,
)

SQRT2 = math.sqrt(2.0)
EOS = EosParams(1.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def small_1d_trace():
    scen = make_bump_scenario(
        EOS, Geometry.cartesian1d(), 1.0, 0.01, 0.02, GridSpec(2.2, 512)
    )
    return run(scen, SolverConfig(t_end=0.5))


def doctored(trace):
    clone = copy.deepcopy(trace)
    return clone


class TestFrozenCalibration:
    def test_constants_are_pinned(self):
        assert MASS_DRIFT_COEFF == 0.2
        assert DINEQ_SLACK_COEFF == 5.0
        assert len(TRACE_CHECKS) == 6


class TestPositivity:
    def test_smooth_run_passes(self, small_1d_trace):
        report = check_positivity(small_1d_trace)
        assert report.check == CHECK_POSITIVITY
        assert report.status == PASS
        assert report.metrics["min_rho"] > 0.9

    def test_corrupted_density_fails(self, small_1d_trace):
        bad = doctored(small_1d_trace)
        bad.snapshots[-1].rho[10] = -0.01
        report = check_positivity(bad)
        assert report.status == FAIL
        assert not report.ok
        assert report.metrics["min_rho"] == pytest.approx(-0.01)


class TestCharacteristicDensity:
    def test_reference_1d_transport(self, ref_traces):
        report = check_characteristic_density(ref_traces("1d"), x0=0.3)
        assert report.status == PASS
        assert report.metrics["max_rel_error"] < 5e-4

    def test_reference_radial_transport(self, ref_traces):
        report = check_characteristic_density(ref_traces("radial3"), x0=0.5)
        assert report.status == PASS
        assert report.metrics["max_rel_error"] < 1e-3

    def test_tightened_tolerance_fails(self, small_1d_trace):
        report = check_characteristic_density(small_1d_trace, x0=0.3, tol_char=1e-12)
        assert report.status == FAIL

    def test_start_point_outside_grid(self, small_1d_trace):
        with pytest.raises(GridCoverageError):
            check_characteristic_density(small_1d_trace, x0=99.0)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -99.0])
    def test_bad_start_point_rejected_before_a_skip(self, x0):
        # detected at t = 0: no smooth snapshot, yet x0 is still checked
        scen = make_bump_scenario(
            EOS, Geometry.cartesian1d(), 1.0, 0.01, 1.0, GridSpec(2.2, 128), DetectorParams(slope_factor=1e-4)
        )
        trace = run(scen, SolverConfig(t_end=0.5))
        assert trace.t_detect == 0.0
        with pytest.raises(GridCoverageError, match="x0="):
            check_characteristic_density(trace, x0=x0)
        assert check_characteristic_density(trace, x0=0.3).status == SKIPPED

    def test_characteristic_leaving_grid_is_an_error(self):
        scen = make_bump_scenario(
            EOS, Geometry.cartesian1d(), 1.0, 0.01, 0.02, GridSpec(2.2, 512)
        )
        centers = scen.grid.centers(scen.geometry)
        ones = np.ones_like(centers)
        snaps = [FieldSnapshot(t, centers, ones.copy(), ones.copy()) for t in (0.0, 0.1, 0.2)]
        fake = SolutionTrace(scen, SolverConfig(t_end=0.2), snaps, None, None, 2, 0.2)
        with pytest.raises(GridCoverageError):
            check_characteristic_density(fake, x0=2.1)


class TestFinitePropagation:
    def test_reference_runs_stay_in_the_cone(self, ref_traces):
        for tag in ("1d", "radial3"):
            report = check_finite_propagation(ref_traces(tag))
            assert report.status == PASS, report.reason
            assert report.metrics["max_deviation"] < report.metrics["tolerance"]

    def test_zero_halo_fails_at_coarse_resolution(self, small_1d_trace):
        # the smeared front straddles R + sigma*t; the halo exists to skip it
        report = check_finite_propagation(small_1d_trace, halo_cells=0)
        assert report.status == FAIL


class TestMassConservation:
    def test_reference_runs_conserve_mass(self, ref_traces):
        for tag in ("1d", "radial1", "radial3"):
            report = check_mass_conservation(ref_traces(tag))
            assert report.status == PASS, report.reason

    def test_exact_geometries_at_machine_level(self, ref_traces):
        assert check_mass_conservation(ref_traces("1d")).metrics["max_drift"] < 1e-13
        assert check_mass_conservation(ref_traces("radial1")).metrics["max_drift"] < 1e-13

    def test_injected_mass_fails(self, small_1d_trace):
        bad = doctored(small_1d_trace)
        bad.snapshots[-1].rho += 1e-3
        report = check_mass_conservation(bad)
        assert report.status == FAIL
        assert report.metrics["max_drift"] > report.metrics["tolerance"]


class TestDifferentialInequality:
    def test_reference_amplitudes_are_skipped(self, ref_traces):
        report = check_differential_inequality(ref_traces("1d"), "linear-1d-tau", tau=1.0)
        assert report.status == SKIPPED
        assert report.check == CHECK_INEQUALITY

    def test_certified_series_passes(self, cert_runs):
        case, ctx, trace = cert_runs("cert-linear-tau-1d")
        report = check_differential_inequality(
            trace, case.family, tau=case.tau, context=ctx
        )
        assert report.status == PASS, report.reason
        assert report.metrics["min_margin"] > 0.0
        assert report.metrics["n_samples"] >= 12

    def test_missing_series_triggers_a_rerun(self):
        case = certified_linear_tau_case(cells=1024)
        trace = run(case.scenario, SolverConfig(t_end=1.0))
        assert trace.series is None
        report = check_differential_inequality(trace, case.family, tau=case.tau)
        assert report.status == PASS, report.reason

    def test_short_attached_series_is_not_rerun(self, monkeypatch):
        # at 512 cells the detector fires at t = 0, so the attached series of
        # the right family is empty; a rerun would record the same samples
        case = certified_general_1d_case(cells=512)
        ctx = theorem_context(case.scenario, case.family, case.tau, case.f, case.a)
        trace = run(case.scenario, SolverConfig(t_end=1.0), recorder=ctx.recorder())
        assert trace.series.theorem == ctx.family and len(trace.series.times) == 0
        calls = []

        def counting_run(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(verify, "run", counting_run)
        report = check_differential_inequality(trace, case.family, case.tau, case.f, case.a, ctx)
        assert report.status == SKIPPED and "fewer than three" in report.reason
        assert len(calls) == 0
        trace.series = None
        check_differential_inequality(trace, case.family, case.tau, case.f, case.a, ctx)
        assert len(calls) == 1

    def test_decreasing_momentum_fails(self):
        case = certified_linear_tau_case(cells=1024)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        trace = run(case.scenario, SolverConfig(t_end=1.0), recorder=ctx.recorder())
        s = trace.series
        bad_series = FunctionalSeries(
            s.times, np.linspace(s.H[0], 0.0, s.times.size), s.B, s.m, s.G, theorem=s.theorem
        )
        bad = SolutionTrace(
            trace.scenario, trace.config, trace.snapshots, bad_series,
            trace.blowup, trace.steps, trace.t_final,
        )
        report = check_differential_inequality(bad, case.family, tau=case.tau)
        assert report.status == FAIL
        assert "violated" in report.reason


class TestConeEnergy:
    def test_interior_cone_bound(self, ref_traces):
        report = check_cone_energy(ref_traces("1d"), x_center=0.0, t_apex=0.4)
        assert report.status == PASS, report.reason
        assert report.metrics["max_e"] <= report.metrics["bound"]

    def test_exterior_cone_is_quiet(self, ref_traces):
        report = check_cone_energy(ref_traces("1d"), x_center=1.6, t_apex=0.3)
        assert report.status == PASS, report.reason

    def test_radial_geometry_is_informational(self, ref_traces):
        report = check_cone_energy(ref_traces("radial3"), x_center=0.5, t_apex=0.3)
        assert report.status == SKIPPED
        assert "informational" in report.reason
        assert report.metrics

    @pytest.mark.parametrize("x_center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, small_1d_trace, x_center):
        with pytest.raises(ValueError, match="x_center="):
            check_cone_energy(small_1d_trace, x_center=x_center, t_apex=0.3)

    @pytest.mark.parametrize("t_apex", [math.nan, math.inf, -1.0, 0.0])
    def test_apex_not_finite_and_positive_rejected(self, small_1d_trace, t_apex):
        with pytest.raises(ValueError, match="t_apex="):
            check_cone_energy(small_1d_trace, x_center=0.0, t_apex=t_apex)

    def test_needs_two_snapshots_before_apex(self, small_1d_trace):
        report = check_cone_energy(small_1d_trace, x_center=0.0, t_apex=1e-6)
        assert report.status == SKIPPED
        assert "two smooth snapshots" in report.reason
        assert report.metrics == {}


class TestRiccatiHorizon:
    def test_closed_form_value(self):
        # threshold/H0 = 1/2 gives (R/sigma)(sqrt(2) - 1)
        got = riccati_horizon(1.0, SQRT2, 1.0, 2.0)
        assert got == pytest.approx(1.0 - 1.0 / SQRT2, rel=1e-12)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            riccati_horizon(1.0, SQRT2, 2.0, 1.0)


class TestPredictionValidation:
    def test_horizon_prediction_validated_by_run(self):
        case = certified_linear_tau_case(cells=1024)
        report_c = run_family_check(case.scenario, case.family, tau=case.tau)
        result = validate_blowup_prediction(case.scenario, report_c)
        assert result.status == PASS, result.reason
        assert result.metrics["t_detect"] < case.tau

    def test_finite_time_prediction_validated_by_run(self):
        case = certified_linear_infinite_case(cells=1024)
        report_c = run_family_check(case.scenario, case.family)
        result = validate_blowup_prediction(case.scenario, report_c)
        assert result.status == PASS, result.reason
        assert result.metrics["t_detect"] <= result.metrics["horizon"]

    def test_step_budget_is_named_when_the_run_stops_early(self):
        case = certified_linear_tau_case(cells=1024)
        report_c = run_family_check(case.scenario, case.family, tau=case.tau)
        result = validate_blowup_prediction(case.scenario, report_c, SolverConfig(max_steps=10))
        assert result.status == FAIL
        assert "max_steps=10" in result.reason
        assert "t_final=" in result.reason
        assert "no detection" not in result.reason

    @pytest.mark.parametrize("extra, budget", [(-1, True), (0, False), (1, False)])
    def test_step_budget_is_named_only_when_it_stopped_the_run(self, extra, budget):
        # ref-1d at 256 cells reaches t = 0.5 in n steps with no detection:
        # a budget of n or more stops it at the horizon
        scen = reference_scenario(Geometry.cartesian1d(), cells=256)
        unbudgeted = run(scen, SolverConfig(t_end=0.5))
        assert unbudgeted.stop == T_END and unbudgeted.blowup is None
        max_steps = unbudgeted.steps + extra
        report_c = CriterionReport("forced", {}, [], Verdict.blowup_before(0.5))
        result = validate_blowup_prediction(scen, report_c, SolverConfig(max_steps=max_steps))
        assert result.status == FAIL
        if budget:
            assert result.reason.startswith(f"run stopped at the step budget max_steps={max_steps} at t_final=")
        else:
            assert result.reason == "no detection before the tau horizon 0.5"

    def test_horizon_cone_leaving_the_grid_rejected(self):
        # extent 2.6 holds the cone R + sigma * tau up to tau ~ 1.13
        case = certified_linear_tau_case(cells=1024)
        report_c = run_family_check(case.scenario, case.family, tau=2.0)
        assert report_c.verdict.certifies_blowup
        with pytest.raises(ValueError, match="contain"):
            validate_blowup_prediction(case.scenario, report_c)

    def test_inconclusive_report_rejected(self):
        scen = reference_scenario(Geometry.cartesian1d(), cells=256)
        report_c = run_family_check(scen, "linear-1d-tau", tau=1.0)
        assert not report_c.verdict.certifies_blowup
        with pytest.raises(ValueError):
            validate_blowup_prediction(scen, report_c)


class TestReporting:
    def test_report_serialization(self, small_1d_trace):
        report = check_positivity(small_1d_trace)
        d = report.to_dict()
        assert d["check"] == CHECK_POSITIVITY
        assert d["status"] == PASS
        assert "metrics" in d and "scenario" in d

    def test_summary_table_lists_each_check(self, small_1d_trace):
        reports = [
            check_positivity(small_1d_trace),
            check_mass_conservation(small_1d_trace),
        ]
        table = summary_table(reports)
        assert CHECK_POSITIVITY in table
        assert "pass" in table
        assert len(table.strip().splitlines()) >= 3
