import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eulerblowup.cli as cli
import eulerblowup.criteria as criteria
from eulerblowup.criteria import FAMILIES
from eulerblowup.cli import (
    ConfigError,
    main,
    parse_config,
    parse_geometry,
    parse_weight,
    scenario_from_config,
    scenario_to_config,
)
from eulerblowup.model import LINEAR, NONNEG_INCREASING, POWER_LAW, exponential, linear, power_law
from eulerblowup.scenarios import PRESETS
from eulerblowup.verify import TRACE_CHECKS


def write_config(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def strict_json(path):
    """The JSON file at path, refusing the NaN and Infinity tokens RFC 8259 lacks."""

    def reject(token):
        raise ValueError(f"{path.name}: non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture()
def ref_config(tmp_path):
    return write_config(
        tmp_path / "ref.cfg",
        ["preset = ref-1d", "grid.cells = 256"],
    )


@pytest.fixture()
def cert_config(tmp_path):
    return write_config(
        tmp_path / "cert.cfg",
        ["preset = cert-linear-tau-1d", "grid.cells = 512"],
    )


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\neos.K = 2.0   # inline\n geometry = radial2 \n")
        assert cfg == {"eos.K": "2.0", "geometry": "radial2"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("this is not a key value pair\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            scenario_from_config({"preset": "ref-1d", "grid.cellz": "64"})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            scenario_from_config({"preset": "ref-42d"})

    def test_preset_with_override(self):
        scen = scenario_from_config({"preset": "ref-1d", "amp_v": "0.5", "grid.cells": "256"})
        assert scen.amp_v == 0.5
        assert scen.grid.cells == 256
        assert not scen.geometry.is_radial

    def test_round_trip_through_config(self):
        scen = scenario_from_config({"preset": "ref-radial3", "grid.cells": "256"})
        cfg = {k: str(v) for k, v in scenario_to_config(scen).items()}
        back = scenario_from_config(cfg)
        assert back.eos == scen.eos
        assert back.geometry == scen.geometry
        assert back.grid == scen.grid
        assert back.amp_rho == scen.amp_rho and back.amp_v == scen.amp_v

    def test_geometry_spellings(self):
        assert parse_geometry("cartesian1d").label() == "cartesian1d"
        assert parse_geometry("radial1").ndim == 1
        assert parse_geometry("radial3").ndim == 3
        with pytest.raises(ConfigError):
            parse_geometry("spherical")
        with pytest.raises(ConfigError):
            parse_geometry("radial0")

    def test_weight_specs(self):
        assert parse_weight(None) is None
        assert parse_weight("linear").cls == LINEAR
        w = parse_weight("power:2.5")
        assert w.cls == POWER_LAW and w.f(2.0) == 2.0 ** 2.5
        assert parse_weight("exp:1.5").cls == NONNEG_INCREASING
        with pytest.raises(ConfigError):
            parse_weight("spline:3")


class TestCheckCommand:
    @pytest.mark.parametrize("tau", ["-1e-3", "-1E+2", "-inf"])
    def test_negative_horizon_in_exponent_notation_reaches_the_horizon_check(self, tau, cert_config, capsys):
        # argparse alone reads -1e-3 as an option string ("expected one argument")
        assert main(["check", "--theorem", "linear-1d-tau", "--tau", tau, cert_config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the linear-1d-tau criterion needs a positive finite horizon, got tau=-")

    def test_certifying_check(self, cert_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["check", "--theorem", "linear-1d-tau", "--tau", "1.0",
                     "--out", str(out), cert_config])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "verdict: blowup_before" in stdout
        assert "initial_momentum_meets_threshold" in stdout
        data = json.loads((out / "criterion_report.json").read_text())
        assert data["verdict"]["kind"] == "blowup_before"

    def test_report_json_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "p.cfg", ["preset = cert-power-radial-n3", "grid.cells = 512"])
        out = tmp_path / "out"
        assert main(["check", "--theorem", "power-radial", "--out", str(out), cfg]) == 0
        report = criteria.run_family_check(cli.load_scenario(cfg), "power-radial")
        blob = (out / "criterion_report.json").read_text()
        assert blob == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        back = json.loads(blob)
        assert back["theorem"] == criteria.POWER_RADIAL_CASE1
        assert back["verdict"]["kind"] == "blowup_before"
        assert back["conditions"][0]["satisfied"] is True
        assert set(back["margins"]) == {c.name for c in report.conditions}

    def test_inconclusive_check_still_exits_zero(self, ref_config, capsys):
        code = main(["check", "--theorem", "linear-1d-tau", ref_config])
        assert code == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_general_family_with_weight(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "g.cfg", ["preset = cert-general-1d-exp", "grid.cells = 512"]
        )
        code = main(["check", "--theorem", "general-1d", "--weight", "exp:2.0",
                     "--a", "3.5", cfg])
        assert code == 0
        assert "blowup_before" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "preset, theorem, weight, where",
        [
            ("cert-general-1d-exp", "general-radial", "exp:2", "the general-radial criterion applies to radial geometry"),
            ("cert-general-radial-n1", "general-1d", "power:2", "the general-1d criterion applies to the 1-D geometry"),
        ],
    )
    def test_general_family_on_the_other_geometry_is_invalid_input(
        self, preset, theorem, weight, where, tmp_path, capsys
    ):
        cfg = write_config(tmp_path / "g.cfg", [f"preset = {preset}", "grid.cells = 512"])
        code = main(["check", "--theorem", theorem, "--weight", weight, cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {where}\n"
        assert "theorem:" not in captured.out

    def test_simulate_rejects_a_general_family_on_the_other_geometry(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "g.cfg", ["preset = cert-general-1d-exp", "grid.cells = 512"])
        out = tmp_path / "out"
        code = main(["simulate", "--t-end", "0.05", "--family", "general-radial", "--weight", "exp:2",
                     "--out", str(out), cfg])
        assert code == 2
        assert "applies to radial geometry" in capsys.readouterr().err

    def test_overflowing_weight_integral_is_invalid_input(self, tmp_path, capsys):
        # sinh(beta * (R + sigma * tau)) overflows a double at tau = 1000
        cfg = write_config(
            tmp_path / "g.cfg", ["preset = cert-general-1d-exp", "grid.cells = 512"]
        )
        code = main(["check", "--theorem", "general-1d", "--weight", "exp:2",
                     "--tau", "1000", cfg])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "overflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("a", ["inf", "1.5e308"])
    @pytest.mark.parametrize("command", [
        ["check"],
        ["sweep", "--parameter", "tau", "--lo", "1", "--hi", "2", "--steps", "3"],
    ])
    def test_huge_trade_off_constant_is_invalid_input(self, a, command, tmp_path, capsys):
        # inf is rejected; at 1.5e308 the horizon threshold, a over the integral of 1/B, overflows
        cfg = write_config(tmp_path / "g.cfg", ["preset = cert-general-1d-exp", "grid.cells = 512"])
        out = tmp_path / "out"
        code = main([*command, "--theorem", "general-1d", "--weight", "exp:2", "--a", a, "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_infinite_threshold_is_invalid_input(self, tmp_path, capsys):
        # at tau = 400 B(tau) is finite but the strict threshold is not
        cfg = write_config(
            tmp_path / "g.cfg", ["preset = cert-general-1d-exp", "grid.cells = 512"]
        )
        out = tmp_path / "out"
        code = main(["check", "--theorem", "general-1d", "--weight", "exp:2",
                     "--tau", "400", "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert "strict_threshold" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["amp_rho", "amp_v"])
    @pytest.mark.parametrize("command", [["check", "--theorem", "linear-1d-tau"], ["simulate"]])
    def test_non_finite_amplitude_is_invalid_input(self, command, key, value, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", ["preset = ref-1d", "grid.cells = 256", f"{key} = {value}"])
        out = tmp_path / "out"
        code = main([*command, "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {key} must be finite, got {float(value)!r}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "key, field", [("eos.K", "K"), ("eos.gamma", "gamma"), ("eos.rho_bar", "rho_bar"), ("grid.extent", "grid extent")]
    )
    @pytest.mark.parametrize("command", [["check", "--theorem", "linear-1d-tau"], ["simulate"]])
    def test_non_finite_gas_or_grid_value_is_invalid_input(self, command, key, field, value, tmp_path, capsys):
        # the value is named before any check it would derail: sound speed, cone, resolution
        cfg = write_config(tmp_path / "g.cfg", ["preset = ref-1d", "grid.cells = 256", f"{key} = {value}"])
        out = tmp_path / "out"
        code = main([*command, "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {field} must be finite, got {float(value)!r}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("amp_rho", ["0.01", "-0.01"])
    def test_horizon_below_rounding_of_R_is_invalid_input(self, amp_rho, tmp_path, capsys):
        # R + sigma*tau rounds to R: the power-weight threshold is infinite in
        # case 1 (amp_rho > 0) and in case 2 (negative mass)
        cfg = write_config(tmp_path / "r.cfg", ["preset = ref-radial3", "grid.cells = 256", f"amp_rho = {amp_rho}"])
        out = tmp_path / "out"
        code = main(["check", "--theorem", "power-radial", "--tau", "1e-17", "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert "threshold" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["1e-12", "1e-17", "1e-300"])
    def test_tiny_horizon_is_inconclusive(self, tau, cert_config, capsys):
        # sigma*tau/R far below the float spacing of 1: the reciprocity
        # quadrature's upper limit must not cancel
        code = main(["check", "--theorem", "linear-1d-tau", "--tau", tau, cert_config])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "verdict: inconclusive" in captured.out

    def test_huge_horizon_certifies_at_the_horizon_free_limit(self, cert_config, tmp_path, capsys):
        # the threshold tends to 8 sigma R**2/3 as tau grows; sigma = sqrt(2), R = 1
        out = tmp_path / "out"
        code = main(["check", "--theorem", "linear-1d-tau", "--tau", "1e50", "--out", str(out), cert_config])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        threshold = strict_json(out / "criterion_report.json")["inputs"]["threshold"]
        limit = 8.0 * np.sqrt(2.0) / 3.0
        assert abs(threshold - limit) <= 1e-12 * limit

    def test_subnormal_horizon_is_invalid_input(self, cert_config, capsys):
        # 3*tau*(2R + sigma*tau) is subnormal: the threshold overflows
        code = main(["check", "--theorem", "linear-1d-tau", "--tau", "5e-324", cert_config])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert "threshold" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tau, code", [("1e-300", 0), ("1e-321", 2)])
    def test_tiny_horizon_of_a_general_family_is_resolved_or_named(self, tau, code, tmp_path, capsys):
        # the closed-form horizon integral resolves both; at 1e-321 it is
        # subnormal and the threshold a over it overflows
        cfg = write_config(tmp_path / "g.cfg", ["preset = ref-radial3", "grid.cells = 256"])
        assert main(["check", "--theorem", "general-radial", "--weight", "linear", "--tau", tau,
                     "--out", str(tmp_path / "out"), cfg]) == code
        err = capsys.readouterr().err
        assert ("criterion values are not finite at tau=" in err) == (code == 2)

    @pytest.mark.parametrize("preset, theorem, weight", [
        ("ref-radial3", "general-radial", "linear"),
        ("cert-general-1d-exp", "general-1d", "exp:2"),
    ])
    def test_subnormal_horizon_of_a_general_family_names_it(self, preset, theorem, weight, tmp_path, capsys):
        # the horizon integral of 1/B up to the smallest subnormal is below
        # a/DBL_MAX: the horizon threshold overflows
        cfg = write_config(tmp_path / "g.cfg", [f"preset = {preset}", "grid.cells = 256"])
        code = main(["check", "--theorem", theorem, "--weight", weight, "--tau", "5e-324", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: criterion values are not finite at tau=4.94066e-324: "
                                "horizon_threshold, combined_threshold, horizon_budget\n")
        assert captured.out == ""

    @pytest.mark.parametrize("preset, theorem, weight", [
        ("ref-radial3", "general-radial", "linear"),
        ("cert-general-1d-exp", "general-1d", "exp:2"),
    ])
    def test_infinite_horizon_of_a_general_family_names_it(self, preset, theorem, weight, tmp_path, capsys):
        cfg = write_config(tmp_path / "g.cfg", [f"preset = {preset}", "grid.cells = 256"])
        code = main(["check", "--theorem", theorem, "--weight", weight, "--tau", "inf", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: the {theorem} criterion needs a positive finite horizon, got tau=inf\n"
        assert captured.out == ""

    @pytest.mark.parametrize("theorem, weight", [
        ("general-1d", ["--weight", "exp:2"]), ("linear-1d-tau", []), ("linear-1d", []),
    ])
    def test_nan_horizon_gets_the_horizon_message(self, theorem, weight, cert_config, capsys):
        code = main(["check", "--theorem", theorem, *weight, "--tau", "nan", cert_config])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: the {theorem} criterion needs a positive finite horizon, got tau=nan\n"
        assert captured.out == ""

    def test_long_horizon_of_the_linear_weight_is_exact(self, tmp_path, capsys):
        # the closed form's 3.7712380492834; the 2048-panel Simpson rule gave 3.58283778
        cfg = write_config(tmp_path / "g.cfg", ["preset = ref-radial3", "grid.cells = 256"])
        assert main(["check", "--theorem", "general-radial", "--weight", "linear", "--tau", "1000", cfg]) == 0
        assert ">= 3.77123805 [not met]" in capsys.readouterr().out

    def test_a_high_power_weight_is_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "g.cfg", ["preset = ref-radial3", "grid.cells = 256"])
        assert main(["check", "--theorem", "general-radial", "--weight", "power:100", cfg]) == 0
        assert "horizon_budget" in capsys.readouterr().out

    @pytest.mark.parametrize("preset, theorem, weight, tau, quantity", [
        ("cert-linear-tau-1d", "linear-1d-tau", None, "1e300", "threshold"),
        ("ref-radial3", "power-radial", None, "1e300", "threshold"),
        ("ref-radial3", "general-radial", "linear", "1e300", "B_tau"),
        ("cert-general-1d-exp", "general-1d", "exp:2", "1e6", "B_tau"),
    ])
    def test_overflowing_horizon_names_tau_and_the_quantity(
        self, preset, theorem, weight, tau, quantity, tmp_path, capsys
    ):
        # Python float ** and math.sinh raise OverflowError past the float range
        cfg = write_config(tmp_path / "h.cfg", [f"preset = {preset}", "grid.cells = 256"])
        out = tmp_path / "out"
        code = main(["check", "--theorem", theorem, *(["--weight", weight] if weight else []),
                     "--tau", tau, "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: criterion values are not finite at tau={float(tau):g}: "
            f"{quantity} of the {theorem} criterion overflows\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("preset, theorem", [("ref-radial3", "power-radial"), ("ref-1d", "linear-1d-tau")])
    def test_overflowing_root_constant_names_it(self, preset, theorem, tmp_path, capsys):
        # negative mass (case 2): the root constant overflows first
        cfg = write_config(tmp_path / "n.cfg", [f"preset = {preset}", "grid.cells = 256", "amp_rho = -0.01"])
        code = main(["check", "--theorem", theorem, "--tau", "1e300", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: criterion values are not finite at tau=1e+300: a of the {theorem} criterion overflows\n"
        )

    def test_overflowing_sweep_horizon_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", ["preset = ref-radial3", "grid.cells = 256"])
        out = tmp_path / "out"
        code = main(["sweep", "--theorem", "power-radial", "--parameter", "tau", "--lo", "1", "--hi", "1e300",
                     "--steps", "3", "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 2
        # the sweep stops at its first row past the float range, tau = (1 + 1e300)/2
        assert "tau=5e+299: threshold of the power-radial criterion overflows" in captured.err

    @pytest.mark.parametrize("preset, theorem, weight", [
        ("ref-radial3", "general-radial", "power:1e300"),
        ("cert-linear-tau-1d", "general-1d", "exp:300"),
    ])
    def test_overflowing_weight_is_invalid_input_without_warnings(self, preset, theorem, weight, tmp_path):
        # a subprocess, so stderr is what a user sees, numpy warnings included
        cfg = write_config(tmp_path / "w.cfg", [f"preset = {preset}", "grid.cells = 256"])
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "eulerblowup.cli", "check", "--theorem", theorem, "--weight", weight, cfg],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: bad weight spec {weight!r}")
        assert "f' must be finite and positive" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_underflowing_weight_parameter_is_invalid_input(self, cert_config, capsys):
        # beta**2 underflows to 0 in the exponential weight's closed-form B
        code = main(["check", "--theorem", "general-1d", "--weight", "exp:1e-200", cert_config])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: bad weight spec 'exp:1e-200'")
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["check", "--theorem", "general-1d", "--weight", "exp:2"],
        ["check", "--theorem", "linear-1d-tau"],
        ["sweep", "--theorem", "general-1d", "--weight", "exp:2", "--parameter", "tau",
         "--lo", "1", "--hi", "2", "--steps", "3"],
    ])
    def test_non_finite_initial_momentum_is_invalid_input(self, command, tmp_path, capsys):
        # H(0) = amp_v * h overflows: h > 1 on a bump of radius 10 (16 R**2/105
        # for the linear weight), while amp_v = 1e308 on radius 1 has h < 1
        cfg = write_config(
            tmp_path / "g.cfg",
            ["preset = cert-general-1d-exp", "grid.cells = 512", "amp_v = 1e308", "R = 10", "grid.extent = 22"],
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(command + ["--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert "H0" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, theorem", [("ref-radial3", "power-radial"), ("ref-1d", "linear-1d-tau")]
    )
    def test_uncovered_negative_mass_nan_threshold_exits_zero(self, preset, theorem, tmp_path, capsys):
        # negative mass is covered for gamma = 2 only; the report records a
        # deliberate NaN threshold, which is not an overflow
        cfg = write_config(
            tmp_path / "n.cfg",
            [f"preset = {preset}", "grid.cells = 256", "eos.gamma = 3.0", "amp_rho = -0.1"],
        )
        out = tmp_path / "out"
        code = main(["check", "--theorem", theorem, "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "verdict: inconclusive" in captured.out
        data = json.loads((out / "criterion_report.json").read_text())
        assert data["inputs"]["threshold"] is None

    @pytest.mark.parametrize("amp_rho", ["-1e-9", "-1e-16"])
    def test_slightly_negative_mass_resolves_to_case2(self, amp_rho, tmp_path, capsys):
        # the root constant lies within rounding of its bound 4/3, where the
        # residual of its defining equation divides by 3a - 4
        cfg = write_config(
            tmp_path / "n.cfg", ["preset = ref-1d", "grid.cells = 256", f"amp_rho = {amp_rho}"]
        )
        code = main(["check", "--theorem", "linear-1d-tau", cfg])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "theorem: linear_1d_tau_case2" in captured.out

    @pytest.mark.parametrize(
        "flags",
        [["--theorem", "linear-1d", "--tau", "-1"], ["--theorem", "linear-1d", "--tau", "0"],
         ["--theorem", "linear-1d-tau", "--weight", "exp:2"], ["--theorem", "linear-1d", "--weight", "linear"]],
    )
    def test_closed_form_family_rejects_unused_flags(self, flags, ref_config, capsys):
        code = main(["check", *flags, ref_config])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_closed_form_family_accepts_trade_off_constant(self, ref_config, capsys):
        # sweeps pass one --a to every family; the closed forms carry their own
        assert main(["check", "--theorem", "linear-1d-tau", ref_config]) == 0
        plain = capsys.readouterr().out
        assert main(["check", "--theorem", "linear-1d-tau", "--a", "3", ref_config]) == 0
        assert capsys.readouterr().out == plain

    def test_missing_config_file_is_invalid_input(self, tmp_path):
        assert main(["check", "--theorem", "linear-1d", str(tmp_path / "nope.cfg")]) == 2

    def test_invocation_is_reproducible(self, cert_config, tmp_path, capsys):
        out = tmp_path / "a"
        args = ["check", "--theorem", "linear-1d-tau", "--out", str(out), cert_config]
        assert main(args) == 0
        blob1 = (out / "invocation.json").read_bytes()
        assert main(args) == 0
        capsys.readouterr()
        assert (out / "invocation.json").read_bytes() == blob1
        record = json.loads(blob1)
        # argv and package version only: no clocks, no hostnames
        assert set(record) == {"argv", "version"}
        assert record["argv"] == args


class TestSimulateCommand:
    def test_artifacts_written(self, ref_config, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--t-end", "0.1", "--out", str(out), ref_config])
        assert code == 0
        assert "simulated" in capsys.readouterr().out
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert snaps and snaps[0].name == "snapshot_0000.csv"
        header = snaps[0].read_text().splitlines()[0]
        assert header == "r_or_x,rho,V"
        body = np.loadtxt(snaps[0], delimiter=",", skiprows=1)
        assert body.shape == (256, 3)
        summary = json.loads((out / "trace_summary.json").read_text())
        assert summary["t_final"] >= 0.1
        assert summary["blowup"] is None
        assert (out / "series.csv").read_text().splitlines()[0] == "t,H,B,m,G,dH_dt"

    def test_csv_artifacts_round_trip(self, ref_config, tmp_path, capsys):
        # every %.17g number reads back as the float the run produced
        out = tmp_path / "sim"
        assert main(["simulate", "--t-end", "0.1", "--out", str(out), ref_config]) == 0
        scen = cli.load_scenario(ref_config)
        ctx = criteria.theorem_context(scen, criteria.default_family(scen.geometry))
        trace = cli.run(scen, cli.SolverConfig(t_end=0.1), recorder=ctx.recorder())
        assert len(list(out.glob("snapshot_*.csv"))) == len(trace.snapshots)
        for k, snap in enumerate(trace.snapshots):
            back = np.loadtxt(out / f"snapshot_{k:04d}.csv", delimiter=",", skiprows=1)
            np.testing.assert_array_equal(back, np.column_stack([snap.centers, snap.rho, snap.V]))
        series = trace.series
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "t,H,B,m,G,dH_dt"
        assert len(lines) == series.times.size + 1
        back = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
        columns = [series.times, series.H, series.B, series.m, series.G, series.dH_dt()]
        np.testing.assert_array_equal(back, np.column_stack(columns))

    @pytest.mark.parametrize("command", [["simulate", "--out", "sim"], ["check", "--theorem", "linear-1d"]])
    def test_odd_1d_cell_count_is_invalid_input(self, command, tmp_path, capsys):
        # a 1-D run steps the half-line behind a mirror face at x = 0
        cfg = write_config(tmp_path / "odd.cfg", ["preset = ref-1d", "grid.cells = 257"])
        argv = [*command, cfg]
        if command[0] == "simulate":
            argv[2] = str(tmp_path / "sim")
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: grid.cells must be even in 1-D, where x = 0 is a cell face, got 257\n"
        assert not (tmp_path / "sim").exists()

    def test_containment_violation_is_invalid_input(self, ref_config, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--t-end", "5.0", "--out", str(out), ref_config]) == 2

    @pytest.mark.parametrize("interval, code", [("1e-30", 0), ("5e-324", 2)])
    def test_tiny_snapshot_interval(self, tmp_path, capsys, interval, code):
        # 1e-30 keeps every step; 5e-324 cannot count up to t_end
        cfg = write_config(tmp_path / "r.cfg", ["preset = ref-1d", "grid.cells = 128"])
        argv = ["simulate", "--snapshot-interval", interval, "--t-end", "0.1", "--out", str(tmp_path / "sim"), cfg]
        assert main(argv) == code
        if code:
            assert "snapshot_interval 5e-324" in capsys.readouterr().err

    @pytest.mark.parametrize("interval, code", [("1e-30", 0), ("5e-324", 2)])
    def test_tiny_sample_interval(self, tmp_path, capsys, interval, code):
        cfg = write_config(
            tmp_path / "r.cfg", ["preset = ref-1d", "grid.cells = 128", f"detector.sample_interval = {interval}"]
        )
        assert main(["simulate", "--t-end", "0.1", "--out", str(tmp_path / "sim"), cfg]) == code
        if code:
            assert "detector.sample_interval 5e-324" in capsys.readouterr().err


# verify arguments whose check can never run, and the name the error gives
INVALID_CHECK_INPUTS = [
    (["--checks", "cone", "--cone-apex", "nan"], "t_apex="),
    (["--checks", "cone", "--cone-apex", "-1"], "t_apex="),
    (["--checks", "cone", "--cone-center", "nan"], "x_center="),
    (["--checks", "characteristic", "--x0", "nan"], "x0="),
]


class TestVerifyCommand:
    def test_reference_checks_pass(self, ref_config, tmp_path, capsys):
        out = tmp_path / "ver"
        code = main([
            "verify", "--t-end", "0.1", "--checks", "positivity,mass",
            "--out", str(out), ref_config,
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "positivity" in stdout and "pass" in stdout
        reports = json.loads((out / "verification_reports.json").read_text())
        assert [r["check"] for r in reports] == ["positivity", "mass"]
        assert all(r["status"] == "pass" for r in reports)

    def test_all_expands_to_every_trace_check(self, ref_config, tmp_path, capsys):
        out = tmp_path / "ver"
        code = main(["verify", "--t-end", "0.1", "--checks", "all", "--out", str(out), ref_config])
        stdout = capsys.readouterr().out
        assert code == 0
        # inequality hypotheses fail on reference amplitudes: skipped, not failed
        assert "skipped" in stdout
        reports = json.loads((out / "verification_reports.json").read_text())
        assert [r["check"] for r in reports] == list(TRACE_CHECKS)

    @pytest.mark.parametrize("name", TRACE_CHECKS)
    def test_each_check_runs_alone(self, name, ref_config, tmp_path, capsys):
        out = tmp_path / "ver"
        code = main(["verify", "--t-end", "0.1", "--checks", name, "--out", str(out), ref_config])
        assert code == 0, capsys.readouterr().err
        reports = json.loads((out / "verification_reports.json").read_text())
        assert [r["check"] for r in reports] == [name]

    def test_all_checks_on_a_certified_preset(self, tmp_path, capsys):
        # the detector fires before the second snapshot, so the cone check
        # has too few smooth snapshots and is skipped, not an error
        cfg = write_config(
            tmp_path / "c.cfg", ["preset = cert-linear-tau-1d", "grid.cells = 1024"]
        )
        out = tmp_path / "ver"
        code = main(["verify", "--checks", "all", "--out", str(out), cfg])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        reports = json.loads((out / "verification_reports.json").read_text())
        assert [r["check"] for r in reports] == list(TRACE_CHECKS)
        assert reports[-1]["status"] == "skipped"

    @pytest.mark.parametrize("args, name", INVALID_CHECK_INPUTS)
    @pytest.mark.parametrize("preset", ["ref-1d", "cert-linear-tau-1d"])
    def test_invalid_check_inputs_are_invalid_input(self, tmp_path, capsys, preset, args, name):
        # the certified run detects before its second snapshot, where these
        # checks would otherwise skip
        cfg = write_config(tmp_path / "c.cfg", [f"preset = {preset}", "grid.cells = 512"])
        assert main(["verify", "--t-end", "0.1", *args, cfg]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("args, name", INVALID_CHECK_INPUTS + [
        (["--checks", "characteristic", "--x0", "-0.5"], "x0="),
        (["--checks", "positivity,characteristic", "--x0", "inf"], "x0="),
        (["--checks", "cone", "--cone-apex", "0"], "t_apex="),
    ])
    def test_invalid_check_inputs_are_rejected_before_the_run(self, tmp_path, capsys, monkeypatch, args, name):
        def no_run(*args, **kwargs):
            raise AssertionError("verify ran the solver on invalid check inputs")

        monkeypatch.setattr(cli, "run", no_run)
        cfg = write_config(tmp_path / "c.cfg", ["preset = ref-radial3", "grid.cells = 4096"])
        assert main(["verify", *args, cfg]) == 2
        assert name in capsys.readouterr().err

    def test_inputs_of_checks_not_chosen_are_not_read(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", ["preset = ref-1d", "grid.cells = 256"])
        args = ["--checks", "positivity", "--x0", "nan", "--cone-apex", "nan", "--cone-center", "nan"]
        assert main(["verify", "--t-end", "0.1", *args, cfg]) == 0, capsys.readouterr().err

    def test_unknown_check_is_invalid_input(self, ref_config, capsys):
        assert main(["verify", "--checks", "entropy", ref_config]) == 2

    def test_corrupted_trace_yields_verification_failure(
        self, ref_config, capsys, monkeypatch
    ):
        real_run = cli.run

        def corrupted_run(*args, **kwargs):
            trace = real_run(*args, **kwargs)
            trace.snapshots[-1].rho[5] = -1.0
            return trace

        monkeypatch.setattr(cli, "run", corrupted_run)
        code = main(["verify", "--t-end", "0.1", "--checks", "positivity", ref_config])
        assert code == 3
        assert "fail" in capsys.readouterr().out


class TestSweepCommand:
    def test_amplitude_sweep_finds_the_threshold(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", ["preset = ref-1d", "grid.cells = 256"])
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--theorem", "linear-1d", "--parameter", "amp_v",
            "--lo", "0", "--hi", "30", "--steps", "31", "--out", str(out), cfg,
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "verdict flips between 24 and 25" in stdout
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,H0,threshold,verdict"
        assert len(lines) == 32
        rows = [line.split(",") for line in lines[1:]]
        flips = [
            (float(a[1]), float(b[1]))
            for a, b in zip(rows, rows[1:])
            if a[4] != b[4]
        ]
        # analytic crossing: (8*sqrt(2)/3) * 105/16 = 24.7487...
        assert len(flips) == 1
        assert flips[0][0] < 24.748737341529164 < flips[0][1]

    def test_infinite_threshold_is_invalid_input(self, tmp_path, capsys):
        # the tau = 400 row overflows the strict threshold, as in check
        cfg = write_config(
            tmp_path / "g.cfg", ["preset = cert-general-1d-exp", "grid.cells = 512"]
        )
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--theorem", "general-1d", "--weight", "exp:2", "--parameter", "tau",
            "--lo", "1", "--hi", "400", "--steps", "5", "--out", str(out), cfg,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert "tau=400" in captured.err
        assert not (out / "sweep.csv").exists()

    def test_unsweepable_parameter_rejected(self, ref_config, tmp_path):
        code = main([
            "sweep", "--theorem", "linear-1d", "--parameter", "extent",
            "--lo", "1", "--hi", "2", "--steps", "3",
            "--out", str(tmp_path / "x"), ref_config,
        ])
        assert code == 2

    def test_bad_range_rejected(self, ref_config, tmp_path):
        code = main([
            "sweep", "--theorem", "linear-1d", "--parameter", "amp_v",
            "--lo", "2", "--hi", "1", "--steps", "5",
            "--out", str(tmp_path / "x"), ref_config,
        ])
        assert code == 2

    @pytest.mark.parametrize("parameter", ["amp_v", "tau"])
    @pytest.mark.parametrize("lo, hi, message", [
        ("1", "1", "lo < hi"),
        ("nan", "2", "finite"),
        ("1", "nan", "finite"),
        ("1", "inf", "finite"),
        ("-inf", "1", "finite"),
        ("-1e308", "1e308", "width"),
    ])
    def test_non_finite_or_empty_range_rejected_before_sampling(
        self, parameter, lo, hi, message, ref_config, tmp_path, capsys
    ):
        # numpy warnings raise here: the range is checked before np.linspace
        out = tmp_path / "x"
        with np.errstate(all="raise"):
            code = main([
                "sweep", "--theorem", "linear-1d-tau", "--parameter", parameter,
                f"--lo={lo}", f"--hi={hi}", "--steps", "5", "--out", str(out), ref_config,
            ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: sweep range") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi, message", [
        ("-1e-3", "-2e-3", "lo < hi"),
        ("1", "-1E+2", "lo < hi"),
        ("-inf", "1", "finite"),
        ("-1e308", "1e308", "width"),
    ])
    def test_negative_bounds_in_exponent_notation_reach_the_range_check(
        self, lo, hi, message, ref_config, tmp_path, capsys
    ):
        # "--lo -1e-3" with a space: argparse alone reads -1e-3 as an option
        # string and exits with "expected one argument"
        argv = ["sweep", "--theorem", "linear-1d-tau", "--parameter", "amp_v", "--lo", lo, "--hi", hi,
                "--steps", "5", "--out", str(tmp_path / "x"), ref_config]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep range") and message in err

    def test_negative_bound_in_exponent_notation_is_a_value(self, ref_config, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["sweep", "--theorem", "linear-1d-tau", "--parameter", "amp_v", "--lo", "-1e-3", "--hi", "2e-3",
                "--steps", "3", "--out", str(out), ref_config]
        assert main(argv) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [-1e-3, 5e-4, 2e-3]
        # the invocation records the arguments as given
        assert json.loads((out / "invocation.json").read_text())["argv"] == argv

    def test_only_negative_numbers_after_options_that_take_a_value_are_joined(self):
        argv = ["sweep", "--lo", "-1e-3", "--hi", "-inf", "--steps", "-2", "--tau", "1e-3", "--a", "-x",
                "--out", "-1e-3", "--weight=linear", "-1e-3", "--help", "-1", "--version", "-1", "--", "-1", "-1e-3"]
        assert cli._join_negative_numbers(argv) == [
            "sweep", "--lo=-1e-3", "--hi=-inf", "--steps=-2", "--tau", "1e-3", "--a", "-x",
            "--out=-1e-3", "--weight=linear", "-1e-3", "--help", "-1", "--version", "-1", "--", "-1", "-1e-3",
        ]

    def test_unallocatable_steps_is_invalid_input(self, ref_config, tmp_path, capsys):
        # 10**13 values of 8 bytes each: the request fails at once, before any
        # memory is taken; the address-space limit makes it fail on a host that
        # overcommits memory too
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (2**40 if hard == resource.RLIM_INFINITY else min(2**40, hard), hard))
        try:
            code = main([
                "sweep", "--theorem", "linear-1d-tau", "--parameter", "amp_v", "--lo", "0", "--hi", "1",
                "--steps", str(10**13), "--out", str(tmp_path / "x"), ref_config,
            ])
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --steps 10000000000000:")
        assert not (tmp_path / "x").exists()

    def test_tau_sweep_computes_one_data_side(self, monkeypatch, tmp_path, capsys):
        # the preset's fields, not its name: building the preset prepares its criterion too
        fields = scenario_to_config(PRESETS["cert-power-radial-n3"](512))
        cfg = write_config(tmp_path / "s.cfg", [f"{key} = {value}" for key, value in fields.items()])
        calls = []
        original = criteria._unit_integral
        monkeypatch.setattr(criteria, "_unit_integral", lambda *args: calls.append(args) or original(*args))
        code = main([
            "sweep", "--theorem", "power-radial", "--parameter", "tau",
            "--lo", "0.2", "--hi", "2", "--steps", "16", "--out", str(tmp_path / "o"), cfg,
        ])
        assert code == 0, capsys.readouterr().err
        assert len(calls) == 2  # h and m1

    def test_amplitude_sweep_computes_the_closed_form_threshold_once(self, monkeypatch, tmp_path, capsys):
        # the preset's fields, not its name: building the preset reads the threshold too
        fields = scenario_to_config(PRESETS["cert-linear-tau-1d"](512))
        cfg = write_config(tmp_path / "s.cfg", [f"{key} = {value}" for key, value in fields.items()])
        calls = []
        original = criteria.linear_tau_case1_threshold
        monkeypatch.setattr(criteria, "linear_tau_case1_threshold", lambda *args: calls.append(args) or original(*args))
        code = main([
            "sweep", "--theorem", "linear-1d-tau", "--parameter", "amp_v",
            "--lo", "1", "--hi", "3", "--steps", "16", "--out", str(tmp_path / "o"), cfg,
        ])
        assert code == 0, capsys.readouterr().err
        assert len(calls) == 1


    @pytest.mark.parametrize("parameter, value", [("amp_v", 7.5), ("amp_v", -0.0), ("amp_rho", -0.3),
                                                  ("amp_rho", -2.0), ("amp_v", float("inf"))])
    def test_amplitude_row_is_the_rebuilt_scenario(self, parameter, value):
        # the row takes the loaded gas, grid and detector: the scenario, or the
        # error, of rebuilding every field
        scen = PRESETS["cert-linear-tau-1d"](512)
        fields = cli._field_values(scenario_to_config(scen))
        args = argparse.Namespace(parameter=parameter, tau=1.0, theorem="linear-1d-tau", a=4.0)
        try:
            want = cli._scenario({**fields, parameter: value})
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                cli._sweep_row(None, scen, fields, value, None, args)
            assert str(err.value) == str(exc)
            return
        prepared, row = cli._sweep_row(None, scen, fields, value, None, args)
        assert prepared.scenario == want and row["value"] == value


# parameter -> sweep ranges of the row equivalence test: vacuum and gammas
# the closed forms reject in first rows, overflowing H0 (where |h| > 1.8)
# and m0 (in 1-D, where m1 = 16/15), and horizons from subnormal to past the
# float range; amp_v's are multiples of the loaded amplitude but the last
EQUIVALENCE_RANGES = {
    "amp_v": [(-1.0, 2.0), (0.0, 1.5), (-5e307, 1e308)],
    "amp_rho": [(-0.05, 0.05), (-2.0, 0.5), (0.0, 1.7e308)],
    "tau": [(1e-3, 1e3), (5e-324, 2.0), (0.5, 1e300)],
    "gamma": [(2.0, 3.0), (1.5, 3.0)],
    "R": [(0.6, 1.2)],
}
EQUIVALENCE_HORIZONS = [1e-3, 0.1, 1.0, 30.0, 1e3, 1e300, 5e-324]


def _bits(x: float) -> str:
    """A float's bits as text, every NaN as one."""
    return "nan" if math.isnan(x) else x.hex()


def _row_or_error(call):
    """(the call's value, None), or (None, the type and text of its error)."""
    try:
        return call(), None
    except (ValueError, OverflowError) as exc:
        return None, (type(exc), str(exc))


class TestSweepRowsAreReports:
    """Every sweep row is the report of a fresh prepare on its own scenario:
    its H0, threshold and verdict, bit for bit, or its error, word for word."""

    @staticmethod
    def _weights(family, seeded_weight):
        # built-in weights, then one seeded weight without a closed form
        if family == "general-radial":
            return [linear(), power_law(2.0), seeded_weight(True, 5)]
        if family == "general-1d":
            return [exponential(2.0), exponential(8.0), seeded_weight(False, 5)]
        return [None]

    @staticmethod
    def _reference(scen, family, weight, a, args, value):
        field = cli.SWEEPABLE[args.parameter]
        tau = args.tau if field else value
        row = cli._scenario({**cli._field_values(scenario_to_config(scen)), field: value}) if field else scen
        report = criteria.prepare(row, family, weight, a).report(tau)
        cli._require_finite(report, tau)
        return report.inputs["H0"], report.threshold, report.verdict.kind

    @pytest.mark.parametrize("parameter", list(cli.SWEEPABLE))
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_match_fresh_reports(self, family, gamma, parameter, seeded_weight):
        rng = np.random.default_rng([FAMILIES.index(family), int(gamma), list(cli.SWEEPABLE).index(parameter)])
        preset, _, a = SWEEP_PRESETS[family]
        base = scenario_to_config(PRESETS[preset](512))
        # the loaded perturbed mass takes both signs: at gamma = 3 a negative
        # one leaves the closed forms with a NaN threshold
        for amp_rho in (-0.03, 0.02):
            scen = cli._scenario(cli._field_values({**base, "eos.gamma": gamma, "amp_rho": amp_rho}))
            fields = cli._field_values(scenario_to_config(scen))
            for weight in self._weights(family, seeded_weight):
                for lo, hi in EQUIVALENCE_RANGES[parameter]:
                    if parameter == "amp_v" and hi < 1e300:
                        lo, hi = lo * scen.amp_v, hi * scen.amp_v
                    tau = float(rng.choice(EQUIVALENCE_HORIZONS))
                    args = argparse.Namespace(parameter=parameter, tau=tau, theorem=family, a=a)
                    prepared = None
                    for value in np.linspace(lo, hi, int(rng.integers(3, 7))).tolist():
                        want, want_error = _row_or_error(lambda: self._reference(scen, family, weight, a, args, value))
                        got, got_error = _row_or_error(
                            lambda: cli._sweep_row(prepared, scen, fields, value, weight, args))
                        assert got_error == want_error, (value, tau)
                        if got is not None:
                            prepared, row = got
                            assert [_bits(row["H0"]), _bits(row["threshold"]), row["verdict"]] == [
                                _bits(want[0]), _bits(want[1]), want[2]], (value, tau)


# family -> (preset, weight, a): the certified presets of the sweep benchmark
SWEEP_PRESETS = {
    "general-radial": ("cert-general-radial-n1", "linear", 4.0),
    "general-1d": ("cert-general-1d-exp", "exp:2", 3.5),
    "power-radial": ("cert-power-radial-n3", None, 4.0),
    "linear-1d-tau": ("cert-linear-tau-1d", None, 4.0),
    "linear-1d": ("cert-linear-infinite-1d", None, 4.0),
}

# ranges of the pinned sweeps; amp_v runs over [0.5, 1.8] times the preset's
# amplitude
SWEEP_RANGES = {"tau": (0.3, 2.0), "amp_rho": (-0.05, 0.05), "gamma": (2.0, 3.0), "R": (0.6, 1.2)}

# SHA-256 of sweep.csv for 64-row sweeps at the presets' 4096 cells (numpy
# 2.4, x86-64, AVX-512), as the sweep wrote them when H0 and m0 became the
# integrals of the continuous data, amp_v * h and amp_rho * m1: every row's
# verdict is the one of the grid-sampled H0 and m0 before.  The general-1d
# ones as they were when cert-general-1d-exp's amplitude read its prepared
# criterion's H(0), with every row's verdict unchanged.
PINNED_SWEEP_CSV = {
    ('general-1d', 'amp_v'): ("f69449a39905b202e7e89e8e7e1a8df06faf2f4038218323da1022c56a7f972e",),
    ('general-1d', 'tau'): ("bfcf25ffdcb6acd527b196b3340290814f4a516a6ab889e25cba223daf6c8844",),
    ('general-radial', 'amp_v'): ("61c65427d996fe59697259a72771fd2cba93a802cc2903236ba9af9267f9fd9a",),
    ('general-radial', 'tau'): ("e892a1d4cbd13acec047827cb8ca5e5e8c038dcdef499fc82fd686bbdbfc96ea",),
    ('linear-1d-tau', 'amp_v'): ("49b9b80ac5549a2a6e79a221b3f3ec6cb793a8b91d5db14a62f5d93022172691",),
    ('linear-1d-tau', 'tau'): ("1945e0abd622076009a437b1e43f6f1d417436441c7ac9d412b08ad11e9b24a9",),
    ('linear-1d', 'amp_v'): ("0362430ac60200173769542a0cce7cd4208969295b0165c5d529cc9469304081",),
    ('linear-1d', 'tau'): ("1c3e139e40ec809ca75134ecf139793ae76778e3ed3fdfeff023e208892be7a0",),
    ('power-radial', 'amp_v'): ("f36b523681872ea8bb9e06d87756f0da9a4ceb1c6ef987d7e334696cb0e544a9",),
    ('power-radial', 'tau'): ("76d610a6bbadbf41ed256a38e38caa3c27df3232c34e9e0ba7de667461e0dc3c",),
    ('general-1d', 'amp_rho'): ("37e7298743bda6d15d26b21364de2ed811c59aa4f6457be8e707020aa998e4cb",),
    ('general-1d', 'gamma'): ("47e5c0ec9f5941a9aca39e00455609f821794ab19937962e4fa7f25a1509368f",),
    ('general-1d', 'R'): ("a095bf0601d6dce82b6586c244b3c11fd8cf961553a6f747715cf857cf69fcc9",),
    ('general-radial', 'amp_rho'): ("4758c1968dfd38933bdbdfdaa5468ab4b01b86d400b90900e4e0dbf422f590e2",),
    ('general-radial', 'gamma'): ("edc181a3bd42339238ac902c7f717b7e1030c817822c9beba9ac0f2bd97bcced",),
    ('general-radial', 'R'): ("1a89c826e3c0f182a93087692b41916027c81891967847999d179f21ed19c408",),
    ('linear-1d', 'amp_rho'): ("aaebcdd05a1bca574cdd0e1ea1b87d271b9275368c71af313248a03d2cd0f2f6",),
    ('linear-1d', 'gamma'): ("8522f8d8792d423d2a24a472acb793b7e3b69b7e59c479d6878eb85ae325b390",),
    ('linear-1d', 'R'): ("8016b1d64bb022f15bd50faded06c5ffd8f69f8e439e4d04ccd9765374264bf4",),
    ('linear-1d-tau', 'amp_rho'): ("d52d3b49e1c2eeda6e8589196368ef81ae20354147b32dc562811e323242e907",),
    ('linear-1d-tau', 'gamma'): ("dbd3ec8ac8d69952430a6282b24d2def762caa5b730c3837589d1349a8e47e5a",),
    ('linear-1d-tau', 'R'): ("be3e34c9f5c336368254cca37d9779d1db3ade734f6f3f9e5b6b055405a55ec4",),
    ('power-radial', 'amp_rho'): ("be9080147167283b4eec57355034586efcb984d1c93c2880a5ba2ad801fed376",),
    ('power-radial', 'gamma'): ("05a295953d7b8219a593cbbfa6e7c248dd2ad38cea9e76e3447f44a004b94fb1",),
    ('power-radial', 'R'): ("1d9101702922e0776a2546c3d2cb61697cfcdb5c7374d5a84c76bb60b51c0a6a",),
}


def sweep_csv_sha256(family: str, parameter: str, tmp_path) -> str:
    preset, weight, a = SWEEP_PRESETS[family]
    cfg = write_config(tmp_path / f"{preset}.cfg", [f"preset = {preset}"])
    if parameter == "amp_v":
        amp = PRESETS[preset]().amp_v
        lo, hi = 0.5 * amp, 1.8 * amp
    else:
        lo, hi = SWEEP_RANGES[parameter]
    out = tmp_path / f"{family}-{parameter}"
    argv = ["sweep", "--theorem", family, "--parameter", parameter, "--lo", repr(lo), "--hi", repr(hi),
            "--steps", "64", "--a", repr(a), "--out", str(out), cfg]
    if weight is not None:
        argv += ["--weight", weight]
    assert main(argv) == 0
    return hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()


class TestSweepArtifactsPinned:
    """Sweep CSVs stay byte for byte: whether a row keeps or recomputes a
    side of its criterion does not move a bit."""

    @pytest.mark.parametrize("parameter", list(cli.SWEEPABLE))
    @pytest.mark.parametrize("family", sorted(SWEEP_PRESETS))
    def test_sweep_csv_matches_pinned_digest(self, family, parameter, tmp_path, capsys):
        assert sweep_csv_sha256(family, parameter, tmp_path) in PINNED_SWEEP_CSV[(family, parameter)]


# SHA-256 over the name and bytes of every snapshot_NNNN.csv, then
# trace_summary.json, that simulate --out writes for each preset at 1024
# cells (numpy 2.4, x86-64, AVX-512), as the solver wrote them when every
# step of run went through step on a copied window; cert-general-radial-n1's
# as they were when its certified amplitude read a closed-form horizon integral,
# cert-general-1d-exp's as they were when it read its prepared criterion's H(0);
# every 1-D preset's as run wrote them when it first stepped the half-line
# x > 0 behind a mirror face at x = 0 and built the whole line from it, a
# zero velocity on the left as +0.0: constant-1d's differ from the sampled
# data's only there, in the left cells of the bump's support, which the
# data held as -0.0 (zero amplitude times a negative profile)
PINNED_SIMULATE = {
    ("cert-general-1d-exp", "muscl"): "9039ca04d889f15bd9ad941c8824224b242bad4c06a9f504694bf1b7719fe5d2",
    ("cert-general-1d-exp", "first_order"): "454c42a8b2613371e9aee80ece1f4193e6cab43ed4f689aaa4379a72e52367cc",
    ("cert-general-radial-n1", "muscl"): "85cf70d2f5509f78b6e054499a45badb85949325fb01f97cbb92b3d588a5fde2",
    ("cert-general-radial-n1", "first_order"): "b42431ea990e987ebc4c6e9fabe046186a05b6bed6c6d88e374ee3e08dc297e7",
    ("cert-linear-infinite-1d", "muscl"): "b5ccebbaa33a7fa4aaa550caface7e8f06b1534cc2a6806920ea723ba6ebf8c7",
    ("cert-linear-infinite-1d", "first_order"): "d0edac29da77e5a942d63ed90d424fc2238b441273b54e0cd7a77b53c146b1a4",
    ("cert-linear-tau-1d", "muscl"): "639db3d623477030f4ff6ea3dd4e72ee7fdf9b09c15774f9a448d753fc89743c",
    ("cert-linear-tau-1d", "first_order"): "eca48bd9161f8e30be2eb79081033171d000d99718b5f4a3fcd6e81b9a576de4",
    ("cert-power-radial-n3", "muscl"): "ca8dead762c92923646b32041eb865da80c10073bfeda9f2cf637281fcb41e8e",
    ("cert-power-radial-n3", "first_order"): "43e06a65540151024fb940b7559e903ef1217b1e7082bd8bbbe0d405bf294fc2",
    ("constant-1d", "muscl"): "092d547557c706cfa99c756d04d75e663356b2522bb84138b15bf818c0e16cee",
    ("constant-1d", "first_order"): "092d547557c706cfa99c756d04d75e663356b2522bb84138b15bf818c0e16cee",
    ("constant-radial3", "muscl"): "299cb2cc60cc66b1c23e9aefa03cac7e708d5209946ed727d71af8589628e2fb",
    ("constant-radial3", "first_order"): "299cb2cc60cc66b1c23e9aefa03cac7e708d5209946ed727d71af8589628e2fb",
    ("ref-1d", "muscl"): "228e7017f921ed63d7827a7bdca5bce1f1eb8728a2ae16ac9f66295a6945b748",
    ("ref-1d", "first_order"): "85b6f8709c6823247d30d9b402ea29e71b850cff125db51e313ecbfb709969e0",
    ("ref-radial1", "muscl"): "1100725ec7d7490519a3bb209b410f16d5d8cd59f36930378e97fd7b19105e1d",
    ("ref-radial1", "first_order"): "c704eabf7608593fad9681e60e198c8022417c510070715ea149ab310c512bcd",
    ("ref-radial3", "muscl"): "0856ef455e688613552544b7986530d01b943255aa0f021d2d35a23568dfbb16",
    ("ref-radial3", "first_order"): "2cdf76c17900ade9f9762d7bbe7d91c1cf606ea20bf443f9a8bbdc2fb6a31c9d",
}


class TestSimulateArtifactsPinned:
    """The solver's artifacts stay byte for byte as they were before run
    stepped its window in place. series.csv is left out: its B and G
    columns go through transcendental weights, whose last bits vary with
    numpy's SIMD kernels."""

    @pytest.mark.parametrize("recon", ["muscl", "first_order"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_snapshots_and_summary_match_pinned_digest(self, preset, recon, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", [f"preset = {preset}", "grid.cells = 1024"])
        out = tmp_path / "out"
        assert main(["simulate", "--reconstruction", recon, "--out", str(out), cfg]) == 0
        digest = hashlib.sha256()
        for path in sorted(out.glob("snapshot_*.csv")) + [out / "trace_summary.json"]:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == PINNED_SIMULATE[(preset, recon)]


# SHA-256 of criterion_report.json that check --out writes for every preset
# and every family of its geometry at tau = 1 and the presets' 4096 cells,
# the general families with the SWEEP_PRESETS weight and a (numpy 2.4,
# x86-64, AVX-512), as the checks wrote them when H0 and m0 became the
# integrals of the continuous data: every verdict is the one of the
# grid-sampled H0 and m0 before.  cert-general-1d-exp's as they were when its
# amplitude read its prepared criterion's H(0), with every verdict unchanged
PINNED_CHECK_REPORT = {
    ('cert-general-1d-exp', 'general-1d'): "765d24dca576d88f1b4f0d4182bcedf4a3db16580509d164e21724031ec45984",
    ('cert-general-1d-exp', 'linear-1d'): "8e9f1a6b7aecc8bee821b4ba8fa52d59ee1617d340caa7154cc099fe17ef5aae",
    ('cert-general-1d-exp', 'linear-1d-tau'): "43d2c7d87a4e40da1d1fee15e8bced1ecac8e6857974f4db811037424c90d175",
    ('cert-general-radial-n1', 'general-radial'): "859d75f9836fcd94594fab325bfab0431caa425d2db89629cb66a3653ae050e4",
    ('cert-general-radial-n1', 'power-radial'): "0f5eb9188b7b7ea8f54b2c085da6e42d3353a7af17b8eee00550b7c35fd1880b",
    ('cert-linear-infinite-1d', 'general-1d'): "a3c5954331ecfe9bb0104beda8aa96bef128ec676371fa8570ef910938606afc",
    ('cert-linear-infinite-1d', 'linear-1d'): "b78bed8819f8b18599dda9891bb90defd31e8c89401588f7254883d41ab82725",
    ('cert-linear-infinite-1d', 'linear-1d-tau'): "11eaf6efcd993de7294605807875d721489ca45a665113523c9dfa3e1d9ac129",
    ('cert-linear-tau-1d', 'general-1d'): "ff337c0a2bf6c103542dde6990f81cb853f9c697307b45ebc8d41fdd21886f10",
    ('cert-linear-tau-1d', 'linear-1d'): "75afedbeb67d2b3457fd07629af1d5f109ba638d71bba81f34cda08bb0b1e3e8",
    ('cert-linear-tau-1d', 'linear-1d-tau'): "cf927dfe79901f7d2b571350c7dcb35b3b0e56e4afe710117d32e78c6b3e1363",
    ('cert-power-radial-n3', 'general-radial'): "ae1481b1fe83cf27b07864f80ea0ba89d8dcc1dbd34ca30bba63b68bd28cbef2",
    ('cert-power-radial-n3', 'power-radial'): "6dac8b7c59a7c8b2af4709573bdf52b3550b5c823e39598b27dce44cc8320dca",
    ('constant-1d', 'general-1d'): "a29047892c7647cccd1d17bcd0af90b63934358eb706f87e7e9c831bbb11e6f4",
    ('constant-1d', 'linear-1d'): "e6a8fdbde7b0cef9edb054030490015cf842298d9a0e5d15c01afff9b4326118",
    ('constant-1d', 'linear-1d-tau'): "d0b9039d5e9ffdc1fc476dd841d8fe3bcadd5d5f26df5783bf3ce228207dcc7d",
    ('constant-radial3', 'general-radial'): "bbfcd14c5ed0468ed7cdc3d91d01f270fdb4e31cdfe8835502463593156a48b8",
    ('constant-radial3', 'power-radial'): "c36a0ceacdd093d29cca229596c3166457c5a4f8d8e94133eddecab53d49d6ea",
    ('ref-1d', 'general-1d'): "2e88bb7de74d7b4f748015f99ec501acdbbf98f469e86c71315efb518760709d",
    ('ref-1d', 'linear-1d'): "1de3767e419db20a8fe548729b5c1ff3c805d40fe7d74457ab92c6c7edb9890b",
    ('ref-1d', 'linear-1d-tau'): "b66378d752a598f4493d3100edfcc1ab9f88d47e1d81b5e9c63bf4737dcd6dad",
    ('ref-radial1', 'general-radial'): "488d0bb1eb5535d611baa191d3651a5d65060dc0ed42bff80f04951999b4ffb3",
    ('ref-radial1', 'power-radial'): "e439d8dcf2d0ffde0c160644dfe797bca443011a4f892d248a92894ac044d7d4",
    ('ref-radial3', 'general-radial'): "c08c721a15300ef9873647cb09b8e82e16f87727beed7c6f7ad780565a9f2a3c",
    ('ref-radial3', 'power-radial'): "16f15b970319d4d2a5c6c07b2cbc71206ab0017ad40758cf08604e3c3bd666a1",
}


def _check_cases():
    for preset in sorted(PRESETS):
        radial = PRESETS[preset]().geometry.is_radial
        for family in sorted(SWEEP_PRESETS):
            if criteria.FAMILY_GROUPS[family].radial == radial:
                yield preset, family


class TestCheckReportsPinned:
    """The criterion reports stay byte for byte."""

    def test_every_preset_and_family_is_pinned(self):
        assert sorted(_check_cases()) == sorted(PINNED_CHECK_REPORT)

    @pytest.mark.parametrize("preset, family", list(_check_cases()))
    def test_report_matches_pinned_digest(self, preset, family, tmp_path, capsys):
        _, weight, a = SWEEP_PRESETS[family]
        cfg = write_config(tmp_path / "s.cfg", [f"preset = {preset}"])
        out = tmp_path / "out"
        argv = ["check", "--theorem", family, "--a", repr(a), "--out", str(out), cfg]
        if weight is not None:
            argv += ["--weight", weight]
        assert main(argv) == 0
        digest = hashlib.sha256((out / "criterion_report.json").read_bytes()).hexdigest()
        assert digest == PINNED_CHECK_REPORT[(preset, family)]


class TestNonFiniteArtifacts:
    """Every JSON artifact parses strictly: a non-finite float is written as null."""

    @pytest.mark.parametrize(
        "preset, theorem", [("ref-radial3", "power-radial"), ("ref-1d", "linear-1d-tau")]
    )
    def test_uncovered_negative_mass_report_is_strict_json(self, preset, theorem, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "n.cfg",
            [f"preset = {preset}", "grid.cells = 256", "eos.gamma = 3.0", "amp_rho = -0.1"],
        )
        out = tmp_path / "out"
        assert main(["check", "--theorem", theorem, "--out", str(out), cfg]) == 0
        data = strict_json(out / "criterion_report.json")
        assert data["inputs"]["threshold"] is None
        assert data["verdict"]["kind"] == "inconclusive"
        assert main(["report", "--out", str(out)]) == 0

    def test_dt_floor_summary_is_strict_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "f.cfg", ["preset = ref-1d", "grid.cells = 256", "detector.dt_floor = 1.0"])
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), cfg]) == 0
        blowup = strict_json(out / "trace_summary.json")["blowup"]
        assert blowup["cause"] == "dt_floor" and blowup["location"] is None
        assert main(["report", "--out", str(out)]) == 0

    def test_infinite_values_are_null(self, tmp_path):
        path = tmp_path / "x.json"
        cli._write_json(path, {"a": [float("inf"), -float("inf"), 1.5], "b": (float("nan"), 2)})
        assert strict_json(path) == {"a": [None, None, 1.5], "b": [None, 2]}

    def test_report_prints_a_null_margin_as_nan(self, cert_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", "--theorem", "linear-1d-tau", "--out", str(out), cert_config]) == 0
        path = out / "criterion_report.json"
        data = json.loads(path.read_text())
        data["conditions"][0]["margin"] = None
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        name = data["conditions"][0]["name"]
        assert f"  {name}: margin nan" in capsys.readouterr().out


class TestReportCommand:
    def test_summarizes_artifacts(self, cert_config, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["check", "--theorem", "linear-1d-tau", "--out", str(out), cert_config])
        main(["simulate", "--t-end", "0.05", "--out", str(out), cert_config])
        capsys.readouterr()
        code = main(["report", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "criterion linear_1d_tau_case1: blowup_before" in stdout
        assert "trace " in stdout

    @pytest.mark.parametrize("name, text", [
        ("sweep.csv", "parameter,value,H0,threshold,verdict\n"),
        ("criterion_report.json", "{}"),
        ("verification_reports.json", '[{"check": "mass"}]'),
        ("trace_summary.json", "not json"),
    ])
    def test_malformed_artifact_is_invalid_input(self, name, text, tmp_path, capsys):
        out = tmp_path / "bundle"
        out.mkdir()
        (out / name).write_text(text)
        code = main(["report", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: malformed artifact {out / name}:")
        assert "Traceback" not in err

    def test_empty_directory_is_invalid_input(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--out", str(empty)]) == 2

    def test_missing_directory_is_invalid_input(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "ghost")]) == 2


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_module_runs_the_cli(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "eulerblowup.cli", "--version"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "eulerblowup 0.1.0"

    def test_two_calls_build_one_parser(self, ref_config, capsys):
        cli.build_parser.cache_clear()
        assert main(["check", "--theorem", "linear-1d-tau", ref_config]) == 0
        assert main(["--version"]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_commands_are_looked_up_at_each_call(self, monkeypatch, capsys):
        # a wrapper put on the module after the parser is built still runs
        assert main(["--version"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_sweep", lambda args, argv: seen.append(argv) or 7)
        argv = ["sweep", "--theorem", "linear-1d", "--parameter", "amp_v", "--lo", "0", "--hi", "1",
                "--steps", "2", "--out", "x", "s.cfg"]
        assert main(argv) == 7
        assert seen == [argv]

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_family_choices_are_the_criteria_families(self):
        commands = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, dest in (("check", "theorem"), ("sweep", "theorem"), ("simulate", "family"), ("verify", "family")):
            action = next(a for a in commands.choices[name]._actions if a.dest == dest)
            assert tuple(action.choices) == FAMILIES
