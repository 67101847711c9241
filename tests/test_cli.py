import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eulerblowup.cli as cli
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
from eulerblowup.model import LINEAR, NONNEG_INCREASING, POWER_LAW
from eulerblowup.verify import TRACE_CHECKS


def write_config(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


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
        assert w.cls == POWER_LAW and w.power == 2.5
        assert parse_weight("exp:1.5").cls == NONNEG_INCREASING
        with pytest.raises(ConfigError):
            parse_weight("spline:3")


class TestCheckCommand:
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
        assert np.isnan(data["inputs"]["threshold"])

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

    def test_containment_violation_is_invalid_input(self, ref_config, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--t-end", "5.0", "--out", str(out), ref_config]) == 2


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

    def test_all_expands_to_every_trace_check(self, ref_config, capsys):
        code = main(["verify", "--t-end", "0.1", "--checks", "all", ref_config])
        stdout = capsys.readouterr().out
        assert code == 0
        # inequality hypotheses fail on reference amplitudes: skipped, not failed
        assert "skipped" in stdout

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

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_family_choices_are_the_criteria_families(self):
        commands = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, dest in (("check", "theorem"), ("sweep", "theorem"), ("simulate", "family"), ("verify", "family")):
            action = next(a for a in commands.choices[name]._actions if a.dest == dest)
            assert tuple(action.choices) == FAMILIES
