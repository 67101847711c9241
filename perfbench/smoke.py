"""Smoke check of the benchmark at tiny sizes; not part of the test suite.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark's rules, runs every workload
with ``--smoke`` untraced and traced (the traced run twice, so the exact
counts are compared), validates each result line against BENCHMARK.json,
and checks that the benchmark refuses to run without the package sources.
Exits 0 when everything holds and prints what failed otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
TIMEOUT_S = 180

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_spec(spec: dict) -> list[str]:
    errors = []

    def need(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "top-level keys")
    need(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    for p in spec["paths"]:
        need(bool(PATH.fullmatch(p)) and not p.startswith("/") and ".." not in p.split("/"), f"path {p!r}")
    need(1 <= len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"]), "command length")
    need(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    need(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    need(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    need(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for w in spec["workloads"]:
        need(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"end-to-end {m}")
    for m in spec["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"per-layer {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        need(bool(UNIT.fullmatch(m["unit"])) and m["better"] in ("higher", "lower"), f"metric {m}")
        names.append(m["name"])
    need(all(NAME.fullmatch(n) for n in names), "name syntax")
    need(len(names) == len(set(names)), "names used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    need(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s metric")
    need(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")
    need(len(json.dumps(spec)) <= 64 * 1024, "size")
    return errors


def check_result(line: str, expected: dict) -> list[str]:
    result = json.loads(line)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        errors.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted")
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        errors.append(f"failed = {result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        errors.append("metric names or units differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"metric {name}: {m}")
    return errors


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = [f"BENCHMARK.json: {e}" for e in check_spec(spec)]
    expected = {
        trace: {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]} for trace in (0, 1)
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1, 1):
            proc = run([str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            errors += [f"{label}: {e}" for e in check_result(lines[-1], expected[trace])]
            detail = json.loads(lines[-2])["detail"]
            if detail["failures"]:
                errors.append(f"{label}: {detail['failures']}")
            print(f"{label}: ok ({len(json.loads(lines[-1])['metrics'])} metrics)", flush=True)

    bare = BENCH_DIR / ".state" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns(".state", "__pycache__"))
    proc = run([str(Path(BENCH_DIR.name) / "run.py"), "--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without the sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    shutil.rmtree(bare)

    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
