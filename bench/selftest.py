"""Self-test of the benchmark at toy size.

Usage (from the root of a checkout):

    python3 bench/selftest.py

Runs every workload shrunk to n = 6, m = 200 for one second, untraced and
traced, and requires that the result line holds exactly the metrics that
BENCHMARK.json names, each with its unit, that every check passed, and
that every per-layer metric of README.md is printed.  It also requires
that the benchmark refuses to run in a directory without the sources.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys

import srcpath

srcpath.use_checkout_source()

import run  # noqa: E402
from workloads import WORKLOADS, toy  # noqa: E402


def require(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec(spec):
    for w in spec["workloads"]:
        require(w["name"] in WORKLOADS, f"unknown workload {w['name']}")
        require(w["why"] == WORKLOADS[w["name"]].why,
                f"why of {w['name']} differs from workloads.py")
    require({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END, "end_to_end differs from run.END_TO_END")
    require({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.PER_LAYER, "per_layer differs from run.PER_LAYER")


def check_run(w, trace, expected):
    out = io.StringIO()
    code = run.run(toy(w), seed=7, seconds=1.0, trace=trace, out=out)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    where = f"{w.name} trace {int(trace)}"
    require(code == 0, f"{where}: exit code {code}")
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{where}: result keys {sorted(result)}")
    require(result["correct"], f"{where}: checks failed:\n" + "\n".join(
        line for line in lines if line.startswith("CHECK FAILED")))
    require(result["failed"] == 0 and result["attempted"] >= 2,
            f"{where}: {result['failed']} of {result['attempted']} failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    require(got == expected, f"{where}: metrics {got}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value),
                f"{where}: {name} = {value!r}")
    if trace:
        printed = {line.split()[1] for line in lines
                   if line.startswith("metric ")}
        require(printed == set(run.LAYER_UNITS),
                f"{where}: printed metrics {sorted(printed)}")
    print(f"ok {where}: {result['attempted']} learns")


def check_refuses_without_sources(spec):
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(srcpath.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [*spec["command"], "--workload", next(iter(WORKLOADS)), "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    require(proc.returncode != 0 and not proc.stdout.strip(),
            f"ran without sources: exit {proc.returncode}, {proc.stdout!r}")
    print("ok refuses to run without sources")


def main():
    spec = json.loads((srcpath.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in WORKLOADS.values():
        check_run(w, False, run.END_TO_END)
        check_run(w, True, run.PER_LAYER)
    check_refuses_without_sources(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
