"""Benchmark self-test at the smoke sizing.

Runs every workload in ``BENCHMARK.json`` once untraced and once
traced, each in its own process exactly as the benchmark is run, and
asserts that each run exits 0, passes its output check with no failed
operation (``failed_frac`` 0), prints every declared metric with its
declared unit, and, traced, that the layers' self times plus
``unattributed_s`` add up to ``traced_wall_s``.  Takes about four
minutes on one core (cellular-web always runs to E3's 5M-event cap)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 0
TIMEOUT_S = 600


def _run(workload: str, trace: int) -> Dict[str, object]:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", "1",
        "--trace", str(trace),
        "--size", "smoke",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    if done.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {done.returncode}:\n"
            f"{done.stdout}{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _problems(result: Dict[str, object], declared: List[Dict[str, str]]) -> List[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("output check failed")
    if not result.get("attempted") or result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')} of {result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(want):
        problems.append(f"metrics {sorted(set(metrics) ^ set(want))} differ from BENCHMARK.json")
    for name, unit in want.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def _self_time_gap(metrics: Dict[str, Dict[str, float]]) -> float:
    parts = sum(
        entry["value"]
        for name, entry in metrics.items()
        if name.endswith(".self_s") or name == "unattributed_s"
    )
    return abs(parts - metrics["traced_wall_s"]["value"])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    failures = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
            result = _run(name, trace)
            problems = _problems(result, declared)
            if trace and not problems and _self_time_gap(result["metrics"]) > 1e-6:
                problems.append("self times do not add up to traced_wall_s")
            status = "ok" if not problems else "; ".join(problems)
            print(f"{name} trace={trace}: {status}", flush=True)
            failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
