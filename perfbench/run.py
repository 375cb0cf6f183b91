"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-event --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's
tracing off: set-up alone several times, then whole runs of the
workload until ``--seconds`` have passed (at least one).  ``--trace 1``
makes one untraced run and one traced run of the same seed and prints
the per-layer metrics.  Every run's output is checked (README.md,
"Output check"); the last line of standard output is one JSON object,
and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: the self-test's small sizing (no reference rows)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repository source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    import worlds

    workload = worlds.BY_NAME.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(known: {', '.join(sorted(worlds.BY_NAME))})",
            file=sys.stderr,
        )
        return 2

    runner = bench.Runner(workload, args.seed, args.size)
    try:
        if args.trace:
            metrics = bench.measure_traced(runner)
        else:
            metrics = bench.measure(runner, args.seconds)
    finally:
        runner.close()

    correct = not runner.problems
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    walls = "" if args.trace else (
        f", median wall_s {statistics.median(runner.walls):.6f} s (not adjusted)"
    )
    print(
        f"{workload.name} seed={args.seed} size={args.size} trace={args.trace}: "
        f"{len(runner.walls)} runs of {runner.units} {workload.unit} units{walls}, "
        f"failed_frac {runner.failed / runner.attempted:.6g} ratio "
        f"({runner.failed} of {runner.attempted} operations)"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
