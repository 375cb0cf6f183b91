"""Committed reference rows: the benchmark's output check.

``reference/<workload>.json`` holds, for each committed seed, the rows
the experiment's own entry point produced at full sizing:

* ``live-event``: E16 ``run_config("coordinated")``'s row at the
  benchmark's 360 s horizon;
* ``cellular-web``: every E3 ``generate_pageloads`` record;
* ``glass-loop``: E20 latency-sweep's ``lat-0`` row (QoE, I2A counts
  and the loop-stage latencies in sim seconds).

Every reference column must be present (a run may add columns).
Integer and string columns must match exactly.  Floats are stored to
12 significant digits and compared with a relative tolerance of 1e-9,
far below the 3-4 digits any published table shows, so a changed table
always fails.

Regenerate all workloads, or the ones named (about 30 minutes for
all on one core)::

    python3 perfbench/reference.py [workload ...]
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Dict, List, Mapping, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: Seeds with committed reference rows.  ``cellular-web`` commits more:
#: on other seeds the output check falls back to E3's declared checks,
#: and ``bad_session_detection_acc < 1`` is a claim about a random test
#: split that this sizing breaks at seed 5.
SEEDS = {
    "live-event": tuple(range(10)),
    "cellular-web": tuple(range(30)),
    "glass-loop": tuple(range(10)),
}

REL_TOL = 1e-9
ABS_TOL = 1e-12

Row = Dict[str, object]


def _path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def _stored(value: object) -> object:
    return float(f"{value:.12g}") if isinstance(value, float) else value


def load(workload: str) -> Dict[int, List[Row]]:
    """Reference rows by seed (empty when the file is missing)."""
    try:
        with open(_path(workload), encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return {}
    columns = payload["columns"]
    return {
        int(seed): [dict(zip(columns, values)) for values in rows]
        for seed, rows in payload["seeds"].items()
    }


def _same(expected: object, actual: object) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        )
    return type(expected) is type(actual) and expected == actual


def compare(expected: Sequence[Mapping[str, object]], actual: Sequence[Mapping[str, object]]) -> List[str]:
    """Differences between reference and produced rows (empty = match)."""
    if len(expected) != len(actual):
        return [f"{len(actual)} rows, reference has {len(expected)}"]
    problems = []
    for index, (want, got) in enumerate(zip(expected, actual)):
        missing = sorted(set(want) - set(got))
        if missing:
            problems.append(f"row {index}: reference columns {missing} missing")
            continue
        for column, value in want.items():
            if not _same(value, got[column]):
                problems.append(
                    f"row {index} {column}: {got[column]!r} != reference {value!r}"
                )
    return problems


def write(workload: str, by_seed: Mapping[int, Sequence[Mapping[str, object]]]) -> None:
    columns = list(next(iter(by_seed.values()))[0])
    payload = {
        "columns": columns,
        "seeds": {
            str(seed): [[_stored(row[column]) for column in columns] for row in rows]
            for seed, rows in sorted(by_seed.items())
        },
    }
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(_path(workload), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")


def main(names: Sequence[str]) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import worlds

    for workload in worlds.WORKLOADS:
        if names and workload.name not in names:
            continue
        by_seed = {}
        for seed in SEEDS[workload.name]:
            by_seed[seed] = workload.reference(seed)
            print(f"{workload.name} seed {seed}: {len(by_seed[seed])} rows", flush=True)
        write(workload.name, by_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
