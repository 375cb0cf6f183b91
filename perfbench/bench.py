"""Measurement loops behind ``run.py``: untraced and traced runs.

An untraced run times set-up alone (at least :data:`SETUP_REPEATS`
times and :data:`SETUP_SECONDS`), then makes whole runs of the
workload until the time budget is spent, and reports medians of
speed-adjusted host time (:class:`HostSpeed`).  A traced run makes one
untraced run and one traced run of the same seed; the traced one gives
the per-layer metrics (layers.py) in plain host time.  Every run's rows
go through the output check.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import time
from typing import Dict, List, Optional, Tuple

import layers
import reference

SETUP_REPEATS = 10
SETUP_SECONDS = 1.0

Metrics = Dict[str, Tuple[float, str]]


class HostSpeed:
    """Samples how fast the host runs Python while a run is timed.

    On a shared machine the same code runs up to 1.5 times slower for
    tens of seconds at a stretch, which longer runs do not average out.
    So a ``SIGALRM`` timer runs a fixed loop every :attr:`INTERVAL_S`,
    in the same thread, and a stretch of host time, with the loop's own
    time taken out, is scaled by :meth:`factor`: the loop's
    :attr:`REFERENCE_S` over its median time in that stretch.  That
    gives seconds on a host whose speed did not change.  The handler
    touches only this object, so the simulation cannot see it.
    """

    INTERVAL_S = 0.025
    #: The loop's time on an unloaded core of the machine the bounds
    #: were set on; it only fixes the scale of adjusted seconds.
    REFERENCE_S = 150e-6

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    @staticmethod
    def _loop() -> int:
        total = 0
        for value in range(1500):
            total += value * value % 7
        return total

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self._loop()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += time.perf_counter() - started

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.spent

    def spent_since(self, mark: Tuple[int, float]) -> float:
        """Seconds the loop itself took since ``mark``."""
        return self.spent - mark[1]

    def factor(self, mark: Tuple[int, float]) -> float:
        """Reference over median loop time since ``mark`` (or overall)."""
        stretch = self.samples[mark[0]:] or self.samples
        return self.REFERENCE_S / statistics.median(stretch)


class Runner:
    """Runs one workload and checks what every run produced."""

    def __init__(self, workload, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.patches = layers.Patches()
        self.probe = layers.RunProbe()
        self.probe.install(self.patches)
        self.expected = (
            reference.load(workload.name).get(seed) if size == "full" else None
        )
        self.speed: Optional[HostSpeed] = None
        self.first_rows: Optional[List[Dict[str, object]]] = None
        #: Host seconds, with the speed loop's own time taken out.
        self.walls: List[float] = []
        self.setups: List[float] = []
        #: The same runs' walls, speed-adjusted (untraced runs only).
        self.adjusted_walls: List[float] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _mark(self) -> Tuple[int, float]:
        return self.speed.mark() if self.speed is not None else (0, 0.0)

    def _loop_time(self, mark: Tuple[int, float]) -> float:
        return self.speed.spent_since(mark) if self.speed is not None else 0.0

    def setup_only(self) -> None:
        """Time loading the spec up to the first simulated event."""
        gc.collect()
        self.probe.reset()
        self.probe.setup_only = True
        mark = self._mark()
        started = time.perf_counter()
        try:
            self.workload.run(self.seed, self.size)
        except layers.SetupOnly:
            pass
        else:
            raise RuntimeError(f"{self.workload.name} never ran its simulator")
        finally:
            self.probe.setup_only = False
        self.setups.append(self.probe.first_run_at - started - self._loop_time(mark))

    def run(self, root_span: Optional[layers.SpanClock] = None) -> float:
        """One checked run; returns its wall seconds."""
        gc.collect()
        self.probe.reset()
        if root_span is not None:
            root_span.push(layers.ROOT)
        mark = self._mark()
        started = time.perf_counter()
        outcome = self.workload.run(self.seed, self.size)
        wall = time.perf_counter() - started
        if root_span is not None:
            wall = root_span.pop()
        wall -= self._loop_time(mark)
        self.walls.append(wall)
        if self.speed is not None:
            self.adjusted_walls.append(wall * self.speed.factor(mark))
        self.units = self.workload.units(outcome, self.probe)
        self._check(outcome)
        return wall

    def _check(self, outcome) -> None:
        problems: List[str] = []
        if self.first_rows is None:
            self.first_rows = outcome.rows
            if self.expected is None:
                problems += self.workload.checks(outcome.rows, self.seed)
            else:
                diffs = reference.compare(self.expected, outcome.rows)
                problems += [f"reference seed {self.seed}: {diff}" for diff in diffs[:5]]
                if len(diffs) > 5:
                    problems.append(f"reference seed {self.seed}: {len(diffs)} differences in all")
        elif _canonical(outcome.rows) != _canonical(self.first_rows):
            problems.append("two runs of the same seed produced different rows")
        self.attempted += 1 + outcome.ops_attempted
        self.failed += (1 if problems else 0) + outcome.ops_failed
        self.problems += problems

    def close(self) -> None:
        self.patches.undo()


def _canonical(rows) -> str:
    return json.dumps(rows, sort_keys=True)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner: Runner, seconds: float) -> Metrics:
    speed = runner.speed = HostSpeed()
    speed.start()
    try:
        phase = speed.mark()
        setup_end = time.perf_counter() + SETUP_SECONDS
        while len(runner.setups) < SETUP_REPEATS or time.perf_counter() < setup_end:
            runner.setup_only()
        setup_factor = speed.factor(phase)
        # Whole runs until ``seconds`` have passed, rounded to the nearest
        # whole run: a run as long as the budget is made once, not twice.
        started = time.perf_counter()
        while True:
            runner.run()
            elapsed = time.perf_counter() - started
            if elapsed + statistics.mean(runner.walls) / 2 >= seconds:
                break
    finally:
        speed.stop()
    # Every run of one seed does the same simulated work, so the median
    # per-unit time is the median run time over the unit count.
    return {
        "adj_us_per_unit": (
            statistics.median(runner.adjusted_walls) / runner.units * 1e6,
            "us",
        ),
        "setup_s": (statistics.median(runner.setups) * setup_factor, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def measure_traced(runner: Runner) -> Metrics:
    untraced_wall = runner.run()
    tracing = layers.Tracing(runner.probe)
    tracing.install()
    try:
        traced_wall = runner.run(root_span=tracing.clock)
    finally:
        tracing.uninstall()
    metrics = tracing.metrics(traced_wall, untraced_wall)
    metrics["wall_s"] = (untraced_wall, "s")
    metrics["work_units"] = (runner.units, "count")
    return metrics
