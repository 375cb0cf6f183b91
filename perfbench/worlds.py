"""The benchmark's three workloads, their output rows and output checks.

Each workload calls the repository's public entry points and returns
an :class:`Outcome`: the simulated result rows that the output check
compares, plus the operation counts the benchmark reports.  Everything
in the rows is simulated (sim seconds, counts, QoE); no host time ever
enters them, so they must repeat exactly for a given seed and size.

Sizes: ``full`` is the benchmark sizing named in README.md; ``smoke``
is a small sizing for the self-test that runs the same code paths.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro import scenarios
from repro.core.appp import EonaAppP
from repro.core.infp import EonaInfP
from repro.experiments import common, exp_e3_inference, exp_e16_live_event
from repro.experiments import exp_e20_service, registry
from repro.experiments.common import ExperimentResult
from repro.obs import spans
from repro.transport.glass import RemoteLookingGlass
from repro.transport.loopback import LoopbackTransport
from repro.transport.service import GlassService
from repro.video.qoe import summarize
from repro.web.browser import PageLoadRecord

Row = Dict[str, object]


@dataclass
class Outcome:
    """What one run of a workload produced."""

    rows: List[Row]
    #: Operations inside the run beyond the run itself (I2A queries).
    ops_attempted: int = 0
    ops_failed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``run(seed, size)`` -> Outcome; the timed region.
    run: Callable[[int, str], Outcome]
    #: ``reference(seed)`` -> rows, produced by the experiment's own
    #: entry point; used to (re)generate the committed reference rows.
    reference: Callable[[int], List[Row]]
    #: ``checks(rows, seed)`` -> descriptions of failed declared checks.
    checks: Callable[[List[Row], int], List[str]]
    #: Name of the unit of simulated work that ``adj_us_per_unit``
    #: divides by, and ``units(outcome, probe)`` counting it.  Both are
    #: fixed by the simulated result alone, never by how it is computed.
    unit: str
    units: Callable[[Outcome, Any], int]


def _public(row: Mapping[str, object]) -> Row:
    """Drop underscore keys (work counters ride along as ``_counters``)."""
    return {key: value for key, value in row.items() if not key.startswith("_")}


def declared_checks(
    exp_id: str, variant: str, row_key: str, rows: Sequence[Row]
) -> List[str]:
    """Failed checks of an experiment variant, evaluated on ``rows``.

    Only checks whose row selectors are all present in ``rows`` apply;
    the others compare against configurations this workload does not
    run (E16's ``reactive`` row, E20's ``lat-2``/``lat-8`` rows).
    """
    present = {row[row_key] for row in rows}
    result = ExperimentResult(name=f"{exp_id}/{variant}")
    for row in rows:
        result.add_row(**row)
    failed = []
    for chk in registry.get(exp_id).variant(variant).checks:
        selectors = [chk.row] + ([chk.of] if chk.of is not None else [])
        if not all(sel == "*" or sel in present for sel in selectors):
            continue
        outcome = chk.evaluate(result, row_key)
        if not outcome.passed:
            failed.append(f"{exp_id}/{variant}: {outcome.check} ({outcome.detail})")
    return failed


# ---------------------------------------------------------------------------
# live-event: E16's coordinated world
# ---------------------------------------------------------------------------
#: E16 runs to 450 s; the benchmark stops at 360 s, after the outage
#: (150-320 s) and the crowd's peak, which halves a run's host time.
LIVE_EVENT_SIZES = {"full": {"horizon_s": 360.0}, "smoke": {"horizon_s": 330.0}}


def run_live_event(seed: int, size: str) -> Outcome:
    row = exp_e16_live_event.run_config(
        "coordinated", seed=seed, **LIVE_EVENT_SIZES[size]
    )
    return Outcome(rows=[_public(row)])


def reference_live_event(seed: int) -> List[Row]:
    return run_live_event(seed, "full").rows


def check_live_event(rows: List[Row], seed: int) -> List[str]:
    return declared_checks("e16", "failover", "config", rows)


# ---------------------------------------------------------------------------
# cellular-web: E3's page-load generator
# ---------------------------------------------------------------------------
CELLULAR_WEB_SIZES = {
    "full": {},
    "smoke": {"n_clients": 6, "n_pages_per_client": 10},
}


def _pageload_rows(records) -> List[Row]:
    return [dataclasses.asdict(record) for record in records]


def run_cellular_web(seed: int, size: str) -> Outcome:
    records = exp_e3_inference.generate_pageloads(
        seed=seed, **CELLULAR_WEB_SIZES[size]
    )
    return Outcome(rows=_pageload_rows(records))


def reference_cellular_web(seed: int) -> List[Row]:
    return run_cellular_web(seed, "full").rows


def check_cellular_web(rows: List[Row], seed: int) -> List[str]:
    records = [PageLoadRecord(**row) for row in rows]
    inferred = exp_e3_inference.evaluate_inference(records, seed=seed)
    row = {"method": "network_inference", **inferred}
    return declared_checks("e3", "inference", "method", [row])


# ---------------------------------------------------------------------------
# glass-loop: E20's zero-latency loopback world
# ---------------------------------------------------------------------------
GLASS_LOOP_SIZES = {
    "full": {"horizon_s": exp_e20_service.HORIZON_S},
    "smoke": {"horizon_s": 200.0},
}
#: E20's latency-sweep label for the zero-latency loopback wire.
GLASS_LOOP_WIRE = "lat-0"


def run_glass_loop(seed: int, size: str) -> Outcome:
    """E20's flash-crowd world with the I2A glass behind a loopback wire.

    Built from the same public parts as E20's latency-sweep world at
    zero latency: every AppP query is encoded as ``eona-msg/1``, served
    synchronously by the :class:`GlassService`, and decoded before the
    AppP continues (a closed loop).
    """
    horizon_s = float(GLASS_LOOP_SIZES[size]["horizon_s"])  # type: ignore[arg-type]
    with spans.capture() as events:
        scenario = scenarios.build_scenario(
            "flash-crowd", seed=seed, params=dict(exp_e20_service.WORLD)
        )
        ctx = scenario.ctx
        infp = EonaInfP(
            ctx,
            access_links=[scenario.access_link],
            i2a_refresh_s=10.0,
            stats_period_s=2.0,
        )
        ctx.registry.grant("isp", "appp")
        service = GlassService(clock=lambda: ctx.sim.now)
        service.add_glass(infp.i2a)
        proxy = RemoteLookingGlass(
            LoopbackTransport(service.handle_frame),
            owner="isp",
            kind="i2a",
            clock=lambda: ctx.sim.now,
            retries=2,
        )
        policy = EonaAppP(ctx, isp_i2a=proxy, name="appp")
        players = common.launch_video_sessions(
            ctx,
            catalog=scenario.catalog,
            policy=policy,
            content_picker=lambda index: scenario.catalog.by_rank(0),
            **scenario.world.population("viewers").launch_kwargs(
                until=horizon_s * 0.6
            ),
        )
        ctx.sim.run(until=horizon_s)
        infp.stop()
        policy.stop()
    summary = summarize(common.qoe_of(players))
    kinds: Dict[str, int] = {}
    for event in events:
        kind = str(event["kind"])
        kinds[kind] = kinds.get(kind, 0) + 1
    row = common.loop_latency_row(events, wire=GLASS_LOOP_WIRE, latency_s=0.0)
    row.update(
        buffering_ratio=summary["mean_buffering_ratio"],
        mean_bitrate_mbps=summary["mean_bitrate_mbps"],
        i2a_queries=policy.i2a_queries,
        glass_errors=policy.glass_errors,
        fallback_activations=policy.fallback_activations,
        fallback_reengagements=policy.fallback_reengagements,
        fallback_engage_events=kinds.get("fallback-engage", 0),
        fallback_reengage_events=kinds.get("fallback-reengage", 0),
    )
    stats = proxy.stats()
    row.update(stats)
    return Outcome(
        rows=[row],
        ops_attempted=stats["queries_sent"],
        ops_failed=stats["queries_failed"],
    )


def reference_glass_loop(seed: int) -> List[Row]:
    result = exp_e20_service.run_latency_sweep(seed=seed)
    return [_public(result.row(wire=GLASS_LOOP_WIRE))]


def check_glass_loop(rows: List[Row], seed: int) -> List[str]:
    return declared_checks("e20", "latency-sweep", "wire", rows)


def _flow_instants(outcome: Outcome, probe) -> int:
    return probe.flow_instants()


def _row_count(outcome: Outcome, probe) -> int:
    return len(outcome.rows)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="live-event",
        run=run_live_event,
        reference=reference_live_event,
        checks=check_live_event,
        unit="flow-instant",
        units=_flow_instants,
    ),
    Workload(
        name="cellular-web",
        run=run_cellular_web,
        reference=reference_cellular_web,
        checks=check_cellular_web,
        unit="page load",
        units=_row_count,
    ),
    Workload(
        name="glass-loop",
        run=run_glass_loop,
        reference=reference_glass_loop,
        checks=check_glass_loop,
        unit="flow-instant",
        units=_flow_instants,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
