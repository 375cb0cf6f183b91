"""Per-layer accounting for the traced run, measured from outside.

Nothing here edits the program.  A traced run wraps public functions
and installs a :class:`~repro.obs.profile.HandlerProfiler` subclass
through ``Simulator.default_dispatch_hook``; each wrapper and each
dispatched event opens a span on one :class:`SpanClock`.  A layer's
self time is its spans' time minus the child spans inside them, so the
self times of all layers plus the root's (``unattributed_s``: the
benchmark's own code and builtins it calls) add up to the traced wall
time exactly.

Layers are the packages under ``repro``.  Event handlers are credited
to the package of the code they run:

* ``PeriodicProcess._fire`` to the package of the process's ``fn``
  (E3's radio ticks land in ``web``);
* lambdas and closures to their ``__module__``;
* the kernel's run loop, between handlers, to ``simkernel``.

:class:`RunProbe` holds the only wrappers the untraced run carries.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.appp import EonaAppP
from repro.core.controlplane import CoordinatedAppP
from repro.core.interfaces import LookingGlass
from repro.experiments import common, exp_e3_inference, exp_e16_live_event
from repro import scenarios
from repro.network import allocator
from repro.network.allocator import AllocationEngine
from repro.network.fluidsim import FluidNetwork, Transfer
from repro.obs.profile import HandlerProfiler
from repro.obs.trace import TRACER
from repro.simkernel.kernel import Simulator
from repro.simkernel.processes import PeriodicProcess
from repro.telemetry.aggregate import GroupByAggregator
from repro.transport import glass as glass_module
from repro.transport import service as service_module
from repro.transport.glass import RemoteLookingGlass
from repro.transport.loopback import LoopbackTransport
from repro.transport.service import GlassService
from repro.video.player import AdaptivePlayer
from repro.web.browser import Browser

ROOT = "unattributed"

#: Every package under ``repro`` that can own time in these workloads;
#: ``other`` collects any package not listed.
LAYERS = (
    "simkernel",
    "network",
    "video",
    "web",
    "core",
    "telemetry",
    "transport",
    "obs",
    "scenarios",
    "cdn",
    "sdn",
    "faults",
    "workloads",
    "experiments",
)

_FIRE = PeriodicProcess._fire


class SetupOnly(Exception):
    """Raised from ``Simulator.run`` to stop a run once set-up is done."""


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, Any]] = []

    def set(self, owner: object, name: str, value: Any) -> None:
        own = name in vars(owner)
        self._undo.append((owner, name, own, vars(owner).get(name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, own, original = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


class RunProbe:
    """The cheap wrappers every run carries, traced or not.

    ``Simulator.run`` (once per world) marks the end of set-up and
    notices runs cut short by ``max_events``; ``FluidNetwork``'s
    ``start_transfer``/``start_stream`` (once per flow) keep the flows,
    whose simulated start and finish times give :meth:`flow_instants`.
    """

    def __init__(self) -> None:
        self.first_run_at: Optional[float] = None
        self.setup_only = False
        self.events = 0
        self.truncated_runs = 0
        self.transfers: List[Transfer] = []
        #: ``on_run(original, sim, until, max_events)``: the traced run's span.
        self.on_run: Optional[Callable[..., float]] = None

    def reset(self) -> None:
        self.first_run_at = None
        self.events = 0
        self.truncated_runs = 0
        self.transfers = []

    def flow_instants(self) -> int:
        """Sum over flow start and finish instants of the flows active then.

        This is the fluid model's inherent work: at each such instant
        the rates of every active flow may change.  It is computed from
        simulated times only, so it is the same for any implementation
        that produces the same simulation (the allocator's own
        ``flows_touched`` is not: coalescing or incremental solves
        lower it).
        """
        edges = []
        for transfer in self.transfers:
            flow = transfer.flow
            edges.append((flow.started_at, 1))
            if flow.finished_at is not None:
                edges.append((flow.finished_at, -1))
        edges.sort()
        active = total = 0
        for _, step in edges:
            active += step
            total += active
        return total

    def install(self, patches: Patches) -> None:
        original = Simulator.run
        probe = self

        def run(sim: Simulator, until=None, max_events=None) -> float:
            if probe.first_run_at is None:
                probe.first_run_at = time.perf_counter()
            if probe.setup_only:
                raise SetupOnly()
            before = sim.events_executed
            try:
                if probe.on_run is None:
                    return original(sim, until=until, max_events=max_events)
                return probe.on_run(original, sim, until, max_events)
            finally:
                executed = sim.events_executed - before
                probe.events += executed
                if (
                    max_events is not None
                    and executed >= max_events
                    and sim.pending_events > 0
                ):
                    probe.truncated_runs += 1

        patches.set(Simulator, "run", run)
        for name in ("start_transfer", "start_stream"):
            start = getattr(FluidNetwork, name)

            def started(net: FluidNetwork, *args: Any, _start=start, **kwargs: Any) -> Transfer:
                transfer = _start(net, *args, **kwargs)
                probe.transfers.append(transfer)
                return transfer

            patches.set(FluidNetwork, name, started)


class SpanClock:
    """Nested host-time spans reduced to per-layer self time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        # Each open span: [layer, start, time covered by child spans].
        self._stack: List[list] = []

    def push(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def pop(self) -> float:
        layer, start, children = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed


def layer_of_module(module: Optional[str]) -> str:
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return ROOT
    return parts[1] if parts[1] in LAYERS else "other"


class LayerProfiler(HandlerProfiler):
    """A HandlerProfiler whose every handler runs inside a layer span."""

    def __init__(self, clock: SpanClock) -> None:
        super().__init__()
        self.clock = clock
        self._layers: Dict[str, str] = {}

    def layer_of(self, fn: Callable[..., Any]) -> str:
        func = getattr(fn, "__func__", fn)
        if func is _FIRE:
            return self.layer_of(fn.__self__.fn)
        func = getattr(func, "func", func)  # functools.partial
        module = getattr(func, "__module__", None) or ""
        layer = self._layers.get(module)
        if layer is None:
            layer = self._layers[module] = layer_of_module(module)
        return layer

    def _dispatch(self, now: float, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.clock.push(self.layer_of(fn))
        try:
            super()._dispatch(now, fn, args)
        finally:
            self.clock.pop()


class Tracing:
    """Everything the traced run installs, and what it reads back."""

    def __init__(self, probe: RunProbe) -> None:
        self.probe = probe
        self.clock = SpanClock()
        self.profiler = LayerProfiler(self.clock)
        self.patches = Patches()
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.query_s: List[float] = []
        self.networks: List[FluidNetwork] = []
        self.processes: List[PeriodicProcess] = []
        self.proxies: List[RemoteLookingGlass] = []
        self.same_instant_solves = 0
        self._engine_sims: Dict[int, Simulator] = {}
        self._last_solve_at: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _span(
        self,
        owner: object,
        name: str,
        layer: str,
        key: str = "",
        samples: Optional[List[float]] = None,
    ) -> None:
        """Wrap ``owner.name`` in a ``layer`` span, counting calls under
        ``key`` and, given ``samples``, keeping each call's seconds."""
        original = getattr(owner, name)
        clock, calls, inclusive = self.clock, self.calls, self.inclusive_s
        key = key or f"{layer}.{name}"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            clock.push(layer)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock.pop()
                inclusive[key] += elapsed
                calls[key] += 1
                if samples is not None:
                    samples.append(elapsed)

        self.patches.set(owner, name, wrapper)

    def _collect(self, cls: type, into: List[Any]) -> None:
        """Remember every instance of ``cls`` built while tracing."""
        original = cls.__init__

        def init(instance: Any, *args: Any, **kwargs: Any) -> None:
            original(instance, *args, **kwargs)
            into.append(instance)

        self.patches.set(cls, "__init__", init)

    def install(self) -> None:
        span = self._span
        clock = self.clock

        def run(original, sim, until, max_events):
            clock.push("simkernel")
            try:
                return original(sim, until=until, max_events=max_events)
            finally:
                clock.pop()

        self.probe.on_run = run

        # scenarios: the whole compile, wherever build_scenario is looked up.
        for module in (scenarios, exp_e16_live_event, exp_e3_inference):
            span(module, "build_scenario", "scenarios", "scenarios.compile")

        # network: the allocator, and the mutations other layers call.
        original_init = FluidNetwork.__init__
        networks, engine_sims = self.networks, self._engine_sims

        def network_init(net: FluidNetwork, *args: Any, **kwargs: Any) -> None:
            original_init(net, *args, **kwargs)
            networks.append(net)
            engine_sims[id(net.engine)] = net.sim

        self.patches.set(FluidNetwork, "__init__", network_init)
        for name in (
            "start_transfer",
            "start_stream",
            "abort",
            "set_demand",
            "set_weight",
            "update_streams",
            "reroute",
            "set_link_capacity",
            "set_via_policy",
            "set_split_policy",
            "sync",
        ):
            span(FluidNetwork, name, "network")
        original_solve = AllocationEngine.solve
        last_at, inclusive = self._last_solve_at, self.inclusive_s

        def solve(engine: AllocationEngine):
            now = engine_sims[id(engine)].now
            if last_at.get(id(engine)) == now:
                self.same_instant_solves += 1
            last_at[id(engine)] = now
            clock.push("network")
            try:
                return original_solve(engine)
            finally:
                inclusive["network.solve"] += clock.pop()

        self.patches.set(AllocationEngine, "solve", solve)
        # Imported by name into the allocator module: wrap it there.
        span(allocator, "max_min_allocation", "network", "network.maxmin")

        # video and web work counts.
        span(AdaptivePlayer, "__init__", "video", "video.sessions")
        span(Browser, "load_page", "web", "web.pageloads")

        # core: glass queries and the policy calls players make.
        span(LookingGlass, "query", "core", "core.glass_query")
        for cls in (EonaAppP, CoordinatedAppP):
            for name in ("assign", "on_chunk", "rate_cap_mbps", "on_session_end"):
                span(cls, name, "core")

        # telemetry aggregation.
        span(GroupByAggregator, "add", "telemetry", "telemetry.beacons")
        span(GroupByAggregator, "flush", "telemetry", "telemetry.flushes")

        # transport: the proxy, the wire, the service, the codec.
        self._collect(RemoteLookingGlass, self.proxies)
        span(RemoteLookingGlass, "query", "transport", samples=self.query_s)
        span(LoopbackTransport, "request", "transport")
        span(GlassService, "handle_frame", "transport")
        for module in (glass_module, service_module):
            span(module, "encode", "transport", "transport.codec")
            span(module, "decode", "transport", "transport.codec")

        # obs: trace emission and loop analysis.
        span(TRACER, "emit", "obs", "obs.trace_events")
        span(common, "loop_latency_row", "obs", "obs.loop_analysis")

        self._collect(PeriodicProcess, self.processes)
        self.profiler.install()

    def uninstall(self) -> None:
        self.profiler.uninstall()
        self.patches.undo()
        self.probe.on_run = None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        counters: Dict[str, int] = defaultdict(int)
        for net in self.networks:
            for key, value in net.allocation_counters().items():
                counters[key] += value
        stats: Dict[str, int] = defaultdict(int)
        for proxy in self.proxies:
            for key, value in proxy.stats().items():
                stats[key] += value
        solves = counters["solve_calls"]
        events = self.probe.events
        queries = sorted(self.query_s)

        def pct(q: int) -> float:
            # Nearest rank, as the repository's loop-latency tables use.
            if not queries:
                return 0.0
            return queries[max(0, -(-q * len(queries) // 100) - 1)] * 1e6

        out: Dict[str, Tuple[float, str]] = {
            "simkernel.events": (events, "count"),
            "simkernel.events_per_s": (events / untraced_wall_s, "1/s"),
            "simkernel.periodic_fires": (
                sum(process.fire_count for process in self.processes),
                "count",
            ),
            "simkernel.truncated_runs": (self.probe.truncated_runs, "count"),
            "network.solves": (solves, "count"),
            "network.full_solves": (counters["full_solves"], "count"),
            "network.flows_touched": (counters["flows_touched"], "count"),
            "network.flows_per_solve": (
                counters["flows_touched"] / solves if solves else 0.0,
                "count",
            ),
            "network.same_instant_solve_frac": (
                self.same_instant_solves / solves if solves else 0.0,
                "ratio",
            ),
            "network.solve_s": (self.inclusive_s["network.solve"], "s"),
            "network.solve_us_mean": (
                self.inclusive_s["network.solve"] / solves * 1e6 if solves else 0.0,
                "us",
            ),
            "network.maxmin_s": (self.inclusive_s["network.maxmin"], "s"),
            "video.sessions": (self.calls["video.sessions"], "count"),
            "web.pageloads": (self.calls["web.pageloads"], "count"),
            "core.glass_queries_served": (self.calls["core.glass_query"], "count"),
            "telemetry.beacons": (self.calls["telemetry.beacons"], "count"),
            "telemetry.flushes": (self.calls["telemetry.flushes"], "count"),
            "transport.queries": (stats["queries_sent"], "count"),
            "transport.query_p50_us": (pct(50), "us"),
            "transport.query_p99_us": (pct(99), "us"),
            "transport.codec_s": (self.inclusive_s["transport.codec"], "s"),
            "transport.retries": (stats["retries_used"], "count"),
            "obs.trace_events": (self.calls["obs.trace_events"], "count"),
            "obs.loop_analysis_s": (self.inclusive_s["obs.loop_analysis"], "s"),
            "scenarios.compile_s": (self.inclusive_s["scenarios.compile"], "s"),
            "traced_wall_s": (traced_wall_s, "s"),
            "unattributed_s": (self.clock.self_s[ROOT], "s"),
            "tracing_overhead_frac": (traced_wall_s / untraced_wall_s - 1.0, "ratio"),
        }
        for layer in LAYERS + ("other",):
            out[f"{layer}.self_s"] = (self.clock.self_s[layer], "s")
        return out
