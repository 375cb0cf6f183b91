"""The stateful, incremental max-min allocation engine.

:class:`AllocationEngine` keeps the flow–link bookkeeping of a
:class:`~repro.network.fluidsim.FluidNetwork` alive across allocation
calls.  The network tells the engine *what changed* (a flow started,
finished, changed demand, moved to a new path; a link's capacity moved)
and the engine re-solves only the flows that can possibly be affected:
the connected component of the flow–link sharing graph reachable from
the dirty flows and links.

Why this is exact: the max-min fair allocation decomposes over the
connected components of the flow–link graph — a flow's rate depends
only on flows it (transitively) shares a link with.  Re-solving one
closed component with the original link capacities therefore yields
exactly the rates a from-scratch solve over all flows would, which the
equivalence property test pins to 1e-6.

When the dirty component spans most of the network (churn touching
everything, e.g. a core-link capacity change) the engine falls back to
one full solve — the component walk would cost as much as solving, so
there is nothing to save.  The fraction is the
``full_solve_fraction`` knob of :class:`EngineConfig`.

The engine also maintains per-link load totals incrementally, so the
network only refreshes statistics of links whose load actually moved.
Counters (:class:`EngineCounters`) make the saving observable:
``bench_allocator.py`` asserts the flash-crowd workload does strictly
fewer full solves with the engine than a from-scratch-per-change
baseline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.network.flows import Flow
from repro.network.maxmin import max_min_allocation
from repro.network.topology import Link
from repro.obs.trace import TRACER


@dataclass
class EngineConfig:
    """Tuning knobs of the allocation engine.

    Attributes:
        max_rate_mbps: Cap applied to any single flow (end-host NIC
            stand-in; also keeps infinite-demand, empty-path rates finite).
        full_solve_fraction: When the dirty component contains at least
            this fraction of all active flows, do a full solve instead
            of an incremental one.
        incremental: Master switch; ``False`` forces a full solve on
            every change (the from-scratch baseline the benchmarks
            compare against).
    """

    max_rate_mbps: float = 1e5
    full_solve_fraction: float = 0.6
    incremental: bool = True


@dataclass
class EngineCounters:
    """Observable cost of the allocation path.

    Attributes:
        solve_calls: Total :meth:`AllocationEngine.solve` invocations.
        full_solves: Calls that re-solved every active flow.
        incremental_solves: Calls that re-solved only a dirty component.
        noop_solves: Calls with nothing dirty (no work done).
        flows_touched: Cumulative number of flows passed to the solver.
        flows_active_peak: Largest concurrent flow count seen.
    """

    solve_calls: int = 0
    full_solves: int = 0
    incremental_solves: int = 0
    noop_solves: int = 0
    flows_touched: int = 0
    flows_active_peak: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "solve_calls": self.solve_calls,
            "full_solves": self.full_solves,
            "incremental_solves": self.incremental_solves,
            "noop_solves": self.noop_solves,
            "flows_touched": self.flows_touched,
            "flows_active_peak": self.flows_active_peak,
        }


@dataclass
class SolveResult:
    """What one :meth:`AllocationEngine.solve` call recomputed.

    Attributes:
        mode: ``"full"``, ``"incremental"``, or ``"noop"``.
        rates: New rate for every flow the solver touched (already
            capped at ``max_rate_mbps``).
        changed_links: Links whose aggregate load moved since the last
            solve (including links drained by removed/rerouted flows).
    """

    mode: str
    rates: Dict[str, float] = field(default_factory=dict)
    changed_links: Set[str] = field(default_factory=set)


class AllocationEngine:
    """Incremental max-min allocator with persistent bookkeeping.

    The owner (normally :class:`~repro.network.fluidsim.FluidNetwork`)
    routes every state change through the mutation methods below, then
    calls :meth:`solve` to bring rates up to date.  The engine is the
    single writer of its flows' allocation state between mutations: it
    keeps the applied rate per flow and the applied load per link, so it
    can both (a) seed the dirty-component walk and (b) report exactly
    which link loads moved.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.counters = EngineCounters()
        self._flows: Dict[str, Flow] = {}
        # link_id -> ids of flows currently routed over the link.
        self._members: Dict[str, Set[str]] = {}
        # flow_id -> the path whose link loads include this flow's rate.
        self._applied_path: Dict[str, List[Link]] = {}
        # flow_id -> the rate currently counted into link loads.
        self.rates: Dict[str, float] = {}
        self.link_loads: Dict[str, float] = {}
        self._dirty_flows: Set[str] = set()
        self._dirty_links: Set[str] = set()
        self._changed_links: Set[str] = set()

    # ------------------------------------------------------------------
    # mutations (the network's change notifications)
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        """Register a newly started flow."""
        flow_id = flow.flow_id
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id!r} already registered")
        self._flows[flow_id] = flow
        self._applied_path[flow_id] = list(flow.path)
        self.rates[flow_id] = 0.0
        for link in flow.path:
            self._members.setdefault(link.link_id, set()).add(flow_id)
        self._dirty_flows.add(flow_id)
        if len(self._flows) > self.counters.flows_active_peak:
            self.counters.flows_active_peak = len(self._flows)

    def remove_flow(self, flow: Flow) -> None:
        """Drop a completed or aborted flow.  Idempotent."""
        flow_id = flow.flow_id
        if flow_id not in self._flows:
            return
        rate = self.rates.pop(flow_id, 0.0)
        for link in self._applied_path.pop(flow_id, ()):
            link_id = link.link_id
            members = self._members.get(link_id)
            if members is not None:
                members.discard(flow_id)
            if rate != 0.0:  # simlint: ignore[float-eq] -- exact sentinel, never arithmetic
                self.link_loads[link_id] = self.link_loads.get(link_id, 0.0) - rate
                self._changed_links.add(link_id)
            # The survivors on this link may now speed up.
            self._dirty_links.add(link_id)
        del self._flows[flow_id]
        self._dirty_flows.discard(flow_id)

    def update_demand(self, flow: Flow) -> None:
        """Note that ``flow.demand_mbps`` changed."""
        if flow.flow_id in self._flows:
            self._dirty_flows.add(flow.flow_id)

    def update_weight(self, flow: Flow) -> None:
        """Note that ``flow.weight`` changed."""
        if flow.flow_id in self._flows:
            self._dirty_flows.add(flow.flow_id)

    def set_path(self, flow: Flow, new_path: List[Link]) -> None:
        """Move a flow onto ``new_path``, updating all bookkeeping.

        The engine performs the ``flow.path`` assignment itself so the
        membership maps and link loads can never drift from the flow
        objects.
        """
        flow_id = flow.flow_id
        if flow_id not in self._flows:
            flow.path = list(new_path)
            return
        rate = self.rates.get(flow_id, 0.0)
        for link in self._applied_path[flow_id]:
            link_id = link.link_id
            members = self._members.get(link_id)
            if members is not None:
                members.discard(flow_id)
            if rate != 0.0:  # simlint: ignore[float-eq] -- exact sentinel, never arithmetic
                self.link_loads[link_id] = self.link_loads.get(link_id, 0.0) - rate
                self._changed_links.add(link_id)
            self._dirty_links.add(link_id)
        flow.path = list(new_path)
        self._applied_path[flow_id] = list(new_path)
        for link in new_path:
            link_id = link.link_id
            self._members.setdefault(link_id, set()).add(flow_id)
            if rate != 0.0:  # simlint: ignore[float-eq] -- exact sentinel, never arithmetic
                self.link_loads[link_id] = self.link_loads.get(link_id, 0.0) + rate
                self._changed_links.add(link_id)
        self._dirty_flows.add(flow_id)

    def update_capacity(self, link_id: str) -> None:
        """Note that a link's capacity changed (value lives on the Link)."""
        self._dirty_links.add(link_id)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Bring rates up to date; returns what was recomputed."""
        self.counters.solve_calls += 1
        if not self._dirty_flows and not self._dirty_links:
            self.counters.noop_solves += 1
            self._refresh_changed_loads()
            return SolveResult("noop", {}, self._drain_changed())

        total = len(self._flows)
        full_at = self.config.full_solve_fraction * total
        incremental = self.config.incremental and total > 0
        touched = self._affected_flows(full_at) if incremental else set()
        if not incremental or len(touched) >= full_at:
            mode = "full"
            self.counters.full_solves += 1
            targets = list(self._flows.values())
        else:
            mode = "incremental"
            self.counters.incremental_solves += 1
            targets = [self._flows[flow_id] for flow_id in touched]
        self.counters.flows_touched += len(targets)

        raw = max_min_allocation(targets)
        cap = self.config.max_rate_mbps
        rates = self.rates
        link_loads = self.link_loads
        changed_links = self._changed_links
        new_rates: Dict[str, float] = {}
        for flow in targets:
            flow_id = flow.flow_id
            rate = min(raw.get(flow_id, 0.0), cap)
            new_rates[flow_id] = rate
            old_rate = rates.get(flow_id, 0.0)
            if rate == old_rate:
                continue
            delta = rate - old_rate
            for link in self._applied_path[flow_id]:
                link_id = link.link_id
                link_loads[link_id] = link_loads.get(link_id, 0.0) + delta
                changed_links.add(link_id)
            rates[flow_id] = rate

        self._dirty_flows.clear()
        self._dirty_links.clear()
        self._refresh_changed_loads()
        if TRACER.enabled:
            # Noop solves are skipped: at one solve per network change
            # they would dominate the trace with zero-information events.
            TRACER.emit(
                "allocator-solve",
                mode=mode,
                flows_solved=len(targets),
                flows_active=total,
            )
        return SolveResult(mode, new_rates, self._drain_changed())

    def active_flow_count(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _refresh_changed_loads(self) -> None:
        """Recompute each changed link's load exactly from member rates.

        The per-mutation delta updates keep loads usable between solves,
        but accumulated deltas drift by float residue (a drained link
        ends at ``-1e-16`` instead of ``0.0``).  Summing the members in
        sorted order at each solve boundary makes the reported loads
        exact and run-to-run deterministic.
        """
        for link_id in self._changed_links:
            members = self._members.get(link_id)
            if members:
                self.link_loads[link_id] = sum(
                    self.rates.get(flow_id, 0.0) for flow_id in sorted(members)
                )
            else:
                self.link_loads[link_id] = 0.0

    def _drain_changed(self) -> Set[str]:
        changed = self._changed_links
        self._changed_links = set()
        return changed

    def _affected_flows(self, full_at: float) -> Set[str]:
        """Closure of the dirty seeds over the flow–link sharing graph.

        Every link reached contributes *all* its member flows, so the
        returned set is closed: no untouched flow shares a link with a
        touched one, which is what makes the component solve exact.
        The walk stops early once ``full_at`` flows are touched: the
        solve is then full, so the rest of the closure is never read.
        """
        touched: Set[str] = set()
        seen_links: Set[str] = set()
        pending: deque = deque()
        for flow_id in self._dirty_flows:
            if flow_id in self._flows and flow_id not in touched:
                touched.add(flow_id)
                pending.append(flow_id)
        for link_id in self._dirty_links:
            if link_id in seen_links:
                continue
            seen_links.add(link_id)
            for flow_id in self._members.get(link_id, ()):
                if flow_id not in touched:
                    touched.add(flow_id)
                    pending.append(flow_id)
        while pending and len(touched) < full_at:
            flow_id = pending.popleft()
            for link in self._flows[flow_id].path:
                link_id = link.link_id
                if link_id in seen_links:
                    continue
                seen_links.add(link_id)
                for other_id in self._members.get(link_id, ()):
                    if other_id not in touched:
                        touched.add(other_id)
                        pending.append(other_id)
        return touched

    def check_consistency(self, flows: Iterable[Flow]) -> None:
        """Assert bookkeeping matches ``flows`` (test/debug helper)."""
        expected = {flow.flow_id: flow for flow in flows if not flow.done}
        if set(expected) != set(self._flows):
            raise AssertionError(
                f"flow registry drift: engine={sorted(self._flows)} "
                f"expected={sorted(expected)}"
            )
        loads: Dict[str, float] = {}
        for flow_id, path in self._applied_path.items():
            rate = self.rates.get(flow_id, 0.0)
            for link in path:
                loads[link.link_id] = loads.get(link.link_id, 0.0) + rate
        for link_id, load in loads.items():
            if abs(self.link_loads.get(link_id, 0.0) - load) > 1e-6:
                raise AssertionError(
                    f"link {link_id}: tracked load "
                    f"{self.link_loads.get(link_id, 0.0)} != recomputed {load}"
                )
