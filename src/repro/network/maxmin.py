"""Weighted max-min fair bandwidth allocation with per-flow demand caps.

The allocator implements progressive filling: a per-unit-weight water
level rises uniformly, so every unfrozen flow's rate grows at
``weight`` times the level, until either a link saturates (its flows
freeze at the water level) or a flow reaches its demand cap (it freezes
at its demand).  The result is the unique weighted max-min fair
allocation subject to demands, the allocation used by the fluid
simulator whenever the flow set changes.  With all weights at the
default 1.0 the arithmetic reduces exactly to the classic unweighted
filling, which the equivalence property tests pin.

Shared levels: a flow still unfrozen in some round has been unfrozen
since round 0, so its level is ``0.0 + d0*w + d1*w + ...`` over the same
increments ``d`` as every other unfrozen flow of weight ``w``.  One level
per distinct weight therefore carries exactly the floats a per-flow level
would, and one headroom per distinct ``(weight, demand)`` pair is exactly
each member's headroom.  ``tests/network/test_maxmin_oracle.py`` pins the
result, values and key order, to the per-flow reference.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.network.flows import Flow

_EPS = 1e-9

#: One unfrozen flow: ``(flow_id, weight, demand, demand - _EPS, link_ids)``.
_Entry = Tuple[str, float, float, float, List[str]]


def max_min_allocation(flows: Iterable[Flow]) -> Dict[str, float]:
    """Compute weighted max-min fair rates for ``flows``.

    Link capacities are read from each flow's path links.  Flows with an
    empty path are granted their full demand (they traverse no shared
    resource).  Flow objects are *not* mutated; the caller applies the
    returned mapping ``flow_id -> rate_mbps``.  Flow ids must be unique.

    The allocation satisfies, and the property-based tests verify:

    * feasibility -- no link's capacity is exceeded;
    * demand caps -- no flow exceeds its demand;
    * max-min optimality -- a flow below its demand is bottlenecked on
      some saturated link where its per-weight rate is maximal;
    * weighted fairness -- two flows sharing a bottleneck and below
      demand receive rates proportional to their weights.
    """
    rates: Dict[str, float] = {}

    # Per-link bookkeeping over the links actually used.  ``link_weight``
    # is the total weight of unfrozen flows crossing the link, so the
    # per-unit-weight increment consumes ``delta * link_weight`` of it.
    remaining: Dict[str, float] = {}
    link_weight: Dict[str, float] = {}
    active: List[_Entry] = []
    levels: Dict[float, float] = {}
    # Unfrozen flows per finite (weight, demand) pair: their headrooms.
    capped: Dict[Tuple[float, float], int] = {}
    for flow in flows:
        if flow.done:
            continue
        demand = flow.demand_mbps
        if not flow.path:
            rates[flow.flow_id] = demand if math.isfinite(demand) else math.inf
            continue
        weight = flow.weight
        link_ids = []
        for link in flow.path:
            link_id = link.link_id
            link_ids.append(link_id)
            if link_id in link_weight:
                link_weight[link_id] += weight
            else:
                link_weight[link_id] = float(weight)
                remaining[link_id] = link.capacity_mbps
        active.append((flow.flow_id, weight, demand, demand - _EPS, link_ids))
        levels[weight] = 0.0
        if demand != math.inf:
            capped[weight, demand] = capped.get((weight, demand), 0) + 1

    # Unfrozen weight only ever falls, so a link at or below _EPS can
    # never again bound the increment or saturate: drop it for good.
    live = [link_id for link_id, weight_sum in link_weight.items() if weight_sum > _EPS]

    while active:
        # Largest uniform per-weight increment before a link saturates...
        delta = math.inf
        for link_id in live:
            share = remaining[link_id] / link_weight[link_id]
            if share < delta:
                delta = share
        # ...or a flow hits its demand cap (infinite demands never do).
        for weight, demand in capped:
            headroom = (demand - levels[weight]) / weight
            if headroom < delta:
                delta = headroom

        if not math.isfinite(delta):
            # Only infinite-demand flows on unconstrained links remain;
            # this cannot happen for capacitated paths, so guard anyway.
            for entry in active:
                rates[entry[0]] = math.inf
            break

        if delta < 0.0:
            delta = 0.0
        for weight in levels:
            levels[weight] += delta * weight
        for link_id in live:
            remaining[link_id] -= delta * link_weight[link_id]

        saturated = {link_id for link_id in live if remaining[link_id] <= _EPS}

        still_active: List[_Entry] = []
        for entry in active:
            flow_id, weight, demand, floor, link_ids = entry
            level = levels[weight]
            if level >= floor or not saturated.isdisjoint(link_ids):
                rates[flow_id] = min(level, demand)
                for link_id in link_ids:
                    link_weight[link_id] -= weight
                if demand != math.inf:
                    key = (weight, demand)
                    capped[key] -= 1
                    if not capped[key]:
                        del capped[key]
            else:
                still_active.append(entry)
        if len(still_active) == len(active):
            # Numerical stall guard: freeze everything at current level.
            for flow_id, weight, demand, _floor, _link_ids in active:
                rates[flow_id] = min(levels[weight], demand)
            break
        active = still_active
        live = [link_id for link_id in live if link_weight[link_id] > _EPS]

    return rates
