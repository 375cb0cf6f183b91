"""Scenario schema: validated, declarative world descriptions (DESIGN.md §12).

A scenario spec is pure data -- ordered topology build directives, CDN
placement, session populations with arrival processes, phase timelines,
and fault plans.  The classes only *declare* their fields (type, YAML
key, allowed values, numeric bound); :mod:`repro.core.schemas`' decoder
parses them structurally (unknown keys are errors, with the offending
path in the message) and calls each class's ``check_fields`` for the
rules that span fields.  :meth:`ScenarioSpec.validate` checks the rest
referentially (dangling node/link/group references, duplicate names,
fault events on unknown links).  The engine
(:mod:`repro.scenarios.engine`) compiles a spec into a live world; this
module never touches the simulator, so specs can be validated anywhere
(CLI, CI) without building anything.

Parameterisation: a spec declares named defaults under ``params`` and
any numeric field may reference one as ``"$name"``.
:meth:`ScenarioSpec.resolve` substitutes them and checks every declared
bound in one pass, at validate time (default params) and at compile
time (with overrides), so one committed spec serves a whole family of
worlds (``build_scenario("flash-crowd", params={"n_clients": 50})``).

Determinism contract: the ``build`` list is *ordered* and the engine
replays it verbatim -- node and link insertion order pins RNG stream
identities and event tie-breaking, which is what lets a declarative
twin reproduce a hand-coded world byte-for-byte (the PR's equivalence
gate).  Auto link ids follow the topology convention ``"src->dst"``,
so fault targets and egress links resolve statically, without a world.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.schemas import (
    NumberOrRef,
    SchemaError,
    dataclass_from_dict,
    dataclass_to_dict,
    declare,
    is_number,
    number,
    resolve_refs,
)
from repro.faults.plan import FaultEvent, FaultPlan, get_plan
from repro.network.topology import NodeKind

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "TopologySpec",
    "NodeDirective",
    "LinkDirective",
    "GroupDirective",
    "CatalogSpec",
    "ServerSpec",
    "CdnSpec",
    "EgressSpec",
    "WebSpec",
    "PopulationSpec",
    "PhaseSpec",
    "FaultEventSpec",
    "FaultPlanSpec",
    "TopologyPlan",
]

#: Fault kinds a spec may declare inline.  Only link faults resolve
#: statically (link ids are derivable from the topology section); glass
#: and provider faults need live objects, so they arrive via ``use:``
#: references into the named-plan registry (PR 5).
INLINE_FAULT_KINDS: Tuple[str, ...] = ("link-cut", "link-kill", "link-restore")

#: Arrival processes a population may declare, with (required, optional)
#: rate keys.  Mirrors repro.workloads.arrivals.
PROCESS_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "poisson": (("rate_per_s",), ()),
    "flash-crowd": (
        ("base_per_s", "peak_per_s", "onset_s", "ramp_s", "duration_s"),
        (),
    ),
    "diurnal": (("mean_per_s",), ("amplitude", "period_s", "peak_at_s")),
}

#: ``sessions`` drives individual sessions through an arrival process;
#: ``cohort`` declares per-device rates for the vectorized cohort path
#: (BatchedPoissonArrivals / CohortEngine, DESIGN.md §11).
POPULATION_MODES: Tuple[str, ...] = ("sessions", "cohort")

_NODE_KINDS: Dict[str, NodeKind] = {kind.value: kind for kind in NodeKind}
_NODE_KIND_NAMES: Tuple[str, ...] = tuple(sorted(_NODE_KINDS))

_LINK_DIRECTIONS: Tuple[str, ...] = ("to-member", "from-member")


class ScenarioError(ValueError):
    """A malformed scenario spec; the message carries the spec path."""


# ---------------------------------------------------------------------------
# topology directives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeDirective:
    """``{node: {id, kind, owner, tags}}`` -- one topology node."""

    node_id: str = declare(key="id", nonempty=True)
    kind: str = declare("router", choices=_NODE_KIND_NAMES)
    owner: str = ""
    tags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LinkDirective:
    """``{link: {src, dst, capacity_mbps, ...}}`` -- one directed link.

    ``alias`` names the link for the rest of the spec (fault targets,
    egress links, bundle fields); the canonical id stays the topology
    convention ``"src->dst"``.
    """

    src: str = declare(nonempty=True)
    dst: str = declare(nonempty=True)
    capacity_mbps: NumberOrRef = number(positive=True)
    delay_ms: NumberOrRef = number(1.0, minimum=0)
    owner: str = ""
    tags: Tuple[str, ...] = ()
    alias: str = ""


@dataclass(frozen=True)
class GroupDirective:
    """``{group: {...}}`` -- a homogeneous population of attached nodes.

    Expands, *in order*, to ``count`` interleaved (node, link) pairs:
    member ``i`` is named ``f"{prefix}{i}"`` and linked to ``attach``
    (``direction: to-member`` gives attach->member, the client shape;
    ``from-member`` gives member->attach, the server-uplink shape).
    """

    name: str = declare(nonempty=True)
    prefix: str = declare(nonempty=True)
    count: NumberOrRef = number(integer=True, minimum=1)
    attach: str = declare(nonempty=True)
    capacity_mbps: NumberOrRef = number(positive=True)
    delay_ms: NumberOrRef = number(5.0, minimum=0)
    kind: str = declare("client", choices=_NODE_KIND_NAMES)
    owner: str = ""
    link_owner: str = ""
    tags: Tuple[str, ...] = ()
    direction: str = declare("to-member", choices=_LINK_DIRECTIONS)


Directive = Union[NodeDirective, LinkDirective, GroupDirective]

_DIRECTIVE_TYPES = {
    "node": NodeDirective,
    "link": LinkDirective,
    "group": GroupDirective,
}


@dataclass(frozen=True)
class TopologySpec:
    """The ordered build list; order is part of the determinism contract.

    Each entry is written ``{node: ...}``, ``{link: ...}`` or
    ``{group: ...}``.
    """

    build: Tuple[Directive, ...] = declare(nonempty=True, tagged=_DIRECTIVE_TYPES)
    name: str = ""


# ---------------------------------------------------------------------------
# content, CDNs, egress, web
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogSpec:
    """Mirrors :class:`repro.cdn.content.ContentCatalog`'s knobs."""

    items: NumberOrRef = number(integer=True, minimum=1)
    duration_s: NumberOrRef = number(120.0, positive=True)
    zipf_alpha: NumberOrRef = number(1.0, minimum=0)


@dataclass(frozen=True)
class ServerSpec:
    """One CDN server -- explicit (``id`` + ``node``) or expanded over a
    topology group (``group`` + ``id_format``, ``{node}``/``{index}``
    placeholders)."""

    server_id: str = declare("", key="id")
    node: str = ""
    group: str = ""
    id_format: str = ""
    capacity_sessions: NumberOrRef = number(10_000, integer=True, minimum=1)
    cache_mbit: NumberOrRef = number(10_000.0, positive=True)
    degraded_rate_mbps: Optional[NumberOrRef] = number(None, positive=True)

    def check_fields(self, where: str) -> None:
        explicit = (self.server_id, self.node)
        grouped = (self.group, self.id_format)
        if not (
            (all(explicit) and not any(grouped))
            or (all(grouped) and not any(explicit))
        ):
            raise ScenarioError(
                f"{where}: declare either id+node or group+id_format, not both/neither"
            )


@dataclass(frozen=True)
class CdnSpec:
    name: str = declare(nonempty=True)
    servers: Tuple[ServerSpec, ...] = declare(nonempty=True)
    origin: str = ""
    warm_top_fraction: Optional[NumberOrRef] = number(None, minimum=0)


@dataclass(frozen=True)
class EgressSpec:
    """Mirrors :class:`repro.sdn.te.EgressGroup`; links hold link *refs*
    (alias or canonical id), resolved against the topology plan."""

    name: str = declare(nonempty=True)
    remote: str = declare(nonempty=True)
    candidates: Tuple[str, ...] = declare(nonempty=True)
    links: Mapping[str, str] = declare()
    preferred: str = ""


@dataclass(frozen=True)
class WebSpec:
    """A web-browsing workload: one server, a client group, and (for
    cellular worlds) per-client radio processes on the access links."""

    server_node: str = declare(nonempty=True)
    clients: str = declare(nonempty=True)
    radio_tick_s: Optional[NumberOrRef] = number(None, positive=True)
    radio_stream: str = "radio"


# ---------------------------------------------------------------------------
# populations, phases, faults
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationSpec:
    """A session population over one topology group.

    ``rate`` keys depend on ``process`` (see :data:`PROCESS_KINDS`);
    cohort-mode populations declare ``rate_per_device_s`` instead and
    feed the vectorized path.
    """

    name: str = declare(nonempty=True)
    group: str = declare(nonempty=True)
    process: str = declare(choices=tuple(PROCESS_KINDS))
    rate: Mapping[str, NumberOrRef] = number(minimum=0)
    mode: str = declare("sessions", choices=POPULATION_MODES)
    until_s: Optional[NumberOrRef] = number(None, minimum=0)
    max_sessions: Optional[NumberOrRef] = number(None, integer=True, minimum=1)

    def check_fields(self, where: str) -> None:
        if self.mode == "cohort":
            if self.process != "poisson":
                raise ScenarioError(
                    f"{where}: cohort mode supports only the poisson process"
                )
            required: Tuple[str, ...] = ("rate_per_device_s",)
            allowed = required
        else:
            required, optional = PROCESS_KINDS[self.process]
            allowed = required + optional
        unknown = sorted(set(self.rate) - set(allowed))
        if unknown:
            raise ScenarioError(
                f"{where}.rate: unknown key(s) {', '.join(map(repr, unknown))}"
                f" for process {self.process!r} (known: {', '.join(allowed)})"
            )
        missing = sorted(set(required) - set(self.rate))
        if missing:
            raise ScenarioError(
                f"{where}.rate: missing required key(s) {', '.join(missing)}"
                f" for process {self.process!r}"
            )


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of the scenario's arc; compiled to a ``phase-transition``
    trace event at ``at_s`` (when tracing is on)."""

    name: str = declare(nonempty=True)
    at_s: NumberOrRef = number(minimum=0)
    end_s: Optional[NumberOrRef] = number(None, minimum=0)


@dataclass(frozen=True)
class FaultEventSpec:
    """One inline fault event; ``link`` is a link ref (alias or id).

    Glass and provider faults need live objects, so they come via a
    named plan (``use:``) rather than inline.
    """

    at_s: NumberOrRef = number(minimum=0)
    kind: str = declare(choices=INLINE_FAULT_KINDS)
    link: str = declare(nonempty=True)
    capacity_mbps: Optional[NumberOrRef] = number(None, positive=True)
    factor: Optional[NumberOrRef] = number(None, minimum=0)

    def check_fields(self, where: str) -> None:
        sized = self.capacity_mbps is not None or self.factor is not None
        if self.kind == "link-cut" and not sized:
            raise ScenarioError(f"{where}: link-cut needs capacity_mbps or factor")
        if self.kind != "link-cut" and sized:
            raise ScenarioError(f"{where}: {self.kind} takes no capacity_mbps/factor")


@dataclass(frozen=True)
class FaultPlanSpec:
    """An inline event list *or* a ``use:`` reference into the named-plan
    registry (:func:`repro.faults.plan.register_plan`)."""

    name: str = ""
    description: str = ""
    events: Tuple[FaultEventSpec, ...] = ()
    use: str = ""

    def check_fields(self, where: str) -> None:
        if bool(self.use) == bool(self.events):
            raise ScenarioError(f"{where}: declare either events or use, not both/neither")
        if self.events and not self.name:
            raise ScenarioError(f"{where}: inline plans need a name")


# ---------------------------------------------------------------------------
# the expanded (params-resolved) topology plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannedNode:
    node_id: str
    kind: NodeKind
    owner: str
    tags: Tuple[str, ...]


@dataclass(frozen=True)
class PlannedLink:
    src: str
    dst: str
    capacity_mbps: Any
    delay_ms: Any
    owner: str
    tags: Tuple[str, ...]
    link_id: str
    alias: str = ""


@dataclass
class GroupPlan:
    name: str
    nodes: List[str] = field(default_factory=list)
    links: List[str] = field(default_factory=list)


@dataclass
class TopologyPlan:
    """A spec's topology, expanded with resolved params.

    ``steps`` preserves directive order (groups interleave their member
    nodes and links) so the engine can replay construction exactly.
    """

    name: str
    steps: List[Tuple[str, Any]] = field(default_factory=list)
    groups: Dict[str, GroupPlan] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)
    node_ids: Dict[str, PlannedNode] = field(default_factory=dict)
    link_ids: Dict[str, PlannedLink] = field(default_factory=dict)

    def _add_node(self, node: PlannedNode, where: str) -> None:
        if node.node_id in self.node_ids:
            raise ScenarioError(f"{where}: duplicate node id {node.node_id!r}")
        self.node_ids[node.node_id] = node
        self.steps.append(("node", node))

    def _add_link(self, link: PlannedLink, where: str) -> None:
        for endpoint in (link.src, link.dst):
            if endpoint not in self.node_ids:
                raise ScenarioError(f"{where}: unknown node {endpoint!r}")
        if link.link_id in self.link_ids:
            raise ScenarioError(f"{where}: duplicate link {link.link_id!r}")
        if link.alias:
            if link.alias in self.aliases:
                raise ScenarioError(f"{where}: duplicate link alias {link.alias!r}")
            self.aliases[link.alias] = link.link_id
        self.link_ids[link.link_id] = link
        self.steps.append(("link", link))

    def resolve_link(self, ref: str, where: str) -> str:
        """An alias or canonical ``src->dst`` id -> canonical id."""
        if ref in self.aliases:
            return self.aliases[ref]
        if ref in self.link_ids:
            return ref
        known = sorted(self.aliases) + sorted(self.link_ids)
        raise ScenarioError(
            f"{where}: unknown link {ref!r} (known: {', '.join(known)})"
        )

    def group(self, name: str, where: str) -> GroupPlan:
        if name not in self.groups:
            raise ScenarioError(
                f"{where}: unknown group {name!r}"
                f" (known: {', '.join(sorted(self.groups)) or 'none'})"
            )
        return self.groups[name]


def _inline_plan(spec: FaultPlanSpec, plan: TopologyPlan, where: str) -> FaultPlan:
    """Compile one resolved inline fault plan against the topology plan."""
    events = []
    for index, event in enumerate(spec.events):
        params = {
            key: value
            for key, value in (
                ("capacity_mbps", event.capacity_mbps), ("factor", event.factor)
            )
            if value is not None
        }
        events.append(
            FaultEvent(
                time_s=event.at_s,
                kind=event.kind,
                target=plan.resolve_link(event.link, f"{where}.events[{index}].link"),
                params=params,
            )
        )
    return FaultPlan(name=spec.name, events=tuple(events), description=spec.description)


# ---------------------------------------------------------------------------
# the scenario spec itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario; see the module docstring."""

    name: str = declare(nonempty=True)
    topology: TopologySpec = declare()
    title: str = ""
    description: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    catalog: Optional[CatalogSpec] = None
    cdns: Tuple[CdnSpec, ...] = ()
    egress: Tuple[EgressSpec, ...] = ()
    web: Optional[WebSpec] = None
    populations: Tuple[PopulationSpec, ...] = ()
    phases: Tuple[PhaseSpec, ...] = ()
    faults: Tuple[FaultPlanSpec, ...] = ()

    def check_fields(self, where: str) -> None:
        for key, value in self.params.items():
            if not is_number(value):
                raise ScenarioError(
                    f"{where}.params.{key}: defaults must be numbers, got {value!r}"
                )

    # -- parsing -----------------------------------------------------------

    @staticmethod
    def from_dict(data: Any) -> "ScenarioSpec":
        """Decode a dict-shaped spec; unknown keys are errors."""
        try:
            return dataclass_from_dict(  # type: ignore[return-value]
                ScenarioSpec, data, strict=True, where="scenario"
            )
        except SchemaError as error:
            raise ScenarioError(str(error)) from None

    def to_dict(self) -> Dict[str, Any]:
        """The canonical dict form (defaults omitted); ``from_dict``
        round-trips it exactly."""
        return dataclass_to_dict(self)

    # -- resolution --------------------------------------------------------

    def resolved_params(
        self, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Defaults overlaid with ``overrides``; unknown names are errors."""
        params = dict(self.params)
        for key, value in (overrides or {}).items():
            if key not in params:
                raise ScenarioError(
                    f"scenario {self.name!r}: unknown parameter {key!r}"
                    f" (declared: {', '.join(sorted(params)) or 'none'})"
                )
            if not is_number(value):
                raise ScenarioError(
                    f"scenario {self.name!r}: parameter {key!r} must be a number,"
                    f" got {value!r}"
                )
            params[key] = value
        return params

    def resolve(self, params: Optional[Mapping[str, Any]] = None) -> "ScenarioSpec":
        """This spec with every ``$param`` substituted and every bound checked.

        ``params`` overrides the declared defaults; the result's
        ``params`` holds the values used.  Nothing is coerced (an int
        stays an int).  The rules that need numbers -- phase ordering
        and the diurnal amplitude range -- are checked here too, so
        they hold under overrides as well as at the defaults.
        """
        values = self.resolved_params(params)
        try:
            resolved = resolve_refs(self, values, "scenario")
        except SchemaError as error:
            raise ScenarioError(str(error)) from None
        resolved = replace(resolved, params=values)
        resolved._check_numbers()
        return resolved

    def _check_numbers(self) -> None:
        for index, population in enumerate(self.populations):
            amplitude = population.rate.get("amplitude")
            if amplitude is not None and not 0 <= amplitude < 1:
                raise ScenarioError(
                    f"scenario.populations[{index}].rate.amplitude:"
                    f" out of range [0, 1): {amplitude!r}"
                )
        previous: Optional[PhaseSpec] = None
        for index, phase in enumerate(self.phases):
            where = f"scenario.phases[{index}]"
            start, end = phase.at_s, phase.end_s
            if end is not None and end <= start:
                raise ScenarioError(
                    f"{where}: phase {phase.name!r} ends at {end!r}"
                    f" before it starts ({start!r})"
                )
            if previous is not None and start <= previous.at_s:
                raise ScenarioError(
                    f"{where}: phase {phase.name!r} (at_s={start!r}) must start"
                    f" after {previous.name!r} (at_s={previous.at_s!r})"
                )
            if previous is not None and previous.end_s is not None and start < previous.end_s:
                raise ScenarioError(
                    f"{where}: phase {phase.name!r} (at_s={start!r}) overlaps"
                    f" {previous.name!r} (end_s={previous.end_s!r})"
                )
            previous = phase

    def topology_plan(self) -> TopologyPlan:
        """Expand the build list of a resolved spec (pure; no sim)."""
        plan = TopologyPlan(name=self.topology.name or self.name)
        for index, directive in enumerate(self.topology.build):
            where = f"scenario.topology.build[{index}]"
            if isinstance(directive, NodeDirective):
                plan._add_node(
                    PlannedNode(
                        node_id=directive.node_id,
                        kind=_NODE_KINDS[directive.kind],
                        owner=directive.owner,
                        tags=directive.tags,
                    ),
                    where,
                )
            elif isinstance(directive, LinkDirective):
                plan._add_link(
                    PlannedLink(
                        src=directive.src,
                        dst=directive.dst,
                        capacity_mbps=directive.capacity_mbps,
                        delay_ms=directive.delay_ms,
                        owner=directive.owner,
                        tags=directive.tags,
                        link_id=f"{directive.src}->{directive.dst}",
                        alias=directive.alias,
                    ),
                    where,
                )
            else:
                if directive.name in plan.groups:
                    raise ScenarioError(f"{where}: duplicate group {directive.name!r}")
                group = GroupPlan(name=directive.name)
                plan.groups[directive.name] = group
                for member_index in range(directive.count):
                    member = f"{directive.prefix}{member_index}"
                    plan._add_node(
                        PlannedNode(
                            node_id=member,
                            kind=_NODE_KINDS[directive.kind],
                            owner=directive.owner,
                            tags=(),
                        ),
                        where,
                    )
                    if directive.direction == "to-member":
                        src, dst = directive.attach, member
                    else:
                        src, dst = member, directive.attach
                    link = PlannedLink(
                        src=src,
                        dst=dst,
                        capacity_mbps=directive.capacity_mbps,
                        delay_ms=directive.delay_ms,
                        owner=directive.link_owner,
                        tags=directive.tags,
                        link_id=f"{src}->{dst}",
                    )
                    plan._add_link(link, where)
                    group.nodes.append(member)
                    group.links.append(link.link_id)
        return plan

    def fault_plans(self, plan: Optional[TopologyPlan] = None) -> List[FaultPlan]:
        """Compile a resolved spec's fault plans to :class:`FaultPlan` objects.

        Inline plans resolve link refs against the topology plan;
        ``use:`` entries are looked up in the named-plan registry (and
        must be registered -- importing the owning experiment module
        does that).
        """
        if plan is None:
            plan = self.topology_plan()
        compiled: List[FaultPlan] = []
        for index, spec in enumerate(self.faults):
            where = f"scenario.faults[{index}]"
            if not spec.use:
                compiled.append(_inline_plan(spec, plan, where))
                continue
            try:
                named = get_plan(spec.use)
            except KeyError as error:
                raise ScenarioError(f"{where}: {error.args[0]}") from None
            compiled.append(named.factory())
        return compiled

    # -- referential validation -------------------------------------------

    def validate(self) -> None:
        """Resolve at the default params, then cross-reference every
        section against the expanded topology.

        Raises :class:`ScenarioError` on out-of-bound numbers, dangling
        node/link/group references, overlapping or out-of-order phases,
        and fault plans that cannot compile.  ``use:`` plans are checked
        only when the registry knows them (see
        :func:`repro.scenarios.loader.validate_spec` for the strict CLI
        path).
        """
        spec = self.resolve()
        plan = spec.topology_plan()

        seen_cdns = set()
        for index, cdn in enumerate(spec.cdns):
            where = f"scenario.cdns[{index}]"
            if cdn.name in seen_cdns:
                raise ScenarioError(f"{where}: duplicate cdn {cdn.name!r}")
            seen_cdns.add(cdn.name)
            if cdn.warm_top_fraction is not None and spec.catalog is None:
                raise ScenarioError(f"{where}: warm_top_fraction needs a catalog")
            for server_index, server in enumerate(cdn.servers):
                server_where = f"{where}.servers[{server_index}]"
                if server.group:
                    plan.group(server.group, f"{server_where}.group")
                elif server.node not in plan.node_ids:
                    raise ScenarioError(
                        f"{server_where}.node: unknown node {server.node!r}"
                    )
            if cdn.origin and cdn.origin not in plan.node_ids:
                raise ScenarioError(f"{where}.origin: unknown node {cdn.origin!r}")

        for index, group in enumerate(spec.egress):
            where = f"scenario.egress[{index}]"
            if group.remote not in plan.node_ids:
                raise ScenarioError(f"{where}.remote: unknown node {group.remote!r}")
            for candidate in group.candidates:
                if candidate not in plan.node_ids:
                    raise ScenarioError(f"{where}: unknown candidate node {candidate!r}")
            missing = [c for c in group.candidates if c not in group.links]
            if missing:
                raise ScenarioError(f"{where}: no egress link for {missing}")
            for peer, ref in group.links.items():
                plan.resolve_link(ref, f"{where}.links[{peer}]")
            if group.preferred and group.preferred not in group.candidates:
                raise ScenarioError(
                    f"{where}.preferred: {group.preferred!r} not a candidate"
                )

        if spec.web is not None:
            if spec.web.server_node not in plan.node_ids:
                raise ScenarioError(
                    f"scenario.web.server_node: unknown node {spec.web.server_node!r}"
                )
            plan.group(spec.web.clients, "scenario.web.clients")

        seen_populations = set()
        for index, population in enumerate(spec.populations):
            where = f"scenario.populations[{index}]"
            if population.name in seen_populations:
                raise ScenarioError(f"{where}: duplicate population {population.name!r}")
            seen_populations.add(population.name)
            plan.group(population.group, f"{where}.group")

        seen_phases = set()
        for index, phase in enumerate(spec.phases):
            if phase.name in seen_phases:
                raise ScenarioError(
                    f"scenario.phases[{index}]: duplicate phase {phase.name!r}"
                )
            seen_phases.add(phase.name)

        seen_plans = set()
        for index, fault in enumerate(spec.faults):
            where = f"scenario.faults[{index}]"
            # A use: plan without a name goes by the plan it uses.
            name = fault.name or fault.use
            if name in seen_plans:
                raise ScenarioError(f"{where}: duplicate fault plan {name!r}")
            seen_plans.add(name)
            if not fault.use:  # registry membership is checked at compile time
                _inline_plan(fault, plan, where)
