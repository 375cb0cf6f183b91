"""Message schemas carried over the EONA interfaces.

These are the concrete payloads the paper's §4 example derives:

A2I (application → infrastructure):
  * :class:`QoeAggregate` -- client-measured experience per
    (CDN, ISP, ...) group, aggregated, never per-user;
  * :class:`DemandEstimate` -- expected traffic volume toward each CDN,
    so the InfP can plan peering splits.

I2A (infrastructure → application):
  * :class:`PeeringPointInfo` -- the ISP's peering points for a CDN with
    capacity and congestion level;
  * :class:`PeeringDecision` -- which peering the ISP currently uses for
    a CDN's traffic (decision values, not the TE strategy itself);
  * :class:`CongestionSignal` -- explicit congestion attribution
    ("your bottleneck is my access network", Figure 3);
  * :class:`ServerHintInfo` -- a CDN's alternative-server hints.

Every schema serializes with :meth:`to_dict` so the looking glass can
apply field-level narrowing (§4's "narrow interface") uniformly, and
deserializes with :meth:`from_dict` so the wire transport
(:mod:`repro.transport.codec`) can restore typed payloads from the
canonical JSON it ships between processes.

The decoder behind :meth:`from_dict` (:func:`dataclass_from_dict`) is
the repository's one decoder for typed dicts: wire payloads, run
artifacts and scenario specs all go through it.  A field declares its
type by annotation and anything more -- its dict key, allowed values,
non-emptiness, or a ``$param`` number and its bound -- with
:func:`declare` / :func:`number`.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

#: Version tag for the schema vocabulary itself; the wire envelope
#: (``eona-msg/1``, DESIGN.md §14) carries it so a peer can reject
#: payloads minted under an incompatible field set.
SCHEMA_VERSION = "eona-schemas/1"


class SchemaError(ValueError):
    """A payload cannot be restored into its schema dataclass.

    The message starts with the path of the offending field, e.g.
    ``scenario.cdns[0].servers[1].cache_mbit: ...`` or
    ``CongestionSignal.severity: ...``.
    """


def is_number(value: object) -> bool:
    """An int or float literal; ``bool`` is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class NumberOrRef:
    """Annotation marker for a spec number.

    The value is a numeric literal kept exactly as parsed (an int stays
    an int, so a spec cannot move a trace by widening it) or a
    ``"$name"`` reference to a declared parameter.  The decoder checks
    only that shape; :func:`resolve_refs` substitutes references and
    checks the field's :class:`Bound`.
    """


@dataclass(frozen=True)
class Bound:
    """The range a :class:`NumberOrRef` field's resolved value must lie in."""

    minimum: Optional[float] = None
    positive: bool = False
    integer: bool = False

    def resolve(self, value: object, params: Mapping[str, object]) -> object:
        """Substitute a ``$name`` reference, then check the bound.

        Errors carry the reason only; :func:`resolve_refs` prefixes the
        field path.
        """
        if isinstance(value, str) and value.startswith("$"):
            if value[1:] not in params:
                raise SchemaError(
                    f"unknown parameter {value!r}"
                    f" (declared: {', '.join(sorted(params)) or 'none'})"
                )
            value = params[value[1:]]
        if not is_number(value):
            raise SchemaError(f"expected a number, got {value!r}")
        if self.integer and not isinstance(value, int):
            raise SchemaError(f"expected an integer, got {value!r}")
        if self.positive and value <= 0:  # type: ignore[operator]
            raise SchemaError(f"must be > 0, got {value!r}")
        if self.minimum is not None and value < self.minimum:  # type: ignore[operator]
            raise SchemaError(f"must be >= {self.minimum}, got {value!r}")
        return value


def declare(
    default: object = dataclasses.MISSING,
    *,
    key: str = "",
    choices: Tuple[str, ...] = (),
    nonempty: bool = False,
    bound: Optional[Bound] = None,
    tagged: Optional[Mapping[str, type]] = None,
) -> Any:
    """A dataclass field carrying what the decoder needs to know about it.

    Args:
        key: The dict/YAML name when it differs from the attribute
            (``node_id`` is written ``id``).
        choices: The only values a string field may take.
        nonempty: Reject an empty string, list or mapping.
        bound: Marks a :class:`NumberOrRef` field (or a mapping of
            them) and the range its resolved values must lie in.
        tagged: For a tuple of alternatives: each item is written as a
            one-key mapping ``{tag: body}`` and the tag picks its class.
    """
    return field(  # type: ignore[call-overload]
        default=default,
        metadata={
            "key": key,
            "choices": choices,
            "nonempty": nonempty,
            "bound": bound,
            "tagged": tagged,
        },
    )


def number(
    default: object = dataclasses.MISSING,
    *,
    minimum: Optional[float] = None,
    positive: bool = False,
    integer: bool = False,
) -> Any:
    """Shorthand for a :class:`NumberOrRef` field and its :class:`Bound`."""
    return declare(default, bound=Bound(minimum, positive, integer))


@dataclass(frozen=True)
class _Field:
    """One row of a class's field table (see :func:`_field_table`)."""

    name: str
    key: str
    annotation: object
    spec: "dataclasses.Field[Any]"
    required: bool
    #: The annotation can hold a dataclass (directly, optionally or in
    #: a container), so :func:`resolve_refs` must walk into the value.
    nested: bool
    choices: Tuple[str, ...]
    nonempty: bool
    bound: Optional[Bound]
    tagged: Optional[Mapping[str, type]]

    def default(self) -> object:
        if self.spec.default_factory is not dataclasses.MISSING:
            return self.spec.default_factory()
        return self.spec.default

    def tag_of(self, item: object) -> str:
        """The tag a ``tagged`` field writes ``item`` under."""
        tagged = self.tagged or {}
        for tag, cls in tagged.items():
            if type(item) is cls:
                return tag
        raise SchemaError(
            f"{self.key}: {type(item).__name__} is not one of {sorted(tagged)}"
        )


def _holds_dataclass(annotation: object) -> bool:
    if isinstance(annotation, type):
        return dataclasses.is_dataclass(annotation)
    return any(_holds_dataclass(arg) for arg in typing.get_args(annotation))


@functools.lru_cache(maxsize=None)
def _field_table(cls: type) -> Tuple[_Field, ...]:
    """Type hints plus declared metadata, built once per class.

    ``typing.get_type_hints`` costs about 0.1 ms per class and a
    scenario spec decodes ~30 nested objects, so the table is cached;
    it is keyed by class, so it stays as small as the schema vocabulary.
    """
    hints = typing.get_type_hints(cls)
    return tuple(
        _Field(
            name=spec.name,
            key=spec.metadata.get("key") or spec.name,
            annotation=hints.get(spec.name, object),
            spec=spec,
            required=(
                spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
            ),
            nested=_holds_dataclass(hints.get(spec.name, object)),
            choices=spec.metadata.get("choices", ()),
            nonempty=spec.metadata.get("nonempty", False),
            bound=spec.metadata.get("bound"),
            tagged=spec.metadata.get("tagged"),
        )
        for spec in dataclasses.fields(cls)
    )


@functools.lru_cache(maxsize=None)
def _known_keys(cls: type) -> FrozenSet[str]:
    return frozenset(row.key for row in _field_table(cls))


def coerce_value(
    value: object, annotation: object, where: str = "value", strict: bool = False
) -> object:
    """Restore ``value`` (fresh from JSON or YAML) to the annotated type.

    JSON collapses the type lattice -- tuples arrive as lists, int-valued
    floats may arrive as ints -- so deserialization re-widens scalars and
    rebuilds containers recursively (``Dict``/``Mapping``/``Tuple``/
    ``List``/``Optional``/nested dataclasses).  Anything not covered
    (``Any``, untyped ``object``) passes through untouched; genuinely
    wrong shapes raise :class:`SchemaError` naming ``where``.  ``strict``
    is the unknown-key policy handed to nested dataclasses (see
    :func:`dataclass_from_dict`).
    """
    # Scalars and classes first: they are most fields, and need no
    # typing introspection.
    if annotation is str:
        if not isinstance(value, str):
            raise SchemaError(f"{where}: expected str, got {value!r}")
        return value
    if annotation is NumberOrRef:
        if is_number(value) or (
            isinstance(value, str) and value.startswith("$") and len(value) > 1
        ):
            return value
        raise SchemaError(
            f"{where}: expected a number or a '$param' reference, got {value!r}"
        )
    if annotation is float:
        if not is_number(value):
            raise SchemaError(f"{where}: expected float, got {value!r}")
        return float(value)  # type: ignore[arg-type]
    if annotation is int:
        if not is_number(value):
            raise SchemaError(f"{where}: expected int, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise SchemaError(f"{where}: expected int, got non-integral {value!r}")
            return int(value)
        return value
    if annotation is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"{where}: expected bool, got {value!r}")
        return value
    if isinstance(annotation, type):
        if dataclasses.is_dataclass(annotation):
            return dataclass_from_dict(annotation, value, strict, where)
        return value  # object, Any, or an untyped class: passed through
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            if len(args) < len(typing.get_args(annotation)):
                return None
            raise SchemaError(f"{where}: None is not valid for {annotation!r}")
        if len(args) == 1:
            return coerce_value(value, args[0], where, strict)
        return value
    if origin in (dict, collections.abc.Mapping):
        if not isinstance(value, collections.abc.Mapping):
            raise SchemaError(f"{where}: expected mapping, got {value!r}")
        key_type, value_type = typing.get_args(annotation) or (object, object)
        return {
            coerce_value(k, key_type, where, strict): coerce_value(
                v, value_type, f"{where}.{k}", strict
            )
            for k, v in value.items()
        }
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"{where}: expected sequence, got {value!r}")
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        if args and len(args) != len(value):
            raise SchemaError(
                f"{where}: expected {len(args)}-tuple, got {len(value)} items"
            )
        if not args:
            return tuple(value)
        return tuple(
            coerce_value(item, arg, f"{where}[{index}]", strict)
            for index, (item, arg) in enumerate(zip(value, args))
        )
    if origin is list:
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"{where}: expected sequence, got {value!r}")
        (item_type,) = typing.get_args(annotation) or (object,)
        return [
            coerce_value(item, item_type, f"{where}[{index}]", strict)
            for index, item in enumerate(value)
        ]
    return value


def _decode_field(row: _Field, value: object, where: str, strict: bool) -> object:
    if row.tagged is not None:
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"{where}: expected a list, got {value!r}")
        value = tuple(
            _decode_tagged(row.tagged, entry, f"{where}[{index}]", strict)
            for index, entry in enumerate(value)
        )
    else:
        value = coerce_value(value, row.annotation, where, strict)
    if row.nonempty and not value:
        raise SchemaError(f"{where}: must not be empty")
    if row.choices and value not in row.choices:
        raise SchemaError(
            f"{where}: must be one of {', '.join(row.choices)}; got {value!r}"
        )
    return value


def _decode_tagged(
    tagged: Mapping[str, type], entry: object, where: str, strict: bool
) -> object:
    if not isinstance(entry, collections.abc.Mapping) or len(entry) != 1:
        raise SchemaError(
            f"{where}: expected exactly one of {', '.join(sorted(tagged))},"
            f" got {entry!r}"
        )
    ((tag, body),) = entry.items()
    if tag not in tagged:
        raise SchemaError(
            f"{where}: unknown tag {tag!r} (known: {', '.join(sorted(tagged))})"
        )
    return dataclass_from_dict(tagged[tag], body, strict, f"{where}.{tag}")


def dataclass_from_dict(
    cls: type, payload: object, strict: bool = False, where: str = ""
) -> object:
    """Rebuild any dataclass from a ``to_dict`` dict (or its JSON echo).

    Field values are coerced back to the declared types (nested
    containers and dataclasses included, see :func:`coerce_value`) and
    checked against the field's declared metadata (:func:`declare`);
    missing keys fall back to the field default or raise
    :class:`SchemaError`.  Every error names the field path, rooted at
    ``where`` (default: the class name).

    ``strict`` is the unknown-key policy.  The wire ignores unknown keys
    so that a newer peer's extra fields do not break an older reader;
    scenario specs reject them, since there an unknown key is a typo.
    After construction the decoder calls the instance's
    ``check_fields(where)``, when it has one, for rules that span
    fields.
    """
    where = where or cls.__name__
    if not isinstance(payload, collections.abc.Mapping):
        raise SchemaError(f"{where}: expected a mapping, got {type(payload).__name__}")
    table = _field_table(cls)
    if strict:
        known = _known_keys(cls)
        unknown = sorted((key for key in payload if key not in known), key=str)
        if unknown:
            raise SchemaError(
                f"{where}: unknown key(s) {', '.join(map(repr, unknown))}"
                f" (known: {', '.join(sorted(known))})"
            )
    kwargs: Dict[str, object] = {}
    missing = []
    for row in table:
        if row.key in payload:
            kwargs[row.name] = _decode_field(
                row, payload[row.key], f"{where}.{row.key}", strict
            )
        elif row.required:
            missing.append(row.key)
    if missing:
        raise SchemaError(f"{where}: missing required key(s) {', '.join(missing)}")
    instance = cls(**kwargs)
    check = getattr(instance, "check_fields", None)
    if check is not None:
        check(where)
    return instance


def dataclass_to_dict(instance: object) -> Dict[str, object]:
    """The inverse of :func:`dataclass_from_dict` for declared dataclasses.

    Writes each field under its key and omits a field whose value equals
    its default (with the same type, so an int is never dropped in
    favour of a float default).  Tuples become lists, so the result is
    plain YAML/JSON data.
    """
    data: Dict[str, object] = {}
    for row in _field_table(type(instance)):
        value = getattr(instance, row.name)
        if not row.required:
            default = row.default()
            if type(value) is type(default) and value == default:
                continue
        if row.tagged is not None:
            data[row.key] = [{row.tag_of(item): _plain(item)} for item in value]
        else:
            data[row.key] = _plain(value)
    return data


def _plain(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclass_to_dict(value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, collections.abc.Mapping):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _bounded(
    bound: Bound, value: object, params: Mapping[str, object], where: str
) -> object:
    try:
        return bound.resolve(value, params)
    except SchemaError as error:
        raise SchemaError(f"{where}: {error}") from None


def resolve_refs(instance: Any, params: Mapping[str, object], where: str) -> Any:
    """``instance`` with every ``$name`` substituted and every bound checked.

    Walks the dataclass tree the decoder built: each :class:`Bound`
    field (or mapping of them) is resolved against ``params`` and
    checked, so a bound holds for literals and for overridden
    parameters alike.  Values are substituted as they are (no
    coercion).  Errors name the field path rooted at ``where``.
    """
    changes: Dict[str, object] = {}
    for row in _field_table(type(instance)):
        if row.bound is None and not row.nested:
            continue
        value = getattr(instance, row.name)
        if value is None:
            continue
        if row.bound is not None and isinstance(value, collections.abc.Mapping):
            resolved: Any = {
                key: _bounded(row.bound, item, params, f"{where}.{row.key}.{key}")
                for key, item in value.items()
            }
            same = all(resolved[key] is item for key, item in value.items())
        elif row.bound is not None:
            resolved = _bounded(row.bound, value, params, f"{where}.{row.key}")
            same = resolved is value
        elif isinstance(value, tuple):
            path = f"{where}.{row.key}"
            resolved = tuple(
                resolve_refs(
                    item,
                    params,
                    f"{path}[{index}].{row.tag_of(item)}"
                    if row.tagged is not None
                    else f"{path}[{index}]",
                )
                for index, item in enumerate(value)
            )
            same = all(new is old for new, old in zip(resolved, value))
        else:
            resolved = resolve_refs(value, params, f"{where}.{row.key}")
            same = resolved is value
        if not same:
            changes[row.name] = resolved
    # A subtree without references comes back as the same object.
    return dataclasses.replace(instance, **changes) if changes else instance


class _Schema:
    """Mixin: dict (de)serialization used by the glass filter and the wire."""

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "_Schema":
        """Rebuild an instance from a ``to_dict`` dict (see
        :func:`dataclass_from_dict` for the coercion contract)."""
        return dataclass_from_dict(cls, payload)  # type: ignore[return-value]


# ----------------------------------------------------------------------
# A2I payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QoeAggregate(_Schema):
    """Aggregated client-side experience for one group.

    Attributes:
        window_start: Start of the aggregation window.
        window_s: Window length.
        cdn: CDN the sessions used.
        isp: Client ISP (the access network).
        sessions: Number of sessions aggregated (k-anonymity basis).
        buffering_ratio: Mean buffering ratio.
        mean_bitrate_mbps: Mean delivered bitrate.
        join_time_s: Mean join time.
        abandonment_rate: Fraction of sessions abandoned.
    """

    window_start: float
    window_s: float
    cdn: str
    isp: str
    sessions: int
    buffering_ratio: float
    mean_bitrate_mbps: float
    join_time_s: float
    abandonment_rate: float = 0.0


@dataclass(frozen=True)
class DemandEstimate(_Schema):
    """AppP's expected traffic toward each CDN (Mbit/s), for TE planning."""

    time: float
    demand_mbps: Dict[str, float] = field(default_factory=dict)

    def for_cdn(self, cdn: str) -> float:
        return self.demand_mbps.get(cdn, 0.0)


# ----------------------------------------------------------------------
# I2A payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PeeringPointInfo(_Schema):
    """One peering point the ISP exchanges a CDN's traffic at."""

    peering_node: str
    cdn: str
    capacity_mbps: float
    load_mbps: float
    congested: bool

    @property
    def headroom_mbps(self) -> float:
        return max(0.0, self.capacity_mbps - self.load_mbps)


@dataclass(frozen=True)
class PeeringDecision(_Schema):
    """The ISP's current egress selection for one CDN's traffic group."""

    time: float
    cdn: str
    selected_peering: str


@dataclass(frozen=True)
class CongestionSignal(_Schema):
    """Explicit congestion attribution from the InfP.

    ``scope`` names the network segment: ``"access"`` (the last mile,
    Figure 3's case), ``"peering"``, or ``"core"``.  ``severity`` is the
    smoothed utilization of the worst link in that segment.
    """

    time: float
    scope: str
    congested: bool
    severity: float
    bottleneck_link: str = ""


@dataclass(frozen=True)
class ServerHintInfo(_Schema):
    """A CDN's alternative-server hint (per the coarse-control scenario)."""

    cdn: str
    server_id: str
    node_id: str
    load: float
    degraded: bool
