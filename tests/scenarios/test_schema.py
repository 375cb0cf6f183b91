"""Schema validation: precise rejections and serialization identity.

A spec author's first contact with the subsystem is an error message,
so these tests pin not just *that* bad specs are rejected but that the
message names the offending path and the legal alternatives.
"""

import copy

import pytest

from repro.scenarios import (
    compile_scenario,
    library_names,
    load_library_spec,
    load_round_trip,
    load_spec,
    validate_spec,
)
from repro.scenarios.schema import ScenarioError, ScenarioSpec


def spec_dict(name: str = "flash-crowd") -> dict:
    return load_library_spec(name).to_dict()


def rejection(data: dict) -> str:
    with pytest.raises(ScenarioError) as caught:
        load_spec(data)
    return str(caught.value)


class TestUnknownKeys:
    def test_top_level(self):
        data = spec_dict()
        data["bogus"] = 1
        message = rejection(data)
        assert "unknown key(s) 'bogus'" in message
        assert "topology" in message  # lists the legal keys

    def test_node_directive(self):
        data = spec_dict()
        data["topology"]["build"][0]["node"]["colour"] = "red"
        message = rejection(data)
        assert "scenario.topology.build[0].node" in message
        assert "unknown key(s) 'colour'" in message

    def test_population(self):
        data = spec_dict()
        data["populations"][0]["rate_profile"] = {}
        message = rejection(data)
        assert "scenario.populations[0]" in message
        assert "unknown key(s) 'rate_profile'" in message


class TestPhaseOrdering:
    def test_phase_must_start_after_predecessor(self):
        data = spec_dict()
        last = data["phases"][-1]
        data["phases"].append({"name": "late", "at_s": last["at_s"] - 10.0})
        message = rejection(data)
        assert "must start after" in message
        assert last["name"] in message

    def test_equal_start_times_overlap(self):
        data = spec_dict()
        data["phases"].append({"name": "twin", "at_s": data["phases"][-1]["at_s"]})
        assert "must start after" in rejection(data)


class TestDanglingReferences:
    def test_link_to_unknown_node(self):
        data = spec_dict()
        data["topology"]["build"].append(
            {"link": {"src": "ghost", "dst": "core",
                      "capacity_mbps": 1.0, "delay_ms": 1.0, "owner": "isp"}}
        )
        assert "unknown node 'ghost'" in rejection(data)

    def test_fault_event_on_unknown_link(self):
        data = spec_dict()
        data["faults"] = [{
            "name": "f",
            "events": [{"at_s": 1.0, "kind": "link-cut",
                        "link": "ghost", "capacity_mbps": 1.0}],
        }]
        message = rejection(data)
        assert "scenario.faults[0].events[0].link" in message
        assert "unknown link 'ghost'" in message
        assert "access" in message  # offers the known aliases

    def test_population_on_unknown_group(self):
        data = spec_dict()
        data["populations"][0]["group"] = "nope"
        message = rejection(data)
        assert "unknown group 'nope'" in message
        assert "clients" in message

    def test_egress_link_alias(self):
        data = spec_dict("oscillation")
        data["egress"][0]["links"]["peerB"] = "ghost-link"
        message = rejection(data)
        assert "scenario.egress[0].links[peerB]" in message
        assert "unknown link 'ghost-link'" in message

    def test_egress_candidate_node(self):
        data = spec_dict("oscillation")
        data["egress"][0]["candidates"].append("ghost")
        assert "unknown candidate node 'ghost'" in rejection(data)

    def test_cdn_origin_node(self):
        data = spec_dict("coarse-control")
        data["cdns"][0]["origin"] = "ghost"
        message = rejection(data)
        assert "scenario.cdns[0].origin" in message
        assert "unknown node 'ghost'" in message

    def test_named_fault_plan_lazy_by_default(self):
        # ``use:`` references resolve against a registry populated at
        # import time elsewhere, so plain load_spec stays permissive...
        data = spec_dict()
        data["faults"] = [{"name": "f", "use": "no-such-plan"}]
        spec = load_spec(data)
        assert validate_spec(spec) == []

    def test_named_fault_plan_strict_mode(self):
        # ...and the CLI's validate runs strict, where it must resolve.
        data = spec_dict()
        data["faults"] = [{"name": "f", "use": "no-such-plan"}]
        (problem,) = validate_spec(load_spec(data), strict_named_plans=True)
        assert "scenario.faults[0]" in problem
        assert "no-such-plan" in problem


class TestRoundTrip:
    @pytest.mark.parametrize("name", library_names())
    def test_load_dump_load_identity(self, name):
        spec = load_library_spec(name)
        assert load_round_trip(spec).to_dict() == spec.to_dict()

    def test_round_trip_of_mutated_spec(self):
        data = spec_dict("live-event")
        data["params"]["n_clients"] = 7
        spec = load_spec(copy.deepcopy(data))
        assert load_round_trip(spec).to_dict() == spec.to_dict()


class TestDeclaredBounds:
    """A field's bound is declared once and holds wherever it is read:
    at validate time and under compile-time parameter overrides."""

    @pytest.mark.parametrize("path, mutate", [
        ("scenario.cdns[0].servers[0].cache_mbit",
         lambda data: data["cdns"][0]["servers"][0].update(cache_mbit=-5)),
        ("scenario.cdns[0].servers[0].degraded_rate_mbps",
         lambda data: data["cdns"][0]["servers"][0].update(degraded_rate_mbps=-5)),
        ("scenario.cdns[0].warm_top_fraction",
         lambda data: data["cdns"][0].update(warm_top_fraction=-1)),
    ])
    def test_validate_reports_the_field_path(self, path, mutate):
        data = spec_dict("live-event")
        mutate(data)
        (problem,) = validate_spec(ScenarioSpec.from_dict(data))
        assert problem.startswith(f"{path}:")

    def test_diurnal_amplitude_range_holds_under_overrides(self):
        data = spec_dict("diurnal-regions")
        data["params"]["amp"] = 0.9
        data["populations"][0]["rate"]["amplitude"] = "$amp"
        spec = load_spec(data)
        with pytest.raises(ScenarioError) as caught:
            compile_scenario(spec, params={"amp": 3.0})
        assert str(caught.value).startswith("scenario.populations[0].rate.amplitude:")

    def test_phase_order_holds_under_overrides(self):
        data = spec_dict("live-event")
        data["params"]["kickoff_s"] = data["phases"][1]["at_s"]
        data["phases"][1]["at_s"] = "$kickoff_s"
        spec = load_spec(data)
        with pytest.raises(ScenarioError, match="must start after"):
            compile_scenario(spec, params={"kickoff_s": 1.0})


class TestDecoder:
    def test_server_needs_id_and_node_together(self):
        data = spec_dict("live-event")
        del data["cdns"][0]["servers"][0]["node"]
        message = rejection(data)
        assert "scenario.cdns[0].servers[0]" in message
        assert "declare either id+node or group+id_format" in message

    def test_dump_omits_defaults(self):
        build = spec_dict("live-event")["topology"]["build"]
        core = next(entry["node"] for entry in build
                    if entry.get("node", {}).get("id") == "core")
        assert "kind" not in core  # router is the default kind
        assert "tags" not in core
