"""Bit-identity of the max-min allocator against its per-flow reference.

:func:`repro.network.maxmin.max_min_allocation` shares one water level
per distinct weight, drops dead links and skips the headroom of
infinite-demand flows.  None of that may change a single bit: these
tests compare its result with ``maxmin_reference`` by exact float
equality *and* key order, on random instances built to reach every
branch (weights, finite and infinite demands, empty paths, done flows,
repeated links, capacities below the freeze epsilon) and on the flows a
real simulation hands the allocator.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.experiments import exp_e3_inference
from repro.network import allocator
from repro.network.flows import Flow, FlowState
from repro.network.maxmin import max_min_allocation
from repro.network.topology import Link

from tests.network.maxmin_reference import max_min_allocation as reference

#: Shared pools make equal weights, equal demands and ties common.
_WEIGHTS = (1.0, 1.0, 2.0, 0.5, 3.0, 1e-10)
_DEMANDS = (math.inf, math.inf, 1.0, 2.5, 4.0, 1e-9)
_CAPACITIES = (10.0, 1.0, 20.0, 1e-10)


def _assert_identical(flows):
    expected = list(reference(flows).items())
    actual = list(max_min_allocation(flows).items())
    assert actual == expected


@st.composite
def _instance(draw):
    n_links = draw(st.integers(min_value=1, max_value=8))
    links = [
        Link(
            link_id=f"l{i}",
            src="a",
            dst="b",
            capacity_mbps=draw(
                st.one_of(
                    st.sampled_from(_CAPACITIES),
                    st.floats(min_value=1e-3, max_value=1e4),
                )
            ),
        )
        for i in range(n_links)
    ]
    flows = []
    for i in range(draw(st.integers(min_value=0, max_value=24))):
        # Not unique: a link may repeat on a path.
        path = draw(st.lists(st.sampled_from(links), min_size=0, max_size=4))
        flow = Flow(
            flow_id=f"f{i}",
            src="a",
            dst="b",
            path=path,
            demand_mbps=draw(
                st.one_of(
                    st.sampled_from(_DEMANDS),
                    st.floats(min_value=1e-3, max_value=100.0),
                )
            ),
            weight=draw(
                st.one_of(
                    st.sampled_from(_WEIGHTS),
                    st.floats(min_value=1e-3, max_value=50.0),
                )
            ),
        )
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            flow.state = FlowState.COMPLETED
        flows.append(flow)
    return flows


@settings(max_examples=500, deadline=None)
@given(_instance())
def test_matches_reference_bit_for_bit(flows):
    _assert_identical(flows)


def test_matches_reference_at_the_freeze_boundary():
    # 2.000000001 - 1e-9 == 2.0 exactly, so the capped flow reaches its
    # freeze floor at the same water level that saturates the other link.
    wide = Link(link_id="wide", src="a", dst="b", capacity_mbps=10.0)
    narrow = Link(link_id="narrow", src="a", dst="b", capacity_mbps=2.0)
    flows = [
        Flow("capped", "a", "b", [wide], demand_mbps=2.0 + 1e-9),
        Flow("bottlenecked", "a", "b", [narrow]),
    ]
    _assert_identical(flows)
    assert max_min_allocation(flows)["capped"] == 2.0


def test_matches_reference_on_simulated_flows(monkeypatch):
    """Every solve of a small E3 run gets the reference's exact result."""
    solves = []

    def checked(flows):
        flows = list(flows)
        _assert_identical(flows)
        solves.append(len(flows))
        return max_min_allocation(flows)

    monkeypatch.setattr(allocator, "max_min_allocation", checked)
    records = exp_e3_inference.generate_pageloads(
        seed=3, n_clients=4, n_pages_per_client=4
    )
    assert len(records) == 16
    assert len(solves) > 100
