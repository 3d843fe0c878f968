"""``SimulatedNetwork.one_way_latency`` answers from a per-router-pair memo.

The memo may never show: a topology change, a handover or a failed lookup
must read exactly what asking the distance engine every time would.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.routing.distance_engine import HopDistanceEngine
from repro.sim.engine import Engine
from repro.sim.network import SimulatedNetwork


class Sink:
    def handle_message(self, sender, message):
        pass


@pytest.fixture()
def network(line_graph):
    network = SimulatedNetwork(Engine(), line_graph, processing_delay_ms=0.0)
    network.attach_host("alice", 0, Sink())
    network.attach_host("bob", 5, Sink())
    return network


def test_repeated_lookups_ask_the_distance_engine_once(network, monkeypatch):
    asked = []
    real = HopDistanceEngine.latency_between

    def counting(self, source, destination, *args, **kwargs):
        asked.append((source, destination))
        return real(self, source, destination, *args, **kwargs)

    monkeypatch.setattr(HopDistanceEngine, "latency_between", counting)
    assert [network.one_way_latency("alice", "bob") for _ in range(3)] == [5.0, 5.0, 5.0]
    assert asked == [(0, 5)]


def test_a_weight_change_is_seen_by_the_next_lookup(network, line_graph):
    assert network.one_way_latency("alice", "bob") == 5.0
    line_graph.set_edge_attribute(2, 3, "latency", 4.0)
    assert network.one_way_latency("alice", "bob") == 8.0
    assert network.one_way_latency("bob", "alice") == 8.0


def test_a_new_edge_is_seen_by_the_next_lookup(network, line_graph):
    assert network.one_way_latency("alice", "bob") == 5.0
    line_graph.add_edge(0, 5, latency=1.5)
    assert network.one_way_latency("alice", "bob") == 1.5


def test_a_handover_reads_the_new_router_pair(network):
    assert network.one_way_latency("alice", "bob") == 5.0
    network.attach_host("alice", 3, Sink())
    assert network.one_way_latency("alice", "bob") == 2.0
    network.attach_host("alice", 5, Sink())
    assert network.one_way_latency("alice", "bob") == 0.1  # same access router


def test_no_route_raises_every_time_and_heals_with_the_topology(network, line_graph):
    line_graph.add_node("island")
    network.attach_host("castaway", "island", Sink())
    for _ in range(2):
        with pytest.raises(SimulationError, match="no route"):
            network.one_way_latency("alice", "castaway")
    line_graph.add_edge(0, "island", latency=7.0)
    assert network.one_way_latency("alice", "castaway") == 7.0


def test_an_unattached_host_is_still_named(network):
    with pytest.raises(SimulationError, match="'mallory' is not attached"):
        network.one_way_latency("alice", "mallory")
