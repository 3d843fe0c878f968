"""Tests for the simulated traceroute tool."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NoRouteError
from repro.routing.route_table import RouteTable
from repro.routing.traceroute import TracerouteConfig, TracerouteSimulator
from repro.topology.graph import DEFAULT_WEIGHT_KEY, Graph
from repro.workloads.scenarios import small_scenario

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs, with_reference_latencies


@pytest.fixture()
def simulator(tree_graph) -> TracerouteSimulator:
    return TracerouteSimulator(graph=tree_graph, route_table=RouteTable(graph=tree_graph))


def routers(result):
    """The routers a trace recorded, in path order, ``None`` for an anonymous hop."""
    return [hop.router for hop in result.hops]


class TestPerfectTool:
    def test_records_routed_path(self, simulator):
        result = simulator.trace(7, 0)
        assert result.reached
        assert routers(result) == [3, 1, 0]
        assert result.hop_count == 3

    def test_hops_have_increasing_rtt(self, simulator):
        result = simulator.trace(7, 0)
        rtts = [hop.rtt_ms for hop in result.hops]
        assert all(later >= earlier for earlier, later in zip(rtts, rtts[1:]))

    def test_trace_to_self_is_empty_and_reached(self, simulator):
        result = simulator.trace(4, 4)
        assert result.reached
        assert result.hops == []
        assert result.destination_rtt_ms() is None

    def test_destination_rtt_positive(self, simulator):
        result = simulator.trace(8, 6)
        assert result.destination_rtt_ms() > 0


class TestImperfections:
    def test_max_ttl_truncates(self, line_graph):
        simulator = TracerouteSimulator(
            graph=line_graph, config=TracerouteConfig(max_ttl=2)
        )
        result = simulator.trace(0, 5)
        assert not result.reached
        assert result.hop_count == 2

    def test_anonymous_routers_leave_gaps(self, line_graph):
        simulator = TracerouteSimulator(
            graph=line_graph,
            config=TracerouteConfig(anonymous_router_probability=1.0, seed=1),
        )
        result = simulator.trace(0, 5)
        # All intermediate hops are anonymous; the destination still answers.
        assert result.reached
        intermediate = routers(result)[:-1]
        assert all(router is None for router in intermediate)
        assert routers(result)[-1] == 5

    def test_anonymity_is_sticky_per_router(self, line_graph):
        simulator = TracerouteSimulator(
            graph=line_graph,
            config=TracerouteConfig(anonymous_router_probability=0.5, seed=3),
        )
        first = routers(simulator.trace(0, 5))
        second = routers(simulator.trace(0, 5))
        assert first == second

    def test_probe_loss_with_retries_usually_succeeds(self, line_graph):
        simulator = TracerouteSimulator(
            graph=line_graph,
            config=TracerouteConfig(probe_loss_probability=0.3, probes_per_hop=5, seed=7),
        )
        result = simulator.trace(0, 5)
        assert result.reached
        # With 5 retries at 30% loss nearly every hop should answer.
        responding = sum(1 for router in routers(result) if router is not None)
        assert responding >= 4

    def test_total_probe_loss_marks_all_hops_anonymous(self, line_graph):
        simulator = TracerouteSimulator(
            graph=line_graph,
            config=TracerouteConfig(probe_loss_probability=1.0, probes_per_hop=2, seed=9),
        )
        result = simulator.trace(0, 5)
        assert result.reached  # the destination always answers
        assert all(router is None for router in routers(result)[:-1])

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            TracerouteConfig(probe_loss_probability=1.5)
        with pytest.raises(Exception):
            TracerouteConfig(max_ttl=0)


class TestDeterminism:
    def test_same_seed_same_results(self, line_graph):
        config = TracerouteConfig(anonymous_router_probability=0.3, seed=11)
        first = TracerouteSimulator(graph=line_graph, config=config).trace(0, 5)
        second = TracerouteSimulator(
            graph=line_graph, config=TracerouteConfig(anonymous_router_probability=0.3, seed=11)
        ).trace(0, 5)
        assert routers(first) == routers(second)


class TestPing:
    """``ping`` is the last hop of ``trace`` without the hops before it."""

    def test_equals_trace_destination_rtt_on_router_map(self):
        scenario = small_scenario(seed=21, peer_count=1)
        graph = scenario.router_map.graph
        simulator = TracerouteSimulator(graph=graph, config=TracerouteConfig(rtt_jitter_ms=0.0))
        landmarks = scenario.landmark_set.routers()
        stubs = scenario.router_map.stub_routers()
        assert len(stubs) > 100 and len(landmarks) == 4
        for stub in stubs:
            for landmark in landmarks:
                assert simulator.ping(stub, landmark) == simulator.trace(
                    stub, landmark
                ).destination_rtt_ms()

    def test_equals_trace_destination_rtt_on_weighted_table(self):
        scenario = small_scenario(seed=22, peer_count=1)
        graph = scenario.router_map.graph
        simulator = TracerouteSimulator(
            graph=graph,
            route_table=RouteTable(graph=graph, weighted=True),
            config=TracerouteConfig(rtt_jitter_ms=0.0),
        )
        hop_routed = RouteTable(graph=graph)
        rerouted = 0
        for landmark in scenario.landmark_set.routers():
            for stub in scenario.router_map.stub_routers()[:120]:
                rtt = simulator.ping(stub, landmark)
                assert rtt == simulator.trace(stub, landmark).destination_rtt_ms()
                rerouted += rtt < 2.0 * hop_routed.path_latency(stub, landmark)
        # The weighted table really routes differently, so this is not the
        # first test again.
        assert rerouted > 0

    def test_none_exactly_when_trace_is_truncated(self, line_graph):
        simulator = TracerouteSimulator(graph=line_graph, config=TracerouteConfig(max_ttl=3))
        for destination in range(1, 6):
            reached = simulator.trace(0, destination).reached
            assert reached == (destination <= 3)
            assert (simulator.ping(0, destination) is not None) == reached

    def test_ping_to_self_is_zero_and_draws_nothing(self, line_graph):
        config = TracerouteConfig(rtt_jitter_ms=5.0, seed=4)
        simulator = TracerouteSimulator(graph=line_graph, config=config)
        twin = TracerouteSimulator(graph=line_graph, config=config)
        assert simulator.ping(2, 2) == 0.0
        assert simulator.ping(0, 5) == twin.ping(0, 5)

    def test_one_jitter_draw_per_ping(self, line_graph):
        simulator = TracerouteSimulator(
            graph=line_graph, config=TracerouteConfig(rtt_jitter_ms=0.5, seed=13)
        )
        rng = random.Random(13)
        for destination in (5, 3, 5):
            expected = 2.0 * destination + rng.uniform(0.0, 0.5)
            assert simulator.ping(0, destination) == expected

    def test_unreachable_destination_raises(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        simulator = TracerouteSimulator(graph=graph)
        with pytest.raises(NoRouteError):
            simulator.ping(3, 1)


@pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
class TestMatchesNetworkx:
    """A perfect tool walks a shortest path; a jitter-free ping is twice the fastest latency."""

    def test_perfect_trace_walks_a_shortest_path(self, name):
        nx = pytest.importorskip("networkx")
        reference = reference_graphs()[name]
        graph = Graph.from_networkx(reference)
        simulator = TracerouteSimulator(graph=graph, route_table=RouteTable(graph=graph))
        destination = min(reference.nodes())
        for source, hops in nx.single_source_shortest_path_length(reference, destination).items():
            result = simulator.trace(source, destination)
            assert result.reached
            assert result.hop_count == hops
            path = [source] + routers(result)
            assert path == simulator.route_table.route(source, destination)
            assert all(reference.has_edge(u, v) for u, v in zip(path, path[1:]))

    def test_jitter_free_ping_is_twice_the_fastest_latency(self, name):
        nx = pytest.importorskip("networkx")
        reference, graph = with_reference_latencies(reference_graphs()[name])
        simulator = TracerouteSimulator(
            graph=graph,
            route_table=RouteTable(graph=graph, weighted=True),
            config=TracerouteConfig(rtt_jitter_ms=0.0),
        )
        destination = max(reference.nodes())
        expected = nx.single_source_dijkstra_path_length(reference, destination, weight=DEFAULT_WEIGHT_KEY)
        for source, latency in expected.items():
            assert simulator.ping(source, destination) == 2.0 * latency
