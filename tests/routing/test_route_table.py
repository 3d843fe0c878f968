"""Tests for per-router forwarding state (RouteTable)."""

from __future__ import annotations

import pytest

from repro.exceptions import NoRouteError
from repro.routing.route_table import RouteTable
from repro.topology.graph import DEFAULT_WEIGHT_KEY, Graph

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs, with_reference_latencies


class TestRouteTable:
    def test_add_destination_caches_tree(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        tree_first = table.add_destination(0)
        tree_second = table.add_destination(0)
        assert tree_first is tree_second

    def test_route_endpoints_and_length(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        route = table.route(7, 6)
        assert route[0] == 7
        assert route[-1] == 6
        assert len(route) - 1 == 5

    def test_route_follows_shortest_path(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        assert table.route(7, 0) == [7, 3, 1, 0]
        assert table.route(8, 6) == [8, 4, 1, 0, 2, 6]

    def test_route_to_self(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        assert table.route(4, 4) == [4]

    def test_path_latency_sums_edge_weights(self):
        graph = Graph()
        graph.add_edge(1, 2, latency=2.0)
        graph.add_edge(2, 3, latency=3.0)
        table = RouteTable(graph=graph)
        assert table.path_latency(1, 3) == pytest.approx(5.0)

    def test_path_latency_is_the_routed_path_not_the_fastest(self):
        graph = Graph()
        graph.add_edge(0, 1, latency=1.0)
        graph.add_edge(1, 2, latency=1.0)
        graph.add_edge(0, 2, latency=10.0)
        assert RouteTable(graph=graph).path_latency(0, 2) == 10.0
        assert RouteTable(graph=graph, weighted=True).path_latency(0, 2) == 2.0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_table_follows_its_graph(self, weighted):
        """Regression: trees built before a graph change answered for the old graph."""
        graph = Graph()
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            graph.add_edge(u, v, latency=1.0)
        graph.add_edge(4, 5, latency=1.0)
        table = RouteTable(graph=graph, weighted=weighted)
        assert table.path_latency(0, 5) == 5.0  # the first ping builds the tree
        graph.set_edge_attribute(2, 3, "latency", 7.5)
        graph.add_edge(0, 4, latency=0.5)  # a shortcut
        fresh = RouteTable(graph=graph, weighted=weighted)
        for source in (0, 1, 2, 3):
            assert table.route(source, 5) == fresh.route(source, 5)
            assert table.path_latency(source, 5) == fresh.path_latency(source, 5)
        assert table.route(0, 5) == [0, 4, 5]
        assert table.path_latency(0, 5) == 1.5
        assert table.engine.stats.trees_built == 2

    def test_path_latency_unreachable(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        with pytest.raises(NoRouteError):
            RouteTable(graph=graph).path_latency(3, 1)

    def test_route_unreachable(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        with pytest.raises(NoRouteError):
            RouteTable(graph=graph).route(3, 1)

    def test_weighted_table_prefers_fast_links(self):
        graph = Graph()
        graph.add_edge(0, 1, latency=1.0)
        graph.add_edge(1, 2, latency=1.0)
        graph.add_edge(0, 2, latency=10.0)
        hop_table = RouteTable(graph=graph, weighted=False)
        latency_table = RouteTable(graph=graph, weighted=True)
        assert hop_table.route(0, 2) == [0, 2]
        assert latency_table.route(0, 2) == [0, 1, 2]


def assert_is_a_path(reference, route, source, destination):
    """``route`` runs from ``source`` to ``destination`` over links of ``reference``."""
    assert route[0] == source and route[-1] == destination
    for u, v in zip(route, route[1:]):
        assert reference.has_edge(u, v)


@pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
class TestMatchesNetworkx:
    """Every routed path is a shortest one by networkx's count, hop or latency."""

    def test_hop_routes_are_shortest_paths(self, name):
        nx = pytest.importorskip("networkx")
        reference = reference_graphs()[name]
        table = RouteTable(graph=Graph.from_networkx(reference))
        for destination, expected in nx.all_pairs_shortest_path_length(reference):
            for source, hops in expected.items():
                route = table.route(source, destination)
                assert_is_a_path(reference, route, source, destination)
                assert len(route) - 1 == hops

    def test_weighted_routes_are_fastest_paths(self, name):
        nx = pytest.importorskip("networkx")
        reference, graph = with_reference_latencies(reference_graphs()[name])
        table = RouteTable(graph=graph, weighted=True)
        for destination, expected in nx.all_pairs_dijkstra_path_length(reference, weight=DEFAULT_WEIGHT_KEY):
            for source, latency in expected.items():
                route = table.route(source, destination)
                assert_is_a_path(reference, route, source, destination)
                assert table.path_latency(source, destination) == latency
                assert nx.path_weight(reference, route, DEFAULT_WEIGHT_KEY) == latency
