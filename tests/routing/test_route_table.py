"""Tests for per-router forwarding state (RouteTable)."""

from __future__ import annotations

import pytest

from repro.exceptions import NoRouteError, RoutingError
from repro.routing.route_table import RouteTable
from repro.topology.graph import Graph


class TestRouteTable:
    def test_add_destination_caches_tree(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        assert table.destinations() == []
        tree_first = table.add_destination(0)
        tree_second = table.add_destination(0)
        assert tree_first is tree_second
        assert table.destinations() == [0]
        assert table.has_destination(0)

    def test_tree_requires_prior_destination(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        with pytest.raises(RoutingError):
            table.tree(0)

    def test_next_hop_follows_shortest_path(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        table.add_destination(0)
        assert table.next_hop(7, 0) == 3
        assert table.next_hop(3, 0) == 1
        assert table.next_hop(1, 0) == 0

    def test_next_hop_at_destination_raises(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        table.add_destination(0)
        with pytest.raises(RoutingError):
            table.next_hop(0, 0)

    def test_next_hop_unreachable(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        table = RouteTable(graph=graph)
        table.add_destination(1)
        with pytest.raises(NoRouteError):
            table.next_hop(3, 1)

    def test_route_endpoints_and_length(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        route = table.route(7, 6)
        assert route[0] == 7
        assert route[-1] == 6
        assert table.route_length(7, 6) == len(route) - 1

    def test_route_to_self(self, tree_graph):
        table = RouteTable(graph=tree_graph)
        assert table.route(4, 4) == [4]
        assert table.route_length(4, 4) == 0

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
            assert table.route_length(source, 5) == fresh.route_length(source, 5)
            assert table.path_latency(source, 5) == fresh.path_latency(source, 5)
        assert table.route(0, 5) == [0, 4, 5]
        assert table.path_latency(0, 5) == 1.5
        assert table.destinations() == [5]
        assert table.engine.stats.trees_built == 2

    def test_path_latency_unreachable(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        with pytest.raises(NoRouteError):
            RouteTable(graph=graph).path_latency(3, 1)

    def test_route_length_counts_hops_on_a_weighted_table(self):
        graph = Graph()
        graph.add_edge(0, 1, latency=0.25)
        graph.add_edge(1, 2, latency=0.25)
        graph.add_edge(0, 2, latency=10.0)
        table = RouteTable(graph=graph, weighted=True)
        assert table.route_length(0, 2) == 2
        with pytest.raises(NoRouteError):
            RouteTable(graph=graph).route_length(99, 2)

    def test_weighted_table_prefers_fast_links(self):
        graph = Graph()
        graph.add_edge(0, 1, latency=1.0)
        graph.add_edge(1, 2, latency=1.0)
        graph.add_edge(0, 2, latency=10.0)
        hop_table = RouteTable(graph=graph, weighted=False)
        latency_table = RouteTable(graph=graph, weighted=True)
        assert hop_table.route(0, 2) == [0, 2]
        assert latency_table.route(0, 2) == [0, 1, 2]
