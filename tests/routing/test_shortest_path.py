"""Tests for the reference BFS/Dijkstra shortest paths."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoRouteError, NodeNotFoundError
from repro.topology.graph import DEFAULT_WEIGHT_KEY, Graph

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs, with_reference_latencies
from .reference_paths import (
    bfs_shortest_paths,
    dijkstra_shortest_paths,
    hop_distance,
    latency_distance,
    reconstruct_path,
    shortest_path_tree,
)


@pytest.fixture()
def weighted_square() -> Graph:
    """A square with one heavy edge: 0-1-2 is shorter by latency than 0-3-2."""
    graph = Graph()
    graph.add_edge(0, 1, latency=1.0)
    graph.add_edge(1, 2, latency=1.0)
    graph.add_edge(0, 3, latency=1.0)
    graph.add_edge(3, 2, latency=10.0)
    return graph


class TestBfs:
    def test_distances_on_tree(self, tree_graph):
        distances, parents = bfs_shortest_paths(tree_graph, 0)
        assert distances[0] == 0
        assert distances[7] == 3
        assert parents[7] == 3
        assert parents[3] == 1

    def test_unknown_source(self, tree_graph):
        with pytest.raises(NodeNotFoundError):
            bfs_shortest_paths(tree_graph, "nope")

    def test_unreachable_node_absent(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        distances, _ = bfs_shortest_paths(graph, 1)
        assert 3 not in distances

    def test_hop_distance(self, line_graph):
        assert hop_distance(line_graph, 0, 5) == 5
        assert hop_distance(line_graph, 3, 3) == 0

    def test_hop_distance_no_route(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        with pytest.raises(NoRouteError):
            hop_distance(graph, 1, 3)


class TestDijkstra:
    def test_prefers_low_latency_path(self, weighted_square):
        distances, parents = dijkstra_shortest_paths(weighted_square, 0)
        assert distances[2] == pytest.approx(2.0)
        assert reconstruct_path(parents, 0, 2) == [0, 1, 2]

    def test_latency_distance(self, weighted_square):
        assert latency_distance(weighted_square, 0, 2) == pytest.approx(2.0)
        assert latency_distance(weighted_square, 3, 3) == 0.0

    def test_missing_weights_default_to_one(self):
        graph = Graph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert latency_distance(graph, "a", "c") == pytest.approx(2.0)

    def test_no_route(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        with pytest.raises(NoRouteError):
            latency_distance(graph, 1, 3)


class TestReconstruct:
    def test_same_source_destination(self):
        assert reconstruct_path({}, 5, 5) == [5]

    def test_missing_destination_raises(self):
        with pytest.raises(NoRouteError):
            reconstruct_path({}, 1, 2)

    def test_path_endpoints(self, tree_graph):
        distances, parents = bfs_shortest_paths(tree_graph, 7)
        path = reconstruct_path(parents, 7, 6)
        assert path[0] == 7
        assert path[-1] == 6
        assert len(path) - 1 == distances[6]


class TestShortestPathTree:
    def test_hop_tree_path_to_root(self, tree_graph):
        tree = shortest_path_tree(tree_graph, 0)
        assert tree.path_to_root(8) == [8, 4, 1, 0]
        assert tree.distance(8) == 3

    def test_weighted_tree_uses_latency(self, weighted_square):
        tree = shortest_path_tree(weighted_square, 2, weighted=True)
        assert tree.path_to_root(0) == [0, 1, 2]
        assert tree.distance(0) == pytest.approx(2.0)
        assert tree.weighted

    def test_root_path_is_trivial(self, tree_graph):
        tree = shortest_path_tree(tree_graph, 0)
        assert tree.path_to_root(0) == [0]
        assert tree.covers(0)

    def test_uncovered_node(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        tree = shortest_path_tree(graph, 1)
        assert not tree.covers(3)
        with pytest.raises(NoRouteError):
            tree.path_to_root(3)


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=30,
    )
)
def test_property_bfs_distances_satisfy_triangle_inequality_on_edges(edges):
    """For every edge (u, v), |dist(s,u) - dist(s,v)| <= 1."""
    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    source = next(iter(graph.nodes()))
    distances, _ = bfs_shortest_paths(graph, source)
    for u, v in graph.edges():
        if u in distances and v in distances:
            assert abs(distances[u] - distances[v]) <= 1


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=30,
    )
)
def test_property_hop_distance_lower_bounds_latency_path_hops(edges):
    """A weighted shortest path can never use fewer hops than the BFS distance."""
    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v, latency=1.0)
    nodes = list(graph.nodes())
    source = nodes[0]
    hop, _ = bfs_shortest_paths(graph, source)
    weighted, parents = dijkstra_shortest_paths(graph, source)
    for node in weighted:
        path = reconstruct_path(parents, source, node) if node != source else [source]
        assert len(path) - 1 >= hop[node]


@pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
class TestReferenceMatchesNetworkx:
    """The reference the engine's oracles compare against agrees with networkx."""

    def test_bfs(self, name):
        nx = pytest.importorskip("networkx")
        reference = reference_graphs()[name]
        graph = Graph.from_networkx(reference)
        for source, expected in nx.all_pairs_shortest_path_length(reference):
            distances, parents = bfs_shortest_paths(graph, source)
            assert distances == dict(expected)
            for destination in expected:
                path = reconstruct_path(parents, source, destination)
                assert len(path) - 1 == distances[destination]
                assert all(reference.has_edge(u, v) for u, v in zip(path, path[1:]))

    def test_dijkstra(self, name):
        nx = pytest.importorskip("networkx")
        reference, graph = with_reference_latencies(reference_graphs()[name])
        for source, expected in nx.all_pairs_dijkstra_path_length(reference, weight=DEFAULT_WEIGHT_KEY):
            distances, parents = dijkstra_shortest_paths(graph, source)
            assert distances == dict(expected)
            for destination in expected:
                path = reconstruct_path(parents, source, destination)
                assert nx.path_weight(reference, path, DEFAULT_WEIGHT_KEY) == distances[destination]
