"""Tests for the adjacency-list graph substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError, TopologyError
from repro.topology.graph import DEFAULT_WEIGHT_KEY, Graph, edge_key

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs


class TestNodes:
    def test_add_node_is_idempotent(self):
        graph = Graph()
        graph.add_node("a", tier="core")
        graph.add_node("a", color="red")
        assert graph.node_count == 1
        assert graph.node_attributes("a") == {"tier": "core", "color": "red"}

    def test_has_node(self):
        graph = Graph()
        graph.add_node(1)
        assert graph.has_node(1)
        assert not graph.has_node(2)

    def test_remove_node_drops_incident_edges(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.remove_node(2)
        assert not graph.has_node(2)
        assert graph.edge_count == 0
        assert graph.degree(1) == 0
        assert graph.degree(3) == 0

    def test_remove_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(NodeNotFoundError):
            graph.remove_node("ghost")

    def test_node_attribute_helpers(self):
        graph = Graph()
        graph.add_node("r1")
        graph.set_node_attribute("r1", "tier", "stub")
        assert graph.get_node_attribute("r1", "tier") == "stub"
        assert graph.get_node_attribute("r1", "missing", default=42) == 42

    def test_node_attributes_of_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(NodeNotFoundError):
            graph.node_attributes("nope")

    def test_len_contains_iter(self):
        graph = Graph()
        for node in ("a", "b", "c"):
            graph.add_node(node)
        assert len(graph) == 3
        assert "b" in graph
        assert sorted(graph) == ["a", "b", "c"]


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        graph = Graph()
        graph.add_edge("x", "y", latency=3.0)
        assert graph.has_node("x") and graph.has_node("y")
        assert graph.has_edge("x", "y")
        assert graph.has_edge("y", "x")
        assert graph.edge_count == 1

    def test_edge_attributes_are_shared_between_directions(self):
        graph = Graph()
        graph.add_edge(1, 2, latency=5.0)
        graph.set_edge_attribute(2, 1, "latency", 9.0)
        assert graph.get_edge_attribute(1, 2, "latency") == 9.0

    def test_self_loop_rejected(self):
        graph = Graph()
        with pytest.raises(TopologyError):
            graph.add_edge("a", "a")

    def test_duplicate_edge_merges_attributes(self):
        graph = Graph()
        graph.add_edge(1, 2, latency=1.0)
        graph.add_edge(1, 2, capacity=10)
        assert graph.edge_count == 1
        assert graph.edge_attributes(1, 2) == {"latency": 1.0, "capacity": 10}

    def test_remove_edge(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.remove_edge(2, 1)
        assert not graph.has_edge(1, 2)
        assert graph.edge_count == 0

    def test_remove_missing_edge_raises(self):
        graph = Graph()
        graph.add_node(1)
        graph.add_node(2)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 2)

    def test_edges_iterates_each_edge_once(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(3, 1)
        assert len(list(graph.edges())) == 3

    def test_edge_weight_defaults_to_one(self):
        graph = Graph()
        graph.add_edge(1, 2)
        assert graph.edge_weight(1, 2) == 1.0
        graph.set_edge_attribute(1, 2, DEFAULT_WEIGHT_KEY, 2.5)
        assert graph.edge_weight(1, 2) == 2.5

    def test_neighbor_weights_are_edge_weights_in_neighbour_order(self):
        graph = Graph()
        graph.add_edge(1, 3, latency=4)
        graph.add_edge(1, 2)
        graph.add_edge(1, 4, latency=0.5, cost=9.0)
        assert graph.neighbor_weights(1) == [(v, graph.edge_weight(1, v)) for v in graph.neighbors(1)]
        assert graph.neighbor_weights(1) == [(3, 4.0), (2, 1.0), (4, 0.5)]
        assert graph.neighbor_weights(1, key="cost", default=7.0) == [(3, 7.0), (2, 7.0), (4, 9.0)]
        with pytest.raises(NodeNotFoundError):
            graph.neighbor_weights(99)

    def test_edge_key_is_order_independent(self):
        assert edge_key(3, 7) == edge_key(7, 3)

    def test_edge_key_mixed_types_fall_back_to_repr(self):
        assert edge_key(1, "a") == edge_key("a", 1)

    def test_edge_key_is_canonical_under_partial_orders(self):
        """Ids that compare False both ways (NaN, sets) must still canonicalise."""
        nan = float("nan")
        assert edge_key(nan, 1) == edge_key(1, nan)
        a, b = frozenset({1}), frozenset({2})
        assert edge_key(a, b) == edge_key(b, a)


class TestDegreesAndNeighbors:
    def test_degree_and_neighbors(self, star_graph):
        assert star_graph.degree(0) == 6
        assert star_graph.degree(3) == 1
        assert sorted(star_graph.neighbors(0)) == [1, 2, 3, 4, 5, 6]

    def test_degree_of_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(NodeNotFoundError):
            graph.degree("missing")

    def test_nodes_with_degree(self, star_graph):
        assert sorted(star_graph.nodes_with_degree(1)) == [1, 2, 3, 4, 5, 6]
        assert star_graph.nodes_with_degree(6) == [0]
        assert star_graph.nodes_with_degree(4) == []

    def test_nodes_with_degree_between(self, line_graph):
        assert sorted(line_graph.nodes_with_degree_between(2, 2)) == [1, 2, 3, 4]
        assert sorted(line_graph.nodes_with_degree_between(1, 1)) == [0, 5]

    def test_degrees_mapping(self, line_graph):
        degrees = line_graph.degrees()
        assert degrees[0] == 1
        assert degrees[3] == 2
        assert sum(degrees.values()) == 2 * line_graph.edge_count


class TestConnectivity:
    def test_connected_component(self, line_graph):
        assert sorted(line_graph.connected_component(0)) == [0, 1, 2, 3, 4, 5]

    def test_connected_components_of_forest(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        graph.add_node(5)
        components = sorted(sorted(component) for component in graph.connected_components())
        assert components == [[1, 2], [3, 4], [5]]

    def test_is_connected(self, line_graph):
        assert line_graph.is_connected()
        line_graph.remove_edge(2, 3)
        assert not line_graph.is_connected()

    def test_empty_graph_is_not_connected(self):
        assert not Graph().is_connected()

    def test_largest_component_subgraph(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(10, 11)
        largest = graph.largest_component_subgraph()
        assert sorted(largest.nodes()) == [1, 2, 3]
        assert largest.edge_count == 2

    def test_subgraph_preserves_attributes(self):
        graph = Graph()
        graph.add_node(1, tier="core")
        graph.add_edge(1, 2, latency=4.0)
        graph.add_edge(2, 3)
        sub = graph.subgraph([1, 2])
        assert sub.get_node_attribute(1, "tier") == "core"
        assert sub.edge_weight(1, 2) == 4.0
        assert not sub.has_node(3)

    def test_subgraph_with_unknown_node_raises(self):
        graph = Graph()
        graph.add_node(1)
        with pytest.raises(NodeNotFoundError):
            graph.subgraph([1, 99])

    def test_copy_is_independent(self, line_graph):
        clone = line_graph.copy()
        clone.remove_edge(0, 1)
        assert line_graph.has_edge(0, 1)
        assert not clone.has_edge(0, 1)


class TestConversions:
    def test_networkx_round_trip(self, tree_graph):
        pytest.importorskip("networkx")
        nx_graph = tree_graph.to_networkx()
        back = Graph.from_networkx(nx_graph, name="back")
        assert back.node_count == tree_graph.node_count
        assert back.edge_count == tree_graph.edge_count
        assert sorted(back.nodes()) == sorted(tree_graph.nodes())

    def test_from_edge_list_with_weights(self):
        edges = [(1, 2), (2, 3)]
        weights = {edge_key(1, 2): 7.0}
        graph = Graph.from_edge_list(edges, weights=weights)
        assert graph.edge_weight(1, 2) == 7.0
        assert graph.edge_weight(2, 3) == 1.0

    def test_to_edge_list(self, line_graph):
        assert len(line_graph.to_edge_list()) == 5

    def test_repr_mentions_counts(self, line_graph):
        assert "nodes=6" in repr(line_graph)
        assert "edges=5" in repr(line_graph)

    @pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
    def test_networkx_round_trip_keeps_edges_and_weights(self, name):
        reference = reference_graphs()[name]
        for index, (u, v) in enumerate(reference.edges()):
            reference.edges[u, v][DEFAULT_WEIGHT_KEY] = 1.0 + index
        graph = Graph.from_networkx(reference)
        assert set(graph.nodes()) == set(reference.nodes())
        assert {frozenset(edge) for edge in graph.edges()} == {frozenset(edge) for edge in reference.edges()}
        assert graph.degrees() == dict(reference.degree())
        back = graph.to_networkx()
        assert {
            frozenset((u, v)): attrs[DEFAULT_WEIGHT_KEY] for u, v, attrs in back.edges(data=True)
        } == {frozenset((u, v)): attrs[DEFAULT_WEIGHT_KEY] for u, v, attrs in reference.edges(data=True)}


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda e: e[0] != e[1]),
        max_size=40,
    )
)
def test_property_edge_count_matches_degree_sum(edges):
    """Handshake lemma: sum of degrees equals twice the number of edges."""
    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    assert sum(graph.degrees().values()) == 2 * graph.edge_count


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=30,
    )
)
def test_property_components_partition_nodes(edges):
    """Connected components partition the node set."""
    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    components = graph.connected_components()
    seen = [node for component in components for node in component]
    assert sorted(seen) == sorted(graph.nodes())
    assert len(seen) == len(set(seen))
