"""Property-test oracle: the engine vs the reference BFS/Dijkstra.

The engine's correctness claim is exact equivalence, not approximation:
for every source in any graph — connected or not — the engine's hop
distances and its weighted trees must equal
:func:`bfs_shortest_paths` / :func:`dijkstra_shortest_paths`, and the
public APIs must keep their exception semantics
(:class:`NoRouteError` for unreachable pairs, :class:`NodeNotFoundError`
for unknown sources).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoRouteError, NodeNotFoundError
from repro.routing.distance_engine import (
    MAX_BYTE_HOPS,
    CsrTopology,
    HopDistanceEngine,
)
from repro.topology.graph import DEFAULT_WEIGHT_KEY, Graph

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs, with_reference_latencies
from .reference_paths import bfs_shortest_paths, dijkstra_shortest_paths


def _graph_from(edges, isolated, weights=None):
    """Build a graph from hypothesis-drawn edges plus isolated nodes.

    Isolated nodes make the graph *disconnected* in most draws, which is
    exactly the regime where unreachable-node handling must match.
    """
    graph = Graph()
    for node in isolated:
        graph.add_node(node)
    for index, (u, v) in enumerate(edges):
        attrs = {}
        if weights is not None:
            attrs["latency"] = weights[index % len(weights)]
        graph.add_edge(u, v, **attrs)
    return graph


edges_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=40,
)
isolated_strategy = st.lists(st.integers(16, 20), min_size=0, max_size=4, unique=True)
weights_strategy = st.lists(
    st.floats(min_value=0.125, max_value=16.0, allow_nan=False), min_size=1, max_size=8
)


class TestHopOracle:
    @settings(max_examples=120, deadline=None)
    @given(edges=edges_strategy, isolated=isolated_strategy)
    def test_hop_distances_equal_reference_for_every_source(self, edges, isolated):
        graph = _graph_from(edges, isolated)
        if graph.node_count == 0:
            return
        engine = HopDistanceEngine(graph)
        for source in graph.nodes():
            expected, _ = bfs_shortest_paths(graph, source)
            assert engine.hop_distances(source) == expected

    @settings(max_examples=80, deadline=None)
    @given(edges=edges_strategy, isolated=isolated_strategy)
    def test_hop_distance_keeps_no_route_semantics(self, edges, isolated):
        graph = _graph_from(edges, isolated)
        if graph.node_count == 0:
            return
        engine = HopDistanceEngine(graph)
        nodes = list(graph.nodes())
        source = nodes[0]
        expected, _ = bfs_shortest_paths(graph, source)
        for destination in nodes:
            if destination in expected:
                assert engine.hop_distance(source, destination) == expected[destination]
            else:
                with pytest.raises(NoRouteError):
                    engine.hop_distance(source, destination)


class TestLatencyOracle:
    @settings(max_examples=80, deadline=None)
    @given(edges=edges_strategy, isolated=isolated_strategy, weights=weights_strategy)
    def test_dijkstra_is_bit_identical_for_every_source(self, edges, isolated, weights):
        graph = _graph_from(edges, isolated, weights=weights)
        if graph.node_count == 0:
            return
        engine = HopDistanceEngine(graph)
        for source in graph.nodes():
            ref_distances, ref_parents = dijkstra_shortest_paths(graph, source)
            tree = engine.tree(source, weighted=True)
            routed = [i for i, hops in enumerate(tree.hops) if hops >= 0]
            distances = {tree.nodes[i]: tree.latency[i] for i in routed}
            parents = {tree.nodes[i]: tree.nodes[tree.parent[i]] for i in routed if tree.parent[i] >= 0}
            # Plain ==, no approx: the engine mirrors the reference's float
            # addition order and tie-breaking, so values are bit-identical.
            assert distances == ref_distances
            assert parents == ref_parents
            # The latency column a lookup reads agrees as well.
            assert {node: engine.latency_between(source, node) for node in graph.nodes()} == {
                node: ref_distances.get(node) for node in graph.nodes()
            }

    def test_injection_points_reject_mismatched_engine(self):
        graph = Graph()
        graph.add_edge(1, 2)
        other = Graph()
        other.add_edge(1, 2)
        wrong = HopDistanceEngine(other)
        from repro.routing.route_table import RouteTable

        with pytest.raises(ValueError):
            RouteTable(graph=graph, engine=wrong)

    def test_one_tree_per_root_and_weighting_per_graph_generation(self):
        graph = Graph()
        graph.add_edge("a", "b", latency=2.0)
        graph.add_edge("b", "c", latency=3.0)
        graph.add_edge("c", "leaf", latency=0.5)
        engine = HopDistanceEngine(graph)
        assert engine.tree("b") is engine.tree("b")
        assert engine.tree("b", weighted=True) is not engine.tree("b")
        assert engine.stats.trees_built == 2
        # Once the weighted tree is built, every latency from its root is a
        # column read: no Dijkstra runs, and the values are the reference's.
        assert not engine.has_latency_tree("a")
        engine.tree("a", weighted=True)
        assert engine.has_latency_tree("a")
        runs = engine.stats.dijkstra_runs
        expected, _ = dijkstra_shortest_paths(graph, "a")
        assert {node: engine.latency_between("a", node) for node in graph.nodes()} == expected
        assert engine.stats.dijkstra_runs == runs
        # A mutation drops every tree: the next request builds it anew, once.
        graph.add_edge("a", "d", latency=1.0)
        built = engine.stats.trees_built
        tree = engine.tree("b")
        assert engine.tree("b") is tree
        assert engine.stats.trees_built == built + 1
        assert tree.hops[tree.index["d"]] == 2
        assert not engine.has_latency_tree("a")


class TestEdgeCases:
    def test_unknown_source_raises_node_not_found(self):
        graph = Graph()
        graph.add_edge(1, 2)
        engine = HopDistanceEngine(graph)
        with pytest.raises(NodeNotFoundError):
            engine.hop_distances("nope")
        with pytest.raises(NodeNotFoundError):
            engine.tree("nope", weighted=True)

    def test_unknown_destination_counts_as_unreachable(self):
        graph = Graph()
        graph.add_edge(1, 2)
        engine = HopDistanceEngine(graph)
        assert engine.hop_between(1, "nope") is None
        assert engine.hop_between(1, "nope", default=7) == 7
        with pytest.raises(NoRouteError):
            engine.hop_distance(1, "nope")

    def test_single_node_and_empty_components(self):
        graph = Graph()
        graph.add_node("solo")
        engine = HopDistanceEngine(graph)
        assert engine.hop_distances("solo") == {"solo": 0}
        assert engine.latency_between("solo", "solo") == 0.0

    def test_mutually_attached_degree_one_pair(self):
        """A K2 component: neither endpoint is a derivable leaf."""
        graph = Graph()
        graph.add_edge("a", "b")
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        engine = HopDistanceEngine(graph)
        for source in graph.nodes():
            expected, _ = bfs_shortest_paths(graph, source)
            assert engine.hop_distances(source) == expected

    def test_eccentricity_exactly_at_byte_cap_stays_on_byte_path(self):
        """A ring whose farthest node sits at exactly MAX_BYTE_HOPS must not
        spuriously fall back to the hop tree."""
        graph = Graph()
        length = 2 * MAX_BYTE_HOPS + 1  # odd ring: eccentricity == MAX_BYTE_HOPS
        for i in range(length):
            graph.add_edge(i, (i + 1) % length)
        engine = HopDistanceEngine(graph)
        expected, _ = bfs_shortest_paths(graph, 0)
        assert max(expected.values()) == MAX_BYTE_HOPS
        assert engine.hop_distances(0) == expected
        assert engine.stats.trees_built == 0

    def test_eccentricity_one_past_byte_cap_reads_the_hop_tree(self):
        graph = Graph()
        length = 2 * MAX_BYTE_HOPS + 3  # odd ring: eccentricity == MAX_BYTE_HOPS + 1
        for i in range(length):
            graph.add_edge(i, (i + 1) % length)
        engine = HopDistanceEngine(graph)
        expected, _ = bfs_shortest_paths(graph, 0)
        assert max(expected.values()) == MAX_BYTE_HOPS + 1
        assert engine.hop_distances(0) == expected

    def test_deep_chain_falls_back_to_the_hop_tree(self):
        """Paths longer than MAX_BYTE_HOPS must stay exact via the hop tree."""
        graph = Graph()
        length = MAX_BYTE_HOPS + 40
        for i in range(length):
            graph.add_edge(i, i + 1)
        graph.add_node("island")
        engine = HopDistanceEngine(graph)
        for source in (0, length // 2, length):
            expected, _ = bfs_shortest_paths(graph, source)
            assert engine.hop_distances(source) == expected
        assert engine.hop_between(0, "island") is None

    def test_leaf_of_a_too_deep_parent_reads_its_own_hop_tree(self):
        """A leaf is not derived from a parent past the byte cap: it reads its hop tree."""
        graph = Graph()
        length = MAX_BYTE_HOPS + 40
        for i in range(length):
            graph.add_edge(i, i + 1)
        engine = HopDistanceEngine(graph)
        expected, _ = bfs_shortest_paths(graph, 0)
        assert engine.hop_distances(0) == expected
        assert engine.stats.derived_vectors == 0
        assert engine.stats.trees_built == 2  # the parent's, then the leaf's own
        assert engine.tree(0).hops[engine.tree(0).index[length]] == length
        assert engine.stats.trees_built == 2

    def test_leaf_sources_are_derived_not_researched(self):
        graph = Graph()
        for leaf in range(1, 6):
            graph.add_edge("hub", f"leaf{leaf}")
        engine = HopDistanceEngine(graph)
        for leaf in range(1, 6):
            assert engine.hop_between(f"leaf{leaf}", "hub") == 1
        assert engine.stats.bfs_runs == 1  # the hub, shared by all leaves
        assert engine.stats.derived_vectors == 5
        for leaf in range(1, 6):
            expected, _ = bfs_shortest_paths(graph, f"leaf{leaf}")
            assert engine.hop_distances(f"leaf{leaf}") == expected


class TestGenerationCounter:
    def test_graph_mutations_bump_generation(self):
        graph = Graph()
        generation = graph.generation
        graph.add_node("a")
        assert graph.generation > generation
        generation = graph.generation
        graph.add_node("a")  # idempotent re-add: no structural change
        assert graph.generation == generation
        graph.add_edge("a", "b")
        assert graph.generation > generation
        generation = graph.generation
        graph.set_edge_attribute("a", "b", "latency", 3.0)
        assert graph.generation > generation

    def test_snapshot_invalidates_and_rebuilds_on_mutation(self):
        graph = Graph()
        graph.add_edge("a", "b")
        engine = HopDistanceEngine(graph)
        assert engine.hop_distance("a", "b") == 1
        first = engine.snapshot()
        assert engine.snapshot() is first  # stable while the graph is
        graph.add_edge("b", "c")
        assert engine.hop_distance("a", "c") == 2
        second = engine.snapshot()
        assert second is not first
        assert engine.stats.snapshot_builds == 2

    def test_weight_change_invalidates_latency_trees(self):
        graph = Graph()
        graph.add_edge("a", "b", latency=1.0)
        graph.add_edge("b", "c", latency=1.0)
        engine = HopDistanceEngine(graph)
        assert engine.latency_between("a", "c") == pytest.approx(2.0)
        graph.set_edge_attribute("b", "c", "latency", 5.0)
        assert engine.latency_between("a", "c") == pytest.approx(6.0)

    def test_snapshot_is_current_reflects_generation(self):
        graph = Graph()
        graph.add_edge(1, 2)
        snapshot = CsrTopology(graph)
        assert snapshot.is_current()
        graph.add_edge(2, 3)
        assert not snapshot.is_current()


@pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
class TestMatchesNetworkx:
    """Hop and latency distances == networkx's on graphs with ties, triangles and trees."""

    def test_hop_distances_for_every_source(self, name):
        nx = pytest.importorskip("networkx")
        reference = reference_graphs()[name]
        engine = HopDistanceEngine(Graph.from_networkx(reference))
        for source, expected in nx.all_pairs_shortest_path_length(reference):
            assert engine.hop_distances(source) == dict(expected)
            for destination, hops in expected.items():
                assert engine.hop_between(source, destination) == hops

    def test_hop_tree_routes_are_shortest_paths(self, name):
        nx = pytest.importorskip("networkx")
        reference = reference_graphs()[name]
        engine = HopDistanceEngine(Graph.from_networkx(reference))
        for source, expected in nx.all_pairs_shortest_path_length(reference):
            tree = engine.tree(source)
            assert {node: tree.hops[i] for i, node in enumerate(tree.nodes)} == dict(expected)
            for node, hops in expected.items():
                path = tree.path_to_root(node)
                assert len(path) == hops + 1
                assert all(reference.has_edge(u, v) for u, v in zip(path, path[1:]))

    def test_latency_between_equals_dijkstra(self, name):
        nx = pytest.importorskip("networkx")
        reference, graph = with_reference_latencies(reference_graphs()[name])
        engine = HopDistanceEngine(graph)
        for source, expected in nx.all_pairs_dijkstra_path_length(reference, weight=DEFAULT_WEIGHT_KEY):
            for destination, latency in expected.items():
                assert engine.latency_between(source, destination) == latency

    def test_eccentricities_diameter_and_radius(self, name):
        nx = pytest.importorskip("networkx")
        reference = reference_graphs()[name]
        engine = HopDistanceEngine(Graph.from_networkx(reference))
        eccentricity = {node: max(engine.hop_distances(node).values()) for node in reference.nodes()}
        assert eccentricity == nx.eccentricity(reference)
        assert max(eccentricity.values()) == nx.diameter(reference)
        assert min(eccentricity.values()) == nx.radius(reference)
