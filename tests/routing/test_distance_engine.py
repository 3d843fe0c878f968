"""Property-test oracle: the vectorised engine vs the reference BFS/Dijkstra.

The engine's correctness claim is exact equivalence, not approximation:
for every source in any graph — connected or not — the engine's hop
distances and batched Dijkstra must equal
:func:`bfs_shortest_paths` / :func:`dijkstra_shortest_paths`, and the
rewired public APIs must keep their exception semantics
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
from repro.routing.shortest_path import (
    AllPairsHopDistances,
    bfs_shortest_paths,
    dijkstra_shortest_paths,
)
from repro.topology.graph import Graph


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
    def test_all_pairs_view_keeps_no_route_semantics(self, edges, isolated):
        graph = _graph_from(edges, isolated)
        if graph.node_count == 0:
            return
        oracle = AllPairsHopDistances(graph)
        nodes = list(graph.nodes())
        source = nodes[0]
        expected, _ = bfs_shortest_paths(graph, source)
        assert oracle.distances_from(source) == expected
        for destination in nodes:
            if destination in expected:
                assert oracle.distance(source, destination) == expected[destination]
            else:
                with pytest.raises(NoRouteError):
                    oracle.distance(source, destination)


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
            distances, parents = engine.dijkstra(source)
            # Plain ==, no approx: the engine mirrors the reference's float
            # addition order and tie-breaking, so values are bit-identical.
            assert distances == ref_distances
            assert parents == ref_parents
            assert engine.latency_distances(source) == ref_distances

    def test_injection_points_reject_mismatched_engine(self):
        graph = Graph()
        graph.add_edge(1, 2)
        other = Graph()
        other.add_edge(1, 2)
        wrong = HopDistanceEngine(other)
        with pytest.raises(ValueError):
            AllPairsHopDistances(graph, engine=wrong)
        from repro.routing.route_table import RouteTable

        with pytest.raises(ValueError):
            RouteTable(graph=graph, engine=wrong)

    def test_warm_counts_distinct_sources(self):
        graph = Graph()
        graph.add_edge("a", "b", latency=1.0)
        engine = HopDistanceEngine(graph)
        assert engine.warm_hops(["a", "a", "b"]) == 2
        assert engine.warm_latencies(["a", "a"]) == 1

    def test_warm_latencies_batches_and_caches(self):
        graph = Graph()
        graph.add_edge("a", "b", latency=2.0)
        graph.add_edge("b", "c", latency=3.0)
        engine = HopDistanceEngine(graph)
        assert engine.warm_latencies(["a", "b"]) == 2
        assert engine.stats.dijkstra_runs == 2
        # Warm sources answer from the cache, with reference-equal values.
        assert engine.latency_distances("a") == dijkstra_shortest_paths(graph, "a")[0]
        assert engine.stats.dijkstra_runs == 2
        assert engine.stats.vector_cache_hits > 0


class TestEdgeCases:
    def test_unknown_source_raises_node_not_found(self):
        graph = Graph()
        graph.add_edge(1, 2)
        engine = HopDistanceEngine(graph)
        with pytest.raises(NodeNotFoundError):
            engine.hop_distances("nope")
        with pytest.raises(NodeNotFoundError):
            engine.dijkstra("nope")

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
        assert engine.latency_distances("solo") == {"solo": 0.0}

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
        spuriously fall back to the wide BFS."""
        graph = Graph()
        length = 2 * MAX_BYTE_HOPS + 1  # odd ring: eccentricity == MAX_BYTE_HOPS
        for i in range(length):
            graph.add_edge(i, (i + 1) % length)
        engine = HopDistanceEngine(graph)
        expected, _ = bfs_shortest_paths(graph, 0)
        assert max(expected.values()) == MAX_BYTE_HOPS
        assert engine.hop_distances(0) == expected
        assert engine.stats.wide_bfs_runs == 0

    def test_eccentricity_one_past_byte_cap_goes_wide(self):
        graph = Graph()
        length = 2 * MAX_BYTE_HOPS + 3  # odd ring: eccentricity == MAX_BYTE_HOPS + 1
        for i in range(length):
            graph.add_edge(i, (i + 1) % length)
        engine = HopDistanceEngine(graph)
        expected, _ = bfs_shortest_paths(graph, 0)
        assert max(expected.values()) == MAX_BYTE_HOPS + 1
        assert engine.hop_distances(0) == expected
        assert engine.stats.wide_bfs_runs == 1

    def test_deep_chain_falls_back_to_wide_vectors(self):
        """Paths longer than MAX_BYTE_HOPS must stay exact via the wide path."""
        graph = Graph()
        length = MAX_BYTE_HOPS + 40
        for i in range(length):
            graph.add_edge(i, i + 1)
        graph.add_node("island")
        engine = HopDistanceEngine(graph)
        for source in (0, length // 2, length):
            expected, _ = bfs_shortest_paths(graph, source)
            assert engine.hop_distances(source) == expected
        assert engine.stats.wide_bfs_runs > 0
        assert engine.hop_between(0, "island") is None

    def test_leaf_sources_are_derived_not_researched(self):
        graph = Graph()
        for leaf in range(1, 6):
            graph.add_edge("hub", f"leaf{leaf}")
        engine = HopDistanceEngine(graph)
        engine.warm_hops(f"leaf{leaf}" for leaf in range(1, 6))
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
        generation = graph.generation
        graph.remove_edge("a", "b")
        assert graph.generation > generation
        generation = graph.generation
        graph.remove_node("b")
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

    def test_weight_change_invalidates_latency_vectors(self):
        graph = Graph()
        graph.add_edge("a", "b", latency=1.0)
        graph.add_edge("b", "c", latency=1.0)
        engine = HopDistanceEngine(graph)
        assert engine.latency_distance("a", "c") == pytest.approx(2.0)
        graph.set_edge_attribute("b", "c", "latency", 5.0)
        assert engine.latency_distance("a", "c") == pytest.approx(6.0)

    def test_all_pairs_view_drops_dict_cache_on_mutation(self):
        graph = Graph()
        graph.add_edge("a", "b")
        oracle = AllPairsHopDistances(graph)
        assert oracle.distance("a", "b") == 1
        assert oracle.cached_sources == 1
        graph.add_edge("b", "c")
        assert oracle.distance("a", "c") == 2

    def test_snapshot_is_current_reflects_generation(self):
        graph = Graph()
        graph.add_edge(1, 2)
        snapshot = CsrTopology(graph)
        assert snapshot.is_current()
        graph.add_edge(2, 3)
        assert not snapshot.is_current()
