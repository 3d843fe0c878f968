"""Tests for structural topology metrics."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import DisconnectedGraphError, NodeNotFoundError
from repro.topology.graph import Graph
from repro.topology.internet_mapper import barabasi_albert
from repro.topology.metrics import (
    approximate_diameter,
    average_clustering,
    average_degree,
    bfs_distances,
    clustering_coefficient,
    degree_ccdf,
    degree_distribution,
    degree_one_fraction,
    eccentricity,
    estimate_powerlaw_exponent,
    max_degree,
    sampled_path_length_stats,
    summarize,
)

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs


class TestDegreeStatistics:
    def test_degree_distribution(self, star_graph):
        assert degree_distribution(star_graph) == {6: 1, 1: 6}

    def test_degree_ccdf_monotone(self, star_graph):
        ccdf = degree_ccdf(star_graph)
        degrees = [d for d, _ in ccdf]
        probabilities = [p for _, p in ccdf]
        assert degrees == sorted(degrees)
        assert probabilities == sorted(probabilities, reverse=True)
        assert probabilities[0] == pytest.approx(1.0)

    def test_degree_ccdf_empty_graph(self):
        assert degree_ccdf(Graph()) == []

    def test_average_degree(self, line_graph):
        assert average_degree(line_graph) == pytest.approx(2 * 5 / 6)

    def test_average_degree_empty(self):
        assert average_degree(Graph()) == 0.0

    def test_max_degree(self, star_graph):
        assert max_degree(star_graph) == 6
        assert max_degree(Graph()) == 0

    def test_degree_one_fraction(self, star_graph):
        assert degree_one_fraction(star_graph) == pytest.approx(6 / 7)

    def test_powerlaw_exponent_on_ba_graph(self):
        graph = barabasi_albert(500, m=2, seed=3)
        exponent = estimate_powerlaw_exponent(graph)
        assert 1.5 < exponent < 4.0

    def test_powerlaw_exponent_insufficient_tail(self, line_graph):
        assert math.isnan(estimate_powerlaw_exponent(line_graph, k_min=10))


class TestDistances:
    def test_bfs_distances_on_line(self, line_graph):
        distances = bfs_distances(line_graph, 0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}

    def test_bfs_distances_unknown_source(self, line_graph):
        with pytest.raises(NodeNotFoundError):
            bfs_distances(line_graph, 99)

    def test_eccentricity(self, line_graph):
        assert eccentricity(line_graph, 0) == 5
        assert eccentricity(line_graph, 2) == 3

    def test_eccentricity_requires_connected_graph(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        with pytest.raises(DisconnectedGraphError):
            eccentricity(graph, 1)

    def test_sampled_path_length_stats(self, line_graph):
        stats = sampled_path_length_stats(line_graph, samples=50, seed=1)
        assert 1.0 <= stats.mean <= 5.0
        assert stats.maximum <= 5
        assert stats.samples == 50

    def test_sampled_path_length_requires_two_nodes(self):
        graph = Graph()
        graph.add_node(1)
        with pytest.raises(DisconnectedGraphError):
            sampled_path_length_stats(graph, samples=5)

    def test_approximate_diameter_on_line(self, line_graph):
        assert approximate_diameter(line_graph, probes=5, seed=2) == 5

    def test_approximate_diameter_empty(self):
        assert approximate_diameter(Graph()) == 0


class TestClustering:
    def test_triangle_clustering_is_one(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(3, 1)
        assert clustering_coefficient(graph, 1) == pytest.approx(1.0)

    def test_star_clustering_is_zero(self, star_graph):
        assert clustering_coefficient(star_graph, 0) == 0.0
        assert average_clustering(star_graph) == 0.0

    def test_degree_one_node_clustering_zero(self, line_graph):
        assert clustering_coefficient(line_graph, 0) == 0.0

    def test_average_clustering_with_sampling(self):
        graph = barabasi_albert(100, m=3, seed=4)
        sampled = average_clustering(graph, samples=30, seed=1)
        assert 0.0 <= sampled <= 1.0


@pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
class TestMatchesNetworkx:
    """Each metric == networkx's on graphs with ties, triangles and trees."""

    @pytest.fixture()
    def graphs(self, name):
        reference = reference_graphs()[name]
        return reference, Graph.from_networkx(reference)

    def test_bfs_distances(self, graphs):
        import networkx as nx

        reference, graph = graphs
        for source, expected in nx.all_pairs_shortest_path_length(reference):
            assert bfs_distances(graph, source) == dict(expected)

    def test_eccentricity(self, graphs):
        import networkx as nx

        reference, graph = graphs
        expected = nx.eccentricity(reference)
        assert {node: eccentricity(graph, node) for node in graph.nodes()} == expected

    def test_clustering(self, graphs):
        import networkx as nx

        reference, graph = graphs
        expected = nx.clustering(reference)
        assert {node: clustering_coefficient(graph, node) for node in graph.nodes()} == pytest.approx(expected)
        assert average_clustering(graph) == pytest.approx(nx.average_clustering(reference))

    def test_degree_statistics(self, graphs):
        import networkx as nx

        reference, graph = graphs
        histogram = nx.degree_histogram(reference)
        assert degree_distribution(graph) == {d: c for d, c in enumerate(histogram) if c}
        n = reference.number_of_nodes()
        assert degree_ccdf(graph) == pytest.approx(
            [(d, sum(histogram[d:]) / n) for d, c in enumerate(histogram) if c]
        )
        assert average_degree(graph) == pytest.approx(2 * reference.number_of_edges() / n)
        assert max_degree(graph) == len(histogram) - 1

    def test_diameter_and_path_lengths_are_bounded_by_the_exact_ones(self, graphs):
        import networkx as nx

        reference, graph = graphs
        diameter, radius = nx.diameter(reference), nx.radius(reference)
        # The double sweep returns an eccentricity, so it lies in [radius, diameter].
        assert radius <= approximate_diameter(graph, probes=3, seed=1) <= diameter
        stats = sampled_path_length_stats(graph, samples=40, seed=1)
        assert 1 <= stats.median <= stats.p90 <= stats.maximum <= diameter


class TestSummary:
    def test_summary_fields(self, small_router_map):
        summary = summarize(small_router_map.graph, seed=2)
        assert summary.nodes == small_router_map.router_count
        assert summary.edges == small_router_map.graph.edge_count
        assert summary.average_degree > 1.0
        assert summary.max_degree >= 10
        assert 0.0 < summary.degree_one_fraction < 1.0
        assert summary.approximate_diameter >= 5
        assert summary.mean_path_length > 2.0
