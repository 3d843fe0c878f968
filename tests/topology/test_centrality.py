"""Tests for betweenness centrality and its concentration on the core."""

from __future__ import annotations

import pytest

from repro.exceptions import NodeNotFoundError
from repro.topology.centrality import (
    approximate_betweenness,
    betweenness_centrality,
    centrality_concentration,
)
from repro.topology.graph import Graph

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs


class TestBetweenness:
    def test_star_centre_has_all_betweenness(self, star_graph):
        centrality = betweenness_centrality(star_graph, normalized=True)
        assert centrality[0] == pytest.approx(1.0)
        assert all(centrality[leaf] == pytest.approx(0.0) for leaf in range(1, 7))

    def test_line_graph_middle_highest(self, line_graph):
        centrality = betweenness_centrality(line_graph, normalized=False)
        assert centrality[2] == centrality[3]
        assert centrality[2] > centrality[1] > centrality[0]

    def test_line_graph_exact_values(self, line_graph):
        # For a path of 6 nodes, node 1 lies on the shortest paths between
        # {0} and {2,3,4,5}: 4 pairs.
        centrality = betweenness_centrality(line_graph, normalized=False)
        assert centrality[1] == pytest.approx(4.0)
        assert centrality[2] == pytest.approx(6.0)

    def test_unknown_source_raises(self, line_graph):
        with pytest.raises(NodeNotFoundError):
            betweenness_centrality(line_graph, sources=["ghost"])

    def test_approximate_matches_exact_ranking_on_small_graph(self, tree_graph):
        exact = betweenness_centrality(tree_graph)
        approx = approximate_betweenness(tree_graph, pivots=100, seed=1)
        top_exact = max(exact, key=exact.get)
        top_approx = max(approx, key=approx.get)
        assert top_exact == top_approx

    def test_approximate_with_few_pivots_runs(self, star_graph):
        approx = approximate_betweenness(star_graph, pivots=3, seed=2)
        assert max(approx, key=approx.get) == 0

    def test_approximate_with_every_pivot_is_exact(self, tree_graph):
        exact = betweenness_centrality(tree_graph)
        assert approximate_betweenness(tree_graph, pivots=tree_graph.node_count, seed=4) == exact

    def test_every_node_as_a_source_scales_to_the_exact_value(self, tree_graph):
        """The sampled estimate is unbiased: all sources give the exact answer."""
        exact = betweenness_centrality(tree_graph)
        sampled = betweenness_centrality(tree_graph, sources=list(tree_graph.nodes()))
        assert sampled == pytest.approx(exact)


class TestBetweennessMatchesNetworkx:
    """Exact Brandes accumulation == networkx, including split path counts."""

    @pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
    @pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
    def test_exact_values(self, name, normalized):
        nx = pytest.importorskip("networkx")
        reference = reference_graphs()[name]
        ours = betweenness_centrality(Graph.from_networkx(reference), normalized=normalized)
        expected = nx.betweenness_centrality(reference, normalized=normalized)
        assert ours == pytest.approx(expected, abs=1e-9)


class TestConcentration:
    def test_star_concentration_is_total(self, star_graph):
        concentration = centrality_concentration(star_graph, top_fraction=0.2, pivots=10, seed=1)
        assert concentration == pytest.approx(1.0)

    def test_cycle_concentration_is_spread(self):
        graph = Graph()
        nodes = list(range(12))
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            graph.add_edge(u, v)
        concentration = centrality_concentration(graph, top_fraction=0.25, pivots=12, seed=1)
        # In a symmetric cycle the top 25% carry roughly 25% of the load.
        assert concentration < 0.5
