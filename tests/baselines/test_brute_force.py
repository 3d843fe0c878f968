"""Tests for the brute-force oracle baseline."""

from __future__ import annotations

import pytest

from repro.baselines.brute_force import BruteForceOracle
from repro.exceptions import ConfigurationError, NoRouteError
from repro.routing.distance_engine import HopDistanceEngine
from repro.topology.graph import Graph

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs
from ..routing.reference_paths import hop_distance


@pytest.fixture()
def oracle(line_graph) -> BruteForceOracle:
    attachment = {"pa": 0, "pb": 1, "pc": 3, "pd": 5, "pe": 0}
    return BruteForceOracle(line_graph, attachment)


class TestDistances:
    def test_peer_distance_includes_host_hops(self, oracle):
        assert oracle.peer_distance("pa", "pb") == 1 + 2
        assert oracle.peer_distance("pa", "pd") == 5 + 2
        assert oracle.peer_distance("pa", "pe") == 2  # same router
        assert oracle.peer_distance("pa", "pa") == 0.0

    def test_estimate_distance_alias(self, oracle):
        assert oracle.estimate_distance("pa", "pc") == oracle.peer_distance("pa", "pc")

    def test_custom_host_hops(self, line_graph):
        oracle = BruteForceOracle(line_graph, {"pa": 0, "pb": 2}, host_hops=0)
        assert oracle.peer_distance("pa", "pb") == 2

    def test_negative_host_hops_rejected(self, line_graph):
        with pytest.raises(ConfigurationError):
            BruteForceOracle(line_graph, {}, host_hops=-1)

    def test_router_distances_are_the_reference_bfs(self, tree_graph):
        oracle = BruteForceOracle(tree_graph, {"p7": 7, "p8": 8, "p6": 6}, host_hops=0)
        assert oracle.peer_distance("p7", "p8") == hop_distance(tree_graph, 7, 8) == 4
        assert oracle.peer_distance("p7", "p6") == hop_distance(tree_graph, 7, 6) == 5

    def test_disconnected_pair_raises_no_route(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        oracle = BruteForceOracle(graph, {"pa": 1, "pb": 2, "pc": 3})
        with pytest.raises(NoRouteError):
            oracle.peer_distance("pa", "pc")
        # An unreachable candidate is left out of a ranking, not an error.
        assert oracle.closest_peers("pa", k=2) == [("pb", 3.0)]

    def test_engine_of_another_graph_rejected(self, line_graph):
        other = Graph()
        other.add_edge(0, 1)
        with pytest.raises(ValueError):
            BruteForceOracle(line_graph, {"pa": 0}, engine=HopDistanceEngine(other))

    def test_answers_follow_a_mutated_graph(self):
        graph = Graph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        oracle = BruteForceOracle(graph, {"pa": "a", "pc": "c"})
        assert oracle.peer_distance("pa", "pc") == 2 + 2
        assert oracle.closest_peers("pa", k=1) == [("pc", 4.0)]
        graph.add_edge("a", "c")
        assert oracle.peer_distance("pa", "pc") == 1 + 2
        assert oracle.closest_peers("pa", k=1) == [("pc", 3.0)]


class TestSelection:
    def test_closest_peers_sorted_by_true_distance(self, oracle):
        ranked = oracle.closest_peers("pa", k=4)
        distances = [distance for _, distance in ranked]
        assert distances == sorted(distances)
        assert ranked[0][0] == "pe"  # same router
        assert ranked[1][0] == "pb"

    def test_select_neighbors_matches_closest_peers(self, oracle):
        assert oracle.select_neighbors("pa", k=3) == [
            peer for peer, _ in oracle.closest_peers("pa", k=3)
        ]

    def test_population_restriction(self, oracle):
        ranked = oracle.closest_peers("pa", k=3, population=["pc", "pd"])
        assert [peer for peer, _ in ranked] == ["pc", "pd"]

    def test_exclude(self, oracle):
        ranked = oracle.closest_peers("pa", k=4, exclude={"pe"})
        assert all(peer != "pe" for peer, _ in ranked)

    def test_unknown_peer_raises(self, oracle):
        with pytest.raises(ConfigurationError):
            oracle.closest_peers("ghost", k=2)



class TestNeighborCost:
    def test_neighbor_cost_is_sum_of_distances(self, oracle):
        cost = oracle.neighbor_cost("pa", ["pb", "pc"])
        assert cost == oracle.peer_distance("pa", "pb") + oracle.peer_distance("pa", "pc")

    def test_optimality_against_every_other_subset(self, oracle):
        """The oracle's k-set minimises D over all candidate subsets."""
        from itertools import combinations

        k = 2
        best = oracle.select_neighbors("pa", k=k)
        best_cost = oracle.neighbor_cost("pa", best)
        others = [peer for peer in oracle.attachment if peer != "pa"]
        for subset in combinations(others, k):
            assert best_cost <= oracle.neighbor_cost("pa", list(subset)) + 1e-9


@pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
def test_peer_distances_match_networkx(name):
    """One peer per router: a peer distance is networkx's hop count plus both host links."""
    nx = pytest.importorskip("networkx")
    reference = reference_graphs()[name]
    oracle = BruteForceOracle(Graph.from_networkx(reference), {f"p{node}": node for node in reference.nodes()})
    for source, expected in nx.all_pairs_shortest_path_length(reference):
        others = {f"p{node}": hops + 2.0 for node, hops in expected.items() if node != source}
        assert dict(oracle.closest_peers(f"p{source}", k=reference.number_of_nodes())) == others
        for peer, distance in others.items():
            assert oracle.peer_distance(f"p{source}", peer) == distance
