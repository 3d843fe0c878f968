"""Tests for landmark placement strategies."""

from __future__ import annotations

import pytest

from repro.exceptions import LandmarkError
from repro.landmarks.placement import (
    PLACEMENT_STRATEGIES,
    place_betweenness,
    place_high_degree,
    place_landmarks,
    place_medium_degree,
    place_on_router_map,
    place_random,
    place_spread,
)
from repro.topology.centrality import approximate_betweenness
from repro.topology.internet_mapper import barabasi_albert
from repro.topology.graph import Graph

from ..conftest import REFERENCE_GRAPH_NAMES, reference_graphs


@pytest.fixture(scope="module")
def scale_free():
    return barabasi_albert(200, m=2, seed=3)


class TestRandomPlacement:
    def test_count_and_uniqueness(self, scale_free):
        landmarks = place_random(scale_free, 10, seed=1)
        assert len(landmarks) == 10
        assert len(set(landmarks)) == 10

    def test_deterministic_with_seed(self, scale_free):
        assert place_random(scale_free, 5, seed=2) == place_random(scale_free, 5, seed=2)

    def test_count_larger_than_pool(self, scale_free):
        nodes = list(scale_free.nodes())[:3]
        assert sorted(place_random(scale_free, 10, candidates=nodes, seed=1)) == sorted(nodes)

    def test_empty_candidates_rejected(self, scale_free):
        with pytest.raises(LandmarkError):
            place_random(scale_free, 3, candidates=[])


class TestMediumDegree:
    def test_avoids_leaves(self, scale_free):
        landmarks = place_medium_degree(scale_free, 8, seed=1)
        assert len(landmarks) == 8
        for landmark in landmarks:
            assert scale_free.degree(landmark) >= 2

    def test_avoids_the_top_of_the_distribution(self, scale_free):
        landmarks = place_medium_degree(scale_free, 8, seed=1)
        top_degree = max(scale_free.degrees().values())
        assert all(scale_free.degree(landmark) < top_degree for landmark in landmarks)

    def test_requires_non_leaf_routers(self):
        graph = Graph()
        graph.add_edge(1, 2)
        with pytest.raises(LandmarkError):
            place_medium_degree(graph, 1)

    def test_picks_from_the_50th_to_90th_percentile_band(self, scale_free):
        eligible = sorted(
            (node for node in scale_free.nodes() if scale_free.degree(node) >= 2),
            key=lambda node: (scale_free.degree(node), repr(node)),
        )
        band = set(eligible[len(eligible) // 2 : int(len(eligible) * 0.9)])
        for seed in range(5):
            assert set(place_medium_degree(scale_free, 8, seed=seed)) <= band


class TestHighDegreeAndBetweenness:
    def test_high_degree_picks_hubs(self, scale_free):
        landmarks = place_high_degree(scale_free, 3)
        degrees = sorted(scale_free.degrees().values(), reverse=True)
        assert sorted((scale_free.degree(l) for l in landmarks), reverse=True) == degrees[:3]

    def test_high_degree_deterministic(self, scale_free):
        assert place_high_degree(scale_free, 4) == place_high_degree(scale_free, 4)

    def test_betweenness_on_star(self, star_graph):
        landmarks = place_betweenness(star_graph, 1, seed=1)
        assert landmarks == [0]

    def test_betweenness_count(self, scale_free):
        landmarks = place_betweenness(scale_free, 5, seed=1)
        assert len(landmarks) == 5

    def test_betweenness_ranks_a_32_pivot_estimate(self, scale_free):
        centrality = approximate_betweenness(scale_free, pivots=32, seed=4)
        ranked = sorted(centrality, key=lambda node: (-centrality[node], repr(node)))
        assert place_betweenness(scale_free, 6, seed=4) == ranked[:6]


class TestSpread:
    def test_spread_separates_landmarks(self, line_graph):
        landmarks = place_spread(line_graph, 2)
        assert len(landmarks) == 2
        # On a path the two farthest-apart choices are the endpoints (or
        # nearly so); they must be at least half the path apart.
        positions = sorted(landmarks)
        assert positions[1] - positions[0] >= 3

    def test_spread_count_capped_by_pool(self, star_graph):
        landmarks = place_spread(star_graph, 20, candidates=[0, 1, 2])
        assert len(landmarks) == 3


class TestDispatch:
    def test_registry_contents(self):
        assert set(PLACEMENT_STRATEGIES) == {
            "random",
            "medium_degree",
            "high_degree",
            "betweenness",
            "spread",
        }

    def test_place_landmarks_dispatch(self, scale_free):
        landmarks = place_landmarks(scale_free, 4, strategy="random", seed=1)
        assert len(landmarks) == 4

    def test_unknown_strategy(self, scale_free):
        with pytest.raises(LandmarkError):
            place_landmarks(scale_free, 4, strategy="astrology")

    def test_place_on_router_map_medium_degree(self, small_router_map):
        landmarks = place_on_router_map(small_router_map, 5, seed=1)
        assert len(landmarks) == 5
        for landmark in landmarks:
            assert small_router_map.graph.degree(landmark) >= 3

    def test_place_on_router_map_other_strategy_excludes_leaves(self, small_router_map):
        landmarks = place_on_router_map(small_router_map, 5, strategy="random", seed=2)
        for landmark in landmarks:
            assert small_router_map.graph.degree(landmark) >= 2


@pytest.mark.parametrize("name", REFERENCE_GRAPH_NAMES)
def test_spread_is_farthest_point_under_networkx_distances(name):
    """Each landmark after the first is as far from the chosen set as any candidate."""
    nx = pytest.importorskip("networkx")
    reference = reference_graphs()[name]
    distances = dict(nx.all_pairs_shortest_path_length(reference))
    count = min(5, reference.number_of_nodes())
    chosen = place_spread(Graph.from_networkx(reference), count)
    assert len(chosen) == len(set(chosen)) == count
    assert reference.degree(chosen[0]) == max(d for _, d in reference.degree())
    for step in range(1, count):
        def gap(node):
            return min(distances[node][landmark] for landmark in chosen[:step])

        remaining = [node for node in reference.nodes() if node not in chosen[:step]]
        assert gap(chosen[step]) == max(gap(node) for node in remaining)
