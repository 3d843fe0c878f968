"""Tests for the LandmarkSet manager."""

from __future__ import annotations

import pytest

from repro.exceptions import LandmarkError
from repro.landmarks.manager import Landmark, LandmarkSet
from repro.topology.graph import Graph


@pytest.fixture()
def landmark_set(line_graph) -> LandmarkSet:
    return LandmarkSet.from_routers(line_graph, [0, 5])


class TestMembership:
    def test_from_routers_names(self, landmark_set):
        assert landmark_set.ids() == ["lm0", "lm1"]
        assert landmark_set.routers() == [0, 5]
        assert len(landmark_set) == 2

    def test_add(self, line_graph):
        landmark_set = LandmarkSet(graph=line_graph)
        landmark = landmark_set.add("west", 0)
        assert landmark == Landmark(landmark_id="west", router=0)
        assert landmark_set.routers() == [0]

    def test_duplicate_id_rejected(self, landmark_set):
        with pytest.raises(LandmarkError):
            landmark_set.add("lm0", 3)

    def test_unknown_router_rejected(self, line_graph):
        landmark_set = LandmarkSet(graph=line_graph)
        with pytest.raises(LandmarkError):
            landmark_set.add("x", 99)

    def test_iteration(self, landmark_set):
        assert [landmark.landmark_id for landmark in landmark_set] == ["lm0", "lm1"]


class TestDistances:
    def test_pairwise_hop_distances(self, landmark_set):
        distances = landmark_set.pairwise_hop_distances()
        assert distances[("lm0", "lm1")] == 5.0
        assert distances[("lm1", "lm0")] == 5.0

    def test_pairwise_raises_when_disconnected(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        landmark_set = LandmarkSet.from_routers(graph, [1, 3])
        with pytest.raises(LandmarkError):
            landmark_set.pairwise_hop_distances()
