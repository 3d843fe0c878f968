"""Tests for the paper's D metric and its ratios."""

from __future__ import annotations

import pytest

from repro.exceptions import MetricError
from repro.metrics.proximity import (
    ProximityComparison,
    compare_strategies,
    neighbor_cost,
    population_cost,
)


def index_distance(peer_a, peer_b) -> float:
    return abs(int(peer_a[1:]) - int(peer_b[1:]))


class TestNeighborCost:
    def test_sum_of_distances(self):
        assert neighbor_cost("p0", ["p1", "p3"], index_distance) == 4.0

    def test_empty_neighbors_rejected(self):
        with pytest.raises(MetricError):
            neighbor_cost("p0", [], index_distance)

    def test_population_cost(self):
        sets = {"p0": ["p1"], "p1": ["p3"]}
        assert population_cost(sets, index_distance) == 1.0 + 2.0

    def test_empty_population_rejected(self):
        with pytest.raises(MetricError):
            population_cost({}, index_distance)


class TestComparison:
    def _comparison(self):
        scheme = {"p0": ["p1"], "p5": ["p4"]}
        closest = {"p0": ["p1"], "p5": ["p4"]}
        random_sets = {"p0": ["p5"], "p5": ["p0"]}
        return compare_strategies(scheme, closest, random_sets, index_distance, neighbor_set_size=1)

    def test_ratios(self):
        comparison = self._comparison()
        assert comparison.peers == 2
        assert comparison.scheme_ratio == pytest.approx(1.0)
        assert comparison.random_ratio == pytest.approx(10 / 2)

    def test_population_mismatch_rejected(self):
        with pytest.raises(MetricError):
            compare_strategies(
                {"p0": ["p1"]},
                {"p0": ["p1"], "p2": ["p1"]},
                {"p0": ["p1"]},
                index_distance,
                neighbor_set_size=1,
            )

    def test_zero_optimal_cost_rejected(self):
        comparison = ProximityComparison(
            peers=1, neighbor_set_size=1, cost_scheme=3.0, cost_closest=0.0, cost_random=5.0
        )
        with pytest.raises(MetricError):
            _ = comparison.scheme_ratio

