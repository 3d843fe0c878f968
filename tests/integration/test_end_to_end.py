"""Integration tests: the full pipeline from router map to the paper's metric.

These tests exercise several subsystems together (topology + routing + core +
baselines + metrics) on small-but-realistic inputs, and check the headline
properties the paper reports rather than individual functions.
"""

from __future__ import annotations

import pytest

from repro.core.distance import evaluate_estimator, sample_peer_pairs
from repro.metrics.proximity import compare_strategies, per_peer_ratios, population_cost
from repro.protocol import ProtocolSimulation

from ..conftest import make_small_scenario


class TestFigureShape:
    """The reproduced figure's qualitative claims on a small instance."""

    @pytest.fixture(scope="class")
    def comparison(self, request):
        scenario = make_small_scenario(seed=31, peer_count=50)
        scenario.join_all()
        return scenario, compare_strategies(
            scenario.scheme_neighbor_sets(),
            scenario.oracle_neighbor_sets(),
            scenario.random_neighbor_sets(),
            scenario.true_distance,
            scenario.config.neighbor_set_size,
        )

    def test_scheme_close_to_optimal(self, comparison):
        _, result = comparison
        assert 1.0 <= result.scheme_ratio < 1.5

    def test_random_clearly_worse(self, comparison):
        _, result = comparison
        assert result.random_ratio > result.scheme_ratio
        assert result.random_ratio > 1.15

    def test_most_peers_individually_near_optimal(self, comparison):
        scenario, _ = comparison
        ratios = per_peer_ratios(
            scenario.scheme_neighbor_sets(), scenario.oracle_neighbor_sets(), scenario.true_distance
        )
        near_optimal = sum(1 for ratio in ratios.values() if ratio <= 1.5)
        assert near_optimal / len(ratios) > 0.7

    def test_growing_population_does_not_degrade_the_scheme(self):
        """The paper: 'the quality of the algorithm is stable' as n grows."""
        small = make_small_scenario(seed=33, peer_count=30)
        large = make_small_scenario(seed=33, peer_count=90)
        ratios = []
        for scenario in (small, large):
            scenario.join_all()
            result = compare_strategies(
                scenario.scheme_neighbor_sets(),
                scenario.oracle_neighbor_sets(),
                scenario.random_neighbor_sets(),
                scenario.true_distance,
                scenario.config.neighbor_set_size,
            )
            ratios.append(result.scheme_ratio)
        assert abs(ratios[1] - ratios[0]) < 0.35


class TestDtreeAccuracy:
    """Claim C3: the inferred distance is an accurate upper bound."""

    def test_dtree_upper_bounds_and_tracks_true_distance(self, joined_scenario):
        scenario = joined_scenario
        pairs = sample_peer_pairs(scenario.peer_ids, 150, seed=3)
        same_landmark = [
            pair
            for pair in pairs
            if scenario.server.peer_landmark(pair[0]) == scenario.server.peer_landmark(pair[1])
        ]
        assert len(same_landmark) >= 10
        truths = {pair: scenario.oracle.peer_distance(*pair) for pair in same_landmark}
        report = evaluate_estimator(scenario.server, truths)
        # dtree follows an actual route, so it can never undershoot ...
        for (peer_a, peer_b), true in truths.items():
            assert scenario.server.estimate_distance(peer_a, peer_b) >= true - 1e-9
        # ... and stays close to the true distance on average.
        assert report.mean_stretch < 1.5
        assert report.exact_fraction > 0.3

    def test_neighbor_ranking_overlaps_with_oracle(self, joined_scenario):
        scenario = joined_scenario
        k = scenario.config.neighbor_set_size
        overlaps = []
        for peer in scenario.peer_ids[:20]:
            scheme = [p for p, _ in scenario.server.closest_peers(peer, k=k)]
            optimal = scenario.oracle.select_neighbors(peer, k=k)
            # Precision at k: the share of the scheme's list the oracle also picked.
            overlaps.append(len(set(scheme) & set(optimal)) / len(scheme))
        assert sum(overlaps) / len(overlaps) > 0.4


class TestEventDrivenJoin:
    def test_simulated_flash_crowd_joins_everyone(self):
        scenario = make_small_scenario(seed=37, peer_count=20)
        arrivals = {peer_id: index * 10.0 for index, peer_id in enumerate(scenario.peer_routers)}
        sim = ProtocolSimulation.over_scenario(scenario, arrivals_ms=arrivals, seed=37)
        sim.run(2000.0)

        peers = [sim.peers[peer_id] for peer_id in arrivals]
        assert all(peer.neighbors is not None for peer in peers)
        assert scenario.server.peer_count == 20
        # Later joiners should generally receive at least one neighbour.
        late = peers[-1]
        assert len(late.neighbors) >= 1
        assert late.stats.setup_delay_ms > 0


class TestNeighborProximity:
    def test_scheme_neighbors_are_much_closer_than_random_ones(self):
        """A peer's neighbours cross far fewer routers than random ones.

        This is the property the paper optimises (a peer's neighbours should
        be network-close); overlay-diameter effects on end-to-end delivery are
        a separate trade-off handled by blending in long links, which the
        scheme does not preclude.
        """
        scenario = make_small_scenario(seed=41, peer_count=25)
        scenario.join_all()
        scheme_cost = population_cost(scenario.scheme_neighbor_sets(), scenario.true_distance)
        random_cost = population_cost(scenario.random_neighbor_sets(), scenario.true_distance)
        assert scheme_cost < random_cost * 0.85
