"""Tests for the ablation studies (scaled down to run quickly)."""

from __future__ import annotations

import math

import pytest

from repro.experiments.ablations import (
    churn_study,
    landmark_count_sweep,
    landmark_placement_sweep,
    neighbor_set_size_sweep,
    superpeer_study,
    traceroute_noise_sweep,
    tree_accuracy_study,
)


class TestLandmarkSweeps:
    def test_landmark_count_sweep_rows(self):
        table = landmark_count_sweep(landmark_counts=(1, 4, 8), peer_count=30, seed=3)
        assert table.column("landmarks") == [1, 4, 8]
        for row in table.rows:
            assert row["scheme_ratio"] >= 1.0
            assert row["random_ratio"] >= 1.0
            assert row["scheme_ratio"] < row["random_ratio"]
        # "Few landmarks": going from 4 to 8 barely moves the quality.
        ratios = dict(zip(table.column("landmarks"), table.column("scheme_ratio")))
        assert abs(ratios[8] - ratios[4]) < 0.25

    def test_landmark_placement_sweep_rows(self):
        strategies = ["medium_degree", "random", "high_degree", "betweenness"]
        table = landmark_placement_sweep(
            strategies=strategies, peer_count=30, landmark_count=3, seed=3
        )
        assert table.column("strategy") == strategies
        for row in table.rows:
            assert row["scheme_ratio"] < row["random_ratio"]
        # The paper's medium-degree placement is within 0.3 of the best.
        ratios = dict(zip(strategies, table.column("scheme_ratio")))
        assert ratios["medium_degree"] <= min(ratios.values()) + 0.3


class TestNeighborSetSizeSweep:
    def test_rows_and_ratios(self):
        table = neighbor_set_size_sweep(sizes=(1, 3), peer_count=30, landmark_count=3, seed=5)
        assert table.column("k") == [1, 3]
        for row in table.rows:
            assert row["scheme_ratio"] >= 1.0


class TestTreeAccuracy:
    def test_same_landmark_pairs_are_accurate(self):
        table = tree_accuracy_study(peer_count=50, landmark_count=3, pair_samples=120, seed=7)
        rows = {row["pair_type"]: row for row in table.rows}
        assert "same_landmark" in rows
        same = rows["same_landmark"]
        # dtree is an upper bound on the true distance, so stretch >= 1 ...
        assert same["mean_stretch"] >= 1.0
        # ... and the core-centrality argument keeps it close to 1.
        assert same["mean_stretch"] < 1.5
        assert same["p90_stretch"] < 2.0
        assert same["exact_fraction"] > 0.3
        if "cross_landmark" in rows:
            assert rows["cross_landmark"]["mean_stretch"] >= same["mean_stretch"] * 0.9


class TestTracerouteNoise:
    def test_quality_degrades_gracefully(self):
        table = traceroute_noise_sweep(
            anonymous_probabilities=(0.0, 0.3), peer_count=30, landmark_count=3, seed=9
        )
        clean_row, noisy_row = table.rows
        assert clean_row["anonymous_probability"] == 0.0
        assert noisy_row["anonymous_probability"] == 0.3
        # Even with 30% anonymous routers the scheme stays better than random,
        # and costs at most +0.5 over clean traceroutes.
        for row in table.rows:
            assert row["scheme_ratio"] < row["random_ratio"]
        assert noisy_row["scheme_ratio"] < 2.0
        assert noisy_row["scheme_ratio"] <= clean_row["scheme_ratio"] + 0.5


class TestSuperpeers:
    """Super-peers are shards: quality never moves, only the load spreads."""

    def test_sharding_preserves_quality_and_spreads_load(self):
        table = superpeer_study(shard_counts=(1, 2), peer_count=40, landmark_count=4, seed=5)
        rows = {row["shards"]: row for row in table.rows}
        for row in table.rows:
            assert row["scheme_ratio"] == rows[1]["scheme_ratio"]
            assert row["scheme_ratio"] >= 1.0
        assert rows[1]["max_load_fraction"] == 1.0
        assert rows[2]["max_load_fraction"] < 1.0

    def test_paper_scale_ratio_is_the_single_servers_at_every_shard_count(self):
        table = superpeer_study(
            shard_counts=(1, 2, 4, 8),
            peer_count=120,
            landmark_count=8,
            neighbor_set_size=3,
            seed=37,
        )
        rows = {row["shards"]: row for row in table.rows}
        for row in table.rows:
            assert row["scheme_ratio"] == rows[1]["scheme_ratio"]
            assert row["scheme_ratio"] < 1.5
        assert rows[1]["max_load_fraction"] == 1.0
        assert rows[8]["max_load_fraction"] <= rows[2]["max_load_fraction"]

    def test_busiest_shard_holds_a_whole_number_of_peers_and_at_least_its_share(self):
        peer_count = 40
        table = superpeer_study(shard_counts=(2, 4), peer_count=peer_count, landmark_count=4, seed=5)
        for row in table.rows:
            busiest = row["max_load_fraction"] * peer_count
            assert busiest == pytest.approx(round(busiest))
            assert row["max_load_fraction"] >= 1.0 / row["shards"]

    def test_table_metadata_names_the_population(self):
        table = superpeer_study(shard_counts=(1,), peer_count=30, landmark_count=3, seed=5)
        assert table.metadata == {"peers": 30, "landmarks": 3, "k": 3, "seed": 5}
        assert table.column("shards") == [1]


class TestChurn:
    def test_phases_and_recovery(self):
        table = churn_study(peer_count=40, landmark_count=3, departure_fraction=0.3, seed=11)
        phases = table.column("phase")
        assert phases == ["initial", "after_departures", "after_refresh"]
        rows = {row["phase"]: row for row in table.rows}
        for row in table.rows:
            assert not math.isnan(row["scheme_ratio"])
            assert row["scheme_ratio"] >= 1.0
        # Refreshing the neighbour lists never hurts relative to the stale state,
        # and leaves the survivors in the paper's "close to optimal" band.
        assert rows["after_refresh"]["scheme_ratio"] <= rows["after_departures"]["scheme_ratio"] + 0.1
        assert rows["after_refresh"]["scheme_ratio"] < 1.6
        assert rows["after_departures"]["online_peers"] == rows["after_refresh"]["online_peers"]
