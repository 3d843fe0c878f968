"""Tests for the distance-accuracy tooling (dtree vs true distance)."""

from __future__ import annotations

import pytest

from repro.core.distance import (
    AccuracyReport,
    PairAccuracy,
    evaluate_estimator,
    sample_peer_pairs,
)
from repro.exceptions import MetricError


class TestPairAccuracy:
    def test_error_and_stretch(self):
        record = PairAccuracy("a", "b", true_distance=4.0, estimated_distance=6.0)
        assert record.absolute_error == 2.0
        assert record.stretch == pytest.approx(1.5)

    def test_exact_pair(self):
        record = PairAccuracy("a", "b", true_distance=4.0, estimated_distance=4.0)
        assert record.absolute_error == 0.0
        assert record.stretch == 1.0

    def test_zero_true_distance(self):
        same = PairAccuracy("a", "b", true_distance=0.0, estimated_distance=0.0)
        assert same.stretch == 1.0
        off = PairAccuracy("a", "b", true_distance=0.0, estimated_distance=1.0)
        assert off.stretch == float("inf")


class TestAccuracyReport:
    def test_from_records(self):
        records = [
            PairAccuracy("a", "b", 4.0, 4.0),
            PairAccuracy("a", "c", 4.0, 6.0),
            PairAccuracy("b", "c", 2.0, 2.0),
        ]
        report = AccuracyReport.from_records(records)
        assert report.pairs == 3
        assert report.exact_fraction == pytest.approx(2 / 3)
        assert report.mean_absolute_error == pytest.approx(2 / 3)
        assert report.max_absolute_error == 2.0
        assert report.mean_stretch >= 1.0

    def test_empty_records_rejected(self):
        with pytest.raises(MetricError):
            AccuracyReport.from_records([])


class _FixedEstimator:
    """Estimator returning a constant offset over the truth (for testing)."""

    def __init__(self, truths, offset=0.0):
        self.truths = truths
        self.offset = offset

    def estimate_distance(self, peer_a, peer_b):
        return self.truths[(peer_a, peer_b)] + self.offset


class TestEvaluateEstimator:
    def test_perfect_estimator(self):
        truths = {("a", "b"): 3.0, ("a", "c"): 5.0}
        report = evaluate_estimator(_FixedEstimator(truths), truths)
        assert report.exact_fraction == 1.0
        assert report.mean_stretch == 1.0

    def test_biased_estimator(self):
        truths = {("a", "b"): 4.0, ("a", "c"): 8.0}
        report = evaluate_estimator(_FixedEstimator(truths, offset=2.0), truths)
        assert report.exact_fraction == 0.0
        assert report.mean_absolute_error == 2.0


class TestSamplePairs:
    def test_samples_unique_unordered_pairs(self):
        peers = [f"p{i}" for i in range(10)]
        pairs = sample_peer_pairs(peers, 20, seed=1)
        assert len(pairs) == 20
        assert len(set(pairs)) == 20
        for peer_a, peer_b in pairs:
            assert peer_a != peer_b

    def test_caps_at_max_possible_pairs(self):
        peers = ["a", "b", "c"]
        pairs = sample_peer_pairs(peers, 100, seed=2)
        assert len(pairs) == 3

    def test_requires_two_peers(self):
        with pytest.raises(MetricError):
            sample_peer_pairs(["only"], 5)

    def test_deterministic_with_seed(self):
        peers = [f"p{i}" for i in range(8)]
        assert sample_peer_pairs(peers, 10, seed=3) == sample_peer_pairs(peers, 10, seed=3)

    def test_duplicate_ids_never_yield_self_pairs(self):
        peers = ["x"] * 50 + ["y", "z"]
        pairs = sample_peer_pairs(peers, 10, seed=4)
        assert pairs  # terminates despite the duplicate streak
        for peer_a, peer_b in pairs:
            assert peer_a != peer_b

