"""Tests for delay statistics and the probe-cost model."""

from __future__ import annotations

import pytest

from repro.exceptions import MetricError
from repro.metrics.latency_stats import DelaySummary, ProbeCostModel


class TestDelaySummary:
    def test_from_samples(self):
        summary = DelaySummary.from_samples([10.0, 20.0, 30.0, 40.0])
        assert summary.count == 4
        assert summary.mean == 25.0
        assert summary.median == 20.0
        assert summary.maximum == 40.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            DelaySummary.from_samples([])


class TestProbeCostModel:
    def test_traceroute_time_scales_with_hops(self):
        model = ProbeCostModel(per_probe_rtt_ms=40.0, probes_in_parallel=4)
        assert model.traceroute_time(4) == pytest.approx(40.0)
        assert model.traceroute_time(8) == pytest.approx(80.0)
        assert model.traceroute_time(8, landmarks_probed=2) == pytest.approx(160.0)

    def test_path_tree_setup_includes_server_round_trip(self):
        model = ProbeCostModel(per_probe_rtt_ms=40.0, probes_in_parallel=4, server_round_trip_ms=30.0)
        assert model.path_tree_setup_time(4) == pytest.approx(70.0)

    def test_coordinate_setup_time(self):
        model = ProbeCostModel(per_round_interval_ms=500.0, per_probe_rtt_ms=40.0)
        assert model.coordinate_setup_time(0) == 0.0
        assert model.coordinate_setup_time(10) == pytest.approx(5000.0)

    def test_landmark_measurement_time(self):
        model = ProbeCostModel(per_probe_rtt_ms=40.0, probes_in_parallel=4)
        assert model.landmark_measurement_time(4) == pytest.approx(40.0)
        assert model.landmark_measurement_time(5) == pytest.approx(80.0)

    def test_invalid_inputs(self):
        model = ProbeCostModel()
        with pytest.raises(MetricError):
            model.traceroute_time(0)
        with pytest.raises(MetricError):
            model.coordinate_setup_time(-1)
        with pytest.raises(MetricError):
            model.landmark_measurement_time(0)

    def test_path_tree_faster_than_many_gossip_rounds(self):
        """The paper's headline claim under the default cost model."""
        model = ProbeCostModel()
        assert model.path_tree_setup_time(15, landmarks_probed=4) < model.coordinate_setup_time(16)
