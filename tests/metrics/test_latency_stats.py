"""Tests for delay statistics."""

from __future__ import annotations

import pytest

from repro.exceptions import MetricError
from repro.metrics.latency_stats import DelaySummary


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
