"""Tests for peer arrival processes."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.workloads.arrivals import flash_crowd_arrivals, poisson_arrivals

PEERS = [f"p{i}" for i in range(100)]


class TestPoisson:
    def test_all_peers_arrive_in_order(self):
        arrivals = poisson_arrivals(PEERS, rate_per_s=2.0, seed=1)
        assert len(arrivals) == len(PEERS)
        times = [arrival.time_s for arrival in arrivals]
        assert times == sorted(times)
        assert [arrival.peer_id for arrival in arrivals] == PEERS

    def test_rate_roughly_matches(self):
        arrivals = poisson_arrivals(PEERS, rate_per_s=5.0, seed=2)
        rate = (len(arrivals) - 1) / (arrivals[-1].time_s - arrivals[0].time_s)
        assert 2.5 < rate < 10.0

    def test_requires_peers_and_positive_rate(self):
        with pytest.raises(ConfigurationError):
            poisson_arrivals([], rate_per_s=1.0)
        with pytest.raises(Exception):
            poisson_arrivals(PEERS, rate_per_s=0.0)

    def test_start_time_offset(self):
        arrivals = poisson_arrivals(PEERS[:5], rate_per_s=1.0, start_time_s=100.0, seed=3)
        assert all(arrival.time_s > 100.0 for arrival in arrivals)


class TestFlashCrowd:
    def test_most_arrivals_in_the_ramp(self):
        arrivals = flash_crowd_arrivals(PEERS, duration_s=100.0, peak_fraction=0.8, ramp_fraction=0.2, seed=4)
        in_ramp = sum(1 for arrival in arrivals if arrival.time_s <= 20.0)
        assert in_ramp >= 70
        assert len(arrivals) == len(PEERS)

    def test_sorted_by_time(self):
        arrivals = flash_crowd_arrivals(PEERS, duration_s=60.0, seed=5)
        times = [arrival.time_s for arrival in arrivals]
        assert times == sorted(times)

    def test_invalid_fractions(self):
        with pytest.raises(ConfigurationError):
            flash_crowd_arrivals(PEERS, duration_s=10.0, peak_fraction=0.0)
        with pytest.raises(ConfigurationError):
            flash_crowd_arrivals(PEERS, duration_s=10.0, ramp_fraction=1.0)
        with pytest.raises(ConfigurationError):
            flash_crowd_arrivals([], duration_s=10.0)

