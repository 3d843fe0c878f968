"""Tests for the convergence (quicker-than-coordinates) study."""

from __future__ import annotations

import pytest

from repro.experiments.convergence import run_convergence_study


@pytest.fixture(scope="module")
def table():
    return run_convergence_study(
        peer_count=40,
        landmark_count=3,
        neighbor_set_size=3,
        vivaldi_round_schedule=(1, 4, 16),
        seed=19,
    )


class TestConvergenceStudy:
    def test_all_schemes_present(self, table):
        schemes = table.column("scheme")
        assert "path_tree" in schemes
        assert "gnp" in schemes
        assert "binning" in schemes
        assert "random" in schemes
        assert {"vivaldi_r1", "vivaldi_r4", "vivaldi_r16"} <= set(schemes)

    def test_ratios_at_least_one(self, table):
        for row in table.rows:
            assert row["scheme_ratio"] >= 0.99

    def test_path_tree_beats_early_vivaldi(self, table):
        rows = {row["scheme"]: row for row in table.rows}
        assert rows["path_tree"]["scheme_ratio"] <= rows["vivaldi_r1"]["scheme_ratio"] + 0.05
        assert rows["path_tree"]["scheme_ratio"] <= rows["vivaldi_r4"]["scheme_ratio"] + 0.05

    def test_path_tree_beats_random(self, table):
        rows = {row["scheme"]: row for row in table.rows}
        assert rows["path_tree"]["scheme_ratio"] < rows["random"]["scheme_ratio"]

    def test_setup_times_reflect_measurement_effort(self, table):
        rows = {row["scheme"]: row for row in table.rows}
        assert rows["random"]["setup_time_ms"] == 0.0
        assert rows["vivaldi_r4"]["setup_time_ms"] > rows["vivaldi_r1"]["setup_time_ms"]
        # The paper's point: the path-tree answer arrives much sooner than a
        # converged coordinate system's.
        assert rows["path_tree"]["setup_time_ms"] < rows["vivaldi_r4"]["setup_time_ms"]
        assert rows["path_tree"]["setup_time_ms"] < rows["vivaldi_r16"]["setup_time_ms"] / 5

    def test_metadata(self, table):
        assert table.metadata["peers"] == 40
        assert table.metadata["k"] == 3
