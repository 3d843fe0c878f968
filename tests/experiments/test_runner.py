"""Tests for the experiment registry, runner and persistence helpers."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.results import ResultTable
from repro.experiments.runner import (
    EXPERIMENTS,
    available_experiments,
    run_experiment,
    save_table,
)


class TestRegistry:
    def test_expected_experiments_registered(self):
        names = available_experiments()
        for expected in (
            "figure1",
            "figure1-quick",
            "landmark-count",
            "landmark-placement",
            "tree-accuracy",
            "traceroute-noise",
            "churn",
        ):
            assert expected in names

    def test_registry_values_are_callables(self):
        assert all(callable(function) for function in EXPERIMENTS.values())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("does-not-exist")

    def test_run_experiment_dispatches_through_the_registry(self, monkeypatch):
        """run_experiment calls the registered function (stubbed for speed)."""
        stub_table = ResultTable(name="stub", columns=["x"])
        stub_table.add_row(x=1)
        monkeypatch.setitem(EXPERIMENTS, "stub-experiment", lambda: stub_table)
        assert "stub-experiment" in available_experiments()
        assert run_experiment("stub-experiment") is stub_table

    def test_superpeer_study_runs_through_the_registry(self):
        table = run_experiment("superpeers")
        assert table.name == "superpeer_study"
        assert table.columns == ["shards", "scheme_ratio", "max_load_fraction"]
        assert table.column("shards") == [1, 2, 4]


class TestPersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        table = ResultTable(name="demo", columns=["peers", "ratio"], metadata={"seed": 1})
        table.add_row(peers=100, ratio=1.25)
        path = save_table(table, tmp_path)
        assert path.name == "demo.json"
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "demo"
        assert loaded["columns"] == table.columns
        assert loaded["rows"] == table.rows
        assert loaded["metadata"]["seed"] == 1

    def test_save_with_custom_stem(self, tmp_path):
        table = ResultTable(name="demo", columns=["x"])
        table.add_row(x=1)
        path = save_table(table, tmp_path, stem="custom")
        assert path.name == "custom.json"
        assert path.exists()
