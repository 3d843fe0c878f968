"""Tests for the Figure 1 reproduction harness."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.figure1 import (
    Figure1Config,
    PAPER_PEER_COUNTS,
    evaluate_population,
    quick_figure1_config,
    run_figure1,
    run_single_seed,
)
from repro.topology.internet_mapper import RouterMapConfig

from ..conftest import SMALL_MAP_KWARGS


def tiny_config(seed: int = 13) -> Figure1Config:
    return Figure1Config(
        peer_counts=(25, 40),
        landmark_count=3,
        neighbor_set_size=3,
        seeds=(seed,),
        router_map_config=RouterMapConfig(seed=seed, **SMALL_MAP_KWARGS),
    )


class TestConfig:
    def test_paper_defaults(self):
        config = Figure1Config()
        assert tuple(config.peer_counts) == PAPER_PEER_COUNTS
        assert config.landmark_count == 10
        assert len(config.seeds) >= 3

    def test_quick_config_is_small(self):
        config = quick_figure1_config()
        assert max(config.peer_counts) <= 200
        assert config.router_map_config is not None

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            Figure1Config(peer_counts=(0,))
        with pytest.raises(ValueError):
            Figure1Config(seeds=())


class TestEvaluatePopulation:
    def test_comparison_fields(self, fresh_scenario):
        comparison = evaluate_population(fresh_scenario, random_seed=1)
        assert comparison.peers == fresh_scenario.config.peer_count
        assert comparison.cost_closest > 0
        assert comparison.cost_closest <= comparison.cost_scheme <= comparison.cost_random * 1.5


class TestRunSingleSeed:
    @pytest.fixture(scope="class")
    def table(self):
        return run_single_seed(tiny_config(), seed=13)

    def test_one_row_per_population_size(self, table):
        assert table.column("peers") == [25, 40]

    def test_ratios_have_the_papers_shape(self, table):
        for row in table.rows:
            # The scheme stays close to the optimum...
            assert 1.0 <= row["scheme_ratio"] < 1.6
            # ...and beats random selection.
            assert row["scheme_ratio"] < row["random_ratio"]

    def test_costs_consistent_with_ratios(self, table):
        for row in table.rows:
            assert row["scheme_ratio"] == pytest.approx(row["D"] / row["D_closest"])
            assert row["random_ratio"] == pytest.approx(row["D_random"] / row["D_closest"])

    def test_metadata_records_parameters(self, table):
        assert table.metadata["k"] == 3
        assert table.metadata["landmarks"] == 3


    def test_reseeding_keeps_every_map_knob(self):
        """A seed's map is the caller's config with a new seed, nothing else
        reset: a flat access layer and a deep one give different tables."""
        base = quick_figure1_config()
        tables = []
        for probability in (0.0, 0.85):
            config = replace(
                base,
                peer_counts=(60,),
                router_map_config=replace(base.router_map_config, stub_tree_probability=probability),
            )
            tables.append(run_single_seed(config, seed=base.seeds[0]).rows)
        assert tables[0] != tables[1]


class TestRunFigure1:
    def test_single_seed_passthrough(self):
        table = run_figure1(tiny_config(seed=17))
        assert len(table) == 2

    def test_curves_keep_the_papers_shape_as_the_population_grows(self):
        """Figure 1 on a ~600-router map: the scheme stays in [1.0, 1.6),
        below random and flat from 60 to 180 peers, while random selection
        does not improve with the population."""
        config = Figure1Config(
            peer_counts=(60, 120, 180),
            landmark_count=4,
            neighbor_set_size=5,
            seeds=(11,),
            router_map_config=RouterMapConfig(
                seed=11,
                core_size=20,
                core_attachment=3,
                transit_size=100,
                transit_attachment=2,
                stub_size=480,
                stub_attachment=1,
            ),
        )
        table = run_figure1(config)
        scheme, random_ratio = table.column("scheme_ratio"), table.column("random_ratio")
        assert all(1.0 <= value < 1.6 for value in scheme), scheme
        assert all(s < r for s, r in zip(scheme, random_ratio))
        assert max(scheme) - min(scheme) < 0.3
        assert random_ratio[-1] >= random_ratio[0] - 0.15

    def test_multi_seed_averaging(self):
        config = Figure1Config(
            peer_counts=(25,),
            landmark_count=3,
            neighbor_set_size=3,
            seeds=(1, 2),
            router_map_config=RouterMapConfig(seed=1, **SMALL_MAP_KWARGS),
        )
        table = run_figure1(config)
        assert len(table) == 1
        assert table.metadata.get("seeds_merged") == 2
        row = table.rows[0]
        assert row["scheme_ratio"] < row["random_ratio"]
