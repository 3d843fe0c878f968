"""Reproduction of the paper's Figure 1.

The figure plots, against the number of peers (600 … 1400), the two ratios

* ``D_random / D_closest`` — random neighbour selection vs the brute-force
  optimum (≈ 2.0–2.4 in the paper, growing slowly), and
* ``D / D_closest`` — the proposed path-tree scheme vs the optimum
  (≈ 1.1–1.4 in the paper, flat).

``D`` is the sum over all peers of the hop distances to their assigned
neighbours.  The harness rebuilds the paper's setup (peers on degree-1
routers, landmarks on medium-degree routers), joins every peer through the
management server, and evaluates the three neighbour-set families with the
brute-force oracle's true distances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .._validation import require_positive_int
from ..metrics.proximity import ProximityComparison, compare_strategies
from ..sim.rng import RandomStreams
from ..topology.internet_mapper import RouterMapConfig
from ..workloads.scenarios import Scenario, ScenarioConfig, build_scenario
from .results import ResultTable, merge_seed_tables

PAPER_PEER_COUNTS = (600, 800, 1000, 1200, 1400)
"""Population sizes on the x-axis of the paper's figure."""


@dataclass
class Figure1Config:
    """Parameters of the Figure 1 reproduction."""

    peer_counts: Sequence[int] = PAPER_PEER_COUNTS
    landmark_count: int = 10
    neighbor_set_size: int = 5
    seeds: Sequence[int] = (1, 2, 3)
    router_map_config: Optional[RouterMapConfig] = None
    landmark_strategy: str = "medium_degree"

    def __post_init__(self) -> None:
        for count in self.peer_counts:
            require_positive_int(count, "peer count")
        require_positive_int(self.landmark_count, "landmark_count")
        require_positive_int(self.neighbor_set_size, "neighbor_set_size")
        if not self.seeds:
            raise ValueError("at least one seed is required")


def quick_figure1_config(seed: int = 7) -> Figure1Config:
    """A scaled-down configuration that runs in seconds (tests / smoke runs)."""
    return Figure1Config(
        peer_counts=(60, 90, 120),
        landmark_count=4,
        neighbor_set_size=3,
        seeds=(seed,),
        router_map_config=RouterMapConfig(
            core_size=20,
            core_attachment=3,
            transit_size=100,
            transit_attachment=2,
            stub_size=480,
            stub_attachment=1,
            seed=seed,
        ),
    )


def evaluate_population(scenario: Scenario, random_seed: Optional[int] = None) -> ProximityComparison:
    """Join all peers of ``scenario`` and compare the three strategies."""
    scenario.join_all()
    scheme_sets = scenario.scheme_neighbor_sets()
    oracle_sets = scenario.oracle_neighbor_sets()
    random_sets = scenario.random_neighbor_sets(seed=random_seed)
    return compare_strategies(
        scheme_sets,
        oracle_sets,
        random_sets,
        distance=scenario.true_distance,
        neighbor_set_size=scenario.config.neighbor_set_size,
    )


def run_single_seed(config: Figure1Config, seed: int) -> ResultTable:
    """One seed's sweep over the configured population sizes."""
    table = ResultTable(
        name="figure1",
        columns=["peers", "scheme_ratio", "random_ratio", "D", "D_closest", "D_random"],
        metadata={
            "seed": seed,
            "landmarks": config.landmark_count,
            "k": config.neighbor_set_size,
            "landmark_strategy": config.landmark_strategy,
        },
    )
    streams = RandomStreams(seed)
    for peer_count in config.peer_counts:
        map_config = config.router_map_config
        if map_config is not None:
            # Re-seed the shared map config so each seed gets its own map but
            # population sizes within a seed share the same one.
            map_config = replace(map_config, seed=streams.seed_for("router-map"))
        scenario_config = ScenarioConfig(
            peer_count=peer_count,
            landmark_count=config.landmark_count,
            neighbor_set_size=config.neighbor_set_size,
            landmark_strategy=config.landmark_strategy,
            router_map_config=map_config,
            seed=streams.seed_for(f"scenario-{peer_count}"),
        )
        scenario = build_scenario(scenario_config)
        comparison = evaluate_population(
            scenario, random_seed=streams.seed_for(f"random-{peer_count}")
        )
        table.add_row(
            peers=peer_count,
            scheme_ratio=comparison.scheme_ratio,
            random_ratio=comparison.random_ratio,
            D=comparison.cost_scheme,
            D_closest=comparison.cost_closest,
            D_random=comparison.cost_random,
        )
    return table


def run_figure1(config: Optional[Figure1Config] = None) -> ResultTable:
    """Run the full Figure 1 reproduction (averaged over the configured seeds)."""
    config = config or Figure1Config()
    per_seed = [run_single_seed(config, seed) for seed in config.seeds]
    if len(per_seed) == 1:
        return per_seed[0]
    return merge_seed_tables(per_seed, key_column="peers")
