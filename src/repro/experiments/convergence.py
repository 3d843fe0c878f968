"""Motivation M1: "quicker" than coordinate systems.

The paper's selling point is not higher accuracy but *speed*: a newcomer gets
a useful neighbour list after one traceroute and one server round-trip, while
network coordinate systems need many RTT samples before their estimates are
good enough to rank peers.  This experiment quantifies that trade-off:

* the path-tree scheme is evaluated immediately after the join;
* Vivaldi is evaluated after increasing numbers of gossip rounds;
* GNP and binning are evaluated after their fixed landmark-measurement phase;

and for every configuration we report the neighbour-quality ratio
(``D / D_closest``) together with the number of active measurements the
newcomer had to make and the modelled wall-clock setup time.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..baselines.binning import BinningSystem
from ..baselines.gnp import GnpSystem
from ..baselines.vivaldi import VivaldiSystem
from ..metrics.latency_stats import ProbeCostModel
from ..metrics.proximity import population_cost
from ..sim.rng import RandomStreams
from ..topology.internet_mapper import RouterMapConfig
from ..workloads.scenarios import Scenario, ScenarioConfig, build_scenario
from .results import ResultTable

_SMALL_MAP = dict(
    core_size=20,
    core_attachment=3,
    transit_size=100,
    transit_attachment=2,
    stub_size=480,
    stub_attachment=1,
)


def _neighbor_ratio(
    scenario: Scenario, neighbor_sets: Dict, k: int
) -> float:
    """``D / D_closest`` for an arbitrary strategy's neighbour sets."""
    oracle_sets = {
        peer: scenario.oracle.select_neighbors(peer, k=k) for peer in scenario.peer_ids
    }
    scheme = population_cost(neighbor_sets, scenario.true_distance)
    optimal = population_cost(oracle_sets, scenario.true_distance)
    return scheme / optimal


def run_convergence_study(
    peer_count: int = 100,
    landmark_count: int = 4,
    neighbor_set_size: int = 3,
    vivaldi_round_schedule: Sequence[int] = (1, 2, 4, 8, 16, 32),
    seed: int = 31,
    probe_cost: Optional[ProbeCostModel] = None,
) -> ResultTable:
    """Compare neighbour quality vs measurement effort across schemes."""
    probe_cost = probe_cost or ProbeCostModel()
    streams = RandomStreams(seed)
    config = ScenarioConfig(
        peer_count=peer_count,
        landmark_count=landmark_count,
        neighbor_set_size=neighbor_set_size,
        router_map_config=RouterMapConfig(seed=streams.seed_for("map"), **_SMALL_MAP),
        seed=streams.seed_for("scenario"),
    )
    scenario = build_scenario(config)
    scenario.join_all()
    k = neighbor_set_size

    table = ResultTable(
        name="convergence",
        columns=["scheme", "measurements_per_peer", "setup_time_ms", "scheme_ratio"],
        metadata={"peers": peer_count, "landmarks": landmark_count, "k": k, "seed": seed},
    )

    # --- Path-tree scheme: ready right after the join. -----------------------
    scheme_sets = scenario.scheme_neighbor_sets()
    mean_hops = sum(r.path.hop_count for r in scenario.join_results.values()) / len(
        scenario.join_results
    )
    table.add_row(
        scheme="path_tree",
        measurements_per_peer=float(landmark_count),  # one traceroute per landmark probed
        setup_time_ms=probe_cost.path_tree_setup_time(int(round(mean_hops)), landmark_count),
        scheme_ratio=_neighbor_ratio(scenario, scheme_sets, k),
    )

    # --- Shared RTT model for the coordinate systems. ------------------------
    # Latency vectors come from the scenario's shared distance engine (one
    # batched Dijkstra per distinct source router, cached on its snapshot).
    engine = scenario.distance_engine

    def latency_between_routers(router_a, router_b) -> float:
        return engine.latency_between(router_a, router_b, default=float("inf"))

    def peer_rtt(peer_a, peer_b) -> float:
        return 2.0 * latency_between_routers(
            scenario.peer_routers[peer_a], scenario.peer_routers[peer_b]
        )

    def peer_landmark_rtt(peer, landmark_id) -> float:
        return 2.0 * latency_between_routers(
            scenario.peer_routers[peer], scenario.server.landmark_router(landmark_id)
        )

    # --- Vivaldi after various numbers of rounds. -----------------------------
    for rounds in vivaldi_round_schedule:
        vivaldi = VivaldiSystem(rtt=peer_rtt, seed=streams.seed_for(f"vivaldi-{rounds}"))
        for peer in scenario.peer_ids:
            vivaldi.add_peer(peer)
        vivaldi.run(rounds, samples_per_peer=1)
        vivaldi_sets = {
            peer: vivaldi.select_neighbors(peer, scenario.peer_ids, k=k)
            for peer in scenario.peer_ids
        }
        table.add_row(
            scheme=f"vivaldi_r{rounds}",
            measurements_per_peer=float(rounds),
            setup_time_ms=probe_cost.coordinate_setup_time(rounds),
            scheme_ratio=_neighbor_ratio(scenario, vivaldi_sets, k),
        )

    # --- GNP: fixed landmark measurements. ------------------------------------
    landmark_ids = scenario.server.landmarks()
    landmark_rtts = {}
    for i, lid_a in enumerate(landmark_ids):
        for lid_b in landmark_ids[i + 1 :]:
            landmark_rtts[(lid_a, lid_b)] = 2.0 * latency_between_routers(
                scenario.server.landmark_router(lid_a), scenario.server.landmark_router(lid_b)
            )
    gnp = GnpSystem(
        landmark_ids,
        landmark_rtts,
        rtt_to_landmark=peer_landmark_rtt,
        seed=streams.seed_for("gnp"),
    )
    for peer in scenario.peer_ids:
        gnp.add_peer(peer)
    gnp_sets = {
        peer: gnp.select_neighbors(peer, scenario.peer_ids, k=k) for peer in scenario.peer_ids
    }
    table.add_row(
        scheme="gnp",
        measurements_per_peer=float(len(landmark_ids)),
        setup_time_ms=probe_cost.landmark_measurement_time(len(landmark_ids)),
        scheme_ratio=_neighbor_ratio(scenario, gnp_sets, k),
    )

    # --- Binning: same measurements as GNP, coarser answer. -------------------
    binning = BinningSystem(landmark_ids, rtt_to_landmark=peer_landmark_rtt)
    for peer in scenario.peer_ids:
        binning.add_peer(peer)
    binning_sets = {
        peer: binning.select_neighbors(peer, scenario.peer_ids, k=k)
        for peer in scenario.peer_ids
    }
    table.add_row(
        scheme="binning",
        measurements_per_peer=float(len(landmark_ids)),
        setup_time_ms=probe_cost.landmark_measurement_time(len(landmark_ids)),
        scheme_ratio=_neighbor_ratio(scenario, binning_sets, k),
    )

    # --- Random: zero measurements, worst quality. -----------------------------
    random_sets = scenario.random_neighbor_sets(seed=streams.seed_for("random"))
    table.add_row(
        scheme="random",
        measurements_per_peer=0.0,
        setup_time_ms=0.0,
        scheme_ratio=_neighbor_ratio(scenario, random_sets, k),
    )
    return table
