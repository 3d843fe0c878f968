"""Ablation studies around the paper's stated claims and future work.

Each function returns a :class:`~repro.experiments.results.ResultTable` whose
rows are the series the corresponding benchmark prints:

* :func:`landmark_count_sweep` / :func:`landmark_placement_sweep` — the
  paper's future-work question F1 (how many landmarks, where);
* :func:`neighbor_set_size_sweep` — sensitivity to ``k``;
* :func:`tree_accuracy_study` — claim C3, ``dtree ≈ d`` for most pairs;
* :func:`traceroute_noise_sweep` — robustness to anonymous routers / probe
  loss (the "decreased version" of traceroute the paper mentions);
* :func:`churn_study` — future-work question F2, neighbour quality under
  departures and re-joins;
* :func:`superpeer_study` — the paper's super-peers, run as shards of the
  sharded management plane: quality per shard count and the busiest
  shard's load.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Sequence

from ..core.distance import evaluate_estimator, sample_peer_pairs
from ..routing.traceroute import TracerouteConfig
from ..sim.rng import RandomStreams
from ..topology.internet_mapper import RouterMapConfig
from ..workloads.scenarios import ScenarioConfig, build_scenario
from .figure1 import evaluate_population
from .results import ResultTable

_SMALL_MAP = dict(
    core_size=20,
    core_attachment=3,
    transit_size=100,
    transit_attachment=2,
    stub_size=480,
    stub_attachment=1,
)


def _small_map_config(seed: int) -> RouterMapConfig:
    return RouterMapConfig(seed=seed, **_SMALL_MAP)


def landmark_count_sweep(
    landmark_counts: Sequence[int] = (1, 2, 4, 8, 16),
    peer_count: int = 120,
    neighbor_set_size: int = 3,
    seed: int = 11,
) -> ResultTable:
    """How the D ratio depends on the number of deployed landmarks."""
    table = ResultTable(
        name="landmark_count_sweep",
        columns=["landmarks", "scheme_ratio", "random_ratio"],
        metadata={"peers": peer_count, "k": neighbor_set_size, "seed": seed},
    )
    streams = RandomStreams(seed)
    for count in landmark_counts:
        config = ScenarioConfig(
            peer_count=peer_count,
            landmark_count=count,
            neighbor_set_size=neighbor_set_size,
            router_map_config=_small_map_config(streams.seed_for("map")),
            seed=streams.seed_for(f"scenario-{count}"),
        )
        scenario = build_scenario(config)
        comparison = evaluate_population(scenario, random_seed=streams.seed_for(f"rand-{count}"))
        table.add_row(
            landmarks=count,
            scheme_ratio=comparison.scheme_ratio,
            random_ratio=comparison.random_ratio,
        )
    return table


def landmark_placement_sweep(
    strategies: Sequence[str] = ("medium_degree", "random", "high_degree", "betweenness", "spread"),
    peer_count: int = 120,
    landmark_count: int = 4,
    neighbor_set_size: int = 3,
    seed: int = 13,
) -> ResultTable:
    """How the D ratio depends on where landmarks are placed."""
    table = ResultTable(
        name="landmark_placement_sweep",
        columns=["strategy", "scheme_ratio", "random_ratio"],
        metadata={"peers": peer_count, "landmarks": landmark_count, "seed": seed},
    )
    streams = RandomStreams(seed)
    map_seed = streams.seed_for("map")
    for strategy in strategies:
        config = ScenarioConfig(
            peer_count=peer_count,
            landmark_count=landmark_count,
            neighbor_set_size=neighbor_set_size,
            landmark_strategy=strategy,
            router_map_config=_small_map_config(map_seed),
            seed=streams.seed_for(f"scenario-{strategy}"),
        )
        scenario = build_scenario(config)
        comparison = evaluate_population(
            scenario, random_seed=streams.seed_for(f"rand-{strategy}")
        )
        table.add_row(
            strategy=strategy,
            scheme_ratio=comparison.scheme_ratio,
            random_ratio=comparison.random_ratio,
        )
    return table


def neighbor_set_size_sweep(
    sizes: Sequence[int] = (1, 2, 3, 5, 8),
    peer_count: int = 120,
    landmark_count: int = 4,
    seed: int = 17,
) -> ResultTable:
    """Sensitivity of the ratios to the neighbour-set size ``k``."""
    table = ResultTable(
        name="neighbor_set_size_sweep",
        columns=["k", "scheme_ratio", "random_ratio"],
        metadata={"peers": peer_count, "landmarks": landmark_count, "seed": seed},
    )
    streams = RandomStreams(seed)
    map_seed = streams.seed_for("map")
    for k in sizes:
        config = ScenarioConfig(
            peer_count=peer_count,
            landmark_count=landmark_count,
            neighbor_set_size=k,
            router_map_config=_small_map_config(map_seed),
            seed=streams.seed_for(f"scenario-{k}"),
        )
        scenario = build_scenario(config)
        comparison = evaluate_population(scenario, random_seed=streams.seed_for(f"rand-{k}"))
        table.add_row(
            k=k,
            scheme_ratio=comparison.scheme_ratio,
            random_ratio=comparison.random_ratio,
        )
    return table


def tree_accuracy_study(
    peer_count: int = 150,
    landmark_count: int = 4,
    pair_samples: int = 400,
    seed: int = 19,
) -> ResultTable:
    """Claim C3: distribution of ``dtree`` vs true distance over random pairs."""
    streams = RandomStreams(seed)
    config = ScenarioConfig(
        peer_count=peer_count,
        landmark_count=landmark_count,
        neighbor_set_size=3,
        router_map_config=_small_map_config(streams.seed_for("map")),
        seed=streams.seed_for("scenario"),
    )
    scenario = build_scenario(config)
    scenario.join_all()

    # Restrict to same-landmark pairs (the tree distance proper) and to
    # cross-landmark pairs separately, so both estimates are characterised.
    same_landmark_pairs = []
    cross_landmark_pairs = []
    pairs = sample_peer_pairs(scenario.peer_ids, pair_samples, seed=streams.seed_for("pairs"))
    for peer_a, peer_b in pairs:
        if scenario.server.peer_landmark(peer_a) == scenario.server.peer_landmark(peer_b):
            same_landmark_pairs.append((peer_a, peer_b))
        else:
            cross_landmark_pairs.append((peer_a, peer_b))

    table = ResultTable(
        name="tree_accuracy",
        columns=[
            "pair_type",
            "pairs",
            "exact_fraction",
            "mean_abs_error",
            "mean_stretch",
            "p90_stretch",
        ],
        metadata={"peers": peer_count, "landmarks": landmark_count, "seed": seed},
    )
    for label, subset in (("same_landmark", same_landmark_pairs), ("cross_landmark", cross_landmark_pairs)):
        if len(subset) < 2:
            continue
        truths = {pair: scenario.oracle.peer_distance(*pair) for pair in subset}
        report = evaluate_estimator(scenario.server, truths)
        table.add_row(
            pair_type=label,
            pairs=report.pairs,
            exact_fraction=report.exact_fraction,
            mean_abs_error=report.mean_absolute_error,
            mean_stretch=report.mean_stretch,
            p90_stretch=report.p90_stretch,
        )
    return table


def traceroute_noise_sweep(
    anonymous_probabilities: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    peer_count: int = 120,
    landmark_count: int = 4,
    neighbor_set_size: int = 3,
    seed: int = 23,
) -> ResultTable:
    """Robustness of the scheme to anonymous routers in the traceroute output."""
    table = ResultTable(
        name="traceroute_noise_sweep",
        columns=["anonymous_probability", "scheme_ratio", "random_ratio"],
        metadata={"peers": peer_count, "landmarks": landmark_count, "seed": seed},
    )
    streams = RandomStreams(seed)
    map_seed = streams.seed_for("map")
    for probability in anonymous_probabilities:
        config = ScenarioConfig(
            peer_count=peer_count,
            landmark_count=landmark_count,
            neighbor_set_size=neighbor_set_size,
            router_map_config=_small_map_config(map_seed),
            traceroute_config=TracerouteConfig(
                anonymous_router_probability=probability,
                seed=streams.seed_for(f"trace-{probability}"),
            ),
            seed=streams.seed_for(f"scenario-{probability}"),
        )
        scenario = build_scenario(config)
        comparison = evaluate_population(
            scenario, random_seed=streams.seed_for(f"rand-{probability}")
        )
        table.add_row(
            anonymous_probability=probability,
            scheme_ratio=comparison.scheme_ratio,
            random_ratio=comparison.random_ratio,
        )
    return table


def superpeer_study(
    shard_counts: Sequence[int] = (1, 2, 4),
    peer_count: int = 120,
    landmark_count: int = 8,
    neighbor_set_size: int = 3,
    seed: int = 37,
) -> ResultTable:
    """Future work: the paper's super-peers are shards of the management plane.

    The same population (same map seed, same scenario seed) joins a
    :class:`~repro.core.sharded.ShardedManagementServer` once per shard
    count, and its neighbour lists are priced against the brute-force
    optimum.  The sharded plane answers exactly as the single server does, so
    ``scheme_ratio`` is the same in every row; what the shard count changes is
    ``max_load_fraction``, the share of peers whose paths the busiest shard
    holds.
    """
    streams = RandomStreams(seed)
    map_config = _small_map_config(streams.seed_for("map"))
    scenario_seed = streams.seed_for("scenario")
    table = ResultTable(
        name="superpeer_study",
        columns=["shards", "scheme_ratio", "max_load_fraction"],
        metadata={
            "peers": peer_count,
            "landmarks": landmark_count,
            "k": neighbor_set_size,
            "seed": seed,
        },
    )
    for count in shard_counts:
        config = ScenarioConfig(
            peer_count=peer_count,
            landmark_count=landmark_count,
            neighbor_set_size=neighbor_set_size,
            router_map_config=map_config,
            shard_count=count,
            seed=scenario_seed,
        )
        with build_scenario(config) as scenario:
            scenario.join_all()
            oracle = scenario.oracle
            neighbor_sets = {
                peer: neighbors
                for peer, neighbors in scenario.scheme_neighbor_sets().items()
                if neighbors
            }
            scheme_cost = sum(
                oracle.neighbor_cost(peer, neighbors) for peer, neighbors in neighbor_sets.items()
            )
            optimal_cost = sum(
                oracle.neighbor_cost(peer, oracle.select_neighbors(peer, k=len(neighbors)))
                for peer, neighbors in neighbor_sets.items()
            )
            load = Counter(scenario.server.peer_shard(peer) for peer in scenario.peer_ids)
        table.add_row(
            shards=count,
            scheme_ratio=scheme_cost / optimal_cost if optimal_cost else float("nan"),
            max_load_fraction=max(load.values()) / peer_count,
        )
    return table


def churn_study(
    peer_count: int = 120,
    landmark_count: int = 4,
    neighbor_set_size: int = 3,
    departure_fraction: float = 0.3,
    seed: int = 29,
) -> ResultTable:
    """Future work F2: neighbour quality after a wave of departures and re-joins.

    Three measurements of ``D / D_closest`` over the peers that stayed online:

    * ``initial`` — right after every peer joined;
    * ``after_departures`` — after ``departure_fraction`` of the peers left
      (their entries removed from the trees and caches), *without* the
      remaining peers refreshing their neighbour lists;
    * ``after_refresh`` — after the remaining peers re-queried the server.
    """
    streams = RandomStreams(seed)
    config = ScenarioConfig(
        peer_count=peer_count,
        landmark_count=landmark_count,
        neighbor_set_size=neighbor_set_size,
        router_map_config=_small_map_config(streams.seed_for("map")),
        seed=streams.seed_for("scenario"),
    )
    scenario = build_scenario(config)
    scenario.join_all()

    oracle = scenario.oracle
    k = neighbor_set_size
    rng = streams.stream("departures")
    peers = scenario.peer_ids
    departing = set(rng.sample(peers, int(len(peers) * departure_fraction)))
    survivors = [peer for peer in peers if peer not in departing]

    def ratio_for(neighbor_sets: Dict) -> float:
        scheme_cost = 0.0
        optimal_cost = 0.0
        for peer in survivors:
            neighbors = [n for n in neighbor_sets[peer] if n not in departing][:k]
            if not neighbors:
                continue
            # Compare against the optimum over the SAME number of neighbours,
            # otherwise a peer whose stale list shrank would look better than
            # the optimum simply by summing fewer terms.
            optimal = oracle.select_neighbors(peer, population=survivors, k=len(neighbors))
            if not optimal:
                continue
            scheme_cost += oracle.neighbor_cost(peer, neighbors)
            optimal_cost += oracle.neighbor_cost(peer, optimal)
        return scheme_cost / optimal_cost if optimal_cost else float("nan")

    initial_sets = scenario.scheme_neighbor_sets()
    initial_ratio = ratio_for(initial_sets)

    for peer in departing:
        scenario.server.unregister_peer(peer)

    stale_ratio = ratio_for(initial_sets)

    refreshed_sets = {
        peer: [p for p, _ in scenario.server.closest_peers(peer, k=k)] for peer in survivors
    }
    # Pad with the stale set so every survivor has an entry for ratio_for.
    refreshed_full = dict(initial_sets)
    refreshed_full.update(refreshed_sets)
    refreshed_ratio = ratio_for(refreshed_full)

    table = ResultTable(
        name="churn_study",
        columns=["phase", "scheme_ratio", "online_peers"],
        metadata={
            "peers": peer_count,
            "departed": len(departing),
            "k": k,
            "seed": seed,
        },
    )
    table.add_row(phase="initial", scheme_ratio=initial_ratio, online_peers=len(peers))
    table.add_row(phase="after_departures", scheme_ratio=stale_ratio, online_peers=len(survivors))
    table.add_row(phase="after_refresh", scheme_ratio=refreshed_ratio, online_peers=len(survivors))
    return table
