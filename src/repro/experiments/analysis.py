"""Graph-oriented analysis of why the path-tree inference works.

The paper closes with the wish for "a formal proof based on a graph-oriented
analysis".  A full proof is out of scope for a reproduction, but the argument
it would formalise is empirical and checkable:

1. betweenness centrality is concentrated on a small core of the router
   graph (heavy-tailed degrees ⇒ most shortest paths cross the core);
2. the *branch router* of two peers (where their landmark paths merge) is
   almost always one of those core routers;
3. whenever the true shortest path between the two peers also crosses that
   branch router, ``dtree`` is exact; the error otherwise is bounded by how
   far the branch router sits from the true path.

:func:`branch_point_analysis` measures all three statements on a generated
scenario and returns them as a result table, giving the empirical backbone a
formal proof would need.
"""

from __future__ import annotations

from typing import Dict

from ..core.distance import sample_peer_pairs
from ..sim.rng import RandomStreams
from ..topology.centrality import approximate_betweenness, centrality_concentration
from ..topology.internet_mapper import RouterMapConfig
from ..workloads.scenarios import ScenarioConfig, build_scenario
from .results import ResultTable


def branch_point_analysis(
    peer_count: int = 120,
    landmark_count: int = 4,
    pair_samples: int = 300,
    core_fraction: float = 0.1,
    seed: int = 41,
) -> ResultTable:
    """Quantify the core-centrality argument behind ``dtree ≈ d``.

    Returns a one-row-per-statement table:

    * ``core_betweenness_share`` — fraction of total betweenness carried by
      the top ``core_fraction`` of routers (statement 1);
    * ``branch_in_core_fraction`` — fraction of sampled same-landmark peer
      pairs whose branch router belongs to that core (statement 2);
    * ``exact_when_branch_on_true_path`` / ``exact_otherwise`` — fraction of
      pairs with an exact ``dtree`` split by whether the branch router lies on
      a true shortest path between the peers (statement 3).
    """
    streams = RandomStreams(seed)
    config = ScenarioConfig(
        peer_count=peer_count,
        landmark_count=landmark_count,
        neighbor_set_size=3,
        router_map_config=RouterMapConfig.small(streams.seed_for("map")),
        seed=streams.seed_for("scenario"),
    )
    scenario = build_scenario(config)
    scenario.join_all()
    graph = scenario.router_map.graph

    # Statement 1: betweenness concentration.
    concentration = centrality_concentration(
        graph, top_fraction=core_fraction, pivots=32, seed=streams.seed_for("pivots")
    )
    centrality = approximate_betweenness(graph, pivots=32, seed=streams.seed_for("pivots"))
    core_size = max(1, int(round(graph.node_count * core_fraction)))
    core_routers = set(sorted(centrality, key=centrality.get, reverse=True)[:core_size])

    # Statements 2 and 3 over sampled same-landmark pairs.
    pairs = sample_peer_pairs(scenario.peer_ids, pair_samples, seed=streams.seed_for("pairs"))
    same_landmark = [
        (a, b)
        for a, b in pairs
        if scenario.server.peer_landmark(a) == scenario.server.peer_landmark(b)
    ]

    branch_in_core = 0
    exact_on_path = [0, 0]   # [exact, total] when the branch lies on a true shortest path
    exact_off_path = [0, 0]  # [exact, total] otherwise
    # One engine snapshot for the whole analysis: distance vectors from the
    # attachment routers and branch routers are cached across the pair loop
    # instead of populating a per-router dict of independent BFS results.
    engine = scenario.distance_engine
    # One tree view per landmark for the whole pair loop: with a process
    # shard backend, server.tree() ships and rebuilds a full snapshot, so
    # fetching it per pair would serialise the tree O(pairs) times.
    tree_cache: Dict = {}

    for peer_a, peer_b in same_landmark:
        landmark_id = scenario.server.peer_landmark(peer_a)
        tree = tree_cache.get(landmark_id)
        if tree is None:
            tree = tree_cache[landmark_id] = scenario.server.tree(landmark_id)
        branch = tree.routers[tree.lowest_common_ancestor(peer_a, peer_b)]
        if not graph.has_node(branch):
            continue
        if branch in core_routers:
            branch_in_core += 1
        router_a = scenario.peer_routers[peer_a]
        router_b = scenario.peer_routers[peer_b]
        true_distance = engine.hop_distance(router_a, router_b) + 2
        dtree = scenario.server.estimate_distance(peer_a, peer_b)
        exact = abs(dtree - true_distance) < 1e-9
        on_true_path = (
            engine.hop_distance(router_a, branch)
            + engine.hop_between(branch, router_b, default=10 ** 9)
            == engine.hop_distance(router_a, router_b)
        )
        bucket = exact_on_path if on_true_path else exact_off_path
        bucket[1] += 1
        if exact:
            bucket[0] += 1

    table = ResultTable(
        name="branch_point_analysis",
        columns=["statement", "value"],
        metadata={
            "peers": peer_count,
            "landmarks": landmark_count,
            "core_fraction": core_fraction,
            "same_landmark_pairs": len(same_landmark),
            "seed": seed,
        },
    )
    table.add_row(statement="core_betweenness_share", value=concentration)
    table.add_row(
        statement="branch_in_core_fraction",
        value=branch_in_core / len(same_landmark) if same_landmark else float("nan"),
    )
    table.add_row(
        statement="branch_on_true_path_fraction",
        value=exact_on_path[1] / len(same_landmark) if same_landmark else float("nan"),
    )
    table.add_row(
        statement="exact_when_branch_on_true_path",
        value=exact_on_path[0] / exact_on_path[1] if exact_on_path[1] else float("nan"),
    )
    table.add_row(
        statement="exact_otherwise",
        value=exact_off_path[0] / exact_off_path[1] if exact_off_path[1] else float("nan"),
    )
    return table
