"""Landmark placement strategies.

The paper places "few landmarks" at "routers with medium-size degree" and
explicitly lists studying the number and placement of landmarks as future
work.  This module implements that default plus the alternatives
:func:`~repro.experiments.ablations.landmark_placement_sweep` compares:

* ``medium_degree`` — the paper's choice: routers whose degree sits between
  the stub routers and the top of the distribution.
* ``random`` — uniformly random routers.
* ``high_degree`` — the highest-degree (core) routers.
* ``betweenness`` — the highest-betweenness routers (sampled estimate).
* ``spread`` — greedy farthest-point placement, maximising pairwise hop
  distance between landmarks so each region of the map has a nearby landmark.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from .._validation import coerce_seed, require_positive_int
from ..exceptions import LandmarkError
from ..topology.centrality import approximate_betweenness
from ..topology.graph import Graph
from ..topology.internet_mapper import RouterMap
from ..topology.metrics import bfs_distances

NodeId = Hashable

PlacementFunction = Callable[..., List[NodeId]]


def _candidate_routers(graph: Graph, candidates: Optional[Sequence[NodeId]]) -> List[NodeId]:
    pool = list(candidates) if candidates is not None else list(graph.nodes())
    if not pool:
        raise LandmarkError("no candidate routers available for landmark placement")
    return pool


def place_random(
    graph: Graph,
    count: int,
    candidates: Optional[Sequence[NodeId]] = None,
    seed: Optional[int] = None,
) -> List[NodeId]:
    """Pick ``count`` routers uniformly at random (without replacement)."""
    require_positive_int(count, "count")
    rng = random.Random(coerce_seed(seed))
    pool = _candidate_routers(graph, candidates)
    if count >= len(pool):
        return list(pool)
    return rng.sample(pool, count)


def place_medium_degree(
    graph: Graph,
    count: int,
    candidates: Optional[Sequence[NodeId]] = None,
    seed: Optional[int] = None,
    low_percentile: float = 0.5,
    high_percentile: float = 0.9,
) -> List[NodeId]:
    """The paper's placement: routers with medium-size degree.

    "Medium" is interpreted as the [``low_percentile``, ``high_percentile``]
    band of the degree distribution restricted to routers with degree >= 2
    (degree-1 routers host peers, not landmarks).  Within the band the choice
    is random, so different seeds give different but equally valid placements.
    """
    require_positive_int(count, "count")
    rng = random.Random(coerce_seed(seed))
    pool = _candidate_routers(graph, candidates)
    eligible = [node for node in pool if graph.degree(node) >= 2]
    if not eligible:
        raise LandmarkError("no routers with degree >= 2 to host landmarks")
    eligible.sort(key=lambda node: (graph.degree(node), repr(node)))
    low_index = int(len(eligible) * low_percentile)
    high_index = max(low_index + 1, int(len(eligible) * high_percentile))
    band = eligible[low_index:high_index]
    if len(band) < count:
        band = eligible
    if count >= len(band):
        return list(band)
    return rng.sample(band, count)


def place_high_degree(
    graph: Graph,
    count: int,
    candidates: Optional[Sequence[NodeId]] = None,
    seed: Optional[int] = None,
) -> List[NodeId]:
    """Pick the ``count`` highest-degree routers (deterministic)."""
    require_positive_int(count, "count")
    pool = _candidate_routers(graph, candidates)
    ranked = sorted(pool, key=lambda node: (-graph.degree(node), repr(node)))
    return ranked[:count]


def place_betweenness(
    graph: Graph,
    count: int,
    candidates: Optional[Sequence[NodeId]] = None,
    seed: Optional[int] = None,
    pivots: int = 32,
) -> List[NodeId]:
    """Pick the routers with the highest (sampled) betweenness centrality."""
    require_positive_int(count, "count")
    pool = set(_candidate_routers(graph, candidates))
    centrality = approximate_betweenness(graph, pivots=pivots, seed=seed)
    ranked = sorted(
        (node for node in centrality if node in pool),
        key=lambda node: (-centrality[node], repr(node)),
    )
    if not ranked:
        raise LandmarkError("no candidate routers with computable betweenness")
    return ranked[:count]


def place_spread(
    graph: Graph,
    count: int,
    candidates: Optional[Sequence[NodeId]] = None,
    seed: Optional[int] = None,
) -> List[NodeId]:
    """Greedy farthest-point placement.

    The first landmark is the highest-degree candidate; each subsequent
    landmark is the candidate maximising its hop distance to the already
    chosen set.  This spreads landmarks across the map, which helps when
    peers must find a *nearby* landmark.
    """
    require_positive_int(count, "count")
    pool = _candidate_routers(graph, candidates)
    chosen: List[NodeId] = []
    first = max(pool, key=lambda node: (graph.degree(node), repr(node)))
    chosen.append(first)
    # Track, for every candidate, its distance to the closest chosen landmark.
    closest: Dict[NodeId, float] = {}
    distances = bfs_distances(graph, first)
    for node in pool:
        closest[node] = float(distances.get(node, float("inf")))
    while len(chosen) < min(count, len(pool)):
        best = max(
            (node for node in pool if node not in chosen),
            key=lambda node: (closest[node], graph.degree(node), repr(node)),
        )
        chosen.append(best)
        distances = bfs_distances(graph, best)
        for node in pool:
            candidate_distance = float(distances.get(node, float("inf")))
            if candidate_distance < closest[node]:
                closest[node] = candidate_distance
    return chosen


PLACEMENT_STRATEGIES: Dict[str, PlacementFunction] = {
    "random": place_random,
    "medium_degree": place_medium_degree,
    "high_degree": place_high_degree,
    "betweenness": place_betweenness,
    "spread": place_spread,
}
"""Registry of placement strategies by name (used by scenarios and the CLI)."""


def place_landmarks(
    graph: Graph,
    count: int,
    strategy: str = "medium_degree",
    candidates: Optional[Sequence[NodeId]] = None,
    seed: Optional[int] = None,
    **kwargs,
) -> List[NodeId]:
    """Place ``count`` landmarks using a named strategy."""
    if strategy not in PLACEMENT_STRATEGIES:
        raise LandmarkError(
            f"unknown placement strategy {strategy!r}; available: {sorted(PLACEMENT_STRATEGIES)}"
        )
    return PLACEMENT_STRATEGIES[strategy](graph, count, candidates=candidates, seed=seed, **kwargs)


def place_on_router_map(
    router_map: RouterMap,
    count: int,
    strategy: str = "medium_degree",
    seed: Optional[int] = None,
    **kwargs,
) -> List[NodeId]:
    """Place landmarks on a :class:`~repro.topology.internet_mapper.RouterMap`.

    For the ``medium_degree`` strategy the candidate pool is restricted to the
    map's medium-degree routers (the paper's setup); other strategies consider
    every router with degree >= 2.
    """
    if strategy == "medium_degree":
        candidates = router_map.medium_degree_routers()
    else:
        candidates = router_map.graph.nodes_with_degree_between(2, 10 ** 9)
    return place_landmarks(
        router_map.graph, count, strategy=strategy, candidates=candidates, seed=seed, **kwargs
    )
