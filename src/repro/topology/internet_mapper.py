"""Synthetic router-level Internet map (stand-in for the *nem* mapper).

The paper evaluates on a router-level (IR) map obtained with Magoni & Hoerdt's
*nem* Internet mapper and loaded into PeerSim.  That dataset is not available,
so this module builds a synthetic map that reproduces the structural features
the paper's argument relies on:

* a **heavy-tailed degree distribution** (a small number of very-high-degree
  core routers, many degree-1 access routers);
* an explicit **core / edge hierarchy** so that "most shortest paths traverse
  the core" (high betweenness concentration);
* plenty of **degree-1 routers** to attach peers to, and a pool of
  **medium-degree routers** to attach landmarks to, exactly as the paper's
  simulation setup describes.

The main entry point is :func:`generate_router_map`, which returns a
:class:`RouterMap` wrapping the generated graph together with convenience
accessors used by the experiment harness (``stub_routers``,
``medium_degree_routers``, ...).  The core is a :func:`barabasi_albert`
preferential-attachment graph, and :func:`_preferential_targets` attaches the
transit tier to it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .._validation import (
    coerce_seed,
    require_positive_int,
    require_probability,
)
from ..exceptions import GeneratorError
from .graph import Graph
from .latency import LatencyModel, TieredLatencyModel


TIER_CORE = "core"
TIER_TRANSIT = "transit"
TIER_STUB = "stub"


def _preferential_targets(
    repeated_nodes: List[int],
    m: int,
    rng: random.Random,
    exclude: int,
) -> List[int]:
    """Pick ``m`` distinct targets from ``repeated_nodes`` proportionally to frequency."""
    targets: List[int] = []
    chosen = set()
    # Guard against pathological loops when the candidate pool is small.
    max_attempts = 50 * m + 100
    attempts = 0
    while len(targets) < m and attempts < max_attempts:
        attempts += 1
        candidate = rng.choice(repeated_nodes)
        if candidate == exclude or candidate in chosen:
            continue
        chosen.add(candidate)
        targets.append(candidate)
    if len(targets) < m:
        # Fall back to uniform sampling over all seen nodes.
        pool = [node for node in set(repeated_nodes) if node != exclude and node not in chosen]
        rng.shuffle(pool)
        targets.extend(pool[: m - len(targets)])
    return targets


def _weighted_pick(pool: List[int], cumulative: List[float], u: float) -> int:
    """Return the first entry of ``pool`` whose ``cumulative`` threshold is >= ``u``.

    ``cumulative`` is the non-decreasing running sum of the pool's weights
    over their total, so ``u`` uniform in [0, 1) picks an entry with
    probability proportional to its weight.  When float rounding leaves
    ``u`` above ``cumulative[-1]`` the last entry is returned.  The binary
    search returns exactly what a scan for the first threshold >= ``u``
    returns, in O(log n).
    """
    return pool[min(bisect_left(cumulative, u), len(pool) - 1)]


def barabasi_albert(
    n: int,
    m: int = 2,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    name: str = "barabasi-albert",
) -> Graph:
    """Generate a Barabási–Albert preferential-attachment graph.

    Nodes are the consecutive integers ``0 .. n-1``; pass ``rng`` or ``seed``
    for a reproducible graph.

    Parameters
    ----------
    n:
        Total number of nodes (must be > m).
    m:
        Number of edges each new node attaches with.
    """
    require_positive_int(n, "n")
    require_positive_int(m, "m")
    if n <= m:
        raise GeneratorError(f"barabasi_albert requires n > m (got n={n}, m={m})")
    rng = rng or random.Random(coerce_seed(seed))

    graph = Graph(name=name)
    # Start from a star over the first m+1 nodes so every node has degree >= 1.
    for node in range(m + 1):
        graph.add_node(node)
    repeated_nodes: List[int] = []
    for node in range(1, m + 1):
        graph.add_edge(0, node)
        repeated_nodes.extend([0, node])

    for new_node in range(m + 1, n):
        targets = _preferential_targets(repeated_nodes, m, rng, exclude=new_node)
        for target in targets:
            graph.add_edge(new_node, target)
            repeated_nodes.extend([new_node, target])
    return graph


@dataclass
class RouterMapConfig:
    """Parameters of the synthetic router-level map.

    The defaults yield a map of roughly 4 000 routers, which is large enough
    for the paper's 600–1 400 peer sweeps while remaining fast to route over.
    """

    core_size: int = 60
    """Number of core (backbone) routers."""

    core_attachment: int = 4
    """Preferential-attachment parameter inside the core."""

    transit_size: int = 600
    """Number of transit (regional) routers that attach to the core."""

    transit_attachment: int = 2
    """How many uplinks each transit router has."""

    stub_size: int = 3400
    """Number of stub (access) routers; most end up with degree 1."""

    stub_attachment: int = 1
    """How many uplinks each stub router has (1 keeps them degree-1)."""

    stub_tree_probability: float = 0.45
    """Probability that a new stub router attaches below an existing stub router.

    This grows multi-level access trees under the transit routers, which gives
    the map the hop-distance spread a real router-level topology has: peers in
    the same access tree are a few hops apart while peers in different regions
    must cross the core.  Set to 0.0 for a flat (single-level) access layer.
    """

    extra_peering_probability: float = 0.05
    """Probability of adding a lateral (peering) link when creating a transit router."""

    seed: Optional[int] = None
    """RNG seed for reproducible maps."""

    def __post_init__(self) -> None:
        require_positive_int(self.core_size, "core_size")
        require_positive_int(self.core_attachment, "core_attachment")
        require_positive_int(self.transit_size, "transit_size")
        require_positive_int(self.transit_attachment, "transit_attachment")
        require_positive_int(self.stub_size, "stub_size")
        require_positive_int(self.stub_attachment, "stub_attachment")
        require_probability(self.stub_tree_probability, "stub_tree_probability")
        require_probability(self.extra_peering_probability, "extra_peering_probability")
        coerce_seed(self.seed)
        if self.core_size <= self.core_attachment:
            raise GeneratorError("core_size must exceed core_attachment")

    @classmethod
    def small(cls, seed: Optional[int]) -> "RouterMapConfig":
        """The ~600-router map of the quick experiments, examples and tests."""
        return cls(
            core_size=20,
            core_attachment=3,
            transit_size=100,
            transit_attachment=2,
            stub_size=480,
            stub_attachment=1,
            seed=seed,
        )


@dataclass
class RouterMap:
    """A generated router-level map plus tier metadata.

    Attributes
    ----------
    graph:
        The router graph; node attribute ``tier`` is one of ``core``,
        ``transit`` or ``stub``, and edges carry a ``latency`` attribute in
        milliseconds.
    config:
        The :class:`RouterMapConfig` used to build it.
    """

    graph: Graph
    config: RouterMapConfig
    tiers: Dict[str, List[int]] = field(default_factory=dict)

    def stub_routers(self) -> List[int]:
        """Return all degree-1 routers — the attachment points for peers.

        The paper attaches peers to routers "with degree equals to one"; we
        return exactly those, regardless of the tier label, so the experiment
        code mirrors the paper's setup.
        """
        return self.graph.nodes_with_degree(1)

    def medium_degree_routers(self) -> List[int]:
        """Return routers with a medium degree — landmark attachment points.

        "Medium" is interpreted as degree 3 or more (strictly above the stub
        degree) but at most the 90th percentile of the degree distribution,
        which matches the paper's informal "medium-size degree" placement.
        """
        degrees = sorted(self.graph.degrees().values())
        if not degrees:
            return []
        return self.graph.nodes_with_degree_between(3, max(3, degrees[int(len(degrees) * 0.9)]))


def generate_router_map(
    config: Optional[RouterMapConfig] = None,
    latency_model: Optional[LatencyModel] = None,
    **overrides,
) -> RouterMap:
    """Generate a synthetic router-level map.

    Parameters
    ----------
    config:
        Full configuration object; if omitted, one is built from the keyword
        ``overrides`` (e.g. ``generate_router_map(stub_size=1000, seed=1)``).
    latency_model:
        Model used to assign per-link latencies; defaults to
        :class:`repro.topology.latency.TieredLatencyModel`, which gives short
        access links and longer core links.
    """
    if config is None:
        config = RouterMapConfig(**overrides)
    elif overrides:
        raise GeneratorError("pass either a config object or keyword overrides, not both")

    rng = random.Random(config.seed)

    # --- Tier 1: the backbone core (dense preferential attachment). ---------
    graph = barabasi_albert(
        config.core_size, m=config.core_attachment, rng=rng, name="router-map"
    )
    tiers: Dict[str, List[int]] = {TIER_CORE: [], TIER_TRANSIT: [], TIER_STUB: []}
    for node in range(config.core_size):
        graph.set_node_attribute(node, "tier", TIER_CORE)
        tiers[TIER_CORE].append(node)

    # Preferential-attachment pool: nodes repeated proportionally to degree.
    repeated: List[int] = []
    for node in graph.nodes():
        repeated.extend([node] * graph.degree(node))

    # --- Tier 2: transit routers attach preferentially to the core. ---------
    next_id = config.core_size
    for _ in range(config.transit_size):
        node = next_id
        next_id += 1
        graph.add_node(node, tier=TIER_TRANSIT)
        tiers[TIER_TRANSIT].append(node)
        targets = _preferential_targets(
            repeated, config.transit_attachment, rng, exclude=node
        )
        for target in targets:
            graph.add_edge(node, target)
            repeated.extend([node, target])
        if rng.random() < config.extra_peering_probability and len(tiers[TIER_TRANSIT]) > 2:
            peer = rng.choice(tiers[TIER_TRANSIT])
            if peer != node and not graph.has_edge(node, peer):
                graph.add_edge(node, peer)
                repeated.extend([node, peer])

    # --- Tier 3: stub routers hang off transit/core routers. ----------------
    # Stub routers do NOT enter the preferential pool, so they stay low degree
    # and most keep degree exactly stub_attachment (1 by default).
    attach_pool = list(tiers[TIER_CORE]) + list(tiers[TIER_TRANSIT])
    attach_weights = [graph.degree(node) for node in attach_pool]
    total_weight = float(sum(attach_weights))
    cumulative: List[float] = []
    acc = 0.0
    for weight in attach_weights:
        acc += weight / total_weight
        cumulative.append(acc)

    stubs = tiers[TIER_STUB]
    for _ in range(config.stub_size):
        node = next_id
        next_id += 1
        graph.add_node(node, tier=TIER_STUB)
        stubs.append(node)
        attached = set()
        for _ in range(config.stub_attachment):
            # Either extend an existing access tree (deepening the edge) or
            # start a new branch under a transit/core router.  Picking the
            # parent by index draws what ``choice`` on the list would, so a
            # seed still gives the same map without copying the list.
            if len(stubs) > 1 and rng.random() < config.stub_tree_probability:
                target = stubs[rng.randrange(len(stubs) - 1)]
            else:
                target = _weighted_pick(attach_pool, cumulative, rng.random())
            if target in attached:
                continue
            attached.add(target)
            graph.add_edge(node, target)

    # --- Latencies. ----------------------------------------------------------
    if latency_model is None:
        latency_model = TieredLatencyModel(seed=config.seed)
    latency_model.assign(graph)

    return RouterMap(graph=graph, config=config, tiers=tiers)

