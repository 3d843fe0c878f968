"""Centrality and core-structure analyses of router topologies.

The paper's key structural argument is that the router graph's heavy-tailed
degree distribution concentrates *betweenness centrality* on a small core, so
that "the shortest path between most pairs of network edges uses the network
core".  These functions let the branch-point analysis
(:mod:`repro.experiments.analysis`) verify that the synthetic maps actually
have that property, and let landmark placement pick high-betweenness routers.

Exact betweenness is O(V·E); for the ~4 000-router default map we provide a
pivot-sampled approximation (Brandes & Pich style) that is accurate enough
for ranking routers.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence

from .._validation import coerce_seed, require_positive_int
from ..exceptions import NodeNotFoundError
from .graph import Graph

NodeId = Hashable


def _single_source_brandes(graph: Graph, source: NodeId) -> Dict[NodeId, float]:
    """One Brandes accumulation pass: dependency of every node w.r.t. ``source``.

    Unweighted (hop-count) shortest paths, matching the paper's hop metric.
    """
    stack: List[NodeId] = []
    predecessors: Dict[NodeId, List[NodeId]] = {node: [] for node in graph.nodes()}
    sigma: Dict[NodeId, float] = {node: 0.0 for node in graph.nodes()}
    distance: Dict[NodeId, int] = {node: -1 for node in graph.nodes()}
    sigma[source] = 1.0
    distance[source] = 0

    queue = deque([source])
    while queue:
        node = queue.popleft()
        stack.append(node)
        for neighbor in graph.iter_neighbors(node):
            if distance[neighbor] < 0:
                distance[neighbor] = distance[node] + 1
                queue.append(neighbor)
            if distance[neighbor] == distance[node] + 1:
                sigma[neighbor] += sigma[node]
                predecessors[neighbor].append(node)

    dependency: Dict[NodeId, float] = {node: 0.0 for node in graph.nodes()}
    while stack:
        node = stack.pop()
        for predecessor in predecessors[node]:
            share = (sigma[predecessor] / sigma[node]) * (1.0 + dependency[node])
            dependency[predecessor] += share
    dependency[source] = 0.0
    return dependency


def betweenness_centrality(
    graph: Graph,
    normalized: bool = True,
    sources: Optional[Sequence[NodeId]] = None,
) -> Dict[NodeId, float]:
    """Exact (or source-restricted) betweenness centrality.

    Parameters
    ----------
    normalized:
        Divide by ``(n-1)(n-2)/2`` (undirected normalisation).
    sources:
        Restrict the accumulation to these source nodes; used internally by
        :func:`approximate_betweenness`.
    """
    centrality: Dict[NodeId, float] = {node: 0.0 for node in graph.nodes()}
    source_list = list(sources) if sources is not None else list(graph.nodes())
    for source in source_list:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        dependency = _single_source_brandes(graph, source)
        for node, value in dependency.items():
            centrality[node] += value

    n = graph.node_count
    if sources is None:
        # Each unordered pair counted twice (once per endpoint as source).
        for node in centrality:
            centrality[node] /= 2.0
        scale_pairs = (n - 1) * (n - 2) / 2.0
    else:
        # Scale sampled sums up to the full-source estimate before normalising.
        sample = max(1, len(source_list))
        for node in centrality:
            centrality[node] *= n / (2.0 * sample)
        scale_pairs = (n - 1) * (n - 2) / 2.0

    if normalized and scale_pairs > 0:
        for node in centrality:
            centrality[node] /= scale_pairs
    return centrality


def approximate_betweenness(
    graph: Graph,
    pivots: int = 64,
    normalized: bool = True,
    seed: Optional[int] = None,
) -> Dict[NodeId, float]:
    """Pivot-sampled betweenness estimate using ``pivots`` random sources."""
    require_positive_int(pivots, "pivots")
    rng = random.Random(coerce_seed(seed))
    nodes = list(graph.nodes())
    if pivots >= len(nodes):
        return betweenness_centrality(graph, normalized=normalized)
    sources = rng.sample(nodes, pivots)
    return betweenness_centrality(graph, normalized=normalized, sources=sources)


def centrality_concentration(
    graph: Graph,
    top_fraction: float = 0.05,
    pivots: int = 64,
    seed: Optional[int] = None,
) -> float:
    """Fraction of total betweenness carried by the ``top_fraction`` most central nodes.

    A value close to 1.0 means shortest paths overwhelmingly traverse a small
    core — the property the paper's inference depends on.
    """
    centrality = approximate_betweenness(graph, pivots=pivots, seed=seed)
    total = sum(centrality.values())
    if total == 0.0:
        return 0.0
    ranked = sorted(centrality.values(), reverse=True)
    count = max(1, int(round(len(ranked) * top_fraction)))
    return sum(ranked[:count]) / total
