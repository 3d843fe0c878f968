"""Shortest-path computations over router topologies.

Two distance notions are used throughout the reproduction:

* **hop distance** — the number of router hops; this is the metric the paper's
  figure is expressed in (``D`` is a sum of hop distances);
* **latency distance** — the sum of per-link latencies, used to pick the
  closest landmark and to delay messages on the simulated wire.

:func:`bfs_shortest_paths` and :func:`dijkstra_shortest_paths` are the
*reference* single-source implementations: small, dict-based, and the oracle
the vectorised engine is property-tested against.  The bulk entry points now
delegate to :mod:`repro.routing.distance_engine` instead of looping over
these references:

* :class:`AllPairsHopDistances` is a thin per-source dict view over
  engine-computed hop vectors (same API, same :class:`NoRouteError`
  semantics, one CSR snapshot shared across all sources);
* :class:`~repro.routing.route_table.RouteTable` builds all of its
  landmark-rooted trees through one engine, as flat column trees
  (:func:`shortest_path_tree` stays the dict-based reference they are
  tested against);
* :class:`~repro.landmarks.manager.LandmarkSet`, the brute-force baseline,
  the analysis experiment and the sim network all share a scenario-owned
  engine rather than re-running private BFS loops.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Tuple

from ..exceptions import NoRouteError, NodeNotFoundError
from ..topology.graph import DEFAULT_WEIGHT_KEY, Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .distance_engine import HopDistanceEngine

NodeId = Hashable


def bfs_shortest_paths(graph: Graph, source: NodeId) -> Tuple[Dict[NodeId, int], Dict[NodeId, NodeId]]:
    """Hop-count shortest paths from ``source``.

    Returns ``(distances, parents)`` where ``parents[v]`` is the predecessor
    of ``v`` on one shortest path back to ``source`` (ties broken by BFS
    discovery order, which is deterministic given the graph's insertion
    order).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances: Dict[NodeId, int] = {source: 0}
    parents: Dict[NodeId, NodeId] = {}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.iter_neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                parents[neighbor] = node
                queue.append(neighbor)
    return distances, parents


def dijkstra_shortest_paths(
    graph: Graph,
    source: NodeId,
    weight_key: str = DEFAULT_WEIGHT_KEY,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
    """Latency-weighted shortest paths from ``source`` (Dijkstra).

    Missing edge weights default to 1.0.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances: Dict[NodeId, float] = {source: 0.0}
    parents: Dict[NodeId, NodeId] = {}
    visited: set = set()
    heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, source)]
    counter = 0
    while heap:
        distance, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor in graph.iter_neighbors(node):
            if neighbor in visited:
                continue
            weight = graph.edge_weight(node, neighbor, key=weight_key)
            candidate = distance + weight
            if neighbor not in distances or candidate < distances[neighbor]:
                distances[neighbor] = candidate
                parents[neighbor] = node
                counter += 1
                heapq.heappush(heap, (candidate, counter, neighbor))
    return distances, parents


def reconstruct_path(
    parents: Dict[NodeId, NodeId], source: NodeId, destination: NodeId
) -> List[NodeId]:
    """Rebuild the node sequence ``source .. destination`` from a parent map."""
    if destination == source:
        return [source]
    if destination not in parents:
        raise NoRouteError(source, destination)
    path = [destination]
    node = destination
    while node != source:
        node = parents[node]
        path.append(node)
    path.reverse()
    return path


def hop_distance(graph: Graph, source: NodeId, destination: NodeId) -> int:
    """Hop distance between two nodes (raises :class:`NoRouteError` if unreachable)."""
    distances, _ = bfs_shortest_paths(graph, source)
    if destination not in distances:
        raise NoRouteError(source, destination)
    return distances[destination]


def latency_distance(
    graph: Graph, source: NodeId, destination: NodeId, weight_key: str = DEFAULT_WEIGHT_KEY
) -> float:
    """Latency distance between two nodes."""
    distances, _ = dijkstra_shortest_paths(graph, source, weight_key=weight_key)
    if destination not in distances:
        raise NoRouteError(source, destination)
    return distances[destination]


@dataclass
class ShortestPathTree:
    """A shortest-path tree rooted at a landmark (or any node).

    ``parents[v]`` is the next hop from ``v`` towards the root, so the routed
    path from any node to the root is obtained by following parents — exactly
    what a traceroute from the node to the root records (in reverse).
    """

    root: NodeId
    distances: Dict[NodeId, float]
    parents: Dict[NodeId, NodeId]
    weighted: bool = False

    def path_to_root(self, node: NodeId) -> List[NodeId]:
        """Return the routed path ``[node, ..., root]``."""
        if node == self.root:
            return [self.root]
        if node not in self.distances:
            raise NoRouteError(node, self.root)
        path = [node]
        current = node
        while current != self.root:
            current = self.parents[current]
            path.append(current)
        return path

    def distance(self, node: NodeId) -> float:
        """Distance from ``node`` to the root."""
        if node not in self.distances:
            raise NoRouteError(node, self.root)
        return self.distances[node]

    def covers(self, node: NodeId) -> bool:
        """True if ``node`` can reach the root."""
        return node in self.distances


def shortest_path_tree(
    graph: Graph,
    root: NodeId,
    weighted: bool = False,
    weight_key: str = DEFAULT_WEIGHT_KEY,
) -> ShortestPathTree:
    """Build a :class:`ShortestPathTree` rooted at ``root``.

    ``weighted=False`` uses hop counts (the paper's route model);
    ``weighted=True`` uses link latencies, modelling latency-based routing.
    """
    if weighted:
        distances, parents = dijkstra_shortest_paths(graph, root, weight_key=weight_key)
        return ShortestPathTree(root=root, distances=dict(distances), parents=parents, weighted=True)
    hop_distances, parents = bfs_shortest_paths(graph, root)
    return ShortestPathTree(
        root=root,
        distances={node: float(value) for node, value in hop_distances.items()},
        parents=parents,
        weighted=False,
    )


@dataclass
class AllPairsHopDistances:
    """Lazy all-pairs hop-distance oracle with per-source caching.

    The brute-force baseline needs hop distances between every peer's
    attachment router and every other attachment router.  Computing the full
    all-pairs matrix over ~4 000 routers is wasteful; instead this is a thin
    per-source dict view over a :class:`~repro.routing.distance_engine.
    HopDistanceEngine`: distance vectors are computed (and batched across
    sources) by the engine's CSR snapshot, and a plain dict is materialised
    only for sources whose full :meth:`distances_from` map is requested.

    Pass ``engine=`` to share one engine (and its snapshot/vector caches)
    with the rest of a scenario; by default the view owns a private engine.
    The dict cache is dropped automatically when the underlying graph
    mutates (the engine rebuilds its snapshot via the graph's generation
    counter).
    """

    graph: Graph
    engine: Optional["HopDistanceEngine"] = None
    _cache: Dict[NodeId, Dict[NodeId, int]] = field(default_factory=dict, repr=False)
    _owns_engine: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.engine is None:
            from .distance_engine import HopDistanceEngine

            self.engine = HopDistanceEngine(self.graph)
            self._owns_engine = True
        else:
            self.engine.check_graph(self.graph)
        self._snapshot_generation = self.graph.generation

    def _checked_cache(self) -> Dict[NodeId, Dict[NodeId, int]]:
        """The dict cache, dropped when the graph has mutated under us."""
        if self._snapshot_generation != self.graph.generation:
            self._cache.clear()
            self._snapshot_generation = self.graph.generation
        return self._cache

    def distances_from(self, source: NodeId) -> Dict[NodeId, int]:
        """Return (and cache) hop distances from ``source`` to all nodes."""
        cache = self._checked_cache()
        if source not in cache:
            cache[source] = self.engine.hop_distances(source)
        return cache[source]

    def distance(self, source: NodeId, destination: NodeId) -> int:
        """Hop distance between two nodes, cached per source."""
        distances = self.distances_from(source)
        if destination not in distances:
            raise NoRouteError(source, destination)
        return distances[destination]

    def warm(self, sources: Iterable[NodeId]) -> None:
        """Pre-populate the cache for ``sources``."""
        for source in sources:
            self.distances_from(source)

    @property
    def cached_sources(self) -> int:
        """Number of sources currently cached."""
        return len(self._checked_cache())

    def clear(self) -> None:
        """Drop all cached distance state (engine vectors too, if owned)."""
        self._cache.clear()
        if self._owns_engine:
            self.engine.invalidate()
