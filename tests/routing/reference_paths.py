"""Reference single-source shortest paths: small, dict-based, obviously right.

:func:`bfs_shortest_paths` and :func:`dijkstra_shortest_paths` are what the
library's :class:`~repro.routing.distance_engine.HopDistanceEngine` is
compared against: its hop vectors and Dijkstra in ``test_distance_engine.py``,
its column route trees in ``test_column_trees.py`` (the parents a route
follows are the ones these pick).  Nothing under ``src/`` runs them.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.exceptions import NoRouteError, NodeNotFoundError
from repro.topology.graph import DEFAULT_WEIGHT_KEY, Graph

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
