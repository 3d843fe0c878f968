"""Undirected weighted graph used as the router-level topology substrate.

The class is intentionally small and self-contained: an adjacency-dict graph
with per-node and per-edge attributes, designed for the access patterns the
rest of the library needs (neighbour iteration, degree queries, BFS/Dijkstra
from :mod:`repro.routing`).  :func:`Graph.from_networkx` builds one from a
:mod:`networkx` graph, the tests' independent oracle.

Node identifiers can be any hashable object; the topology generators use
consecutive integers.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..exceptions import EdgeNotFoundError, NodeNotFoundError, TopologyError

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]

DEFAULT_WEIGHT_KEY = "latency"


class Graph:
    """A simple undirected graph with node and edge attributes.

    Parameters
    ----------
    name:
        Optional human-readable name recorded on the instance (useful when a
        scenario mixes several generated topologies).
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._adjacency: Dict[NodeId, Dict[NodeId, Dict[str, Any]]] = {}
        self._node_attrs: Dict[NodeId, Dict[str, Any]] = {}
        self._edge_count = 0
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every structural or weight mutation.

        Snapshot consumers (:class:`~repro.routing.distance_engine.CsrTopology`)
        compare this against the generation they were built at to decide
        whether a cached snapshot is still valid.  The counter is bumped by
        ``add_node`` (new nodes), ``add_edge`` and ``set_edge_attribute``;
        mutating an attribute
        dict returned by :meth:`edge_attributes` in place is *not* tracked —
        use :meth:`set_edge_attribute` for weight changes that must
        invalidate snapshots.
        """
        return self._generation

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: NodeId, **attrs: Any) -> None:
        """Add ``node`` (idempotent); merge ``attrs`` into its attribute dict."""
        if node not in self._adjacency:
            self._adjacency[node] = {}
            self._node_attrs[node] = {}
            self._generation += 1
        if attrs:
            self._node_attrs[node].update(attrs)

    def has_node(self, node: NodeId) -> bool:
        """Return True if ``node`` is part of the graph."""
        return node in self._adjacency

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node identifiers (insertion order)."""
        return iter(self._adjacency)

    def node_attributes(self, node: NodeId) -> Dict[str, Any]:
        """Return the (mutable) attribute dict of ``node``."""
        if node not in self._node_attrs:
            raise NodeNotFoundError(node)
        return self._node_attrs[node]

    def set_node_attribute(self, node: NodeId, key: str, value: Any) -> None:
        """Set a single attribute on ``node``."""
        self.node_attributes(node)[key] = value

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._adjacency)

    # ------------------------------------------------------------------ edges

    def add_edge(self, u: NodeId, v: NodeId, **attrs: Any) -> None:
        """Add the undirected edge ``(u, v)``, creating endpoints as needed.

        Self-loops are rejected because router-level maps never contain them
        and allowing them would complicate shortest-path bookkeeping.
        Adding an existing edge merges the new attributes into the old ones.
        """
        if u == v:
            raise TopologyError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        is_new = v not in self._adjacency[u]
        if is_new:
            shared: Dict[str, Any] = {}
            self._adjacency[u][v] = shared
            self._adjacency[v][u] = shared
            self._edge_count += 1
        if attrs:
            self._adjacency[u][v].update(attrs)
        if is_new or attrs:
            self._generation += 1

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return True if the undirected edge ``(u, v)`` exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once.

        Each edge is yielded when its first endpoint (in node insertion
        order) is visited, which is the same orientation and order the old
        canonical-key dedup produced — without formatting a key per edge.
        """
        seen = set()
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def edge_attributes(self, u: NodeId, v: NodeId) -> Dict[str, Any]:
        """Return the (mutable, shared) attribute dict of edge ``(u, v)``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._adjacency[u][v]

    def set_edge_attribute(self, u: NodeId, v: NodeId, key: str, value: Any) -> None:
        """Set a single attribute on edge ``(u, v)``."""
        self.edge_attributes(u, v)[key] = value
        self._generation += 1

    def edge_weight(self, u: NodeId, v: NodeId, key: str = DEFAULT_WEIGHT_KEY, default: float = 1.0) -> float:
        """Return the numeric weight of edge ``(u, v)`` (defaults to 1.0)."""
        return float(self.edge_attributes(u, v).get(key, default))

    def neighbor_weights(
        self, node: NodeId, key: str = DEFAULT_WEIGHT_KEY, default: float = 1.0
    ) -> List[Tuple[NodeId, float]]:
        """``(neighbour, edge_weight(node, neighbour))`` pairs in neighbour order."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        return [(v, float(attrs.get(key, default))) for v, attrs in self._adjacency[node].items()]

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    # -------------------------------------------------------------- neighbours

    def iter_neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over neighbours of ``node`` without building a list."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        return iter(self._adjacency[node])

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        return len(self._adjacency[node])

    def degrees(self) -> Dict[NodeId, int]:
        """Return a dict mapping every node to its degree."""
        return {node: len(neighbors) for node, neighbors in self._adjacency.items()}

    def nodes_with_degree(self, degree: int) -> List[NodeId]:
        """Return all nodes whose degree equals ``degree``."""
        return [node for node, neighbors in self._adjacency.items() if len(neighbors) == degree]

    def nodes_with_degree_between(self, low: int, high: int) -> List[NodeId]:
        """Return all nodes whose degree lies in the inclusive range [low, high]."""
        return [
            node
            for node, neighbors in self._adjacency.items()
            if low <= len(neighbors) <= high
        ]

    # ----------------------------------------------------------- connectivity

    def connected_component(self, start: NodeId) -> List[NodeId]:
        """Return the nodes reachable from ``start`` (including ``start``)."""
        if start not in self._adjacency:
            raise NodeNotFoundError(start)
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier: List[NodeId] = []
            for node in frontier:
                for neighbor in self._adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return list(seen)

    def connected_components(self) -> List[List[NodeId]]:
        """Return all connected components as lists of nodes."""
        remaining = set(self._adjacency)
        components: List[List[NodeId]] = []
        while remaining:
            start = next(iter(remaining))
            component = self.connected_component(start)
            components.append(component)
            remaining.difference_update(component)
        return components

    def is_connected(self) -> bool:
        """Return True if the graph is non-empty and connected."""
        if self.node_count == 0:
            return False
        return len(self.connected_component(next(iter(self._adjacency)))) == self.node_count

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Return a new graph containing ``nodes`` and the edges between them."""
        keep = set(nodes)
        missing = [node for node in keep if node not in self._adjacency]
        if missing:
            raise NodeNotFoundError(missing[0])
        result = Graph(name=self.name)
        for node in keep:
            result.add_node(node, **dict(self._node_attrs[node]))
        for u, v in self.edges():
            if u in keep and v in keep:
                result.add_edge(u, v, **dict(self._adjacency[u][v]))
        return result

    def copy(self) -> "Graph":
        """Return a deep-ish copy (attribute dicts are shallow-copied)."""
        return self.subgraph(list(self.nodes()))

    # ------------------------------------------------------------ conversions

    @classmethod
    def from_networkx(cls, nx_graph, name: Optional[str] = None) -> "Graph":
        """Build a :class:`Graph` from a :class:`networkx.Graph`."""
        graph = cls(name=name or str(nx_graph.name or "graph"))
        for node, attrs in nx_graph.nodes(data=True):
            graph.add_node(node, **dict(attrs))
        for u, v, attrs in nx_graph.edges(data=True):
            if u == v:
                continue
            graph.add_edge(u, v, **dict(attrs))
        return graph

    # ---------------------------------------------------------------- dunders

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )
