"""Per-router forwarding state derived from shortest-path trees.

The traceroute simulation needs to know, at every router, the next hop
towards a given destination (the landmark).  Real routers hold forwarding
tables computed by their IGP; here we derive the equivalent next-hop state
from landmark-rooted shortest-path trees, which is both faithful (intra-domain
routing follows shortest paths) and cheap (one BFS/Dijkstra per landmark
instead of per-destination tables for every router).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from ..exceptions import NoRouteError, RoutingError
from ..topology.graph import Graph
from .distance_engine import HopDistanceEngine
from .shortest_path import ShortestPathTree

NodeId = Hashable


@dataclass
class RouteTable:
    """Next-hop routing state towards a fixed set of destinations.

    One :class:`~repro.routing.shortest_path.ShortestPathTree` is maintained
    per destination.  ``next_hop(router, destination)`` then answers the
    forwarding question the traceroute simulator asks at every hop.

    All trees are built through one :class:`HopDistanceEngine` (injectable,
    so a scenario can share its engine), which means every destination added
    reuses the same CSR topology snapshot instead of re-walking the
    adjacency dicts.

    Beside each tree sits a memo of the link latency summed along the routed
    path from a node to that destination (see :meth:`path_latency`).  It is
    created with the tree and holds only nodes that were asked for or lie on
    their parent chains.
    """

    graph: Graph
    weighted: bool = False
    engine: Optional[HopDistanceEngine] = None
    _trees: Dict[NodeId, ShortestPathTree] = field(default_factory=dict)
    _latencies: Dict[NodeId, Dict[NodeId, float]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = HopDistanceEngine(self.graph)
        else:
            self.engine.check_graph(self.graph)

    def add_destination(self, destination: NodeId) -> ShortestPathTree:
        """Compute (or return the cached) tree towards ``destination``."""
        if destination not in self._trees:
            self._trees[destination] = self.engine.tree(
                destination, weighted=self.weighted
            )
            self._latencies[destination] = {destination: 0.0}
        return self._trees[destination]

    def destinations(self) -> List[NodeId]:
        """Destinations for which forwarding state exists."""
        return list(self._trees)

    def has_destination(self, destination: NodeId) -> bool:
        """True if forwarding state towards ``destination`` exists."""
        return destination in self._trees

    def tree(self, destination: NodeId) -> ShortestPathTree:
        """Return the shortest-path tree towards ``destination``."""
        if destination not in self._trees:
            raise RoutingError(
                f"no routing state towards {destination!r}; call add_destination first"
            )
        return self._trees[destination]

    def next_hop(self, router: NodeId, destination: NodeId) -> NodeId:
        """Return the next router on the path from ``router`` to ``destination``."""
        tree = self.tree(destination)
        if router == destination:
            raise RoutingError(f"router {router!r} is the destination itself")
        if not tree.covers(router):
            raise NoRouteError(router, destination)
        return tree.parents[router]

    def route(self, source: NodeId, destination: NodeId) -> List[NodeId]:
        """Return the full routed path ``[source, ..., destination]``."""
        tree = self.add_destination(destination)
        return tree.path_to_root(source)

    def route_length(self, source: NodeId, destination: NodeId) -> int:
        """Number of hops on the routed path."""
        tree = self._trees.get(destination) or self.add_destination(destination)
        if tree.weighted:
            # A latency tree's distance is milliseconds, not hops.
            return len(tree.path_to_root(source)) - 1
        return int(tree.distance(source))

    def path_latency(self, source: NodeId, destination: NodeId) -> float:
        """Sum of link latencies along the routed path.

        This is the latency of the route :meth:`route` returns — the
        hop-shortest one unless the table is ``weighted`` — not the
        latency-shortest distance between the two nodes.  The first ask walks
        the parent chain up to the nearest node already summed and records
        every node passed; after that the answer is one dict read.
        """
        tree = self._trees.get(destination) or self.add_destination(destination)
        memo = self._latencies[destination]
        latency = memo.get(source)
        if latency is None:
            parents = tree.parents
            if source not in parents:
                raise NoRouteError(source, destination)
            chain = []
            node = source
            while (latency := memo.get(node)) is None:
                chain.append(node)
                node = parents[node]
            edge_weight = self.graph.edge_weight
            for node in reversed(chain):
                latency += edge_weight(node, parents[node])
                memo[node] = latency
        return latency


def build_route_table(
    graph: Graph,
    destinations: Optional[List[NodeId]] = None,
    weighted: bool = False,
) -> RouteTable:
    """Convenience constructor: build a table and pre-compute ``destinations``."""
    table = RouteTable(graph=graph, weighted=weighted)
    for destination in destinations or []:
        table.add_destination(destination)
    return table
