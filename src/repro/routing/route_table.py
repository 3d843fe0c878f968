"""Per-router forwarding state derived from shortest-path trees.

The traceroute simulation needs to know, at every router, the next hop
towards a given destination (the landmark).  Real routers hold forwarding
tables computed by their IGP; here we derive the equivalent next-hop state
from landmark-rooted shortest-path trees, which is both faithful (intra-domain
routing follows shortest paths) and cheap (one BFS/Dijkstra per landmark
instead of per-destination tables for every router).

Each tree is a :class:`~repro.routing.distance_engine.ColumnTree`: parent,
hop count and routed latency as flat per-router columns, so every question
the newcomer asks — a ping's latency and hop count, a traceroute's route and
per-hop latency, a next hop — is one index lookup plus column reads.  The
trees belong to one version of the graph: when ``graph.generation`` moves
(a link re-weighted, an edge added), the table drops them and rebuilds each
on its next use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from ..topology.graph import Graph
from .distance_engine import ColumnTree, HopDistanceEngine

NodeId = Hashable


@dataclass
class RouteTable:
    """Next-hop routing state towards a fixed set of destinations.

    One :class:`~repro.routing.distance_engine.ColumnTree` is maintained per
    destination; :meth:`route` reads a routed path off it, and
    :meth:`path_latency` reads its latency column.

    All trees are built through one :class:`HopDistanceEngine` (injectable,
    so a scenario can share its engine), which means every destination added
    reuses the same CSR topology snapshot instead of re-walking the
    adjacency dicts.
    """

    graph: Graph
    weighted: bool = False
    engine: Optional[HopDistanceEngine] = None
    # destination -> its tree, or None once the graph has moved under it
    _trees: Dict[NodeId, Optional[ColumnTree]] = field(default_factory=dict)
    _generation: int = field(default=-1, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = HopDistanceEngine(self.graph)
        else:
            self.engine.check_graph(self.graph)

    def add_destination(self, destination: NodeId) -> ColumnTree:
        """Compute (or return the cached) tree towards ``destination``."""
        trees = self._trees
        if self._generation != self.graph.generation:
            self._generation = self.graph.generation
            trees = self._trees = dict.fromkeys(trees)
        tree = trees.get(destination)
        if tree is None:
            tree = trees[destination] = self.engine.tree(destination, weighted=self.weighted)
        return tree

    def route(self, source: NodeId, destination: NodeId) -> List[NodeId]:
        """Return the full routed path ``[source, ..., destination]``."""
        return self.add_destination(destination).path_to_root(source)

    def path_latency(self, source: NodeId, destination: NodeId) -> float:
        """Sum of link latencies along the routed path.

        This is the latency of the route :meth:`route` returns — the
        hop-shortest one unless the table is ``weighted`` — not the
        latency-shortest distance between the two nodes.
        """
        tree = self.add_destination(destination)
        return tree.latency[tree.position(source)]
