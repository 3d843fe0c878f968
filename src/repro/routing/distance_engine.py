"""Hop/latency distance engine over CSR topology snapshots.

Every distance consumer in the repository used to run its own pure-python
per-source BFS/Dijkstra over the dict-of-dicts :class:`~repro.topology.graph.
Graph` — one fresh ``dict`` per node per source.  At paper-scale router maps
(~4 000 routers) and benchmark populations (12 800 peers) that per-source
dict churn dominates scenario-build wall-clock.  This module replaces it with
a shared engine that answers a hop distance from a byte level-vector and
everything else from one column tree:

**CSR snapshots** (:class:`CsrTopology`) — the graph is flattened once into
int-indexed adjacency lists (the core's, the weighted one Dijkstra reads and
the links a hop tree walks, the last two read from the graph on first use).
Snapshots are immutable; :class:`Graph` carries a generation counter bumped
on every mutation, and the engine transparently rebuilds its snapshot (and
drops every vector and tree built on the old one) when the generation moves.

**Byte level-vector BFS** (:meth:`HopDistanceEngine.hop_between`) — hop
distances are flat ``bytes`` level-vectors (one byte per node, ``0xFF`` =
unreachable) expanded one shared frontier per level, instead of per-node
dict inserts.  Two structural accelerations make many sources cheap:

* the snapshot separates *leaf* routers (degree-1 nodes hanging off a
  higher-degree neighbour — the stub/access routers peers attach to) from the
  *core* graph.  BFS runs over the core only; leaf distances are filled in
  afterwards with one C-speed gather (:func:`operator.itemgetter`) plus one
  ``bytes.translate`` (+1 per hop);
* a BFS *from* a leaf source is derived from its unique neighbour's vector
  with the same translate trick (``d_leaf(x) = d_neighbor(x) + 1``), so
  every peer attachment router costs one BFS per *distinct access parent*
  rather than one per peer.

A byte saturates at 254 hops: a source whose BFS (or whose leaf parent's)
goes deeper reads the ``hops`` column of its hop tree instead, which has no
cap.  Results are exactly equal to the dict-based reference BFS of
``tests/routing/reference_paths.py`` for every source, including
disconnected graphs — ``tests/routing/test_distance_engine.py`` holds the
property-test oracle.

**Column trees** (:meth:`HopDistanceEngine.tree`) are every router's route
towards one root: parent position, hop count and routed latency as flat
per-router lists, so a route, a hop count or a latency is one index lookup
plus column reads.  The engine keeps one per ``(root, weighted)`` and
snapshot.  A hop tree is one level-synchronous BFS over the core (the hop
vectors' frontier idiom, recording each router's parent and
``latency[parent] + weight`` as it is discovered); every leaf then takes its
one neighbour's entries plus its link at C speed.  The frontier keeps the
reference FIFO order and a leaf never discovers anything, so every parent is
the one ``bfs_shortest_paths`` picks, and latency is summed from the root
outward, as a walk up the parent chain would sum it.  A weighted tree is one
Dijkstra that mirrors the reference implementation operation-for-operation
over the snapshot's weighted adjacency (same relaxation order, same float
addition order), so its parents and its ``latency`` column — what
:meth:`HopDistanceEngine.latency_between` reads — are bit-identical to
``dijkstra_shortest_paths``, not merely numerically close.
``tests/routing/test_column_trees.py`` holds that oracle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat
from operator import add, itemgetter
from typing import Dict, Hashable, List, Optional, Tuple, Union

from ..exceptions import NodeNotFoundError, NoRouteError
from ..topology.graph import Graph

NodeId = Hashable

#: Byte sentinel marking an unreachable node in a hop level-vector.
UNREACHABLE = 0xFF

#: Largest hop distance the core byte BFS may produce.  One ``+1`` headroom
#: step is reserved below the 0xFF sentinel so the leaf fill / leaf-source
#: derivation stays exact; a deeper source reads its hop tree's ``hops``
#: column, where a negative count marks an unreachable node.
MAX_BYTE_HOPS = 253

#: 256-entry translate table adding one hop to every finite byte distance
#: (distances above :data:`MAX_BYTE_HOPS` and the unreachable sentinel map
#: to the sentinel).  Callers must check the vector's finite maximum is at
#: most :data:`MAX_BYTE_HOPS` before applying it.
_PLUS_ONE_HOP = bytes(range(1, 255)) + b"\xff\xff"

#: Hop count a column tree gives a router with no route to its root.  It is
#: below -1 so that a leaf filled from such a router (its neighbour's count
#: plus one) is still negative, with no branch in the fill.
NO_ROUTE = -2

HopVector = Union[bytes, List[int]]


class CsrTopology:
    """Immutable int-indexed CSR snapshot of a :class:`Graph`.

    Nodes are reordered so the *core* (every node that is not a leaf) comes
    first and leaves last; ``core_count`` splits the two ranges.  A leaf is a
    degree-1 node whose single neighbour has degree > 1 — degree-0 nodes and
    mutually-attached degree-1 pairs stay in the core so the reduced
    adjacency remains self-contained.

    Use :meth:`HopDistanceEngine.snapshot` rather than building these
    directly; the engine handles generation-based invalidation.
    """

    __slots__ = (
        "graph",
        "generation",
        "nodes",
        "index",
        "node_count",
        "core_count",
        "core_adjacency",
        "leaf_parents",
        "_leaf_gather",
        "_weighted_adjacency",
        "_tree_links",
    )

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.generation = graph.generation

        degree = graph.degrees()
        core: List[NodeId] = []
        leaves: List[NodeId] = []
        for node in graph.nodes():
            if degree[node] == 1 and degree[next(graph.iter_neighbors(node))] > 1:
                leaves.append(node)
            else:
                core.append(node)
        self.nodes: List[NodeId] = core + leaves
        self.index: Dict[NodeId, int] = {node: i for i, node in enumerate(self.nodes)}
        self.node_count = len(self.nodes)
        self.core_count = len(core)

        index = self.index
        # Reduced adjacency: core-to-core edges only, original neighbour
        # order preserved (BFS tie-breaking depends on it).
        self.core_adjacency: List[Tuple[int, ...]] = [
            tuple(index[v] for v in graph.iter_neighbors(u) if degree[v] > 1 or index[v] < self.core_count)
            for u in core
        ]
        # Leaf i (full index core_count + i) hangs off core_adjacency-range
        # parent leaf_parents[i].
        self.leaf_parents = leaf_parents = array("l", (index[next(graph.iter_neighbors(u))] for u in leaves))
        # A core-range column -> each leaf's parent entry, as one C call
        # (itemgetter of a single index would return a bare item).
        self._leaf_gather = (
            itemgetter(*leaf_parents)
            if len(leaves) > 1
            else lambda column: tuple(column[p] for p in leaf_parents)
        )
        self._weighted_adjacency: Optional[List[Tuple[Tuple[int, float], ...]]] = None
        self._tree_links: Optional[Tuple[List[Tuple[Tuple[int, float], ...]], List[float]]] = None

    def is_current(self) -> bool:
        """True while the underlying graph has not mutated since the build."""
        return self.generation == self.graph.generation

    def index_of(self, node: NodeId) -> int:
        """Snapshot index of ``node`` (:class:`NodeNotFoundError` if absent)."""
        try:
            return self.index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def weighted_adjacency(self) -> List[Tuple[Tuple[int, float], ...]]:
        """Per-node ``((neighbor_index, latency), ...)`` tuples in snapshot order (lazy, cached)."""
        if self._weighted_adjacency is None:
            index, weights_of = self.index, self.graph.neighbor_weights
            self._weighted_adjacency = [tuple([(index[v], w) for v, w in weights_of(u)]) for u in self.nodes]
        return self._weighted_adjacency

    def tree_links(self) -> Tuple[List[Tuple[Tuple[int, float], ...]], List[float]]:
        """What a hop tree's BFS walks (lazy, cached).

        Per core router, its ``(core neighbour, latency)`` links in
        :attr:`core_adjacency` order; per leaf, the latency of its one link.
        """
        if self._tree_links is None:
            index, core_count, nodes = self.index, self.core_count, self.nodes
            weights_of, weight = self.graph.neighbor_weights, self.graph.edge_weight
            self._tree_links = (
                [
                    tuple([(index[v], w) for v, w in weights_of(u) if index[v] < core_count])
                    for u in nodes[:core_count]
                ],
                [weight(leaf, nodes[p]) for leaf, p in zip(nodes[core_count:], self.leaf_parents)],
            )
        return self._tree_links

    def fill_leaves(self, core_vector: bytearray) -> bytearray:
        """Extend a core-range byte vector to full length via the leaf gather."""
        core_vector += bytearray(self._leaf_gather(core_vector)).translate(_PLUS_ONE_HOP)
        return core_vector


class EngineStats:
    """Algorithmic-work counters, mirroring ``ServerStats``."""

    __slots__ = ("snapshot_builds", "bfs_runs", "derived_vectors", "dijkstra_runs", "trees_built")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.snapshot_builds = 0
        self.bfs_runs = 0
        self.derived_vectors = 0
        self.dijkstra_runs = 0
        self.trees_built = 0


class HopDistanceEngine:
    """Shared hop/latency distance oracle over one graph.

    One engine per graph is the intended ownership model: a scenario, a
    route table or a landmark set creates (or is handed) an engine and every
    distance it needs flows through the same snapshot, hop vectors and
    trees.  Mutating the graph invalidates all three on the next call via
    the graph's generation counter.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.stats = EngineStats()
        self._snapshot: Optional[CsrTopology] = None
        # source index -> (byte vector, max finite hop), or (its hop tree's
        # hops column, None) for a source too deep for a byte vector
        self._hop_vectors: Dict[int, Tuple[HopVector, Optional[int]]] = {}
        # (root index, weighted) -> the tree towards that root
        self._trees: Dict[Tuple[int, bool], ColumnTree] = {}

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> CsrTopology:
        """The current CSR snapshot, rebuilt if the graph has mutated."""
        snapshot = self._snapshot
        if snapshot is None or not snapshot.is_current():
            snapshot = CsrTopology(self.graph)
            self._snapshot = snapshot
            self._hop_vectors.clear()
            self._trees.clear()
            self.stats.snapshot_builds += 1
        return snapshot

    # ------------------------------------------------------------ hop BFS

    def _byte_bfs(self, snapshot: CsrTopology, source: int) -> Optional[Tuple[bytearray, int]]:
        """Core-graph byte BFS from core index ``source`` (no leaf fill).

        ``None`` when nodes lie more than :data:`MAX_BYTE_HOPS` levels out.
        """
        adjacency = snapshot.core_adjacency
        dist = bytearray(b"\xff") * snapshot.core_count
        dist[source] = 0
        frontier = [source]
        level = 0
        mark = dist.__setitem__
        while frontier:
            level += 1
            # One shared frontier per level; the setitem-in-filter idiom
            # marks a node the moment it is discovered, so in-level
            # duplicates are excluded without a second pass.
            frontier = [
                v
                for u in frontier
                for v in adjacency[u]
                if dist[v] == 255 and not mark(v, level)
            ]
            # Overflow only when nodes actually landed beyond the cap (the
            # partially-written vector is discarded).
            if frontier and level > MAX_BYTE_HOPS:
                return None
        return dist, level - 1 if level else 0

    def _hop_vector(self, source: NodeId) -> Tuple[HopVector, Optional[int]]:
        """The cached (vector, max finite hop) pair for ``source``."""
        snapshot = self.snapshot()
        source_index = snapshot.index_of(source)
        entry = self._hop_vectors.get(source_index)
        if entry is None:
            entry = self._byte_vector(snapshot, source_index)
            if entry is None:  # deeper than a byte counts
                entry = (self.tree(source).hops, None)
            self._hop_vectors[source_index] = entry
        return entry

    def _byte_vector(self, snapshot: CsrTopology, source: int) -> Optional[Tuple[bytes, int]]:
        """``source``'s byte vector and its max finite hop, or ``None`` past the byte cap."""
        core_count = snapshot.core_count
        if source >= core_count:
            # Leaf source: derive from the unique neighbour's vector.
            parent = snapshot.leaf_parents[source - core_count]
            parent_vector, parent_max = self._hop_vector(snapshot.nodes[parent])
            if parent_max is None or parent_max > MAX_BYTE_HOPS:
                return None
            derived = bytearray(parent_vector).translate(_PLUS_ONE_HOP)
            derived[source] = 0
            self.stats.derived_vectors += 1
            return bytes(derived), parent_max + 1
        self.stats.bfs_runs += 1
        core = self._byte_bfs(snapshot, source)
        if core is None:
            return None
        core_vector, max_hops = core
        full = snapshot.fill_leaves(core_vector)
        return bytes(full), max_hops + 1 if snapshot.node_count > core_count else max_hops

    def check_graph(self, graph: Graph) -> "HopDistanceEngine":
        """Guard for injection points: raise unless this engine serves ``graph``."""
        if self.graph is not graph:
            raise ValueError("engine was built for a different graph")
        return self

    def hop_distances(self, source: NodeId) -> Dict[NodeId, int]:
        """Hop distances from ``source`` as a dict, equal to the BFS oracle.

        The returned dict compares equal to
        ``bfs_shortest_paths(graph, source)[0]`` (unreachable nodes absent);
        only the key insertion order differs (snapshot order rather than
        discovery order).
        """
        vector, _ = self._hop_vector(source)
        nodes = self.snapshot().nodes
        if isinstance(vector, bytes):
            return {nodes[i]: d for i, d in enumerate(vector) if d != UNREACHABLE}
        return {nodes[i]: d for i, d in enumerate(vector) if d >= 0}

    def hop_distance(self, source: NodeId, destination: NodeId) -> int:
        """Hop distance, raising :class:`NoRouteError` when unreachable."""
        distance = self.hop_between(source, destination)
        if distance is None:
            raise NoRouteError(source, destination)
        return distance

    def hop_between(self, source: NodeId, destination: NodeId, default=None):
        """Hop distance, or ``default`` when ``destination`` is unreachable.

        Raises :class:`NodeNotFoundError` for an unknown *source* (matching
        the single-source BFS entry points); an unknown destination counts
        as unreachable, matching a ``distances.get(destination)`` lookup on
        the BFS result dict.
        """
        vector, _ = self._hop_vector(source)
        destination_index = self.snapshot().index.get(destination)
        if destination_index is None:
            return default
        distance = vector[destination_index]
        reachable = distance != UNREACHABLE if isinstance(vector, bytes) else distance >= 0
        return distance if reachable else default

    # ------------------------------------------------------------- Dijkstra

    def _dijkstra(
        self, snapshot: CsrTopology, source: int
    ) -> Tuple[Dict[int, float], Dict[int, int], Dict[int, None]]:
        """Index-keyed ``(distances, parents)`` plus the settled routers in settling order.

        The relaxation order, heap tie-breaking counter and float addition
        order mirror ``dijkstra_shortest_paths`` exactly, so results are
        bit-identical (not merely approximately equal).
        """
        adjacency = snapshot.weighted_adjacency()
        self.stats.dijkstra_runs += 1
        distances: Dict[int, float] = {source: 0.0}
        parents: Dict[int, int] = {}
        settled: Dict[int, None] = {}  # an insertion-ordered set
        heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
        counter = 0
        while heap:
            distance, _, u = heappop(heap)
            if u in settled:
                continue
            settled[u] = None
            for v, weight in adjacency[u]:
                if v in settled:
                    continue
                candidate = distance + weight
                if v not in distances or candidate < distances[v]:
                    distances[v] = candidate
                    parents[v] = u
                    counter += 1
                    heappush(heap, (candidate, counter, v))
        return distances, parents, settled

    # ---------------------------------------------------------- latency API

    def has_latency_tree(self, source: NodeId) -> bool:
        """True when ``source``'s weighted tree is already built.

        Lets callers on undirected graphs — where latency is symmetric —
        pick the warm endpoint of a pair as the Dijkstra source instead of
        paying one run per distinct cold source (the simulated network's
        many-clients-one-server traffic pattern).
        """
        return (self.snapshot().index.get(source), True) in self._trees

    def latency_between(self, source: NodeId, destination: NodeId, default=None):
        """Latency-shortest distance, or ``default`` when unreachable (or unknown).

        Read from the ``latency`` column of ``source``'s weighted tree.
        """
        tree = self.tree(source, weighted=True)
        i = tree.index.get(destination)
        return default if i is None or tree.hops[i] < 0 else tree.latency[i]

    # ----------------------------------------------------------------- trees

    def tree(self, root: NodeId, weighted: bool = False) -> "ColumnTree":
        """The routes of every router towards ``root``, as a :class:`ColumnTree`.

        Hop-shortest routes by default (the parents ``bfs_shortest_paths``
        picks); ``weighted=True`` routes along latency (the parents of
        ``dijkstra_shortest_paths``).  Built once per root and snapshot.
        Unknown roots raise :class:`NodeNotFoundError`.
        """
        snapshot = self.snapshot()
        key = (snapshot.index_of(root), weighted)
        tree = self._trees.get(key)
        if tree is None:
            self.stats.trees_built += 1
            build = self._dijkstra_columns if weighted else self._bfs_columns
            columns = build(snapshot, key[0])
            tree = self._trees[key] = ColumnTree(root, weighted, snapshot.index, snapshot.nodes, *columns)
        return tree

    def _bfs_columns(self, snapshot: CsrTopology, root: int) -> Tuple[List[int], List[int], List[float]]:
        """``(parent, hops, latency)`` columns of the hop tree towards ``root``."""
        links, leaf_weights = snapshot.tree_links()
        core_count = snapshot.core_count
        leaf_parents = snapshot.leaf_parents
        parent = [-1] * core_count
        hops = [NO_ROUTE] * core_count
        latency = [float("inf")] * core_count
        start = root
        if root >= core_count:
            # A leaf root: its one neighbour is every route's last hop.
            start = leaf_parents[root - core_count]
            parent[start], hops[start], latency[start] = root, 1, leaf_weights[root - core_count]
        else:
            hops[start], latency[start] = 0, 0.0
        level = hops[start]
        mark, link, price = hops.__setitem__, parent.__setitem__, latency.__setitem__
        frontier = [start]
        while frontier:
            level += 1
            # Marked when first discovered: the parent is the first frontier
            # router, in FIFO order, that links to it.
            frontier = [
                v
                for u in frontier
                for v, weight in links[u]
                if hops[v] < 0 and not mark(v, level) and not link(v, u) and not price(v, latency[u] + weight)
            ]
        gather = snapshot._leaf_gather
        hops.extend(map(add, gather(hops), repeat(1)))
        latency.extend(map(add, gather(latency), leaf_weights))
        parent.extend(leaf_parents)
        if root >= core_count:
            parent[root], hops[root], latency[root] = -1, 0, 0.0
        return parent, hops, latency

    def _dijkstra_columns(self, snapshot: CsrTopology, root: int) -> Tuple[List[int], List[int], List[float]]:
        """``(parent, hops, latency)`` columns of the latency tree towards ``root``."""
        distances, parents, settled = self._dijkstra(snapshot, root)
        parent = [-1] * snapshot.node_count
        hops = [NO_ROUTE] * snapshot.node_count
        latency = [float("inf")] * snapshot.node_count
        for v in settled:  # a router settles after its parent
            p = parents.get(v, -1)
            parent[v] = p
            hops[v] = hops[p] + 1 if p >= 0 else 0
            # Dijkstra sets distances[v] = distances[p] + weight(p, v): the
            # routed latency, summed from the root outward.
            latency[v] = distances[v]
        return parent, hops, latency


@dataclass(frozen=True, slots=True)
class ColumnTree:
    """Every router's route towards one root, as three flat columns.

    Columns are indexed by snapshot position (``index`` maps a router to
    it, ``nodes`` back): ``parent[i]`` is the position of router ``i``'s
    next hop (-1 at the root), ``hops[i]`` the number of hops of its route
    and ``latency[i]`` the link latency summed along it from the root
    outward.  A router with no route has a negative ``hops[i]``, and its
    other two entries mean nothing.  Built by :meth:`HopDistanceEngine.tree`
    for one snapshot and never changed.
    """

    root: NodeId
    weighted: bool
    index: Dict[NodeId, int]
    nodes: List[NodeId]
    parent: List[int]
    hops: List[int]
    latency: List[float]

    def position(self, node: NodeId) -> int:
        """Column position of ``node``; :class:`NoRouteError` if it has no route."""
        i = self.index.get(node)
        if i is None or self.hops[i] < 0:
            raise NoRouteError(node, self.root)
        return i

    def path_to_root(self, node: NodeId) -> List[NodeId]:
        """The routed path ``[node, ..., root]``."""
        nodes, parent = self.nodes, self.parent
        path = [node]
        i = parent[self.position(node)]
        while i >= 0:
            path.append(nodes[i])
            i = parent[i]
        return path
