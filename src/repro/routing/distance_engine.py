"""Vectorised hop/latency distance engine over CSR topology snapshots.

Every distance consumer in the repository used to run its own pure-python
per-source BFS/Dijkstra over the dict-of-dicts :class:`~repro.topology.graph.
Graph` — one fresh ``dict`` per node per source.  At paper-scale router maps
(~4 000 routers) and benchmark populations (12 800 peers) that per-source
dict churn dominates scenario-build wall-clock.  This module replaces it with
a shared engine built around two ideas:

**CSR snapshots** (:class:`CsrTopology`) — the graph is flattened once into
int-indexed compact arrays (``offsets``/``neighbors`` in the classic
compressed-sparse-row layout, plus per-weight-key weighted adjacency and
the links a hop tree walks, both read from the graph on first use).  Snapshots
are immutable; :class:`Graph` carries a generation counter bumped on every
mutation, and the engine transparently rebuilds its snapshot when the
generation moves.

**Batched level-vector BFS** (:class:`HopDistanceEngine`) — hop distances are
computed as flat ``bytearray`` level-vectors (one byte per node, ``0xFF`` =
unreachable) expanded one shared frontier per level, instead of per-node
dict inserts.  Two structural accelerations make multi-source batches cheap:

* the snapshot separates *leaf* routers (degree-1 nodes hanging off a
  higher-degree neighbour — the stub/access routers peers attach to) from the
  *core* graph.  BFS runs over the core only; leaf distances are filled in
  afterwards with one C-speed gather (:func:`operator.itemgetter`) plus one
  ``bytes.translate`` (+1 per hop);
* a BFS *from* a leaf source is derived from its unique neighbour's vector
  with the same translate trick (``d_leaf(x) = d_neighbor(x) + 1``), so
  warming every peer attachment router costs one BFS per *distinct access
  parent* rather than one per peer.

Results are exactly equal to the dict-based reference BFS / Dijkstra of
``tests/routing/reference_paths.py`` for every source, including
disconnected graphs — ``tests/routing/test_distance_engine.py`` holds the
property-test oracle.
Vectors saturate at 254 hops; rare deeper graphs fall back to exact wide
(machine-int) vectors automatically.

The batched Dijkstra mirrors the reference implementation operation-for-
operation over the snapshot's weighted adjacency (same relaxation order,
same float addition order), so latency distances and tie-broken parents are
bit-identical, not merely numerically close.

**Column trees** (:meth:`HopDistanceEngine.tree`) are the forwarding state a
:class:`~repro.routing.route_table.RouteTable` keeps per landmark: parent
position, hop count and routed latency as flat per-router lists, so a route,
a hop count or a ping's latency is one index lookup plus column reads.  A hop
tree is one level-synchronous BFS over the core (the hop vectors' frontier
idiom, recording each router's parent and ``latency[parent] + weight`` as it
is discovered); every leaf then takes its one neighbour's entries plus its
link at C speed.  The frontier keeps the reference FIFO order and a leaf
never discovers anything, so every parent is the one ``bfs_shortest_paths``
picks, and latency is summed from the root outward, as a walk up the parent
chain would sum it.  Hop counts are plain ints: a tree has no byte cap.
``tests/routing/test_column_trees.py`` holds that oracle.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat
from operator import add, itemgetter
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

from ..exceptions import NodeNotFoundError, NoRouteError
from ..topology.graph import DEFAULT_WEIGHT_KEY, Graph

NodeId = Hashable

#: Byte sentinel marking an unreachable node in a hop level-vector.
UNREACHABLE = 0xFF

#: Largest hop distance the core byte BFS may produce.  One ``+1`` headroom
#: step is reserved below the 0xFF sentinel so the leaf fill / leaf-source
#: derivation stays exact; deeper graphs fall back to wide (machine-int)
#: vectors, where ``-1`` marks unreachable nodes.
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

HopVector = Union[bytes, array]


class _ByteOverflow(Exception):
    """Internal: a byte-vector BFS exceeded MAX_BYTE_HOPS levels."""


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
        "offsets",
        "neighbors",
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
        # Full-graph CSR arrays (all nodes, snapshot order).
        offsets = array("l", [0])
        neighbors = array("l")
        for u in self.nodes:
            neighbors.extend(index[v] for v in graph.iter_neighbors(u))
            offsets.append(len(neighbors))
        self.offsets = offsets
        self.neighbors = neighbors
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
        self._weighted_adjacency: Dict[str, List[Tuple[Tuple[int, float], ...]]] = {}
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

    def weighted_adjacency(self, weight_key: str = DEFAULT_WEIGHT_KEY) -> List[Tuple[Tuple[int, float], ...]]:
        """Per-node ``((neighbor_index, weight), ...)`` tuples in CSR order (lazy, cached)."""
        cached = self._weighted_adjacency.get(weight_key)
        if cached is None:
            index, weights_of = self.index, self.graph.neighbor_weights
            cached = [tuple([(index[v], w) for v, w in weights_of(u, weight_key)]) for u in self.nodes]
            self._weighted_adjacency[weight_key] = cached
        return cached

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

    __slots__ = ("snapshot_builds", "bfs_runs", "wide_bfs_runs", "derived_vectors", "dijkstra_runs",
                 "vector_cache_hits", "trees_built")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.snapshot_builds = 0
        self.bfs_runs = 0
        self.wide_bfs_runs = 0
        self.derived_vectors = 0
        self.dijkstra_runs = 0
        self.vector_cache_hits = 0
        self.trees_built = 0


class HopDistanceEngine:
    """Shared hop/latency distance oracle over one graph.

    One engine per graph is the intended ownership model: a scenario, a
    route table or a landmark set creates (or is handed) an engine and every
    distance it needs flows through the same snapshot and vector caches.
    Mutating the graph invalidates the snapshot on the next call via the
    graph's generation counter.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.stats = EngineStats()
        self._snapshot: Optional[CsrTopology] = None
        # source index -> (vector, max finite hop or None for wide vectors)
        self._hop_vectors: Dict[int, Tuple[HopVector, Optional[int]]] = {}
        # (source index, weight_key) -> latency vector (inf = unreachable)
        self._latency_vectors: Dict[Tuple[int, str], array] = {}

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> CsrTopology:
        """The current CSR snapshot, rebuilt if the graph has mutated."""
        snapshot = self._snapshot
        if snapshot is None or not snapshot.is_current():
            snapshot = CsrTopology(self.graph)
            self._snapshot = snapshot
            self._hop_vectors.clear()
            self._latency_vectors.clear()
            self.stats.snapshot_builds += 1
        return snapshot

    # ------------------------------------------------------------ hop BFS

    def _byte_bfs(self, snapshot: CsrTopology, source: int) -> Tuple[bytearray, int]:
        """Core-graph byte BFS from core index ``source`` (no leaf fill)."""
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
            # partially-written vector is discarded by the wide fallback).
            if frontier and level > MAX_BYTE_HOPS:
                raise _ByteOverflow
        return dist, level - 1 if level else 0

    def _wide_bfs(self, snapshot: CsrTopology, source: int) -> array:
        """Exact fallback for graphs deeper than MAX_BYTE_HOPS (full graph)."""
        self.stats.wide_bfs_runs += 1
        offsets = snapshot.offsets
        neighbors = snapshot.neighbors
        dist = array("l", [-1]) * snapshot.node_count
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            next_level = dist[u] + 1
            for i in range(offsets[u], offsets[u + 1]):
                v = neighbors[i]
                if dist[v] < 0:
                    dist[v] = next_level
                    queue.append(v)
        return dist

    def _hop_vector(self, source: NodeId) -> Tuple[HopVector, Optional[int]]:
        """The cached (vector, max finite hop) pair for ``source``."""
        snapshot = self.snapshot()
        source_index = snapshot.index_of(source)
        cached = self._hop_vectors.get(source_index)
        if cached is not None:
            self.stats.vector_cache_hits += 1
            return cached
        core_count = snapshot.core_count
        if source_index >= core_count:
            # Leaf source: derive from the unique neighbour's vector.
            parent = snapshot.leaf_parents[source_index - core_count]
            parent_vector, parent_max = self._hop_vector(snapshot.nodes[parent])
            if parent_max is not None and parent_max <= MAX_BYTE_HOPS:
                derived = bytearray(parent_vector).translate(_PLUS_ONE_HOP)
                derived[source_index] = 0
                self.stats.derived_vectors += 1
                entry: Tuple[HopVector, Optional[int]] = (bytes(derived), parent_max + 1)
                self._hop_vectors[source_index] = entry
                return entry
            entry = (self._wide_bfs(snapshot, source_index), None)
            self._hop_vectors[source_index] = entry
            return entry
        self.stats.bfs_runs += 1
        try:
            core_vector, max_hops = self._byte_bfs(snapshot, source_index)
        except _ByteOverflow:
            entry = (self._wide_bfs(snapshot, source_index), None)
        else:
            full = snapshot.fill_leaves(core_vector)
            entry = (bytes(full), max_hops + 1 if snapshot.node_count > core_count else max_hops)
        self._hop_vectors[source_index] = entry
        return entry

    def check_graph(self, graph: Graph) -> "HopDistanceEngine":
        """Guard for injection points: raise unless this engine serves ``graph``."""
        if self.graph is not graph:
            raise ValueError("engine was built for a different graph")
        return self

    def warm_hops(self, sources: Iterable[NodeId]) -> int:
        """Batched multi-source warm-up: cache hop vectors for ``sources``.

        Returns the number of *distinct* sources warmed.  Leaf sources
        sharing an access parent share that parent's BFS; this is the bulk
        entry point scenario builds use for peer attachment routers.
        """
        seen = set()
        for source in sources:
            self._hop_vector(source)
            seen.add(source)
        return len(seen)

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
        unreachable = UNREACHABLE if isinstance(vector, bytes) else -1
        return default if distance == unreachable else distance

    # ------------------------------------------------------------- Dijkstra

    def _dijkstra(
        self, snapshot: CsrTopology, source: int, weight_key: str
    ) -> Tuple[Dict[int, float], Dict[int, int], Dict[int, None]]:
        """Index-keyed ``(distances, parents)`` plus the settled routers in settling order."""
        adjacency = snapshot.weighted_adjacency(weight_key)
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

    def dijkstra(
        self, source: NodeId, weight_key: str = DEFAULT_WEIGHT_KEY
    ) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
        """``(distances, parents)`` identical to ``dijkstra_shortest_paths``.

        The relaxation order, heap tie-breaking counter and float addition
        order mirror the reference implementation exactly, so results are
        bit-identical (not merely approximately equal).
        """
        snapshot = self.snapshot()
        distances, parents, _ = self._dijkstra(snapshot, snapshot.index_of(source), weight_key)
        nodes = snapshot.nodes
        return (
            {nodes[i]: d for i, d in distances.items()},
            {nodes[i]: nodes[p] for i, p in parents.items()},
        )

    # ---------------------------------------------------------- latency API

    def _latency_vector(self, source: NodeId, weight_key: str) -> array:
        snapshot = self.snapshot()
        key = (snapshot.index_of(source), weight_key)
        cached = self._latency_vectors.get(key)
        if cached is not None:
            self.stats.vector_cache_hits += 1
            return cached
        # One Dijkstra implementation for the whole engine: the cached
        # vector is densified from :meth:`dijkstra`'s (reference-identical)
        # distances, so the two entry points can never drift apart.
        distances, _ = self.dijkstra(source, weight_key=weight_key)
        index = snapshot.index
        vector = array("d", [float("inf")]) * snapshot.node_count
        for node, distance in distances.items():
            vector[index[node]] = distance
        self._latency_vectors[key] = vector
        return vector

    def has_latency_vector(self, source: NodeId, weight_key: str = DEFAULT_WEIGHT_KEY) -> bool:
        """True when ``source``'s latency vector is already cached.

        Lets callers on undirected graphs — where latency is symmetric —
        pick the warm endpoint of a pair as the Dijkstra source instead of
        paying one run per distinct cold source (the simulated network's
        many-clients-one-server traffic pattern).
        """
        snapshot = self.snapshot()
        index = snapshot.index.get(source)
        if index is None:
            return False
        return (index, weight_key) in self._latency_vectors

    def warm_latencies(self, sources: Iterable[NodeId], weight_key: str = DEFAULT_WEIGHT_KEY) -> int:
        """Batched multi-source Dijkstra warm-up over one shared snapshot.

        Returns the number of *distinct* sources warmed.
        """
        seen = set()
        for source in sources:
            self._latency_vector(source, weight_key)
            seen.add(source)
        return len(seen)

    def latency_between(
        self,
        source: NodeId,
        destination: NodeId,
        default=None,
        weight_key: str = DEFAULT_WEIGHT_KEY,
    ):
        """Latency distance, or ``default`` when unreachable (or unknown)."""
        vector = self._latency_vector(source, weight_key)
        destination_index = self.snapshot().index.get(destination)
        if destination_index is None:
            return default
        distance = vector[destination_index]
        return default if distance == float("inf") else distance

    # ----------------------------------------------------------------- trees

    def tree(self, root: NodeId, weighted: bool = False) -> "ColumnTree":
        """The routes of every router towards ``root``, as a :class:`ColumnTree`.

        Hop-shortest routes by default (the parents ``bfs_shortest_paths``
        picks); ``weighted=True`` routes along latency (the parents of
        ``dijkstra_shortest_paths``).  Unknown roots raise
        :class:`NodeNotFoundError`.
        """
        snapshot = self.snapshot()
        root_index = snapshot.index_of(root)
        self.stats.trees_built += 1
        build = self._dijkstra_columns if weighted else self._bfs_columns
        return ColumnTree(root, weighted, snapshot.index, snapshot.nodes, *build(snapshot, root_index))

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
        distances, parents, settled = self._dijkstra(snapshot, root, DEFAULT_WEIGHT_KEY)
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
