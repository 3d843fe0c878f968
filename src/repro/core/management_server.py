"""The management server: registers peer paths, answers closest-peer queries.

This is the paper's central component.  It maintains one
:class:`~repro.core.path_tree.PathTree` per landmark, plus (optionally) a
per-peer **cached neighbour list** so that answering a closest-peer query is
a single hash-table access — the O(1) lookup the paper claims — while each
newcomer insertion only touches the peers close to the newcomer and performs
ordered-list insertions into their cached lists — the O(log n) insertion the
paper claims.

Hot-path complexity guarantees
------------------------------
With ``n`` registered peers under a landmark, ``k = neighbor_set_size`` and
``d`` the network diameter (path length, ~15–30 hops):

* **Insertion** (``register_peer``): ``d`` sorted-row insertions into the
  landmark trie — O(log n) comparisons each, plus the list insert's memmove
  (8 bytes per entry behind the slot; ~100 KB at the root of a 12,800-peer
  tree) — then one index query (below) and at most ``k`` ordered-list
  insertions of O(log k) each: the paper's O(log n) claim.  The root's row
  is the landmark's min-hop ordering, so cross-landmark fills cost no
  second structure.  Every comparison on this path uses the plane's
  interned sort keys (:mod:`repro.core.interning`): ``repr`` runs once per
  peer at registration, never per candidate or per bisect probe.
* **Query** (``closest_peers``): one dictionary access when the cache is
  warm — O(1).  Legitimately short lists (fewer reachable candidates than
  ``k``) stay warm via the cache's completeness marks until the next
  membership change.  A cache miss reads the answer off the sorted rows of
  the peer's ancestor chain (:func:`~repro.core.path_tree.closest_in_rows`):
  O(d²) ranges, each starting where its stream's previous one ended (no
  row is bisected), and at most ``k + len(exclude)`` entries scanned in
  each one read — independent of ``n`` and of how many peers tie at the
  ``k``-th distance.
* **Departure** (:meth:`ManagementServer.unregister_peer`): ``d`` bisected
  row deletions + O(r) cached-list repairs where ``r`` is the number of
  lists that actually reference the departed peer (bounded by the reverse
  neighbour index, not by ``n``).  A repaired list left shorter than
  ``min(k, peers - 1)`` and not marked complete is recomputed from the tree
  on its owner's next query (a refill), not at the departure.
* **Batch arrival** (:meth:`ManagementServer.register_peers`): inserts all
  paths first, then computes neighbour lists and propagates cache updates in
  one pass, so co-arriving peers see each other immediately; each list is
  one index query.
* **Load** (:meth:`ManagementServer.insert_paths` of a batch that lands
  only in trees holding no peers and neither re-registers nor repeats a
  peer — a cold start, or a compacted journal replayed onto an empty
  shard): one :meth:`~repro.core.path_tree.PathTree.load` per landmark —
  one walk per path, one sort of the batch's entries, one append per row on
  each root path: no bisect, no memmove.  The result is the server per-path
  inserts would build.  At 12,800 peers (``plane-churn-inline``'s
  population, one 2-core box) a cold ``insert_paths`` takes ~60 ms instead
  of ~90.

A row costs one pointer per peer at or below the node — ``d + 1`` pointers
and one shared 3-tuple per peer in all — and replaces the per-node
attachment dict and subtree count.  Measured on the synthetic three-level
hierarchy at 12 800 peers (``python3 -m bench``, ``plane-churn-inline``): the
index query of a cold miss 62 → 8 µs; ``register_peer`` p50 150 → 50 µs with
the rows and → 39 µs with cached lists as plain sorted tuples — by the traced
run ~27 % trie insert, ~27 % index query, ~29 % cache pass, the rest skeleton.

Per peer the server keeps one ``_paths`` entry (the slotted
:class:`~repro.core.path.RouterPath`, which names the landmark), one tree
attachment, the trie entry, ``k`` cache entries with shared distance floats
and ~``k`` list-held reverse edges: ~1,090 bytes at 12,800 peers, k = 5, by
``tracemalloc`` (1,680 before; ``tests/core/test_plane_memory.py`` pins it).

The peer-facing half of the API (registration skeleton, cache policy,
distance estimator, read accessors) lives in
:class:`~repro.core.management_plane.ManagementPlaneBase`, and the cached
lists plus the reverse neighbour index in
:class:`~repro.core.neighbor_cache.NeighborCache` — both shared with the
sharded coordinator (:class:`~repro.core.sharded.ShardedManagementServer`)
so the two planes behave identically by construction.

Shard-facing interface
----------------------
A :class:`ManagementServer` can also serve as one **shard** of the sharded
management plane.  The coordinator drives it through a small data-plane
surface (see :class:`~repro.core.sharded.ShardBackend`).  It asks a shard
nothing it already knows: whether a batch is registrable is read off the
landmark routers it holds
(:meth:`~repro.core.management_plane.ManagementPlaneBase.validate_registrable`),
and the ``dtree`` of two peers off their registered paths.

* :meth:`join_paths` — a shard's whole part in an arrival, one call (one
  frame on a remote backend): validate (again: the shard trusts no bytes
  it decodes), insert, and the index query for every path just inserted;
* :meth:`insert_paths` / :meth:`unregister_peer` — landmark-tree
  membership, no neighbour-list work; ``insert_paths`` alone is what a
  journal replays;
* :meth:`local_closest` — the index query over the peer's own landmark
  tree, for cold queries and refills;
* :meth:`fill_candidates` — the first ``limit`` candidates of this shard's
  merge of its per-landmark min-hop orderings (the root rows), the
  inter-shard half of the cross-landmark fill protocol.

Cross-landmark estimates
------------------------
Peers registered under different landmarks share no path, so their tree
distance is undefined.  When inter-landmark distances are provided (the
landmarks can measure them once, offline), the server falls back to::

    d_cross(p1, p2) = hops(p1 -> landmark(p1)) + d(landmark(p1), landmark(p2))
                      + hops(landmark(p2) -> p2)

which is an upper bound on the true distance.  Cross-landmark candidates are
only used to fill a neighbour list when the peer's own tree cannot provide
``k`` candidates; each landmark trie's root row is its min-hop ordering, so
filling the last one or two slots is a bounded merge, not a scan over every
foreign-tree peer.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .._validation import require_positive_int
from ..exceptions import LandmarkError, UnknownPeerError
from .interning import PeerKeyInterner
from .management_plane import ManagementPlaneBase, ServerStats
from .neighbor_cache import NeighborCache, NeighborEntry
from .path import LandmarkId, NodeId, PeerId, RouterPath
from .path_tree import PathTree, fill_in_rows

__all__ = ["ManagementServer", "NeighborEntry", "ServerStats"]


class ManagementServer(ManagementPlaneBase):
    """Central server implementing the paper's two-round discovery scheme.

    Parameters
    ----------
    neighbor_set_size:
        Number of neighbours (``k``) returned to a newcomer and kept in each
        peer's cached list.
    maintain_cache:
        Keep per-peer neighbour lists up to date on every registration so
        queries are O(1).  Disabling it makes every query read the tree
        (useful for the complexity ablation, and for shard backends whose
        coordinator owns the cache).
    landmark_distances:
        Optional ``{(landmark_a, landmark_b): hop_distance}`` map (symmetric
        entries are filled in automatically) enabling cross-landmark
        estimates.
    """

    def __init__(
        self,
        neighbor_set_size: int = 5,
        maintain_cache: bool = True,
        landmark_distances: Optional[Dict[Tuple[LandmarkId, LandmarkId], float]] = None,
    ) -> None:
        self.neighbor_set_size = require_positive_int(neighbor_set_size, "neighbor_set_size")
        self.maintain_cache = maintain_cache
        self._trees: Dict[LandmarkId, PathTree] = {}
        self._landmark_routers: Dict[LandmarkId, NodeId] = {}
        self._paths: Dict[PeerId, RouterPath] = {}
        self.stats = ServerStats()
        # One interner per plane: every ordering this server produces (query
        # sorts, cached-list bisects, min-hop orderings, fills) shares
        # the same precomputed sort texts.
        self._interner = PeerKeyInterner()
        self._cache = NeighborCache(self.neighbor_set_size, self.stats, self._interner)
        self._landmark_distances: Dict[Tuple[LandmarkId, LandmarkId], float] = {}
        if landmark_distances:
            for (a, b), distance in landmark_distances.items():
                self.set_landmark_distance(a, b, distance)

    # -------------------------------------------------------------- landmarks

    def register_landmark(self, landmark_id: LandmarkId, router: NodeId) -> None:
        """Declare a landmark and the router it is attached to."""
        if landmark_id in self._trees:
            raise LandmarkError(f"landmark {landmark_id!r} is already registered")
        self._stop_tracking()  # a change record has no set for the new trie
        self._landmark_routers[landmark_id] = router
        self._trees[landmark_id] = PathTree(
            landmark_id=landmark_id, landmark_router=router, interner=self._interner
        )

    def landmarks(self) -> List[LandmarkId]:
        """Identifiers of all registered landmarks."""
        return list(self._trees)

    def tree(self, landmark_id: LandmarkId) -> PathTree:
        """The path tree of one landmark."""
        if landmark_id not in self._trees:
            raise LandmarkError(f"unknown landmark {landmark_id!r}")
        return self._trees[landmark_id]

    def total_tree_visits(self) -> int:
        """Index work of closest-peer queries, summed over all trees.

        Ranges examined plus row entries scanned (see
        :attr:`PathTree.total_query_visits`).  Part of the shard-facing
        surface so ``bench/`` can read the algorithmic-work counter
        with one cheap call per plane instead of shipping whole tree
        snapshots across a process boundary.
        """
        return sum(tree.total_query_visits for tree in self._trees.values())

    def total_insert_work(self) -> Tuple[int, int]:
        """``(nodes_created, nodes_touched)`` summed over all trees' inserts.

        The insert-side twin of :meth:`total_tree_visits`: one cheap call
        returns the trie-node allocation/traversal counters so tests and
        ``bench/`` can check the O(path length) registration bound, on any
        backend.
        """
        created = 0
        touched = 0
        for tree in self._trees.values():
            created += tree.total_insert_nodes_created
            touched += tree.total_insert_nodes_touched
        return (created, touched)

    # -------------------------------------------------------------- register

    def register_peer(self, path: RouterPath) -> List[Tuple[PeerId, float]]:
        """Round 2 of the join protocol: insert the path, return closest peers.

        Returns the newcomer's neighbour list (up to ``neighbor_set_size``
        entries of ``(peer_id, estimated_distance)``), which is also what the
        plane caches for subsequent O(1) queries.
        """
        self.validate_registrable(path)
        if path.peer_id in self._paths:
            self.unregister_peer(path.peer_id)
        self._insert_path(path)
        neighbors = self._compute_neighbors(path.peer_id)
        return self._neighbor_phase({path.peer_id: neighbors})[path.peer_id]

    def register_peers(
        self, paths: Sequence[RouterPath]
    ) -> Dict[PeerId, List[Tuple[PeerId, float]]]:
        """Batch arrival: insert every path first, then update caches once.

        This is the entry point churn and arrival workloads should use for
        co-arriving peers: all paths land in the landmark trees before any
        neighbour list is computed, so every newcomer's list (and every
        propagated cache update) already sees the whole batch instead of only
        the peers that happened to register earlier.

        Returns ``{peer_id: neighbour list}`` in input order (a peer repeated
        in the batch keeps its last path).
        """
        self.insert_paths(paths)
        peers = dict.fromkeys(path.peer_id for path in paths)
        return self._neighbor_phase(
            {peer_id: self._compute_neighbors(peer_id) for peer_id in peers}
        )

    def unregister_peer(self, peer_id: PeerId) -> None:
        """Remove a departing peer from its tree and from the cached lists.

        The reverse neighbour index pinpoints the (at most ``r``) lists that
        reference the departed peer, so the cost is O(r·k), not O(n): no
        other cached list is touched.  A list this leaves shorter than
        ``min(k, peers - 1)`` and not marked complete is recomputed from the
        tree on its owner's next query.
        """
        path = self._paths.pop(peer_id, None)
        if path is None:
            raise UnknownPeerError(peer_id)
        self._trees[path.landmark_id].remove(peer_id)
        self._interner.discard(peer_id)
        self.stats.removals += 1
        if self.maintain_cache:
            self._cache.drop_peer(peer_id)
        if self.changes is not None:
            self._peer_changed(peer_id)

    # ------------------------------------------------- shard-facing interface

    def insert_paths(self, paths: Sequence[RouterPath], validate: bool = True) -> None:
        """Raw batch insert: landmark trees and indexes only, no neighbour work.

        This is the arrival half of the shard interface: the coordinator owns
        the neighbour cache, so a shard only validates every path up front
        (no partial failure) and lands them in its trees.  A peer already
        present on this shard is replaced.  A coordinator that has already
        validated the batch passes ``validate=False`` to skip the re-check.

        A batch that only lands in trees holding no peers, and neither
        re-registers nor repeats a peer, is a **load**: one
        :meth:`PathTree.load` per landmark instead of one insert per path.
        The result is the same server — node ids, rows, interned keys,
        registration order, counters, generation and change record.
        """
        if validate:
            for path in paths:
                self.validate_registrable(path)
        groups = self._load_groups(paths)
        if groups is None:
            for path in paths:
                if path.peer_id in self._paths:
                    self.unregister_peer(path.peer_id)
                self._insert_path(path)
            return
        for landmark_id, batch in groups.items():
            self._trees[landmark_id].load(batch)
        # Every path is a new peer, so a record cannot outgrow the live
        # population here: the bookkeeping of n registrations at once.
        registered = self._paths
        for path in paths:
            registered[path.peer_id] = path
        self.stats.registrations += len(paths)
        self._cache.membership_generation += len(paths)
        if self.changes is not None:
            self.changes.peers.update(dict.fromkeys(path.peer_id for path in paths))

    def join_paths(self, paths: Sequence[RouterPath], k: int) -> List[List[Tuple[PeerId, float]]]:
        """Compound arrival: :meth:`insert_paths`, then each path's :meth:`local_closest`.

        Everything a shard contributes to an arrival in ONE call — one frame
        and one reply on a remote backend, where the two halves used to be
        two round trips plus one per peer.  The lists come back in input
        order and are read after the whole batch landed, so co-arriving
        peers already see each other.  It *is* those two methods, called by
        name: validation, replacement of a peer already on this shard, the
        counters and a trace of either mean here what they mean there.
        """
        self.insert_paths(paths)
        return [self.local_closest(path.peer_id, k) for path in paths]

    def local_closest(self, peer_id: PeerId, k: int) -> List[Tuple[PeerId, float]]:
        """Closest peers from the peer's own landmark tree (no cross fill).

        The index query of the peer's tree, exposed so the sharded
        coordinator can query a peer's home shard directly.  The answer is
        the walk's own list (:meth:`PathTree.closest_from_node` from the
        peer's attachment node, the peer excluded): shared floats of
        :data:`~repro.core.neighbor_cache.SHARED_DISTANCES` and all.
        """
        path = self._paths.get(peer_id)
        if path is None:
            raise UnknownPeerError(peer_id)
        self.stats.tree_queries += 1
        tree = self._trees[path.landmark_id]
        return tree.closest_from_node(tree._attachment[peer_id], k, (peer_id,))

    def fill_candidates(
        self, bases: Mapping[LandmarkId, float], limit: int
    ) -> List[Tuple[float, str, PeerId]]:
        """The first ``limit`` candidates of this server's cross-landmark fill.

        ``bases`` maps each of this server's landmarks to the constant part
        of the detour estimate for the querying peer
        (``hops(peer -> its landmark) + d(its landmark, this landmark)``) —
        the caller computes it, so a shard needs no knowledge of foreign
        landmark distances.  The answer is ``(estimate, repr(peer), peer)``
        tuples in non-decreasing order: the landmarks' min-hop orderings
        shifted by their bases and merged (:func:`~repro.core.path_tree.
        fill_in_rows`), so a fill that needs two candidates reads two.
        """
        return fill_in_rows(
            [
                (self._trees[landmark_id].rows[0], float(base))
                for landmark_id, base in bases.items()
                if landmark_id in self._trees
            ],
            limit,
        )

    # -------------------------------------------------------------- internals

    def _load_groups(self, paths: Sequence[RouterPath]) -> Optional[Dict[LandmarkId, List[RouterPath]]]:
        """The batch by landmark if :meth:`insert_paths` may load it, else None."""
        groups: Dict[LandmarkId, List[RouterPath]] = {}
        for path in paths:
            group = groups.get(path.landmark_id)
            if group is None:
                if self._trees[path.landmark_id].peer_count:
                    return None  # the steady state returns at the first path
                group = groups[path.landmark_id] = []
            group.append(path)
        peers = [path.peer_id for path in paths]
        if len(set(peers)) != len(peers) or not self._paths.keys().isdisjoint(peers):
            return None
        return groups or None

    def _insert_path(self, path: RouterPath) -> None:
        """Insert one validated path into the tree and the server indexes."""
        self._trees[path.landmark_id].insert(path)
        self._paths[path.peer_id] = path
        self.stats.registrations += 1
        self._cache.note_membership_change()
        if self.changes is not None:
            self._peer_changed(path.peer_id)

    def _live_trees(self) -> Dict[LandmarkId, PathTree]:
        return self._trees

    def _compute_neighbors(self, peer_id: PeerId, k: Optional[int] = None) -> List[Tuple[PeerId, float]]:
        """A peer's closest peers from its tree (plus cross-landmark fill)."""
        k = k or self.neighbor_set_size
        neighbors = self.local_closest(peer_id, k)
        if len(neighbors) >= k:
            return neighbors

        # Not enough peers under this landmark: fill with cross-landmark
        # estimates if inter-landmark distances are known.  A fill reads
        # only foreign landmarks, so it never names the peer or one of its
        # local neighbours, and only as many candidates as needed are read.
        path = self._paths[peer_id]
        bases = self._fill_bases(self._trees, path.landmark_id, path.hop_count)
        for estimate, _, other_peer in self.fill_candidates(bases, k - len(neighbors)):
            neighbors.append((other_peer, estimate))
        return neighbors

    def __repr__(self) -> str:
        return (
            f"ManagementServer(peers={self.peer_count}, landmarks={len(self._trees)}, "
            f"k={self.neighbor_set_size}, cache={'on' if self.maintain_cache else 'off'})"
        )
