"""The serving plane: immutable discovery snapshots, published by epoch.

Single-threaded query cost is ~2 µs after PRs 1–7; the next order of
magnitude is concurrency.  This module freezes one epoch of a live
management plane into a :class:`DiscoverySnapshot` — one frozen index row per
trie node (the root's is the landmark's min-hop ordering), the cached
neighbour lists and the interner's ``(sort_text, compact_index)`` table —
that any number of reader threads or forked processes query with **zero
locks**, while the write plane keeps mutating and periodically publishes the
next epoch.

Why this is safe without locks
------------------------------
* A snapshot is *immutable*: nothing mutates it after construction, so
  concurrent readers share it freely (no writer ever touches it).
* Publication is *atomic*: :meth:`SnapshotPublisher.publish` builds the new
  snapshot off to the side and installs it with a single attribute
  assignment — an atomic reference store under the interpreter.  A reader
  :meth:`pins <SnapshotReader.pin>` the current snapshot once per query and
  works only on the pinned object, so every answer is computed against
  exactly one generation — never a torn mix of two epochs.  This is the
  classic read-copy-update discipline, with the interpreter's reference
  semantics standing in for the memory barrier.

Byte-identical answers
----------------------
A snapshot serves one read, the one the system serves: ``closest_peers``.
It replays the live read path, not an approximation of it:
:meth:`DiscoverySnapshot.closest_peers` implements the exact cache-serve
condition of :meth:`~repro.core.management_plane.ManagementPlaneBase.
closest_peers`, falls back to the very routine the live trie answers with
(:func:`~repro.core.path_tree.closest_in_rows`, over frozen copies of the
same sorted rows), and fills short lists with the same merge of the same
shifted min-hop orderings (:func:`~repro.core.path_tree.fill_in_rows`), in
the stream order the source plane would use —
including the per-shard grouping of the sharded coordinator, whose snapshot
is composed from the per-shard trees.  ``tests/core/test_serving.py`` holds the oracle pinning
snapshot answers byte-identical to the live plane at the same epoch.

Epoch N+1 is a patch of epoch N
-------------------------------
The paper's point is that an arrival touches only nearby peers; publishing
it must not cost O(population) either.  Two things make a publish
proportional to what changed:

* **Ids that survive churn.**  Trie rows are indexed by the live
  :class:`~repro.core.path_tree.PathTree`'s stable node ids (root ``0``,
  freed ids are holes until reused) and per-peer state by a **slot** the
  peer keeps for as long as it stays registered (a departure frees the slot
  for the next arrival; holes are allowed).  A leave therefore renumbers
  nothing.
* **A change record filled where changes happen.**  While a publisher is
  attached (:meth:`~repro.core.management_plane.ManagementPlaneBase.
  track_changes`), the tries record the node ids on every touched root
  path, the neighbour cache the owners whose lists changed, and the plane
  the peers that joined or left.

:meth:`DiscoverySnapshot.build` is the one build routine: it copies the
previous epoch's arrays (``list(t)`` … ``tuple(l)``, ``d.copy()`` — C
speed; once ``d`` has had a deletion ``dict(d)`` re-inserts item by item
while ``d.copy()`` still clones the table), re-reads only the recorded
rows, slots and lists from the live plane; a re-read row is ``tuple(live
row)``, a pointer copy that shares the live entries.  Untouched rows are
*shared* between consecutive epochs.
A full build is the same routine with no previous epoch, where everything
counts as changed; that is also what happens whenever the record cannot
vouch for the gap — ``restore_state``, a new landmark or landmark distance,
a remote shard (its ``tree()`` is a fresh export), a record that outgrew
the live population, or a second publisher having taken the record over.
Completeness marks are frozen as the generation *stamp* they were stored
under and compared with the snapshot's own ``membership_generation`` at
read time, so a registration (which invalidates every mark at once) costs
the snapshot one integer, not a pass over every slot.
"""

from __future__ import annotations

import time
from typing import Collection, Dict, Iterable, List, Optional, Tuple, Union

from ..exceptions import UnknownPeerError
from .management_plane import NEGATIVE_K, ChangeRecord, ManagementPlaneBase
from .neighbor_cache import SHARED_DISTANCES
from .path import LandmarkId, NodeId, PeerId, RouterPath
from .path_tree import PathTree, closest_in_rows, fill_in_rows

__all__ = ["DiscoverySnapshot", "FlatTrie", "SnapshotPublisher", "SnapshotReader"]


class FlatTrie:
    """One landmark's path trie, frozen into one row per node id.

    Entry ``n`` of every column describes the live tree's node ``n`` (see
    "Stable node ids" in :mod:`repro.core.path_tree`): the root is node ``0``
    and a freed id is an unreachable hole.  ``rows[n]`` is the node's sorted
    ``(hop_count, sort_text, peer)`` index as a tuple — a pointer copy; the
    entries are the live tree's own immutable tuples — and ``rows[0]`` is
    therefore the landmark's min-hop ordering.  Queries run
    :func:`~repro.core.path_tree.closest_in_rows`, the live tree's routine,
    over the frozen rows, so snapshot and live answers agree by construction.

    Built from scratch, or — given the ``previous`` epoch's trie of the same
    tree and the ``dirty`` node ids recorded since — as a copy of it with
    only those nodes re-read; the untouched row tuples are shared.
    """

    __slots__ = ("landmark_id", "routers", "parent", "depth", "rows")

    def __init__(
        self,
        landmark_id: LandmarkId,
        tree: PathTree,
        previous: Optional["FlatTrie"] = None,
        dirty: Optional[Iterable[int]] = None,
    ):
        self.landmark_id = landmark_id
        nodes = tree.node_table()
        if previous is None or dirty is None:
            routers, parent, depth, rows = ([None] * len(nodes) for _ in range(4))
            dirty = range(len(nodes))
        else:
            grown = [None] * (len(nodes) - len(previous.routers))
            routers, parent, depth, rows = (
                [*column, *grown]
                for column in (previous.routers, previous.parent, previous.depth, previous.rows)
            )
        for index in dirty:
            node = nodes[index]
            if node is None:  # a freed id: nothing reaches this node
                routers[index] = None
                parent[index] = -1
                depth[index] = 0
                rows[index] = ()
                continue
            routers[index] = node.router
            parent[index] = node.parent.index if node.parent is not None else -1
            depth[index] = node.depth
            rows[index] = tuple(node.row)
        self.routers = tuple(routers)
        self.parent = tuple(parent)
        self.depth = tuple(depth)
        self.rows = tuple(rows)

    def structure(self) -> Dict[Tuple[NodeId, ...], Tuple[object, ...]]:
        """The trie without its numbering: each node's row by its router path.

        A node is named by the routers from it up to the root, so two tries
        of identical trees compare equal whatever ids their histories left.
        """
        routers, parent = self.routers, self.parent
        named = {}
        for node, row in enumerate(self.rows):
            if row or node == 0:  # a live node below the root holds a peer
                path = []
                current = node
                while current >= 0:
                    path.append(routers[current])
                    current = parent[current]
                named[tuple(path)] = row
        return named

    def closest_from_node(
        self, origin: int, k: int, excluded: Collection[PeerId]
    ) -> List[Tuple[PeerId, int]]:
        """Up to ``k`` closest peers as seen from a node, as ``(peer, dtree)``.

        :meth:`PathTree.closest_from_node` over the frozen columns.
        """
        parent, rows = self.parent, self.rows
        chain = []
        node = origin
        while node >= 0:
            chain.append(rows[node])
            node = parent[node]
        return closest_in_rows(chain, self.depth[origin] + 1, k, excluded)[0]


class DiscoverySnapshot:
    """One immutable, generation-stamped epoch of a management plane.

    Built by :meth:`build` from a live
    :class:`~repro.core.management_server.ManagementServer` or
    :class:`~repro.core.sharded.ShardedManagementServer` (any backend — a
    remote shard's tries are rebuilt on the coordinator side from its tree
    exports).  All state is plain tuples/dicts; per-peer arrays are indexed
    by the peer's **slot**, per-node arrays by the live trie's node id (see
    the module docstring), so the whole object is cheaply forkable/picklable
    for process readers and safely shared between threads.

    It serves the one read the system serves, :meth:`closest_peers`, byte
    for byte like the live plane; :meth:`peers` lists who is registered.
    """

    __slots__ = (
        "generation",
        "neighbor_set_size",
        "maintain_cache",
        "interner_table",
        "next_compact_index",
        "_membership_generation",
        "_registration_order",
        "_paths",
        "_slot_of",
        "_free_slots",
        "_attach_node",
        "_cache_lists",
        "_cache_stamps",
        "_tries",
        "_landmark_order",
        "_landmark_distances",
        "_fill_order",
    )

    def __init__(self) -> None:  # populated by build()
        self.generation = 0

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        plane: ManagementPlaneBase,
        generation: int = 0,
        previous: Optional["DiscoverySnapshot"] = None,
        changes: Optional[ChangeRecord] = None,
    ) -> "DiscoverySnapshot":
        """Freeze the plane's current state into a snapshot.

        Given the ``previous`` epoch and the ``changes`` recorded on the
        plane since it was built, the new epoch is ``previous``'s arrays with
        only the recorded slots, lists and trie rows re-read from the plane.
        Without either, every peer, list and row counts as changed — the
        same statements, run over everything.  The caller vouches that
        ``changes`` covers the whole gap (:class:`SnapshotPublisher` does).

        Building reads the plane and otherwise leaves it alone, except that
        it interns registered peers the plane never interned (a cache-less
        coordinator) and — for a *remote* shard backend — pulls each
        landmark's tree export over the wire (the ``tree`` round trip
        diagnostics use).
        """
        live = plane._paths
        interner = plane._interner
        cache = plane._cache
        if previous is None or changes is None:
            slot_of: Dict[PeerId, int] = {}
            free: List[int] = []
            columns: Tuple[List, ...] = ([], [], [])
            changed_peers: Iterable[PeerId] = live
            changed_owners: Iterable[PeerId] = cache.lists
            changed_nodes: Dict[LandmarkId, Iterable[int]] = {}
            old_tries: Dict[LandmarkId, FlatTrie] = {}
        else:
            slot_of = previous._slot_of.copy()
            free = list(previous._free_slots)
            columns = (
                list(previous._attach_node),
                list(previous._cache_lists),
                list(previous._cache_stamps),
            )
            changed_peers = changes.peers
            changed_owners = changes.owners
            changed_nodes = changes.nodes
            old_tries = previous._tries
        attach_node, cache_lists, cache_stamps = columns

        landmark_order = tuple(plane.landmarks())
        trees = {landmark: plane.tree(landmark) for landmark in landmark_order}

        # Departures first, so that this epoch's arrivals reuse their slots.
        for peer in changed_peers:
            if peer not in live and peer in slot_of:
                slot = slot_of.pop(peer)
                free.append(slot)
                for column in columns:
                    column[slot] = None
        for peer in changed_peers:
            if peer not in live:
                continue
            slot = slot_of.get(peer)
            if slot is None:
                if free:
                    slot = free.pop()
                else:
                    slot = len(attach_node)
                    for column in columns:
                        column.append(None)
                slot_of[peer] = slot
            interner.key(peer)  # a cache-less coordinator never interned it
            attach_node[slot] = trees[live[peer].landmark_id].attachment_node(peer).index
            cache_lists[slot] = ()
            cache_stamps[slot] = None
        for owner in changed_owners:
            slot = slot_of.get(owner)
            if slot is not None:
                cache_lists[slot] = tuple(
                    [(peer, distance) for distance, _, peer in cache.lists.get(owner, ())]
                )
                cache_stamps[slot] = cache.completeness_stamp(owner)

        tries: Dict[LandmarkId, FlatTrie] = {}
        for landmark in landmark_order:
            old = old_tries.get(landmark)
            if old is not None and not changed_nodes[landmark]:
                # No join or leave under this landmark: share the whole trie.
                tries[landmark] = old
            else:
                tries[landmark] = FlatTrie(
                    landmark, trees[landmark], old, changed_nodes.get(landmark)
                )

        snap = cls()
        snap.generation = int(generation)
        snap.neighbor_set_size = plane.neighbor_set_size
        snap.maintain_cache = plane.maintain_cache
        snap.interner_table = interner.table()
        snap.next_compact_index = interner.next_index
        snap._membership_generation = cache.membership_generation
        snap._registration_order = tuple(live)
        snap._paths = plane._paths.copy()
        snap._slot_of = slot_of
        snap._free_slots = tuple(free)
        snap._attach_node = tuple(attach_node)
        snap._cache_lists = tuple(cache_lists)
        snap._cache_stamps = tuple(cache_stamps)
        snap._tries = tries
        snap._landmark_order = landmark_order
        snap._landmark_distances = dict(plane._landmark_distances)
        snap._fill_order = cls._fill_stream_order(plane, landmark_order)
        return snap

    @staticmethod
    def _fill_stream_order(
        plane: ManagementPlaneBase, landmark_order: Tuple[LandmarkId, ...]
    ) -> Tuple[LandmarkId, ...]:
        """The landmark order of the plane's cross-landmark fill streams.

        The single server merges one stream per landmark in registration
        order; the sharded coordinator merges per-shard lists (shard index
        order), each the merge of that shard's landmarks in registration
        order.  A single flat merge over the concatenated grouping
        (:func:`~repro.core.path_tree.fill_in_rows`) yields the same sequence
        as the live nested merge: ties between equal candidate tuples fall
        back to stream position in both shapes.
        """
        shard_landmarks = getattr(plane, "_shard_landmarks", None)
        if shard_landmarks is not None:
            return tuple(
                landmark for per_shard in shard_landmarks for landmark in per_shard
            )
        return landmark_order

    # ------------------------------------------------------------- equality

    def _content(self) -> Tuple[object, ...]:
        """The frozen state in a form that does not depend on numbering.

        Slots and node ids are whatever the plane's history made them, so
        peers are listed by compact index and tries by structure
        (:meth:`FlatTrie.structure`); a completeness stamp counts as the
        boolean it reads as.
        """
        table, slot_of = self.interner_table, self._slot_of
        lists, stamps = self._cache_lists, self._cache_stamps
        current = self._membership_generation
        return (
            self.neighbor_set_size,
            self.maintain_cache,
            self._registration_order,
            tuple(
                (
                    peer,
                    table[peer],
                    self._paths[peer],
                    lists[slot_of[peer]],
                    stamps[slot_of[peer]] == current,
                )
                for peer in sorted(slot_of, key=lambda peer: table[peer][1])
            ),
            self._landmark_order,
            tuple(sorted(self._landmark_distances.items(), key=repr)),
            self._fill_order,
            tuple((landmark, trie.structure()) for landmark, trie in self._tries.items()),
        )

    def __eq__(self, other: object) -> bool:
        """Content equality, *ignoring* the generation stamp and numbering.

        Two snapshots of identical plane state compare equal even when
        published at different epochs or reached through different
        histories (a patched epoch and a fresh build of the same plane) —
        which is what lets a publisher, or a test, detect no-op epochs.
        """
        if not isinstance(other, DiscoverySnapshot):
            return NotImplemented
        return self._content() == other._content()

    # Content equality with no content hash: nothing hashes a snapshot.
    __hash__ = None  # type: ignore[assignment]

    # --------------------------------------------------------------- queries

    def peers(self) -> List[PeerId]:
        """Peer identifiers in registration order (like the live plane)."""
        return list(self._registration_order)

    def closest_peers(
        self, peer_id: PeerId, k: Optional[int] = None
    ) -> List[Tuple[PeerId, float]]:
        """Up to ``k`` closest peers, byte-identical to the live plane's answer.

        Replays the live read path against frozen state: the cached list is
        served under exactly the live cache-hit condition (enough entries
        for ``k`` or for the whole population, or a completeness mark
        stamped with this epoch's membership generation), anything else
        falls back to the trie's index query plus the cross-landmark fill
        merge.
        """
        slot = self._slot_of.get(peer_id)
        if slot is None:
            raise UnknownPeerError(peer_id)
        k = k or self.neighbor_set_size
        if k < 0:
            raise ValueError(NEGATIVE_K.format(k))
        if self.maintain_cache and k <= self.neighbor_set_size:
            entries = self._cache_lists[slot]
            if (
                len(entries) >= min(k, len(self._slot_of) - 1)
                or self._cache_stamps[slot] == self._membership_generation
            ):
                return list(entries[:k])
        return self._compute_neighbors(peer_id, slot, k)

    # -------------------------------------------------------------- internals

    def _compute_neighbors(self, peer_id: PeerId, slot: int, k: int) -> List[Tuple[PeerId, float]]:
        """Frozen twin of the live ``_compute_neighbors``: query, then fill."""
        path = self._paths[peer_id]
        landmark = path.landmark_id
        candidates = self._tries[landmark].closest_from_node(
            self._attach_node[slot], k, (peer_id,)
        )
        neighbors = [(other, SHARED_DISTANCES[distance]) for other, distance in candidates]
        if len(neighbors) >= k:
            return neighbors[:k]
        # The plane's cross-landmark fill over frozen orderings.
        orderings = []
        for other in self._fill_order:
            between = self._landmark_distances.get((landmark, other))
            if other != landmark and between is not None:
                orderings.append((self._tries[other].rows[0], float(path.hop_count + between)))
        for estimate, _, other_peer in fill_in_rows(orderings, k - len(neighbors)):
            neighbors.append((other_peer, estimate))
        return neighbors

    def __repr__(self) -> str:
        return (
            f"DiscoverySnapshot(generation={self.generation}, peers={len(self._slot_of)}, "
            f"landmarks={len(self._landmark_order)}, k={self.neighbor_set_size})"
        )


class SnapshotPublisher:
    """The write plane's side of the serving plane: write, build, publish.

    Wraps a live management plane and attaches a change record to it
    (:meth:`~repro.core.management_plane.ManagementPlaneBase.track_changes`),
    so :meth:`publish` freezes the next-generation
    :class:`DiscoverySnapshot` as a patch of the current one — cost
    proportional to what the mutations since the last publish touched, not
    to the population — and installs it with one atomic reference store.
    The record is filled by the plane itself, so a write made directly on
    :attr:`plane` is published exactly like one made through
    :meth:`register_peer` / :meth:`unregister_peer`.

    Thread model: one writer drives the publisher; any number of
    :class:`SnapshotReader` instances read :attr:`snapshot` concurrently,
    lock-free.  The live plane itself is **not** thread-safe — readers must
    go through snapshots, never through the plane.
    """

    def __init__(self, plane: ManagementPlaneBase):
        self._plane = plane
        #: Wall-clock seconds the most recent publish spent building.
        self.last_publish_seconds = 0.0
        self._changes = plane.track_changes()
        self._snapshot = DiscoverySnapshot.build(plane, generation=1)

    @property
    def plane(self) -> ManagementPlaneBase:
        """The wrapped live plane (writer-side use only)."""
        return self._plane

    @property
    def snapshot(self) -> DiscoverySnapshot:
        """The currently published snapshot (atomic read, safe from any thread)."""
        return self._snapshot

    def publish(self) -> DiscoverySnapshot:
        """Freeze the plane into generation ``current + 1`` and install it."""
        started = time.perf_counter()
        plane = self._plane
        changes = self._changes
        if plane.changes is not changes:
            # The plane dropped our record (something it cannot describe, or
            # it outgrew the population) or another consumer took it over:
            # nothing vouches for the gap, so this epoch is built whole.
            changes = None
        self._changes = plane.track_changes()
        snapshot = DiscoverySnapshot.build(
            plane, self._snapshot.generation + 1, self._snapshot, changes
        )
        self.last_publish_seconds = time.perf_counter() - started
        self._snapshot = snapshot  # the atomic epoch flip
        return snapshot

    # ------------------------------------------------------ write delegation

    def register_peer(self, path: RouterPath) -> List[Tuple[PeerId, float]]:
        return self._plane.register_peer(path)

    def unregister_peer(self, peer_id: PeerId) -> None:
        self._plane.unregister_peer(peer_id)

    def __repr__(self) -> str:
        return f"SnapshotPublisher(generation={self._snapshot.generation})"


class SnapshotReader:
    """A lock-free query handle over published snapshots.

    Every query :meth:`pins <pin>` the publisher's current snapshot exactly
    once and computes the whole answer against that object, so a reader
    racing a publish sees **one** consistent generation per query — never a
    mix.  For multi-query consistency, call :meth:`pin` yourself and query
    the returned snapshot directly.

    Readers hold no locks and share no mutable state with the publisher, so
    any number of them can run in threads, or in forked processes handed a
    fixed :class:`DiscoverySnapshot` (the snapshot is plain picklable data).
    """

    def __init__(self, source: Union[SnapshotPublisher, DiscoverySnapshot]):
        if isinstance(source, DiscoverySnapshot):
            self._publisher: Optional[SnapshotPublisher] = None
            self._fixed: Optional[DiscoverySnapshot] = source
        else:
            self._publisher = source
            self._fixed = None

    def pin(self) -> DiscoverySnapshot:
        """The current snapshot, pinned (one atomic read)."""
        if self._publisher is not None:
            return self._publisher.snapshot
        return self._fixed  # type: ignore[return-value]

    def closest_peers(
        self, peer_id: PeerId, k: Optional[int] = None
    ) -> List[Tuple[PeerId, float]]:
        """One-generation-consistent ``closest_peers`` (see DiscoverySnapshot)."""
        return self.pin().closest_peers(peer_id, k)

    def __repr__(self) -> str:
        return f"SnapshotReader(generation={self.pin().generation})"
