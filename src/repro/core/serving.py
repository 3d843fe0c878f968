"""The serving plane: immutable discovery snapshots, published by epoch.

This module freezes one epoch of a live management plane into a
:class:`DiscoverySnapshot` — one frozen index row per trie node (the root's
is the landmark's min-hop ordering) and, per peer, its path, attachment
node, cached neighbour list and completeness stamp — that any number of
reader threads or forked processes query with **zero locks**, while the
write plane keeps mutating and periodically publishes the next epoch.

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
(:func:`~repro.core.path_tree.closest_from`, over frozen copies of the
same node columns), and fills short lists with the same merge of the same
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

* **Keys that survive churn.**  Trie rows are indexed by the live
  :class:`~repro.core.path_tree.PathTree`'s stable node ids (root ``0``,
  freed ids are holes until reused) and per-peer state is keyed by the peer
  itself.  A leave therefore renumbers nothing.
* **A change record filled where changes happen.**  While a publisher is
  attached (:meth:`~repro.core.management_plane.ManagementPlaneBase.
  track_changes`), the tries record the node ids on every touched root
  path, the neighbour cache the owners whose lists changed, and the plane
  the peers that joined or left.

:meth:`DiscoverySnapshot.build` is the one build routine.  It copies one
dict, the previous epoch's per-peer dict, with ``d.copy()`` — C speed; once
``d`` has had a deletion ``dict(d)`` re-inserts item by item while
``d.copy()`` still clones the table — then re-reads each recorded peer
whole (a leaver is dropped) and each recorded trie row; a re-read row is
``tuple(live row)``, a pointer copy that shares the live entries.
Untouched rows, and whole tries no change touched, are *shared* between
consecutive epochs.  The per-peer dict keeps the registration order without
a second copy: every peer that joined, left or re-registered is popped, and
the ones still live are the plane's last keys, re-inserted in its order.
A full build is the same routine with no previous epoch, where everything
counts as changed; that is also what happens whenever the record cannot
vouch for the gap — a new landmark or landmark distance, a remote shard (its ``tree()`` is a fresh export), a record that outgrew
the live population, or a second publisher having taken the record over.
Completeness marks are frozen as the generation *stamp* they were stored
under and compared with the snapshot's own ``membership_generation`` at
read time, so a registration (which invalidates every mark at once) costs
the snapshot one integer, not a pass over every peer.

The writer refills what its epoch eroded
----------------------------------------
The live plane repairs a list a departure shortened lazily, on its owner's
next query; a snapshot cannot store that refill, so every read of the list
would walk the frozen trie again, every epoch.  Before it freezes a patch,
:meth:`SnapshotPublisher.publish` therefore reads each live peer its record
names through the plane's own ``closest_peers``: an eroded list refills
exactly as a reader's live query would, once per list and epoch, and the
store marks it in the same record.  A whole build refills nothing.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Collection, Dict, Iterable, List, Optional, Tuple, Union

from ..exceptions import UnknownPeerError
from .management_plane import NEGATIVE_K, ChangeRecord, ManagementPlaneBase
from .neighbor_cache import PAIR
from .path import LandmarkId, NodeId, PeerId, RouterPath
from .path_tree import PathTree, closest_from, fill_in_rows

__all__ = ["DiscoverySnapshot", "FlatTrie", "SnapshotPublisher", "SnapshotReader"]

#: A snapshot's per-peer state: attachment node id, cached ``(peer, distance)``
#: pairs, completeness stamp and registered path.
PeerState = Tuple[int, Tuple[Tuple[PeerId, float], ...], Optional[int], RouterPath]


class FlatTrie:
    """One landmark's path trie, frozen: the live tree's node columns as tuples.

    ``routers``, ``parent`` and ``rows`` are :class:`~repro.core.path_tree.
    PathTree`'s columns of the same names (see "Stable node ids" in
    :mod:`repro.core.path_tree`): the root is node ``0`` and a freed id is a
    hole (``None``, ``-1``, an empty row) that nothing reaches.  ``rows[n]``
    is ``tuple(row)`` of the live row — a pointer copy; the entries are the
    live tree's own immutable tuples — and ``rows[0]`` is therefore the
    landmark's min-hop ordering.  Queries run
    :func:`~repro.core.path_tree.closest_from`, the live tree's walk, over
    the frozen columns, so snapshot and live answers agree by construction.

    Built from scratch (``tuple`` of each column), or — given the
    ``previous`` epoch's trie of the same tree and the ``dirty`` node ids
    recorded since — as ``previous``'s rows with only those ids re-read; the
    untouched row tuples are shared.
    """

    __slots__ = ("landmark_id", "routers", "parent", "rows")

    def __init__(
        self,
        landmark_id: LandmarkId,
        tree: PathTree,
        previous: Optional["FlatTrie"] = None,
        dirty: Optional[Iterable[int]] = None,
    ):
        self.landmark_id = landmark_id
        self.routers = tuple(tree.routers)
        self.parent = tuple(tree.parent)
        live = tree.rows
        if previous is None or dirty is None:
            self.rows = tuple(map(tuple, live))
            return
        rows = list(previous.rows)
        rows += [()] * (len(live) - len(rows))  # ids new since: all dirty
        for node in dirty:
            rows[node] = tuple(live[node])
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
    ) -> List[Tuple[PeerId, float]]:
        """Up to ``k`` closest peers seen from a node: shared-float ``(peer, dtree)`` pairs.

        :func:`~repro.core.path_tree.closest_from` over the frozen columns,
        the walk :meth:`PathTree.closest_from_node` runs over the live ones.
        """
        return closest_from(self.parent, self.rows, origin, k, excluded)[0]


class DiscoverySnapshot:
    """One immutable, generation-stamped epoch of a management plane.

    Built by :meth:`build` from a live
    :class:`~repro.core.management_server.ManagementServer` or
    :class:`~repro.core.sharded.ShardedManagementServer` (any backend — a
    remote shard's tries are rebuilt on the coordinator side from its tree
    exports).  All state is plain tuples/dicts: per-peer state is keyed by
    the peer, per-node rows are indexed by the live trie's node id (see the
    module docstring), so the whole object is cheaply forkable/picklable for
    process readers and safely shared between threads.

    It serves the one read the system serves, :meth:`closest_peers`, byte
    for byte like the live plane; :meth:`peers` lists who is registered.
    """

    __slots__ = (
        "generation",
        "neighbor_set_size",
        "maintain_cache",
        "_membership_generation",
        "_peers",
        "_tries",
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
        plane since it was built, the new epoch is ``previous``'s per-peer
        dict and tries with only the recorded peers, owners and trie rows
        re-read from the plane.  Without either, every peer and row counts as
        changed — the same statements, run over everything.  The caller
        vouches that ``changes`` covers the whole gap
        (:class:`SnapshotPublisher` does).

        Building only reads the plane; for a *remote* shard backend that
        means pulling each landmark's tree export over the wire (the
        ``tree`` round trip diagnostics use).
        """
        live = plane._paths
        cache = plane._cache
        if previous is None or changes is None:
            peers: Dict[PeerId, PeerState] = {}  # in registration order
            joined: Iterable[PeerId] = live
            owners: Iterable[PeerId] = ()
            changed_nodes: Dict[LandmarkId, Iterable[int]] = {}
            old_tries: Dict[LandmarkId, FlatTrie] = {}
        else:
            # A peer that joined, left or re-registered is popped.  The ones
            # still live registered last, so they are the plane's last keys,
            # in its order.  Any other owner whose list changed is live (the
            # record's invariant) and keeps its place.
            peers = previous._peers.copy()
            moved = changes.peers
            for peer in moved:
                peers.pop(peer, None)
            joined = reversed(list(islice(reversed(live), sum(peer in live for peer in moved))))
            owners = changes.owners.difference(moved)
            changed_nodes = changes.nodes
            old_tries = previous._tries

        trees = {landmark: plane.tree(landmark) for landmark in plane.landmarks()}

        # Each named live peer read whole: attachment node, cached pairs,
        # completeness stamp and path.
        lists, stamp = cache.lists, cache.completeness_stamp
        for peer in chain(joined, owners):
            path = live[peer]
            peers[peer] = (
                trees[path.landmark_id].attachment_node(peer),
                tuple(map(PAIR, lists.get(peer, ()))),
                stamp(peer),
                path,
            )

        tries: Dict[LandmarkId, FlatTrie] = {}
        for landmark, tree in trees.items():
            old = old_tries.get(landmark)
            if old is not None and not changed_nodes[landmark]:
                # No join or leave under this landmark: share the whole trie.
                tries[landmark] = old
            else:
                tries[landmark] = FlatTrie(landmark, tree, old, changed_nodes.get(landmark))

        snap = cls()
        snap.generation = int(generation)
        snap.neighbor_set_size = plane.neighbor_set_size
        snap.maintain_cache = plane.maintain_cache
        snap._membership_generation = cache.membership_generation
        snap._peers = peers
        snap._tries = tries
        snap._landmark_distances = dict(plane._landmark_distances)
        snap._fill_order = cls._fill_stream_order(plane, tuple(tries))
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
        as the live nested merge: both merge on ``(estimate, sort_text)``
        and ties fall back to stream position in both shapes.
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

        Node ids are whatever the plane's history made them, so peers are
        listed in registration order without their attachment node ids and
        tries by structure (:meth:`FlatTrie.structure`); a completeness
        stamp counts as the boolean it reads as.
        """
        peers, current = self._peers, self._membership_generation
        return (
            self.neighbor_set_size,
            self.maintain_cache,
            tuple(
                (peer, path, entries, stamp == current)
                for peer, (_, entries, stamp, path) in self._peers.items()
            ),
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
        return list(self._peers)

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
        state = self._peers.get(peer_id)
        if state is None:
            raise UnknownPeerError(peer_id)
        node, entries, stamp, path = state
        k = k or self.neighbor_set_size
        if k < 0:
            raise ValueError(NEGATIVE_K.format(k))
        if self.maintain_cache and k <= self.neighbor_set_size:
            if (
                len(entries) >= min(k, len(self._peers) - 1)
                or stamp == self._membership_generation
            ):
                return list(entries[:k])
        return self._compute_neighbors(peer_id, node, path, k)

    # -------------------------------------------------------------- internals

    def _compute_neighbors(
        self, peer_id: PeerId, node: int, path: RouterPath, k: int
    ) -> List[Tuple[PeerId, float]]:
        """Frozen twin of the live ``_compute_neighbors``: query, then fill."""
        landmark = path.landmark_id
        neighbors = self._tries[landmark].closest_from_node(node, k, (peer_id,))
        if len(neighbors) >= k:
            return neighbors
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
            f"DiscoverySnapshot(generation={self.generation}, peers={len(self._peers)}, "
            f"landmarks={len(self._tries)}, k={self.neighbor_set_size})"
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
        """Freeze the plane into generation ``current + 1`` and install it.

        A patch first refills the lists its epoch eroded (module doc), so
        the one write a publish makes to the plane is a live query's.
        """
        plane = self._plane
        changes = self._changes
        if plane.changes is not changes:
            # The plane dropped our record (something it cannot describe, or
            # it outgrew the population) or another consumer took it over:
            # nothing vouches for the gap, so this epoch is built whole.
            changes = None
        elif changes is not None and plane.maintain_cache:
            # A snapshot cannot store a refill, so the writer reads each named
            # owner once, as its next live query would: a list a departure
            # eroded is refilled, and marked in this same record.
            live = plane._paths
            for owner in changes.peers.keys() | changes.owners:
                if owner in live:
                    plane.closest_peers(owner)
        self._changes = plane.track_changes()
        snapshot = DiscoverySnapshot.build(
            plane, self._snapshot.generation + 1, self._snapshot, changes
        )
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
