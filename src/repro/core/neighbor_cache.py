"""Per-peer cached neighbour lists with a reverse neighbour index.

The peer-facing half of the management plane.  The single-process server
and the sharded coordinator (:class:`~repro.core.sharded.ShardedManagementServer`)
maintain their caches with *exactly* this code, which is what makes the
sharded plane's results byte-identical to the single server's.

The cache holds, for every registered peer, a sorted list of entries
(closest first), plus the **reverse neighbour index** ``referenced_by``
(peer -> the peers whose cached list contains it, a ``list`` never left
empty that names each once): a departure repairs only the lists that
reference the departed peer, and an arrival reads off the same few
referrers whether a list already names the newcomer.  A target has ~4.6
referrers at 12,800 peers and k = 5, where a ``set`` of five costs 728
bytes: lists save ~6 MB.  Dropping an edge is a ``list.remove``, O(r)
pointer compares for ``r`` referrers — the order
:meth:`~NeighborCache.drop_peer` already pays, O(r·k) — and dropping an
absent edge does nothing.  A target's referrers are held in the order they
first listed it (a re-store that keeps the target keeps the edge where it
is), and that order is bookkeeping: the planes' ``_referenced_by`` hands
out sets.  Cached distances (three values
among 64,000 at 12,800 peers) are the shared floats of
:data:`SHARED_DISTANCES`, not one object each.

Entries are plain tuples ordered as they sort — ``(distance, sort_text,
peer_id)``, ``sort_text`` being the plane's interned ``repr(peer_id)``
(:mod:`repro.core.interning`) — so an ordered insert bisects the entries for
``(distance, sort_text)``: in C, no key function, no ``repr``, no peer compared.
No list names a peer twice and none names its owner.  A
:meth:`~NeighborCache.store` of a list equal to the cached one (the usual
outcome of a cold query's refill) leaves the list object, the reverse index
and the change record untouched; only a completeness mark that moved is
written, and only then does the owner count as changed.  A store of a
different list (a refill of an eroded list usually adds one peer) rewrites
only what differs: a peer in both lists keeps its entry tuple (or, if its
distance moved, gets a new tuple with the same sort text) and its reverse
edge; only a peer new to the list is interned and gains an edge, and only
a peer that left loses one.  A departure deletes its entry from each
referring list in place, one C-level search per list.

Completeness tracking
---------------------
A cached list shorter than ``k`` can mean two different things: the compute
that produced it *exhausted every reachable candidate* (few peers under the
landmark, no usable cross-landmark distances), or the list has merely been
*eroded* by departures.  The first kind is a perfectly valid answer — it
should keep hitting the cache until a membership change could add a new
candidate.  ``store(..., complete=True)`` marks a list as exhaustive,
stamped with the plane's **membership generation** (bumped by the plane on
every registration and landmark-distance change); :meth:`is_complete` only
honours marks from the current generation, so a short-but-complete list is
O(1) to query in the steady state and recomputed exactly once after each
arrival.  Departures do not bump the generation: the reverse-index repair
removes the departed peer from every list that referenced it, and a
complete list minus a departed member is still the complete answer.

Change tracking
---------------
While :attr:`NeighborCache.dirty` is a set, every owner whose list (or
completeness mark) changes — :meth:`~NeighborCache.store`, the referrers
repaired by :meth:`~NeighborCache.drop_peer`, the lists
:meth:`~NeighborCache.propagate_newcomer` inserts into — is added to it, so
a snapshot publisher re-freezes only those lists.  It is ``None`` (one
``is None`` test per call) unless the owning plane is recording changes.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import indexOf, itemgetter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .._validation import require_positive_int
from .interning import PeerKeyInterner
from .path import PeerId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .management_plane import ServerStats


class _SharedDistances(dict):
    """``table[d]``: the one float of an integral ``d`` in 0–255 (module
    doc), else a fresh ``float(d)``.  Index queries (the live plane's and
    a snapshot's) and a remote shard's replies
    (:class:`~repro.core.socket_backend.SocketShardBackend`) read every
    distance through it."""

    def __missing__(self, distance: float) -> float:
        return float(distance)


SHARED_DISTANCES: Dict[int, float] = _SharedDistances((hops, float(hops)) for hops in range(256))

#: ``PAIR(entry)`` is a cached entry's ``(peer_id, distance)`` pair, the shape
#: the planes answer with: ``list(map(PAIR, entries))`` copies a list in C.
PAIR = itemgetter(2, 0)
_PEER = itemgetter(2)


class NeighborEntry(NamedTuple):
    """The shape of a cached entry, fields in sort order.  The lists hold *exact*
    tuples (CPython compares, unpacks and indexes those on fast paths a
    subclass instance misses, and they are 16 bytes smaller);
    :meth:`NeighborCache.get` wraps them for reading by name."""

    distance: float
    sort_text: str
    peer_id: PeerId


class NeighborCache:
    """Cached neighbour lists plus the reverse index, kept exactly in sync.

    Parameters
    ----------
    neighbor_set_size:
        Maximum entries per cached list (``k``).
    stats:
        The owning server's :class:`~repro.core.management_plane.ServerStats`;
        the cache increments ``cache_updates`` and ``departure_updates`` on it
        so counter-based complexity tests keep working regardless of which
        plane (single or sharded) owns the cache.
    interner:
        The owning plane's :class:`~repro.core.interning.PeerKeyInterner`
        (a private one is created if not given), used to stamp entries with
        precomputed sort texts.
    """

    def __init__(
        self,
        neighbor_set_size: int,
        stats: "ServerStats",
        interner: Optional[PeerKeyInterner] = None,
    ) -> None:
        self.neighbor_set_size = require_positive_int(neighbor_set_size, "neighbor_set_size")
        self.stats = stats
        self.interner = interner if interner is not None else PeerKeyInterner()
        self.lists: Dict[PeerId, List[Tuple[float, str, PeerId]]] = {}
        self.referenced_by: Dict[PeerId, List[PeerId]] = {}
        #: Bumped by the plane on every event that could add a reachable
        #: candidate; completeness marks hold for the generation they carry.
        self.membership_generation: int = 0
        self._complete: Dict[PeerId, int] = {}
        #: Owners whose list changed since the owning plane last drained its
        #: change record, or ``None`` while nothing records.
        self.dirty: Optional[Set[PeerId]] = None

    # ---------------------------------------------------------------- reading

    def get(self, peer_id: PeerId) -> Optional[List[NeighborEntry]]:
        """A copy of the peer's list readable by field name (diagnostics, tests),
        or None if it has none; the planes read :attr:`lists` itself."""
        entries = self.lists.get(peer_id)
        return None if entries is None else [NeighborEntry(*entry) for entry in entries]

    def is_complete(self, peer_id: PeerId) -> bool:
        """True if the peer's cached list is exhaustive *and* still current.

        Exhaustive means the compute that stored it returned every reachable
        candidate (fewer than ``k``); current means no membership change has
        happened since (see the module docstring).
        """
        return self._complete.get(peer_id) == self.membership_generation

    def completeness_stamp(self, peer_id: PeerId) -> Optional[int]:
        """The generation the peer's list was marked complete under, or None
        (snapshots freeze it and compare with their own frozen generation)."""
        return self._complete.get(peer_id)

    # --------------------------------------------------------------- mutating

    def note_membership_change(self) -> None:
        """Invalidate completeness marks: a new candidate may now exist.

        Called by the owning plane on every registration and on every
        landmark-distance update — both can extend the reachable candidate
        set of an exhaustive short list.  O(1): stale marks are dropped
        lazily when consulted.
        """
        self.membership_generation += 1

    def store(
        self, peer_id: PeerId, pairs: Sequence[Tuple[PeerId, float]], complete: bool = False
    ) -> None:
        """Replace a peer's cached list, keeping the reverse index in sync.

        ``complete=True`` marks the list as exhaustive for the current
        membership generation (the compute it came from returned every
        reachable candidate).  An equal list is not rewritten, and a changed
        one only where it differs (module doc).
        """
        old_entries = self.lists.get(peer_id)
        relist = old_entries is None or list(pairs) != list(map(PAIR, old_entries))
        stamp = self.membership_generation if complete else None
        if not relist and stamp == self._complete.get(peer_id):
            return
        if self.dirty is not None:
            self.dirty.add(peer_id)
        if complete:
            self._complete[peer_id] = stamp
        else:
            self._complete.pop(peer_id, None)
        if relist:
            # peer -> its old entry; what is left once the new pairs are read
            # is the peers that left the list (a fresh list pops nothing).
            kept = dict(zip(map(_PEER, old_entries), old_entries)) if old_entries else {}
            key = self.interner.key
            referenced_by = self.referenced_by
            entries = self.lists[peer_id] = []
            for peer, distance in pairs:
                entry = kept.pop(peer, None) if kept else None
                if entry is None:
                    entries.append((distance, key(peer), peer))
                    referrers = referenced_by.get(peer)
                    if referrers is None:
                        referenced_by[peer] = [peer_id]
                    else:
                        referrers.append(peer_id)
                elif entry[0] == distance:
                    entries.append(entry)
                else:
                    entries.append((distance, entry[1], peer))
            for peer in kept:
                self._reverse_discard(peer, peer_id)

    def drop_peer(self, peer_id: PeerId) -> None:
        """Remove a departing peer's list and repair the lists referencing it.

        The reverse index pinpoints the (at most ``r``) lists that reference
        the departed peer, so the cost is O(r·k), not O(n).  Each repaired
        list bumps ``stats.departure_updates``.  Repaired lists keep their
        completeness marks: removing a departed member from an exhaustive
        list leaves the (smaller) exhaustive answer.
        """
        own_entries = self.lists.pop(peer_id, None)
        self._complete.pop(peer_id, None)
        for entry in own_entries or ():
            self._reverse_discard(entry[2], peer_id)
        referrers = self.referenced_by.pop(peer_id, ())
        if self.dirty is not None:
            self.dirty.update(referrers)
        lists = self.lists
        for referrer in referrers:
            entries = lists.get(referrer)
            if entries is None:
                continue
            del entries[indexOf(map(_PEER, entries), peer_id)]
            self.stats.departure_updates += 1

    def propagate_newcomer(
        self, newcomer: PeerId, newcomer_neighbors: Sequence[Tuple[PeerId, float]]
    ) -> None:
        """Insert the newcomer into nearby peers' cached lists (ordered insert).

        Only the peers in the newcomer's own neighbour list can gain it as a
        better neighbour, so the cost is bounded by ``neighbor_set_size``
        ordered-list insertions — the paper's O(log n) "ordered list" cost:
        one bisect of the entry tuples, ahead of ties, one ``pop`` when the
        list was full.  Whether a list already names the newcomer is read off
        the reverse index.
        """
        newcomer_text = self.interner.key(newcomer)
        # Reverse-index lists are never left empty, so a falsy one is a new one.
        listed_in = self.referenced_by.get(newcomer) or []
        lists, limit, dirty = self.lists, self.neighbor_set_size, self.dirty
        for peer, distance in newcomer_neighbors:
            entries = lists.get(peer)
            if entries is None or peer in listed_in:
                continue
            if len(entries) >= limit:
                if distance >= entries[-1][0]:
                    continue
                self._reverse_discard(entries.pop()[2], peer)
            index = bisect_left(entries, (distance, newcomer_text))
            entries.insert(index, (distance, newcomer_text, newcomer))
            listed_in.append(peer)
            self.stats.cache_updates += 1
            if dirty is not None:
                dirty.add(peer)
        if listed_in:
            self.referenced_by[newcomer] = listed_in

    # -------------------------------------------------------------- internals

    def _reverse_discard(self, target: PeerId, referrer: PeerId) -> None:
        """Remove one ``referrer -> target`` edge from the reverse index."""
        refs = self.referenced_by.get(target)
        if refs is None:
            return
        try:
            refs.remove(referrer)
        except ValueError:
            return  # an absent edge: nothing to remove
        if not refs:
            del self.referenced_by[target]

    def __repr__(self) -> str:
        return f"NeighborCache(lists={len(self.lists)}, k={self.neighbor_set_size})"
