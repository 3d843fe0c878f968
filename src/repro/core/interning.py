"""Interned peer sort keys shared across one management plane.

Every total ordering on the discovery hot path tie-breaks on the textual
form of the peer identifier — ``closest_peers`` result order, the cached
neighbour lists' bisect keys, the per-landmark min-hop orderings, and the
cross-landmark candidate streams all sort by ``(measure, repr(peer_id))``.
Before this module each comparison recomputed ``repr(peer_id)`` on the fly:
per candidate in the query sort, per bisect probe in
``propagate_newcomer``, per insert in the min-hop orderings.

A :class:`PeerKeyInterner` computes the key **once per peer** and hands the
same immutable ``(sort_text, compact_index)`` tuple to every consumer:

* ``sort_text`` is exactly ``repr(peer_id)`` — the orderings produced from
  interned keys are byte-identical to the historic repr-based orderings,
  which is what keeps the sharded/process equivalence oracles green;
* ``compact_index`` is a dense, monotonically increasing integer assigned
  at first sight, usable as an always-comparable final tie-break or as an
  index into array-backed bookkeeping (peers whose reprs collide still get
  distinct indexes).

One interner is owned by each management plane (single server, sharded
coordinator, shard worker) and shared by its :class:`~repro.core.path_tree.
PathTree` instances and its :class:`~repro.core.neighbor_cache.
NeighborCache`, so a peer is interned exactly once per plane, at
registration time.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from .path import PeerId

__all__ = ["PeerKeyInterner"]


class PeerKeyInterner:
    """Process-local table of precomputed peer sort keys (see module doc).

    The table is bounded by the **live** population, not by cumulative
    arrivals: planes :meth:`discard` a peer's key on departure, so an
    open-world churn workload (every join a fresh identifier) does not grow
    the table without bound.  A peer that re-registers after departing is
    simply re-interned — same sort text, a fresh compact index (indexes come
    from a monotonic counter and are never reused).
    """

    __slots__ = ("_keys", "_next_index")

    def __init__(self) -> None:
        self._keys: Dict[PeerId, Tuple[str, int]] = {}
        self._next_index = 0

    def key(self, peer_id: PeerId) -> Tuple[str, int]:
        """The peer's ``(sort_text, compact_index)``, interning on first use."""
        key = self._keys.get(peer_id)
        if key is None:
            key = (repr(peer_id), self._next_index)
            self._next_index += 1
            self._keys[peer_id] = key
        return key

    def discard(self, peer_id: PeerId) -> None:
        """Forget a departed peer's key (keeps the table ~ live population).

        Safe to call for never-interned peers.  Keys already embedded in
        live orderings (cached-list entries, min-hop tuples) stay valid —
        they hold their own reference to the sort text.
        """
        self._keys.pop(peer_id, None)

    def table(self) -> Dict[PeerId, Tuple[str, int]]:
        """A copy of the live ``peer -> (sort_text, compact_index)`` table."""
        return self._keys.copy()

    @property
    def next_index(self) -> int:
        """The compact index the next never-seen peer will get."""
        return self._next_index

    def export_state(self) -> Tuple[Tuple[Tuple[PeerId, str, int], ...], int]:
        """Plain-data ``(assignments, next_index)`` for state snapshots.

        ``assignments`` is ``(peer_id, sort_text, compact_index)`` per live
        peer, in interning order.  Restoring through :meth:`import_state`
        preserves every compact index *and* the monotonic counter, so a
        restored plane exports the state it was restored from — re-interning
        from scratch would silently renumber peers after any churn.
        """
        assignments = tuple(
            (peer_id, text, index) for peer_id, (text, index) in self._keys.items()
        )
        return (assignments, self._next_index)

    def import_state(self, state: Tuple[object, object]) -> None:
        """Replace the table with an :meth:`export_state` payload; ``ValueError``,
        nothing replaced, if a compact index repeats or ``next_index`` is not
        above every assigned one (a later arrival would reuse an index)."""
        assignments, next_index = state
        keys: Dict[PeerId, Tuple[str, int]] = {}
        assigned: Set[int] = set()
        for peer_id, text, index in assignments:  # type: ignore[union-attr]
            index = int(index)
            if index in assigned:
                raise ValueError(f"compact index {index} is assigned twice")
            assigned.add(index)
            keys[peer_id] = (str(text), index)
        next_index = int(next_index)  # type: ignore[call-overload]
        if next_index <= max(assigned, default=-1):
            raise ValueError(f"next_index {next_index} is not above every assigned index")
        self._keys, self._next_index = keys, next_index

    def sort_text(self, peer_id: PeerId) -> str:
        """The peer's interned textual sort key (``repr(peer_id)``)."""
        return self.key(peer_id)[0]

    def index(self, peer_id: PeerId) -> int:
        """The peer's dense compact index (assigned at first sight)."""
        return self.key(peer_id)[1]

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"PeerKeyInterner(peers={len(self._keys)})"
