"""Interned peer sort keys shared across one management plane.

Every total ordering on the discovery hot path tie-breaks on the textual
form of the peer identifier — ``closest_peers`` result order, the cached
neighbour lists' bisect keys, the per-landmark min-hop orderings, and the
cross-landmark candidate streams all sort by ``(measure, repr(peer_id))``.
Before this module each comparison recomputed ``repr(peer_id)`` on the fly:
per candidate in the query sort, per bisect probe in
``propagate_newcomer``, per insert in the min-hop orderings.

A :class:`PeerKeyInterner` computes the key **once per peer** and hands the
same string to every consumer.  The key is exactly ``repr(peer_id)``, so the
orderings produced from interned keys are byte-identical to the historic
repr-based orderings, which is what keeps the sharded/process equivalence
oracles green.

One interner is owned by each management plane (single server, sharded
coordinator, shard worker) and shared by its :class:`~repro.core.path_tree.
PathTree` instances and its :class:`~repro.core.neighbor_cache.
NeighborCache`, so a peer is interned exactly once per plane, at
registration time.
"""

from __future__ import annotations

from typing import Dict

from .path import PeerId

__all__ = ["PeerKeyInterner"]


class PeerKeyInterner:
    """Process-local table of precomputed peer sort keys (see module doc).

    The table is bounded by the **live** population, not by cumulative
    arrivals: planes :meth:`discard` a peer's key on departure, so an
    open-world churn workload (every join a fresh identifier) does not grow
    the table without bound.  A peer that re-registers after departing is
    simply re-interned.
    """

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: Dict[PeerId, str] = {}

    def key(self, peer_id: PeerId) -> str:
        """The peer's sort text, ``repr(peer_id)``, interning on first use."""
        key = self._keys.get(peer_id)
        if key is None:
            key = self._keys[peer_id] = repr(peer_id)
        return key

    def discard(self, peer_id: PeerId) -> None:
        """Forget a departed peer's key (keeps the table ~ live population).

        Safe to call for never-interned peers.  Keys already embedded in
        live orderings (cached-list entries, min-hop tuples) stay valid —
        they hold their own reference to the sort text.
        """
        self._keys.pop(peer_id, None)

    def table(self) -> Dict[PeerId, str]:
        """A copy of the live ``peer -> sort_text`` table."""
        return self._keys.copy()

    def __repr__(self) -> str:
        return f"PeerKeyInterner(peers={len(self._keys)})"
