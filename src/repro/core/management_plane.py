"""Shared peer-facing logic of the management plane.

:class:`ManagementPlaneBase` holds everything that must behave *identically*
on the single :class:`~repro.core.management_server.ManagementServer` and on
the sharded coordinator
(:class:`~repro.core.sharded.ShardedManagementServer`): the check that a
path is registrable, the cache pass that ends every arrival, the
cache-hit/refill policy of ``closest_peers``, the distance estimator, the
landmark-distance map and the peer read accessors.  The first and the
estimator read only ``_landmark_routers`` and ``_paths``, so neither asks
a shard anything.
Keeping one copy makes the sharded plane's byte-identical-results guarantee
hold *by construction* for these paths — only the data-plane hooks below
differ per plane, and how a path reaches the trees (in process, or as one
frame per home shard) is each plane's own ``register_peer`` /
``register_peers``.

Subclass contract
-----------------
``__init__`` must set ``neighbor_set_size``, ``maintain_cache``, ``stats``,
``_cache`` (a :class:`~repro.core.neighbor_cache.NeighborCache`),
``_paths`` — the one per-peer registry, peer -> the registered
:class:`~repro.core.path.RouterPath` in registration order (landmark and
hop count are read off the path) — ``_landmark_routers`` and
``_landmark_distances``; the subclass implements ``register_peer``,
``register_peers`` and the data-plane hooks ``_compute_neighbors``,
``unregister_peer``, ``tree`` and ``_live_trees``.

Change record
-------------
A snapshot publisher (:mod:`repro.core.serving`) re-freezes only what moved
since its last epoch.  :meth:`ManagementPlaneBase.track_changes` attaches a
:class:`ChangeRecord` whose sets the writers fill *where the change
happens*: each landmark trie adds the node ids on a touched root path, the
neighbour cache adds the owners whose lists changed, and the plane adds the
peers that joined or left.  With no record attached every one of those
hooks is a single ``is None`` test.  Whatever the sets cannot describe — a
new landmark or landmark distance — and a record that
names more joins and leaves than there are peers alive (nobody is reading
it) detach the record instead, and the publisher rebuilds whole.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..exceptions import (
    LandmarkError,
    RegistrationError,
    ShardUnavailableError,
    UnknownPeerError,
)
from .neighbor_cache import PAIR, NeighborCache, NeighborEntry
from .path import LandmarkId, NodeId, PeerId, RouterPath, tree_distance
from .path_tree import PathTree

__all__ = [
    "ChangeRecord",
    "DegradedResult",
    "ManagementPlaneBase",
    "PlaneHealth",
    "ServerStats",
    "ShardHealth",
]

#: The ``ValueError`` of ``closest_peers(peer, k < 0)``, live and snapshot alike.
NEGATIVE_K = "k must be positive, or None / 0 for the plane's default, got {}"


@dataclass
class ServerStats:
    """Operation counters, read by the complexity tests and ``bench/``."""

    registrations: int = 0
    removals: int = 0
    queries: int = 0
    cache_hits: int = 0
    tree_queries: int = 0
    cache_updates: int = 0
    cache_refills: int = 0
    departure_updates: int = 0
    degraded_queries: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for spec in fields(self):
            setattr(self, spec.name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counter values keyed by name."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


class ChangeRecord:
    """What a plane's mutations touched since the record was attached.

    ``nodes`` maps each landmark to the trie node ids whose index row
    changed (created and freed ids included),
    ``owners`` holds the peers whose cached neighbour list or completeness
    mark changed, ``peers`` the peers that joined, left or re-registered
    (a dict used as an insertion-ordered set, in the order they changed).
    The sets are hints, not a log: a consumer re-reads the live plane for
    everything named here, so an entry for something that changed back — or
    is gone — is harmless.
    """

    __slots__ = ("nodes", "owners", "peers")

    def __init__(self, landmarks: Iterable[LandmarkId]) -> None:
        self.nodes: Dict[LandmarkId, Set[int]] = {landmark: set() for landmark in landmarks}
        self.owners: Set[PeerId] = set()
        self.peers: Dict[PeerId, None] = {}

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"ChangeRecord(peers={len(self.peers)}, owners={len(self.owners)}, "
            f"nodes={sum(map(len, self.nodes.values()))})"
        )


class DegradedResult(List[Tuple[PeerId, float]]):
    """A ``closest_peers`` answer served while part of the plane was down.

    Behaves exactly like the normal ``[(peer_id, distance), ...]`` list
    (equality and iteration compare content only), but is typed so callers
    that care can detect — ``isinstance(result, DegradedResult)`` — that the
    answer was assembled from the coordinator's cache and the *healthy*
    shards while ``shard`` was unavailable, and may therefore be missing
    candidates that only the failed shard knew.  Degraded answers are never
    written back to the cache.
    """

    __slots__ = ("shard", "reason")

    def __init__(
        self,
        pairs: Iterable[Tuple[PeerId, float]] = (),
        *,
        shard: object = None,
        reason: str = "",
    ) -> None:
        super().__init__(pairs)
        self.shard = shard
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"DegradedResult({list(self)!r}, shard={self.shard!r}, reason={self.reason!r})"


@dataclass(frozen=True)
class ShardHealth:
    """Liveness of one shard, as reported by :meth:`ManagementPlaneBase.health`."""

    index: int
    name: str
    alive: bool


@dataclass(frozen=True)
class PlaneHealth:
    """Plane-level health summary: per-shard liveness + degradation counter."""

    shards: Tuple[ShardHealth, ...]
    degraded_queries: int

    @property
    def healthy(self) -> bool:
        """True when every shard (if any) is alive."""
        return all(shard.alive for shard in self.shards)


class ManagementPlaneBase:
    """Plane-independent half of the management-server API (see module doc)."""

    neighbor_set_size: int
    maintain_cache: bool
    stats: ServerStats
    _cache: NeighborCache
    _paths: Dict[PeerId, RouterPath]
    _landmark_routers: Dict[LandmarkId, NodeId]
    _landmark_distances: Dict[Tuple[LandmarkId, LandmarkId], float]
    #: The attached :class:`ChangeRecord`, or None while nothing records.
    changes: Optional[ChangeRecord] = None

    # -------------------------------------------------------- data-plane hooks

    def _compute_neighbors(self, peer_id: PeerId, k: Optional[int] = None) -> List[Tuple[PeerId, float]]:
        """A peer's closest peers computed from the trees (plus fill)."""
        raise NotImplementedError

    def unregister_peer(self, peer_id: PeerId) -> None:
        """Remove a departing peer from the plane."""
        raise NotImplementedError

    def tree(self, landmark_id: LandmarkId) -> PathTree:
        """The path tree of one landmark."""
        raise NotImplementedError

    def _live_trees(self) -> Optional[Dict[LandmarkId, PathTree]]:
        """Every landmark's *live* trie, or None when some are out of reach.

        Out of reach means :meth:`tree` hands back a fresh export (a remote
        shard): there is no object whose mutations could be recorded.
        """
        raise NotImplementedError

    def _degraded_neighbors(
        self, peer_id: PeerId, k: int, error: ShardUnavailableError
    ) -> Optional["DegradedResult"]:
        """Best-effort answer when :meth:`_compute_neighbors` lost a shard.

        Returns ``None`` to decline (the original
        :class:`~repro.exceptions.ShardUnavailableError` is re-raised) — the
        default for planes with no partial data sources.  The sharded
        coordinator overrides this to assemble an answer from its neighbour
        cache and the healthy shards' fills.  Only the
        ``closest_peers`` read path consults this hook: mutations must stay
        typed and atomic, never silently partial.
        """
        return None

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release plane-owned resources (shard servers, connections).

        A no-op for purely in-process planes; the sharded coordinator closes
        its shard backends.  Always safe to call more than once, so callers
        can ``finally: server.close()`` regardless of the backend in use.
        """

    def __enter__(self) -> "ManagementPlaneBase":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # --------------------------------------------------------- change record

    def track_changes(self) -> Optional[ChangeRecord]:
        """Attach a fresh :class:`ChangeRecord` (detaching any other) and return it.

        Returns None — nothing is recorded — when the landmark tries are
        not live objects of this process (see :meth:`_live_trees`).  One
        record is attached at a time: a consumer whose record is no longer
        :attr:`changes` (another consumer attached, or the plane detached it,
        see :meth:`_stop_tracking`) must treat everything as changed.
        """
        trees = self._live_trees()
        if trees is None:
            return None  # and nothing can have been attached before either
        record = ChangeRecord(trees)
        for landmark_id, tree in trees.items():
            tree.dirty = record.nodes[landmark_id]
        self._cache.dirty = record.owners
        self.changes = record
        return record

    def _stop_tracking(self) -> None:
        """Detach the record: its sets cannot describe what happens next."""
        if self.changes is None:
            return
        self.changes = None
        self._cache.dirty = None
        for tree in (self._live_trees() or {}).values():
            tree.dirty = None

    def _peer_changed(self, peer_id: PeerId) -> None:
        """Record a join or leave (callers test ``changes is not None`` first).

        This is also where the record is bounded: once it names more joins
        and leaves than there are peers alive, a rebuild costs no more than
        the patch, and a record nobody drains must not grow with the churn
        it watches.  The other sets need no bound of their own: a marked
        owner was alive when marked, so it is a live peer or a recorded
        leaver, and node ids are reused, so a trie's set never outgrows its
        node table.
        """
        peers = self.changes.peers  # type: ignore[union-attr]
        peers[peer_id] = None
        if len(peers) > len(self._paths):
            self._stop_tracking()

    # ------------------------------------------------------------- cache views

    @property
    def _neighbor_cache(self) -> Dict[PeerId, List[NeighborEntry]]:
        """A diagnostic copy of the cached lists, entries readable by field name."""
        return {owner: self._cache.get(owner) for owner in self._cache.lists}

    @property
    def _referenced_by(self) -> Dict[PeerId, Set[PeerId]]:
        """A copy of the reverse neighbour index (owned by :class:`NeighborCache`),
        each target's referrers as a set: their order is bookkeeping."""
        return {target: set(referrers) for target, referrers in self._cache.referenced_by.items()}

    # -------------------------------------------------------------- landmarks

    def landmark_router(self, landmark_id: LandmarkId) -> NodeId:
        """Router a landmark is attached to."""
        if landmark_id not in self._landmark_routers:
            raise LandmarkError(f"unknown landmark {landmark_id!r}")
        return self._landmark_routers[landmark_id]

    def set_landmark_distance(self, a: LandmarkId, b: LandmarkId, distance: float) -> None:
        """Record the (symmetric) distance between two landmarks.

        A new inter-landmark distance can make foreign-tree peers reachable,
        so it invalidates the cache's short-list completeness marks (see
        :meth:`NeighborCache.note_membership_change`) — and it is nothing a
        change record has a set for, so an attached record is dropped.
        """
        if distance < 0:
            raise LandmarkError(f"landmark distance must be >= 0, got {distance}")
        self._landmark_distances[(a, b)] = float(distance)
        self._landmark_distances[(b, a)] = float(distance)
        self._cache.note_membership_change()
        self._stop_tracking()

    def landmark_distance(self, a: LandmarkId, b: LandmarkId) -> Optional[float]:
        """Distance between two landmarks, or None if unknown."""
        if a == b:
            return 0.0
        return self._landmark_distances.get((a, b))

    def validate_registrable(self, path: RouterPath) -> None:
        """Raise if ``path`` cannot be registered (unknown landmark / wrong root).

        Read off the landmark routers the plane holds, so it checks everything
        :meth:`PathTree.insert` would reject and a batch can validate every
        path up front, then insert without partial failure.
        """
        if path.landmark_id not in self._landmark_routers:
            raise RegistrationError(
                f"peer {path.peer_id!r} reported a path to unknown landmark "
                f"{path.landmark_id!r}"
            )
        root = self._landmark_routers[path.landmark_id]
        if root != path.routers[-1]:
            raise RegistrationError(
                f"path of peer {path.peer_id!r} ends at router {path.routers[-1]!r}, "
                f"but the tree of landmark {path.landmark_id!r} is rooted at "
                f"{root!r}"
            )

    # ------------------------------------------------------------------ peers

    @property
    def peer_count(self) -> int:
        """Number of currently registered peers."""
        return len(self._paths)

    def peers(self) -> List[PeerId]:
        """Identifiers of all registered peers (registration order)."""
        return list(self._paths)

    def has_peer(self, peer_id: PeerId) -> bool:
        """True if the peer is registered."""
        return peer_id in self._paths

    def peer_path(self, peer_id: PeerId) -> RouterPath:
        """The path a peer registered with."""
        if peer_id not in self._paths:
            raise UnknownPeerError(peer_id)
        return self._paths[peer_id]

    def peer_landmark(self, peer_id: PeerId) -> LandmarkId:
        """The landmark a peer registered under."""
        return self.peer_path(peer_id).landmark_id

    def neighbor_list(self, peer_id: PeerId) -> List[Tuple[PeerId, float]]:
        """The peer's cached neighbour list as ``(peer_id, distance)`` pairs.

        A pure read of the cache — no tree query, no refill: a registered
        peer without a stored list (cache disabled, or eroded away) yields
        ``[]``.  This is the accessor the serving-plane snapshot mirrors
        byte-identically, so it is the cheapest "who does the plane think is
        near me right now" view on both the live planes and the snapshots.
        """
        if peer_id not in self._paths:
            raise UnknownPeerError(peer_id)
        return list(map(PAIR, self._cache.lists.get(peer_id, ())))

    # -------------------------------------------------------------- register

    def _neighbor_phase(
        self, results: Dict[PeerId, List[Tuple[PeerId, float]]]
    ) -> Dict[PeerId, List[Tuple[PeerId, float]]]:
        """The cache pass that ends an arrival, single or batched.

        ``results`` holds each newcomer's computed list, in input order.
        The caller computed them after every path of the arrival had landed
        in the trees — which are static from then on — so each list (and
        each propagated update) already sees the whole batch; they are
        stored and propagated in input order, exactly like sequential
        arrivals would.
        """
        if self.maintain_cache:
            for peer_id, neighbors in results.items():
                self._cache.store(
                    peer_id, neighbors, complete=len(neighbors) < self.neighbor_set_size
                )
                self._cache.propagate_newcomer(peer_id, neighbors)
        return results

    def _fill_bases(
        self, landmarks: Iterable[LandmarkId], home_landmark: LandmarkId, own_hops: int
    ) -> Dict[LandmarkId, float]:
        """Detour-estimate bases for a cross-landmark fill over ``landmarks``.

        One shared implementation for both planes: the base of each foreign
        landmark with a known distance to the querying peer's home landmark
        is ``own_hops + d(home, other)``.  Both the single server and the
        sharded coordinator feed these bases to ``fill_candidates``, so the
        fill order is identical by construction.
        """
        bases: Dict[LandmarkId, float] = {}
        for other_landmark in landmarks:
            if other_landmark == home_landmark:
                continue
            between = self.landmark_distance(home_landmark, other_landmark)
            if between is None:
                continue
            bases[other_landmark] = float(own_hops + between)
        return bases

    # ---------------------------------------------------------------- queries

    def closest_peers(self, peer_id: PeerId, k: Optional[int] = None) -> List[Tuple[PeerId, float]]:
        """Return up to ``k`` closest peers for a registered peer.

        With the cache enabled and ``k <= neighbor_set_size`` this is a single
        dictionary access plus one C-level copy of the pairs
        (:data:`~repro.core.neighbor_cache.PAIR`); otherwise the landmark
        trees are queried directly, lazily refilling the cache.  ``None`` and ``0`` ask
        for ``neighbor_set_size``; a negative ``k`` is a ``ValueError``.

        A cached list is served when it holds enough entries for ``k`` (or
        for the whole population), **or** when it is marked complete — it
        was computed from an exhaustive query that returned every reachable
        candidate and no membership change has happened since.  Without the
        completeness mark, a peer whose list is legitimately short
        (unreachable foreign-landmark peers, no landmark distances) would
        miss the cache forever and pay a tree query each time.
        """
        registered = self._paths
        if peer_id not in registered:
            raise UnknownPeerError(peer_id)
        k = k or self.neighbor_set_size
        if k < 0:
            raise ValueError(NEGATIVE_K.format(k))
        self.stats.queries += 1
        if self.maintain_cache and k <= self.neighbor_set_size:
            entries = self._cache.lists.get(peer_id, ())
            held = len(entries)
            if held >= k or held >= len(registered) - 1 or self._cache.is_complete(peer_id):
                self.stats.cache_hits += 1
                return list(map(PAIR, entries if held <= k else entries[:k]))
        try:
            neighbors = self._compute_neighbors(peer_id, k=k)
        except ShardUnavailableError as error:
            # Reads may degrade while a shard is mid-recovery: the hook
            # assembles a best-effort answer from partial sources, tagged as
            # DegradedResult and never cached.  Planes without partial
            # sources (and mutations, always) keep the typed failure.
            degraded = self._degraded_neighbors(peer_id, k, error)
            if degraded is None:
                raise
            self.stats.degraded_queries += 1
            return degraded
        if self.maintain_cache and k >= self.neighbor_set_size:
            self._cache.store(
                peer_id,
                neighbors[: self.neighbor_set_size],
                complete=len(neighbors) < self.neighbor_set_size,
            )
            self.stats.cache_refills += 1
        return neighbors

    def estimate_distance(self, peer_a: PeerId, peer_b: PeerId) -> float:
        """Estimated hop distance between two registered peers.

        What :func:`~repro.core.distance.evaluate_estimator` scores:
        same-landmark pairs use ``dtree`` of the two registered paths
        (:func:`~repro.core.path.tree_distance`, no tree is read), cross-landmark
        pairs use the landmark-detour estimate (requires landmark distances),
        and unknown cross-landmark distances raise :class:`LandmarkError`.
        """
        path_a = self.peer_path(peer_a)
        path_b = self.peer_path(peer_b)
        landmark_a, landmark_b = path_a.landmark_id, path_b.landmark_id
        if landmark_a == landmark_b:
            return float(tree_distance(path_a, path_b))  # type: ignore[arg-type]
        between = self.landmark_distance(landmark_a, landmark_b)
        if between is None:
            raise LandmarkError(
                f"no inter-landmark distance between {landmark_a!r} and {landmark_b!r}"
            )
        return float(path_a.hop_count + between + path_b.hop_count)
