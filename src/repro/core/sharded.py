"""Sharded management plane: landmarks partitioned across several shards.

The paper's management server is a single process.  To serve millions of
peers, this module partitions the **data plane** — the per-landmark path
trees and min-hop orderings — across ``N`` shards by consistent-hashing
landmark identifiers, while a thin coordinator keeps the **peer-facing
plane** (routing table, neighbour cache, reverse neighbour index) and
presents the exact :class:`~repro.core.management_server.ManagementServer`
public API.  This is the paper's super-peer future work ("the opportunity
to use some super-peers"), and
:func:`~repro.experiments.ablations.superpeer_study` measures it.

Shard protocol
--------------
Every landmark is owned by exactly one shard (consistent hashing via
:class:`ConsistentHashRing`, so adding shards relocates only ~1/N of the
landmarks), and every peer lives on the shard that owns its landmark.  The
coordinator drives shards through the small :class:`ShardBackend` surface —
an in-process :class:`~repro.core.management_server.ManagementServer` per
shard by default, or a remote shard behind
:class:`~repro.core.socket_backend.SocketShardBackend`
(``shard_factory=shard_factory_for("process" | "socket", ...)``) — any
backend speaking the same methods:

* **Arrival** — the coordinator validates every path of the batch, in
  input order, against the landmark routers it holds: no partial batch
  failure, no frame for a rejected batch, and the single server's error.
  Then ONE
  ``join_paths`` call per home shard inserts that shard's slice of the
  batch and answers with each path's local closest list: a newcomer, or a
  co-arriving batch, costs a remote backend one frame per shard, never
  one per step or per peer; a re-registration is the same frame (the
  shard's ``insert_paths`` replaces the old path), and only a peer that
  moves to another shard adds an ``unregister`` on its old home.
* **Departure** — ``unregister_peer`` on the peer's home shard removes it
  from that shard's tree and min-hop ordering; the coordinator's shared
  :class:`~repro.core.neighbor_cache.NeighborCache` repairs exactly the
  cached lists that referenced the departed peer (reverse neighbour index),
  wherever their owners live.
* **Query** — the home shard answers from its local tree
  (``local_closest``).  When the home tree cannot provide ``k`` candidates,
  the coordinator reuses the **cross-landmark fill** as the inter-shard
  candidate protocol: it sends each shard the per-landmark detour-estimate
  bases and the number of candidates it still needs, each shard answers
  with the first that many of its merged min-hop orderings
  (``fill_candidates``, one bounded read), and the coordinator heap-merges
  the per-shard lists and keeps that many.  Each shard's share of the
  first ``need`` merged candidates is a prefix of its own list, at most
  ``need`` long, so the cut lists merge to the same answer.  No new
  estimator is introduced: a shard boundary is just a landmark boundary, so
  the single-server fill order is reproduced exactly.

Equivalence guarantee
---------------------
Because every candidate tuple ``(estimate, repr(peer), peer)`` is a total
order and the cache logic is the very same :class:`NeighborCache` code, a
``ShardedManagementServer`` returns **byte-identical results** to a single
:class:`ManagementServer` fed the same operation sequence — same peers, same
distances, same order — for any shard count.  The property-test oracle in
``tests/core/test_sharded_equivalence.py`` enforces this.  Operation
counters (:class:`ServerStats`) are coordinator-level and may differ from
the single server's in pathological batches (e.g. a peer repeated within
one batch skips the intermediate tree insert); results never do.

Degraded reads
--------------
A ``closest_peers`` query that loses a shard mid-computation
(:class:`~repro.exceptions.ShardUnavailableError`) is answered best-effort
from the coordinator's cached list and the healthy shards' fills, as a
:class:`~repro.core.management_plane.DegradedResult` naming the lost shard
and the failure, counted in ``stats.degraded_queries`` and never cached.
Reads always degrade this way; mutations never do — they fail typed and
atomic.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
from itertools import islice
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from .._validation import require_positive_int
from ..exceptions import LandmarkError, ShardUnavailableError, UnknownPeerError
from .interning import PeerKeyInterner
from .management_plane import (
    DegradedResult,
    ManagementPlaneBase,
    PlaneHealth,
    ServerStats,
    ShardHealth,
)
from .management_server import ManagementServer
from .neighbor_cache import NeighborCache
from .path import LandmarkId, NodeId, PeerId, RouterPath
from .path_tree import RANK, PathTree

__all__ = ["ConsistentHashRing", "ShardBackend", "ShardedManagementServer"]


@runtime_checkable
class ShardBackend(Protocol):
    """The data-plane surface a shard must offer the coordinator.

    :class:`~repro.core.management_server.ManagementServer` (with
    ``maintain_cache=False``) implements it in-process, and
    :class:`~repro.core.socket_backend.SocketShardBackend` implements it
    over a supervised connection to a shard server with one loopback server
    per self-hosted shard; a further backend only needs
    these methods (plus :meth:`tree` for diagnostics,
    :meth:`total_tree_visits` for the work counters, and :meth:`close` for
    resource teardown) to slot in behind the coordinator.
    """

    def register_landmark(self, landmark_id: LandmarkId, router: NodeId) -> None: ...

    def insert_paths(self, paths: Sequence[RouterPath], validate: bool = True) -> None: ...

    def join_paths(self, paths: Sequence[RouterPath], k: int) -> List[List[Tuple[PeerId, float]]]: ...

    def unregister_peer(self, peer_id: PeerId) -> None: ...

    def local_closest(self, peer_id: PeerId, k: int) -> List[Tuple[PeerId, float]]: ...

    def fill_candidates(
        self, bases: Mapping[LandmarkId, float], limit: int
    ) -> List[Tuple[float, str, PeerId]]: ...

    def tree(self, landmark_id: LandmarkId) -> PathTree: ...

    def total_tree_visits(self) -> int: ...

    def total_insert_work(self) -> Tuple[int, int]: ...

    def close(self) -> None: ...


class ConsistentHashRing:
    """Deterministic consistent-hash ring over a fixed set of nodes.

    Each node projects :attr:`REPLICAS` virtual points onto a 64-bit ring
    (SHA-1-derived, so placement is stable across processes and Python hash
    randomisation); a key maps to the first virtual point clockwise from its
    own hash.  With replicas in the tens, keys spread near-uniformly and
    growing the ring from ``n`` to ``n+1`` nodes relocates ~1/(n+1) of them.
    """

    REPLICAS = 64

    def __init__(self, node_count: int) -> None:
        self.node_count = require_positive_int(node_count, "node_count")
        points = sorted(
            (self._point(f"node:{node}:replica:{replica}"), node)
            for node in range(node_count)
            for replica in range(self.REPLICAS)
        )
        self._hashes = [point for point, _ in points]
        self._nodes = [node for _, node in points]

    @staticmethod
    def _point(text: str) -> int:
        """A stable 64-bit ring position for ``text``."""
        return int.from_bytes(hashlib.sha1(text.encode("utf-8")).digest()[:8], "big")

    def node_for(self, key: Hashable) -> int:
        """The node index owning ``key`` (stable across runs and machines)."""
        position = self._point(f"key:{key!r}")
        index = bisect.bisect_right(self._hashes, position) % len(self._hashes)
        return self._nodes[index]

    def __repr__(self) -> str:
        return f"ConsistentHashRing(nodes={self.node_count}, replicas={self.REPLICAS})"


class ShardedManagementServer(ManagementPlaneBase):
    """Drop-in :class:`ManagementServer` replacement over ``N`` shards.

    Presents the same public API — ``register_landmark``, ``register_peer`` /
    ``register_peers``, ``unregister_peer``, ``closest_peers``,
    ``estimate_distance`` and the read accessors — while landmarks (and the
    peers under them) are consistent-hashed across ``shard_count`` backends.
    See the module docstring for the shard protocol, the equivalence
    guarantee and degraded reads.

    Parameters
    ----------
    shard_count:
        Number of shards to partition landmarks across.
    neighbor_set_size / maintain_cache / landmark_distances:
        As for :class:`ManagementServer`; the cache and the distance map are
        coordinator-level.
    shard_factory:
        Builds one shard backend; defaults to an in-process
        :class:`ManagementServer` with ``maintain_cache=False`` (the
        coordinator owns the only cache).  Override to slot in remote or
        async backends implementing :class:`ShardBackend`.
    """

    def __init__(
        self,
        shard_count: int,
        neighbor_set_size: int = 5,
        maintain_cache: bool = True,
        landmark_distances: Optional[Dict[Tuple[LandmarkId, LandmarkId], float]] = None,
        shard_factory: Optional[Callable[[], ShardBackend]] = None,
    ) -> None:
        self.shard_count = require_positive_int(shard_count, "shard_count")
        self.neighbor_set_size = require_positive_int(neighbor_set_size, "neighbor_set_size")
        self.maintain_cache = maintain_cache
        if shard_factory is None:
            shard_factory = lambda: ManagementServer(  # noqa: E731 - one-liner default
                neighbor_set_size=neighbor_set_size, maintain_cache=False
            )
        self._shards: Tuple[ShardBackend, ...] = tuple(
            shard_factory() for _ in range(shard_count)
        )
        self._ring = ConsistentHashRing(shard_count)
        self._landmark_shard: Dict[LandmarkId, int] = {}
        self._shard_landmarks: List[List[LandmarkId]] = [[] for _ in range(shard_count)]
        self._landmark_routers: Dict[LandmarkId, NodeId] = {}
        self._paths: Dict[PeerId, RouterPath] = {}
        self._landmark_distances: Dict[Tuple[LandmarkId, LandmarkId], float] = {}
        self.stats = ServerStats()
        # The coordinator shares the single server's interner/cache code: one
        # plane-owned key table stamps every cached-list entry, so the
        # ordered inserts of propagate_newcomer never call repr per probe.
        self._interner = PeerKeyInterner()
        self._cache = NeighborCache(self.neighbor_set_size, self.stats, self._interner)
        if landmark_distances:
            for (a, b), distance in landmark_distances.items():
                self.set_landmark_distance(a, b, distance)

    # ---------------------------------------------------------------- shards

    @property
    def shards(self) -> Tuple[ShardBackend, ...]:
        """The shard backends, by index (read-only view for diagnostics)."""
        return self._shards

    def total_tree_visits(self) -> int:
        """Trie nodes visited by queries, summed over every shard's trees."""
        return sum(shard.total_tree_visits() for shard in self._shards)

    def total_insert_work(self) -> Tuple[int, int]:
        """``(nodes_created, nodes_touched)`` summed over every shard's trees."""
        created = 0
        touched = 0
        for shard in self._shards:
            shard_created, shard_touched = shard.total_insert_work()
            created += shard_created
            touched += shard_touched
        return (created, touched)

    def close(self) -> None:
        """Close every shard backend that holds real resources.

        In-process shards make this a no-op; remote shards close their
        connection and reap the server they host (a child process per
        ``process`` shard, a loopback server thread per self-hosted
        ``socket`` shard).  Idempotent.
        """
        for shard in self._shards:
            shard.close()

    def shard_of(self, landmark_id: LandmarkId) -> int:
        """Index of the shard owning a registered landmark."""
        if landmark_id not in self._landmark_shard:
            raise LandmarkError(f"unknown landmark {landmark_id!r}")
        return self._landmark_shard[landmark_id]

    def shard_landmarks(self, shard_index: int) -> List[LandmarkId]:
        """Landmarks owned by one shard, in registration order (a copy)."""
        return list(self._shard_landmarks[shard_index])

    # -------------------------------------------------------------- landmarks

    def register_landmark(self, landmark_id: LandmarkId, router: NodeId) -> None:
        """Declare a landmark; the consistent-hash ring assigns its shard."""
        if landmark_id in self._landmark_shard:
            raise LandmarkError(f"landmark {landmark_id!r} is already registered")
        self._stop_tracking()  # a change record has no set for the new trie
        shard_index = self._ring.node_for(landmark_id)
        self._shards[shard_index].register_landmark(landmark_id, router)
        self._landmark_shard[landmark_id] = shard_index
        self._shard_landmarks[shard_index].append(landmark_id)
        self._landmark_routers[landmark_id] = router

    def landmarks(self) -> List[LandmarkId]:
        """Identifiers of all registered landmarks (registration order)."""
        return list(self._landmark_shard)

    def tree(self, landmark_id: LandmarkId) -> PathTree:
        """The path tree of one landmark (lives on its owning shard)."""
        if landmark_id not in self._landmark_shard:
            raise LandmarkError(f"unknown landmark {landmark_id!r}")
        return self._shards[self._landmark_shard[landmark_id]].tree(landmark_id)

    # ------------------------------------------------------------------ peers

    def peer_shard(self, peer_id: PeerId) -> int:
        """Index of the shard holding a peer's path tree."""
        return self._landmark_shard[self.peer_landmark(peer_id)]

    # -------------------------------------------------------------- register

    def register_peer(self, path: RouterPath) -> List[Tuple[PeerId, float]]:
        """A single arrival is a batch of one: see :meth:`register_peers`."""
        return self.register_peers([path])[path.peer_id]

    def register_peers(
        self, paths: Sequence[RouterPath]
    ) -> Dict[PeerId, List[Tuple[PeerId, float]]]:
        """Arrival: validate here, then one ``join_paths`` call per home shard.

        Every input path, a superseded one included, is checked in input
        order against the landmark routers the coordinator holds, so the
        error is the single server's first-invalid-path error and no shard
        hears of a rejected batch.  A peer the coordinator already holds
        leaves the coordinator next (cache repair, path, interned key,
        change record); its home shard hears no ``unregister``, since the
        ``insert_paths`` inside its join replaces the old path, unless the
        peer moves to a landmark of another shard, whose old home then
        drops it first.  Then each home shard joins its slice, in the
        single server's order (a peer repeated in the batch at its last
        position), and validates it again: the shard trusts no bytes it
        decodes.
        Membership is written only after every home shard acknowledged; a
        shard failing mid-arrival makes every shard asked so far drop its
        part again, the failing one included (its reply may have been lost
        after it applied the join), and the home shard of every
        re-registered peer drop that peer, asked or not.  A shard that
        cannot be reached for that keeps its part until the caller
        re-registers the batch, which replaces it.  Lists and cache updates
        then follow exactly like the single server.
        """
        for path in paths:
            self.validate_registrable(path)
        # Each peer's last path at its last position: the single server's order.
        latest: Dict[PeerId, RouterPath] = {}
        for path in paths:
            latest.pop(path.peer_id, None)
            latest[path.peer_id] = path
        by_shard: Dict[int, List[RouterPath]] = {}
        for path in latest.values():
            by_shard.setdefault(self._landmark_shard[path.landmark_id], []).append(path)
        pending = dict.fromkeys(path.peer_id for path in paths)  # the answer's order
        replaced = set()
        for peer_id in pending:
            path = latest[peer_id]
            held = self._paths.get(peer_id)
            if held is None:
                continue
            if self._landmark_shard[held.landmark_id] == self._landmark_shard[path.landmark_id]:
                replaced.add(peer_id)
                self._forget(peer_id)
            else:
                self.unregister_peer(peer_id)
        local: Dict[PeerId, List[Tuple[PeerId, float]]] = {}
        asked: List[int] = []
        try:
            for shard_index, shard_paths in by_shard.items():
                asked.append(shard_index)  # a lost reply may follow an applied join
                lists = self._shards[shard_index].join_paths(shard_paths, self.neighbor_set_size)
                local.update(zip((path.peer_id for path in shard_paths), lists))
        except ShardUnavailableError:
            for shard_index, shard_paths in by_shard.items():
                for path in shard_paths:
                    if shard_index in asked or path.peer_id in replaced:
                        try:
                            self._shards[shard_index].unregister_peer(path.peer_id)
                        except (UnknownPeerError, ShardUnavailableError):
                            pass  # never joined there, or unreachable until a retry
            raise

        for path in paths:
            # A peer repeated in the batch is removed and re-inserted by the
            # single server, which moves it to the end of the registration
            # order; its cache effects are no-ops at this stage.
            self._paths.pop(path.peer_id, None)
            self._paths[path.peer_id] = path
            self.stats.registrations += 1
            self._cache.note_membership_change()
            if self.changes is not None:
                self._peer_changed(path.peer_id)
        return self._neighbor_phase(
            {peer_id: self._compute_neighbors(peer_id, local=local[peer_id]) for peer_id in pending}
        )

    def unregister_peer(self, peer_id: PeerId) -> None:
        """Remove a departing peer from its home shard and the cached lists.

        The home shard repairs its tree and min-hop ordering; the
        coordinator's reverse neighbour index then repairs exactly the cached
        lists that referenced the departed peer — including lists whose
        owners live on other shards.  The shard is told first and the
        coordinator's indexes only updated after it acknowledged: a remote
        shard failing mid-departure (:class:`ShardUnavailableError`) leaves
        the coordinator unchanged, so restart-and-replay reconverges.
        """
        if peer_id not in self._paths:
            raise UnknownPeerError(peer_id)
        landmark_id = self._paths[peer_id].landmark_id
        try:
            self._shards[self._landmark_shard[landmark_id]].unregister_peer(peer_id)
        except UnknownPeerError:
            # The shard no longer holds a peer the coordinator does: a
            # departure whose reply was lost — applied and recorded there,
            # ShardUnavailableError here — is being retried.  Absent
            # shard-side is exactly what a departure wants, so finish the
            # coordinator's half instead of dead-ending on a phantom peer.
            # An inline shard can never take this branch (coordinator and
            # shard membership move in lock step in one process).
            pass
        self._forget(peer_id)

    # -------------------------------------------------------------- internals

    def _forget(self, peer_id: PeerId) -> None:
        """The coordinator's half of a departure: path, key, cache, record."""
        del self._paths[peer_id]
        self._interner.discard(peer_id)
        self.stats.removals += 1
        if self.maintain_cache:
            self._cache.drop_peer(peer_id)
        if self.changes is not None:
            self._peer_changed(peer_id)

    def _live_trees(self) -> Optional[Dict[LandmarkId, PathTree]]:
        """The inline shards' tries; None as soon as one shard is remote."""
        trees: Dict[LandmarkId, PathTree] = {}
        for shard in self._shards:
            if not isinstance(shard, ManagementServer):
                return None
            trees.update(shard._trees)
        return trees

    def _compute_neighbors(
        self,
        peer_id: PeerId,
        k: Optional[int] = None,
        local: Optional[List[Tuple[PeerId, float]]] = None,
    ) -> List[Tuple[PeerId, float]]:
        """Home-shard tree query (or ``local``, the list an arrival's
        ``join_paths`` brought back) plus, if short, the inter-shard fill merge."""
        k = k or self.neighbor_set_size
        path = self._paths[peer_id]
        self.stats.tree_queries += 1
        neighbors = local
        if neighbors is None:
            neighbors = self._shards[self._landmark_shard[path.landmark_id]].local_closest(peer_id, k)
        if len(neighbors) >= k:
            return neighbors
        # A fill reads only foreign landmarks: it never names the peer or
        # one of its local neighbours.
        for estimate, _, other_peer in self._inter_shard_candidates(
            path.landmark_id, path.hop_count, k - len(neighbors)
        ):
            neighbors.append((other_peer, estimate))
        return neighbors

    def _inter_shard_candidates(
        self, landmark_id: LandmarkId, own_hops: int, need: int
    ) -> Iterator[Tuple[float, str, PeerId]]:
        """The first ``need`` candidates of the inter-shard fill merge.

        The coordinator computes, per shard, the detour-estimate base of each
        of its landmarks and asks every shard holding one for its first
        ``need`` candidates; this merge interleaves the shards' lists on
        ``(estimate, repr(peer))``.  Unless two peers' ``repr``s collide that
        order is total, so the merged sequence is independent of how
        landmarks are partitioned — the equivalence guarantee.
        """
        lists = []
        for shard_index, shard in enumerate(self._shards):
            bases = self._fill_bases(self._shard_landmarks[shard_index], landmark_id, own_hops)
            if bases:
                lists.append(shard.fill_candidates(bases, need))
        return islice(heapq.merge(*lists, key=RANK), need)

    # ------------------------------------------------------------ degradation

    def health(self) -> PlaneHealth:
        """Per-shard liveness plus the degraded-query counter.

        Backends exposing ``health_check`` (process shards) are probed; pure
        in-process shards cannot fail independently and report alive.
        """
        reports = []
        for index, shard in enumerate(self._shards):
            name = str(getattr(shard, "name", f"shard-{index}"))
            probe = getattr(shard, "health_check", None)
            alive = bool(probe()) if callable(probe) else True
            reports.append(ShardHealth(index=index, name=name, alive=alive))
        return PlaneHealth(
            shards=tuple(reports), degraded_queries=self.stats.degraded_queries
        )

    def _degraded_neighbors(
        self, peer_id: PeerId, k: int, error: ShardUnavailableError
    ) -> DegradedResult:
        """Best-effort ``closest_peers`` answer while a shard is down.

        Assembles up to ``k`` candidates from, in order: the coordinator's
        cached list for the peer (the best known answer as of the last
        successful compute), the home shard's tree (guarded — it is often
        the shard that just failed), and the healthy shards' fills.
        Every shard touch is guarded, so a still-dead shard narrows the
        answer instead of failing it.  The result is a
        :class:`DegradedResult` and is never written back to the cache; the
        next query after recovery recomputes the full answer.
        """
        # The cached list: no peer twice, never its owner, [] without a cache.
        pairs = self.neighbor_list(peer_id)
        already = {peer_id, *(peer for peer, _ in pairs)}
        path = self._paths[peer_id]
        landmark_id, own_hops = path.landmark_id, path.hop_count
        if len(pairs) < k:
            try:
                local = self._shards[self._landmark_shard[landmark_id]].local_closest(
                    peer_id, k
                )
            except ShardUnavailableError:
                local = []
            for peer, distance in local:
                if len(pairs) >= k:
                    break
                if peer not in already:
                    pairs.append((peer, distance))
                    already.add(peer)
        if len(pairs) < k:
            # k from each shard: the cached list may hold up to len(pairs)
            # of the candidates, so at most k are consumed.
            lists = []
            for shard_index, shard in enumerate(self._shards):
                bases = self._fill_bases(
                    self._shard_landmarks[shard_index], landmark_id, own_hops
                )
                if not bases:
                    continue
                try:
                    lists.append(shard.fill_candidates(bases, k))
                except ShardUnavailableError:
                    continue
            for estimate, _, other_peer in heapq.merge(*lists, key=RANK):
                if len(pairs) >= k:
                    break
                if other_peer not in already:
                    pairs.append((other_peer, estimate))
                    already.add(other_peer)
        return DegradedResult(
            pairs[:k], shard=getattr(error, "shard", None), reason=str(error)
        )

    def __repr__(self) -> str:
        return (
            f"ShardedManagementServer(shards={self.shard_count}, peers={self.peer_count}, "
            f"landmarks={len(self._landmark_shard)}, k={self.neighbor_set_size}, "
            f"cache={'on' if self.maintain_cache else 'off'})"
        )
