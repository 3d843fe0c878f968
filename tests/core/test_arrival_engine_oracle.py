"""Equivalence oracle for the interned, batch-aware arrival engine.

PR 5 rebuilt the registration hot path: interned sort keys replace on-the-fly
``repr`` in every ordering, the trie nodes are slotted, and
``register_peers`` computes co-arriving neighbour lists through one shared
frontier per attachment cluster instead of one tree walk per newcomer.  None
of that is allowed to change a single byte of output.

This harness pins that with a **reference implementation kept in the tests**:
:class:`ReferencePlane` computes registration results the slow, obviously
correct way — brute-force path-pair ``dtree`` ranking sorted by
``(distance, repr(peer))``, an exhaustive cross-landmark fill, and a
line-by-line transliteration of the paper's ordered-list cache propagation —
with no interning, no trie, no clustering.  Every management plane
(single server, sharded coordinator over inline shards, sharded coordinator
over process shards; 1–8 shards) must match it exactly:

* ``register_peer`` / ``register_peers`` return values (lists, order,
  distances — batch dictionaries in input order);
* the cached neighbour lists after ``propagate_newcomer`` has run (the
  full cache snapshot, so propagation order and evictions are pinned too).

The hypothesis sweep drives the inline planes; the process backend (real
worker processes per example are expensive) runs a long fixed workload at
every shard count in 1–8.  Paths, planes, ops and cases come from the shared
oracle harness (``tests/oracle.py``); the reference is this module's own.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path import RouterPath, tree_distance
from repro.exceptions import UnknownPeerError

from ..oracle import (
    Case,
    apply_op,
    build_plane,
    cache_snapshot,
    cases,
    landmark_distances,
    random_op,
)

MAX_PEERS = 20
MAX_LANDMARKS = 4
#: Shallower trees than the other oracles': ties and shared routers are common.
SHAPE = (2, 2, 3)


# ------------------------------------------------------------------ reference


class ReferencePlane:
    """Brute-force reference for registration results and cache propagation.

    Deliberately naive: O(n) scans, repr computed on the fly, one peer at a
    time.  Shares no code with :mod:`repro.core` beyond the pure-function
    ``tree_distance`` over two stored paths.
    """

    def __init__(self, k: int, distances: Optional[Dict[Tuple[str, str], float]] = None):
        self.k = k
        self.paths: Dict[str, RouterPath] = {}
        self.landmark_of: Dict[str, str] = {}
        self.distances: Dict[Tuple[str, str], float] = {}
        for (a, b), value in (distances or {}).items():
            self.distances[(a, b)] = float(value)
            self.distances[(b, a)] = float(value)
        #: peer -> ordered [(distance, repr(peer), peer)] cache entries.
        self.cache: Dict[str, List[Tuple[float, str, str]]] = {}

    # -- distance arithmetic ------------------------------------------------

    def _landmark_distance(self, a: str, b: str) -> Optional[float]:
        if a == b:
            return 0.0
        return self.distances.get((a, b))

    def _candidates(self, peer_id: str) -> List[Tuple[float, str, str]]:
        """Every reachable candidate of ``peer_id`` in plane order.

        Same-landmark candidates ranked by exact ``dtree`` first; if fewer
        than ``k``, cross-landmark candidates (landmarks with a known
        distance) follow, ranked by the detour estimate.  Both tiers break
        ties on ``repr(candidate)`` — the plane's canonical total order.
        """
        own_path = self.paths[peer_id]
        own_landmark = self.landmark_of[peer_id]
        same = sorted(
            (float(tree_distance(own_path, self.paths[other])), repr(other), other)
            for other in self.paths
            if other != peer_id and self.landmark_of[other] == own_landmark
        )
        if len(same) >= self.k:
            return same
        foreign = sorted(
            (
                float(own_path.hop_count + between + self.paths[other].hop_count),
                repr(other),
                other,
            )
            for other in self.paths
            if self.landmark_of[other] != own_landmark
            for between in [self._landmark_distance(own_landmark, self.landmark_of[other])]
            if between is not None
        )
        return same + foreign

    def _compute(self, peer_id: str) -> List[Tuple[str, float]]:
        return [(peer, distance) for distance, _, peer in self._candidates(peer_id)[: self.k]]

    # -- cache maintenance --------------------------------------------------

    def _store(self, peer_id: str, neighbors: List[Tuple[str, float]]) -> None:
        self.cache[peer_id] = [(distance, repr(peer), peer) for peer, distance in neighbors]

    def _propagate(self, newcomer: str, neighbors: List[Tuple[str, float]]) -> None:
        for peer, distance in neighbors:
            entries = self.cache.get(peer)
            if entries is None:
                continue
            if any(entry[2] == newcomer for entry in entries):
                continue
            if len(entries) >= self.k and distance >= entries[-1][0]:
                continue
            bisect.insort(entries, (distance, repr(newcomer), newcomer))
            del entries[self.k :]

    # -- the public surface the oracle drives -------------------------------

    def register_peer(self, path: RouterPath) -> List[Tuple[str, float]]:
        return self.register_peers([path])[path.peer_id]

    def register_peers(
        self, paths: List[RouterPath]
    ) -> Dict[str, List[Tuple[str, float]]]:
        pending: Dict[str, RouterPath] = {}
        for path in paths:
            # Every occurrence of an already-registered peer goes through a
            # full departure first (the real plane's replace semantics): the
            # peer keeps its last path, moves to the end of the registration
            # order, and its stale cache references are repaired.  ``pending``
            # keeps FIRST-occurrence order — the plane builds it with plain
            # dict overwrites, and the neighbour phase runs in that order.
            if path.peer_id in self.paths:
                self.unregister_peer(path.peer_id)
            self.paths[path.peer_id] = path
            self.landmark_of[path.peer_id] = path.landmark_id
            pending[path.peer_id] = path
        results: Dict[str, List[Tuple[str, float]]] = {}
        for peer_id in pending:
            results[peer_id] = self._compute(peer_id)
        for peer_id in pending:
            self._store(peer_id, results[peer_id])
            self._propagate(peer_id, results[peer_id])
        return results

    def unregister_peer(self, peer_id: str) -> None:
        if peer_id not in self.paths:
            raise UnknownPeerError(peer_id)
        del self.paths[peer_id]
        del self.landmark_of[peer_id]
        self.cache.pop(peer_id, None)
        for entries in self.cache.values():
            entries[:] = [entry for entry in entries if entry[2] != peer_id]

    def cache_snapshot(self) -> Dict[str, List[Tuple[str, float]]]:
        return {
            owner: [(peer, distance) for distance, _, peer in entries]
            for owner, entries in self.cache.items()
        }


# ------------------------------------------------------------------- driver


def run_oracle_case(backend: str, case) -> None:
    """Every op on the plane and the reference: same outcomes, same cache."""
    shard_count = None if backend == "single" else case.shard_count
    plane = build_plane(shard_count, *case[1:-1], backend=backend)
    reference = ReferencePlane(
        case.k, landmark_distances(case.landmark_count) if case.with_distances else None
    )
    try:
        for op in case.ops:
            assert apply_op(plane, op) == apply_op(reference, op), op
            assert cache_snapshot(plane) == reference.cache_snapshot(), op
        assert plane.peers() == list(reference.paths)
    finally:
        plane.close()


#: The cases of the hypothesis sweep; every plane keeps its neighbour cache.
ORACLE_CASES = cases(
    MAX_LANDMARKS, caches=st.just(True), peers=MAX_PEERS, shape=SHAPE, batch_size=8
)


class TestArrivalEngineOracle:
    """The new arrival engine vs. the brute-force reference, per backend."""

    @settings(max_examples=40, deadline=None)
    @given(case=ORACLE_CASES)
    def test_single_server_matches_reference(self, case):
        run_oracle_case("single", case)

    @settings(max_examples=25, deadline=None)
    @given(case=ORACLE_CASES)
    def test_sharded_inline_matches_reference(self, case):
        run_oracle_case("inline", case)


class TestArrivalEngineOracleAcceptance:
    """Fixed long workloads: every backend, every shard count 1–8.

    The process backend spawns one worker per shard, so it runs the
    deterministic sweep instead of the hypothesis budget.
    """

    def _fixed_case(self, shard_count: int, seed: int) -> Case:
        rng = random.Random(seed)
        ops = [random_op(rng, (0.45, 0.75, 1.0), MAX_PEERS, 3, (1, 7), SHAPE) for _ in range(120)]
        return Case(shard_count, 3, True, True, 3, ops)

    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    def test_inline_sweep(self, shard_count):
        run_oracle_case("inline", self._fixed_case(shard_count, 31_000 + shard_count))

    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    def test_process_sweep(self, shard_count):
        run_oracle_case("process", self._fixed_case(shard_count, 32_000 + shard_count))

    def test_single_server_sweep(self):
        run_oracle_case("single", self._fixed_case(1, 33_000))

