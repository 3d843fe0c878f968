"""``plane-churn-inline`` and ``plane-churn-socket``: one op stream, two planes.

Both build the same synthetic population (per-landmark three-level access
hierarchies) and drive the same stationary mix of cached queries, cold
queries, leaves and re-joins through the management-plane facade; only
where the landmark trees live differs.  The inline plane is the control
that bypasses wire, serving and simulation; the socket plane puts codec,
transport and the shard supervisor under the very same ops and adds
compaction and restart-with-replay after the loop.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro import ManagementServer, RouterPath, ShardedManagementServer
from repro.core import shard_factory_for
from repro.core.path import tree_distance

from ..harness import RoundSample
from ..inputs import (
    COLD_QUERY,
    LEAVE,
    OP_NAMES,
    QUERY,
    ChurnStream,
    landmark_distances,
    landmark_ids,
    synthetic_paths,
)
from .base import Check, Finish, Workload, answers_digest, well_formed

_now = time.perf_counter_ns


def build_population(seed: int, params: Dict[str, float]) -> List[RouterPath]:
    """The live population followed by the absent reserve, as facade paths."""
    specs = synthetic_paths(
        seed, int(params["population"] + params["reserve"]), int(params["landmarks"])
    )
    return [RouterPath.from_routers(*spec) for spec in specs]


def populate(server, paths: List[RouterPath], params: Dict[str, float]) -> None:
    for landmark in landmark_ids(int(params["landmarks"])):
        server.register_landmark(landmark, landmark)
    server.register_peers(paths[: int(params["population"])])


def run_ops(server, paths: List[RouterPath], ops, cold_k: int):
    """Drive ``ops`` through the plane; returns per-kind latencies, answers, failures.

    An op that raises is a failed op; its answer slot holds the exception's
    type name so a digest still tells two planes apart.
    """
    closest, register, unregister = (
        server.closest_peers,
        server.register_peer,
        server.unregister_peer,
    )
    latencies: Tuple[List[int], ...] = ([], [], [], [])
    answers: List[object] = []
    failed = 0
    for kind, peer in ops:
        path = paths[peer]
        try:
            if kind == QUERY:
                started = _now()
                answer = closest(path.peer_id)
                elapsed = _now() - started
            elif kind == COLD_QUERY:
                started = _now()
                answer = closest(path.peer_id, cold_k)
                elapsed = _now() - started
            elif kind == LEAVE:
                started = _now()
                answer = unregister(path.peer_id)
                elapsed = _now() - started
            else:
                started = _now()
                answer = register(path)
                elapsed = _now() - started
        except Exception as error:  # noqa: BLE001 - a raising op is a counted failure
            failed += 1
            answers.append(type(error).__name__)
            continue
        latencies[kind].append(elapsed)
        answers.append(answer)
    return latencies, answers, failed


class PlaneChurn(Workload):
    """The churn mix against a single in-process ``ManagementServer``."""

    name = "plane-churn-inline"

    def __init__(self, seed: int, params: Dict[str, float], paths=None) -> None:
        super().__init__(seed, params)
        self.k = int(params["k"])
        self.cold_k = 2 * self.k
        self.paths = paths if paths is not None else build_population(seed, params)
        self.server = None
        self.stream: ChurnStream
        self.first_answers: List[Tuple[int, object]] = []

    # ------------------------------------------------------------ lifecycle

    def _new_plane(self):
        return ManagementServer(
            neighbor_set_size=self.k,
            landmark_distances=landmark_distances(int(self.params["landmarks"])),
        )

    def setup(self) -> None:
        self.server = self._new_plane()
        populate(self.server, self.paths, self.params)
        self.stream = ChurnStream(
            self.seed, int(self.params["population"]), int(self.params["reserve"])
        )
        self.first_answers = []

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # ---------------------------------------------------------------- rounds

    def round(self, index: int) -> RoundSample:
        ops = self.stream.take(int(self.params["ops_per_round"]))
        started = _now()
        latencies, answers, failed = run_ops(self.server, self.paths, ops, self.cold_k)
        wall = _now() - started
        failed += self._malformed(ops, answers)
        missing = int(self.params["digest_ops"]) - len(self.first_answers)
        if missing > 0:
            self.first_answers.extend(
                (kind, answer) for (kind, _), answer in zip(ops[:missing], answers)
            )
        return RoundSample(
            ops=len(ops),
            wall_ns=wall,
            latencies_ns=dict(zip(OP_NAMES, latencies)),
            headline="join",
            failed=failed,
        )

    def _malformed(self, ops, answers) -> int:
        bad = 0
        for (kind, peer), answer in zip(ops, answers):
            if isinstance(answer, str) or kind == LEAVE:
                continue
            limit = self.cold_k if kind == COLD_QUERY else self.k
            if not well_formed(answer, limit, self.paths[peer].peer_id):
                bad += 1
        return bad

    # ---------------------------------------------------------------- finish

    def counters(self) -> Dict[str, float]:
        stats = self.server.stats
        created, touched = self.server.total_insert_work()
        return {
            "queries": stats.queries,
            "cache_hits": stats.cache_hits,
            "cache_refills": stats.cache_refills,
            "tree_queries": stats.tree_queries,
            "registrations": stats.registrations,
            "tree_visits": self.server.total_tree_visits(),
            "insert_nodes_touched": touched,
        }

    def finish(self) -> Finish:
        finish = Finish(digest=answers_digest(self.first_answers))
        finish.checks.append(self._brute_force_check())
        return finish

    def _brute_force_check(self) -> Check:
        """Sampled cold answers against an exhaustive scan of the live paths.

        Cold queries walk the trie, so they are exact (cached lists are only
        repaired around a newcomer's own neighbours and may lag the optimum).
        The plane orders candidates by ``(dtree, repr(peer))``; with every
        landmark tree holding far more than ``2k`` peers no cross-landmark
        fill is involved, so the scan needs the peer's own landmark only.
        """
        rng = random.Random(f"{self.seed}:brute-force")
        live = [self.paths[index] for index in self.stream.live]
        by_landmark: Dict[str, List[RouterPath]] = {}
        for path in live:
            by_landmark.setdefault(path.landmark_id, []).append(path)
        sample = rng.sample(live, min(int(self.params["check_samples"]), len(live)))
        wrong = 0
        for path in sample:
            ranked = sorted(
                (tree_distance(path, other), repr(other.peer_id), other.peer_id)
                for other in by_landmark[path.landmark_id]
                if other.peer_id != path.peer_id
            )
            expected = [(peer, float(distance)) for distance, _, peer in ranked[: self.cold_k]]
            if self.server.closest_peers(path.peer_id, self.cold_k) != expected:
                wrong += 1
        return Check(
            "cold answers == brute force over live paths",
            len(sample),
            wrong == 0,
            f"{wrong} of {len(sample)} sampled answers differ",
        )


class PlaneChurnSocket(PlaneChurn):
    """The same stream against two socket-backed shards, then recovery."""

    name = "plane-churn-socket"

    def _new_plane(self):
        return ShardedManagementServer(
            shard_count=int(self.params["shards"]),
            neighbor_set_size=self.k,
            landmark_distances=landmark_distances(int(self.params["landmarks"])),
            shard_factory=shard_factory_for("socket", self.k),
        )

    def finish(self) -> Finish:
        finish = Finish(digest=answers_digest(self.first_answers))
        finish.checks.append(self._brute_force_check())
        self._recovery(finish)
        finish.checks.append(self._twin_check(finish.digest))
        return finish

    def _recovery(self, finish: Finish) -> None:
        """Per shard: ``compact()`` then timed ``restart()``s, answers unchanged."""
        rng = random.Random(f"{self.seed}:recovery")
        probes = [
            self.paths[index].peer_id
            for index in rng.sample(self.stream.live, min(50, len(self.stream.live)))
        ]
        # Cold queries bypass the coordinator's cache, so they ask the shards.
        before = [self.server.closest_peers(peer, self.cold_k) for peer in probes]
        restart_ms: List[float] = []
        journal_len = snapshot_bytes = 0
        counts_match = True
        for shard in self.server.shards:
            journal_len += shard.supervisor.journal_length
            snapshot_bytes += shard.compact()
            peers_before = _shard_peers(shard)
            for _ in range(int(self.params["restarts"])):
                started = _now()
                shard.restart()
                restart_ms.append((_now() - started) / 1e6)
            counts_match = counts_match and _shard_peers(shard) == peers_before
        after = [self.server.closest_peers(peer, self.cold_k) for peer in probes]
        finish.timings_ms["recovery"] = restart_ms
        finish.values["recovery.journal_len"] = journal_len
        finish.values["recovery.snapshot_bytes"] = snapshot_bytes
        finish.checks.append(
            Check(
                "restarted shards hold the pre-restart peers and answers",
                len(restart_ms),
                counts_match and before == after,
                f"peer counts equal: {counts_match}; probe answers equal: {before == after}",
            )
        )

    def _twin_check(self, digest: str) -> Check:
        """The first answers against an inline server fed the same stream."""
        twin = PlaneChurn(self.seed, self.params, paths=self.paths)
        twin.setup()
        stream_ops = twin.stream.take(len(self.first_answers))
        _, answers, _ = run_ops(twin.server, twin.paths, stream_ops, twin.cold_k)
        expected = answers_digest([(kind, answer) for (kind, _), answer in zip(stream_ops, answers)])
        twin.teardown()
        return Check(
            "sharded answers digest == single-server digest",
            len(self.first_answers),
            digest == expected,
            f"socket {digest[:12]} vs inline {expected[:12]}",
        )


def _shard_peers(shard) -> int:
    """Live peers on one shard, from the shard server's own counters."""
    stats = shard.worker_stats()
    return stats["registrations"] - stats["removals"]
