"""``serving-epochs``: mutate, publish, read — the snapshot serving plane.

A ``SnapshotPublisher`` wraps the same inline population the churn
workloads use.  One thread alternates a batch of mutations (leaves and
re-joins through the publisher), a timed ``publish()`` that freezes the
plane into the next immutable snapshot, and a run of ``SnapshotReader``
queries of which a quarter are cold.  The snapshot rebuild dominates the
wall clock; the reads are what a client sees, and the cold ones (which walk
the flat trie) are the headline op.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from repro import ManagementServer
from repro.core import SnapshotPublisher, SnapshotReader

from ..harness import RoundSample
from ..inputs import COLD_QUERY, LEAVE, ChurnStream, landmark_distances
from .base import Check, Finish, Workload, well_formed
from .plane_churn import build_population, populate

_now = time.perf_counter_ns

MUTATION_MIX = (0.0, 0.0, 0.5, 0.5)
READ_MIX = (0.75, 0.25, 0.0, 0.0)


class ServingEpochs(Workload):
    name = "serving-epochs"

    def __init__(self, seed: int, params: Dict[str, float]) -> None:
        super().__init__(seed, params)
        self.k = int(params["k"])
        self.cold_k = 2 * self.k
        self.paths = build_population(seed, params)
        self.publisher: SnapshotPublisher
        self.reader: SnapshotReader
        self.stream: ChurnStream

    def setup(self) -> None:
        plane = ManagementServer(
            neighbor_set_size=self.k,
            landmark_distances=landmark_distances(int(self.params["landmarks"])),
        )
        populate(plane, self.paths, self.params)
        self.publisher = SnapshotPublisher(plane)
        self.reader = SnapshotReader(self.publisher)
        self.stream = ChurnStream(
            self.seed, int(self.params["population"]), int(self.params["reserve"])
        )

    def teardown(self) -> None:
        self.publisher.plane.close()

    def round(self, index: int) -> RoundSample:
        publisher, paths = self.publisher, self.paths
        read = self.reader.closest_peers
        mutation: List[int] = []
        publish: List[int] = []
        reads: List[int] = []
        cold_reads: List[int] = []
        answers = []
        failed = 0
        epochs = int(self.params["epochs_per_round"])
        batches = [
            (
                self.stream.take(int(self.params["mutations"]), MUTATION_MIX),
                self.stream.take(int(self.params["reads"]), READ_MIX),
            )
            for _ in range(epochs)
        ]
        loop_started = _now()
        for mutations, queries in batches:
            for kind, peer in mutations:
                try:
                    started = _now()
                    if kind == LEAVE:
                        publisher.unregister_peer(paths[peer].peer_id)
                    else:
                        publisher.register_peer(paths[peer])
                    mutation.append(_now() - started)
                except Exception:  # noqa: BLE001 - a raising op is a counted failure
                    failed += 1
            started = _now()
            publisher.publish()
            publish.append(_now() - started)
            # The mutations above are published, so every queried peer is in
            # the snapshot the reader pins.
            for kind, peer in queries:
                peer_id = paths[peer].peer_id
                try:
                    if kind == COLD_QUERY:
                        started = _now()
                        answer = read(peer_id, self.cold_k)
                        cold_reads.append(_now() - started)
                    else:
                        started = _now()
                        answer = read(peer_id)
                        reads.append(_now() - started)
                except Exception:  # noqa: BLE001
                    failed += 1
                    continue
                answers.append((kind, peer_id, answer))
        wall = _now() - loop_started
        for kind, peer_id, answer in answers:
            if not well_formed(answer, self.cold_k if kind == COLD_QUERY else self.k, peer_id):
                failed += 1
        ops = epochs * (int(self.params["mutations"]) + 1 + int(self.params["reads"]))
        return RoundSample(
            ops=ops,
            wall_ns=wall,
            latencies_ns={
                "snapshot_query": reads,
                "cold_snapshot_query": cold_reads,
                "mutation": mutation,
                "publish": publish,
            },
            # The cold read walks the flat trie; the warm one is a 2 us tuple slice.
            headline="cold_snapshot_query",
            failed=failed,
        )

    def finish(self) -> Finish:
        """After the last epoch, sampled snapshot answers equal the live plane's."""
        finish = Finish()
        self.publisher.publish()
        rng = random.Random(f"{self.seed}:snapshot-check")
        plane = self.publisher.plane
        # Distinct peers: a live cold query rewrites that peer's cached list,
        # so asking the live plane twice about one peer would not compare like
        # with like.
        sample = rng.sample(self.stream.live, min(int(self.params["check_samples"]), len(self.stream.live)))
        wrong = 0
        for index in sample:
            peer_id = self.paths[index].peer_id
            k = self.cold_k if rng.random() < 0.25 else self.k
            if self.reader.closest_peers(peer_id, k) != plane.closest_peers(peer_id, k):
                wrong += 1
        samples = len(sample)
        finish.checks.append(
            Check(
                "snapshot answers == live answers after the last epoch",
                samples,
                wrong == 0,
                f"{wrong} of {samples} sampled answers differ",
            )
        )
        return finish
