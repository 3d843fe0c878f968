"""Degraded-mode serving: reads narrow gracefully, mutations fail typed.

While a shard is down (and no recovery policy is healing it), the sharded
plane's ``closest_peers`` serves a best-effort answer assembled from the
coordinator's neighbour cache and the healthy shards' candidate streams,
tagged as a :class:`~repro.core.DegradedResult` and counted in
``stats.degraded_queries``.  Degraded answers are never cached.  Mutations
never degrade: they keep failing typed and atomic.  ``health()`` reports
per-shard liveness so operators can tell degraded from healthy serving.

The tests pin two landmarks that consistent-hash onto *different* shards of
a two-shard plane (asserted, not assumed), and query with
``k > neighbor_set_size`` so the cache's serve-from-warm path cannot mask
the computation (warm queries keep answering through an outage by design —
covered in ``test_remote_backend.py``).
"""

from __future__ import annotations

import pytest

from repro.core import (
    DegradedResult,
    ManagementServer,
    PlaneHealth,
    ShardedManagementServer,
    ShardHealth,
)
from repro.core.remote import shard_factory_for
from repro.exceptions import ShardUnavailableError

from ..oracle import simple_path

# With two shards, "lmA" and "lmC" land on different shards of the
# consistent-hash ring (make_plane asserts this instead of trusting it).
LM_X, LM_Y = "lmA", "lmC"
BIG_K = 6  # > neighbor_set_size: forces the compute path past the cache


def make_plane(k=3, degraded_reads=True, maintain_cache=True):
    server = ShardedManagementServer(
        2,
        neighbor_set_size=k,
        maintain_cache=maintain_cache,
        landmark_distances={(LM_X, LM_Y): 4.0},
        shard_factory=shard_factory_for("process", k),
        degraded_reads=degraded_reads,
    )
    for landmark in (LM_X, LM_Y):
        server.register_landmark(landmark, landmark)
    assert server.shard_of(LM_X) != server.shard_of(LM_Y)
    return server


def seed(server, count=6):
    """Even peers under LM_X, odd peers under LM_Y."""
    server.register_peers(
        [
            simple_path(f"p{i}", LM_X if i % 2 == 0 else LM_Y, access=f"a{i % 3}")
            for i in range(count)
        ]
    )


def kill_shard_of(server, landmark):
    victim = server.shards[server.shard_of(landmark)]
    victim.supervisor.process.kill()
    victim.supervisor.process.join()
    return victim


class TestDegradedReads:
    def test_degrades_seeded_from_the_coordinator_cache(self):
        server = make_plane()
        try:
            seed(server)
            warm = server.closest_peers("p0")  # the cached best-known answer
            assert warm
            kill_shard_of(server, LM_X)  # p0's home shard
            answer = server.closest_peers("p0", k=BIG_K)
            assert isinstance(answer, DegradedResult)
            # The cached entries lead the degraded answer, in cache order.
            assert list(answer)[: len(warm)] == list(warm)
            assert answer.reason  # carries the failure it degraded around
            assert server.stats.degraded_queries == 1
        finally:
            server.close()

    def test_cold_query_assembles_from_the_healthy_shard(self):
        server = make_plane(maintain_cache=False)
        try:
            seed(server, count=8)
            victim = kill_shard_of(server, LM_X)  # p0's home shard
            answer = server.closest_peers("p0", k=BIG_K)
            assert isinstance(answer, DegradedResult)
            returned = [peer for peer, _ in answer]
            assert returned  # narrowed, never empty while others are healthy
            assert len(returned) == len(set(returned))  # no duplicates
            for peer in returned:  # only survivors can appear
                assert server.shards[server.peer_shard(peer)] is not victim
                assert server.peer_landmark(peer) == LM_Y
        finally:
            server.close()

    def test_degraded_answers_are_never_cached(self):
        server = make_plane()
        try:
            seed(server)
            before = [
                (entry.peer_id, entry.distance)
                for entry in server._neighbor_cache.get("p0") or ()
            ]
            kill_shard_of(server, LM_X)
            assert isinstance(server.closest_peers("p0", k=BIG_K), DegradedResult)
            assert isinstance(server.closest_peers("p0", k=BIG_K), DegradedResult)
            after = [
                (entry.peer_id, entry.distance)
                for entry in server._neighbor_cache.get("p0") or ()
            ]
            assert after == before  # degraded answers never wrote back
            assert server.stats.degraded_queries == 2
        finally:
            server.close()

    def test_recovered_shard_returns_full_fidelity_answers(self):
        reference = ManagementServer(
            neighbor_set_size=3, landmark_distances={(LM_X, LM_Y): 4.0}
        )
        for landmark in (LM_X, LM_Y):
            reference.register_landmark(landmark, landmark)
        server = make_plane()
        try:
            seed(server)
            reference.register_peers(
                [
                    simple_path(f"p{i}", LM_X if i % 2 == 0 else LM_Y, access=f"a{i % 3}")
                    for i in range(6)
                ]
            )
            victim = kill_shard_of(server, LM_X)
            assert isinstance(server.closest_peers("p0", k=BIG_K), DegradedResult)
            victim.restart()
            healed = server.closest_peers("p0", k=BIG_K)
            assert not isinstance(healed, DegradedResult)
            assert healed == reference.closest_peers("p0", k=BIG_K)
        finally:
            server.close()

    def test_degraded_reads_off_raises_typed(self):
        server = make_plane(degraded_reads=False)
        try:
            seed(server)
            victim = kill_shard_of(server, LM_X)
            with pytest.raises(ShardUnavailableError) as error:
                server.closest_peers("p0", k=BIG_K)
            assert victim.name in str(error.value)
            assert server.stats.degraded_queries == 0
        finally:
            server.close()


class TestMutationsNeverDegrade:
    def test_mutations_fail_typed_and_atomic_while_reads_degrade(self):
        server = make_plane()
        try:
            seed(server)
            kill_shard_of(server, LM_X)
            # Reads degrade...
            assert isinstance(server.closest_peers("p0", k=BIG_K), DegradedResult)
            # ...mutations on the dead shard do not: typed, atomic.
            with pytest.raises(ShardUnavailableError):
                server.unregister_peer("p0")
            assert server.has_peer("p0")
            with pytest.raises(ShardUnavailableError):
                server.register_peer(simple_path("p9", LM_X, access="a9"))
            assert not server.has_peer("p9")
            # The healthy shard keeps taking mutations throughout.
            server.register_peer(simple_path("p8", LM_Y, access="a9"))
            assert server.has_peer("p8")
        finally:
            server.close()


class TestHealth:
    def test_health_reports_the_dead_shard(self):
        server = make_plane()
        try:
            seed(server)
            assert server.health().healthy
            victim = kill_shard_of(server, LM_X)
            health = server.health()
            assert isinstance(health, PlaneHealth)
            assert not health.healthy
            down = [shard for shard in health.shards if not shard.alive]
            assert [shard.name for shard in down] == [victim.name]
            assert all(isinstance(shard, ShardHealth) for shard in health.shards)
        finally:
            server.close()

    def test_health_counts_degraded_queries(self):
        server = make_plane()
        try:
            seed(server)
            kill_shard_of(server, LM_X)
            server.closest_peers("p0", k=BIG_K)
            server.closest_peers("p0", k=BIG_K)
            assert server.health().degraded_queries == 2
        finally:
            server.close()

    def test_inline_plane_health_is_trivially_alive(self):
        server = ShardedManagementServer(2, neighbor_set_size=3)
        server.register_landmark(LM_X, LM_X)
        health = server.health()
        assert health.healthy
        assert len(health.shards) == 2

    def test_single_server_base_health_is_empty_but_counts(self):
        server = ManagementServer(neighbor_set_size=3)
        health = server.health()
        assert health.healthy
        assert health.shards == ()
        assert health.degraded_queries == 0


class TestShardDiesMidFill:
    """A shard dead at the ``fill_candidates`` read of a cross-shard query
    is never silently partial — the answer either fails typed (degraded
    reads off) or comes back tagged as a DegradedResult.

    The victim here is the *foreign* shard: the peer's home shard stays
    healthy, so the computation gets as far as the foreign shard's fill
    before the death surfaces — a failure mid-query, not on first touch.
    """

    def test_typed_failure_with_degradation_off(self):
        server = make_plane(degraded_reads=False, maintain_cache=False)
        try:
            seed(server, count=8)
            victim = kill_shard_of(server, LM_Y)  # foreign to p0 (home LM_X)
            with pytest.raises(ShardUnavailableError) as error:
                server.closest_peers("p0", k=BIG_K)
            assert victim.name in str(error.value)
        finally:
            server.close()

    def test_degraded_result_with_degradation_on(self):
        server = make_plane(maintain_cache=False)
        try:
            seed(server, count=8)
            victim = kill_shard_of(server, LM_Y)
            answer = server.closest_peers("p0", k=BIG_K)
            assert isinstance(answer, DegradedResult)
            returned = [peer for peer, _ in answer]
            assert returned
            assert len(returned) == len(set(returned))
            for peer in returned:  # never a peer from the dead stream
                assert server.shards[server.peer_shard(peer)] is not victim
                assert server.peer_landmark(peer) == LM_X
        finally:
            server.close()
