"""Unit tests for the sharded management plane (ring, router, coordinator)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import ConsistentHashRing, ManagementServer, ShardBackend, ShardedManagementServer
from repro.exceptions import LandmarkError, RegistrationError, UnknownPeerError
from repro.workloads import synthetic_paths

from ..oracle import simple_path


class TestConsistentHashRing:
    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing(1)
        assert {ring.node_for(f"lm{i}") for i in range(50)} == {0}

    def test_deterministic_across_instances(self):
        a, b = ConsistentHashRing(4), ConsistentHashRing(4)
        for i in range(100):
            assert a.node_for(f"lm{i}") == b.node_for(f"lm{i}")

    def test_keys_spread_over_all_nodes(self):
        ring = ConsistentHashRing(4)
        counts = Counter(ring.node_for(f"landmark-{i}") for i in range(400))
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 30  # near-uniform, not degenerate

    def test_growth_moves_a_minority_of_keys(self):
        """Consistent hashing: growing n -> n+1 relocates ~1/(n+1) of keys."""
        before = ConsistentHashRing(4)
        after = ConsistentHashRing(5)
        keys = [f"landmark-{i}" for i in range(500)]
        moved = sum(1 for key in keys if before.node_for(key) != after.node_for(key))
        # A plain modulo hash would move ~80%; consistent hashing ~20%.
        assert moved < len(keys) // 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(Exception):
            ConsistentHashRing(0)
        with pytest.raises(Exception):
            ConsistentHashRing(2, replicas=0)


class TestShardRouting:
    def test_management_server_satisfies_shard_backend(self):
        assert isinstance(ManagementServer(), ShardBackend)

    def test_landmarks_partition_across_shards(self):
        server = ShardedManagementServer(shard_count=4, neighbor_set_size=3)
        for index in range(16):
            server.register_landmark(f"lm{index}", f"r{index}")
        owners = [server.shard_of(f"lm{index}") for index in range(16)]
        assert len(set(owners)) > 1
        for index, owner in enumerate(owners):
            # The landmark's tree lives on (exactly) its owning shard.
            assert server.shards[owner].tree(f"lm{index}") is server.tree(f"lm{index}")
            assert f"lm{index}" in server.shard_landmarks(owner)

    def test_peers_live_on_their_landmark_shard(self):
        server = ShardedManagementServer(shard_count=3, neighbor_set_size=2)
        for index in range(6):
            server.register_landmark(f"lm{index}", f"lm{index}")
        for index in range(6):
            server.register_peer(simple_path(f"p{index}", f"lm{index}"))
        for index in range(6):
            assert server.peer_shard(f"p{index}") == server.shard_of(f"lm{index}")

    def test_duplicate_landmark_rejected(self):
        server = ShardedManagementServer(shard_count=2)
        server.register_landmark("lmA", "r1")
        with pytest.raises(LandmarkError):
            server.register_landmark("lmA", "r2")

    def test_unknown_landmark_and_peer_errors(self):
        server = ShardedManagementServer(shard_count=2)
        with pytest.raises(LandmarkError):
            server.tree("nope")
        with pytest.raises(LandmarkError):
            server.landmark_router("nope")
        with pytest.raises(LandmarkError):
            server.shard_of("nope")
        with pytest.raises(UnknownPeerError):
            server.unregister_peer("ghost")
        with pytest.raises(UnknownPeerError):
            server.closest_peers("ghost")
        with pytest.raises(RegistrationError):
            server.register_peer(simple_path("p0", "nope"))

    def test_shard_count_one_behaves_like_plain_routing(self):
        server = ShardedManagementServer(shard_count=1, neighbor_set_size=2)
        server.register_landmark("lmA", "lmA")
        server.register_peer(simple_path("p0", "lmA"))
        server.register_peer(simple_path("p1", "lmA"))
        assert server.shard_of("lmA") == 0
        assert server.closest_peers("p0") == [("p1", 2.0)]

    def test_the_shard_count_moves_no_work(self):
        """Spreading one 8-landmark population over 1, 2, 4 or 8 shards
        changes no coordinator counter, index work or trie insert work, and
        a plane without churn answers nearly every query from its cache."""
        landmarks = [f"lm{index}" for index in range(8)]
        distances = {
            (a, b): float(2 + j - i)
            for i, a in enumerate(landmarks)
            for j, b in enumerate(landmarks)
            if i < j
        }
        paths = [
            peer_path
            for index, landmark in enumerate(landmarks)
            for peer_path in synthetic_paths(25, index, landmark, prefix=f"{landmark}-")
        ]
        rng = random.Random(2)
        churners = rng.sample(paths, 20)
        queried = [rng.choice(paths).peer_id for _ in range(100)]

        def work(shard_count):
            plane = ShardedManagementServer(
                shard_count, neighbor_set_size=5, landmark_distances=distances
            )
            for landmark in landmarks:
                plane.register_landmark(landmark, landmark)
            plane.register_peers(paths[::2])
            for peer_path in paths[1::2]:
                plane.register_peer(peer_path)
            hits = plane.stats.cache_hits
            for peer in queried:
                plane.closest_peers(peer)
            hits = plane.stats.cache_hits - hits
            for peer_path in churners:
                plane.unregister_peer(peer_path.peer_id)
                plane.register_peers([peer_path])
            work_done = plane.total_tree_visits(), plane.total_insert_work()
            return plane.stats.as_dict(), work_done, hits

        baseline = work(1)
        assert baseline[-1] >= 90
        for shard_count in (2, 4, 8):
            assert work(shard_count) == baseline


class TestCoordinatorSemantics:
    def make(self, shard_count=2, k=3, cache=True):
        distances = {("lmA", "lmB"): 4.0, ("lmA", "lmC"): 6.0, ("lmB", "lmC"): 5.0}
        server = ShardedManagementServer(
            shard_count, neighbor_set_size=k, maintain_cache=cache, landmark_distances=distances
        )
        for landmark in ("lmA", "lmB", "lmC"):
            server.register_landmark(landmark, landmark)
        return server

    def test_batch_members_see_each_other_across_landmarks(self):
        server = self.make()
        results = server.register_peers(
            [
                simple_path("p1", "lmA"),
                simple_path("p2", "lmB"),
                simple_path("p3", "lmB"),
            ]
        )
        # p1 is alone under lmA: its list is filled over the inter-shard
        # protocol with detour estimates through the lmA-lmB distance.
        assert [peer for peer, _ in results["p1"]] == ["p2", "p3"]
        assert all(distance == 3 + 4.0 + 3 for _, distance in results["p1"])

    def test_batch_duplicate_keeps_last_path_and_moves_to_end(self):
        server = self.make()
        server.register_peers(
            [
                simple_path("p1", "lmA"),
                simple_path("p2", "lmB"),
                simple_path("p1", "lmC"),
            ]
        )
        assert server.peer_landmark("p1") == "lmC"
        # The single server removes + reinserts, moving p1 to the end.
        assert server.peers() == ["p2", "p1"]

    def test_reregistration_can_move_a_peer_across_shards(self):
        server = self.make(shard_count=3)
        server.register_peer(simple_path("p1", "lmA"))
        before = server.peer_shard("p1")
        server.register_peer(simple_path("p1", "lmB"))
        assert server.peer_landmark("p1") == "lmB"
        assert server.peer_shard("p1") == server.shard_of("lmB")
        if server.shard_of("lmA") != server.shard_of("lmB"):
            assert before != server.peer_shard("p1")
        assert not server.shards[server.shard_of("lmA")].tree("lmA").has_peer("p1")

    def test_failed_batch_mutates_nothing(self):
        server = self.make()
        with pytest.raises(RegistrationError):
            server.register_peers(
                [simple_path("p1", "lmA"), simple_path("bad", "unknown-lm")]
            )
        assert server.peer_count == 0
        assert server._neighbor_cache == {}

    def test_maintain_cache_false_keeps_coordinator_cache_empty(self):
        server = self.make(cache=False)
        server.register_peers([simple_path(f"p{i}", "lmA", access=f"a{i}") for i in range(5)])
        server.closest_peers("p0")
        assert server._neighbor_cache == {}
        assert server._referenced_by == {}

    def test_shards_never_maintain_their_own_cache(self):
        server = self.make()
        server.register_peers([simple_path(f"p{i}", "lmB", access=f"a{i}") for i in range(5)])
        assert server._neighbor_cache  # coordinator owns the lists...
        for shard in server.shards:
            assert shard._neighbor_cache == {}  # ...shards own only trees

    def test_estimate_distance_within_and_across_shards(self):
        server = self.make()
        server.register_peers(
            [simple_path("p1", "lmA"), simple_path("p2", "lmA", access="a2"), simple_path("p3", "lmB")]
        )
        assert server.estimate_distance("p1", "p1") == 0.0
        # Different access routers under lmA-core: 2 hops up + 2 hops down.
        assert server.estimate_distance("p1", "p2") == 4.0
        assert server.estimate_distance("p1", "p3") == 3 + 4.0 + 3

    def test_repr_mentions_shards(self):
        server = self.make()
        assert "shards=2" in repr(server)
