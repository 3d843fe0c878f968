"""The paper's super-peer deployment, run as shards of the sharded plane.

Each shard plays one super-peer: it owns a subset of the landmarks (placed by
the consistent-hash ring) and holds the path trees of the peers registered
under them, while the coordinator answers every query exactly as the single
management server would.  These tests pin the deployment-level behaviour:
who owns what, where a registration lands, how sparse landmarks are filled
from other shards, and what a departure or a move does to the other shards.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import ConsistentHashRing, ManagementServer, ShardedManagementServer
from repro.exceptions import ConfigurationError, LandmarkError, RegistrationError, UnknownPeerError

from ..oracle import path


LANDMARKS = [("lmA", "lmA"), ("lmB", "lmB"), ("lmC", "lmC"), ("lmD", "lmD")]
LANDMARK_DISTANCES = {
    ("lmA", "lmB"): 4.0,
    ("lmA", "lmC"): 6.0,
    ("lmA", "lmD"): 8.0,
    ("lmB", "lmC"): 5.0,
    ("lmB", "lmD"): 7.0,
    ("lmC", "lmD"): 3.0,
}
ROUTES = [
    ("p1", ["a1", "core", "lmA"], "lmA"),
    ("p2", ["a1", "core", "lmA"], "lmA"),
    ("p3", ["b1", "lmB"], "lmB"),
    ("p4", ["c1", "c2", "lmC"], "lmC"),
]


def deploy(shard_count=2, k=3, server_class=ShardedManagementServer):
    if server_class is ShardedManagementServer:
        plane = ShardedManagementServer(
            shard_count, neighbor_set_size=k, landmark_distances=LANDMARK_DISTANCES
        )
    else:
        plane = ManagementServer(neighbor_set_size=k, landmark_distances=LANDMARK_DISTANCES)
    for landmark_id, router in LANDMARKS:
        plane.register_landmark(landmark_id, router)
    return plane


@pytest.fixture()
def plane() -> ShardedManagementServer:
    return deploy()


@pytest.fixture()
def populated(plane) -> ShardedManagementServer:
    for peer, routers, landmark in ROUTES:
        plane.register_peer(path(peer, routers, landmark))
    return plane


def other_shard_landmark(plane, landmark_id):
    """A landmark owned by a different shard than ``landmark_id``'s."""
    home = plane.shard_of(landmark_id)
    return next(lm for lm in plane.landmarks() if plane.shard_of(lm) != home)


class TestLandmarkPlacement:
    def test_every_landmark_is_owned_by_exactly_one_shard(self, plane):
        owned = [lm for index in range(plane.shard_count) for lm in plane.shard_landmarks(index)]
        assert sorted(owned) == sorted(plane.landmarks())
        assert len(owned) == len(set(owned))

    def test_placement_is_the_consistent_hash_ring(self, plane):
        ring = ConsistentHashRing(plane.shard_count)
        for landmark_id, _ in LANDMARKS:
            assert plane.shard_of(landmark_id) == ring.node_for(landmark_id)

    def test_two_shards_both_own_landmarks(self, plane):
        assert {plane.shard_of(lm) for lm, _ in LANDMARKS} == {0, 1}

    def test_shard_landmarks_keep_registration_order(self, plane):
        order = [lm for lm, _ in LANDMARKS]
        for index in range(plane.shard_count):
            owned = plane.shard_landmarks(index)
            assert owned == sorted(owned, key=order.index)

    def test_shard_landmarks_is_a_copy(self, plane):
        plane.shard_landmarks(0).append("intruder")
        assert "intruder" not in plane.shard_landmarks(0)

    def test_more_shards_than_landmarks_leaves_some_shards_idle(self):
        plane = deploy(shard_count=8)
        idle = [index for index in range(8) if not plane.shard_landmarks(index)]
        assert len(idle) >= 8 - len(LANDMARKS)
        for peer, routers, landmark in ROUTES:
            plane.register_peer(path(peer, routers, landmark))
        assert plane.peer_count == len(ROUTES)
        for index in idle:
            assert plane.shards[index].peer_count == 0

    @pytest.mark.parametrize("shard_count", [0, -1])
    def test_shard_count_must_be_positive(self, shard_count):
        with pytest.raises(ConfigurationError):
            ShardedManagementServer(shard_count)


class TestDeployment:
    def test_each_shard_is_a_cacheless_management_server(self, plane):
        assert len(plane.shards) == 2
        for shard in plane.shards:
            assert isinstance(shard, ManagementServer)
            assert not shard.maintain_cache

    def test_a_shard_knows_only_its_own_landmarks(self, plane):
        for index, shard in enumerate(plane.shards):
            assert sorted(shard.landmarks()) == sorted(plane.shard_landmarks(index))

    def test_landmark_router_lookup(self, plane):
        assert plane.landmark_router("lmC") == "lmC"
        with pytest.raises(LandmarkError):
            plane.landmark_router("lmZ")

    def test_landmark_distances_live_on_the_coordinator(self, plane):
        assert plane.landmark_distance("lmA", "lmD") == 8.0
        assert plane.landmark_distance("lmD", "lmA") == 8.0
        assert plane.landmark_distance("lmC", "lmC") == 0.0


class TestRegistration:
    def test_registration_lands_on_the_landmark_owner(self, populated):
        for peer, _, landmark in ROUTES:
            home = populated.shard_of(landmark)
            assert populated.peer_shard(peer) == home
            for index, shard in enumerate(populated.shards):
                assert shard.has_peer(peer) == (index == home)

    def test_load_by_shard_counts_every_peer_once(self, populated):
        load = Counter(populated.peer_shard(peer) for peer in populated.peers())
        assert sum(load.values()) == populated.peer_count == len(ROUTES)
        for index, shard in enumerate(populated.shards):
            assert load.get(index, 0) == shard.peer_count

    def test_same_landmark_neighbors_preferred(self, populated):
        neighbors = populated.register_peer(path("p5", ["a9", "a1", "core", "lmA"], "lmA"))
        assert [peer for peer, _ in neighbors][:2] == ["p1", "p2"]

    def test_sparse_landmark_is_filled_from_other_shards(self, populated):
        # p4 is alone under lmC, whose shard holds nobody else: its list is
        # the cross-landmark fill, priced by the landmark detour.
        assert populated.shard_landmarks(populated.peer_shard("p4")) == ["lmC"]
        neighbors = populated.closest_peers("p4", k=3)
        assert [peer for peer, _ in neighbors] == ["p3", "p1", "p2"]
        assert [distance for _, distance in neighbors] == [3 + 5.0 + 2, 3 + 6.0 + 3, 3 + 6.0 + 3]

    def test_unregister(self, populated):
        home = populated.shards[populated.peer_shard("p2")]
        populated.unregister_peer("p2")
        assert not populated.has_peer("p2")
        assert not home.has_peer("p2")
        assert populated.peer_count == 3
        with pytest.raises(UnknownPeerError):
            populated.unregister_peer("p2")

    def test_departure_repairs_lists_owned_on_other_shards(self, populated):
        assert "p1" in [peer for peer, _ in populated.neighbor_list("p4")]
        assert populated.peer_shard("p4") != populated.peer_shard("p1")
        populated.unregister_peer("p1")
        assert "p1" not in [peer for peer, _ in populated.neighbor_list("p4")]
        assert "p1" not in [peer for peer, _ in populated.closest_peers("p4")]
        assert populated._referenced_by.get("p1", set()) == set()

    def test_moving_to_a_landmark_of_another_shard(self, populated):
        old_shard = populated.peer_shard("p1")
        target = other_shard_landmark(populated, "lmA")
        populated.register_peer(path("p1", ["x9", target], target))
        assert populated.peer_landmark("p1") == target
        assert populated.peer_shard("p1") == populated.shard_of(target) != old_shard
        assert populated.peer_count == len(ROUTES)
        # The old shard no longer knows the peer.
        assert not populated.shards[old_shard].has_peer("p1")

    def test_unknown_landmark_rejected_and_nothing_registered(self, populated):
        with pytest.raises(RegistrationError):
            populated.register_peer(path("p9", ["x", "lmZ"], "lmZ"))
        assert not populated.has_peer("p9")
        assert populated.peer_count == len(ROUTES)


class TestDistances:
    def test_same_landmark_distance_uses_the_tree(self, populated):
        assert populated.estimate_distance("p1", "p2") == 2.0

    def test_cross_landmark_distance_uses_the_landmark_detour(self, populated):
        # p1: 3 hops to lmA; p3: 2 hops to lmB; lmA-lmB = 4.
        assert populated.estimate_distance("p1", "p3") == 3 + 4.0 + 2

    def test_cross_shard_distance_is_symmetric(self, populated):
        assert populated.peer_shard("p3") != populated.peer_shard("p4")
        assert populated.estimate_distance("p3", "p4") == populated.estimate_distance("p4", "p3")

    @pytest.mark.parametrize("pair", [("p1", "ghost"), ("ghost", "ghost")])
    @pytest.mark.parametrize("server_class", [ManagementServer, ShardedManagementServer])
    def test_unknown_peer_raises(self, server_class, pair):
        plane = deploy(server_class=server_class)
        for peer, routers, landmark in ROUTES:
            plane.register_peer(path(peer, routers, landmark))
        with pytest.raises(UnknownPeerError):
            plane.estimate_distance(*pair)

    def test_repr(self, populated):
        text = repr(populated)
        assert "shards=2" in text and "peers=4" in text and "landmarks=4" in text


@pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 8])
def test_every_deployment_answers_like_the_single_server(shard_count):
    """Splitting landmarks over super-peers never changes an answer."""
    single = deploy(server_class=ManagementServer)
    sharded = deploy(shard_count=shard_count)
    routes = ROUTES + [
        ("p5", ["a2", "core", "lmA"], "lmA"),
        ("p6", ["d1", "lmD"], "lmD"),
        ("p7", ["c3", "c2", "lmC"], "lmC"),
    ]
    for peer, routers, landmark in routes:
        assert single.register_peer(path(peer, routers, landmark)) == sharded.register_peer(
            path(peer, routers, landmark)
        )
    single.unregister_peer("p2")
    sharded.unregister_peer("p2")
    for peer in single.peers():
        assert sharded.closest_peers(peer) == single.closest_peers(peer), peer
