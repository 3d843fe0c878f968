"""Tests for the management server (registration, queries, caching)."""

from __future__ import annotations

import pytest

from repro.core.management_server import ManagementServer
from repro.core.serving import DiscoverySnapshot, SnapshotReader
from repro.core.sharded import ShardedManagementServer
from repro.exceptions import LandmarkError, RegistrationError, UnknownPeerError

from ..oracle import path


@pytest.fixture()
def server() -> ManagementServer:
    server = ManagementServer(neighbor_set_size=3)
    server.register_landmark("lmA", "lmA")
    server.register_landmark("lmB", "lmB")
    server.set_landmark_distance("lmA", "lmB", 6)
    return server


@pytest.fixture()
def populated(server) -> ManagementServer:
    server.register_peer(path("p1", ["a1", "a2", "core", "lmA"]))
    server.register_peer(path("p2", ["a3", "a2", "core", "lmA"]))
    server.register_peer(path("p3", ["b1", "core", "lmA"]))
    server.register_peer(path("p4", ["b1", "core", "lmA"]))
    server.register_peer(path("q1", ["x1", "x2", "lmB"], landmark="lmB"))
    return server


class TestLandmarks:
    def test_registration_and_lookup(self, server):
        assert set(server.landmarks()) == {"lmA", "lmB"}
        assert server.landmark_router("lmA") == "lmA"

    def test_duplicate_landmark_rejected(self, server):
        with pytest.raises(LandmarkError):
            server.register_landmark("lmA", "elsewhere")

    def test_unknown_landmark_lookup_raises(self, server):
        with pytest.raises(LandmarkError):
            server.landmark_router("lmZ")
        with pytest.raises(LandmarkError):
            server.tree("lmZ")

    def test_landmark_distance_symmetric(self, server):
        assert server.landmark_distance("lmA", "lmB") == 6
        assert server.landmark_distance("lmB", "lmA") == 6
        assert server.landmark_distance("lmA", "lmA") == 0.0
        assert server.landmark_distance("lmA", "lmZ") is None

    def test_negative_landmark_distance_rejected(self, server):
        with pytest.raises(LandmarkError):
            server.set_landmark_distance("lmA", "lmB", -1)


class TestRegistration:
    def test_register_returns_neighbors(self, server):
        first = server.register_peer(path("p1", ["a1", "core", "lmA"]))
        assert first == []  # nobody else yet
        second = server.register_peer(path("p2", ["a1", "core", "lmA"]))
        assert second == [("p1", 2.0)]
        assert server.peer_count == 2

    def test_register_to_unknown_landmark_rejected(self, server):
        with pytest.raises(RegistrationError):
            server.register_peer(path("p1", ["r", "lmZ"], landmark="lmZ"))

    def test_reregistration_replaces_path(self, populated):
        populated.register_peer(path("p1", ["b1", "core", "lmA"]))
        assert populated.peer_count == 5
        assert populated.peer_path("p1").access_router == "b1"
        # p1 now sits next to p3/p4.
        assert populated.estimate_distance("p1", "p3") == 2.0

    def test_peer_lookups(self, populated):
        assert populated.has_peer("p1")
        assert populated.peer_landmark("p1") == "lmA"
        assert populated.peer_landmark("q1") == "lmB"
        assert set(populated.peers()) == {"p1", "p2", "p3", "p4", "q1"}

    def test_unknown_peer_lookups_raise(self, populated):
        with pytest.raises(UnknownPeerError):
            populated.peer_path("ghost")
        with pytest.raises(UnknownPeerError):
            populated.peer_landmark("ghost")
        with pytest.raises(UnknownPeerError):
            populated.closest_peers("ghost")

    def test_unregister(self, populated):
        populated.unregister_peer("p4")
        assert not populated.has_peer("p4")
        assert populated.peer_count == 4
        neighbors = populated.closest_peers("p3")
        assert all(peer != "p4" for peer, _ in neighbors)

    def test_unregister_unknown_raises(self, populated):
        with pytest.raises(UnknownPeerError):
            populated.unregister_peer("ghost")

    def test_stats_counters(self, populated):
        stats = populated.stats
        assert stats.registrations == 5
        populated.closest_peers("p1")
        assert stats.queries >= 1
        populated.unregister_peer("p1")
        assert stats.removals == 1
        stats.reset()
        assert stats.registrations == 0


class TestQueries:
    def test_closest_peers_same_landmark(self, populated):
        neighbors = dict(populated.closest_peers("p3", k=2))
        assert neighbors["p4"] == 2.0

    def test_estimate_distance_same_landmark(self, populated):
        assert populated.estimate_distance("p1", "p2") == 4.0
        assert populated.estimate_distance("p3", "p4") == 2.0
        assert populated.estimate_distance("p1", "p1") == 0.0

    def test_estimate_distance_cross_landmark(self, populated):
        # p1 has 4 hops to lmA, q1 has 3 hops to lmB, landmarks are 6 apart.
        assert populated.estimate_distance("p1", "q1") == 4 + 6 + 3

    def test_cross_landmark_without_distance_raises(self):
        server = ManagementServer(neighbor_set_size=2)
        server.register_landmark("lmA", "lmA")
        server.register_landmark("lmB", "lmB")
        server.register_peer(path("p1", ["a", "lmA"], landmark="lmA"))
        server.register_peer(path("p2", ["b", "lmB"], landmark="lmB"))
        with pytest.raises(LandmarkError):
            server.estimate_distance("p1", "p2")

    def test_cross_landmark_fill_when_tree_is_sparse(self, populated):
        # q1 is alone under lmB, so its neighbours must come from lmA.
        neighbors = populated.closest_peers("q1", k=3)
        assert len(neighbors) == 3
        assert all(peer.startswith("p") for peer, _ in neighbors)
        # Estimates use the landmark detour.
        for peer, distance in neighbors:
            assert distance == populated.estimate_distance("q1", peer)

    def test_query_with_larger_k_falls_back_to_tree(self, populated):
        neighbors = populated.closest_peers("p1", k=4)
        assert len(neighbors) == 4

    def test_neighbor_lists_sorted_by_distance(self, populated):
        for peer in populated.peers():
            distances = [d for _, d in populated.closest_peers(peer, k=4)]
            assert distances == sorted(distances)

    @pytest.mark.parametrize("kind", ["live", "two inline shards", "snapshot reader"])
    def test_negative_k_is_rejected_not_sliced(self, kind):
        # entries[:k] with k=-1 used to serve a silently truncated list.
        plane = (
            ShardedManagementServer(shard_count=2, neighbor_set_size=3)
            if kind == "two inline shards"
            else ManagementServer(neighbor_set_size=3)
        )
        plane.register_landmark("lmA", "lmA")
        for index in range(5):
            plane.register_peer(path(f"p{index}", [f"a{index}", "core", "lmA"]))
        target = plane
        if kind == "snapshot reader":
            target = SnapshotReader(DiscoverySnapshot.build(plane))
        queries_before = plane.stats.queries
        for bad in (-1, -3, -10):
            with pytest.raises(ValueError, match="k must be positive"):
                target.closest_peers("p0", bad)
        assert plane.stats.queries == queries_before  # a rejected query is not a query
        default = target.closest_peers("p0")
        assert len(default) == 3
        assert target.closest_peers("p0", None) == target.closest_peers("p0", 0) == default


class TestShortListCompleteness:
    """The cache-hit predicate fix (PR 5): a list that is legitimately
    short — the plane simply cannot provide ``k`` reachable candidates —
    must hit the cache in the steady state instead of paying a tree walk
    per query, and must be recomputed exactly once after any membership
    change that could add a candidate."""

    @pytest.fixture()
    def island(self) -> ManagementServer:
        """k=5, two landmarks, NO inter-landmark distances: lmB's peers can
        never fill from lmA, so their lists are legitimately short."""
        server = ManagementServer(neighbor_set_size=5)
        server.register_landmark("lmA", "lmA")
        server.register_landmark("lmB", "lmB")
        for index in range(8):
            server.register_peer(path(f"a{index}", [f"r{index}", "core", "lmA"]))
        server.register_peer(path("b1", ["x1", "lmB"], landmark="lmB"))
        server.register_peer(path("b2", ["x2", "lmB"], landmark="lmB"))
        server.register_peer(path("b3", ["x3", "lmB"], landmark="lmB"))
        return server

    def test_short_list_hits_cache_in_steady_state(self, island):
        first = island.closest_peers("b1")
        assert len(first) == 2  # only b2/b3 are reachable: legitimately short
        island.stats.reset()
        for _ in range(5):
            assert island.closest_peers("b1") == first
        assert island.stats.cache_hits == 5
        assert island.stats.tree_queries == 0

    def test_seed_predicate_regression(self, island):
        """The pre-fix predicate ``len(entries) >= min(k, peer_count - 1)``
        made every b-peer query walk the tree: 2 cached entries < min(5, 10).
        Pin the fixed behaviour counter-for-counter."""
        island.closest_peers("b2")
        island.stats.reset()
        island.closest_peers("b2")
        island.closest_peers("b2")
        assert island.stats.tree_queries == 0

    def test_arrival_invalidates_short_list_once(self, island):
        first = island.closest_peers("b1")
        island.register_peer(path("b4", ["x4", "lmB"], landmark="lmB"))
        island.stats.reset()
        updated = island.closest_peers("b1")
        assert {peer for peer, _ in updated} == {"b2", "b3", "b4"}
        assert updated != first
        # Exactly one recompute, then the (still short) list is warm again.
        assert island.stats.tree_queries == 1
        island.stats.reset()
        assert island.closest_peers("b1") == updated
        assert island.stats.tree_queries == 0
        assert island.stats.cache_hits == 1

    def test_new_landmark_distance_invalidates_short_list(self, island):
        short = island.closest_peers("b1")
        assert len(short) == 2
        island.set_landmark_distance("lmA", "lmB", 4.0)
        filled = island.closest_peers("b1")
        assert len(filled) == 5  # the fill can now reach lmA's peers
        assert [pair for pair in filled[:2]] == short

    def test_departure_keeps_short_list_warm_and_correct(self, island):
        island.closest_peers("b1")
        island.unregister_peer("b2")
        island.stats.reset()
        assert [peer for peer, _ in island.closest_peers("b1")] == ["b3"]
        # The reverse-index repair already fixed the list: no recompute.
        assert island.stats.tree_queries == 0

    def test_short_hit_matches_recompute_exactly(self, island):
        """Served-from-cache short lists must be byte-identical to what a
        cacheless twin computes — completeness is a work optimisation only."""
        twin = ManagementServer(neighbor_set_size=5, maintain_cache=False)
        twin.register_landmark("lmA", "lmA")
        twin.register_landmark("lmB", "lmB")
        for peer in island.peers():
            twin.register_peer(island.peer_path(peer))
        for peer in island.peers():
            island.closest_peers(peer)  # warm + mark
            assert island.closest_peers(peer) == twin.closest_peers(peer)


class TestCacheMaintenance:
    def test_cache_hit_counted(self, populated):
        populated.stats.reset()
        populated.closest_peers("p1")
        assert populated.stats.cache_hits == 1
        assert populated.stats.tree_queries == 0

    def test_early_joiner_list_updated_by_later_arrivals(self, server):
        server.register_peer(path("early", ["a1", "core", "lmA"]))
        server.register_peer(path("later1", ["a1", "core", "lmA"]))
        server.register_peer(path("later2", ["a9", "core", "lmA"]))
        neighbors = dict(server.closest_peers("early"))
        assert neighbors["later1"] == 2.0
        assert "later2" in neighbors

    def test_cache_preserves_best_k(self, server):
        server = ManagementServer(neighbor_set_size=2)
        server.register_landmark("lmA", "lmA")
        server.register_peer(path("origin", ["a1", "core", "lmA"]))
        # Three later arrivals at increasing distance from origin.
        server.register_peer(path("near", ["a1", "core", "lmA"]))       # dtree 2
        server.register_peer(path("medium", ["a9", "a1", "core", "lmA"]))  # dtree 3 (below a1)
        server.register_peer(path("far", ["z1", "z2", "core", "lmA"]))  # dtree 6
        neighbors = server.closest_peers("origin", k=2)
        assert [peer for peer, _ in neighbors] == ["near", "medium"]

    def test_disabled_cache_always_walks_tree(self):
        server = ManagementServer(neighbor_set_size=2, maintain_cache=False)
        server.register_landmark("lmA", "lmA")
        server.register_peer(path("p1", ["a", "lmA"]))
        server.register_peer(path("p2", ["a", "lmA"]))
        server.stats.reset()
        server.closest_peers("p1")
        assert server.stats.cache_hits == 0
        assert server.stats.tree_queries == 1

    def test_cached_answers_close_to_exact_tree_answers(self):
        """The O(1) cache is allowed to be slightly approximate, never wildly off.

        The cache is maintained by pushing each newcomer into the lists of the
        peers the newcomer itself considers closest; a peer that narrowly
        misses a newcomer's top-k may keep a marginally worse entry.  The
        answers must still be within one hop per neighbour of the exact tree
        walk.
        """
        cached = ManagementServer(neighbor_set_size=3, maintain_cache=True)
        uncached = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        for srv in (cached, uncached):
            srv.register_landmark("lmA", "lmA")
        routes = [
            ("p1", ["a1", "a2", "core", "lmA"]),
            ("p2", ["a3", "a2", "core", "lmA"]),
            ("p3", ["b1", "core", "lmA"]),
            ("p4", ["b1", "core", "lmA"]),
            ("p5", ["core", "lmA"]),
        ]
        for peer, routers in routes:
            cached.register_peer(path(peer, routers))
            uncached.register_peer(path(peer, routers))
        for peer, _ in routes:
            cached_distances = sorted(d for _, d in cached.closest_peers(peer))
            exact_distances = sorted(d for _, d in uncached.closest_peers(peer))
            assert len(cached_distances) == len(exact_distances)
            for cached_value, exact_value in zip(cached_distances, exact_distances):
                assert exact_value <= cached_value <= exact_value + 1

    def test_departed_peer_removed_from_cached_lists(self, populated):
        assert any(peer == "p4" for peer, _ in populated.closest_peers("p3"))
        populated.unregister_peer("p4")
        assert all(peer != "p4" for peer, _ in populated.closest_peers("p3"))

    def test_repr_mentions_peer_count(self, populated):
        assert "peers=5" in repr(populated)
