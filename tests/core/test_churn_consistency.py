"""Churn tests: the reverse neighbour index, O(k) departures, batch arrivals.

The management server must keep ``_referenced_by`` (peer -> peers whose
cached list contains it) exactly consistent with the cached lists through
arbitrary interleavings of joins, departures and re-registrations — and a
departure may only touch the lists that actually reference the departed
peer, never the whole population.

The sharded plane (:class:`~repro.core.sharded.ShardedManagementServer`)
must uphold the same invariants when the churning peers and the lists that
reference them live on *different* shards: departures repair cross-shard
min-hop orderings, and dry lists lazily refill from remote shards.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.core.management_server import ManagementServer, NeighborEntry
from repro.core.path import RouterPath
from repro.core.sharded import ConsistentHashRing, ShardedManagementServer
from repro.workloads import synthetic_paths

from ..oracle import path, simple_path


def synthetic_path(index: int, rng: random.Random, landmark="lmA") -> RouterPath:
    region, pop, access = rng.randrange(6), rng.randrange(10), rng.randrange(20)
    routers = [
        f"access-{region}-{pop}-{access}",
        f"pop-{region}-{pop}",
        f"region-{region}",
        "core",
        landmark,
    ]
    return RouterPath.from_routers(f"peer{index}", landmark, routers)


def synthetic_server(population: int, seed: int) -> ManagementServer:
    """A k=5 server holding ``population`` peers of the access hierarchy."""
    server = ManagementServer(neighbor_set_size=5)
    server.register_landmark("lmk", "lmk")
    server.register_peers(synthetic_paths(population, seed=seed))
    return server


def assert_reverse_index_consistent(server: ManagementServer) -> None:
    """The reverse index must mirror the cached lists exactly."""
    expected: Dict = {}
    for owner, entries in server._neighbor_cache.items():
        for entry in entries:
            expected.setdefault(entry.peer_id, set()).add(owner)
    assert server._referenced_by == expected
    # Every cached entry references a live peer, and every cache owner is live.
    for owner, entries in server._neighbor_cache.items():
        assert server.has_peer(owner)
        for entry in entries:
            assert server.has_peer(entry.peer_id)


@pytest.fixture()
def server() -> ManagementServer:
    server = ManagementServer(neighbor_set_size=3)
    server.register_landmark("lmA", "lmA")
    return server


class TestReverseIndex:
    def test_registration_populates_reverse_index(self, server):
        server.register_peer(path("p1", ["a1", "core", "lmA"]))
        server.register_peer(path("p2", ["a1", "core", "lmA"]))
        assert server.referencing_peers("p1") == {"p2"}
        assert server.referencing_peers("p2") == {"p1"}
        assert_reverse_index_consistent(server)

    def test_departure_updates_only_referencing_lists(self, server):
        for name, routers in [
            ("p1", ["a1", "core", "lmA"]),
            ("p2", ["a1", "core", "lmA"]),
            ("p3", ["b1", "core", "lmA"]),
            ("p4", ["b1", "core", "lmA"]),
        ]:
            server.register_peer(path(name, routers))
        referencing = server.referencing_peers("p4")
        server.stats.reset()
        server.unregister_peer("p4")
        assert server.stats.departure_updates == len(referencing)
        assert_reverse_index_consistent(server)

    def test_departure_cost_bounded_by_references_not_population(self, server):
        """Counter-based complexity check: cost tracks k·c, not n."""
        rng = random.Random(11)
        for index in range(300):
            server.register_peer(synthetic_path(index, rng))
        victims = rng.sample(server.peers(), 50)
        for victim in victims:
            referencing = len(server.referencing_peers(victim))
            server.stats.reset()
            server.unregister_peer(victim)
            assert server.stats.departure_updates == referencing
            # A peer can appear in far fewer lists than there are peers; the
            # bound that matters is that the work equals the reference count,
            # which stays O(k·c) rather than O(n).
            assert server.stats.departure_updates < server.peer_count
        assert_reverse_index_consistent(server)

    @pytest.mark.parametrize("population", [200, 800, 3200])
    def test_departure_updates_stay_below_ten_k_and_a_quarter_of_n(self, population):
        """Leave and re-join at a steady population: the lists repaired per
        departure average under ``10·k`` and under ``n/4`` at every size."""
        server = synthetic_server(population, seed=3)
        server.stats.reset()
        for victim in random.Random(17).sample(server.peers(), min(256, population - 1)):
            path_of_victim = server.peer_path(victim)
            server.unregister_peer(victim)
            server.register_peers([path_of_victim])
        per_departure = server.stats.departure_updates / server.stats.removals
        assert per_departure < 10 * server.neighbor_set_size
        assert per_departure < population / 4

    def test_interleaved_join_leave_reregister_stays_consistent(self, server):
        rng = random.Random(7)
        alive: List[str] = []
        next_index = 0
        for step in range(400):
            action = rng.random()
            if action < 0.5 or len(alive) < 3:
                server.register_peer(synthetic_path(next_index, rng))
                alive.append(f"peer{next_index}")
                next_index += 1
            elif action < 0.8:
                victim = alive.pop(rng.randrange(len(alive)))
                server.unregister_peer(victim)
            else:
                survivor = rng.choice(alive)
                index = int(survivor.removeprefix("peer"))
                server.register_peer(synthetic_path(index, rng))
            if step % 25 == 0:
                assert_reverse_index_consistent(server)
        assert_reverse_index_consistent(server)
        assert server.peer_count == len(alive)

    def test_lists_that_run_dry_are_refilled_on_query(self, server):
        for name in ("a", "b", "c", "d", "e"):
            server.register_peer(path(name, ["a1", "core", "lmA"]))
        # a's list is [b, c, d]; remove two of them so it runs dry.
        server.unregister_peer("b")
        server.unregister_peer("c")
        server.stats.reset()
        neighbors = server.closest_peers("a")
        assert [peer for peer, _ in neighbors] == ["d", "e"]
        assert server.stats.cache_refills == 1
        assert server.stats.cache_hits == 0
        # The refilled list is cached (and indexed) for the next query.
        again = server.closest_peers("a")
        assert again == neighbors
        assert server.stats.cache_hits == 1
        assert_reverse_index_consistent(server)

    def test_cache_disabled_keeps_reverse_index_empty(self):
        server = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        server.register_landmark("lmA", "lmA")
        rng = random.Random(5)
        for index in range(30):
            server.register_peer(synthetic_path(index, rng))
        server.unregister_peer("peer0")
        assert server._referenced_by == {}
        assert server._neighbor_cache == {}


class TestBatchRegistration:
    def test_batch_matches_tree_state_of_sequential(self, server):
        batch = [synthetic_path(index, random.Random(21)) for index in range(40)]
        results = server.register_peers(batch)
        assert set(results) == {p.peer_id for p in batch}
        assert server.peer_count == 40
        assert server.stats.registrations == 40
        assert_reverse_index_consistent(server)

    def test_batch_members_see_each_other(self, server):
        """Co-arriving peers appear in each other's lists immediately."""
        batch = [
            path("p1", ["a1", "core", "lmA"]),
            path("p2", ["a1", "core", "lmA"]),
            path("p3", ["a1", "core", "lmA"]),
        ]
        results = server.register_peers(batch)
        # Even the FIRST batch member's list contains the later ones — the
        # sequential API could never produce that for p1.
        assert {peer for peer, _ in results["p1"]} == {"p2", "p3"}
        assert_reverse_index_consistent(server)

    def test_batch_reregistration_keeps_last_path(self, server):
        batch = [
            path("p1", ["a1", "core", "lmA"]),
            path("p2", ["b1", "core", "lmA"]),
            path("p1", ["b1", "core", "lmA"]),
        ]
        server.register_peers(batch)
        assert server.peer_count == 2
        assert server.peer_path("p1").access_router == "b1"
        assert_reverse_index_consistent(server)

    def test_batch_rejects_unknown_landmark_before_mutation(self, server):
        batch = [
            path("p1", ["a1", "core", "lmA"]),
            path("bad", ["x", "lmZ"], landmark="lmZ"),
        ]
        from repro.exceptions import RegistrationError

        with pytest.raises(RegistrationError):
            server.register_peers(batch)
        assert server.peer_count == 0

    def test_batch_rejects_root_mismatch_before_mutation(self, server):
        """A path rooted at the wrong router fails the whole batch up front."""
        batch = [
            path("p1", ["a1", "core", "lmA"]),
            path("bad", ["x", "not-lmA"], "lmA"),  # claims lmA but ends elsewhere
        ]
        from repro.exceptions import RegistrationError

        with pytest.raises(RegistrationError):
            server.register_peers(batch)
        assert server.peer_count == 0
        assert server._neighbor_cache == {}

    def test_a_256_wave_reads_the_index_once_per_newcomer(self):
        """Batching changes when the lists are computed (after the whole
        wave has landed), not how: one index read per newcomer, no more
        index work than 256 sequential joins, and the same trie inserts.
        The wave comes from a narrower hierarchy than the population, so
        its members share access routers the way a flash crowd does."""
        rng = random.Random(9)
        newcomers = [synthetic_path(1000 + index, rng, landmark="lmk") for index in range(256)]
        work = {}
        for wave in (1, 256):
            server = synthetic_server(800, seed=2)
            server.stats.reset()
            visits, inserts = server.total_tree_visits(), server.total_insert_work()
            for start in range(0, len(newcomers), wave):
                server.register_peers(newcomers[start : start + wave])
            work[wave] = (
                server.stats.tree_queries,
                server.total_tree_visits() - visits,
                [after - before for after, before in zip(server.total_insert_work(), inserts)],
            )
        assert work[1][0] == work[256][0] == 256
        assert work[256][1] <= work[1][1]
        assert work[256][2] == work[1][2]

    def test_batch_then_departures_round_trip(self, server):
        rng = random.Random(31)
        batch = [synthetic_path(index, rng) for index in range(60)]
        server.register_peers(batch)
        for victim in rng.sample(server.peers(), 30):
            server.unregister_peer(victim)
        assert server.peer_count == 30
        assert_reverse_index_consistent(server)
        for peer in server.peers():
            neighbors = server.closest_peers(peer)
            assert all(server.has_peer(neighbor) for neighbor, _ in neighbors)


def landmarks_on_distinct_shards(shard_count: int, needed: int) -> List[str]:
    """Landmark names that the ring provably places on ``needed`` distinct shards."""
    ring = ConsistentHashRing(shard_count)
    found: Dict[int, str] = {}
    index = 0
    while len(found) < needed:
        name = f"lm{index}"
        shard = ring.node_for(name)
        if shard not in found:
            found[shard] = name
        index += 1
    return [found[shard] for shard in sorted(found)]


class TestShardedChurn:
    """Cross-shard departures and lazy refills on the sharded plane."""

    def make_server(self, shard_count=2, k=3):
        local, remote = landmarks_on_distinct_shards(shard_count, needed=2)
        server = ShardedManagementServer(
            shard_count,
            neighbor_set_size=k,
            landmark_distances={(local, remote): 4.0},
        )
        server.register_landmark(local, local)
        server.register_landmark(remote, remote)
        assert server.shard_of(local) != server.shard_of(remote)
        return server, local, remote

    def fill_cross_shard(self, server, local, remote, remote_count=4):
        """One querier alone under ``local``; candidates live under ``remote``."""
        server.register_peers(
            [simple_path("q", local)]
            + [simple_path(f"r{i}", remote, access=f"a{i}") for i in range(remote_count)]
        )
        return [peer for peer, _ in server.closest_peers("q")]

    def test_cross_shard_fill_populates_querier_list(self):
        server, local, remote = self.make_server()
        neighbors = self.fill_cross_shard(server, local, remote)
        assert len(neighbors) == 3
        assert all(server.peer_landmark(peer) == remote for peer in neighbors)
        assert_reverse_index_consistent(server)

    def test_departure_on_remote_shard_repairs_cross_shard_lists(self):
        server, local, remote = self.make_server()
        neighbors = self.fill_cross_shard(server, local, remote)
        victim = neighbors[0]
        referencing = server.referencing_peers(victim)
        assert "q" in referencing  # the querier's list crosses the shard boundary
        server.stats.reset()
        server.unregister_peer(victim)
        assert server.stats.departure_updates == len(referencing)
        assert victim not in [peer for peer, _ in server.closest_peers("q")]
        assert_reverse_index_consistent(server)

    def test_departure_repairs_remote_min_hop_ordering(self):
        server, local, remote = self.make_server()
        neighbors = self.fill_cross_shard(server, local, remote)
        victim = neighbors[0]
        remote_shard = server.shards[server.shard_of(remote)]
        assert victim in [entry[2] for entry in remote_shard.tree(remote).rows[0]]
        server.unregister_peer(victim)
        # The remote shard's min-hop ordering (the fill candidate source)
        # must not keep serving the departed peer.
        assert victim not in [entry[2] for entry in remote_shard.tree(remote).rows[0]]
        refreshed = server.closest_peers("q", k=4)
        assert victim not in [peer for peer, _ in refreshed]

    def test_dry_list_refills_from_remote_shard(self):
        server, local, remote = self.make_server()
        neighbors = self.fill_cross_shard(server, local, remote, remote_count=5)
        # Remove two cached neighbours so the querier's list runs dry.
        server.unregister_peer(neighbors[0])
        server.unregister_peer(neighbors[1])
        server.stats.reset()
        refilled = server.closest_peers("q")
        assert server.stats.cache_hits == 0
        assert server.stats.cache_refills == 1
        assert len(refilled) == 3
        assert all(server.has_peer(peer) for peer, _ in refilled)
        # The refill candidates all live on the other shard.
        assert all(server.peer_shard(peer) != server.peer_shard("q") for peer, _ in refilled)
        again = server.closest_peers("q")
        assert again == refilled
        assert server.stats.cache_hits == 1
        assert_reverse_index_consistent(server)

    def test_interleaved_sharded_churn_stays_consistent(self):
        server, local, remote = self.make_server(shard_count=4)
        rng = random.Random(17)
        landmarks = [local, remote]
        alive: List[str] = []
        next_index = 0
        for step in range(300):
            action = rng.random()
            if action < 0.5 or len(alive) < 3:
                landmark = landmarks[rng.randrange(2)]
                server.register_peer(
                    simple_path(f"peer{next_index}", landmark, access=f"a{rng.randrange(6)}")
                )
                alive.append(f"peer{next_index}")
                next_index += 1
            elif action < 0.8:
                victim = alive.pop(rng.randrange(len(alive)))
                server.unregister_peer(victim)
            else:
                server.closest_peers(rng.choice(alive))
            if step % 25 == 0:
                assert_reverse_index_consistent(server)
        assert_reverse_index_consistent(server)
        assert server.peer_count == len(alive)


class TestPropagationOrderedInsert:
    def test_propagate_keeps_lists_sorted(self, server):
        rng = random.Random(13)
        for index in range(80):
            server.register_peer(synthetic_path(index, rng))
        for owner, entries in server._neighbor_cache.items():
            # Plain tuple order is the contract: (distance, sort_text, peer_id).
            assert entries == sorted(entries)
            assert len(entries) <= server.neighbor_set_size
            listed = [entry.peer_id for entry in entries]
            assert len(set(listed)) == len(listed)
            assert owner not in listed

    def test_eviction_updates_reverse_index(self, server):
        # Fill origin's list, then add closer peers until someone is evicted.
        server.register_peer(path("origin", ["a1", "core", "lmA"]))
        server.register_peer(path("far", ["z1", "z2", "z3", "core", "lmA"]))
        for index in range(4):
            server.register_peer(path(f"near{index}", ["a1", "core", "lmA"]))
        entries = {entry.peer_id for entry in server._neighbor_cache["origin"]}
        assert "far" not in entries  # evicted by the nearer arrivals
        assert "origin" not in server.referencing_peers("far") or "far" in entries
        assert_reverse_index_consistent(server)
