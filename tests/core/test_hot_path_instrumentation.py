"""Hot-path instrumentation: no ``repr`` remains on register/query/propagate.

The interned arrival engine's contract (PR 5): ``repr(peer_id)`` runs **once
per peer, at first registration** — interned by the plane's
:class:`~repro.core.interning.PeerKeyInterner` — and never again: not per
candidate in a query sort, not per bisect probe in ``propagate_newcomer``,
not per insert in the min-hop orderings, not at all on churn re-arrivals or
cached queries.

These tests pin that by swapping ``builtins.repr`` for a counting wrapper
around the measured window.  Explicit ``repr(...)`` calls in library code
resolve through ``builtins`` at call time, so the counter sees exactly the
calls the interner was built to eliminate (f-string ``!r`` and C-level
formatting bypass it — they are not on any hot path).

The serving plane's change tracking rides the same hot paths, so its cost
contract is pinned here too: a plane nobody publishes from allocates no
change record at all (every hook is one ``is None`` test), and a record
nobody drains stays bounded by the live population under open-world churn.
"""

from __future__ import annotations

import builtins

import pytest

from repro.core import ManagementServer, SnapshotPublisher

from ..oracle import build_plane, make_path


def count_reprs(fn) -> int:
    """Run ``fn`` with ``builtins.repr`` replaced by a counting wrapper."""
    calls = 0
    real_repr = builtins.repr

    def counting_repr(obj) -> str:
        nonlocal calls
        calls += 1
        return real_repr(obj)

    builtins.repr = counting_repr
    try:
        fn()
    finally:
        builtins.repr = real_repr
    return calls


@pytest.fixture()
def server() -> ManagementServer:
    server = build_plane(None, 1, with_distances=False, k=4)
    server.register_peers([make_path(f"peer{i}", 0, (0, i % 7)) for i in range(40)])
    return server


class TestRegisterPath:
    def test_fresh_batch_interns_once_per_peer(self, server):
        newcomers = [make_path(f"peer{100 + i}", 0, (0, i % 5)) for i in range(20)]
        calls = count_reprs(lambda: server.register_peers(newcomers))
        assert calls <= len(newcomers)

    def test_single_arrival_interns_at_most_once(self, server):
        path = make_path("peer200", 0, (0, 3))
        assert count_reprs(lambda: server.register_peer(path)) <= 1

    def test_churn_cycle_interns_at_most_once(self, server):
        """A leave/re-join cycle — tree removal, reverse-index repair,
        re-insert, neighbour recompute, cache propagation — pays at most ONE
        repr call: the departure evicts the peer's interned key (so the
        table stays bounded by the live population) and the re-arrival
        re-interns it.  Never per candidate, per probe, or per list."""
        path = server.peer_path("peer3")

        def cycle():
            server.unregister_peer("peer3")
            server.register_peers([path])

        assert count_reprs(cycle) <= 1

    def test_interner_stays_bounded_under_open_world_churn(self, server):
        """Departing peers are evicted from the plane's intern table, so a
        long-lived server's key table tracks the live population, not the
        cumulative arrival count."""
        interner = server._interner
        before = len(interner)
        for wave in range(5):
            fresh = [make_path(f"peer{1000 + wave * 20 + i}", 0, (0, i % 5)) for i in range(20)]
            server.register_peers(fresh)
            for path in fresh:
                server.unregister_peer(path.peer_id)
        assert len(interner) == before


class TestQueryPath:
    def test_cached_query_is_repr_free(self, server):
        assert count_reprs(lambda: [server.closest_peers(f"peer{i}") for i in range(40)]) == 0

    def test_tree_walk_query_is_repr_free(self):
        """The count-guided frontier walk sorts candidates on interned keys:
        even full cache-miss queries never call repr."""
        server = build_plane(None, 1, False, False, 4)
        server.register_peers([make_path(f"peer{i}", 0, (0, i % 7)) for i in range(40)])
        assert count_reprs(lambda: [server.closest_peers(f"peer{i}") for i in range(40)]) == 0

    def test_cross_landmark_fill_is_repr_free(self):
        """The lazily merged min-hop orderings are built from interned keys:
        a query that needs the cross-landmark fill stays repr-free."""
        server = build_plane(None, 2, k=4)
        server.register_peers(
            [make_path("peer0", 0, (0, 0))]
            + [make_path(f"peer{10 + i}", 1, (0, i)) for i in range(6)]
        )
        assert count_reprs(lambda: server.closest_peers("peer0", k=4)) == 0


class TestShardedPlane:
    def test_sharded_batch_interns_at_most_twice_per_peer(self):
        """Coordinator and home shard each own one interner: a fresh peer is
        interned at most twice, independent of k, list sizes, or shard count."""
        server = build_plane(3, 2, with_distances=False, k=4)
        first = [make_path(f"peer{i}", 0, (0, i % 5)) for i in range(10)]
        second = [make_path(f"peer{50 + i}", 1, (0, i % 5)) for i in range(10)]
        server.register_peers(first)
        calls = count_reprs(lambda: server.register_peers(second))
        assert calls <= 2 * len(second)
        assert count_reprs(lambda: [server.closest_peers(p.peer_id) for p in second]) == 0


def churn_wave(plane, wave: int, size: int = 20) -> None:
    """Open-world churn: ``size`` never-seen peers join, then leave again."""
    fresh = [make_path(f"peer{10_000 + wave * size + i}", 0, (0, i % 5)) for i in range(size)]
    for path in fresh[: size // 2]:
        plane.register_peer(path)
    plane.register_peers(fresh[size // 2 :])
    for path in fresh:
        plane.unregister_peer(path.peer_id)


def tracking_sets(plane):
    """Every per-component change set of a plane (``None`` = not recording)."""
    trees = plane._live_trees()
    return [plane.changes, plane._cache.dirty] + [tree.dirty for tree in trees.values()]


class TestChangeTracking:
    @pytest.mark.parametrize("shards", [None, 3])
    def test_no_publisher_no_change_record(self, shards):
        """Tracking is off until a publisher attaches: churn, queries and
        cold queries on a bare plane never allocate a record or a set."""
        plane = build_plane(shards, 1, with_distances=False, k=4)
        plane.register_peers([make_path(f"peer{i}", 0, (0, i % 7)) for i in range(40)])
        for wave in range(3):
            churn_wave(plane, wave)
            plane.closest_peers("peer3")
            plane.closest_peers("peer5", k=9)
        assert tracking_sets(plane) == [None, None, None]
        for shard in getattr(plane, "shards", ()):
            assert shard.changes is None

    def test_unread_record_stays_bounded_by_the_live_population(self, server):
        """A publisher that never publishes, under 10x the population of
        open-world churn: the record never names more joins and leaves than
        there are live peers — past that the plane drops it and records
        nothing until the next publish, which rebuilds whole.  While it is
        live, the owner set stays within live peers plus recorded leavers
        and the (reused) node ids within the node table."""
        publisher = SnapshotPublisher(server)
        population = server.peer_count
        tree = server.tree("lm0")
        recorded_waves = 0
        for wave in range(10 * population // 20):
            churn_wave(server, wave)
            record = server.changes
            if record is None:  # dropped: every hook is back to its is-None test
                assert tracking_sets(server) == [None, None, None]
                continue
            recorded_waves += 1
            assert len(record.peers) <= server.peer_count == population
            assert len(record.owners) <= population + len(record.peers)
            assert len(record.nodes["lm0"]) <= len(tree.routers)
        assert recorded_waves and server.changes is None
        # What the idle publisher still holds is the record as it was dropped:
        # one entry past the population of that moment (mid-wave, 20 extra).
        assert len(publisher._changes.peers) <= population + 20 + 1
        # The next epoch is rebuilt whole, and right; then recording resumes.
        snapshot = publisher.publish()
        assert snapshot.peers() == server.peers()
        for peer in server.peers():
            assert snapshot.closest_peers(peer) == server.closest_peers(peer)
        assert server.changes is publisher._changes is not None
