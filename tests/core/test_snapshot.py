"""Snapshot/restore: a restored server is answer-identical to the original.

The snapshot contract backs journal compaction: ``ShardSupervisorBase.compact``
replaces a long replay journal with one ``restore_state`` entry, which is
only sound if restoring a snapshot yields byte-identical answers — same
peers, same distances, same order, same cache contents — for every
subsequent operation.  Malformed or future-versioned snapshots must fail
typed (:class:`~repro.exceptions.StateSnapshotError`), never half-restore.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import (
    ManagementServer,
    NeighborCache,
    PeerKeyInterner,
    ServerStats,
    SnapshotPublisher,
)
from repro.core.management_server import STATE_SNAPSHOT_VERSION
from repro.exceptions import StateSnapshotError, WireProtocolError

from ..oracle import simple_path


def churned_server(maintain_cache=True):
    """A server whose history is much longer than its live state."""
    server = ManagementServer(
        neighbor_set_size=3,
        maintain_cache=maintain_cache,
        landmark_distances={("lmA", "lmB"): 4.0},
    )
    for landmark in ("lmA", "lmB"):
        server.register_landmark(landmark, landmark)
    server.register_peers(
        [simple_path(f"p{i}", "lmA" if i % 2 else "lmB", access=f"a{i % 3}") for i in range(6)]
    )
    for _ in range(3):  # churn so registration order != peer-name order
        server.unregister_peer("p1")
        server.register_peer(simple_path("p1", "lmA", access="a2"))
    for peer in server.peers():  # warm the cache (when maintained)
        server.closest_peers(peer)
    return server


def assert_answer_identical(restored, original):
    assert restored.peers() == original.peers()
    assert restored.landmarks() == original.landmarks()
    for peer in original.peers():
        assert restored.peer_path(peer) == original.peer_path(peer)
        for k in (1, 3, 7):
            assert restored.closest_peers(peer, k) == original.closest_peers(peer, k)
    for peer_a in original.peers():
        for peer_b in original.peers():
            assert restored.estimate_distance(peer_a, peer_b) == original.estimate_distance(
                peer_a, peer_b
            )


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("maintain_cache", [True, False])
    def test_restored_server_is_answer_identical(self, maintain_cache):
        original = churned_server(maintain_cache=maintain_cache)
        restored = ManagementServer(
            neighbor_set_size=3,
            maintain_cache=maintain_cache,
            landmark_distances=None,  # the snapshot carries the distances
        )
        restored.restore_state(original.snapshot_state())
        assert_answer_identical(restored, original)

    def test_cache_contents_travel_with_the_snapshot(self):
        original = churned_server(maintain_cache=True)
        restored = ManagementServer(neighbor_set_size=3, maintain_cache=True)
        restored.restore_state(original.snapshot_state())
        original_cache = {
            owner: [(entry.peer_id, entry.distance) for entry in entries]
            for owner, entries in original._neighbor_cache.items()
        }
        restored_cache = {
            owner: [(entry.peer_id, entry.distance) for entry in entries]
            for owner, entries in restored._neighbor_cache.items()
        }
        assert restored_cache == original_cache
        assert restored._referenced_by == original._referenced_by

    def test_restore_replaces_any_previous_state(self):
        original = churned_server()
        other = ManagementServer(neighbor_set_size=3)
        other.register_landmark("lmZ", "lmZ")
        other.register_peer(simple_path("stale", "lmZ"))
        other.restore_state(original.snapshot_state())
        assert "stale" not in other.peers()
        assert "lmZ" not in other.landmarks()
        assert_answer_identical(other, original)

    def test_snapshot_is_plain_picklable_data(self):
        snapshot = churned_server().snapshot_state()
        clone = pickle.loads(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == snapshot

    def test_restored_server_keeps_serving_mutations(self):
        original = churned_server()
        restored = ManagementServer(neighbor_set_size=3)
        restored.restore_state(original.snapshot_state())
        newcomer = simple_path("p9", "lmA", access="a0")
        restored.register_peer(newcomer)
        original.register_peer(newcomer)
        assert restored.closest_peers("p9") == original.closest_peers("p9")
        restored.unregister_peer("p0")
        original.unregister_peer("p0")
        assert restored.peers() == original.peers()


class TestInternerStability:
    """Compact indices must survive snapshot→churn→compact→restore verbatim.

    The serving plane keys array-backed state on the interner's compact
    indices, so a restore that re-interned peers in path order — silently
    renumbering the survivors after any churn left gaps — would invalidate
    every published :class:`~repro.core.serving.DiscoverySnapshot`.  These
    tests fail on the version-1 restore path.
    """

    def test_compact_indices_survive_restore_after_churn(self):
        original = churned_server()
        # Open gaps in the index space: departures free indices that a
        # re-interning restore would densely reassign.
        original.unregister_peer("p0")
        original.unregister_peer("p3")
        original.register_peer(simple_path("p9", "lmA", access="a9"))
        before = {peer: original._interner.key(peer) for peer in original.peers()}

        restored = ManagementServer(neighbor_set_size=3)
        restored.restore_state(original.snapshot_state())
        after = {peer: restored._interner.key(peer) for peer in restored.peers()}
        assert after == before

    def test_monotonic_counter_survives_restore(self):
        original = churned_server()
        original.unregister_peer("p0")
        restored = ManagementServer(neighbor_set_size=3)
        restored.restore_state(original.snapshot_state())
        assert restored._interner._next_index == original._interner._next_index
        # A fresh arrival after restore gets the same index it would have
        # gotten on the original plane — no collision with a freed index.
        restored.register_peer(simple_path("px", "lmA", access="a5"))
        original.register_peer(simple_path("px", "lmA", access="a5"))
        assert restored._interner.key("px") == original._interner.key("px")

    def test_supervised_compact_preserves_compact_indices(self):
        """The journal-compaction path end to end: churn → compact → restart.

        ``compact`` rewrites the journal as one ``restore_state`` entry and
        ``restart`` replays it onto a fresh worker; the worker's next
        ``snapshot_state`` — interner table included — must be identical to
        the pre-compact snapshot.
        """
        from repro.core.remote import shard_factory_for

        shard = shard_factory_for("process", 3)()
        try:
            shard.register_landmark("lmA", "lmA")
            shard.insert_paths(
                [simple_path(f"p{i}", "lmA", access=f"a{i % 3}") for i in range(6)]
            )
            for peer in ("p1", "p4"):
                shard.unregister_peer(peer)
            before = shard.supervisor.request("snapshot_state", ())
            shard.compact()
            shard.restart()
            after = shard.supervisor.request("snapshot_state", ())
            assert after == before
        finally:
            shard.close()


class TestRestoreCacheGeneration:
    """Restore must not let the path replay inflate the cache generation.

    ``restore_state`` replays every path through ``_insert_path``, which
    bumps the fresh cache's ``membership_generation`` once per peer.  Those
    transient bumps are suppressed: a cache import re-validates the
    snapshot's completeness marks, and a cache-less restore starts at
    generation 0 like a fresh server.
    """

    def test_generation_is_not_replay_inflated(self):
        original = churned_server(maintain_cache=True)
        restored = ManagementServer(neighbor_set_size=3, maintain_cache=True)
        restored.restore_state(original.snapshot_state())
        assert (
            restored._cache.membership_generation == original._cache.membership_generation
        )

    def test_cacheless_restore_starts_at_generation_zero(self):
        original = churned_server(maintain_cache=False)
        restored = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        restored.restore_state(original.snapshot_state())
        assert restored._cache.membership_generation == 0

    def test_completeness_marks_honoured_on_first_query_after_restore(self):
        """A complete-but-short list must hit the cache, not recompute."""
        original = ManagementServer(neighbor_set_size=5, maintain_cache=True)
        original.register_landmark("lmA", "lmA")
        # Two peers: every list is legitimately short (1 < k) and marked
        # complete at store time.
        original.register_peers(
            [simple_path("p0", "lmA", access="a0"), simple_path("p1", "lmA", access="a1")]
        )
        assert original._cache.is_complete("p0")

        restored = ManagementServer(neighbor_set_size=5, maintain_cache=True)
        restored.restore_state(original.snapshot_state())
        assert restored._cache.is_complete("p0")
        tree_queries = restored.stats.tree_queries
        answer = restored.closest_peers("p0")
        assert answer == original.closest_peers("p0")
        assert restored.stats.tree_queries == tree_queries  # served from cache


class TestSnapshotValidation:
    @pytest.mark.parametrize(
        "garbage",
        [
            "not a snapshot",
            (),
            ("wrong-tag", STATE_SNAPSHOT_VERSION, (), (), (), None, ((), 0)),
            ("repro-state", STATE_SNAPSHOT_VERSION, (), (), (), None),  # wrong arity
            ("repro-state", STATE_SNAPSHOT_VERSION, (), (), (), None, ((), 0), ()),
            None,
            42,
        ],
    )
    def test_garbage_is_rejected_typed(self, garbage):
        server = ManagementServer(neighbor_set_size=3)
        with pytest.raises(StateSnapshotError):
            server.restore_state(garbage)

    @pytest.mark.parametrize(
        "version", [STATE_SNAPSHOT_VERSION + 1, 1]  # future AND the pre-interner layout
    )
    def test_other_versions_are_rejected_typed(self, version):
        server = ManagementServer(neighbor_set_size=3)
        snapshot = ("repro-state", version, (), (), (), None)
        with pytest.raises(StateSnapshotError) as error:
            server.restore_state(snapshot)
        assert str(version) in str(error.value)

    def test_malformed_interner_state_is_rejected_typed(self):
        server = ManagementServer(neighbor_set_size=3)
        snapshot = ("repro-state", STATE_SNAPSHOT_VERSION, (), (), (), None, "bogus")
        with pytest.raises(StateSnapshotError):
            server.restore_state(snapshot)

    def test_rejected_snapshot_leaves_existing_state_alone(self):
        server = ManagementServer(neighbor_set_size=3)
        server.register_landmark("lmA", "lmA")
        server.register_peer(simple_path("p0", "lmA"))
        with pytest.raises(StateSnapshotError):
            server.restore_state(("repro-state", 999, (), (), (), None, ((), 0)))
        assert server.peers() == ["p0"]


def five_peer_snapshot():
    server = ManagementServer(neighbor_set_size=3, landmark_distances={("lmA", "lmB"): 4.0})
    for landmark in ("lmA", "lmB"):
        server.register_landmark(landmark, landmark)
    server.register_peers(
        [simple_path(f"p{i}", "lmA" if i % 2 else "lmB", access=f"a{i}") for i in range(5)]
    )
    return server.snapshot_state()


def broken(field: str):
    """The five-peer snapshot with one field malformed (see the cases below)."""
    snapshot = list(five_peer_snapshot())
    index = {"landmarks": 2, "paths": 3, "distances": 4, "cache": 5}[field]
    if field == "paths":
        snapshot[3] = snapshot[3][:2] + (("path", "p2"),) + snapshot[3][3:]
    elif field == "landmarks":
        snapshot[2] = snapshot[2] + (("lmC",),)
    elif field == "distances":
        snapshot[4] = ((("lmA", "lmB"), None),)
    else:
        generation, lists, complete = snapshot[5]
        snapshot[5] = (generation, lists + (("p9", "not pairs"),), complete)
    assert snapshot[index] != five_peer_snapshot()[index]
    return tuple(snapshot)


class TestRestoreIsAtomic:
    """A snapshot with one malformed field fails typed and changes nothing.

    Each case used to escape untyped (``WireProtocolError``, ``ValueError``,
    ``TypeError``) and leave the server cleared or half restored.
    """

    @pytest.mark.parametrize(
        "field, label, cause",
        [
            ("paths", "paths", WireProtocolError),
            ("landmarks", "landmarks", ValueError),
            ("cache", "neighbour cache", ValueError),
            ("distances", "landmark distances", TypeError),
        ],
    )
    def test_a_malformed_field_leaves_the_server_as_it_was(self, field, label, cause):
        server = ManagementServer(neighbor_set_size=3)
        server.register_landmark("lmZ", "lmZ")
        server.register_peer(simple_path("stale", "lmZ"))
        publisher = SnapshotPublisher(server)
        before = server.snapshot_state()
        stats = server.stats.as_dict()
        with pytest.raises(StateSnapshotError, match=f"malformed {label} in") as error:
            server.restore_state(broken(field))
        assert isinstance(error.value.__cause__, cause)
        assert server.snapshot_state() == before
        assert server.stats.as_dict() == stats
        assert server.changes is publisher._changes  # the record still vouches
        assert server.closest_peers("stale") == []

    def test_a_shard_replies_with_the_typed_error(self):
        from repro.core.remote import shard_factory_for

        shard = shard_factory_for("socket", 3)()
        try:
            shard.register_landmark("lmA", "lmA")
            shard.insert_paths([simple_path("p0", "lmA")])
            before = shard.supervisor.request("snapshot_state", ())
            with pytest.raises(StateSnapshotError, match="malformed paths"):
                shard.supervisor.request("restore_state", (broken("paths"),))
            assert shard.supervisor.request("snapshot_state", ()) == before
        finally:
            shard.close()


def with_field(snapshot, index, value):
    return snapshot[:index] + (value,) + snapshot[index + 1 :]


def ghost_in_a_list(snapshot):
    generation, lists, complete = snapshot[5]
    (owner, pairs), *rest = lists
    return with_field(snapshot, 5, (generation, ((owner, (("ghost", 1.0),) + pairs[1:]), *rest), complete))


def unregistered_owner(snapshot):
    generation, lists, complete = snapshot[5]
    return with_field(snapshot, 5, (generation, lists + (("ghost", (("p0", 2.0),)),), complete))


def self_listed(snapshot):
    generation, lists, complete = snapshot[5]
    (owner, pairs), *rest = lists
    return with_field(snapshot, 5, (generation, ((owner, ((owner, 1.0),) + pairs[1:]), *rest), complete))


def peer_listed_twice(snapshot):
    generation, lists, complete = snapshot[5]
    (owner, pairs), *rest = lists
    return with_field(snapshot, 5, (generation, ((owner, pairs[:1] + pairs), *rest), complete))


def repeated_compact_index(snapshot):
    (first, (peer, text, _), *rest), next_index = snapshot[6]
    return with_field(snapshot, 6, ((first, (peer, text, first[2]), *rest), next_index))


def next_index_not_above_the_table(snapshot):
    assignments, _ = snapshot[6]
    return with_field(snapshot, 6, (assignments, max(index for _, _, index in assignments)))


class TestRestoreRefusesWhatItDocuments:
    """Snapshots that read but describe no server a history could build.

    Each used to restore: a list naming a peer nobody registered served it
    (``closest_peers(owner)`` answered ``('ghost', 1.0)``), a list with an
    unregistered owner stayed cached, a list naming its owner or a peer
    twice broke the cache's invariants (a departure then leaves a stale
    reverse-index edge behind), and an interner table that repeats a
    compact index, or whose ``next_index`` is not above every assigned one,
    would hand a later arrival an index already in use.
    """

    @pytest.mark.parametrize(
        "corrupt, label",
        [
            (ghost_in_a_list, "neighbour cache"),
            (unregistered_owner, "neighbour cache"),
            (self_listed, "neighbour cache"),
            (peer_listed_twice, "neighbour cache"),
            (repeated_compact_index, "interner state"),
            (next_index_not_above_the_table, "interner state"),
        ],
    )
    def test_is_refused_and_changes_nothing(self, corrupt, label):
        snapshot = corrupt(five_peer_snapshot())
        assert snapshot != five_peer_snapshot()
        server = ManagementServer(neighbor_set_size=3)
        server.register_landmark("lmZ", "lmZ")
        server.register_peer(simple_path("stale", "lmZ"))
        before = server.snapshot_state()
        with pytest.raises(StateSnapshotError, match=f"malformed {label} in") as error:
            server.restore_state(snapshot)
        assert isinstance(error.value.__cause__, ValueError)
        assert server.snapshot_state() == before
        assert server.closest_peers("stale") == []


class TestNeighborCacheState:
    def test_export_import_round_trip(self):
        stats_a, stats_b = ServerStats(), ServerStats()
        source = NeighborCache(3, stats_a, PeerKeyInterner())
        source.store("p0", (("p1", 2.0), ("p2", 4.0)))
        source.store("p1", (("p0", 2.0),))
        source.note_membership_change()
        source.store("p2", (("p0", 4.0),), complete=True)

        target = NeighborCache(3, stats_b, PeerKeyInterner())
        target.store("doomed", (("p9", 1.0),))
        target.import_state(source.export_state(), registered={"p0", "p1", "p2"})

        assert target.get("doomed") is None
        for owner in ("p0", "p1", "p2"):
            assert [(e.peer_id, e.distance) for e in target.get(owner)] == [
                (e.peer_id, e.distance) for e in source.get(owner)
            ]
        assert target.membership_generation == source.membership_generation
        assert target.is_complete("p2") == source.is_complete("p2")
        assert target.is_complete("p0") == source.is_complete("p0")
        assert target.referenced_by == source.referenced_by
