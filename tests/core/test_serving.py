"""Serving-plane oracles: snapshots are byte-identical and epoch-consistent.

Two properties make the lock-free read path safe, and both are enforced
here:

* **Byte-identity** — a :class:`~repro.core.serving.DiscoverySnapshot`
  built from any plane (single server, or the sharded coordinator at 1–8
  shards) answers ``closest_peers`` / ``neighbor_list`` /
  ``estimate_distance`` / every read accessor exactly like the live plane
  at the same epoch, for randomized operation histories (hypothesis).
* **Single-generation consistency** — readers racing the publisher across
  thread preemption observe, per query, state belonging to exactly one
  published generation: every sampled answer matches the reference replay
  of that generation, never a torn mix of two epochs.

A published epoch is a *patch* of the previous one (stable node ids and
peer slots, rows re-read only where the plane's change record says so), so
a third property rides on the first: whatever the history — joins, leaves,
re-joins, handovers, live cold queries, writes made behind the publisher's
back — the patched epoch ``==`` a snapshot built from scratch, and each
event the record cannot describe falls back to a whole rebuild that is just
as right (:class:`TestPatchedEpochs`).
"""

from __future__ import annotations

import pickle
import threading
import time
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ManagementServer, ShardedManagementServer
from repro.core.path import RouterPath
from repro.core.serving import DiscoverySnapshot, SnapshotPublisher, SnapshotReader

MAX_PEERS = 20
MAX_LANDMARKS = 4


def landmark_name(index: int) -> str:
    return f"lm{index}"


def make_path(peer_id: str, landmark_index: int, shape: Tuple[int, int, int]) -> RouterPath:
    """A synthetic 5-router path under one landmark's disjoint hierarchy."""
    landmark = landmark_name(landmark_index)
    region, pop, access = shape
    routers = [
        f"{landmark}-acc-{region}-{pop}-{access}",
        f"{landmark}-pop-{region}-{pop}",
        f"{landmark}-reg-{region}",
        f"{landmark}-core",
        landmark,
    ]
    return RouterPath.from_routers(peer_id, landmark, routers)


def landmark_distances(landmark_count: int):
    return {
        (landmark_name(i), landmark_name(j)): float(1 + abs(i - j))
        for i in range(landmark_count)
        for j in range(landmark_count)
        if i < j
    }


def build_plane(shard_count, landmark_count, with_distances, maintain_cache, k):
    """``shard_count=None`` builds the single server, else inline shards."""
    distances = landmark_distances(landmark_count) if with_distances else None
    if shard_count is None:
        plane = ManagementServer(
            neighbor_set_size=k, maintain_cache=maintain_cache, landmark_distances=distances
        )
    else:
        plane = ShardedManagementServer(
            shard_count,
            neighbor_set_size=k,
            maintain_cache=maintain_cache,
            landmark_distances=distances,
        )
    for index in range(landmark_count):
        plane.register_landmark(landmark_name(index), landmark_name(index))
    return plane


def apply_op(plane, op):
    try:
        kind = op[0]
        if kind == "arrive":
            _, peer_index, lm_index, shape = op
            return ("ok", plane.register_peer(make_path(f"p{peer_index}", lm_index, shape)))
        if kind == "batch":
            _, specs = op
            return (
                "ok",
                plane.register_peers(
                    [make_path(f"p{i}", lm, shape) for i, lm, shape in specs]
                ),
            )
        if kind == "depart":
            _, peer_index = op
            return ("ok", plane.unregister_peer(f"p{peer_index}"))
        raise AssertionError(f"unknown op {op!r}")
    except Exception as error:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(error).__name__, str(error))


def probe(target, peer_a, peer_b):
    try:
        return ("ok", target.estimate_distance(peer_a, peer_b))
    except Exception as error:  # noqa: BLE001
        return ("error", type(error).__name__, str(error))


def assert_snapshot_matches_live(snapshot: DiscoverySnapshot, plane) -> None:
    """The full read surface, compared byte for byte.

    Read-only comparisons first: a live ``closest_peers`` with
    ``k >= neighbor_set_size`` refills the cache (a mutation), so the
    big-``k`` sweep runs last — its answers must still match, and the
    small-``k``/``neighbor_list`` checks must not be polluted by it.
    """
    assert snapshot.peers() == plane.peers()
    assert snapshot.peer_count == plane.peer_count
    assert snapshot.landmarks() == plane.landmarks()
    for landmark in plane.landmarks():
        assert snapshot.landmark_router(landmark) == plane.landmark_router(landmark)
    for peer in plane.peers():
        assert snapshot.has_peer(peer)
        assert snapshot.peer_path(peer) == plane.peer_path(peer)
        assert snapshot.peer_landmark(peer) == plane.peer_landmark(peer)
        assert snapshot.neighbor_list(peer) == plane.neighbor_list(peer)
        assert snapshot.compact_index(peer) == plane._interner.index(peer)
        for k in (1, plane.neighbor_set_size):
            assert snapshot.closest_peers(peer, k) == plane.closest_peers(peer, k), (peer, k)
        assert snapshot.closest_peers(peer) == plane.closest_peers(peer)
    sample = plane.peers()[:8]
    for peer_a in sample:
        for peer_b in sample:
            assert probe(snapshot, peer_a, peer_b) == probe(plane, peer_a, peer_b)
    for peer in plane.peers():  # cache-refilling queries last (see docstring)
        big = plane.neighbor_set_size + 3
        assert snapshot.closest_peers(peer, big) == plane.closest_peers(peer, big)
    ghost = "never-registered"
    assert not snapshot.has_peer(ghost)
    for reader_error in (
        lambda: snapshot.closest_peers(ghost),
        lambda: snapshot.neighbor_list(ghost),
        lambda: snapshot.peer_landmark(ghost),
        lambda: snapshot.peer_path(ghost),
    ):
        with pytest.raises(Exception) as caught:
            reader_error()
        assert type(caught.value).__name__ == "UnknownPeerError"


@st.composite
def serving_cases(draw):
    landmark_count = draw(st.integers(1, MAX_LANDMARKS))
    shard_count = draw(st.sampled_from([None, 1, 2, 3, 5, 8]))
    with_distances = draw(st.booleans())
    maintain_cache = draw(st.booleans())
    k = draw(st.integers(1, 4))
    shape = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))
    peer = st.integers(0, MAX_PEERS - 1)
    lm = st.integers(0, landmark_count - 1)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("arrive"), peer, lm, shape),
                st.tuples(
                    st.just("batch"),
                    st.lists(st.tuples(peer, lm, shape), min_size=1, max_size=5),
                ),
                st.tuples(st.just("depart"), peer),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return landmark_count, shard_count, with_distances, maintain_cache, k, ops


class TestSnapshotByteIdentity:
    @settings(deadline=None)
    @given(case=serving_cases())
    def test_snapshot_matches_live_plane(self, case):
        landmark_count, shard_count, with_distances, maintain_cache, k, ops = case
        plane = build_plane(shard_count, landmark_count, with_distances, maintain_cache, k)
        try:
            for op in ops:
                apply_op(plane, op)
            snapshot = DiscoverySnapshot.build(plane, generation=7)
            assert snapshot.generation == 7
            assert_snapshot_matches_live(snapshot, plane)
        finally:
            plane.close()

    @pytest.mark.parametrize("shard_count", [None, 1, 2, 4, 8])
    def test_churned_plane_snapshot_is_byte_identical(self, shard_count):
        """A fixed long churn history, including departures that gap the
        compact-index space — the case a re-interning restore would break."""
        plane = build_plane(shard_count, 3, True, True, 3)
        try:
            import random

            rng = random.Random(77)
            for step in range(160):
                action = rng.random()
                if action < 0.55:
                    apply_op(plane, ("arrive", rng.randrange(MAX_PEERS), rng.randrange(3), _shape(rng)))
                elif action < 0.7:
                    apply_op(
                        plane,
                        (
                            "batch",
                            [
                                (rng.randrange(MAX_PEERS), rng.randrange(3), _shape(rng))
                                for _ in range(rng.randrange(1, 4))
                            ],
                        ),
                    )
                else:
                    apply_op(plane, ("depart", rng.randrange(MAX_PEERS)))
            snapshot = DiscoverySnapshot.build(plane)
            assert_snapshot_matches_live(snapshot, plane)
        finally:
            plane.close()

    def test_snapshot_carries_the_interner_table(self):
        plane = build_plane(None, 1, False, True, 3)
        for i in range(6):
            apply_op(plane, ("arrive", i, 0, (i % 3, 0, 0)))
        plane.unregister_peer("p1")
        plane.unregister_peer("p3")
        snapshot = DiscoverySnapshot.build(plane)
        # Every live peer has its own slot, and the table is carried verbatim.
        assert sorted(snapshot._slot_of.values()) == list(range(plane.peer_count))
        for peer in plane.peers():
            assert snapshot.interner_table[peer] == plane._interner.key(peer)
            assert snapshot.compact_index(peer) == plane._interner.index(peer)
        assert snapshot.next_compact_index == plane._interner._next_index

    def test_equality_ignores_slot_and_node_numbering(self):
        """One plane state, different numberings.  The churned plane's tries
        carry node ids freed and reused out of order and its patched epoch
        kept the slots its history handed out; a fresh build of the same
        plane renumbers the slots, a restored copy (paths replayed into new
        tries) renumbers the nodes too — all three compare equal, as the
        ``__eq__`` contract says."""
        plane = build_plane(None, 2, True, True, 3)
        for i in range(24):
            apply_op(plane, ("arrive", i, i % 2, (i % 3, i % 2, 0)))
        publisher = SnapshotPublisher(plane)
        # Transients open new access routers (new trie nodes) and leave
        # again, so later arrivals pick freed ids and slots up in LIFO order.
        for i in range(30, 34):
            publisher.register_peer(make_path(f"p{i}", i % 2, (i % 3, 2, 1 + i % 3)))
        publisher.publish()
        for i in list(range(30, 34)) + [18, 23]:  # late arrivals: replay keeps child order
            publisher.unregister_peer(f"p{i}")
        for i in range(40, 44):
            publisher.register_peer(make_path(f"p{i}", i % 2, (2, 2, 1 + i % 3)))
        assert plane.changes is publisher._changes  # this epoch is a patch
        patched = publisher.publish()

        fresh = DiscoverySnapshot.build(plane)
        assert patched._slot_of != fresh._slot_of
        assert patched == fresh

        restored = ManagementServer(neighbor_set_size=3)
        restored.restore_state(plane.snapshot_state())
        rebuilt = DiscoverySnapshot.build(restored)
        assert any(
            patched._tries[landmark].routers != rebuilt._tries[landmark].routers
            for landmark in plane.landmarks()
        )
        assert patched == rebuilt

        plane.unregister_peer("p40")
        assert patched != DiscoverySnapshot.build(plane)

    def test_snapshot_is_picklable_plain_data(self):
        plane = build_plane(2, 2, True, True, 3)
        for i in range(8):
            apply_op(plane, ("arrive", i, i % 2, (i % 3, 0, i % 4)))
        snapshot = DiscoverySnapshot.build(plane, generation=3)
        clone = pickle.loads(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == snapshot
        assert clone.generation == 3
        for peer in plane.peers():
            assert clone.closest_peers(peer) == plane.closest_peers(peer)


def _shape(rng) -> Tuple[int, int, int]:
    return (rng.randrange(3), rng.randrange(3), rng.randrange(4))


class TestPublisher:
    def test_publish_bumps_generation_and_swaps_atomically(self):
        plane = build_plane(None, 1, False, True, 3)
        publisher = SnapshotPublisher(plane)
        assert publisher.generation == 1
        first = publisher.snapshot
        publisher.register_peer(make_path("p0", 0, (0, 0, 0)))
        second = publisher.publish()
        assert publisher.generation == 2
        assert publisher.snapshot is second
        assert not first.has_peer("p0") and second.has_peer("p0")

    def test_publish_every_batches_mutations(self):
        plane = build_plane(None, 1, False, True, 3)
        publisher = SnapshotPublisher(plane, publish_every=3)
        reader = SnapshotReader(publisher)
        for i in range(2):
            publisher.register_peer(make_path(f"p{i}", 0, (i, 0, 0)))
        assert reader.generation == 1  # buffered: not published yet
        assert publisher.pending_mutations == 2
        publisher.register_peer(make_path("p2", 0, (2, 0, 0)))  # third: publishes
        assert reader.generation == 2
        assert publisher.pending_mutations == 0
        assert reader.pin().has_peer("p2")
        # A batch counts every path; one big batch crosses the threshold.
        publisher.register_peers([make_path(f"q{i}", 0, (i, 1, 0)) for i in range(4)])
        assert reader.generation == 3

    def test_no_op_epochs_compare_equal(self):
        plane = build_plane(None, 2, True, True, 3)
        for i in range(5):
            apply_op(plane, ("arrive", i, i % 2, (i, 0, 0)))
        publisher = SnapshotPublisher(plane)
        before = publisher.snapshot
        after = publisher.publish()
        assert after.generation == before.generation + 1
        assert after == before  # content-equal despite the new stamp
        publisher.register_peer(make_path("px", 0, (1, 1, 1)))
        assert publisher.publish() != before

    def test_reader_pin_is_stable_across_publishes(self):
        plane = build_plane(None, 1, False, True, 3)
        publisher = SnapshotPublisher(plane)
        reader = SnapshotReader(publisher)
        publisher.register_peer(make_path("p0", 0, (0, 0, 0)))
        publisher.publish()
        pinned = reader.pin()
        peers_at_pin = pinned.peers()
        for i in range(1, 6):
            publisher.register_peer(make_path(f"p{i}", 0, (i % 3, 0, 0)))
            publisher.publish()
        assert pinned.peers() == peers_at_pin  # immutable: untouched by epochs
        assert reader.pin().peer_count == 6

    def test_reader_over_fixed_snapshot(self):
        plane = build_plane(None, 1, False, True, 3)
        apply_op(plane, ("arrive", 0, 0, (0, 0, 0)))
        snapshot = DiscoverySnapshot.build(plane, generation=9)
        reader = SnapshotReader(snapshot)
        assert reader.generation == 9
        assert reader.closest_peers("p0") == plane.closest_peers("p0")
        assert reader.queries_served == 1


BASE_PEERS = 24


def base_population(plane, landmark_count: int) -> None:
    """``b0..b23`` under every landmark: room for the change record's bound
    (it may not name more peers than are alive) before the history starts."""
    plane.register_peers(
        [
            make_path(f"b{i}", i % landmark_count, (i % 3, (i // 3) % 3, i % 4))
            for i in range(BASE_PEERS)
        ]
    )


def publish_and_check(publisher: SnapshotPublisher) -> bool:
    """Publish; the epoch must equal a from-scratch build and the live plane.

    Returns whether the epoch was a patch (the publisher's record was still
    the one the plane was filling).
    """
    plane = publisher.plane
    patched = plane.changes is not None and plane.changes is publisher._changes
    snapshot = publisher.publish()
    assert snapshot == DiscoverySnapshot.build(plane)  # before the live queries below
    assert_snapshot_matches_live(snapshot, plane)
    return patched


def apply_history_op(publisher: SnapshotPublisher, op) -> None:
    """One step of a patched-epoch history (see :func:`patched_cases`)."""
    kind = op[0]
    plane = publisher.plane
    if kind == "publish":
        publish_and_check(publisher)
        return
    if kind == "cold":  # a live cold query rewrites that peer's cached list
        if plane.has_peer(f"p{op[1]}"):
            plane.closest_peers(f"p{op[1]}", plane.neighbor_set_size + 2)
        return
    target = plane if op[-1] else publisher  # behind the publisher's back, or through it
    if kind == "bounce":  # leave and re-join with the same path, one epoch
        peer = f"p{op[1]}"
        if plane.has_peer(peer):
            path = plane.peer_path(peer)
            target.unregister_peer(peer)
            target.register_peer(path)
        return
    apply_op(target, op[:-1])  # arrive (also: re-join, handover), batch, depart


@st.composite
def patched_cases(draw):
    landmark_count = draw(st.integers(1, MAX_LANDMARKS))
    shard_count = draw(st.sampled_from([None, 1, 2, 3, 5, 8]))
    with_distances = draw(st.booleans())
    maintain_cache = draw(st.booleans())
    k = draw(st.integers(1, 4))
    shape = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))
    peer = st.integers(0, 11)  # a small pool: re-joins and handovers are common
    lm = st.integers(0, landmark_count - 1)
    direct = st.booleans()
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("arrive"), peer, lm, shape, direct),
                st.tuples(
                    st.just("batch"),
                    st.lists(st.tuples(peer, lm, shape), min_size=1, max_size=4),
                    direct,
                ),
                st.tuples(st.just("depart"), peer, direct),
                st.tuples(st.just("bounce"), peer, direct),
                st.tuples(st.just("cold"), peer),
                st.tuples(st.just("publish")),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return landmark_count, shard_count, with_distances, maintain_cache, k, ops


class TestPatchedEpochs:
    """Epoch N+1 is a patch of epoch N — and indistinguishable from a rebuild."""

    @settings(deadline=None)
    @given(case=patched_cases())
    def test_patched_snapshot_equals_fresh_build_and_live_plane(self, case):
        landmark_count, shard_count, with_distances, maintain_cache, k, ops = case
        plane = build_plane(shard_count, landmark_count, with_distances, maintain_cache, k)
        try:
            base_population(plane, landmark_count)
            publisher = SnapshotPublisher(plane)
            for op in ops:
                apply_history_op(publisher, op)
            publish_and_check(publisher)
        finally:
            plane.close()

    @pytest.mark.parametrize("shard_count", [None, 1, 2, 4, 8])
    def test_long_churn_is_published_as_patches(self, shard_count):
        import random

        rng = random.Random(4242)
        plane = build_plane(shard_count, 3, True, True, 3)
        try:
            base_population(plane, 3)
            publisher = SnapshotPublisher(plane)
            patched = 0
            for _ in range(40):
                for _ in range(rng.randrange(1, 4)):
                    peer = rng.randrange(12)
                    direct = rng.random() < 0.3
                    action = rng.random()
                    if action < 0.5:
                        op = ("arrive", peer, rng.randrange(3), _shape(rng), direct)
                    elif action < 0.7:
                        op = ("depart", peer, direct)
                    elif action < 0.85:
                        op = ("bounce", peer, direct)
                    else:
                        op = ("cold", peer)
                    apply_history_op(publisher, op)
                patched += publish_and_check(publisher)
            assert patched == 40  # small epochs over 24+ peers never outgrow the record
        finally:
            plane.close()

    def test_consecutive_epochs_share_what_did_not_change(self):
        plane = build_plane(None, 3, True, True, 3)
        base_population(plane, 3)
        publisher = SnapshotPublisher(plane)
        before = publisher.snapshot
        publisher.register_peer(make_path("newcomer", 0, (1, 1, 1)))
        publisher.unregister_peer("b3")  # b3 lives under lm0 as well
        after = publisher.publish()
        # Peers that stayed kept their slots; the leaver's slot went to the newcomer.
        for peer in plane.peers():
            if peer != "newcomer":
                assert after._slot_of[peer] == before._slot_of[peer]
        assert after._slot_of["newcomer"] == before._slot_of["b3"]
        # Untouched landmarks share their whole trie (its root row is their
        # min-hop ordering) with the previous epoch; in the touched trie only
        # the root path's rows moved.
        for landmark in ("lm1", "lm2"):
            assert after._tries[landmark] is before._tries[landmark]
        old, new = before._tries["lm0"], after._tries["lm0"]
        assert new is not old
        rewritten = [
            node
            for node in range(len(new.routers))
            if node >= len(old.routers) or new.rows[node] is not old.rows[node]
        ]
        assert 0 < len(rewritten) <= 2 * 5  # two five-router root paths

    def test_pinned_epoch_is_untouched_by_later_patches(self):
        plane = build_plane(2, 3, True, True, 3)
        try:
            base_population(plane, 3)
            publisher = SnapshotPublisher(plane)
            publisher.register_peer(make_path("p0", 0, (0, 0, 0)))
            pinned = publisher.publish()
            content = pinned._content()
            answers = {
                peer: (
                    pinned.closest_peers(peer),
                    pinned.closest_peers(peer, 6),
                    pinned.neighbor_list(peer),
                )
                for peer in pinned.peers()
            }
            for epoch in range(1, 6):
                publisher.unregister_peer(f"b{epoch}")
                publisher.register_peer(make_path(f"p{epoch}", epoch % 3, (epoch % 3, 1, 2)))
                publisher.register_peer(make_path("p0", epoch % 3, (1, epoch % 3, 0)))  # handover
                assert publish_and_check(publisher)
            assert pinned._content() == content
            for peer, expected in answers.items():
                assert (
                    pinned.closest_peers(peer),
                    pinned.closest_peers(peer, 6),
                    pinned.neighbor_list(peer),
                ) == expected
        finally:
            plane.close()

    @pytest.mark.parametrize(
        "trigger",
        ["restore_state", "new_landmark", "landmark_distance", "outgrown_record", "second_consumer"],
    )
    def test_what_the_record_cannot_describe_rebuilds_whole(self, trigger):
        plane = build_plane(None, 2, True, True, 3)
        base_population(plane, 2)
        publisher = SnapshotPublisher(plane)
        publisher.register_peer(make_path("p0", 0, (0, 0, 0)))
        assert publish_and_check(publisher)  # the epoch before the trigger is a patch
        other = None
        if trigger == "restore_state":
            plane.restore_state(plane.snapshot_state())
        elif trigger == "new_landmark":
            publisher.register_landmark("lmX", "lmX")
            plane.set_landmark_distance("lm0", "lmX", 2.0)
            publisher.register_peer(
                RouterPath.from_routers("px", "lmX", ["lmX-acc", "lmX-core", "lmX"])
            )
        elif trigger == "landmark_distance":
            publisher.set_landmark_distance("lm0", "lm1", 9.0)
        elif trigger == "outgrown_record":
            for i in range(3 * BASE_PEERS):  # open-world churn, never published
                publisher.register_peer(make_path(f"t{i}", i % 2, (i % 3, 2, 3)))
                publisher.unregister_peer(f"t{i}")
        elif trigger == "second_consumer":
            other = SnapshotPublisher(plane)
        publisher.register_peer(make_path("p1", 1, (1, 1, 1)))
        publisher.unregister_peer("b2")
        assert plane.changes is not publisher._changes
        assert not publish_and_check(publisher)  # built whole, and right
        publisher.register_peer(make_path("p2", 0, (2, 0, 1)))
        assert publish_and_check(publisher)  # and patching resumes
        if other is not None:
            # The first publisher took the record back; the second notices.
            assert not publish_and_check(other)
            assert other.snapshot == publisher.snapshot

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_remote_shards_rebuild_whole_every_epoch(self, backend):
        """A remote shard's ``tree()`` is a fresh export: nothing to record."""
        from repro.core.remote import shard_factory_for

        plane = ShardedManagementServer(
            2,
            neighbor_set_size=3,
            landmark_distances=landmark_distances(3),
            shard_factory=shard_factory_for(backend, 3),
        )
        try:
            for index in range(3):
                plane.register_landmark(landmark_name(index), landmark_name(index))
            base_population(plane, 3)
            publisher = SnapshotPublisher(plane)
            assert publisher._changes is None and plane.changes is None
            for epoch in range(3):
                publisher.register_peer(make_path(f"p{epoch}", epoch, (epoch, 1, 2)))
                publisher.unregister_peer(f"b{epoch}")
                assert not publish_and_check(publisher)
        finally:
            plane.close()


class TestMidEpochConsistency:
    """Readers racing the publisher see exactly one generation per query.

    The writer publishes a deterministic epoch sequence: epoch ``e``
    registers peer ``e<e>`` and restamps the lm0–lm1 distance to ``10 + e``,
    so generation ``g`` implies exactly the peers of epochs ``1..g-1`` and
    distance ``10 + (g - 1)``.  Reader threads spin concurrently, pin a
    snapshot per query, and record what they saw; every sample must match
    the reference replay of its generation — a torn read (new peer visible
    with the old distance, or vice versa) matches no generation and fails.
    """

    EPOCHS = 30

    def _expected(self, generation: int) -> Tuple[List[str], float]:
        epoch = generation - 1
        return ([f"e{i}" for i in range(1, epoch + 1)], 10.0 + epoch)

    @pytest.mark.parametrize("shard_count", [None, 1, 2, 4, 8])
    def test_concurrent_readers_see_single_generations(self, shard_count):
        plane = build_plane(shard_count, 2, True, True, 3)
        plane.set_landmark_distance("lm0", "lm1", 10.0)
        publisher = SnapshotPublisher(plane)
        stop = threading.Event()
        samples: List[List[Tuple[int, Tuple[str, ...], float]]] = [[] for _ in range(3)]
        errors: List[BaseException] = []

        def read_loop(slot: int) -> None:
            reader = SnapshotReader(publisher)
            try:
                while not stop.is_set():
                    snapshot = reader.pin()
                    peers = tuple(p for p in snapshot.peers() if str(p).startswith("e"))
                    distance = snapshot.landmark_distance("lm0", "lm1")
                    # Same pin: peers + distance + generation in one record.
                    samples[slot].append((snapshot.generation, peers, distance))
                    if peers:
                        snapshot.closest_peers(peers[-1])  # must not raise mid-epoch
            except BaseException as error:  # noqa: BLE001 - fail the test, not the thread
                errors.append(error)

        threads = [threading.Thread(target=read_loop, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        try:
            for epoch in range(1, self.EPOCHS + 1):
                publisher.register_peer(make_path(f"e{epoch}", epoch % 2, (epoch % 3, 0, 0)))
                publisher.set_landmark_distance("lm0", "lm1", 10.0 + epoch)
                publisher.publish()
                time.sleep(0.001)  # give readers a scheduling window per epoch
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            plane.close()
        assert not errors, errors

        observed_generations = set()
        for reader_samples in samples:
            for generation, peers, distance in reader_samples:
                expected_peers, expected_distance = self._expected(generation)
                assert list(peers) == expected_peers, generation
                assert distance == expected_distance, generation
                observed_generations.add(generation)
        # The race must actually have happened: readers observed several
        # distinct epochs, not just the final state.
        assert len(observed_generations) >= 3
        assert max(observed_generations) <= self.EPOCHS + 1

    def test_concurrent_readers_see_single_patched_generations(self):
        """The same race over epochs that are *patches*: no distance restamp
        (that would rebuild whole), instead epoch ``e`` swaps ``e<e-1>`` for
        ``e<e>`` at the witness's own access router.  Generation ``g`` then
        implies exactly one ``e`` peer, first in the witness's cached list
        and first in its cold trie walk; a reader that mixed one epoch's slot
        arrays with another's trie rows would see the wrong peer or none."""
        plane = build_plane(2, 2, True, True, 3)
        base_population(plane, 2)
        plane.register_peer(make_path("w", 0, (0, 0, 9)))
        publisher = SnapshotPublisher(plane)
        stop = threading.Event()
        samples: List[List[Tuple[int, Tuple[str, ...], object, object]]] = [[] for _ in range(3)]
        errors: List[BaseException] = []

        def read_loop(slot: int) -> None:
            reader = SnapshotReader(publisher)
            try:
                while not stop.is_set():
                    snapshot = reader.pin()
                    peers = tuple(p for p in snapshot.peers() if str(p).startswith("e"))
                    samples[slot].append(
                        (
                            snapshot.generation,
                            peers,
                            snapshot.closest_peers("w", 1),
                            snapshot.closest_peers("w", 5)[0],
                        )
                    )
            except BaseException as error:  # noqa: BLE001 - fail the test, not the thread
                errors.append(error)

        threads = [threading.Thread(target=read_loop, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        patched = 0
        try:
            for epoch in range(1, self.EPOCHS + 1):
                if epoch > 1:
                    publisher.unregister_peer(f"e{epoch - 1}")
                publisher.register_peer(make_path(f"e{epoch}", 0, (0, 0, 9)))
                patched += plane.changes is publisher._changes
                publisher.publish()
                time.sleep(0.001)  # give readers a scheduling window per epoch
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            plane.close()
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        assert patched == self.EPOCHS

        observed_generations = set()
        for reader_samples in samples:
            for generation, peers, cached, walked in reader_samples:
                observed_generations.add(generation)
                if generation == 1:
                    assert peers == ()
                    continue
                newest = f"e{generation - 1}"
                assert peers == (newest,), generation
                assert cached == [(newest, 2.0)], generation
                assert walked == (newest, 2.0), generation
        assert len(observed_generations) >= 3
        assert max(observed_generations) <= self.EPOCHS + 1

    def test_published_epochs_match_reference_replay(self):
        """Every retained epoch is byte-identical to a fresh replay of it."""
        plane = build_plane(2, 2, True, True, 3)
        plane.set_landmark_distance("lm0", "lm1", 10.0)
        publisher = SnapshotPublisher(plane)
        retained: Dict[int, DiscoverySnapshot] = {publisher.generation: publisher.snapshot}
        for epoch in range(1, 9):
            publisher.register_peer(make_path(f"e{epoch}", epoch % 2, (epoch % 3, 0, 0)))
            publisher.set_landmark_distance("lm0", "lm1", 10.0 + epoch)
            published = publisher.publish()
            retained[published.generation] = published
        plane.close()

        reference = build_plane(None, 2, True, True, 3)
        reference.set_landmark_distance("lm0", "lm1", 10.0)
        for generation in sorted(retained):
            epoch = generation - 1
            if epoch > 0:
                reference.register_peer(make_path(f"e{epoch}", epoch % 2, (epoch % 3, 0, 0)))
                reference.set_landmark_distance("lm0", "lm1", 10.0 + epoch)
            snapshot = retained[generation]
            for peer in reference.peers():
                assert snapshot.closest_peers(peer) == reference.closest_peers(peer)
                assert snapshot.neighbor_list(peer) == reference.neighbor_list(peer)
