"""Serving-plane oracles: snapshots are byte-identical and epoch-consistent.

Two properties make the lock-free read path safe, and both are enforced
here:

* **Byte-identity** — a :class:`~repro.core.serving.DiscoverySnapshot`
  built from any plane (single server, or the sharded coordinator at 1–8
  shards) lists the same peers and answers ``closest_peers`` exactly like
  the live plane at the same epoch, for randomized operation histories
  (hypothesis).
* **Single-generation consistency** — readers racing the publisher across
  thread preemption observe, per query, state belonging to exactly one
  published generation: every sampled answer matches the reference replay
  of that generation, never a torn mix of two epochs.

A published epoch is a *patch* of the previous one (stable node ids,
per-peer state keyed by peer, rows and peers re-read only where the plane's
change record says so), so a third property rides on the first: whatever
the history — joins, leaves, re-joins, handovers, live cold queries, writes
made behind the publisher's back — the patched epoch ``==`` a snapshot
built from scratch, and each event the record cannot describe falls back to
a whole rebuild that is just as right (:class:`TestPatchedEpochs`).  A
snapshot cannot store a refill, so the publisher refills the lists its
epoch eroded before it freezes them: a read walks the frozen trie only
where the live cache would miss, and never for an owner the record named.

The paths, planes, op vocabulary and the snapshot-vs-live audit are the
shared oracle harness's (``tests/oracle.py``); CI runs the three hypothesis
oracles here at the ``ci-equivalence`` budget (``-m oracle``).
"""

from __future__ import annotations

import pickle
import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ManagementServer
from repro.core.serving import DiscoverySnapshot, FlatTrie, SnapshotPublisher, SnapshotReader

from ..oracle import PROFILED, apply_op, audit, build_plane, cases, make_path, path, random_op

MAX_PEERS = 20
MAX_LANDMARKS = 4
#: The planes every serving oracle runs on: ``None`` is the single server.
SHARD_COUNTS = st.sampled_from([None, 1, 2, 3, 5, 8])


class TestSnapshotByteIdentity:
    @PROFILED
    @settings(deadline=None)
    @given(
        case=cases(
            MAX_LANDMARKS, shard_counts=SHARD_COUNTS, peers=MAX_PEERS, batch_size=5
        )
    )
    def test_snapshot_matches_live_plane(self, case):
        plane = build_plane(*case[:-1])
        try:
            for op in case.ops:
                apply_op(plane, op)
            snapshot = DiscoverySnapshot.build(plane, generation=7)
            assert snapshot.generation == 7
            audit(snapshot, plane)
        finally:
            plane.close()

    @pytest.mark.parametrize("shard_count", [None, 1, 2, 4, 8])
    def test_churned_plane_snapshot_is_byte_identical(self, shard_count):
        """A fixed long churn history, including departures that free trie
        node ids for later arrivals to reuse."""
        plane = build_plane(shard_count, 3)
        try:
            rng = random.Random(77)
            for _ in range(160):
                apply_op(plane, random_op(rng, (0.55, 0.7, 1.0), MAX_PEERS, 3, (1, 4)))
            audit(DiscoverySnapshot.build(plane), plane)
        finally:
            plane.close()

    @pytest.mark.parametrize("shard_count", [None, 2], ids=["single", "sharded-2-cacheless"])
    def test_building_leaves_the_plane_alone(self, shard_count):
        """A build only reads the plane: its interner and its change record
        are what they were, even on a cache-less coordinator, whose interner
        holds none of the peers its shards keep."""
        plane = build_plane(shard_count, 2, True, shard_count is None, 3)
        try:
            record = plane.track_changes()
            plane.register_peers(
                [make_path(f"p{i}", i % 2, (0, i % 3, i % 5, i % 7)) for i in range(200)]
            )

            def recorded():
                nodes = {landmark: set(ids) for landmark, ids in record.nodes.items()}
                return nodes, set(record.owners), list(record.peers)

            table, before = plane._interner.table(), recorded()
            DiscoverySnapshot.build(plane)
            assert plane._interner.table() == table
            assert plane.changes is record
            assert recorded() == before
        finally:
            plane.close()

    def test_equality_ignores_node_numbering(self):
        """One plane state, different numberings.  The churned plane's tries
        carry node ids freed and reused out of order; its patched epoch, a
        fresh build of the same plane and a rebuilt copy (paths replayed
        into new tries, so the nodes are renumbered) all compare equal, as
        the ``__eq__`` contract says."""
        plane = build_plane(None, 2)
        for i in range(24):
            apply_op(plane, ("arrive", i, i % 2, (0, i % 3, i % 2, 0)))
        publisher = SnapshotPublisher(plane)
        # Transients open new access routers (new trie nodes) and leave
        # again, so later arrivals pick freed ids up in LIFO order.
        for i in range(30, 34):
            publisher.register_peer(make_path(f"p{i}", i % 2, (0, i % 3, 2, 1 + i % 3)))
        publisher.publish()
        for i in list(range(30, 34)) + [18, 23]:  # late arrivals: replay keeps child order
            publisher.unregister_peer(f"p{i}")
        for i in range(40, 44):
            publisher.register_peer(make_path(f"p{i}", i % 2, (0, 2, 2, 1 + i % 3)))
        assert plane.changes is publisher._changes  # this epoch is a patch
        patched = publisher.publish()

        fresh = DiscoverySnapshot.build(plane)
        assert patched == fresh

        copy = ManagementServer(3, landmark_distances=dict(plane._landmark_distances))
        for landmark in plane.landmarks():
            copy.register_landmark(landmark, plane.landmark_router(landmark))
        copy.insert_paths([plane.peer_path(peer) for peer in plane.peers()])  # one load
        copy._cache = plane._cache  # the same lists over the renumbered tries
        rebuilt = DiscoverySnapshot.build(copy)
        assert any(
            patched._tries[landmark].routers != rebuilt._tries[landmark].routers
            for landmark in plane.landmarks()
        )
        assert patched == rebuilt

        plane.unregister_peer("p40")
        assert patched != DiscoverySnapshot.build(plane)

    def test_snapshot_is_picklable_plain_data(self):
        plane = build_plane(2, 2)
        for i in range(8):
            apply_op(plane, ("arrive", i, i % 2, (0, i % 3, 0, i % 4)))
        snapshot = DiscoverySnapshot.build(plane, generation=3)
        clone = pickle.loads(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == snapshot
        assert clone.generation == 3
        for peer in plane.peers():
            assert clone.closest_peers(peer) == plane.closest_peers(peer)

    def test_equal_snapshots_are_unhashable(self):
        """Content equality with identity hashing put equal snapshots in
        different set buckets (``b in {a}`` was False although ``a == b``);
        a snapshot has no hash instead."""
        plane = build_plane(None, 2)
        for i in range(6):
            apply_op(plane, ("arrive", i, i % 2, (0, i % 3, 0, 0)))
        first, second = DiscoverySnapshot.build(plane), DiscoverySnapshot.build(plane)
        assert first == second and first is not second
        with pytest.raises(TypeError, match="unhashable"):
            {first}


class TestPublisher:
    def test_publish_bumps_generation_and_swaps_atomically(self):
        plane = build_plane(None, 1, False)
        publisher = SnapshotPublisher(plane)
        first = publisher.snapshot
        assert first.generation == 1
        publisher.register_peer(make_path("p0", 0, (0, 0, 0, 0)))
        second = publisher.publish()
        assert second.generation == 2
        assert publisher.snapshot is second
        assert "p0" not in first.peers() and "p0" in second.peers()

    def test_no_op_epochs_compare_equal(self):
        plane = build_plane(None, 2)
        for i in range(5):
            apply_op(plane, ("arrive", i, i % 2, (0, i, 0, 0)))
        publisher = SnapshotPublisher(plane)
        before = publisher.snapshot
        after = publisher.publish()
        assert after.generation == before.generation + 1
        assert after == before  # content-equal despite the new stamp
        publisher.register_peer(make_path("px", 0, (0, 1, 1, 1)))
        assert publisher.publish() != before

    def test_reader_pin_is_stable_across_publishes(self):
        plane = build_plane(None, 1, False)
        publisher = SnapshotPublisher(plane)
        reader = SnapshotReader(publisher)
        publisher.register_peer(make_path("p0", 0, (0, 0, 0, 0)))
        publisher.publish()
        pinned = reader.pin()
        peers_at_pin = pinned.peers()
        for i in range(1, 6):
            publisher.register_peer(make_path(f"p{i}", 0, (0, i % 3, 0, 0)))
            publisher.publish()
        assert pinned.peers() == peers_at_pin  # immutable: untouched by epochs
        assert len(reader.pin().peers()) == 6

    def test_reader_over_fixed_snapshot(self):
        plane = build_plane(None, 1, False)
        apply_op(plane, ("arrive", 0, 0, (0, 0, 0, 0)))
        snapshot = DiscoverySnapshot.build(plane, generation=9)
        reader = SnapshotReader(snapshot)
        assert reader.pin().generation == 9
        assert reader.closest_peers("p0") == plane.closest_peers("p0")


BASE_PEERS = 24


def base_population(plane, landmark_count: int) -> None:
    """``b0..b23`` under every landmark: room for the change record's bound
    (it may not name more peers than are alive) before the history starts."""
    plane.register_peers(
        [
            make_path(f"b{i}", i % landmark_count, (0, i % 3, (i // 3) % 3, i % 4))
            for i in range(BASE_PEERS)
        ]
    )


def epoch_histories(shard_counts, *kinds: str):
    """:func:`cases` for the patched-epoch oracle, with ``kinds`` added."""
    return cases(
        MAX_LANDMARKS,
        shard_counts=shard_counts,
        peers=12,  # a small pool: re-joins and handovers are common
        kinds=("arrive", "batch", "depart", "bounce", "cold", "publish", *kinds),
        batch_size=4,
    )


def check_epoch(snapshot: DiscoverySnapshot, plane) -> None:
    """A published epoch equals a from-scratch build and the live plane."""
    assert snapshot == DiscoverySnapshot.build(plane)  # before the live queries below
    audit(snapshot, plane)


def cache_would_serve(plane, peer, k: int) -> bool:
    """Whether the live ``plane.closest_peers(peer, k)`` would be a cache
    hit, asked without the query (which refills what misses)."""
    held = len(plane._cache.lists.get(peer, ()))
    return plane.maintain_cache and k <= plane.neighbor_set_size and (
        held >= k or held >= plane.peer_count - 1 or plane._cache.is_complete(peer)
    )


@contextmanager
def counting_walks():
    """The origins of every frozen-trie walk made inside the block."""
    walks: List[int] = []
    walk = FlatTrie.closest_from_node

    def counted(trie, origin, k, excluded):
        walks.append(origin)
        return walk(trie, origin, k, excluded)

    FlatTrie.closest_from_node = counted
    try:
        yield walks
    finally:
        FlatTrie.closest_from_node = walk


def named_by(publisher: SnapshotPublisher) -> Set[str]:
    """The peers the record of the coming publish names, if it is a patch."""
    record = publisher._changes
    if record is None or publisher.plane.changes is not record:
        return set()
    return set(record.peers) | record.owners


def publish_and_check(publisher: SnapshotPublisher) -> bool:
    """Publish and check the epoch (:func:`check_epoch`).

    Returns whether the epoch was a patch (the publisher's record was still
    the one the plane was filling).
    """
    plane = publisher.plane
    patched = plane.changes is not None and plane.changes is publisher._changes
    check_epoch(publisher.publish(), plane)
    return patched


class TestPatchedEpochs:
    """Epoch N+1 is a patch of epoch N — and indistinguishable from a rebuild.

    The history is joins (also re-joins and handovers), batches, leaves,
    bounces (a leave and a re-join on the same path in one epoch), live cold
    queries (each rewrites that peer's cached list) and publishes, all made
    on the plane itself: the publisher learns of them from the plane's
    change record alone.
    """

    @PROFILED
    @settings(deadline=None)
    @given(case=st.one_of(epoch_histories(st.just(None)), epoch_histories(SHARD_COUNTS)))
    def test_patched_snapshot_equals_fresh_build_and_live_plane(self, case):
        plane = build_plane(*case[:-1])
        try:
            base_population(plane, case.landmark_count)
            publisher = SnapshotPublisher(plane)
            for op in case.ops:
                outcome = apply_op(plane, op, publisher)
                if op == ("publish",):
                    check_epoch(outcome[1], plane)
            publish_and_check(publisher)
        finally:
            plane.close()

    @PROFILED
    @settings(deadline=None)
    @given(case=st.one_of(epoch_histories(st.just(None)), epoch_histories(SHARD_COUNTS)))
    def test_a_publish_refills_what_its_epoch_eroded(self, case):
        """After every publish, a snapshot read with ``k <= neighbor_set_size``
        walks the frozen trie exactly when the live plane would miss its
        cache, and never for a live owner a patched epoch's record named:
        the writer refilled those lists before it froze them."""
        plane = build_plane(*case[:-1])
        try:
            base_population(plane, case.landmark_count)
            publisher = SnapshotPublisher(plane)
            for op in [*case.ops, ("publish",)]:
                if op != ("publish",):
                    apply_op(plane, op)
                    continue
                named = named_by(publisher)
                snapshot = publisher.publish()
                for peer in plane.peers():
                    for k in range(1, plane.neighbor_set_size + 1):
                        with counting_walks() as walks:
                            snapshot.closest_peers(peer, k)
                        assert len(walks) == (not cache_would_serve(plane, peer, k)), (peer, k)
                        if plane.maintain_cache and peer in named:
                            assert not walks, (peer, k)
                check_epoch(snapshot, plane)
        finally:
            plane.close()

    @pytest.mark.parametrize("shard_count", [None, 2])
    def test_an_eroded_list_is_refilled_once_by_the_writer(self, shard_count):
        """Epochs of leaves and re-joins over 300 peers: after each publish
        every live list the record named is one the live cache serves at the
        default k, and a default read of an owner whose neighbour left is
        served from its frozen entries, without a walk."""
        rng = random.Random(56)
        plane = build_plane(shard_count, 3)
        try:
            paths = {
                f"p{i}": make_path(f"p{i}", i % 3, (0, i % 3, (i // 3) % 3, (i // 9) % 4))
                for i in range(300)
            }
            plane.register_peers(list(paths.values()))
            publisher = SnapshotPublisher(plane)
            left: List[str] = []
            for _ in range(8):
                rejoining, left = left, rng.sample(plane.peers(), 16)
                eroded = set()
                for peer in left:
                    eroded.update(plane._referenced_by.get(peer, ()))
                    publisher.unregister_peer(peer)
                for peer in rejoining:
                    publisher.register_peer(paths[peer])
                named = named_by(publisher)
                assert named  # a patch
                snapshot = publisher.publish()
                live = set(plane.peers())
                for owner in named & live:
                    assert cache_would_serve(plane, owner, plane.neighbor_set_size), owner
                eroded &= live
                assert len(eroded) > 16
                with counting_walks() as walks:
                    for owner in eroded:
                        snapshot.closest_peers(owner)
                assert walks == []
            check_epoch(snapshot, plane)
        finally:
            plane.close()

    @pytest.mark.parametrize("shard_count", [None, 1, 3])
    def test_a_patched_epoch_keeps_the_registration_order(self, shard_count):
        """Joins, a bounce, a re-registration and a batch that repeats a
        peer, all in one epoch: the snapshot lists the peers in the plane's
        order, the joined ones at its end."""
        plane = build_plane(shard_count, 2)
        try:
            base_population(plane, 2)
            publisher = SnapshotPublisher(plane)
            for op in (
                ("arrive", 0, 0, (0, 1, 1, 1)),  # A
                ("arrive", 1, 1, (0, 2, 1, 0)),  # B
                ("bounce", 0),  # A again, now after B
                ("batch", [(2, 0, (0, 0, 1, 2)), (1, 1, (0, 1, 2, 3)), (2, 1, (0, 2, 2, 2))]),
            ):
                apply_op(plane, op)
            publisher.register_peer(make_path("b3", 1, (0, 0, 0, 1)))  # an old peer moves
            publisher.unregister_peer("b5")
            assert named_by(publisher)  # a patch
            snapshot = publisher.publish()
            # The bounce puts A (p0) after B (p1); the batch re-registers B
            # and repeats p2, so [p0, p1, p2]; then b3.
            assert plane.peers()[-4:] == ["p0", "p1", "p2", "b3"]
            assert snapshot.peers() == plane.peers()
            check_epoch(snapshot, plane)
        finally:
            plane.close()

    @pytest.mark.parametrize("shard_count", [None, 1, 2, 4, 8])
    def test_long_churn_is_published_as_patches(self, shard_count):
        rng = random.Random(4242)
        plane = build_plane(shard_count, 3)
        try:
            base_population(plane, 3)
            publisher = SnapshotPublisher(plane)
            patched = 0
            for _ in range(40):
                for _ in range(rng.randrange(1, 4)):
                    peer = rng.randrange(12)
                    action = rng.random()
                    if action < 0.5:
                        branch = (0, rng.randrange(3), rng.randrange(3), rng.randrange(4))
                        op = ("arrive", peer, rng.randrange(3), branch)
                    elif action < 0.7:
                        op = ("depart", peer)
                    elif action < 0.85:
                        op = ("bounce", peer)
                    else:
                        op = ("cold", peer)
                    apply_op(plane, op)
                patched += publish_and_check(publisher)
            assert patched == 40  # small epochs over 24+ peers never outgrow the record
        finally:
            plane.close()

    def test_consecutive_epochs_share_what_did_not_change(self):
        plane = build_plane(None, 3)
        base_population(plane, 3)
        publisher = SnapshotPublisher(plane)
        before = publisher.snapshot
        publisher.register_peer(make_path("newcomer", 0, (0, 1, 1, 1)))
        publisher.unregister_peer("b3")  # b3 lives under lm0 as well
        after = publisher.publish()
        assert after.closest_peers("newcomer") == plane.closest_peers("newcomer")
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
        plane = build_plane(2, 3)
        try:
            base_population(plane, 3)
            publisher = SnapshotPublisher(plane)
            publisher.register_peer(make_path("p0", 0, (0, 0, 0, 0)))
            pinned = publisher.publish()
            content = pinned._content()
            answers = {
                peer: (
                    pinned.closest_peers(peer),
                    pinned.closest_peers(peer, 6),
                    pinned.closest_peers(peer, 1),
                )
                for peer in pinned.peers()
            }
            for epoch in range(1, 6):
                publisher.unregister_peer(f"b{epoch}")
                publisher.register_peer(make_path(f"p{epoch}", epoch % 3, (0, epoch % 3, 1, 2)))
                publisher.register_peer(make_path("p0", epoch % 3, (0, 1, epoch % 3, 0)))  # handover
                assert publish_and_check(publisher)
            assert pinned._content() == content
            for peer, expected in answers.items():
                assert (
                    pinned.closest_peers(peer),
                    pinned.closest_peers(peer, 6),
                    pinned.closest_peers(peer, 1),
                ) == expected
        finally:
            plane.close()

    @pytest.mark.parametrize(
        "trigger",
        ["new_landmark", "landmark_distance", "outgrown_record", "second_consumer"],
    )
    def test_what_the_record_cannot_describe_rebuilds_whole(self, trigger):
        plane = build_plane(None, 2)
        base_population(plane, 2)
        publisher = SnapshotPublisher(plane)
        publisher.register_peer(make_path("p0", 0, (0, 0, 0, 0)))
        assert publish_and_check(publisher)  # the epoch before the trigger is a patch
        other = None
        if trigger == "new_landmark":
            plane.register_landmark("lmX", "lmX")
            plane.set_landmark_distance("lm0", "lmX", 2.0)
            publisher.register_peer(path("px", ["lmX-acc", "lmX-core", "lmX"]))
        elif trigger == "landmark_distance":
            plane.set_landmark_distance("lm0", "lm1", 9.0)
        elif trigger == "outgrown_record":
            for i in range(3 * BASE_PEERS):  # open-world churn, never published
                publisher.register_peer(make_path(f"t{i}", i % 2, (0, i % 3, 2, 3)))
                publisher.unregister_peer(f"t{i}")
        elif trigger == "second_consumer":
            other = SnapshotPublisher(plane)
        publisher.register_peer(make_path("p1", 1, (0, 1, 1, 1)))
        publisher.unregister_peer("b2")
        assert plane.changes is not publisher._changes
        assert not publish_and_check(publisher)  # built whole, and right
        publisher.register_peer(make_path("p2", 0, (0, 2, 0, 1)))
        assert publish_and_check(publisher)  # and patching resumes
        if other is not None:
            # The first publisher took the record back; the second notices.
            assert not publish_and_check(other)
            assert other.snapshot == publisher.snapshot

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_remote_shards_rebuild_whole_every_epoch(self, backend):
        """A remote shard's ``tree()`` is a fresh export: nothing to record."""
        plane = build_plane(2, 3, backend=backend)
        try:
            base_population(plane, 3)
            publisher = SnapshotPublisher(plane)
            assert publisher._changes is None and plane.changes is None
            for epoch in range(3):
                publisher.register_peer(make_path(f"p{epoch}", epoch, (0, epoch, 1, 2)))
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
    snapshot per query, and record what they saw: the peers, and the
    witness ``w``'s answer over everyone, whose lm1 entries are priced
    with the lm0–lm1 distance.  Every sample must match the reference
    replay of its generation — a torn read (new peer visible with the old
    distance, or vice versa) matches no generation and fails.
    """

    EPOCHS = 30

    def _expected(self, generation: int) -> List[str]:
        return [f"e{i}" for i in range(1, generation)]

    def _reference_answers(self) -> Dict[int, List[Tuple[str, float]]]:
        """The witness's answer over everyone, per generation, on a fresh replay."""
        reference = build_plane(None, 2)
        reference.register_peer(make_path("w", 0, (0, 2, 2, 3)))
        reference.set_landmark_distance("lm0", "lm1", 10.0)
        answers = {1: reference.closest_peers("w", self.EPOCHS + 1)}
        for epoch in range(1, self.EPOCHS + 1):
            reference.register_peer(make_path(f"e{epoch}", epoch % 2, (0, epoch % 3, 0, 0)))
            reference.set_landmark_distance("lm0", "lm1", 10.0 + epoch)
            answers[epoch + 1] = reference.closest_peers("w", self.EPOCHS + 1)
        return answers

    @pytest.mark.parametrize("shard_count", [None, 1, 2, 4, 8])
    def test_concurrent_readers_see_single_generations(self, shard_count):
        plane = build_plane(shard_count, 2)
        plane.register_peer(make_path("w", 0, (0, 2, 2, 3)))
        plane.set_landmark_distance("lm0", "lm1", 10.0)
        publisher = SnapshotPublisher(plane)
        stop = threading.Event()
        samples: List[List[Tuple[int, Tuple[str, ...], object]]] = [[] for _ in range(3)]
        errors: List[BaseException] = []

        def read_loop(slot: int) -> None:
            reader = SnapshotReader(publisher)
            try:
                while not stop.is_set():
                    snapshot = reader.pin()
                    peers = tuple(p for p in snapshot.peers() if str(p).startswith("e"))
                    answer = snapshot.closest_peers("w", self.EPOCHS + 1)
                    # Same pin: peers + distance-priced answer + generation in one record.
                    samples[slot].append((snapshot.generation, peers, answer))
                    if peers:
                        snapshot.closest_peers(peers[-1])  # must not raise mid-epoch
            except BaseException as error:  # noqa: BLE001 - fail the test, not the thread
                errors.append(error)

        threads = [threading.Thread(target=read_loop, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        try:
            for epoch in range(1, self.EPOCHS + 1):
                publisher.register_peer(make_path(f"e{epoch}", epoch % 2, (0, epoch % 3, 0, 0)))
                plane.set_landmark_distance("lm0", "lm1", 10.0 + epoch)
                publisher.publish()
                time.sleep(0.001)  # give readers a scheduling window per epoch
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            plane.close()
        assert not errors, errors

        expected_answers = self._reference_answers()
        observed_generations = set()
        for reader_samples in samples:
            for generation, peers, answer in reader_samples:
                assert list(peers) == self._expected(generation), generation
                assert answer == expected_answers[generation], generation
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
        plane = build_plane(2, 2)
        base_population(plane, 2)
        plane.register_peer(make_path("w", 0, (0, 0, 0, 9)))
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
                publisher.register_peer(make_path(f"e{epoch}", 0, (0, 0, 0, 9)))
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
        plane = build_plane(2, 2)
        plane.set_landmark_distance("lm0", "lm1", 10.0)
        publisher = SnapshotPublisher(plane)
        retained: Dict[int, DiscoverySnapshot] = {publisher.snapshot.generation: publisher.snapshot}
        for epoch in range(1, 9):
            publisher.register_peer(make_path(f"e{epoch}", epoch % 2, (0, epoch % 3, 0, 0)))
            plane.set_landmark_distance("lm0", "lm1", 10.0 + epoch)
            published = publisher.publish()
            retained[published.generation] = published
        plane.close()

        reference = build_plane(None, 2)
        reference.set_landmark_distance("lm0", "lm1", 10.0)
        for generation in sorted(retained):
            epoch = generation - 1
            if epoch > 0:
                reference.register_peer(make_path(f"e{epoch}", epoch % 2, (0, epoch % 3, 0, 0)))
                reference.set_landmark_distance("lm0", "lm1", 10.0 + epoch)
            snapshot = retained[generation]
            for peer in reference.peers():
                assert snapshot.closest_peers(peer) == reference.closest_peers(peer)
                assert snapshot.closest_peers(peer, 1) == reference.closest_peers(peer, 1)
