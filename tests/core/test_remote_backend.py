"""Tests for remote shards (codec, supervisor, faults) on BOTH backend names.

One suite, parametrised over ``("process", "socket")`` — a forked child
shard server per shard vs. a loopback server thread, the same transport
under both: parity with an inline shard, the fault-injection contract
(typed ``ShardUnavailableError`` naming the shard — never a hang or a
decoder traceback), supervisor restart with journal replay, self-healing
under a ``RecoveryPolicy``, journal compaction, the one-deadline claim, and
teardown (no test may leave an orphaned process — enforced suite-wide by
the ``no_leaked_workers`` autouse fixture in ``tests/conftest.py``).
``kill(supervisor)`` (``tests/chaos.py``) is the crash on both: SIGKILL for
a process shard's child, a cut connection for a socket shard; ``TestRealCrash`` signals the
child directly.  What only one host can do lives in
``test_socket_backend.py`` (lifecycle, sever modes, stale epochs, the CLI).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ManagementServer, ShardBackend, ShardedManagementServer
from repro.core.codec import (
    MAX_FRAME_BYTES,
    _frame_end,
    decode_frame,
    decode_path,
    encode_frame,
    encode_path,
    encode_tail,
    encoded_peer,
    frame_tail,
)
from repro.core.path import RouterPath
from repro.core.path_tree import PathTree
from repro.core.remote import (
    DEFAULT_REQUEST_TIMEOUT,
    RecoveryPolicy,
    ShardRequestHandler,
    ShardSupervisorBase,
    _rebuild_exception,
    shard_factory_for,
)
from repro.core.socket_backend import LocalShardServer, SocketShardBackend
from repro.exceptions import (
    RegistrationError,
    ShardUnavailableError,
    UnknownPeerError,
    WireProtocolError,
)
from repro.workloads import synthetic_paths

from ..chaos import ChaosShardBackend, Fault, FaultPlan, kill
from ..oracle import apply_op, build_plane, cases, outcome, path, simple_path, trie_by_route


@pytest.fixture(params=("process", "socket"))
def backend_name(request):
    """Every test taking this runs once per remote backend name."""
    return request.param


@pytest.fixture()
def make_shard(backend_name):
    """Build one remote shard of the parametrised backend (kwargs as for
    ``shard_factory_for``: ``recovery=``, ``compact_watermark=``, ...)."""

    def make(neighbor_set_size=3, **kwargs):
        return shard_factory_for(backend_name, neighbor_set_size, **kwargs)()

    return make


@pytest.fixture()
def backend(make_shard):
    with make_shard() as shard:
        yield shard


@pytest.fixture()
def pair(backend):
    """A remote shard and an inline twin fed identical operations."""
    return backend, ManagementServer(neighbor_set_size=3, maintain_cache=False)


def seed_peers(*shards, landmark="lmA", count=4):
    for shard in shards:
        shard.register_landmark(landmark, landmark)
        shard.insert_paths(
            [simple_path(f"p{i}", landmark, access=f"a{i % 3}") for i in range(count)]
        )


class TestCodec:
    def test_path_round_trip(self):
        path = RouterPath.from_routers("p1", "lmA", ["a", "b", "lmA"], rtt_ms=12.5)
        assert decode_path(encode_path(path)) == path

    def test_malformed_path_rejected(self):
        with pytest.raises(WireProtocolError):
            decode_path(("not-a-path", 1, 2))

    @pytest.mark.parametrize("peer", ["p1", 17, ("host", 2)], ids=["str", "int", "tuple"])
    def test_encoded_peer_reads_the_id_without_decoding(self, peer):
        encoded = encode_path(RouterPath.from_routers(peer, "lmA", ["a", "lmA"]))
        assert encoded_peer(encoded) == peer
        assert encoded_peer(encoded) is decode_path(encoded).peer_id

    def test_frame_round_trip(self):
        message = (7, "ok", (("p1", 2.0), ("p2", 4.0)))
        assert decode_frame(encode_frame(message)) == (7, "ok", [["p1", 2.0], ["p2", 4.0]])

    def test_truncated_frame_rejected(self):
        frame = encode_frame((1, "ok", "value"))
        with pytest.raises(WireProtocolError):
            decode_frame(frame[:-1])
        with pytest.raises(WireProtocolError):
            decode_frame(frame[:2])

    def test_a_tail_framed_under_any_id_is_the_whole_request_s_frame(self):
        args = ((encode_path(RouterPath.from_routers("p1", "lmA", ["a", "lmA"])),), False)
        tail = encode_tail("insert_paths", args)
        for request_id in (1, 9, 10, 123456789):
            assert frame_tail(request_id, tail) == encode_frame((request_id, "insert_paths", args))

    def test_a_non_json_id_fails_with_json_s_own_type_error(self):
        with pytest.raises(TypeError) as expected:
            json.dumps((1, "unregister", (object(),)))
        with pytest.raises(TypeError) as raised:
            encode_frame((1, "unregister", (object(),)))
        assert str(raised.value) == str(expected.value)

    def test_non_tuple_body_rejected(self):
        import struct

        body = pickle.dumps("just a string")
        with pytest.raises(WireProtocolError):
            decode_frame(struct.pack("!I", len(body)) + body)


class TestFrameHeader:
    """``_frame_end`` is the one reader of the ``!I`` length header: the
    socket readers and :func:`decode_frame` both go through it."""

    def test_an_incomplete_header_asks_for_the_whole_header(self):
        frame = encode_frame((1, "ok", "value"))
        for cut in range(4):
            assert _frame_end(frame[:cut]) == 4

    def test_a_header_names_where_its_frame_ends_in_a_stream(self):
        first, second = encode_frame((1, "ok", "a")), encode_frame((2, "ok", "bb"))
        assert _frame_end(first + second) == len(first)
        assert _frame_end(second + first[:3]) == len(second)
        assert _frame_end(first[:5]) == len(first)  # the body has not arrived yet

    def test_the_limit_is_inclusive_and_one_past_it_is_refused(self):
        assert _frame_end(struct.pack("!I", MAX_FRAME_BYTES)) == 4 + MAX_FRAME_BYTES
        with pytest.raises(WireProtocolError, match="limit"):
            _frame_end(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_decode_frame_refuses_an_oversized_header_typed(self):
        body = pickle.dumps((1, "ok", "value"))
        with pytest.raises(WireProtocolError, match="limit"):
            decode_frame(struct.pack("!I", MAX_FRAME_BYTES + 1) + body)

    def test_bytes_past_the_declared_body_rejected(self):
        frame = encode_frame((1, "ok", "value"))
        with pytest.raises(WireProtocolError, match="header needs"):
            decode_frame(frame + b"\x00")


class TestBackendParity:
    """A remote shard answers byte-identically to an inline shard."""

    def test_a_non_json_peer_id_is_a_plain_type_error_and_the_shard_serves_on(
        self, backend_name
    ):
        """The frame fails to encode before a byte is sent: the caller gets
        ``json.dumps``'s ``TypeError``, not a ``ShardUnavailableError``, and
        the connection is neither poisoned nor replaced."""
        plane = make_plane(backend_name)
        try:
            plane.register_peer(simple_path("p0", "lmA", access="a0"))
            shard = plane.shards[plane.shard_of("lmA")]
            connection, epoch = shard.supervisor.connection, shard.supervisor.epoch
            journal = shard.supervisor.journal_length
            with pytest.raises(TypeError, match="is not JSON serializable") as raised:
                plane.register_peer(RouterPath.from_routers(object(), "lmA", ["lmA-a1", "lmA"]))
            assert not isinstance(raised.value, ShardUnavailableError)
            assert shard.supervisor.connection is connection and not connection.closed
            assert shard.supervisor.epoch == epoch
            assert shard.supervisor.journal_length == journal
            plane.register_peer(simple_path("p1", "lmA", access="a1"))
            assert plane.peers() == ["p0", "p1"]
            assert plane.closest_peers("p1", 3) == [("p0", 4.0)]
        finally:
            plane.close()

    def test_satisfies_shard_backend_protocol(self, backend):
        assert isinstance(backend, ShardBackend)

    def test_local_closest_matches_inline(self, pair):
        shard, inline = pair
        seed_peers(shard, inline)
        for peer in ("p0", "p1", "p2", "p3"):
            for k in (1, 2, 5):
                assert shard.local_closest(peer, k) == inline.local_closest(peer, k)

    def test_fill_candidates_match_inline(self, pair):
        shard, inline = pair
        seed_peers(shard, inline)
        bases = {"lmA": 7.0}
        for limit in (0, 1, 3, 10):
            assert shard.fill_candidates(bases, limit) == inline.fill_candidates(bases, limit)
        assert len(shard.fill_candidates(bases, 10)) == 4

    def test_errors_cross_the_boundary_with_type_and_message(self, pair):
        shard, inline = pair

        def outcome(target, action):
            try:
                action(target)
                return None
            except Exception as error:  # noqa: BLE001
                return (type(error).__name__, str(error))

        for action in (
            lambda s: s.join_paths([simple_path("px", "unknown-lm")], 3),
            lambda s: s.unregister_peer("ghost"),
            lambda s: s.local_closest("ghost", 3),
            lambda s: s.tree("unknown-lm"),
        ):
            process_outcome = outcome(shard, action)
            inline_outcome = outcome(inline, action)
            assert process_outcome == inline_outcome
            assert process_outcome is not None

    def test_rebuilt_errors_are_real_exception_types(self, backend):
        with pytest.raises(UnknownPeerError):
            backend.unregister_peer("ghost")
        with pytest.raises(RegistrationError):
            backend.join_paths([simple_path("px", "unknown-lm")], 3)

    @pytest.mark.parametrize(
        "name", ["SystemExit", "KeyboardInterrupt", "GeneratorExit", "StopIteration"]
    )
    def test_an_err_reply_cannot_name_what_except_exception_never_caught(
        self, backend, name, monkeypatch
    ):
        """A reply must not make the coordinator exit, look interrupted or end
        a generator: such a name is a protocol violation, typed like any other."""
        seed_peers(backend)
        conn = backend.supervisor.connection
        honest = conn.recv_frame
        monkeypatch.setattr(
            conn, "recv_frame", lambda budget: (honest(budget)[0], "err", name, "boom")
        )
        with pytest.raises(ShardUnavailableError) as error:
            backend.local_closest("p0", 3)
        assert backend.name in str(error.value) and name in str(error.value)
        with pytest.raises(ShardUnavailableError):  # not an untyped RuntimeError
            backend.fill_candidates({"lmA": 1.0}, 3)
        monkeypatch.undo()
        # The honest vocabulary still crosses as itself, builtins included.
        assert type(_rebuild_exception("KeyError", "k")) is KeyError
        assert type(_rebuild_exception("UnknownPeerError", "p")) is UnknownPeerError
        assert backend.local_closest("p0", 3)  # the channel was never desynchronised

    def test_a_remote_plane_does_the_inline_planes_work(self, backend_name):
        """Crossing the boundary may cost time, never work: after the same
        joins, queries, departures and re-joins, the coordinator counters,
        the index work and the trie insert work equal the inline plane's."""
        paths = synthetic_paths(30, seed=2, landmark="lmA", prefix="a") + synthetic_paths(
            30, seed=2, landmark="lmB", prefix="b"
        )

        def work(plane):
            with plane:
                for landmark in ("lmA", "lmB"):
                    plane.register_landmark(landmark, landmark)
                plane.register_peers(paths[:40])
                for path in paths[40:]:
                    plane.register_peer(path)
                for path in paths[::5]:
                    plane.unregister_peer(path.peer_id)
                    plane.register_peers([path])
                for path in paths[::3]:
                    plane.closest_peers(path.peer_id)
                return plane.stats.as_dict(), plane.total_tree_visits(), plane.total_insert_work()

        def make_plane(shard_factory=None):
            return ShardedManagementServer(
                2,
                neighbor_set_size=5,
                landmark_distances={("lmA", "lmB"): 4.0},
                shard_factory=shard_factory,
            )

        remote = work(make_plane(shard_factory_for(backend_name, 5)))
        assert remote == work(make_plane())

    def test_tree_returns_an_isolated_snapshot(self, pair):
        shard, inline = pair
        seed_peers(shard, inline)
        snapshot = shard.tree("lmA")
        assert snapshot.peers() == inline.tree("lmA").peers()
        assert snapshot.closest_peers("p0", 3) == inline.tree("lmA").closest_peers("p0", 3)
        snapshot.remove("p0")  # mutating the snapshot must not reach the shard
        assert "p0" in shard.tree("lmA").peers()

    def test_tree_visit_counters_travel_with_the_snapshot(self, backend):
        seed_peers(backend)
        assert backend.total_tree_visits() == 0
        backend.local_closest("p0", 2)
        visits = backend.total_tree_visits()
        assert visits > 0
        assert backend.tree("lmA").total_query_visits == visits

    def test_worker_stats_reflect_shard_side_operations(self, backend):
        seed_peers(backend)
        stats = backend.worker_stats()
        assert stats["registrations"] == 4


def make_plane(backend_name, shard_count=2, k=3, **kwargs):
    server = ShardedManagementServer(
        shard_count,
        neighbor_set_size=k,
        landmark_distances={("lmA", "lmB"): 4.0},
        shard_factory=shard_factory_for(backend_name, k, **kwargs),
    )
    for landmark in ("lmA", "lmB"):
        server.register_landmark(landmark, landmark)
    return server


def reference_server(k=3):
    reference = ManagementServer(neighbor_set_size=k, landmark_distances={("lmA", "lmB"): 4.0})
    for landmark in ("lmA", "lmB"):
        reference.register_landmark(landmark, landmark)
    return reference


class TestFaultInjection:
    """Crash mid-churn => typed error naming the shard, never a hang."""

    @pytest.fixture()
    def plane(self, backend_name):
        with make_plane(backend_name) as server:
            yield server

    def test_killed_shard_raises_typed_error_naming_the_shard(self, plane):
        plane.register_peers([simple_path(f"p{i}", "lmA", access=f"a{i}") for i in range(4)])
        victim = plane.shards[plane.peer_shard("p0")]
        kill(victim.supervisor)
        with pytest.raises(ShardUnavailableError) as departure_error:
            plane.unregister_peer("p0")
        assert victim.name in str(departure_error.value)
        with pytest.raises(ShardUnavailableError) as arrival_error:
            plane.register_peer(simple_path("p9", "lmA", access="a9"))
        assert victim.name in str(arrival_error.value)
        assert not victim.health_check()

    def test_failed_departure_leaves_coordinator_unchanged(self, plane):
        plane.register_peers([simple_path("p0", "lmA"), simple_path("p1", "lmA", "a2")])
        kill(plane.shards[plane.peer_shard("p0")].supervisor)
        with pytest.raises(ShardUnavailableError):
            plane.unregister_peer("p0")
        # The shard was told first, so the failed departure must not have
        # half-applied: the coordinator still knows the peer and its path.
        assert plane.has_peer("p0")
        assert plane.peer_path("p0") == simple_path("p0", "lmA")

    def test_cached_queries_keep_answering_while_a_shard_is_down(self, plane):
        """Discovery keeps serving warm queries through a shard outage."""
        plane.register_peers(
            [simple_path(f"p{i}", "lmA", access=f"a{i % 2}") for i in range(4)]
        )
        before = {peer: plane.closest_peers(peer) for peer in plane.peers()}
        kill(plane.shards[plane.peer_shard("p0")].supervisor)
        for peer, answer in before.items():
            assert plane.closest_peers(peer) == answer

    def test_restart_with_replay_restores_byte_identical_answers(self, plane):
        """Kill mid-churn, restart, replay: answers match a reference server."""
        reference = reference_server()
        churn = [
            ("arrive", simple_path("p0", "lmA", "a0")),
            ("arrive", simple_path("p1", "lmA", "a1")),
            ("arrive", simple_path("p2", "lmB", "a0")),
            ("arrive", simple_path("p3", "lmA", "a0")),
            ("depart", "p1"),
            ("arrive", simple_path("p1", "lmA", "a2")),
        ]
        for kind, payload in churn:
            for server in (plane, reference):
                if kind == "arrive":
                    server.register_peer(payload)
                else:
                    server.unregister_peer(payload)
        victim = plane.shards[plane.peer_shard("p0")]
        kill(victim.supervisor)
        with pytest.raises(ShardUnavailableError):
            plane.unregister_peer("p0")

        victim.restart()
        assert victim.health_check()
        for peer in reference.peers():
            for k in (1, 3, 5):
                assert plane.closest_peers(peer, k) == reference.closest_peers(peer, k)
            assert plane.peer_path(peer) == reference.peer_path(peer)
        # And the recovered shard keeps serving writes.
        plane.unregister_peer("p0")
        reference.unregister_peer("p0")
        assert plane.closest_peers("p3") == reference.closest_peers("p3")

    def test_mid_batch_crash_recovers_via_restart_replay_reregister(self, plane):
        """A crash between batch validation and a shard's insert must not
        strand phantom peers: the documented recovery — restart, replay the
        journal, re-register the batch — converges to the reference state."""
        reference = reference_server()
        victim = plane.shards[plane.shard_of("lmA")]
        batch = [
            simple_path("p0", "lmA", "a0"),
            simple_path("p1", "lmB", "a0"),
            simple_path("p2", "lmA", "a1"),
        ]
        original_join = victim.join_paths

        def crash_before_insert(paths, k):
            kill(victim.supervisor)
            return original_join(paths, k)

        victim.join_paths = crash_before_insert
        with pytest.raises(ShardUnavailableError):
            plane.register_peers(batch)
        victim.join_paths = original_join

        victim.restart()
        assert victim.health_check()
        # The coordinator may be ahead of the replayed shard (it recorded
        # peers whose insert never landed); re-registering the batch must
        # reconverge instead of dead-ending on a phantom peer.
        plane.register_peers(batch)
        reference.register_peers(batch)
        assert plane.peers() == reference.peers()
        for peer in reference.peers():
            assert plane.closest_peers(peer) == reference.closest_peers(peer)
        # Phantom-free from here on: departures work on every batch member.
        plane.unregister_peer("p0")
        reference.unregister_peer("p0")
        assert plane.peers() == reference.peers()

    def test_journal_records_only_acknowledged_mutations(self, backend):
        backend.register_landmark("lmA", "lmA")
        backend.insert_paths([simple_path("p0", "lmA")])
        with pytest.raises(UnknownPeerError):
            backend.unregister_peer("ghost")  # rejected => not journaled
        ops = [op for op, _ in backend.supervisor.journal]
        assert ops == ["register_landmark", "insert_paths"]


def spread_plane(backend_name, shard_factory=None, k=3):
    """Two shards that each own a landmark (``lmA`` on one, ``lmC`` on the
    other — ``lmB`` shares ``lmA``'s), with the single server fed the same."""
    distances = {("lmA", "lmC"): 4.0}
    plane = ShardedManagementServer(
        2,
        neighbor_set_size=k,
        landmark_distances=distances,
        shard_factory=shard_factory or shard_factory_for(backend_name, k),
    )
    reference = ManagementServer(neighbor_set_size=k, landmark_distances=distances)
    for landmark in ("lmA", "lmC"):
        plane.register_landmark(landmark, landmark)
        reference.register_landmark(landmark, landmark)
    assert plane.shard_of("lmA") != plane.shard_of("lmC")
    return plane, reference


def record_requests(plane):
    """Per shard, the ops of every ``supervisor.request`` from here on."""
    log = [[] for _ in plane.shards]
    for ops, shard in zip(log, plane.shards):

        def recording(op, args, *rest, _ops=ops, _request=shard.supervisor.request, **kwargs):
            _ops.append(op)
            return _request(op, args, *rest, **kwargs)

        shard.supervisor.request = recording
    return log


def journal_ops(plane):
    return [[op for op, _ in shard.supervisor.journal] for shard in plane.shards]


def shard_counts(plane):
    stats = [shard.worker_stats() for shard in plane.shards]
    return [(s["registrations"], s["removals"]) for s in stats]


class TestArrivalRoundTrips:
    """A remote join is ONE frame: the count is asserted, not only measured."""

    def test_a_fresh_join_is_one_request_on_the_home_shard_and_none_elsewhere(
        self, backend_name
    ):
        plane, reference = spread_plane(backend_name)
        with plane:
            home, other = plane.shard_of("lmA"), plane.shard_of("lmC")
            # Enough peers under lmA that no list needs a cross-shard fill.
            seeded = [simple_path(f"s{i}", "lmA", access=f"a{i}") for i in range(4)]
            plane.register_peers(seeded)
            reference.register_peers(seeded)
            requests = record_requests(plane)
            for index in range(3):
                path = simple_path(f"p{index}", "lmA", access=f"a{index}")
                assert plane.register_peer(path) == reference.register_peer(path)
            assert requests[home] == ["join_paths"] * 3
            assert requests[other] == []
            # Journaled as the mutation it contains: what separate
            # insert_paths requests used to leave behind, entry for entry.
            assert journal_ops(plane)[home] == ["register_landmark"] + ["insert_paths"] * 4
            assert plane.shards[home].supervisor.journal[-1] == (
                "insert_paths",
                ((encode_path(simple_path("p2", "lmA", access="a2")),), False),
            )

    def test_a_fresh_batch_is_one_join_per_shard_never_one_per_peer(self, backend_name):
        plane, reference = spread_plane(backend_name)
        with plane:
            home, other = plane.shard_of("lmA"), plane.shard_of("lmC")
            requests = record_requests(plane)
            one_home = [simple_path(f"p{i}", "lmA", access=f"a{i % 7}") for i in range(64)]
            assert plane.register_peers(one_home) == reference.register_peers(one_home)
            # The coordinator validated the batch itself: the join frame is
            # the whole arrival.
            assert requests[home] == ["join_paths"] and requests[other] == []
            two_homes = [
                simple_path(f"q{i}", "lmA" if i % 2 else "lmC", access=f"a{i % 7}")
                for i in range(64)
            ]
            assert plane.register_peers(two_homes) == reference.register_peers(two_homes)
            # Two home shards: every path's verdict is the coordinator's, so
            # each shard still hears one join frame and nothing else.
            assert requests[home] == ["join_paths", "join_paths"]
            assert requests[other] == ["join_paths"]
            assert journal_ops(plane)[home] == ["register_landmark", "insert_paths", "insert_paths"]
            assert journal_ops(plane)[other] == ["register_landmark", "insert_paths"]
            assert plane.peers() == reference.peers()
            for peer in ("p0", "q0", "q1", "q63"):
                assert plane.closest_peers(peer, 6) == reference.closest_peers(peer, 6)

    def test_reregistering_or_repeated_peers_are_validated_first(self, backend_name):
        plane, reference = spread_plane(backend_name)
        with plane:
            home, other = plane.shard_of("lmA"), plane.shard_of("lmC")
            first = [simple_path(f"p{i}", "lmA", access=f"a{i}") for i in range(5)]
            plane.register_peers(first)
            reference.register_peers(first)
            requests = record_requests(plane)
            moved = simple_path("p1", "lmA", access="a9")
            assert plane.register_peer(moved) == reference.register_peer(moved)
            assert requests[home] == ["unregister", "join_paths"]
            del requests[home][:]
            repeated = [
                simple_path("p7", "lmA", access="a0"),
                simple_path("p8", "lmA", access="a1"),
                simple_path("p7", "lmA", access="a2"),
            ]
            assert plane.register_peers(repeated) == reference.register_peers(repeated)
            assert requests[home] == ["join_paths"]
            assert requests[other] == []
            assert journal_ops(plane)[home] == [
                "register_landmark",
                "insert_paths",
                "unregister",
                "insert_paths",
                "insert_paths",
            ]
            assert plane.peers() == reference.peers()
            for peer in reference.peers():
                assert plane.closest_peers(peer) == reference.closest_peers(peer)

    @pytest.mark.parametrize(
        "batch",
        [
            # one home shard, fresh peers
            [simple_path("n0", "lmA", "a5"), path("bad", ["x", "not-lmA"], "lmA")],
            # a wrong-root path behind a re-registering peer
            [simple_path("p0", "lmA", "a5"), path("bad", ["x", "not-lmA"], "lmA")],
            # superseded later in the batch, and still the batch's verdict
            [path("n0", ["x", "not-lmA"], "lmA"), simple_path("n0", "lmA", "a5")],
            # two home shards, the invalid path on the second
            [simple_path("n0", "lmA", "a5"), path("n1", ["x", "not-lmC"], "lmC")],
        ],
        ids=["in-frame", "reregistering", "superseded", "two-homes"],
    )
    def test_a_rejected_batch_inserts_nothing_and_raises_the_single_servers_error(
        self, backend_name, batch
    ):
        plane, reference = spread_plane(backend_name)
        with plane:
            seeded = [simple_path(f"p{i}", "lmA", access=f"a{i}") for i in range(3)]
            plane.register_peers(seeded)
            reference.register_peers(seeded)
            before = (plane.peers(), plane.stats.registrations, plane.stats.removals)
            shard_side, journals = shard_counts(plane), journal_ops(plane)
            requests = record_requests(plane)
            with pytest.raises(RegistrationError) as expected:
                reference.register_peers(batch)
            with pytest.raises(RegistrationError) as error:
                plane.register_peers(batch)
            assert str(error.value) == str(expected.value)
            assert requests == [[], []]  # the coordinator's verdict: no shard hears of it
            assert (plane.peers(), plane.stats.registrations, plane.stats.removals) == before
            assert shard_counts(plane) == shard_side and journal_ops(plane) == journals
            assert plane.peer_path("p0") == simple_path("p0", "lmA", access="a0")
            for peer in reference.peers():
                assert plane.closest_peers(peer, 4) == reference.closest_peers(peer, 4)

    def test_estimate_distance_sends_nothing_and_answers_while_the_shard_is_down(
        self, backend_name
    ):
        """``dtree`` and the detour estimate are read off the coordinator's
        own paths: no request, so a dead home shard does not stop them."""
        plane, reference = spread_plane(backend_name)
        with plane:
            seeded = [simple_path(f"p{i}", "lmA", access=f"a{i % 2}") for i in range(3)]
            seeded.append(simple_path("c0", "lmC"))
            plane.register_peers(seeded)
            reference.register_peers(seeded)
            peers = ("p0", "p1", "p2", "c0", "ghost")
            pairs = [(a, b) for a in peers for b in peers]
            expected = [outcome(reference.estimate_distance, a, b) for a, b in pairs]
            assert ("error", "UnknownPeerError", "peer 'ghost' is not registered") in expected
            requests = record_requests(plane)
            assert [outcome(plane.estimate_distance, a, b) for a, b in pairs] == expected
            home = plane.shards[plane.shard_of("lmA")]
            kill(home.supervisor)
            assert [outcome(plane.estimate_distance, a, b) for a, b in pairs] == expected
            assert requests == [[], []]
            assert not home.health_check()  # it was down all along

    @pytest.mark.parametrize("kind", ["drop", "drop_reply"])
    def test_a_failed_join_leaves_no_phantom_peer_and_the_retry_converges(
        self, backend_name, kind
    ):
        """``drop``: the frame never reached the shard.  ``drop_reply``: the
        shard applied and journaled it.  Either way the coordinator learns a
        peer only from an acknowledgement, and a retry replaces, not doubles."""
        inner = shard_factory_for(backend_name, 3)
        plan = [Fault(at_op=1, kind=kind, op_name="join_paths")]
        plane, reference = spread_plane(
            backend_name, lambda: ChaosShardBackend(inner(), FaultPlan(plan))
        )
        with plane:
            path = simple_path("p0", "lmA")
            with pytest.raises(ShardUnavailableError):
                plane.register_peer(path)
            assert not plane.has_peer("p0")
            assert plane.peer_count == 0 and plane.stats.registrations == 0
            assert plane.register_peer(path) == reference.register_peer(path)
            other = simple_path("p1", "lmA", access="a2")
            assert plane.register_peer(other) == reference.register_peer(other)
            assert plane.peers() == reference.peers()
            home = plane.shards[plane.shard_of("lmA")]
            assert home.worker_stats()["registrations"] - home.worker_stats()["removals"] == 2


def host_is_gone(shard) -> bool:
    """After ``close()``: nothing answers, no child runs, no socket file."""
    process = shard.supervisor.process  # None on a socket shard
    return (
        not shard.health_check()
        and (process is None or (not process.is_alive() and process.exitcode is not None))
        and not os.path.exists(shard.supervisor.address)
    )


class TestSupervisorLifecycle:
    def test_factory_names_shards_in_spawn_order(self, backend_name):
        factory = shard_factory_for(backend_name, 2)
        shards = [factory() for _ in range(3)]
        try:
            assert [shard.name for shard in shards] == ["shard-0", "shard-1", "shard-2"]
        finally:
            for shard in shards:
                shard.close()

    def test_process_shards_each_own_a_child_server(self):
        factory = shard_factory_for("process", 2)
        with factory() as first, factory() as second:
            children = [first.supervisor.process, second.supervisor.process]
            assert all(child.is_alive() for child in children)
            assert children[0].pid != children[1].pid != os.getpid()
            assert first.supervisor.address != second.supervisor.address
            assert isinstance(first, SocketShardBackend)  # one transport, one client

    def test_close_is_idempotent_and_reaps_the_host(self, make_shard):
        shard = make_shard(2)
        assert shard.health_check()
        shard.close()
        assert host_is_gone(shard)
        shard.close()  # second close is a no-op

    def test_requests_after_close_raise_typed_error(self, make_shard):
        shard = make_shard(2)
        shard.close()
        with pytest.raises(ShardUnavailableError):
            shard.local_closest("p0", 1)
        with pytest.raises(ShardUnavailableError):
            shard.restart()
        assert not shard.health_check()

    def test_supervisor_health_check_round_trip(self, backend):
        assert backend.supervisor.health_check()
        kill(backend.supervisor)
        assert not backend.supervisor.health_check()

    def test_sharded_plane_close_reaps_every_host(self, backend_name):
        server = ShardedManagementServer(
            3, neighbor_set_size=2, shard_factory=shard_factory_for(backend_name, 2)
        )
        assert all(shard.health_check() for shard in server.shards)
        server.close()
        assert all(host_is_gone(shard) for shard in server.shards)
        server.close()  # idempotent at the coordinator level too

    def test_context_manager_closes_the_plane(self, backend_name):
        with ShardedManagementServer(
            2, neighbor_set_size=2, shard_factory=shard_factory_for(backend_name, 2)
        ) as server:
            shards = list(server.shards)
        assert all(host_is_gone(shard) for shard in shards)


class TestRecoveryPolicy:
    def test_backoff_grows_geometrically_up_to_the_cap(self):
        policy = RecoveryPolicy(backoff_base_s=0.1)
        delays = [policy.backoff_s(attempt) for attempt in range(1, 10)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0, 2.0, 2.0]  # capped at 2 s
        # No jitter: the schedule is the same on every call.
        assert [policy.backoff_s(attempt) for attempt in range(1, 10)] == delays

    @pytest.mark.parametrize("base", [0.5, 1.5, 3.0])
    def test_no_attempt_sleeps_past_two_seconds(self, base):
        policy = RecoveryPolicy(backoff_base_s=base)
        delays = [policy.backoff_s(attempt) for attempt in range(1, 6)]
        assert delays == [min(base * 2 ** n, 2.0) for n in range(5)]
        assert delays[-1] == 2.0

    def test_a_zero_base_never_waits(self):
        policy = RecoveryPolicy(backoff_base_s=0.0)
        assert [policy.backoff_s(attempt) for attempt in range(1, 6)] == [0.0] * 5

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RecoveryPolicy().backoff_s(0)


def fast_recovery(**kwargs):
    """Self-healing with zero backoff (fast tests)."""
    return RecoveryPolicy(
        max_restarts=2, backoff_base_s=0.0, sleep=lambda _delay: None, **kwargs
    )


class TestSelfHealing:
    """With a RecoveryPolicy, transient shard deaths heal transparently."""

    def test_transient_crash_heals_via_restart_replay_reissue(self, make_shard):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with make_shard(recovery=fast_recovery()) as shard:
            seed_peers(shard, reference)
            kill(shard.supervisor)
            # The very next request triggers restart+replay+re-issue: no
            # exception reaches the caller and the answer is byte-identical.
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)
            assert shard.supervisor.epoch == 2
            # The healed shard keeps taking (journaled) writes.
            shard.insert_paths([simple_path("p9", "lmA", "a9")])
            reference.insert_paths([simple_path("p9", "lmA", "a9")])
            assert shard.local_closest("p9", 3) == reference.local_closest("p9", 3)

    def test_recoverable_mutations_are_journaled_exactly_once(self, make_shard):
        with make_shard(recovery=fast_recovery()) as shard:
            shard.register_landmark("lmA", "lmA")
            kill(shard.supervisor)
            shard.insert_paths([simple_path("p0", "lmA")])  # heals, then applies
            ops = [op for op, _ in shard.supervisor.journal]
            assert ops == ["register_landmark", "insert_paths"]

    def test_recovery_exhaustion_raises_the_typed_error(self, make_shard, monkeypatch):
        with make_shard(recovery=fast_recovery()) as shard:
            seed_peers(shard)
            original_restart = shard.supervisor.restart

            def restart_then_die_again():
                original_restart()
                kill(shard.supervisor)

            monkeypatch.setattr(shard.supervisor, "restart", restart_then_die_again)
            kill(shard.supervisor)
            with pytest.raises(ShardUnavailableError) as error:
                shard.local_closest("p0", 2)
            assert shard.name in str(error.value)

    def test_recovery_sleeps_the_scripted_backoff(self, make_shard):
        slept = []
        policy = RecoveryPolicy(max_restarts=2, backoff_base_s=0.05, sleep=slept.append)
        with make_shard(recovery=policy) as shard:
            seed_peers(shard)
            kill(shard.supervisor)
            shard.local_closest("p0", 2)
            assert slept == [pytest.approx(0.05)]

    def test_a_shard_killed_before_a_fill_heals_by_re_issue(self, make_shard):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with make_shard(recovery=fast_recovery()) as shard:
            seed_peers(shard, reference, count=7)
            expected = reference.fill_candidates({"lmA": 1.0}, 5)
            assert len(expected) == 5
            kill(shard.supervisor)
            # Restart, replay the journal, re-issue: the same answer.
            assert shard.fill_candidates({"lmA": 1.0}, 5) == expected
            assert shard.supervisor.epoch == 2

    def test_a_fill_without_recovery_fails_typed_naming_the_shard(self, make_shard):
        with make_shard() as shard:
            seed_peers(shard, count=7)
            kill(shard.supervisor)
            with pytest.raises(ShardUnavailableError) as error:
                shard.fill_candidates({"lmA": 1.0}, 5)
            assert shard.name in str(error.value)


def sigkill(shard):
    """The real thing: SIGKILL the child shard server from outside, the way
    the kernel's OOM killer would, bypassing every supervisor hook."""
    process = shard.supervisor.process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10.0)
    assert not process.is_alive()


class TestRealCrash:
    """Acceptance: a process shard's server lives in another process and
    really dies.  SIGKILL it before a fill and mid batch insert — the
    plane heals gap-free under a RecoveryPolicy and fails typed without
    one — and ``close()`` leaves no child process and no socket file."""

    @pytest.mark.parametrize("heals", [True, False])
    def test_sigkill_before_a_fill(self, heals):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        recovery = fast_recovery() if heals else None
        shard = shard_factory_for("process", 3, recovery=recovery)()
        with shard:
            seed_peers(shard, reference, count=9)
            expected = reference.fill_candidates({"lmA": 1.0}, 6)
            first_child = shard.supervisor.process.pid
            sigkill(shard)
            if heals:
                assert shard.fill_candidates({"lmA": 1.0}, 6) == expected
                assert shard.supervisor.process.pid != first_child  # a new process
                assert shard.supervisor.process.is_alive()
            else:
                with pytest.raises(ShardUnavailableError) as error:
                    shard.fill_candidates({"lmA": 1.0}, 6)
                assert shard.name in str(error.value)
            address = shard.supervisor.address
        assert not multiprocessing.active_children()
        assert not os.path.exists(address)

    @pytest.mark.parametrize("heals", [True, False])
    def test_sigkill_mid_batch_insert(self, heals):
        reference = reference_server()
        kwargs = {"recovery": fast_recovery()} if heals else {}
        batch = [
            simple_path("p0", "lmA", "a0"),
            simple_path("p1", "lmB", "a0"),
            simple_path("p2", "lmA", "a1"),
            simple_path("p3", "lmA", "a0"),
        ]
        with make_plane("process", **kwargs) as plane:
            plane.register_peer(simple_path("early", "lmA", "a1"))
            reference.register_peer(simple_path("early", "lmA", "a1"))
            victim = plane.shards[plane.shard_of("lmA")]
            original_join = victim.join_paths

            def killed_between_validate_and_insert(paths, k):
                sigkill(victim)
                return original_join(paths, k)

            victim.join_paths = killed_between_validate_and_insert
            if heals:
                plane.register_peers(batch)  # restart + replay + re-issue inside
                victim.join_paths = original_join
                reference.register_peers(batch)
                assert plane.peers() == reference.peers()
                for peer in reference.peers():
                    for k in (1, 3, 5):
                        assert plane.closest_peers(peer, k) == reference.closest_peers(peer, k)
                # Journaled exactly once: a second crash replays to the same state.
                sigkill(victim)
                assert plane.closest_peers("p0", 5) == reference.closest_peers("p0", 5)
            else:
                with pytest.raises(ShardUnavailableError) as error:
                    plane.register_peers(batch)
                assert victim.name in str(error.value)
            addresses = [shard.supervisor.address for shard in plane.shards]
        assert not multiprocessing.active_children()
        assert not any(os.path.exists(address) for address in addresses)


class HandlerSupervisor(ShardSupervisorBase):
    """A supervisor whose transport is a request handler in this process:
    the journal, replay and fold rules without a socket."""

    def __init__(self) -> None:
        super().__init__("in-process")
        self._establish_transport()

    def _establish_transport(self) -> None:
        self.handler = ShardRequestHandler(3)

    def _teardown_transport(self) -> None:
        self.handler = None

    def _roundtrip(self, op, args, timeout=None):
        return self._interpret_reply(self.handler.handle(1, op, args), 1, op)


def replayed(journal) -> ManagementServer:
    """A fresh cache-less server that ``journal`` was replayed onto."""
    handler = ShardRequestHandler(3)
    for op, args in journal:
        assert handler.handle(1, op, args)[1] == "ok", (op, args)
    return handler.server


def history_of(steps) -> HandlerSupervisor:
    """``("lm", name)`` registers a landmark, ``("in", [(peer, landmark,
    access), ...])`` is one journaled batch, ``("out", peer)`` a departure."""
    supervisor = HandlerSupervisor()
    for step, what in steps:
        if step == "lm":
            supervisor.request("register_landmark", (what, what), journal=True)
        elif step == "in":
            batch = tuple(encode_path(simple_path(*spec)) for spec in what)
            supervisor.request("insert_paths", (batch, True), journal=True)
        else:
            supervisor.request("unregister", (what,), journal=True)
    return supervisor


FOLD_RULES = {
    "arrivals keep their order": (
        [("lm", "lmA"), ("in", [("a", "lmA"), ("b", "lmA")]), ("in", [("c", "lmA")])],
        ["a", "b", "c"],
    ),
    "a re-registration moves the peer to the end": (
        [("lm", "lmA"), ("in", [("a", "lmA"), ("b", "lmA"), ("c", "lmA")]), ("in", [("a", "lmA", "a2")])],
        ["b", "c", "a"],
    ),
    "a batch that repeats a peer keeps its last path, last": (
        [("lm", "lmA"), ("in", [("a", "lmA"), ("b", "lmA"), ("a", "lmA", "a3")])],
        ["b", "a"],
    ),
    "a departure drops the peer": (
        [("lm", "lmA"), ("in", [("a", "lmA"), ("b", "lmA"), ("c", "lmA")]), ("out", "b")],
        ["a", "c"],
    ),
    "a return after a departure goes to the end": (
        [("lm", "lmA"), ("in", [("a", "lmA"), ("b", "lmA")]), ("out", "a"), ("in", [("a", "lmA")])],
        ["b", "a"],
    ),
    "landmarks lead in order, even one registered late": (
        [("lm", "lmA"), ("in", [("a", "lmA")]), ("lm", "lmB"), ("in", [("b", "lmB"), ("c", "lmA")])],
        ["a", "b", "c"],
    ),
    "every peer gone": ([("lm", "lmA"), ("in", [("a", "lmA")]), ("out", "a")], []),
    "no peer yet": ([("lm", "lmA"), ("lm", "lmB")], []),
    "nothing journaled": ([], []),
}


class TestJournalFold:
    """The fold rules, one at a time, on an in-process supervisor."""

    @pytest.mark.parametrize("steps, order", FOLD_RULES.values(), ids=list(FOLD_RULES))
    def test_a_fold_rebuilds_what_the_whole_journal_does(self, steps, order):
        supervisor = history_of(steps)
        full = replayed(supervisor.journal)
        landmarks = [entry for entry in supervisor.journal if entry[0] == "register_landmark"]
        supervisor.compact()
        folded = supervisor.journal
        live = tuple(encode_path(full.peer_path(peer)) for peer in full.peers())
        assert list(folded) == landmarks + [("insert_paths", (live, False))]
        assert [encoded_peer(encoded) for encoded in live] == order
        rebuilt = replayed(folded)
        assert rebuilt.peers() == full.peers()
        for landmark in full.landmarks():
            assert trie_by_route(rebuilt.tree(landmark)) == trie_by_route(full.tree(landmark))

    def test_a_fold_of_a_fold_is_itself(self):
        supervisor = history_of(FOLD_RULES["a return after a departure goes to the end"][0])
        size = supervisor.compact()
        folded = supervisor.journal
        assert supervisor.compact() == size
        assert supervisor.journal == folded

    def test_the_size_is_the_folded_frames_under_one_request_id(self):
        supervisor = history_of(FOLD_RULES["landmarks lead in order, even one registered late"][0])
        size = supervisor.compact()
        assert size == sum(len(encode_frame((1, op, args))) for op, args in supervisor.journal)
        assert size != sum(len(encode_frame((1 << 20, op, args))) for op, args in supervisor.journal)


class TestJournalCompaction:
    def test_journal_property_is_an_immutable_snapshot(self, backend):
        backend.register_landmark("lmA", "lmA")
        snapshot = backend.supervisor.journal
        assert isinstance(snapshot, tuple)
        backend.insert_paths([simple_path("p0", "lmA")])
        assert len(snapshot) == 1  # the earlier view did not grow
        assert backend.supervisor.journal_length == 2
        assert backend.supervisor.journal[1][0] == "insert_paths"

    def test_compact_folds_history_into_landmarks_and_one_load(self, pair):
        shard, reference = pair
        seed_peers(shard, reference)
        for cycle in range(5):  # churn: history >> live state
            shard.unregister_peer("p0")
            reference.unregister_peer("p0")
            shard.insert_paths([simple_path("p0", "lmA", "a0")])
            reference.insert_paths([simple_path("p0", "lmA", "a0")])
        shard.insert_paths([simple_path("p2", "lmA", "a2"), simple_path("p2", "lmA", "a1")])
        reference.insert_paths([simple_path("p2", "lmA", "a2"), simple_path("p2", "lmA", "a1")])
        long_journal = shard.supervisor.journal_length
        size = shard.compact()
        folded = shard.supervisor.journal
        assert len(folded) == 2 < long_journal
        assert folded[0] == ("register_landmark", ("lmA", "lmA"))
        live = tuple(encode_path(reference.peer_path(peer)) for peer in reference.peers())
        assert [peer for _, peer, *_ in live] == ["p1", "p3", "p0", "p2"]
        assert folded[1] == ("insert_paths", (live, False))
        assert size == sum(len(encode_frame((1, op, args))) for op, args in folded)
        shard.restart()  # replay is now one landmark and one load
        for peer in ("p0", "p1", "p2", "p3"):
            for k in (1, 3, 5):
                assert shard.local_closest(peer, k) == reference.local_closest(peer, k)

    def test_a_restart_replays_the_journal_and_after_compaction_the_fold(
        self, monkeypatch
    ):
        """Counted where the requests land (a socket shard's handler runs in
        this process): a restart sends every journaled request, in order;
        after ``compact()`` it sends one per landmark and one
        ``insert_paths``, which the empty shard loads without a
        ``PathTree.insert``."""
        handled = []
        handle = ShardRequestHandler.handle
        inserts = []
        insert = PathTree.insert

        def counting(self, request_id, op, args):
            handled.append(op)
            return handle(self, request_id, op, args)

        with shard_factory_for("socket", 3)() as shard:
            seed_peers(shard, count=20)
            for cycle in range(50):  # churn: history >> live state
                index = cycle % 20
                shard.unregister_peer(f"p{index}")
                shard.insert_paths([simple_path(f"p{index}", "lmA", access=f"a{index % 3}")])
            journal = [op for op, _ in shard.supervisor.journal]
            assert len(journal) == 2 + 2 * 50
            monkeypatch.setattr(ShardRequestHandler, "handle", counting)
            shard.restart()
            assert handled == journal
            shard.compact()
            handled.clear()
            monkeypatch.setattr(PathTree, "insert", lambda *a: inserts.append(1) or insert(*a))
            shard.restart()
            assert handled == ["register_landmark", "insert_paths"]
            assert inserts == []
            assert len(shard.tree("lmA").peers()) == 20

    def test_a_restart_sends_the_fold_it_encoded_once(self, monkeypatch):
        """After ``compact()`` a restart frames the bytes the fold was
        encoded to: no ``encode_frame`` but the hello's, and every frame
        byte for byte what ``encode_frame`` writes for its entry."""
        from repro.core import socket_backend

        with shard_factory_for("socket", 3)() as shard:
            seed_peers(shard, count=20)
            shard.unregister_peer("p3")
            shard.compact()
            shard.insert_paths([simple_path("p3", "lmA", access="a1")])  # after the fold
            journal = shard.supervisor.journal
            encoded, sent = [], []
            encode, send = socket_backend.encode_frame, socket_backend.FramedConnection.send_frame
            monkeypatch.setattr(
                socket_backend, "encode_frame", lambda message: encoded.append(message[1]) or encode(message)
            )
            monkeypatch.setattr(
                socket_backend.FramedConnection,
                "send_frame",
                lambda conn, frame, budget: sent.append(bytes(frame)) or send(conn, frame, budget),
            )
            shard.restart()
            # The server thread encodes its replies through the same name.
            requests = [op for op in encoded if op not in ("ok", "err")]
            assert requests == ["hello", "insert_paths"]  # the entry journaled after the fold
            replayed = sent[1:]
            assert len(replayed) == len(journal) == 3
            for frame, (op, args) in zip(replayed, journal):
                assert frame == encode((decode_frame(frame)[0], op, args))
            assert shard.local_closest("p3", 3) and len(shard.tree("lmA").peers()) == 20

    def test_watermark_auto_compacts_during_normal_traffic(self, make_shard):
        reference = ManagementServer(neighbor_set_size=2, maintain_cache=False)
        reference.register_landmark("lmA", "lmA")
        with make_shard(2, compact_watermark=4) as shard:
            shard.register_landmark("lmA", "lmA")
            for i in range(7):
                path = simple_path(f"p{i}", "lmA", access=f"a{i % 3}")
                shard.insert_paths([path])
                reference.insert_paths([path])
                # A fold is one entry per landmark plus one; 3 more follow it.
                assert shard.supervisor.journal_length <= 1 + 4
            # 8 journaled entries: folded at the 4th and the 8th.
            assert [op for op, _ in shard.supervisor.journal] == [
                "register_landmark",
                "insert_paths",
            ]
            shard.restart()
            for i in range(7):
                assert shard.local_closest(f"p{i}", 2) == reference.local_closest(f"p{i}", 2)

    @pytest.mark.parametrize("watermark", [1, 2, 3, 5])
    def test_the_watermark_counts_entries_journaled_since_the_last_fold(
        self, make_shard, monkeypatch, watermark
    ):
        """A folded journal holds one entry per landmark plus one: with 3
        landmarks it is 4 long, so a watermark of up to 5 on the journal's
        length would fold after every op."""
        with make_shard(compact_watermark=watermark) as shard:
            for landmark in ("lmA", "lmB", "lmC"):
                shard.register_landmark(landmark, landmark)
            shard.compact()
            assert shard.supervisor.journal_length == 4
            folds = []
            compact = shard.supervisor.compact
            monkeypatch.setattr(shard.supervisor, "compact", lambda: folds.append(1) or compact())
            ops = 9
            for i in range(ops):
                if i % 3 == 2:
                    shard.unregister_peer(f"p{i - 1}")
                else:
                    shard.insert_paths([simple_path(f"p{i}", "lmB", access=f"a{i}")])
            assert len(folds) == ops // watermark

    def test_a_shard_restarted_onto_its_fold_keeps_serving_writes(self, pair):
        shard, reference = pair
        seed_peers(shard, reference)
        shard.unregister_peer("p1")
        reference.unregister_peer("p1")
        shard.compact()
        shard.restart()
        for write in (
            lambda plane: plane.insert_paths([simple_path("p9", "lmA", "a0")]),
            lambda plane: plane.unregister_peer("p0"),
            lambda plane: plane.insert_paths([simple_path("p1", "lmA", "a2")]),
        ):
            write(shard)
            write(reference)
        assert shard.tree("lmA").peers() == reference.tree("lmA").peers() == ["p2", "p3", "p9", "p1"]
        for peer in ("p1", "p2", "p3", "p9"):
            assert shard.local_closest(peer, 3) == reference.local_closest(peer, 3)
        shard.restart()  # the fold plus the writes after it
        assert shard.local_closest("p1", 3) == reference.local_closest("p1", 3)

    def test_a_dead_shard_compacts_without_a_round_trip(self, backend_name):
        """The fold reads only the journal: a killed shard compacts, and the
        next request heals it (restart, replay of the fold, re-issue) to the
        inline plane's answers."""
        remote = make_plane(backend_name, recovery=fast_recovery())
        inline = make_plane("inline")
        try:
            for plane in (remote, inline):
                plane.register_peers(
                    [
                        simple_path(f"p{i}", ("lmA", "lmB")[i % 2], access=f"a{i % 3}")
                        for i in range(10)
                    ]
                )
                plane.unregister_peer("p4")
                plane.register_peer(simple_path("p4", "lmA", access="a2"))
            index = remote.shard_of("lmA")
            victim = remote.shards[index]
            kill(victim.supervisor)
            sent = []
            roundtrip = victim.supervisor._roundtrip
            victim.supervisor._roundtrip = lambda op, *a, **k: sent.append(op) or roundtrip(op, *a, **k)
            victim.compact()
            assert sent == []
            folded = [op for op, _ in victim.supervisor.journal]
            landmarks = len(remote.shard_landmarks(index))
            assert folded == ["register_landmark"] * landmarks + ["insert_paths"]
            for peer in inline.peers():
                assert remote.closest_peers(peer, 6) == inline.closest_peers(peer, 6)
            assert sent[1 : 1 + len(folded)] == folded  # the replay after the failed request
            assert victim.supervisor.epoch == 2
        finally:
            remote.close()
            inline.close()

    @settings(max_examples=30, deadline=None)
    @given(
        case=cases(
            3,
            shard_counts=st.just(2),
            caches=st.just(False),
            peers=8,  # a small pool: batches repeat peers, arrivals re-register
            kinds=("arrive", "batch", "bounce", "depart"),
            max_ops=20,
        )
    )
    def test_a_folded_journal_rebuilds_the_live_shard(self, case):
        """Replayed onto a fresh cache-less server, each socket shard's folded
        journal gives the live shard's registration order and tries."""
        live = []
        init = ShardRequestHandler.__init__

        def recording(handler, neighbor_set_size):
            init(handler, neighbor_set_size)
            live.append(handler.server)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ShardRequestHandler, "__init__", recording)
            plane = build_plane(*case[:-1], backend="socket")
        try:
            for op in case.ops:
                apply_op(plane, op)
            assert len(live) == len(plane.shards)  # one hello each, in shard order
            for shard, server in zip(plane.shards, live):
                shard.compact()
                rebuilt = replayed(shard.supervisor.journal)
                assert rebuilt.peers() == server.peers()
                assert rebuilt.landmarks() == server.landmarks()
                for landmark in server.landmarks():
                    assert rebuilt.tree(landmark).peers() == server.tree(landmark).peers()
                    assert trie_by_route(rebuilt.tree(landmark)) == trie_by_route(
                        server.tree(landmark)
                    )
        finally:
            plane.close()

    def test_compact_watermark_must_be_positive(self, make_shard):
        with pytest.raises(ValueError):
            make_shard(2, compact_watermark=0)


def wait_until_every_thread_stopped(pid: int, timeout: float = 5.0) -> None:
    """Block until every thread of a ``SIGSTOP``-ed process is stopped.

    The group stop reaches a process's threads one by one: a request sent
    before the last of them stops can still be accepted and answered.
    """
    tasks = f"/proc/{pid}/task"
    if not os.path.isdir(tasks):  # no procfs: nothing to wait on
        return
    deadline = time.monotonic() + timeout
    while True:
        states = []
        for task in os.listdir(tasks):
            with open(f"{tasks}/{task}/stat") as stat:
                states.append(stat.read().rpartition(")")[2].split()[0])
        if all(state == "T" for state in states):
            return
        assert time.monotonic() < deadline, f"threads of {pid} not stopped: {states}"
        time.sleep(0.001)


class TestRequestDeadline:
    """Every round trip carries a deadline — a hung server (accepting
    connections but answering nothing) turns into a typed error within ONE
    ``request_timeout``, never a hang."""

    def test_every_round_trip_has_a_default_deadline(self, make_shard):
        with make_shard(2, request_timeout=None) as shard:
            assert shard.supervisor.request_timeout == DEFAULT_REQUEST_TIMEOUT

    def test_the_request_timeout_arrives_on_the_supervisor(self, make_shard):
        with make_shard(2, request_timeout=1.5, recovery=RecoveryPolicy()) as shard:
            assert shard.supervisor.request_timeout == 1.5

    def test_silent_server_times_out_typed_within_one_deadline(self, backend_name, monkeypatch):
        timeout = 0.5
        if backend_name == "process":
            shard = shard_factory_for("process", 2, request_timeout=timeout)()
            child = shard.supervisor.process.pid

            def stall():
                os.kill(child, signal.SIGSTOP)
                wait_until_every_thread_stopped(child)

            resume = lambda: os.kill(child, signal.SIGCONT)  # noqa: E731
        else:
            # Park the request on the server's connection thread: the
            # kernel still accepts and buffers, nobody answers — a thread's
            # version of SIGSTOP.
            server, gate = LocalShardServer(), threading.Event()
            shard = SocketShardBackend(
                address=server.address,
                neighbor_set_size=2,
                name="hung",
                request_timeout=timeout,
            )
            handle = ShardRequestHandler.handle

            def parked(self, request_id, op, args):
                gate.wait()
                return handle(self, request_id, op, args)

            stall = lambda: monkeypatch.setattr(ShardRequestHandler, "handle", parked)  # noqa: E731
            resume = gate.set
        with shard:
            shard.register_landmark("lmA", "lmA")
            stall()
            try:
                started = time.monotonic()
                with pytest.raises(ShardUnavailableError) as error:
                    shard.local_closest("p0", 1)
                elapsed = time.monotonic() - started
                # One budget for send + header read + body read: never the
                # sum of per-phase timeouts.
                assert timeout * 0.9 <= elapsed < timeout * 2
                assert shard.name in str(error.value) and "TimeoutError" in str(error.value)
                # The channel is poisoned: later requests fail fast and
                # typed until restart() — never a second hang.
                started = time.monotonic()
                with pytest.raises(ShardUnavailableError):
                    shard.local_closest("p0", 1)
                assert time.monotonic() - started < timeout / 2
            finally:
                resume()
                if backend_name == "socket":
                    server.stop()
