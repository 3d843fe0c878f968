"""Tests for the shard transport (server, framing, pool, faults, CLI).

What both backend names share — parity with an inline shard, lifecycle,
self-healing, compaction — is ``test_remote_backend.py``, parametrised over
``("process", "socket")``.  This module covers the transport itself: the
asyncio :class:`ShardServer`'s connection-scoped shard protocol
(hello/generation, op-before-hello, re-hello), one deadline budget per
round trip, connection pooling, the loopback server's refcounting, the
transport-shaped fault hooks (``sever`` modes, stale-epoch reconnect —
including a process shard forgetting the epoch of the child it respawned)
and the three network chaos acceptance cases from the issue:
a partial frame mid-``fill_candidates``, a connection reset mid-batch
insert, and a stale-epoch reconnect — each must converge byte-identically
under recovery or fail with a typed error without it, never hang and never
answer silently wrong.  Ends with the ``shard-serve`` CLI round trip.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time

import pytest

from repro.core import ManagementServer
from repro.core.budget import DeadlineBudget
from repro.core.path import RouterPath
from repro.core.codec import encode_path
from repro.core.remote import RecoveryPolicy, ShardRequestHandler, shard_factory_for
from repro.core.socket_backend import (
    PROTOCOL_VERSION,
    FramedConnection,
    LocalShardServer,
    SocketConnectionPool,
    SocketShardBackend,
    _dial,
    _parse_tcp,
    build_serve_parser,
    encode_frame,
    format_address,
    socket_shard_factory,
)
from repro.exceptions import ShardUnavailableError, UnknownPeerError


def simple_path(peer, landmark, access="a1"):
    return RouterPath.from_routers(
        peer, landmark, [f"{landmark}-{access}", f"{landmark}-core", landmark]
    )


def seed_peers(*shards, landmark="lmA", count=4):
    for shard in shards:
        shard.register_landmark(landmark, landmark)
        shard.insert_paths(
            [simple_path(f"p{i}", landmark, access=f"a{i % 3}") for i in range(count)]
        )


def fast_recovery(max_restarts=2):
    return RecoveryPolicy(
        max_restarts=max_restarts, backoff_base_s=0.0, sleep=lambda _delay: None
    )


@pytest.fixture()
def server():
    local = LocalShardServer().acquire()
    yield local
    local.release()


@pytest.fixture()
def backend():
    with SocketShardBackend(neighbor_set_size=3, name="socket-under-test") as shard:
        yield shard


def raw_connection(server):
    return FramedConnection(_dial(server.address, 5.0), server.address)


def exchange(conn, message, budget=None):
    budget = budget or DeadlineBudget(5.0)
    conn.send_frame(encode_frame(message), budget)
    return conn.recv_frame(budget)


class TestWireProtocol:
    """The server speaks the codec's frame protocol, one shard per hello."""

    def test_hello_returns_version_and_monotonic_generation(self, server):
        first, second = raw_connection(server), raw_connection(server)
        try:
            reply_a = exchange(first, (1, "hello", (PROTOCOL_VERSION, 3)))
            reply_b = exchange(second, (1, "hello", (PROTOCOL_VERSION, 3)))
            assert reply_a[:2] == (1, "ok") and reply_b[:2] == (1, "ok")
            (version_a, generation_a) = reply_a[2]
            (version_b, generation_b) = reply_b[2]
            assert version_a == version_b == PROTOCOL_VERSION
            assert generation_b > generation_a  # server-wide, strictly monotonic
        finally:
            first.close()
            second.close()

    def test_wrong_protocol_version_is_rejected_typed(self, server):
        conn = raw_connection(server)
        try:
            reply = exchange(conn, (1, "hello", (PROTOCOL_VERSION + 1, 3)))
            assert reply[1] == "err"
            assert reply[2] == "WireProtocolError"
        finally:
            conn.close()

    def test_operation_before_hello_is_rejected_typed(self, server):
        conn = raw_connection(server)
        try:
            reply = exchange(conn, (1, "ping", ()))
            assert reply[1] == "err"
            assert reply[2] == "WireProtocolError"
            assert "before hello" in reply[3]
        finally:
            conn.close()

    def test_re_hello_swaps_in_a_fresh_empty_shard(self, server):
        """A second hello on the SAME connection discards the old shard —
        the invariant that makes pooled-connection reuse safe."""
        conn = raw_connection(server)
        try:
            exchange(conn, (1, "hello", (PROTOCOL_VERSION, 3)))
            exchange(conn, (2, "register_landmark", ("lmA", "lmA")))
            stats = exchange(conn, (3, "stats", ()))
            assert stats[1] == "ok"
            exchange(conn, (4, "hello", (PROTOCOL_VERSION, 3)))
            reply = exchange(conn, (5, "tree", ("lmA",)))
            assert reply[1] == "err"  # the landmark died with the old shard
        finally:
            conn.close()

    def test_truncated_frame_drops_the_connection(self, server):
        conn = raw_connection(server)
        try:
            exchange(conn, (1, "hello", (PROTOCOL_VERSION, 3)))
            conn.send_partial_frame()  # header declares more bytes than follow
            with pytest.raises((OSError, EOFError)):
                conn.recv_frame(DeadlineBudget(5.0))
        finally:
            conn.close()


class TestServerLoop:
    """What a connection is owed however its bytes are cut into segments:
    every frame served once, in order, and — what ``drain()`` used to give —
    a client that stops reading its replies stops being read."""

    def test_requests_written_in_one_segment_are_all_answered_in_order(self, server):
        conn = raw_connection(server)
        try:
            frames = [encode_frame((1, "hello", (PROTOCOL_VERSION, 3)))]
            frames += [encode_frame((request_id, "ping", ())) for request_id in range(2, 40)]
            frames.insert(20, encode_frame((0, "fill_close", (99,))))  # one-way: no reply
            conn.sock.sendall(b"".join(frames))
            replies = [conn.recv_frame(DeadlineBudget(5.0)) for _ in range(39)]
            assert replies[0][:2] == (1, "ok")
            assert replies[1:] == [(request_id, "ok", "pong") for request_id in range(2, 40)]
        finally:
            conn.close()

    def test_a_frame_split_at_every_byte_boundary_is_served_once(self, server):
        conn = raw_connection(server)
        try:
            exchange(conn, (1, "hello", (PROTOCOL_VERSION, 3)))
            frame_length = len(encode_frame((2, "register_landmark", ("lm-00", "r"))))
            for cut in range(1, frame_length):
                # A landmark registers once: a frame served twice would come
                # back as an error, and its extra reply desynchronise the rest.
                request = (1 + cut, "register_landmark", (f"lm-{cut:02d}", "r"))
                frame = encode_frame(request)
                assert len(frame) == frame_length
                conn.sock.sendall(frame[:cut])
                time.sleep(0.002)  # let the first segment be read on its own
                conn.sock.sendall(frame[cut:])
                assert conn.recv_frame(DeadlineBudget(5.0)) == (1 + cut, "ok", None)
            reply = exchange(conn, (900, "tree", (f"lm-{frame_length - 1:02d}",)))
            assert reply[:2] == (900, "ok")
        finally:
            conn.close()

    def test_a_client_that_never_reads_stops_being_read_until_it_drains(
        self, server, monkeypatch
    ):
        handled = []
        handle = ShardRequestHandler.handle

        def counting(self, request_id, op, args):
            if op == "tree":
                handled.append(request_id)
            return handle(self, request_id, op, args)

        monkeypatch.setattr(ShardRequestHandler, "handle", counting)
        greedy, witness = raw_connection(server), raw_connection(server)
        try:
            for conn in (greedy, witness):
                exchange(conn, (1, "hello", (PROTOCOL_VERSION, 3)))
            exchange(greedy, (2, "register_landmark", ("lmA", "lmA")))
            paths = tuple(
                encode_path(simple_path(f"peer-{i:04d}", "lmA", access=f"a{i % 50}"))
                for i in range(1000)
            )
            exchange(greedy, (3, "insert_paths", (paths, True)))
            # 300 pipelined requests whose replies (~45 KB each: the whole
            # tree) nobody collects.  Were the server to keep reading, it
            # would buffer all ~13 MB of them.
            first, count = 10, 300
            greedy.sock.sendall(
                b"".join(encode_frame((first + i, "tree", ("lmA",))) for i in range(count))
            )
            deadline = time.monotonic() + 5.0
            served = -1
            while time.monotonic() < deadline and served != len(handled):
                served = len(handled)  # wait for the server to stall...
                assert exchange(witness, (2, "ping", ())) == (2, "ok", "pong")
                time.sleep(0.05)
            # ...which it does after what its write buffer and the socket's
            # own buffers absorb, not after everything it was sent.
            assert 0 < served < count // 4
            for i in range(count):  # now drain: every request is served, in order
                reply = greedy.recv_frame(DeadlineBudget(10.0))
                assert reply[:2] == (first + i, "ok") and len(reply[2][1]) == 1000
            assert len(handled) == count
            assert exchange(greedy, (900, "ping", ())) == (900, "ok", "pong")
            assert exchange(witness, (3, "ping", ())) == (3, "ok", "pong")
        finally:
            greedy.close()
            witness.close()

    def test_a_lost_connection_closes_the_fill_streams_it_left_open(self, server, monkeypatch):
        closed = threading.Event()
        open_streams = []
        close = ShardRequestHandler.close

        def recording(self):
            open_streams.append(len(self.streams))
            close(self)
            open_streams.append(len(self.streams))
            closed.set()

        monkeypatch.setattr(ShardRequestHandler, "close", recording)
        conn = raw_connection(server)
        try:
            exchange(conn, (1, "hello", (PROTOCOL_VERSION, 3)))
            exchange(conn, (2, "register_landmark", ("lmA", "lmA")))
            exchange(conn, (3, "insert_paths", ((encode_path(simple_path("p0", "lmA")),), True)))
            assert exchange(conn, (4, "fill_open", ((("lmA", 1.0),), None)))[:2] == (4, "ok")
        finally:
            conn.close()
        assert closed.wait(5.0)
        assert open_streams == [1, 0]


class FakeClock:
    """An injectable monotonic clock tests advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadlineBudget:
    def test_send_and_every_reply_read_share_one_deadline_budget(self):
        """Each blocking phase of a round trip — send, header read, body
        read — is armed with what the phases before it LEFT of one budget,
        so a slow-draining send plus a dribbling reply is bounded by a
        single ``request_timeout``, never by one full timeout per phase."""
        clock = FakeClock()
        reply = encode_frame((1, "ok", "pong"))
        armed = []

        class DribblingSocket:
            def settimeout(self, timeout):
                armed.append(timeout)

            def sendall(self, frame):
                clock.advance(6.0)  # the peer drained the send slowly

            def recv(self, count):
                clock.advance(3.0)  # and dribbles its reply, 8 bytes a time
                nonlocal reply
                chunk, reply = reply[: min(count, 8)], reply[min(count, 8) :]
                return chunk

        conn = FramedConnection(DribblingSocket(), "fake.sock")
        budget = DeadlineBudget(10.0, clock=clock)
        conn.send_frame(encode_frame((1, "ping", ())), budget)
        with pytest.raises(TimeoutError):
            conn.recv_frame(budget)  # the body's second chunk finds the budget spent
        assert armed == [pytest.approx(10.0), pytest.approx(4.0), pytest.approx(1.0)]
        assert clock.now == pytest.approx(12.0)  # it never armed a fourth wait


class TestConnectionPool:
    def test_reconnect_reuses_a_pooled_warm_socket(self, server):
        pool = SocketConnectionPool(server.address)
        with SocketShardBackend(
            address=server.address, neighbor_set_size=3, pool=pool
        ) as shard:
            seed_peers(shard)
            before = shard.local_closest("p0", 3)
            shard.restart()  # clean restart releases the old conn to the pool
            assert shard.local_closest("p0", 3) == before
            assert pool.reuses >= 1
        pool.close()

    def test_closed_idle_connections_are_skipped_not_handed_out(self, server):
        pool = SocketConnectionPool(server.address)
        conn = pool.acquire(DeadlineBudget(5.0))
        pool.release(conn)
        conn.close()  # rot the idle connection behind the pool's back
        fresh = pool.acquire(DeadlineBudget(5.0))
        try:
            assert not fresh.closed
            assert pool.dials == 2
        finally:
            fresh.close()
            pool.close()

    def test_poisoned_connections_never_return_to_the_pool(self, server):
        pool = SocketConnectionPool(server.address)
        with SocketShardBackend(
            address=server.address, neighbor_set_size=3, pool=pool, name="poisoned"
        ) as shard:
            seed_peers(shard)
            shard.supervisor.sever("reset")
            with pytest.raises(ShardUnavailableError):
                shard.local_closest("p0", 2)
            assert pool.idle_count == 0  # the severed conn was not pooled
            shard.restart()
            assert shard.local_closest("p0", 2)
        pool.close()


class TestLocalServerLifecycle:
    def test_factory_shares_one_refcounted_loopback_server(self):
        factory = socket_shard_factory(neighbor_set_size=3)
        shards = [factory() for _ in range(3)]
        addresses = {format_address(s.supervisor.address) for s in shards}
        assert len(addresses) == 1  # one server, three connection-scoped shards
        for shard in shards[:-1]:
            shard.close()
        last = shards[-1]
        seed_peers(last)  # survivors keep working while refs remain
        assert last.local_closest("p0", 2)
        last.close()

    def test_closing_the_last_backend_stops_server_and_unlinks_socket(self):
        threads_before = {t.name for t in threading.enumerate()}
        shard = SocketShardBackend(neighbor_set_size=3)
        address = shard.supervisor.address
        shard.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leftovers = {
                t.name for t in threading.enumerate()
            } - threads_before
            if not leftovers:
                break
            time.sleep(0.01)
        assert not leftovers, f"server thread leaked: {leftovers}"
        if isinstance(address, str):
            assert not os.path.exists(address)


class TestSeverModes:
    """Every sever mode => typed error (no recovery) or transparent heal."""

    @pytest.mark.parametrize("mode", ["close", "reset", "partial_frame"])
    def test_sever_fails_typed_then_restart_heals(self, mode):
        with SocketShardBackend(neighbor_set_size=3, name=f"sever-{mode}") as shard:
            seed_peers(shard)
            before = shard.local_closest("p0", 3)
            shard.supervisor.sever(mode)
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError) as error:
                shard.local_closest("p0", 3)
            assert time.monotonic() - started < 10.0  # typed, never a hang
            assert f"sever-{mode}" in str(error.value)
            shard.restart()
            assert shard.supervisor.epoch == 2
            assert shard.local_closest("p0", 3) == before

    @pytest.mark.parametrize("mode", ["close", "reset", "partial_frame"])
    def test_sever_heals_transparently_under_recovery(self, mode):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with SocketShardBackend(
            neighbor_set_size=3, recovery=fast_recovery(), name="healing"
        ) as shard:
            seed_peers(shard, reference)
            shard.supervisor.sever(mode)
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)
            assert shard.supervisor.epoch == 2

    def test_unknown_sever_mode_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.supervisor.sever("carrier-pigeon")


class TestStaleEpochReconnect:
    def test_stale_reconnect_fails_typed_without_recovery(self, backend):
        seed_peers(backend)
        backend.supervisor.rewind_generation()
        backend.supervisor.sever("close")
        with pytest.raises(ShardUnavailableError) as error:
            backend.restart()
        assert "stale epoch" in str(error.value)
        # The rejected hello advanced the server, so the next restart lands
        # on a fresh generation and replay converges.
        backend.restart()
        assert backend.local_closest("p0", 3)

    def test_stale_reconnect_heals_under_recovery(self):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with SocketShardBackend(
            neighbor_set_size=3, recovery=fast_recovery(), name="stale-heal"
        ) as shard:
            seed_peers(shard, reference)
            generation_before = shard.supervisor.seen_generation
            shard.supervisor.rewind_generation()
            shard.supervisor.sever("close")
            # One failed reconnect, then convergence — inside one request.
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)
            assert shard.supervisor.seen_generation > generation_before

    def test_respawned_own_server_is_never_mistaken_for_a_stale_epoch(self):
        """A process shard's restart lands on a fresh child whose generation
        counter starts over: the supervisor respawned it itself, so it
        forgets the generation it had seen instead of rejecting the child."""
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with shard_factory_for("process", 3)() as shard:
            seed_peers(shard, reference)
            for _ in range(3):  # hellos on ONE child: the counter climbs
                shard.supervisor.sever("close")
                with pytest.raises(ShardUnavailableError):
                    shard.local_closest("p0", 3)
                shard.restart()
            assert shard.supervisor.seen_generation == 1  # ...and starts over
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)
            # Even a rewound expectation cannot outlive the respawn.
            shard.supervisor.rewind_generation(5)
            shard.supervisor.kill()
            shard.restart()
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)


class TestNetworkChaosAcceptance:
    """The issue's three network-fault acceptance cases, run directly
    against the supervisor hooks (the scripted ``ChaosShardBackend`` plans
    are exercised in ``test_sharded_equivalence.py``)."""

    def test_partial_frame_mid_fill_stream_heals_without_gaps_or_repeats(self):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with SocketShardBackend(
            neighbor_set_size=3, fill_chunk_size=2, recovery=fast_recovery()
        ) as shard:
            seed_peers(shard, reference, count=7)
            expected = list(reference.fill_candidates({"lmA": 1.0}))
            assert len(expected) >= 5  # the fault lands genuinely mid-stream
            stream = shard.fill_candidates({"lmA": 1.0})
            got = [next(stream), next(stream)]  # drain the buffered chunk
            shard.supervisor.sever("partial_frame")
            got.extend(stream)  # reopen on the replayed shard, fast-forward
            assert got == expected
            assert shard.supervisor.epoch == 2

    def test_conn_reset_mid_batch_insert_converges_or_fails_typed(self):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        reference.register_landmark("lmA", "lmA")
        with SocketShardBackend(
            neighbor_set_size=3, recovery=fast_recovery(), name="reset-batch"
        ) as shard:
            shard.register_landmark("lmA", "lmA")
            batch = [simple_path(f"p{i}", "lmA", access=f"a{i}") for i in range(4)]
            shard.supervisor.sever("reset")
            shard.insert_paths(batch)  # heals: restart + replay + re-issue
            reference.insert_paths(batch)
            for peer in ("p0", "p1", "p2", "p3"):
                assert shard.local_closest(peer, 3) == reference.local_closest(peer, 3)
            # Journaled exactly once: replay after ANOTHER fault stays
            # byte-identical instead of double-inserting the batch.
            ops = [op for op, _ in shard.supervisor.journal]
            assert ops == ["register_landmark", "insert_paths"]
            shard.supervisor.sever("close")
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)

    def test_stale_epoch_reconnect_replays_full_journal_byte_identical(self):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with SocketShardBackend(
            neighbor_set_size=3, recovery=fast_recovery(), name="stale-replay"
        ) as shard:
            seed_peers(shard, reference, count=6)
            shard.unregister_peer("p1")
            reference.unregister_peer("p1")
            shard.supervisor.rewind_generation()
            shard.supervisor.sever("close")
            for peer in ("p0", "p2", "p3", "p4", "p5"):
                for k in (1, 3, 5):
                    assert shard.local_closest(peer, k) == reference.local_closest(
                        peer, k
                    )
            with pytest.raises(UnknownPeerError):
                shard.local_closest("p1", 3)  # the departure replayed too

    def test_failed_notify_poisons_instead_of_desyncing(self, backend, monkeypatch):
        """A half-written one-way frame would desynchronise every later
        frame on the stream: the supervisor must poison, not shrug."""
        seed_peers(backend)
        conn = backend.supervisor.connection

        def explode(frame, budget):
            raise OSError("wire cut mid-frame")

        monkeypatch.setattr(conn, "send_frame", explode)
        backend.supervisor.notify("fill_close", (1,))
        monkeypatch.undo()
        with pytest.raises(ShardUnavailableError) as error:
            backend.local_closest("p0", 2)
        assert "poisoned" in str(error.value)
        backend.restart()
        assert backend.local_closest("p0", 2)


class TestServeCLI:
    def test_parse_tcp_splits_on_last_colon(self):
        assert _parse_tcp("127.0.0.1:7421") == ("127.0.0.1", 7421)
        assert _parse_tcp("::1:7421") == ("::1", 7421)
        with pytest.raises(ValueError):
            _parse_tcp("7421")

    def test_parser_accepts_repeated_binds(self):
        options = build_serve_parser().parse_args(
            ["--tcp", "127.0.0.1:0", "--unix", "/tmp/a.sock", "--unix", "/tmp/b.sock"]
        )
        assert options.tcp == ["127.0.0.1:0"]
        assert options.unix == ["/tmp/a.sock", "/tmp/b.sock"]

    def test_shard_serve_round_trip_over_tcp(self, tmp_path):
        """End to end: ``repro-experiments shard-serve`` in a real process,
        a :class:`SocketShardBackend` dialled at its printed address."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "shard-serve", "--tcp", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("listening tcp:"), line
            host, port = line.removeprefix("listening tcp:").rsplit(":", 1)
            reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
            with SocketShardBackend(
                address=(host, int(port)), neighbor_set_size=3, name="wan-shard"
            ) as shard:
                seed_peers(shard, reference)
                for peer in ("p0", "p1", "p2", "p3"):
                    assert shard.local_closest(peer, 3) == reference.local_closest(
                        peer, 3
                    )
        finally:
            process.terminate()
            process.wait(timeout=10)
