"""Tests for the shard transport (server, framing, lifecycle, faults, CLI).

What both backend names share — parity with an inline shard, lifecycle,
self-healing, the journal — is ``test_remote_backend.py``, parametrised over
``("process", "socket")``.  This module covers the transport itself: the
threaded :class:`ShardServer`'s connection-scoped shard protocol
(hello/generation, op-before-hello, re-hello), how its connection threads
and the client's reads cut a byte stream into frames, one deadline budget
per round trip, a closed plane leaving no loopback server behind, a killed
host cutting the connections it served, the
transport-shaped faults of ``tests/chaos.py`` (``sever`` modes, stale-epoch reconnect —
including a process shard forgetting the epoch of the child it respawned)
and the three network chaos acceptance cases from the issue:
a partial frame during a ``fill``, a connection reset mid-batch insert,
and a stale-epoch reconnect — each must converge byte-identically under
recovery or fail with a typed error without it, never hang and never
answer silently wrong.  A fill is one bounded round trip per shard, and a
malformed fill reply ends typed.  Ends with the ``shard-serve`` CLI round
trip.
"""

from __future__ import annotations

import gc
import os
import random
import struct
import subprocess
import sys
import threading
import time
import weakref

import pytest

from repro.core import DegradedResult, ManagementServer, ShardedManagementServer
from repro.core import codec, socket_backend
from repro.core.budget import DeadlineBudget
from repro.core.codec import decode_frame, encode_path
from repro.core.remote import RecoveryPolicy, ShardRequestHandler, shard_factory_for
from repro.core.socket_backend import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FramedConnection,
    LocalShardServer,
    SocketShardBackend,
    SocketShardSupervisor,
    _dial,
    _parse_tcp,
    build_serve_parser,
    encode_frame,
)
from repro.exceptions import ShardUnavailableError, UnknownPeerError, WireProtocolError

from ..chaos import kill, rewind_generation, send_partial_frame, sever
from ..oracle import simple_path


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
    local = LocalShardServer()
    yield local
    local.stop()


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

    def test_hellos_on_parallel_connections_never_share_a_generation(self, server):
        """Each connection is served on its own thread, so hellos bump the
        server-wide counter concurrently: a lost update would hand two
        hellos one generation."""
        clients, rounds = 8, 40
        generations, errors = [], []

        def hello_repeatedly():
            conn = raw_connection(server)
            try:
                for request_id in range(1, rounds + 1):
                    reply = exchange(conn, (request_id, "hello", (PROTOCOL_VERSION, 3)))
                    generations.append(reply[2][1])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                conn.close()

        threads = [threading.Thread(target=hello_repeatedly) for _ in range(clients)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(switch)
        assert not [thread for thread in threads if thread.is_alive()] and errors == []
        assert sorted(generations) == list(range(1, clients * rounds + 1))

    def test_wrong_protocol_version_is_rejected_typed(self, server):
        conn = raw_connection(server)
        try:
            # 1 is the fill-stream protocol, whose ops this server lacks; 3
            # framed pickles.
            for request_id, version in enumerate((1, 3, PROTOCOL_VERSION + 1), 1):
                reply = exchange(conn, (request_id, "hello", (version, 3)))
                assert reply[1] == "err"
                assert reply[2] == "WireProtocolError"
        finally:
            conn.close()

    def test_a_version_2_hello_is_refused_typed(self, server):
        """Version 2 still had ``snapshot_state`` and ``restore_state``; a
        client that may journal them is refused at the hello."""
        conn = raw_connection(server)
        try:
            reply = exchange(conn, (1, "hello", (2, 3)))
            assert reply[1:3] == ("err", "WireProtocolError")
            assert "client sent 2" in reply[3]
            assert exchange(conn, (2, "ping", ()))[1] == "err"  # no shard was built
        finally:
            conn.close()

    @pytest.mark.parametrize("op, args", [("snapshot_state", ()), ("restore_state", ((),))])
    def test_the_state_snapshot_ops_are_unknown(self, server, op, args):
        conn = raw_connection(server)
        try:
            assert exchange(conn, (1, "hello", (PROTOCOL_VERSION, 3)))[1] == "ok"
            reply = exchange(conn, (2, op, args))
            assert reply[1:3] == ("err", "WireProtocolError")
            assert reply[3] == f"unknown operation {op!r}"
        finally:
            conn.close()

    def test_a_version_4_hello_is_refused_typed(self, server):
        """Version 4 still had ``validate_batch`` and ``tree_distance``; a
        client that may send them is refused at the hello."""
        conn = raw_connection(server)
        try:
            reply = exchange(conn, (1, "hello", (4, 3)))
            assert reply[1:3] == ("err", "WireProtocolError")
            assert "client sent 4" in reply[3]
            assert exchange(conn, (2, "ping", ()))[1] == "err"  # no shard was built
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "op, args", [("validate_batch", ((),)), ("tree_distance", ("lmA", "p0", "p1"))]
    )
    def test_the_ops_the_coordinator_answers_itself_are_unknown(self, server, op, args):
        conn = raw_connection(server)
        try:
            assert exchange(conn, (1, "hello", (PROTOCOL_VERSION, 3)))[1] == "ok"
            reply = exchange(conn, (2, op, args))
            assert reply[1:3] == ("err", "WireProtocolError")
            assert reply[3] == f"unknown operation {op!r}"
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
        """A second hello on the SAME connection discards the old shard, so
        no input, however it arrives, reaches a previous tenant's peers."""
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
            send_partial_frame(conn)  # header declares more bytes than follow
            with pytest.raises((OSError, EOFError)):
                conn.recv_frame(DeadlineBudget(5.0))
        finally:
            conn.close()


class TestServerLoop:
    """What a connection is owed however its bytes are cut into segments:
    every frame served once, in order, and — the blocking ``sendall`` on its
    thread — a client that stops reading its replies stops being read."""

    def test_requests_written_in_one_segment_are_all_answered_in_order(self, server):
        conn = raw_connection(server)
        try:
            frames = [encode_frame((1, "hello", (PROTOCOL_VERSION, 3)))]
            frames += [encode_frame((request_id, "ping", ())) for request_id in range(2, 40)]
            frames.insert(20, encode_frame((0, "ping", ())))  # one-way: no reply
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
            frame_length = len(encode_frame((100, "register_landmark", ("lm-00", "r"))))
            for cut in range(1, frame_length):
                # A landmark registers once: a frame served twice would come
                # back as an error, and its extra reply desynchronise the rest.
                # Ids of one digit width keep every frame one length.
                request = (100 + cut, "register_landmark", (f"lm-{cut:02d}", "r"))
                frame = encode_frame(request)
                assert len(frame) == frame_length
                conn.sock.sendall(frame[:cut])
                time.sleep(0.002)  # let the first segment be read on its own
                conn.sock.sendall(frame[cut:])
                assert conn.recv_frame(DeadlineBudget(5.0)) == (100 + cut, "ok", None)
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

class ScriptedSocket:
    """A client socket whose ``recv`` hands out scripted segments, one per
    call, and counts the calls."""

    def __init__(self, *segments: bytes) -> None:
        self.segments = list(segments)
        self.recvs = 0
        self.asks = []

    def settimeout(self, timeout) -> None:
        pass

    def recv(self, count: int) -> bytes:
        self.recvs += 1
        self.asks.append(count)
        segment = self.segments.pop(0)
        assert len(segment) <= count
        return segment


class CountingSocket:
    """A real socket behind a proxy that counts its ``recv`` calls."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.recvs = 0

    def recv(self, count: int) -> bytes:
        self.recvs += 1
        return self._sock.recv(count)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class RecordingSocket:
    """A client socket that keeps what is sent on it."""

    def __init__(self) -> None:
        self.sent = b""
        self.closed = False

    def settimeout(self, timeout) -> None:
        pass

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def setsockopt(self, *option) -> None:
        pass

    def shutdown(self, how) -> None:
        pass

    def close(self) -> None:
        self.closed = True


class TestClientFraming:
    """The client reads replies into one buffer per connection: however the
    stream is cut, every reply decodes once, and a reply that fits is one
    ``recv``."""

    def test_a_reply_split_at_every_byte_boundary_decodes_exactly_once(self):
        first, second = (1, "ok", "pong"), (2, "ok", ("p0", 1.5, "x" * 40))
        stream = encode_frame(first) + encode_frame(second)
        for cut in range(1, len(stream)):
            sock = ScriptedSocket(stream[:cut], stream[cut:], b"")
            conn = FramedConnection(sock, "fake.sock")
            assert conn.recv_frame(DeadlineBudget(5.0)) == first
            assert conn.recv_frame(DeadlineBudget(5.0)) == (2, "ok", ["p0", 1.5, "x" * 40])
            with pytest.raises(EOFError):  # nothing was left to decode twice
                conn.recv_frame(DeadlineBudget(5.0))
            assert sock.recvs == 3

    def test_an_oversized_header_fails_typed_before_any_body_byte_is_read(self):
        # The script holds the header only: a client that waited for its
        # body would find no segment to read, not a typed error.
        sock = ScriptedSocket(struct.pack("!I", MAX_FRAME_BYTES + 1))
        conn = FramedConnection(sock, "fake.sock")
        with pytest.raises(WireProtocolError, match="limit"):
            conn.recv_frame(DeadlineBudget(5.0))
        assert sock.recvs == 1

    def test_a_huge_declared_body_is_asked_for_a_bounded_chunk_at_a_time(self):
        # A header may declare up to MAX_FRAME_BYTES: the client must not
        # allocate that much for one recv before a byte of it has arrived.
        sock = ScriptedSocket(struct.pack("!I", MAX_FRAME_BYTES) + b"x" * 10, b"")
        conn = FramedConnection(sock, "fake.sock")
        with pytest.raises(EOFError):
            conn.recv_frame(DeadlineBudget(5.0))
        assert sock.asks == [1 << 16, 1 << 20]

    def test_a_partial_frame_promises_more_than_it_sends(self):
        sock = RecordingSocket()
        conn = FramedConnection(sock, "fake.sock")
        send_partial_frame(conn)
        assert conn.closed and sock.closed
        with pytest.raises(WireProtocolError, match="header needs"):
            decode_frame(sock.sent)
        reader = FramedConnection(ScriptedSocket(sock.sent, b""), "fake.sock")
        with pytest.raises(EOFError):  # the reader waits for the promised body
            reader.recv_frame(DeadlineBudget(5.0))

    def test_the_backend_frames_with_the_codec_s_own_names(self):
        """The bench traces ``socket_backend:encode_frame`` / ``decode_frame``:
        they must be the codec's functions, not copies."""
        assert socket_backend.encode_frame is codec.encode_frame
        assert socket_backend.decode_frame is codec.decode_frame
        assert socket_backend.MAX_FRAME_BYTES == codec.MAX_FRAME_BYTES

    def test_a_reply_that_fits_one_segment_costs_one_recv(self, server):
        conn = raw_connection(server)
        try:
            exchange(conn, (1, "hello", (PROTOCOL_VERSION, 3)))
            exchange(conn, (2, "register_landmark", ("lmA", "lmA")))
            conn.sock = counting = CountingSocket(conn.sock)
            for request_id in range(3, 13):
                assert exchange(conn, (request_id, "ping", ())) == (request_id, "ok", "pong")
            reply = exchange(conn, (13, "tree", ("lmA",)))
            assert reply[:2] == (13, "ok")
            assert counting.recvs == 11
        finally:
            conn.close()


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


class TestLocalServerLifecycle:
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

    def test_killing_a_host_cuts_its_connections_and_frees_their_shards(self, monkeypatch):
        """A killed loopback host takes its connections down with it: the
        client's next request fails typed at once (not after its timeout),
        and the connection's shard is freed without a garbage collection."""
        shards = []
        init = ShardRequestHandler.__init__

        def recording(handler, neighbor_set_size):
            init(handler, neighbor_set_size)
            shards.append(weakref.ref(handler.server))

        monkeypatch.setattr(ShardRequestHandler, "__init__", recording)
        with SocketShardBackend(
            address=LocalShardServer(), neighbor_set_size=3, request_timeout=3.0
        ) as shard:
            seed_peers(shard)
            collecting = gc.isenabled()
            gc.disable()
            try:
                kill(shard.supervisor)
                started = time.monotonic()
                with pytest.raises(ShardUnavailableError):
                    shard.local_closest("p0", 3)
                assert time.monotonic() - started < 0.5
                assert len(shards) == 1 and shards[0]() is None
            finally:
                if collecting:
                    gc.enable()

    @pytest.mark.parametrize("backend", ["socket", "process"])
    def test_closing_a_plane_leaves_no_server_thread_child_or_socket_file(self, backend):
        before = set(threading.enumerate())
        plane = ShardedManagementServer(
            4, neighbor_set_size=3, shard_factory=shard_factory_for(backend, 3)
        )
        plane.register_landmark("lmA", "lmA")
        plane.register_peers([simple_path(f"p{i}", "lmA", access=f"a{i}") for i in range(4)])
        addresses = {shard.supervisor.address for shard in plane.shards}
        # One loopback server per shard: a thread (socket) or a child (process).
        hosts = [t for t in set(threading.enumerate()) - before if t.name == "repro-shard-server"]
        hosts += [shard.supervisor.process for shard in plane.shards if shard.supervisor.process]
        assert len(addresses) == len(hosts) == 4
        plane.close()
        assert not [host.name for host in hosts if host.is_alive()]
        assert not [path for path in addresses if os.path.exists(os.path.dirname(path))]


class TestSeverModes:
    """Every sever mode => typed error (no recovery) or transparent heal."""

    @pytest.mark.parametrize("mode", ["close", "reset", "partial_frame"])
    def test_sever_fails_typed_then_restart_heals(self, mode):
        with SocketShardBackend(neighbor_set_size=3, name=f"sever-{mode}") as shard:
            seed_peers(shard)
            before = shard.local_closest("p0", 3)
            sever(shard.supervisor, mode)
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
            sever(shard.supervisor, mode)
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)
            assert shard.supervisor.epoch == 2

    def test_a_restart_over_a_healthy_connection_dials_afresh(self, server):
        with SocketShardBackend(address=server.address, neighbor_set_size=3) as shard:
            seed_peers(shard)
            before = shard.local_closest("p0", 3)
            old = shard.supervisor.connection
            shard.restart()  # nothing severed: the old connection still works
            assert old.closed and shard.supervisor.connection is not old
            assert shard.supervisor.epoch == 2
            assert shard.local_closest("p0", 3) == before
            assert server.alive  # a server we do not own survives the restart

    def test_killing_a_shard_on_a_server_it_does_not_own_cuts_only_its_connection(self, server):
        with SocketShardBackend(address=server.address, neighbor_set_size=3) as shard:
            seed_peers(shard)
            before = shard.local_closest("p0", 3)
            kill(shard.supervisor)
            assert shard.supervisor.connection.closed and server.alive
            with pytest.raises(ShardUnavailableError):
                shard.local_closest("p0", 3)
            shard.restart()
            assert shard.local_closest("p0", 3) == before

    def test_unknown_sever_mode_rejected(self, backend):
        seed_peers(backend)
        with pytest.raises(KeyError):
            sever(backend.supervisor, "carrier-pigeon")
        assert not backend.supervisor.connection.closed  # rejected before any cut
        assert len(backend.local_closest("p0", 3)) == 3
        assert backend.supervisor.epoch == 1


class TestStaleEpochReconnect:
    def test_stale_reconnect_fails_typed_without_recovery(self, backend):
        seed_peers(backend)
        rewind_generation(backend.supervisor)
        sever(backend.supervisor, "close")
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
            rewind_generation(shard.supervisor)
            sever(shard.supervisor, "close")
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
                sever(shard.supervisor, "close")
                with pytest.raises(ShardUnavailableError):
                    shard.local_closest("p0", 3)
                shard.restart()
            assert shard.supervisor.seen_generation == 1  # ...and starts over
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)
            # Even a rewound expectation cannot outlive the respawn.
            rewind_generation(shard.supervisor, 5)
            kill(shard.supervisor)
            shard.restart()
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)


class TestNetworkChaosAcceptance:
    """The issue's three network-fault acceptance cases, run directly
    against the supervisor hooks (the scripted ``ChaosShardBackend`` plans
    are exercised in ``test_sharded_equivalence.py``)."""

    def test_partial_frame_during_a_fill_heals_by_re_issue(self):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with SocketShardBackend(neighbor_set_size=3, recovery=fast_recovery()) as shard:
            seed_peers(shard, reference, count=7)
            expected = reference.fill_candidates({"lmA": 1.0}, 5)
            assert len(expected) == 5
            conn = shard.supervisor.connection
            send = conn.send_frame

            def severed_mid_request(frame, budget):
                sever(shard.supervisor, "partial_frame")
                send(frame, budget)

            conn.send_frame = severed_mid_request
            assert shard.fill_candidates({"lmA": 1.0}, 5) == expected
            assert shard.supervisor.epoch == 2

    def test_conn_reset_mid_batch_insert_converges_or_fails_typed(self):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        reference.register_landmark("lmA", "lmA")
        with SocketShardBackend(
            neighbor_set_size=3, recovery=fast_recovery(), name="reset-batch"
        ) as shard:
            shard.register_landmark("lmA", "lmA")
            batch = [simple_path(f"p{i}", "lmA", access=f"a{i}") for i in range(4)]
            sever(shard.supervisor, "reset")
            shard.insert_paths(batch)  # heals: restart + replay + re-issue
            reference.insert_paths(batch)
            for peer in ("p0", "p1", "p2", "p3"):
                assert shard.local_closest(peer, 3) == reference.local_closest(peer, 3)
            # Journaled exactly once: replay after ANOTHER fault stays
            # byte-identical instead of double-inserting the batch.
            ops = [op for op, _ in shard.supervisor.journal]
            assert ops == ["register_landmark", "insert_paths"]
            sever(shard.supervisor, "close")
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)

    def test_stale_epoch_reconnect_replays_full_journal_byte_identical(self):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        with SocketShardBackend(
            neighbor_set_size=3, recovery=fast_recovery(), name="stale-replay"
        ) as shard:
            seed_peers(shard, reference, count=6)
            shard.unregister_peer("p1")
            reference.unregister_peer("p1")
            rewind_generation(shard.supervisor)
            sever(shard.supervisor, "close")
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
        backend.supervisor.notify("ping", ())
        monkeypatch.undo()
        with pytest.raises(ShardUnavailableError) as error:
            backend.local_closest("p0", 2)
        assert "poisoned" in str(error.value)
        backend.restart()
        assert backend.local_closest("p0", 2)


#: Peers per landmark.  On two shards ``lmA`` and ``lmB`` land on shard 0
#: and ``lmC`` on shard 1, so a peer under ``lmA`` — one local neighbour —
#: has its list of five topped up by a fill.
FILL_POPULATION = {"lmA": 2, "lmB": 3, "lmC": 6}
FILL_DISTANCES = {("lmA", "lmB"): 1.0, ("lmA", "lmC"): 2.0, ("lmB", "lmC"): 1.0}

#: Ways a shard's reply to ``fill`` can break its contract.
FILL_CORRUPTIONS = {
    "short item": lambda items: [items[0][:2]] + items[1:],
    "over-long list": lambda items: items + [[items[-1][0] + 1.0, "'zz'", "zz"]],
    "unsorted list": lambda items: items[::-1],
}


#: Ways a shard's reply to ``local_closest`` can break its contract (the
#: honest reply is ``c0``'s five local neighbours, nearest first).
CLOSEST_CORRUPTIONS = {
    "short item": lambda pairs: [pairs[0][:1]] + pairs[1:],
    "string distance": lambda pairs: [[pairs[0][0], str(pairs[0][1])]] + pairs[1:],
    "boolean distance": lambda pairs: [[pairs[0][0], True]] + pairs[1:],
    "not-a-number distance": lambda pairs: pairs[:-1] + [[pairs[-1][0], float("nan")]],
    "unhashable peer": lambda pairs: [[[pairs[0][0]], pairs[0][1]]] + pairs[1:],
    "repeated peer": lambda pairs: pairs + [pairs[-1]],
    "over-long list": lambda pairs: pairs + [["zz", pairs[-1][1] + 1.0]],
    "unsorted list": lambda pairs: pairs[1:] + [[pairs[0][0], pairs[0][1] - 1.0]],
    "the querying peer": lambda pairs: [["c0", 0.0]] + pairs[:-1],
}


def fill_planes(landmarks):
    """A 2-shard socket plane without a cache, and its single-server twin."""
    single = ManagementServer(
        neighbor_set_size=5, maintain_cache=False, landmark_distances=FILL_DISTANCES
    )
    plane = ShardedManagementServer(
        2,
        neighbor_set_size=5,
        maintain_cache=False,
        landmark_distances=FILL_DISTANCES,
        shard_factory=shard_factory_for("socket", 5),
    )
    for server in (single, plane):
        for landmark in landmarks:
            server.register_landmark(landmark, landmark)
            server.register_peers(
                [
                    simple_path(f"{landmark[-1].lower()}{i}", landmark, access=f"a{i}")
                    for i in range(FILL_POPULATION[landmark])
                ]
            )
    assert plane.shard_of("lmA") == 0 and plane.shard_of("lmC") == 1
    return single, plane


class TestFillReplies:
    """A fill is one bounded read per shard, and its reply is checked."""

    def test_a_fill_is_one_round_trip_per_shard_and_at_most_its_limit(self, monkeypatch):
        single, plane = fill_planes(("lmA", "lmB", "lmC"))
        calls = []
        roundtrip = SocketShardSupervisor._roundtrip

        def counting(self, op, args, timeout=None):
            reply = roundtrip(self, op, args, timeout=timeout)
            calls.append((self.name, op, args, reply))
            return reply

        monkeypatch.setattr(SocketShardSupervisor, "_roundtrip", counting)
        with plane:
            for k in (5, 3, 20):
                del calls[:]
                assert plane.closest_peers("a0", k) == single.closest_peers("a0", k)
                fills = [(name, args[1], len(reply)) for name, op, args, reply in calls if op == "fill"]
                need = k - 1  # a1 is a0's one local neighbour
                assert fills == [("shard-0", need, min(need, 3)), ("shard-1", need, min(need, 6))]

    @pytest.mark.parametrize("corruption", sorted(FILL_CORRUPTIONS))
    def test_a_malformed_fill_reply_ends_typed(self, corruption, monkeypatch):
        single, plane = fill_planes(("lmA", "lmC"))
        with plane:
            victim = plane.shards[1]
            conn = victim.supervisor.connection
            honest = conn.recv_frame

            def corrupted(budget):
                request_id, status, value = honest(budget)
                return (request_id, status, FILL_CORRUPTIONS[corruption](value))

            monkeypatch.setattr(conn, "recv_frame", corrupted)
            answer = plane.closest_peers("a0")
            assert isinstance(answer, DegradedResult)
            # What the home shard knows; the foreign shard's fill is left out.
            assert answer == single.local_closest("a0", 5) == [("a1", 4.0)]
            assert answer.shard == victim.name
            assert "malformed reply to 'fill'" in answer.reason
            monkeypatch.undo()
            # The frames were whole: the channel was never desynchronised.
            assert plane.closest_peers("a0") == single.closest_peers("a0")

    @pytest.mark.parametrize("peer, op", [("a0", "fill"), ("c0", "local_closest")])
    def test_an_integral_distance_past_the_float_range_ends_typed(self, peer, op, monkeypatch):
        """A JSON integer has no bound: one no float can hold, as the last
        item's distance, used to escape the reply check as a raw
        ``OverflowError``."""
        single, plane = fill_planes(("lmA", "lmC"))
        with plane:
            conn = plane.shards[1].supervisor.connection
            honest = conn.recv_frame

            def corrupted(budget):
                request_id, status, value = honest(budget)
                value[-1][0 if op == "fill" else 1] = 10**400
                return (request_id, status, value)

            monkeypatch.setattr(conn, "recv_frame", corrupted)
            answer = plane.closest_peers(peer)
            assert isinstance(answer, DegradedResult)
            assert f"malformed reply to '{op}'" in answer.reason
            monkeypatch.undo()
            assert plane.closest_peers(peer) == single.closest_peers(peer)

    @pytest.mark.parametrize("corruption", sorted(CLOSEST_CORRUPTIONS))
    def test_a_malformed_local_closest_reply_ends_typed(self, corruption, monkeypatch):
        single, plane = fill_planes(("lmA", "lmC"))
        with plane:
            victim = plane.shards[1]
            conn = victim.supervisor.connection
            honest = conn.recv_frame

            def corrupted(budget):
                request_id, status, value = honest(budget)
                return (request_id, status, CLOSEST_CORRUPTIONS[corruption](value))

            monkeypatch.setattr(conn, "recv_frame", corrupted)
            answer = plane.closest_peers("c0")
            assert isinstance(answer, DegradedResult)
            # Only the healthy shard's fill: c0's own shard answered nothing usable.
            assert [peer for peer, _ in answer] == ["a0", "a1"]
            assert answer.shard == victim.name
            assert "malformed reply to 'local_closest'" in answer.reason
            monkeypatch.undo()
            assert plane.closest_peers("c0") == single.closest_peers("c0")


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
