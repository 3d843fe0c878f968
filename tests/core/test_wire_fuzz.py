"""Fuzz oracle for the wire: untrusted bytes never escape as anything untyped.

Frames reach :func:`~repro.core.codec.decode_frame` from sockets — a TCP
listener, for ``shard-serve --tcp`` — so this module feeds it, and a live
:class:`~repro.core.socket_backend.ShardServer`, bytes nobody vouches for:

* arbitrary and corrupted frames raise
  :class:`~repro.exceptions.WireProtocolError` and nothing else (the one
  type both ends of the transport act on);
* a body that names a global is refused *before* any import happens;
* whatever one connection sends, the server answers typed or drops that
  connection — a second connection keeps being served and no exception
  escapes a server thread to ``threading.excepthook``;
* and the other direction: whatever well-framed reply a hostile *server*
  sends a real supervisor, the client raises a typed error or an exception
  an honest shard could have reported, and a coordinator records no peer
  for a join that was not acknowledged well-formed.

Every sweep is derandomised, so the examples that run are the same ones
every time.  That the decoder's memory follows the frame's size, not what
the frame asks for, is :meth:`TestDecodeFrame.test_a_memo_index_frame_stays_small`.
"""

from __future__ import annotations

import builtins
import itertools
import json
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core import ShardedManagementServer
from repro.core.codec import decode_frame, encode_frame, encode_path
from repro.core.path import RouterPath
from repro.core.socket_backend import PROTOCOL_VERSION, LocalShardServer, SocketShardBackend
from repro.exceptions import ReproError, WireProtocolError

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

PATH = RouterPath.from_routers("p1", "lmA", ["lmA-a1", "lmA-core", "lmA"], rtt_ms=12.5)

#: Real traffic, to corrupt: requests, both reply shapes, a fill and its answer.
REAL_FRAMES = tuple(
    encode_frame(message)
    for message in (
        (1, "hello", (PROTOCOL_VERSION, 5)),
        (2, "insert_paths", ((encode_path(PATH),) * 3, True)),
        (3, "ok", (("p1", 2.0), ("p2", 4.0))),
        (4, "err", "UnknownPeerError", "unknown peer 'ghost'"),
        (5, "fill", ((("lmA", 1.0), ("lmB", 3.0)), 4)),
        (5, "ok", ((3.0, "'p1'", "p1"), (4.0, "'p2'", "p2"))),
    )
)


def framed(body: bytes) -> bytes:
    """A frame whose header is honest, whatever the body is."""
    return struct.pack("!I", len(body)) + body


@st.composite
def corrupted_frames(draw) -> bytes:
    """A real frame with a few bytes overwritten, inserted or cut out."""
    frame = bytearray(draw(st.sampled_from(REAL_FRAMES)))
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, len(frame) - 1))
        edit = draw(st.sampled_from(("overwrite", "insert", "delete")))
        if edit == "overwrite":
            frame[position] = draw(st.integers(0, 255))
        elif edit == "insert":
            frame.insert(position, draw(st.integers(0, 255)))
        elif len(frame) > 1:
            del frame[position]
    body = bytes(frame[4:])
    # Half the time repair the header, so the damage reaches the decoder
    # instead of stopping at the length check.
    return framed(body) if draw(st.booleans()) else bytes(frame)


plain_data = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=10,
)

#: Well-framed, well-encoded tuples that are still not requests: wrong
#: arity, non-string ops, unhashable ids, nonsense arguments to real ops.
not_quite_requests = st.tuples(
    plain_data,
    st.sampled_from(("hello", "fill", "insert_paths", "tree"))
    | plain_data,
    plain_data,
).map(lambda message: encode_frame(message[: 2 + (message[2] is not None)]))

untrusted_bytes = (
    st.binary(max_size=64) | st.binary(max_size=64).map(framed) | corrupted_frames()
)

#: Messages the codec must carry: a tuple of two to four plain-data items.
messages = st.lists(
    plain_data | st.dictionaries(st.text(max_size=4), plain_data, max_size=3),
    min_size=2,
    max_size=4,
).map(tuple)


def as_lists(value):
    """``value`` as it comes back off the wire: every tuple a list."""
    if isinstance(value, (tuple, list)):
        return [as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    return value


#: Bodies that are JSON-shaped but no message, each with why it fails.
HOSTILE_JSON = {
    "deep nesting": (framed(b"[" * 200_000), "RecursionError"),
    "5,000-digit int": (framed(b"[" + b"7" * 5000 + b',"ping"]'), "digits"),
    "non-ASCII": (framed('[1,"p\u00efng"]'.encode()), "UnicodeDecodeError"),
    "object": (framed(b'{"1":"ping"}'), "malformed message"),
    "string": (framed(b'"ping"'), "malformed message"),
    "one item": (framed(b"[1]"), "malformed message"),
}

#: Decodes the frame given in hex in a fresh process; prints the peak-RSS
#: rise (``ru_maxrss``, KiB on Linux) and the type the frame failed with.
MEMO_PROBE = """
import resource, sys
from repro.core.codec import decode_frame
frame = bytes.fromhex(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    decode_frame(frame)
    failed = None
except Exception as error:
    failed = type(error).__name__
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, failed)
"""


class TestDecodeFrame:
    @FUZZ
    @given(untrusted_bytes)
    @example(HOSTILE_JSON["deep nesting"][0])
    @example(HOSTILE_JSON["5,000-digit int"][0])
    @example(HOSTILE_JSON["non-ASCII"][0])
    @example(HOSTILE_JSON["object"][0])
    @example(HOSTILE_JSON["string"][0])
    @example(HOSTILE_JSON["one item"][0])
    def test_untrusted_bytes_raise_only_the_typed_error(self, data):
        try:
            message = decode_frame(data)
        except WireProtocolError:
            return
        # Survivors are well-formed by the codec's own definition.
        assert isinstance(message, tuple) and len(message) >= 2

    @pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
    def test_a_json_shaped_body_that_is_no_message_fails_typed(self, name):
        frame, reason = HOSTILE_JSON[name]
        with pytest.raises(WireProtocolError, match=reason):
            decode_frame(frame)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KiB on Linux")
    def test_a_memo_index_frame_stays_small(self):
        """13 bytes that ask a pickle decoder for a 2**22-slot memo (PROTO 4,
        NONE, LONG_BINPUT 2**22, STOP) fail typed, in bounded memory: the
        pickle codec grew its memo to the index first (+64 MB peak RSS)."""
        frame = framed(b"\x80\x04N" + b"r" + struct.pack("<I", 1 << 22) + b".")
        assert len(frame) == 13
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", MEMO_PROBE, frame.hex()],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        rise_kib, failed = run.stdout.split()
        assert failed == "WireProtocolError"
        assert int(rise_kib) < 16 * 1024

    def test_a_pickled_callable_is_refused(self):
        frame = framed(pickle.dumps((1, os.system)))
        modules = set(sys.modules)
        with pytest.raises(WireProtocolError):
            decode_frame(frame)
        assert set(sys.modules) == modules  # nothing was imported

    def test_a_named_global_is_refused_before_any_import(self):
        sys.modules.pop("colorsys", None)
        with pytest.raises(WireProtocolError):
            decode_frame(framed(b"ccolorsys\nrgb_to_hls\n."))
        assert "colorsys" not in sys.modules
        with pytest.raises(WireProtocolError):  # nor one that does not exist
            decode_frame(framed(b"cno_such_module_anywhere\nattr\n."))

    def test_every_real_frame_still_round_trips(self):
        for frame in REAL_FRAMES:
            assert encode_frame(decode_frame(frame)) == frame


class TestCodecIsJson:
    """The module-level encoder and scanner write and read exactly what
    ``json.dumps`` / ``json.loads`` do, and nothing around it."""

    @FUZZ
    @given(messages)
    def test_a_frame_is_the_header_and_json_dumps_and_decodes_back(self, message):
        body = json.dumps(message, separators=(",", ":")).encode("ascii")
        frame = encode_frame(message)
        assert frame == struct.pack("!I", len(body)) + body
        assert decode_frame(frame) == tuple(as_lists(message))
        assert decode_frame(memoryview(frame)) == tuple(as_lists(message))

    @pytest.mark.parametrize(
        "body",
        [
            b' [1,"ok",null]',
            b'\n[1,"ok",null]',
            b'[1,"ok",null] ',
            b'[1,"ok",null]\r\n',
            b'[1,"ok",null]x',
            b'[1,"ok",null][2,"ok",null]',
        ],
        ids=["leading space", "leading newline", "trailing space", "trailing CRLF",
             "trailing byte", "two arrays"],
    )
    def test_anything_around_the_array_fails_typed(self, body):
        with pytest.raises(WireProtocolError):
            decode_frame(framed(body))

    def test_threads_share_the_encoder_and_scanner_without_mixing_frames(self):
        """Four threads at once, 2,000 distinct messages each, every one
        an exact round trip through the one encoder and the one scanner."""
        start = threading.Barrier(4)
        failures = []

        def work(thread: int) -> None:
            start.wait()
            for i in range(2000):
                message = (i, f"op-{thread}", [[f"p{thread}-{i}", i / 7]], {f"k{thread}": [i, None]})
                frame = encode_frame(message)
                if decode_frame(frame) != tuple(as_lists(message)):
                    failures.append((thread, i))

        threads = [threading.Thread(target=work, args=(index,)) for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def dial(server: LocalShardServer) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    sock.connect(server.address)
    return sock


def read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def exchange(sock: socket.socket, message) -> tuple:
    """One round trip on a healthy connection (replies here are tiny)."""
    sock.sendall(encode_frame(message))
    header = sock.recv(4, socket.MSG_WAITALL)
    return decode_frame(header + sock.recv(struct.unpack("!I", header)[0], socket.MSG_WAITALL))


@pytest.fixture(scope="class")
def live_server():
    """A loopback server, a record of every exception that escaped one of
    its threads, and a well-behaved witness connection holding real shard
    state."""
    recorded: list = []
    excepthook, threading.excepthook = threading.excepthook, recorded.append
    server = LocalShardServer()
    witness = dial(server)
    try:
        assert exchange(witness, (1, "hello", (PROTOCOL_VERSION, 3)))[1] == "ok"
        assert exchange(witness, (2, "register_landmark", ("lmA", "lmA")))[1] == "ok"
        assert exchange(witness, (3, "insert_paths", ((encode_path(PATH),), True)))[1] == "ok"
        yield server, witness, recorded
    finally:
        witness.close()
        server.stop()  # joins every connection thread: the record is complete
        threading.excepthook = excepthook
    assert recorded == []


class TestLiveServer:
    @FUZZ
    @given(
        payload=untrusted_bytes | not_quite_requests,
        greeted=st.booleans(),
    )
    @example(payload=HOSTILE_JSON["deep nesting"][0], greeted=True)
    @example(payload=HOSTILE_JSON["5,000-digit int"][0], greeted=True)
    @example(payload=HOSTILE_JSON["non-ASCII"][0], greeted=True)
    @example(payload=HOSTILE_JSON["object"][0], greeted=True)
    @example(payload=HOSTILE_JSON["string"][0], greeted=True)
    @example(payload=HOSTILE_JSON["one item"][0], greeted=True)
    def test_garbage_is_answered_typed_or_dropped_and_others_keep_being_served(
        self, live_server, payload, greeted
    ):
        server, witness, recorded = live_server
        with dial(server) as sock:
            if greeted:  # garbage after a hello reaches a live shard
                assert exchange(sock, (1, "hello", (PROTOCOL_VERSION, 3)))[1] == "ok"
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)  # "...and that is all I have to say"
            answer = read_to_eof(sock)  # the server always lets go: no timeout
        # Whatever came back is whole frames carrying typed replies.
        while answer:
            (declared,) = struct.unpack("!I", answer[:4])
            reply, answer = decode_frame(answer[: 4 + declared]), answer[4 + declared :]
            assert reply[1] in ("ok", "err")
        # The second connection never noticed.
        assert exchange(witness, (9, "ping", ())) == (9, "ok", "pong")
        assert exchange(witness, (10, "stats", ()))[2]["registrations"] == 1
        assert recorded == []

    def test_a_pickled_version_3_hello_gets_no_ok(self, live_server):
        server, witness, recorded = live_server
        with dial(server) as sock:
            sock.sendall(framed(pickle.dumps((1, "hello", (3, 3)), pickle.HIGHEST_PROTOCOL)))
            sock.shutdown(socket.SHUT_WR)
            assert read_to_eof(sock) == b""  # dropped undecoded: no reply at all
        assert exchange(witness, (11, "ping", ())) == (11, "ok", "pong")
        assert recorded == []


class ScriptedServer:
    """A hostile shard server: an honest hello, then whatever the script says.

    ``script(request)`` returns the reply tuple to frame and send back, or
    ``None`` to answer like an honest empty shard (``ok``, no value).
    """

    def __init__(self, directory: str) -> None:
        self.address = os.path.join(directory, "hostile.sock")
        self.script = lambda request: None
        self._generations = itertools.count(1)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.address)
        self._listener.listen()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # closed: the fixture is done
                return
            threading.Thread(target=self._talk, args=(conn,), daemon=True).start()

    def _talk(self, conn: socket.socket) -> None:
        with conn:
            while header := conn.recv(4, socket.MSG_WAITALL):
                (declared,) = struct.unpack("!I", header)
                request = decode_frame(header + conn.recv(declared, socket.MSG_WAITALL))
                if request[1] == "hello":
                    reply = (request[0], "ok", (PROTOCOL_VERSION, next(self._generations)))
                else:
                    reply = self.script(request) or (request[0], "ok", None)
                conn.sendall(encode_frame(reply))

    def close(self) -> None:
        self._listener.close()


@pytest.fixture(scope="class")
def hostile_server(tmp_path_factory):
    server = ScriptedServer(str(tmp_path_factory.mktemp("hostile")))
    yield server
    server.close()


#: What follows the request id in a reply: either honest shape around an
#: arbitrary value, an ``err`` naming any builtin at all, or the wrong arity.
reply_tails = (
    st.tuples(st.just("ok"), plain_data)
    | st.tuples(st.just("err"), st.sampled_from(sorted(vars(builtins))), st.text(max_size=12))
    | st.lists(plain_data, min_size=1, max_size=4).map(tuple)
)
#: ...behind the right request id, most of the time.
id_offsets = st.sampled_from((0, 0, 0, 1, -1))

#: ``join_paths`` answers: one list per path is the honest shape, so draw
#: around it — wrong length, entries of the wrong arity, unhashable peers.
neighbor_pairs = st.tuples(
    st.text(max_size=4) | plain_data, st.floats(allow_nan=False) | st.integers(-9, 9) | plain_data
)
join_values = st.lists(
    st.lists(neighbor_pairs | plain_data, max_size=3) | plain_data, max_size=2
).map(tuple)


#: ``fill`` answers: sorted ``(estimate, sort_text, peer)`` items are the
#: honest shape, so draw around it — unsorted, too long, the wrong arity or
#: types.
fill_items = st.tuples(
    st.floats(allow_nan=False) | st.integers(0, 9) | plain_data,
    st.text(max_size=3) | plain_data,
    st.text(max_size=3),
)
sorted_fill_items = st.lists(
    st.tuples(st.integers(0, 9), st.text(max_size=3), st.text(max_size=3)), max_size=5
).map(lambda items: tuple(sorted(items)))
fill_values = st.lists(fill_items | plain_data, max_size=5).map(tuple) | sorted_fill_items


def honest_failure(error: BaseException, named: object) -> bool:
    """Typed, or the builtin ``Exception`` an honest shard could have named."""
    if isinstance(error, ReproError):  # ShardUnavailableError included
        return True
    return (
        isinstance(error, Exception)
        and not isinstance(error, (StopIteration, StopAsyncIteration))
        and isinstance(named, str)
        and type(error) is getattr(builtins, named, None)
    )


class TestHostileServer:
    @FUZZ
    @given(offset=id_offsets, tail=reply_tails)
    @example(offset=0, tail=("err", "SystemExit", "0"))
    @example(offset=0, tail=("err", "KeyboardInterrupt", ""))
    @example(offset=0, tail=("err", "StopIteration", ""))
    @example(offset=0, tail=("err", "BaseException", ""))
    @example(offset=0, tail=("err", "ExceptionGroup", ""))  # cannot even be built bare
    @example(offset=0, tail=("err", "KeyError", "'k'"))  # honest: comes back as itself
    @example(offset=0, tail=("ok",))  # an ok with nothing in it
    def test_any_well_framed_reply_is_a_value_or_an_honest_failure(
        self, hostile_server, offset, tail
    ):
        hostile_server.script = lambda request: (request[0] + offset,) + tail
        with SocketShardBackend(
            address=hostile_server.address, neighbor_set_size=3, name="fooled"
        ) as shard:
            try:
                shard.supervisor.request("ping", ())
            except BaseException as error:  # noqa: BLE001 - the claim is about every type
                assert honest_failure(error, tail[1] if len(tail) > 1 else None), repr(error)
            else:
                assert not offset and tail[0] == "ok" and len(tail) >= 2

    @FUZZ
    @given(offset=id_offsets, tail=reply_tails | st.tuples(st.just("ok"), fill_values))
    @example(offset=0, tail=("ok", ((3.0, "'c0'", "c0"), (4, "'c1'", "c1"))))  # honest
    @example(offset=0, tail=("ok", ((3.0, "'c0'"),)))  # a short item
    @example(offset=0, tail=("ok", ((4.0, "'c1'", "c1"), (3.0, "'c0'", "c0"))))  # unsorted
    @example(offset=0, tail=("ok", tuple((3.0, f"'c{i}'", f"c{i}") for i in range(4))))  # too many
    @example(offset=0, tail=("ok", (("3", "'c0'", "c0"),)))  # not a real number
    @example(offset=0, tail=("ok", ((3.0, "'c0'", "c0"), (3.0, "'c0'", "c0"))))  # a peer twice
    def test_a_fill_reply_is_a_checked_list_or_an_honest_failure(
        self, hostile_server, offset, tail
    ):
        def script(request):
            return (request[0] + offset,) + tail if request[1] == "fill" else None

        hostile_server.script = script
        with SocketShardBackend(
            address=hostile_server.address, neighbor_set_size=3, name="fooled"
        ) as shard:
            try:
                items = shard.fill_candidates({"lmA": 1.0}, 3)
            except BaseException as error:  # noqa: BLE001 - the claim is about every type
                assert honest_failure(error, tail[1] if len(tail) > 1 else None), repr(error)
            else:
                assert not offset and tail[0] == "ok"
                assert len(items) <= 3 and len({peer for _, _, peer in items}) == len(items)
                assert all(type(estimate) is float and type(text) is str for estimate, text, _ in items)
                assert [item[:2] for item in items] == sorted(item[:2] for item in items)

    @FUZZ
    @given(offset=id_offsets, tail=reply_tails | st.tuples(st.just("ok"), join_values))
    @example(offset=0, tail=("ok", ([("p2", 2.0), ("p3", 4)],)))  # the one honest shape
    @example(offset=0, tail=("ok", ()))  # no list for the path
    @example(offset=0, tail=("ok", ([("p2", 2.0)], [("p3", 2.0)])))  # one list too many
    @example(offset=0, tail=("ok", ([([], 2.0)],)))  # a peer id nothing could key on
    @example(offset=0, tail=("ok", ([("p2", 2.0), ("p2", 4.0)],)))  # the same peer twice
    @example(offset=0, tail=("ok", ([("p2", 2.0, "extra")],)))  # not a pair
    @example(offset=0, tail=("ok", ([("p2", None)],)))  # not a distance
    @example(offset=1, tail=("ok", ([("p2", 2.0)],)))  # somebody else's answer
    def test_a_join_that_was_not_acknowledged_well_formed_records_no_peer(
        self, hostile_server, offset, tail
    ):
        def script(request):
            return (request[0] + offset,) + tail if request[1] == "join_paths" else None

        hostile_server.script = script
        plane = ShardedManagementServer(
            1,
            neighbor_set_size=3,
            shard_factory=lambda: SocketShardBackend(
                address=hostile_server.address, neighbor_set_size=3, name="fooled"
            ),
        )
        with plane:
            plane.register_landmark("lmA", "lmA")
            try:
                answer = plane.register_peer(PATH)
            except BaseException as error:  # noqa: BLE001 - the claim is about every type
                assert honest_failure(error, tail[1] if len(tail) > 1 else None), repr(error)
                assert not plane.has_peer("p1")
                assert plane.peer_count == 0 and plane.stats.registrations == 0
                assert plane._neighbor_cache == {}
            else:
                # Only ONE list of (peer, distance) pairs passes for an ack.
                assert not offset and tail[0] == "ok" and len(tail[1]) == 1
                assert answer == [(peer, float(distance)) for peer, distance in tail[1][0]]
                assert plane.peers() == ["p1"]

    def test_an_acked_departure_of_a_peer_never_inserted_changes_no_journal(
        self, hostile_server
    ):
        """A shard that acknowledges ``unregister("ghost")`` for a peer it
        was never sent leaves the journal as it was: ``journal``,
        ``compact()`` and a restart's replay all still work."""
        hostile_server.script = lambda request: None  # every request acked
        with SocketShardBackend(
            address=hostile_server.address, neighbor_set_size=3, name="fooled"
        ) as shard:
            shard.register_landmark("lmA", "lmA")
            shard.insert_paths([PATH])
            shard.unregister_peer("ghost")
            size = shard.compact()
            shard.restart()
            journal = (
                ("register_landmark", ("lmA", "lmA")),
                ("insert_paths", ((encode_path(PATH),), False)),
            )
            assert shard.supervisor.journal == journal and shard.supervisor.epoch == 2
            assert size == sum(len(encode_frame((1, op, args))) for op, args in journal)
