"""Fuzz oracle for the wire: untrusted bytes never escape as anything untyped.

Frames reach :func:`~repro.core.codec.decode_frame` from sockets — a TCP
listener, for ``shard-serve --tcp`` — so this module feeds it, and a live
:class:`~repro.core.socket_backend.ShardServer`, bytes nobody vouches for:

* arbitrary and corrupted frames raise
  :class:`~repro.exceptions.WireProtocolError` and nothing else (the one
  type both ends of the transport act on);
* a body that names a global is refused *before* any import happens;
* whatever one connection sends, the server answers typed or drops that
  connection — a second connection keeps being served and the event loop's
  exception handler records nothing.

Every sweep is derandomised: a corrupt pickle can ask the unpickler for a
large memo (the allocation cap is the ``struct`` codec's job, see ROADMAP),
so the examples that run are the same ones every time.
"""

from __future__ import annotations

import gc
import os
import pickle
import socket
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import decode_frame, encode_frame, encode_path
from repro.core.path import RouterPath
from repro.core.socket_backend import PROTOCOL_VERSION, LocalShardServer
from repro.exceptions import WireProtocolError

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

PATH = RouterPath.from_routers("p1", "lmA", ["lmA-a1", "lmA-core", "lmA"], rtt_ms=12.5)

#: Real traffic, to corrupt: a request, both reply shapes, a one-way notify.
REAL_FRAMES = tuple(
    encode_frame(message)
    for message in (
        (1, "hello", (PROTOCOL_VERSION, 5)),
        (2, "insert_paths", ((encode_path(PATH),) * 3, True)),
        (3, "ok", (("p1", 2.0), ("p2", 4.0))),
        (4, "err", "UnknownPeerError", "unknown peer 'ghost'"),
        (0, "fill_close", (7,)),
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
    # Half the time repair the header, so the damage reaches the unpickler
    # instead of stopping at the length check.
    return framed(body) if draw(st.booleans()) else bytes(frame)


plain_data = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=10,
)

#: Well-framed, well-pickled tuples that are still not requests: wrong
#: arity, non-string ops, unhashable ids, nonsense arguments to real ops.
not_quite_requests = st.tuples(
    plain_data,
    st.sampled_from(("hello", "fill_close", "fill_next", "insert_paths", "restore_state", "tree"))
    | plain_data,
    plain_data,
).map(lambda message: encode_frame(message[: 2 + (message[2] is not None)]))

untrusted_bytes = (
    st.binary(max_size=64) | st.binary(max_size=64).map(framed) | corrupted_frames()
)


class TestDecodeFrame:
    @FUZZ
    @given(untrusted_bytes)
    def test_untrusted_bytes_raise_only_the_typed_error(self, data):
        try:
            message = decode_frame(data)
        except WireProtocolError:
            return
        # Survivors are well-formed by the codec's own definition.
        assert isinstance(message, tuple) and len(message) >= 2

    def test_a_pickled_callable_is_refused(self):
        with pytest.raises(WireProtocolError) as error:
            decode_frame(framed(pickle.dumps((1, os.system))))
        assert "global" in str(error.value)

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
    """A loopback server, a record of what its loop's exception handler saw,
    and a well-behaved witness connection holding real shard state."""
    server = LocalShardServer().acquire()
    recorded: list = []
    server._loop.call_soon_threadsafe(
        server._loop.set_exception_handler, lambda _loop, context: recorded.append(context)
    )
    witness = dial(server)
    try:
        assert exchange(witness, (1, "hello", (PROTOCOL_VERSION, 3)))[1] == "ok"
        assert exchange(witness, (2, "register_landmark", ("lmA", "lmA")))[1] == "ok"
        assert exchange(witness, (3, "insert_paths", ((encode_path(PATH),), True)))[1] == "ok"
        yield server, witness, recorded
    finally:
        witness.close()
        server.release()
    gc.collect()  # a task that died unobserved reports when it is collected
    assert recorded == []


class TestLiveServer:
    @FUZZ
    @given(
        payload=untrusted_bytes | not_quite_requests,
        greeted=st.booleans(),
    )
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
