"""Typed wire codec of the remote shard protocol and its journal.

Sits below both :mod:`repro.core.socket_backend` (which moves these frames
over sockets) and :mod:`repro.core.remote` (which dispatches the requests
and keeps the acknowledged peers' paths a restart replays, in the very
encoding the wire carries), so neither has to import the other.

Frames
------
A message is one **length-prefixed frame**::

    frame   = header body
    header  = !I big-endian byte length of body
    body    = the message tuple as a JSON array (below)

    request = (request_id, op, args)      request_id > 0, or 0 for one-way
    reply   = (request_id, "ok",  value)
            | (request_id, "err", exception_type_name, message)

The header is what delimits messages on a byte stream, and ``_frame_end``
is the one reader of it: it refuses a header declaring more than
``MAX_FRAME_BYTES`` before the body is read, and :func:`decode_frame` checks
it against the bytes it was handed — a declared length that disagrees with
the byte count means the channel is corrupt (truncated write,
desynchronised reply).

A body is the message as one compact JSON array, in ASCII (any other
character is written as a ``\\u`` escape), with no whitespace before or
after it::

    body    = "[" value "," value *( "," value ) "]"
    value   = string / number / "true" / "false" / "null"
            / "NaN" / "Infinity" / "-Infinity"
            / "[" [ value *( "," value ) ] "]"
            / "{" [ string ":" value *( "," string ":" value ) ] "}"

so only plain data crosses the wire: strings, ints, floats, booleans,
``None``, and arrays and string-keyed objects of those.  Every domain
object is flattened before it is encoded, and ids sent to a remote plane
must be JSON scalars (str, int, float, bool, ``None``); anything else fails
to encode with the :class:`TypeError` ``json.dumps`` raises.  A tuple is
encoded as an array, and every array decodes as a list — except the message
itself, which :func:`decode_frame` returns as a tuple.  Frames arrive from
sockets (a TCP listener, for ``shard-serve --tcp``); decoding runs no code
the frame names, and the decoder's memory grows linearly with the frame's
size, whatever the frame asks for
(``tests/core/test_wire_fuzz.py::test_a_memo_index_frame_stays_small``).  Every
way a body can fail to decode — non-ASCII bytes, bad JSON, whitespace or
any other byte before or after the array, nesting too deep, an int past the
digit limit, a message that is not an array of at least two items — is
:class:`~repro.exceptions.WireProtocolError`, the one type both ends of the
transport turn into a dropped connection or a typed
:class:`~repro.exceptions.ShardUnavailableError`.

The encoder and the scanner are CPython's C ones (``_json``), each built
once, at import, and shared by every thread: neither keeps state from one
call to the next (the scanner empties its key memo after every value), so
threads encoding and decoding at once need no lock.  ``JSONEncoder.encode``
builds a new C encoder on every call, and ``JSONDecoder.decode`` wraps the
scanner in two whitespace passes; calling the built objects directly
writes the same bytes for less.  Per frame, fastest of 7 on a 2-core box,
CPython 3.11.7, against those two calls: a ``join_paths`` request of one
path encodes in ~1.9 µs (2.7) and decodes in ~1.7 µs (2.5); a reply of 10
``(peer, distance)`` pairs encodes in ~3.5 µs (4.4) and decodes in
~3.0 µs (3.5).

Paths
-----
:class:`~repro.core.path.RouterPath` crosses every serialisation boundary
(wire requests, the journal) as a tagged plain-data tuple, so the formats are
independent of repro class layout and a crash mid-write can never surface
as a half-decoded domain object.  This module owns that layout:
:func:`encoded_peer` reads a peer id off an encoded path without building
the path (the shard supervisor keys its live paths on it).
"""

from __future__ import annotations

import struct
from json import JSONDecoder
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Sequence, Tuple

from ..exceptions import WireProtocolError
from .path import PeerId, RouterPath

__all__ = [
    "MAX_FRAME_BYTES",
    "decode_frame",
    "decode_path",
    "encode_frame",
    "encode_path",
    "encoded_peer",
]

_HEADER = struct.Struct("!I")

#: Upper bound on one frame body — far above any real batch of paths, low
#: enough that a corrupt header cannot make either side buffer gigabytes.
MAX_FRAME_BYTES = 1 << 30

_PATH_TAG = "path"

if c_make_encoder is None:  # pragma: no cover - every CPython build has _json
    raise ImportError("repro.core.codec needs the C JSON encoder (_json.make_encoder)")

#: ``(message, 0) -> chunks of the body``: the encoder
#: ``json.dumps(message, separators=(",", ":"))`` builds on every call, built
#: once (no circular check, no indent, keys in insertion order, NaN and
#: infinities allowed).
_encode = c_make_encoder(
    None, JSONEncoder().default, encode_basestring_ascii, None, ":", ",", False, False, True
)

#: ``(text, index) -> (value, end)``: the scanner under ``json.loads``.
_scan = JSONDecoder().scan_once


def encode_path(path: RouterPath) -> Tuple[object, ...]:
    """Flatten a :class:`RouterPath` into a tagged plain-data tuple."""
    return (_PATH_TAG, path.peer_id, path.landmark_id, path.routers, path.rtt_ms)


def decode_path(data: Sequence[object]) -> RouterPath:
    """Rebuild a :class:`RouterPath` from :func:`encode_path` output."""
    if len(data) != 5 or data[0] != _PATH_TAG:
        raise WireProtocolError(f"malformed path frame: {data!r}")
    _, peer_id, landmark_id, routers, rtt_ms = data
    return RouterPath(peer_id, landmark_id, routers, rtt_ms)  # type: ignore[arg-type]


def encoded_peer(data: Sequence[object]) -> PeerId:
    """The peer id of an :func:`encode_path` tuple, without decoding the path."""
    return data[1]  # type: ignore[return-value]


def encode_frame(message: Tuple[object, ...]) -> bytes:
    """Serialise one message tuple into a length-prefixed frame."""
    body = "".join(_encode(message, 0)).encode("ascii")
    return _HEADER.pack(len(body)) + body


def _frame_end(buffer: bytes) -> int:
    """Where the frame at the head of ``buffer`` ends, or its header while
    that is incomplete; an oversized header fails before its body is read."""
    if len(buffer) < _HEADER.size:
        return _HEADER.size
    (declared,) = _HEADER.unpack_from(buffer)
    if declared > MAX_FRAME_BYTES:
        raise WireProtocolError(f"frame declares {declared} body bytes (limit {MAX_FRAME_BYTES})")
    return _HEADER.size + declared


def decode_frame(frame: bytes) -> Tuple[object, ...]:
    """Parse one frame (any bytes-like object); raise
    :class:`WireProtocolError` on any inconsistency."""
    end = _frame_end(frame)
    if end != len(frame):
        raise WireProtocolError(f"frame is {len(frame)} bytes but its header needs {end}")
    try:
        text = str(frame[_HEADER.size :], "ascii")
        message, stop = _scan(text, 0)
    except Exception as error:  # noqa: BLE001 - corrupt bytes fail in many types
        # UnicodeDecodeError, StopIteration (no value where the body starts),
        # JSONDecodeError, RecursionError, ValueError (the int digit limit),
        # MemoryError, ...: all of them mean "undecodable body", and callers
        # act on exactly one type.
        raise WireProtocolError(
            f"undecodable frame body: {type(error).__name__}: {error}"
        ) from error
    if stop != len(text):
        raise WireProtocolError(f"frame body has {len(text) - stop} bytes past its message")
    if type(message) is not list or len(message) < 2:
        raise WireProtocolError(f"malformed message: {message!r}")
    return tuple(message)
