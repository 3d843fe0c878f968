"""Typed wire codec of the remote shard protocol and its journal.

Sits below both :mod:`repro.core.socket_backend` (which moves these frames
over sockets) and :mod:`repro.core.remote` (which dispatches the requests
and keeps the journal of acknowledged ones, paths in the very encoding the
wire carries), so neither has to import the other.

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
character is written as a ``\\u`` escape)::

    body    = "[" value "," value *( "," value ) "]"
    value   = string / number / "true" / "false" / "null"
            / "NaN" / "Infinity" / "-Infinity"
            / "[" [ value *( "," value ) ] "]"
            / "{" [ string ":" value *( "," string ":" value ) ] "}"

so only plain data crosses the wire: strings, ints, floats, booleans,
``None``, and arrays and string-keyed objects of those.  Every domain
object is flattened before it is encoded, and ids sent to a remote plane
must be JSON scalars (str, int, float, bool, ``None``).  A tuple is encoded
as an array, and every array decodes as a list — except the message
itself, which :func:`decode_frame` returns as a tuple.  Frames arrive from
sockets (a TCP listener, for ``shard-serve --tcp``); decoding runs no code
the frame names, and the decoder's memory grows linearly with the frame's
size, whatever the frame asks for
(``tests/core/test_wire_fuzz.py::test_a_memo_index_frame_stays_small``).  Every
way a body can fail to decode — non-ASCII bytes, bad JSON, nesting too
deep, an int past the digit limit, a message that is not an array of at
least two items — is :class:`~repro.exceptions.WireProtocolError`, the one
type both ends of the transport turn into a dropped connection or a typed
:class:`~repro.exceptions.ShardUnavailableError`.

Paths
-----
:class:`~repro.core.path.RouterPath` crosses every serialisation boundary
(wire requests, journals) as a tagged plain-data tuple, so the formats are
independent of repro class layout and a crash mid-write can never surface
as a half-decoded domain object.  This module owns that layout:
:func:`encoded_peer` reads a peer id off an encoded path without building
the path (journal compaction folds on it).
"""

from __future__ import annotations

import json
import struct
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

_encode_body = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_decode_body = json.JSONDecoder().decode


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
    body = _encode_body(message).encode("ascii")
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
    """Parse one frame; raise :class:`WireProtocolError` on any inconsistency."""
    end = _frame_end(frame)
    if end != len(frame):
        raise WireProtocolError(f"frame is {len(frame)} bytes but its header needs {end}")
    try:
        message = _decode_body(frame[_HEADER.size :].decode("ascii"))
    except Exception as error:  # noqa: BLE001 - corrupt bytes fail in many types
        # UnicodeDecodeError, JSONDecodeError, RecursionError, ValueError (the
        # int digit limit), MemoryError, ...: all of them mean "undecodable
        # body", and callers act on exactly one type.
        raise WireProtocolError(
            f"undecodable frame body: {type(error).__name__}: {error}"
        ) from error
    if type(message) is not list or len(message) < 2:
        raise WireProtocolError(f"malformed message: {message!r}")
    return tuple(message)
