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
    body    = serialised message tuple

    request = (request_id, op, args)      request_id > 0, or 0 for one-way
    reply   = (request_id, "ok",  value)
            | (request_id, "err", exception_type_name, message)

The header is what delimits messages on a byte stream, and ``_frame_end``
is the one reader of it: it refuses a header declaring more than
``MAX_FRAME_BYTES`` before the body is read, and :func:`decode_frame` checks
it against the bytes it was handed — a declared length that disagrees with
the byte count means the channel is corrupt (truncated write,
desynchronised reply).

Bodies are pickled **plain data** — ints, floats, strings, bytes, ``None``
and tuples/lists/dicts of those — by construction: every domain object is
flattened before it is encoded.  Frames arrive from sockets (a TCP listener,
for ``shard-serve --tcp``), so :func:`decode_frame` unpickles with every
global lookup refused — no frame can import a module or call anything —
and reports *every* way a body can fail to decode as
:class:`~repro.exceptions.WireProtocolError`, the one type both ends of the
transport turn into a dropped connection or a typed
:class:`~repro.exceptions.ShardUnavailableError`.

The refusal does not bound memory: a ``LONG_BINPUT`` opcode names a memo
index, and the unpickler grows its memo to it before the frame fails typed.
A 13-byte frame naming index 2**24 raises the decoding process's peak RSS
from 21 MB to 277 MB (2**22: +64 MB; larger not tried; CPython 3.11.7), on a
``shard-serve --tcp`` server reading requests and a client reading replies
alike.  Only a decoder that runs no pickle opcodes closes it.

Paths
-----
:class:`~repro.core.path.RouterPath` crosses every serialisation boundary
(wire requests, journals) as a tagged plain-data tuple, so the formats are
independent of repro class layout and a crash mid-write can never surface
as a half-unpickled domain object.  This module owns that layout:
:func:`encoded_peer` reads a peer id off an encoded path without building
the path (journal compaction folds on it).
"""

from __future__ import annotations

import io
import pickle
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
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
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


class _PlainDataUnpickler(pickle.Unpickler):
    """Unpickles plain data only: any opcode that names a global is refused.

    Without a global there is nothing callable on the unpickler's stack, so
    ``REDUCE`` / ``BUILD`` / ``NEWOBJ`` have nothing to run either.
    """

    def find_class(self, module: str, name: str):
        raise WireProtocolError(f"frame body names a global: {module}.{name}")


def decode_frame(frame: bytes) -> Tuple[object, ...]:
    """Parse one frame; raise :class:`WireProtocolError` on any inconsistency."""
    end = _frame_end(frame)
    if end != len(frame):
        raise WireProtocolError(f"frame is {len(frame)} bytes but its header needs {end}")
    try:
        # One unpickler per frame, on purpose: reusing one over a reset
        # BytesIO with its memo replaced segfaulted CPython 3.11.7.
        message = _PlainDataUnpickler(io.BytesIO(frame[_HEADER.size :])).load()
    except WireProtocolError:
        raise
    except Exception as error:  # noqa: BLE001 - corrupt bytes fail in many types
        # UnpicklingError, ValueError, UnicodeDecodeError, OverflowError,
        # MemoryError, TypeError, AttributeError, EOFError, ...: all of them
        # mean "undecodable body", and callers act on exactly one type.
        raise WireProtocolError(
            f"undecodable frame body: {type(error).__name__}: {error}"
        ) from error
    if not isinstance(message, tuple) or len(message) < 2:
        raise WireProtocolError(f"malformed message: {message!r}")
    return message
