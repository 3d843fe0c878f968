"""Typed wire codec shared by the remote shard transport and state snapshots.

Sits below both :mod:`repro.core.socket_backend` (which moves these frames
over sockets) and :class:`~repro.core.management_server.ManagementServer`
(which serialises its own state — ``snapshot_state`` / ``restore_state`` —
with the very same tagged-tuple path encoding the wire protocol uses), so
neither has to import the other.

Frames
------
A message is one **length-prefixed frame**::

    frame   = header body
    header  = !I big-endian byte length of body
    body    = serialised message tuple

    request = (request_id, op, args)      request_id > 0, or 0 for one-way
    reply   = (request_id, "ok",  value)
            | (request_id, "err", exception_type_name, message)

The header is what delimits messages on a byte stream, and
:func:`decode_frame` checks it against the bytes it was handed: a frame
whose declared length disagrees with its byte count means the channel is
corrupt (truncated write, desynchronised reply).

Bodies are pickled **plain data** — ints, floats, strings, bytes, ``None``
and tuples/lists/dicts of those — by construction: every domain object is
flattened before it is encoded.  Frames arrive from sockets (a TCP listener,
for ``shard-serve --tcp``), so :func:`decode_frame` unpickles with every
global lookup refused — no frame can import a module or call anything —
and reports *every* way a body can fail to decode as
:class:`~repro.exceptions.WireProtocolError`, the one type both ends of the
transport turn into a dropped connection or a typed
:class:`~repro.exceptions.ShardUnavailableError`.

Paths
-----
:class:`~repro.core.path.RouterPath` crosses every serialisation boundary
(wire requests, journals, state snapshots) as a tagged plain-data tuple, so
the formats are independent of repro class layout and a crash mid-write can
never surface as a half-unpickled domain object.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Sequence, Tuple

from ..exceptions import WireProtocolError
from .path import RouterPath

__all__ = ["decode_frame", "decode_path", "encode_frame", "encode_path"]

_HEADER = struct.Struct("!I")

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


def encode_frame(message: Tuple[object, ...]) -> bytes:
    """Serialise one message tuple into a length-prefixed frame."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


class _PlainDataUnpickler(pickle.Unpickler):
    """Unpickles plain data only: any opcode that names a global is refused.

    Without a global there is nothing callable on the unpickler's stack, so
    ``REDUCE`` / ``BUILD`` / ``NEWOBJ`` have nothing to run either.
    """

    def find_class(self, module: str, name: str):
        raise WireProtocolError(f"frame body names a global: {module}.{name}")


def decode_frame(frame: bytes) -> Tuple[object, ...]:
    """Parse one frame; raise :class:`WireProtocolError` on any inconsistency."""
    if len(frame) < _HEADER.size:
        raise WireProtocolError(f"frame shorter than its header: {len(frame)} bytes")
    (declared,) = _HEADER.unpack_from(frame)
    if declared != len(frame) - _HEADER.size:
        raise WireProtocolError(
            f"frame declares {declared} body bytes but carries {len(frame) - _HEADER.size}"
        )
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
