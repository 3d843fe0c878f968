"""The shard transport: threaded shard servers, socket-backed shards.

The wire protocol of :mod:`repro.core.remote` runs over real sockets, and
only over sockets: a :class:`ShardServer` (TCP and Unix-domain, a thread
per connection) hosts a ``ManagementServer(maintain_cache=False)`` per
**connection-scoped shard**, and :class:`SocketShardBackend` — the one
remote-shard client class — is a full
:class:`~repro.core.sharded.ShardBackend` over it.  The frame codec
(:mod:`repro.core.codec`), the request dispatch and the
journal/recovery story (:mod:`repro.core.remote`) live
elsewhere — this module is how frames move, who hosts the server, how a
dead transport comes back and what the client asks for.

Connection-scoped shards and the hello handshake
------------------------------------------------
A shard's state lives exactly as long as its connection.  The first frame a
client sends is ``hello`` carrying ``(PROTOCOL_VERSION,
neighbor_set_size)``; the server answers ``(PROTOCOL_VERSION, generation)``
after building a fresh ``ManagementServer`` for the connection.  A second
``hello`` on the same connection discards the shard and builds a new one,
so no input, however it arrives, reaches a previous tenant's peers, and the
shard is all a connection holds: every request, a fill included, is one
self-contained read or write.  Dying and reconnecting (every restart dials
afresh) therefore lands on an *empty* shard, and the supervisor heals it by
replaying its journal — the shard's landmarks, then one load of its live
peers' paths — byte-identical by insert order, under the
:class:`~repro.core.remote.RecoveryPolicy` backoff loop.
``PROTOCOL_VERSION`` names the operation set, so a client and a server
that disagree on it fail the hello typed.

Stale-epoch detection
---------------------
``generation`` is a server-wide monotonic counter bumped by every hello.
The client remembers the largest generation it has seen and refuses a
reconnect whose generation is not strictly newer — that is a **stale
epoch**: a server that lost time (restarted from an old state, or a
load-balancer sent us somewhere else) must not silently absorb a journal
replay meant for its successor.  A stale reconnect fails with a typed
:class:`~repro.exceptions.ShardUnavailableError`; under a
:class:`RecoveryPolicy` the next attempt dials again and succeeds once the
server is genuinely ahead.  A supervisor that respawned its *own*
server knows the counter restarted and forgets what it had seen.

Deadlines and failures
----------------------
Every round trip draws its phases — dial, send, header read, body read —
from ONE :class:`~repro.core.budget.DeadlineBudget`, so worst-case wall
time is a single ``request_timeout`` no matter how the slowness is split.
Every transport failure (refused dial, reset, truncated frame,
undecodable reply, deadline) raises ``ShardUnavailableError`` naming the
shard and poisons the connection so later requests fail fast until
reconnect.

Topology
--------
One coordinator process drives N :class:`SocketShardBackend` shards, each
over its own connection; the backend names say who hosts the servers.
``"socket"``: ``repro-experiments shard-serve`` processes, possibly on
other machines, or — for self-contained runs — one loopback
:class:`LocalShardServer` per shard in this process; a restart reconnects.
``"process"``: one forked :class:`ChildShardServer` per shard, owned by
that shard's supervisor; it really dies when killed and a restart respawns
it.  Either loopback server stops with the backend hosting it, so
``ShardedManagementServer.close()`` tears the whole plane down.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import multiprocessing.connection
import os
import socket
import stat
import tempfile
import threading
import time
from math import inf
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import ShardUnavailableError, WireProtocolError
from .budget import DeadlineBudget
from .codec import MAX_FRAME_BYTES, decode_frame, decode_path, encode_frame, encode_path
from .codec import _HEADER, _frame_end
from .neighbor_cache import SHARED_DISTANCES
from .path import LandmarkId, PeerId, RouterPath
from .path_tree import PathTree
from .remote import (
    DEFAULT_REQUEST_TIMEOUT,
    RecoveryPolicy,
    ShardRequestHandler,
    ShardSupervisorBase,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ChildShardServer",
    "FramedConnection",
    "LocalShardServer",
    "ShardServer",
    "SocketShardBackend",
    "SocketShardSupervisor",
    "build_serve_parser",
    "run_serve",
    "socket_shard_factory",
]

#: Version of the hello handshake + operation set.  Bump on incompatible
#: protocol changes; the handshake fails typed across a version skew.
#: Version 2 fills with one bounded ``fill`` request; version 3 dropped the
#: two state-snapshot ops (compaction folds the journal instead); version 4
#: frames JSON bodies; version 5 drops the batch-validation op and
#: ``tree_distance``: the coordinator validates and measures from its own paths.
PROTOCOL_VERSION = 5

#: What one ``recv`` asks for at least (a reply that fits is one call), and
#: at most (a hostile header cannot make either side allocate a gigabyte).
_RECV_BYTES, _RECV_LIMIT = 1 << 16, 1 << 20

#: What a reader holds between frames when nothing was read past the last.
_NOTHING = memoryview(b"")

#: A shard server address: a Unix-socket path, or a ``(host, port)`` pair.
Address = Union[str, Tuple[str, int]]

_TRANSPORT_ERRORS = (OSError, EOFError, WireProtocolError)


def format_address(address: Address) -> str:
    """Human-readable form used in error messages and serve banners."""
    if isinstance(address, str):
        return f"unix:{address}"
    host, port = address
    return f"tcp:{host}:{port}"


def _listening_socket(address: Address) -> socket.socket:
    """A socket listening on ``address`` (``SO_REUSEADDR``: a restarted host
    binds the port its predecessor held)."""
    if isinstance(address, str):
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISSOCK(os.stat(address).st_mode):
                os.unlink(address)  # a dead predecessor's socket file
        return socket.create_server(address, family=socket.AF_UNIX)
    host, port = address
    family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
    return socket.create_server((host, port), family=family)


def _dial(address: Address, timeout: float) -> socket.socket:
    """Open one blocking client socket to a shard server."""
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # Request/reply with small frames: never wait for Nagle coalescing.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        sock.settimeout(timeout)
        sock.connect(address if isinstance(address, str) else tuple(address))
    except BaseException:
        sock.close()
        raise
    return sock


def _arm(sock: socket.socket, budget: DeadlineBudget) -> None:
    """Give ``sock`` what is left of ``budget`` before a blocking call."""
    remaining = budget.remaining()
    if remaining <= 0:
        raise TimeoutError("deadline budget exhausted")
    sock.settimeout(remaining)


class _FrameReader:
    """Cuts one connection's byte stream into messages, each decoded once.

    The one reader of both ends: :class:`FramedConnection` reads replies
    with it, a server connection its requests.  A frame that arrived whole
    in one ``recv`` is decoded from a view of that chunk, never copied, and
    what follows it in the chunk stays there for the next read.  A frame
    that spans chunks is gathered in one ``bytearray`` as they arrive, each
    chunk appended once and freed.  Each header is read once, by
    ``_frame_end``, when its fourth byte is in.
    """

    __slots__ = ("_rest",)

    def __init__(self) -> None:
        self._rest = _NOTHING  # received past the last frame decoded

    def read(
        self, sock: socket.socket, budget: Optional[DeadlineBudget] = None
    ) -> Optional[Tuple[object, ...]]:
        """The next message on ``sock``, or ``None`` if the peer closed the
        stream between frames; ``budget`` bounds every blocking ``recv``."""
        frame = self._rest
        end = _frame_end(frame) if len(frame) >= _HEADER.size else _HEADER.size
        while len(frame) < end:
            if budget is not None:
                _arm(sock, budget)
            chunk = sock.recv(max(_RECV_BYTES, min(end - len(frame), _RECV_LIMIT)))
            if not chunk:
                if frame:
                    raise EOFError("connection closed mid-frame")
                return None
            if not frame:
                frame = memoryview(chunk)
            else:
                if type(frame) is memoryview:
                    frame = bytearray(frame)
                frame += chunk
            if end == _HEADER.size:  # the header may be whole now
                end = _frame_end(frame)
        view = memoryview(frame)
        if len(view) > end:
            self._rest, view = view[end:], view[:end]
        else:
            self._rest = _NOTHING
        return decode_frame(view)


class FramedConnection:
    """One blocking client connection speaking length-prefixed frames.

    All blocking calls take a :class:`DeadlineBudget` and set the socket
    timeout to the budget's *remaining* time before each phase, so a send
    plus a multi-read reply is jointly bounded by one deadline.  Replies
    are read by a :class:`_FrameReader`, ``_RECV_BYTES`` at a time.
    """

    def __init__(self, sock: socket.socket, address: Address) -> None:
        self.sock = sock
        self.address = address
        self.closed = False
        self._reader = _FrameReader()

    # ----------------------------------------------------------------- frames

    def send_frame(self, frame: bytes, budget: DeadlineBudget) -> None:
        _arm(self.sock, budget)
        self.sock.sendall(frame)

    def recv_frame(self, budget: DeadlineBudget) -> Tuple[object, ...]:
        message = self._reader.read(self.sock, budget)
        if message is None:
            raise EOFError("connection closed before a reply")
        return message

    def close(self) -> None:
        """Orderly close (idempotent): FIN, then release the descriptor."""
        if self.closed:
            return
        self.closed = True
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"FramedConnection({format_address(self.address)}, {state})"


# ------------------------------------------------------------------ server


class ShardServer:
    """Hosts one connection-scoped shard per client, each on its own thread.

    Each connection runs the protocol of :func:`repro.core.remote._dispatch`
    through a :class:`~repro.core.remote.ShardRequestHandler` built at the
    connection's ``hello``; the server itself only owns its sockets, their
    threads and the monotonic ``generation`` counter the stale-epoch check
    rides on.  Shard state is **per connection** — two clients never share a
    ``ManagementServer``, and a dropped connection takes its shard with it
    (the client's journal replay rebuilds it byte-identically on reconnect).
    A client that stops reading its replies blocks its connection's thread
    in ``sendall``, so its requests stop being read.
    """

    def __init__(self) -> None:
        self._generation = 0
        self._lock = threading.Lock()
        self._closed = False
        self._threads: Dict[socket.socket, threading.Thread] = {}  # by owned socket

    def listen(self, address: Union[Address, socket.socket]) -> Address:
        """Accept on ``address`` (or on the listening socket a
        :class:`ChildShardServer` hands its child), on a thread; returns the
        resolved address (port 0 → real)."""
        listener = address if isinstance(address, socket.socket) else _listening_socket(address)
        name = listener.getsockname()
        self._spawn(listener, lambda: self._accept(listener), "repro-shard-accept")
        return name if isinstance(name, str) else (name[0], name[1])

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                if self._closed:
                    return
                time.sleep(0.1)  # out of descriptors, say: let some close
                continue
            if sock.family != socket.AF_UNIX:  # small frames: no Nagle coalescing
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn(sock, _ShardConnection(self, sock).serve, "repro-shard-server")

    def _spawn(self, sock: socket.socket, target: Callable[[], None], name: str) -> None:
        """Run ``target`` on a thread that owns ``sock`` until it returns."""

        def run() -> None:
            try:
                target()
            finally:
                with self._lock:
                    del self._threads[sock]
                sock.close()

        with self._lock:
            if self._closed:
                sock.close()
                return
            self._threads[sock] = thread = threading.Thread(target=run, name=name, daemon=True)
            thread.start()

    def close(self) -> None:
        """Stop accepting, cut every connection and join every thread."""
        with self._lock:
            self._closed = True
            threads = dict(self._threads)
        for sock in threads:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)  # wakes its thread's accept or recv
        for thread in threads.values():
            thread.join()


def _protocol_error(request_id: int, message: str):
    """The typed ``WireProtocolError`` reply (``None`` for a one-way request)."""
    return (request_id, "err", "WireProtocolError", message) if request_id else None


class _ShardConnection:
    """One client connection: every frame it sends is served, once, in order.

    Once framing or a request is in doubt — an oversized header, an
    undecodable body, a well-framed body that is not a request (wrong
    arity, unhashable ids, nesting too deep to answer), EOF mid-frame (the
    partial-frame corruption) — nothing later on the stream can be trusted:
    this connection is dropped, and the connection-scoped shard dies with it.
    """

    def __init__(self, server: ShardServer, sock: socket.socket) -> None:
        self._server = server
        self._sock = sock
        self._handler: Optional[ShardRequestHandler] = None

    def serve(self) -> None:
        """The connection's thread: answer every request in turn until EOF."""
        reader = _FrameReader()
        with contextlib.suppress(Exception):  # untrusted input drops this connection only
            while self._answer(reader.read(self._sock)):
                pass

    def _answer(self, message: Optional[Tuple[object, ...]]) -> bool:
        """Answer one request; ``False`` once the client is gone.

        Its own frame, so the request it decoded is released before the
        thread blocks in ``recv`` again.
        """
        if message is None:
            return False
        reply = self._apply(message[0], message[1], message[2] if len(message) > 2 else ())
        if reply is not None:
            self._sock.sendall(encode_frame(reply))
        return True

    def _apply(self, request_id: int, op: str, args: Tuple[object, ...]):
        """Apply one request; returns the reply (``None`` for a one-way one)."""
        if op == "hello":
            try:
                version, neighbor_set_size = args
            except (TypeError, ValueError):
                version, neighbor_set_size = None, None
            if version != PROTOCOL_VERSION:
                return _protocol_error(
                    request_id,
                    f"server speaks protocol {PROTOCOL_VERSION}, client sent {version!r}",
                )
            # The previous tenant's shard, if any, goes.
            self._handler = ShardRequestHandler(int(neighbor_set_size))  # type: ignore[arg-type]
            server = self._server
            with server._lock:  # connections hello on parallel threads
                server._generation += 1
                generation = server._generation
            return (request_id, "ok", (PROTOCOL_VERSION, generation)) if request_id else None
        if self._handler is None:
            # Everything but hello needs a shard; answering typed (instead
            # of dropping the connection) lets the client fail fast with a
            # ShardUnavailableError naming the real problem.
            return _protocol_error(
                request_id, f"operation {op!r} before hello on this connection"
            )
        return self._handler.handle(request_id, op, args)


class LocalShardServer:
    """A loopback :class:`ShardServer` this process hosts for one shard.

    The self-contained deployment used by tests, scenarios and the
    benchmark: one address for life — an ephemeral Unix socket (``127.0.0.1``
    TCP where ``AF_UNIX`` is unavailable), so a killed host's successor is
    found where the old one was — served until :meth:`stop` reaps the host
    and unlinks the socket; the :class:`SocketShardBackend` that hosts it
    stops it on ``close()``, so closing every backend leaves no thread,
    process or file behind.  The host is this process's threads, and
    killing it cuts every connection it accepted;
    :class:`ChildShardServer` overrides :meth:`start`, :attr:`alive` and
    :meth:`kill` to make it a process.
    """

    def __init__(self) -> None:
        self._server: Optional[ShardServer] = None
        self._tempdir: Optional[str] = None
        self.address: Address = ("127.0.0.1", 0)
        if hasattr(socket, "AF_UNIX"):
            self._tempdir = tempfile.mkdtemp(prefix="repro-shard-")
            self.address = os.path.join(self._tempdir, "shard.sock")
        try:
            self.start()
        except Exception as error:
            self.stop()
            raise ShardUnavailableError(
                "local-shard-server", f"could not host loopback server: {error}"
            ) from error

    @property
    def alive(self) -> bool:
        """True while a host is serving :attr:`address`."""
        return self._server is not None

    def start(self) -> None:
        """Bring a host up on :attr:`address` (again, after a :meth:`kill`)."""
        server = ShardServer()
        self.address = server.listen(self.address)
        self._server = server

    def kill(self) -> None:
        """Take the host down abruptly and reap it; the owner stays usable."""
        server, self._server = self._server, None
        if server is not None:
            server.close()

    def stop(self) -> None:
        """Reap the host for good and unlink the socket (idempotent)."""
        self.kill()
        if self._tempdir is not None:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(self._tempdir, "shard.sock"))
            with contextlib.suppress(OSError):
                os.rmdir(self._tempdir)
            self._tempdir = None

    def __repr__(self) -> str:
        state = "alive" if self.alive else "stopped"
        return f"{type(self).__name__}({format_address(self.address)}, {state})"


def _serve_listener(listener: socket.socket) -> None:
    """Child-process main: one :class:`ShardServer` on an inherited listener.

    Serves until killed (the only way its owner stops it: a shard holds no
    state the journal cannot rebuild) or until the parent's end of the
    sentinel pipe closes — a coordinator that died leaves no orphan.
    """
    ShardServer().listen(listener)
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])  # type: ignore[union-attr]
    os._exit(0)


class ChildShardServer(LocalShardServer):
    """A :class:`LocalShardServer` whose host is a forked child process.

    What ``backend="process"`` runs, one per shard: the tries live on
    another core, and killing the host is a real crash.  The parent binds
    and listens *before* forking and hands the child the listening socket,
    so the address accepts the moment :meth:`start` returns (no readiness
    handshake), then closes its own copy, so a dead child means a refused
    dial, not a hung one.  POSIX only (``fork`` and ``AF_UNIX``).
    """

    process: Optional[multiprocessing.process.BaseProcess] = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def start(self) -> None:
        listener = _listening_socket(self.address)
        try:
            process = multiprocessing.get_context("fork").Process(
                target=_serve_listener, args=(listener,), name="repro-shard-server", daemon=True
            )
            process.start()
            self.process = process  # only ever a started one: kill() may join it
        finally:
            listener.close()

    def kill(self) -> None:
        if self.process is not None:
            self.process.kill()
            self.process.join()


# ------------------------------------------------------------------ client


class SocketShardSupervisor(ShardSupervisorBase):
    """Supervises one connection-scoped shard on a shard server.

    The transport half of :class:`~repro.core.remote.ShardSupervisorBase`
    (journal and recovery loop are inherited).  *Restart* means
    a fresh dial + hello + journal replay; :attr:`epoch` counts
    connections.  Given a
    :class:`LocalShardServer` in place of a bare ``address`` the supervisor
    **owns** that server: every teardown reaps it and every re-establish
    first starts a fresh one on the same address — with a
    :class:`ChildShardServer`, a crashed child is respawned.
    """

    def __init__(
        self,
        name: str,
        address: Union[Address, LocalShardServer],
        neighbor_set_size: int,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        super().__init__(name, request_timeout=request_timeout, recovery=recovery)
        self._server = address if isinstance(address, LocalShardServer) else None
        self.address: Address = getattr(address, "address", address)
        self.neighbor_set_size = neighbor_set_size
        self._conn: Optional[FramedConnection] = None
        self._seen_generation: Optional[int] = None
        self._establish_transport()

    @property
    def connection(self) -> Optional[FramedConnection]:
        """The live client connection (or ``None``)."""
        return self._conn

    @property
    def process(self):
        """The child process hosting this supervisor's own server, if any."""
        return getattr(self._server, "process", None)

    @property
    def seen_generation(self) -> Optional[int]:
        """Largest server generation this supervisor has accepted."""
        return self._seen_generation

    # ------------------------------------------------------- transport hooks

    def _establish_transport(self) -> None:
        budget = self._budget(None)
        conn: Optional[FramedConnection] = None
        try:
            if self._server is not None and not self._server.alive:
                # Our own server is gone (killed, crashed, torn down): host
                # a fresh one.  Its generation counter starts over, so what
                # the old one reached must not make the newcomer look stale.
                self._server.start()
                self._seen_generation = None
            remaining = budget.remaining()
            if remaining <= 0:
                raise TimeoutError("deadline budget exhausted before dialling")
            conn = FramedConnection(_dial(self.address, remaining), self.address)
            generation = self._hello(conn, budget)
        except ShardUnavailableError:
            if conn is not None:
                conn.close()
            raise
        except _TRANSPORT_ERRORS as error:
            if conn is not None:
                conn.close()
            raise ShardUnavailableError(
                self.name,
                f"connect to {format_address(self.address)} failed: "
                f"{type(error).__name__}: {error}",
            ) from error
        if self._seen_generation is not None and generation <= self._seen_generation:
            # A server whose generation did not advance past what we already
            # saw is running old state (restarted from scratch behind our
            # back, or we were routed to a stale replica): replaying the
            # journal into it could diverge silently, so fail typed and let
            # the recovery loop try again once the server is ahead.
            conn.close()
            raise ShardUnavailableError(
                self.name,
                f"reconnected to a stale epoch: server generation {generation} "
                f"<= last seen {self._seen_generation}",
            )
        self._seen_generation = generation
        self._conn = conn
        self._poisoned = None
        self._epoch += 1

    def _hello(self, conn: FramedConnection, budget: DeadlineBudget) -> int:
        request_id = next(self._next_request_id)
        conn.send_frame(
            encode_frame((request_id, "hello", (PROTOCOL_VERSION, self.neighbor_set_size))),
            budget,
        )
        reply = conn.recv_frame(budget)
        value = self._interpret_reply(reply, request_id, "hello")
        version, generation = value  # type: ignore[misc]
        if version != PROTOCOL_VERSION:
            raise WireProtocolError(
                f"server speaks protocol {version!r}, client {PROTOCOL_VERSION}"
            )
        return int(generation)  # type: ignore[arg-type]

    def _teardown_transport(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        if self._server is not None:
            # An owned server goes down with its connection, whatever state
            # it is in (dead already, hung, healthy): restart() then always
            # lands on a fresh process, and close() leaves none behind.
            self._server.kill()

    def _roundtrip(
        self,
        op: str,
        args: Tuple[object, ...],
        timeout: Optional[float] = None,
    ) -> object:
        if self._closed:
            raise ShardUnavailableError(self.name, "supervisor is closed")
        if self._poisoned is not None:
            raise ShardUnavailableError(self.name, f"channel poisoned: {self._poisoned}")
        conn = self._conn
        if conn is None or conn.closed:
            raise ShardUnavailableError(self.name, "not connected to shard server")
        budget = self._budget(timeout)
        request_id = next(self._next_request_id)
        try:
            conn.send_frame(encode_frame((request_id, op, args)), budget)
            reply = conn.recv_frame(budget)
        except ShardUnavailableError:
            raise
        except _TRANSPORT_ERRORS as error:
            # Send or reply may be half-done: framing is desynchronised, so
            # poison the connection and fail fast until reconnect.
            self._poisoned = f"transport failure during {op!r}: {type(error).__name__}"
            raise ShardUnavailableError(
                self.name,
                f"connection failed during {op!r}: {type(error).__name__}: {error}",
            ) from error
        return self._interpret_reply(reply, request_id, op)

    def notify(self, op: str, args: Tuple[object, ...]) -> None:
        conn = self._conn
        if conn is None or conn.closed or self._poisoned is not None:
            return
        budget = DeadlineBudget(min(1.0, self.request_timeout))
        try:
            conn.send_frame(encode_frame((0, op, args)), budget)
        except _TRANSPORT_ERRORS:
            # A partially written notification desynchronises framing for
            # every later frame on the stream, so a failed notify must
            # poison the connection.
            self._poisoned = f"transport failure during notify {op!r}"

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("poisoned" if self._poisoned else "connected")
        return (
            f"SocketShardSupervisor(name={self.name!r}, "
            f"address={format_address(self.address)}, {state}, epoch={self._epoch})"
        )


class SocketShardBackend:
    """A :class:`~repro.core.sharded.ShardBackend` living behind a socket.

    The whole client side of a remote shard — path encoding, checked
    replies, diagnostics — over the ``request`` interface of one
    :class:`SocketShardSupervisor`.  Without an explicit
    ``address`` the backend hosts its own :class:`LocalShardServer`
    thread, which outlives restarts (a restart reconnects); a
    :class:`LocalShardServer` given as the address is owned by the
    supervisor (a restart respawns it, see there).  Either server stops
    with the backend, so a standalone backend is fully self-contained
    (tests, notebooks).

    Always :meth:`close` the backend (or use it as a context manager): the
    connection is a real socket and a loopback server a real thread/process.
    """

    def __init__(
        self,
        address: Union[Address, LocalShardServer, None] = None,
        neighbor_set_size: int = 5,
        name: str = "socket-shard",
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.name = name
        host = LocalShardServer() if address is None else address
        self._server = host if isinstance(host, LocalShardServer) else None
        try:
            self.supervisor = SocketShardSupervisor(
                name=name,
                address=address or host.address,  # type: ignore[union-attr]
                neighbor_set_size=neighbor_set_size,
                request_timeout=request_timeout,
                recovery=recovery,
            )
        except BaseException:
            if self._server is not None:
                self._server.stop()
            raise

    # ---------------------------------------------------------- shard surface

    def register_landmark(self, landmark_id: LandmarkId, router) -> None:
        self.supervisor.request("register_landmark", (landmark_id, router), journal=True)

    def insert_paths(self, paths: Sequence[RouterPath], validate: bool = True) -> None:
        self.supervisor.request(
            "insert_paths",
            (tuple(encode_path(path) for path in paths), validate),
            journal=True,
        )

    def join_paths(self, paths: Sequence[RouterPath], k: int) -> List[List[Tuple[PeerId, float]]]:
        """One round trip, recorded on ack as the ``insert_paths`` it contains
        (validated by then), as an ``insert_paths`` request would be."""
        encoded = tuple(encode_path(path) for path in paths)
        result = self.supervisor.request(
            "join_paths", (encoded, k), journal=("insert_paths", (encoded, False))
        )
        try:
            if len(result) == len(paths):  # type: ignore[arg-type]
                return [
                    _checked_pairs(pairs, path.peer_id, k)
                    for pairs, path in zip(result, paths)  # type: ignore[call-overload]
                ]
        except (TypeError, ValueError, OverflowError):
            pass
        # Acknowledged, so recorded; but no answer to record peers on.
        raise ShardUnavailableError(self.name, "malformed reply to 'join_paths'")

    def unregister_peer(self, peer_id: PeerId) -> None:
        self.supervisor.request("unregister", (peer_id,), journal=True)

    def local_closest(self, peer_id: PeerId, k: int) -> List[Tuple[PeerId, float]]:
        reply = self.supervisor.request("local_closest", (peer_id, k))
        try:
            return _checked_pairs(reply, peer_id, k)
        except (TypeError, ValueError, OverflowError):
            raise ShardUnavailableError(self.name, "malformed reply to 'local_closest'") from None

    def fill_candidates(
        self, bases: Mapping[LandmarkId, float], limit: int
    ) -> List[Tuple[float, str, PeerId]]:
        """The shard's first ``limit`` fill candidates: one bounded read.

        A recoverable request like any other: a shard that died before or
        during it is healed by restart, replay and re-issue.  The reply is
        checked — at most ``limit`` ``(estimate, sort_text, peer)`` items, a
        real-number estimate and a ``str`` sort text each, in non-decreasing
        ``(estimate, sort_text)`` order, no peer twice — and anything else
        is a :class:`ShardUnavailableError`, never a malformed item in the
        coordinator's merge.
        """
        reply = self.supervisor.request("fill", (tuple(bases.items()), limit))
        try:
            if len(reply) <= limit:  # type: ignore[arg-type]
                # One pass, as in _checked_pairs, sorted by (estimate,
                # sort_text) alone: peers are never compared.  The set
                # refuses a peer twice, or one no cache could key on.
                items = []
                seen = set()
                last_estimate, last_text = -inf, ""
                for estimate, text, peer in reply:  # type: ignore[union-attr]
                    if (
                        not (
                            last_estimate < estimate
                            or (last_estimate == estimate and last_text <= text)
                        )
                        or estimate is True
                        or estimate is False
                        or type(text) is not str
                        or peer in seen
                    ):
                        break
                    seen.add(peer)
                    last_estimate, last_text = estimate, text
                    items.append((SHARED_DISTANCES[estimate], text, peer))
                else:
                    return items
        except (TypeError, ValueError, OverflowError):
            pass
        raise ShardUnavailableError(self.name, "malformed reply to 'fill'")

    def tree(self, landmark_id: LandmarkId) -> PathTree:
        """A local **snapshot** of the shard's tree (for diagnostics).

        Loaded from the shard's paths (:meth:`PathTree.load`), so its rows —
        hence ``closest_peers`` answers — equal the live tree's; the
        query-work counters (index ranges examined plus entries scanned) are
        copied across.  Mutating the snapshot does not affect the shard.
        """
        root, encoded_paths, total_visits, last_visits = self.supervisor.request(  # type: ignore[misc]
            "tree", (landmark_id,)
        )
        snapshot = PathTree(landmark_id=landmark_id, landmark_router=root)
        snapshot.load([decode_path(encoded) for encoded in encoded_paths])  # type: ignore[union-attr]
        snapshot.total_query_visits = int(total_visits)  # type: ignore[arg-type]
        snapshot.last_query_visits = int(last_visits)  # type: ignore[arg-type]
        return snapshot

    def total_tree_visits(self) -> int:
        return int(self.supervisor.request("total_tree_visits", ()))  # type: ignore[arg-type]

    def total_insert_work(self) -> Tuple[int, int]:
        """The shard's ``(nodes_created, nodes_touched)`` insert counters."""
        created, touched = self.supervisor.request("total_insert_work", ())  # type: ignore[misc]
        return (int(created), int(touched))  # type: ignore[arg-type]

    # ------------------------------------------------------------ diagnostics

    def worker_stats(self) -> dict:
        """The shard server's :class:`ServerStats` counters (a copy)."""
        return dict(self.supervisor.request("stats", ()))  # type: ignore[arg-type, call-overload]

    def health_check(self, timeout: float = 5.0) -> bool:
        """True when the shard is alive and answering."""
        return self.supervisor.health_check(timeout=timeout)

    def restart(self) -> None:
        """Respawn the shard's transport and replay the journal."""
        self.supervisor.restart()

    def compact(self) -> int:
        """The journal's size on the wire: its frames' bytes under one fixed
        request id.  Nothing changes: the journal is always the live state."""
        return sum(len(encode_frame((1, op, args))) for op, args in self.supervisor.journal)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop the shard, its connection and its server (idempotent)."""
        try:
            self.supervisor.close()
        finally:
            if self._server is not None:
                self._server.stop()

    def __enter__(self) -> "SocketShardBackend":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:  # noqa: BLE001 - never raise from a finaliser
            pass

    def __repr__(self) -> str:
        return (
            f"SocketShardBackend(name={self.name!r}, "
            f"address={format_address(self.supervisor.address)})"
        )


def _checked_pairs(pairs, peer_id: PeerId, k: int) -> List[Tuple[PeerId, float]]:
    """A shard's closest list for ``peer_id``, checked; ``ValueError``,
    ``TypeError`` or ``OverflowError`` (an integer past a float's range)
    when it breaks the contract of a local answer.

    At most ``k`` two-item ``(peer, distance)`` items with a real-number
    distance, in non-decreasing distance order, no peer twice and never
    ``peer_id``; the set of peers seen also refuses a peer no cache could
    key on.  One pass, each item checked against the last: a distance that
    is no number does not compare with one (``TypeError``), a NaN compares
    false, and a ``bool`` is refused by name.  Each distance is read through
    :data:`~repro.core.neighbor_cache.SHARED_DISTANCES`: the floats the
    frame just decoded to never reach the coordinator's cache.
    """
    if len(pairs) > k:
        raise ValueError(f"not a closest list for {peer_id!r}")
    checked = []
    seen = {peer_id}
    last = -inf
    for peer, distance in pairs:
        if not last <= distance or distance is True or distance is False or peer in seen:
            raise ValueError(f"not a closest list for {peer_id!r}")
        seen.add(peer)
        last = distance
        checked.append((peer, SHARED_DISTANCES[distance]))
    return checked


def socket_shard_factory(
    neighbor_set_size: int = 5,
    addresses: Optional[Sequence[Address]] = None,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    recovery: Optional[RecoveryPolicy] = None,
) -> Callable[[], SocketShardBackend]:
    """A ``shard_factory`` for :class:`ShardedManagementServer` over sockets.

    With ``addresses``, shard *i* connects to ``addresses[i % len]`` —
    point it at ``repro-experiments shard-serve`` instances on other
    machines.  Without, every shard hosts its own loopback
    :class:`LocalShardServer` and stops it when it closes — so the existing
    ``ShardedManagementServer.close()`` / ``Scenario.close()`` flows tear
    the whole socket plane down without new plumbing.
    """
    indexes = itertools.count()

    def factory() -> SocketShardBackend:
        index = next(indexes)
        return SocketShardBackend(
            address=addresses[index % len(addresses)] if addresses else None,
            neighbor_set_size=neighbor_set_size,
            name=f"shard-{index}",
            request_timeout=request_timeout,
            recovery=recovery,
        )

    return factory


# --------------------------------------------------------------------- CLI


def build_serve_parser():
    """Argument parser for ``repro-experiments shard-serve``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-experiments shard-serve",
        description=(
            "Serve connection-scoped discovery shards over TCP and/or "
            "Unix-domain sockets. Each client connection gets its own "
            "ManagementServer; point a coordinator at this address via "
            "socket_shard_factory(addresses=[...]) or "
            "ScenarioConfig(backend='socket')."
        ),
    )
    parser.add_argument(
        "--tcp",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="bind a TCP listen socket (repeatable; PORT 0 picks a free port)",
    )
    parser.add_argument(
        "--unix",
        action="append",
        default=[],
        metavar="PATH",
        help="bind a Unix-domain listen socket (repeatable)",
    )
    return parser


def _parse_tcp(spec: str) -> Tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--tcp expects HOST:PORT, got {spec!r}")
    return (host, int(port))


def run_serve(argv: Sequence[str]) -> int:
    """``repro-experiments shard-serve`` entry point; serves until interrupted."""
    options = build_serve_parser().parse_args(list(argv))
    addresses: List[Address] = []
    try:
        addresses.extend(_parse_tcp(spec) for spec in options.tcp)
    except ValueError as error:
        build_serve_parser().error(str(error))
    addresses.extend(options.unix)
    if not addresses:
        build_serve_parser().error("bind at least one of --tcp / --unix")
    server = ShardServer()
    try:
        for address in addresses:
            print(f"listening {format_address(server.listen(address))}", flush=True)
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0
