"""The shard transport: asyncio shard servers, socket-backed shards.

The wire protocol of :mod:`repro.core.remote` runs over real sockets, and
only over sockets: a :class:`ShardServer` (asyncio, TCP and Unix-domain)
hosts a ``ManagementServer(maintain_cache=False)`` per **connection-scoped
shard**, and :class:`SocketShardBackend` is a full
:class:`~repro.core.sharded.ShardBackend` client over it.  The frame codec
(:mod:`repro.core.codec`), the request dispatch, the client-side backend
surface and the journal/recovery/compaction story
(:mod:`repro.core.remote`) live elsewhere — this module is how frames
move, who hosts the server, and how a dead transport comes back.

Connection-scoped shards and the hello handshake
------------------------------------------------
A shard's state lives exactly as long as its connection.  The first frame a
client sends is ``hello`` carrying ``(PROTOCOL_VERSION,
neighbor_set_size)``; the server answers ``(PROTOCOL_VERSION, generation)``
after building a fresh ``ManagementServer`` for the connection.  A second
``hello`` on the same connection discards the shard and builds a new one —
which is how pooled connections are recycled without leaking a previous
tenant's peers.  Dying and reconnecting therefore lands on an *empty*
shard, and the supervisor heals it by replaying the operation journal
(snapshot-compacted or not) in order, byte-identical by insert order, under
the :class:`~repro.core.remote.RecoveryPolicy` backoff loop.

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
server is genuinely ahead.  The ``reconnect_stale_epoch`` chaos fault
scripts precisely this sequence.  A supervisor that respawned its *own*
server knows the counter restarted and forgets what it had seen.

Deadlines and fault surface
---------------------------
Every round trip draws its phases — dial, send, header read, body read —
from ONE :class:`~repro.core.budget.DeadlineBudget`, so worst-case wall
time is a single ``request_timeout`` no matter how the slowness is split.
Every transport failure (refused dial, reset, truncated frame,
undecodable reply, deadline) raises ``ShardUnavailableError`` naming the
shard and poisons the connection so later requests fail fast until
reconnect.  :meth:`SocketShardSupervisor.sever` is the connection-level
fault-injection surface: ``close`` (silent death), ``reset`` (RST via
``SO_LINGER(0)``), and ``partial_frame`` (a frame whose header promises
more bytes than follow — the truncated-write corruption the length prefix
exists to catch); :meth:`SocketShardSupervisor.kill` takes the whole
server down when the supervisor owns it.

Topology
--------
One coordinator process drives N :class:`SocketShardBackend` shards, each
over its own connection; the backend names say who hosts the servers.
``"socket"``: ``repro-experiments shard-serve`` processes, possibly on
other machines, or — for self-contained runs — ONE loopback
:class:`LocalShardServer` thread shared by all of a
:func:`socket_shard_factory`'s shards; a restart reconnects.
``"process"``: one forked :class:`ChildShardServer` per shard, owned by
that shard's supervisor; it really dies when killed and a restart respawns
it.  Both hosts share one owner lifecycle, so
``ShardedManagementServer.close()`` tears the whole plane down.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import multiprocessing
import os
import socket
import struct
import tempfile
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..exceptions import ShardUnavailableError, WireProtocolError
from .budget import DeadlineBudget
from .codec import decode_frame, encode_frame
from .remote import (
    DEFAULT_FILL_CHUNK,
    DEFAULT_REQUEST_TIMEOUT,
    RecoveryPolicy,
    ShardRequestHandler,
    ShardSupervisorBase,
    SupervisedShardBackend,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ChildShardServer",
    "FramedConnection",
    "LocalShardServer",
    "ShardServer",
    "SocketConnectionPool",
    "SocketShardBackend",
    "SocketShardSupervisor",
    "build_serve_parser",
    "run_serve",
    "socket_shard_factory",
]

#: Version of the hello handshake + operation set.  Bump on incompatible
#: protocol changes; the handshake fails typed across a version skew.
PROTOCOL_VERSION = 1

#: Upper bound on one frame body — far above any real snapshot, low enough
#: that a corrupt header cannot make either side try to buffer gigabytes.
MAX_FRAME_BYTES = 1 << 30

#: Idle connections a :class:`SocketConnectionPool` keeps per address.
DEFAULT_POOL_IDLE = 4

_HEADER = struct.Struct("!I")

#: A shard server address: a Unix-socket path, or a ``(host, port)`` pair.
Address = Union[str, Tuple[str, int]]

_TRANSPORT_ERRORS = (OSError, EOFError, WireProtocolError)


def format_address(address: Address) -> str:
    """Human-readable form used in error messages and serve banners."""
    if isinstance(address, str):
        return f"unix:{address}"
    host, port = address
    return f"tcp:{host}:{port}"


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


class FramedConnection:
    """One blocking client connection speaking length-prefixed frames.

    All blocking calls take a :class:`DeadlineBudget` and set the socket
    timeout to the budget's *remaining* time before each phase, so a send
    plus a multi-read reply is jointly bounded by one deadline.
    """

    def __init__(self, sock: socket.socket, address: Address) -> None:
        self.sock = sock
        self.address = address
        self.closed = False

    # ----------------------------------------------------------------- frames

    def send_frame(self, frame: bytes, budget: DeadlineBudget) -> None:
        self._arm_timeout(budget)
        self.sock.sendall(frame)

    def recv_frame(self, budget: DeadlineBudget) -> Tuple[object, ...]:
        header = self._recv_exact(_HEADER.size, budget)
        (declared,) = _HEADER.unpack(header)
        if declared > MAX_FRAME_BYTES:
            raise WireProtocolError(f"frame declares {declared} body bytes (limit {MAX_FRAME_BYTES})")
        body = self._recv_exact(declared, budget)
        return decode_frame(header + body)

    def _recv_exact(self, count: int, budget: DeadlineBudget) -> bytes:
        chunks: List[bytes] = []
        remaining = count
        while remaining > 0:
            self._arm_timeout(budget)
            chunk = self.sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise EOFError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _arm_timeout(self, budget: DeadlineBudget) -> None:
        remaining = budget.remaining()
        if remaining <= 0:
            raise TimeoutError("deadline budget exhausted")
        self.sock.settimeout(remaining)

    # -------------------------------------------------------- fault injection

    def close(self) -> None:
        """Orderly close (idempotent): FIN, then release the descriptor."""
        if self.closed:
            return
        self.closed = True
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()

    def reset_close(self) -> None:
        """Abortive close: ``SO_LINGER(0)`` so TCP sends RST, not FIN."""
        if self.closed:
            return
        self.closed = True
        with contextlib.suppress(OSError):
            self.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        self.sock.close()

    def send_partial_frame(self) -> None:
        """Send a frame whose header promises more bytes than follow, then die.

        This is the truncated-write corruption the length prefix exists to
        catch: the server reads a short body, hits EOF and drops the
        connection; the client side is closed immediately so its next
        request fails typed.
        """
        if self.closed:
            return
        with contextlib.suppress(OSError):
            self.sock.settimeout(1.0)
            self.sock.sendall(_HEADER.pack(64) + b"\x00\x01\x02")
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"FramedConnection({format_address(self.address)}, {state})"


class SocketConnectionPool:
    """Idle :class:`FramedConnection` objects for one shard server address.

    Reconnecting supervisors draw from the pool before dialling, and return
    still-healthy connections on teardown; the ``hello`` handshake resets
    the connection-scoped shard on every acquire, so a pooled connection
    can never leak a previous tenant's state.  Poisoned or severed
    connections are closed, never pooled.  The pool is refcounted by the
    backends of one factory and closes its idle sockets when the last
    backend closes.
    """

    def __init__(self, address: Address, max_idle: int = DEFAULT_POOL_IDLE) -> None:
        if max_idle < 0:
            raise ValueError(f"max_idle must be >= 0, got {max_idle}")
        self.address = address
        self.max_idle = max_idle
        self._idle: List[FramedConnection] = []
        self._lock = threading.Lock()
        self._refs = 0
        self._closed = False
        self.dials = 0
        self.reuses = 0

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    def acquire(self, budget: DeadlineBudget) -> FramedConnection:
        """An idle connection if one is pooled, else a fresh dial.

        A pooled connection may have died server-side while idle; the
        caller's hello handshake detects that and (under recovery) the next
        attempt dials fresh — the pool never vouches for liveness.
        """
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                break
            if not conn.closed:
                self.reuses += 1
                return conn
        remaining = budget.remaining()
        if remaining <= 0:
            raise TimeoutError("deadline budget exhausted before dialling")
        self.dials += 1
        return FramedConnection(_dial(self.address, remaining), self.address)

    def release(self, conn: FramedConnection) -> None:
        """Return a healthy connection to the pool (or close it)."""
        if conn.closed:
            return
        with self._lock:
            if not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(conn)
                return
        conn.close()

    def add_ref(self) -> None:
        with self._lock:
            self._refs += 1
            self._closed = False

    def drop_ref(self) -> None:
        with self._lock:
            self._refs = max(0, self._refs - 1)
            last = self._refs == 0
        if last:
            self.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for conn in idle:
            conn.close()

    def __repr__(self) -> str:
        return (
            f"SocketConnectionPool({format_address(self.address)}, "
            f"idle={self.idle_count}, dials={self.dials}, reuses={self.reuses})"
        )


# ------------------------------------------------------------------ server


class ShardServer:
    """Asyncio server hosting one connection-scoped shard per client.

    Each connection runs the protocol of :func:`repro.core.remote._dispatch`
    through a :class:`~repro.core.remote.ShardRequestHandler` built at the
    connection's ``hello``; the server itself only owns the listen sockets
    and the monotonic ``generation`` counter the stale-epoch check rides on.
    Shard state is **per connection** — two clients never share a
    ``ManagementServer``, and a dropped connection takes its shard with it
    (the client's journal replay rebuilds it byte-identically on reconnect).
    A request is answered in the event-loop turn that read it: no future,
    task wake-up or second selector pass per frame.
    """

    def __init__(self) -> None:
        self._generation = 0
        self._servers: List[asyncio.AbstractServer] = []
        self.addresses: List[Address] = []
        self.connections_served = 0

    async def listen(self, address: Union[Address, socket.socket]) -> Address:
        """Bind one listen socket; returns the resolved address (port 0 → real).

        An already-listening Unix socket (the one a :class:`ChildShardServer`
        hands its child) is adopted as it is.
        """
        loop = asyncio.get_running_loop()
        connection = lambda: _ShardConnection(self)  # noqa: E731 - the protocol factory
        if isinstance(address, socket.socket):
            server = await loop.create_unix_server(connection, sock=address)
            resolved: Address = address.getsockname()
        elif isinstance(address, str):
            server = await loop.create_unix_server(connection, path=address)
            resolved = address
        else:
            host, port = address
            server = await loop.create_server(connection, host=host, port=port)
            bound = server.sockets[0].getsockname()
            resolved = (bound[0], bound[1])
        self._servers.append(server)
        self.addresses.append(resolved)
        return resolved

    async def close(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()


def _protocol_error(request_id: int, message: str):
    """The typed ``WireProtocolError`` reply (``None`` for a one-way request)."""
    return (request_id, "err", "WireProtocolError", message) if request_id else None


class _ShardConnection(asyncio.Protocol):
    """One client connection: every complete frame buffered is served, in order.

    Once framing or a request is in doubt — an oversized header, an
    undecodable body, a well-framed body that is not a request (wrong
    arity, unhashable ids, nesting too deep to answer), EOF mid-frame (the
    partial-frame corruption) — nothing later on the stream can be trusted:
    this connection is dropped, and the connection-scoped shard dies with it.
    """

    def __init__(self, server: ShardServer) -> None:
        self._server = server
        self._handler: Optional[ShardRequestHandler] = None
        self._buffer = bytearray()

    def connection_made(self, transport) -> None:
        self._server.connections_served += 1
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve_buffered()

    def _serve_buffered(self) -> None:
        buffer, transport = self._buffer, self._transport
        # Asked per frame: a reply can fill the write buffer (see
        # pause_writing), and what is already buffered here then waits too.
        while transport.is_reading() and len(buffer) >= _HEADER.size:
            (declared,) = _HEADER.unpack_from(buffer)
            if declared > MAX_FRAME_BYTES:  # before a byte of body is waited for
                return transport.close()
            end = _HEADER.size + declared
            if len(buffer) < end:
                return
            frame = bytes(buffer[:end])
            del buffer[:end]
            try:
                message = decode_frame(frame)
                args = message[2] if len(message) > 2 else ()
                reply = self._apply(message[0], message[1], args)
                if reply is not None:
                    transport.write(encode_frame(reply))
            except Exception:  # noqa: BLE001 - untrusted input must never reach the loop
                return transport.close()

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
            fresh = ShardRequestHandler(int(neighbor_set_size))  # type: ignore[arg-type]
            if self._handler is not None:
                self._handler.close()  # the previous tenant's shard goes
            self._handler = fresh
            self._server._generation += 1
            reply = (request_id, "ok", (PROTOCOL_VERSION, self._server._generation))
            return reply if request_id else None
        if self._handler is None:
            # Everything but hello needs a shard; answering typed (instead
            # of dropping the connection) lets the client fail fast with a
            # ShardUnavailableError naming the real problem.
            return _protocol_error(
                request_id, f"operation {op!r} before hello on this connection"
            )
        return self._handler.handle(request_id, op, args)

    def pause_writing(self) -> None:
        # The client is not reading its replies: stop reading its requests,
        # or the replies it never collects pile up here without bound.
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()
        self._serve_buffered()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._handler is not None:
            self._handler.close()


class LocalShardServer:
    """A loopback :class:`ShardServer` this process hosts, refcounted away.

    The self-contained deployment used by tests, scenarios and the
    benchmark: one address for life — an ephemeral Unix socket (``127.0.0.1``
    TCP where ``AF_UNIX`` is unavailable), so a killed host's successor is
    found where the old one was — served until the last refcount holder
    releases it; :meth:`stop` then reaps the host and unlinks the socket,
    so closing every backend leaves no thread, process or file behind.
    The host is a daemon thread; :class:`ChildShardServer` overrides
    :meth:`start`, :attr:`alive` and :meth:`kill` to make it a process.
    """

    def __init__(self) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._tempdir: Optional[str] = None
        self.address: Address = ("127.0.0.1", 0)
        if hasattr(socket, "AF_UNIX"):
            self._tempdir = tempfile.mkdtemp(prefix="repro-shard-")
            self.address = os.path.join(self._tempdir, "shard.sock")
        self._refs = 0
        self._lock = threading.Lock()
        self._stopped = False
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
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Bring a host up on :attr:`address` (again, after a :meth:`kill`)."""
        started = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            server = ShardServer()
            try:
                self.address = loop.run_until_complete(server.listen(self.address))
            except BaseException as error:  # noqa: BLE001 - reported to starter
                failure.append(error)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(server.close())
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        thread = threading.Thread(target=run, name="repro-shard-server", daemon=True)
        self._thread = thread
        thread.start()
        started.wait()
        if failure:
            raise failure[0]

    def kill(self) -> None:
        """Take the host down abruptly and reap it; the owner stays usable."""
        if self.alive:
            self._loop.call_soon_threadsafe(self._loop.stop)  # type: ignore[union-attr]
            self._thread.join(timeout=10.0)  # type: ignore[union-attr]

    # ------------------------------------------------------------- refcounting

    def acquire(self) -> "LocalShardServer":
        with self._lock:
            if self._stopped:
                raise ShardUnavailableError("local-shard-server", "server already stopped")
            self._refs += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._refs = max(0, self._refs - 1)
            last = self._refs == 0 and not self._stopped
        if last:
            self.stop()

    def stop(self) -> None:
        """Reap the host for good and unlink the socket (idempotent)."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self.kill()
        if self._tempdir is not None:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(self._tempdir, "shard.sock"))
            with contextlib.suppress(OSError):
                os.rmdir(self._tempdir)
            self._tempdir = None

    def __repr__(self) -> str:
        state = "alive" if self.alive else "stopped"
        return f"{type(self).__name__}({format_address(self.address)}, {state}, refs={self._refs})"


def _serve_listener(listener: socket.socket) -> None:
    """Child-process main: one :class:`ShardServer` on an inherited listener.

    Serves until killed (the only way its owner stops it: a shard holds no
    state the journal cannot rebuild) or until the parent's end of the
    sentinel pipe closes — a coordinator that died leaves no orphan.
    """

    async def main() -> None:
        await ShardServer().listen(listener)
        sentinel = multiprocessing.parent_process().sentinel  # type: ignore[union-attr]
        asyncio.get_running_loop().add_reader(sentinel, os._exit, 0)
        await asyncio.Event().wait()

    asyncio.run(main())


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
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.address)  # a killed predecessor's socket file
            listener.bind(self.address)
            listener.listen()
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
    (journal, recovery loop and compaction are inherited).  *Restart* means
    reconnect (pool-first) + hello + journal replay; :attr:`epoch` counts
    connections, which is what scopes fill streams.  Given a
    :class:`LocalShardServer` in place of a bare ``address`` the supervisor
    **owns** that server: :meth:`kill` kills it, every teardown reaps it
    and every re-establish first starts a fresh one on the same address —
    with a :class:`ChildShardServer`, a real crash and a real respawn.

    Chaos hooks: :meth:`kill`, :meth:`sever` (the connection only, in
    transport-shaped ways: ``close`` / ``reset`` / ``partial_frame``) and
    :meth:`rewind_generation` (the *next* reconnect looks stale) script
    every fault kind deterministically.
    """

    def __init__(
        self,
        name: str,
        address: Union[Address, LocalShardServer],
        neighbor_set_size: int,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        recovery: Optional[RecoveryPolicy] = None,
        compact_watermark: Optional[int] = None,
        pool: Optional[SocketConnectionPool] = None,
    ) -> None:
        super().__init__(
            name,
            request_timeout=request_timeout,
            recovery=recovery,
            compact_watermark=compact_watermark,
        )
        self._server = address if isinstance(address, LocalShardServer) else None
        self.address: Address = getattr(address, "address", address)
        self.neighbor_set_size = neighbor_set_size
        self._pool = pool
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
            if self._pool is not None:
                conn = self._pool.acquire(budget)
            else:
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
            if self._pool is not None and self._poisoned is None and not conn.closed:
                self._pool.release(conn)
            else:
                conn.close()
        if self._server is not None:
            # An owned server goes down with its connection, whatever state
            # it is in (dead already, hung, healthy): restart() then always
            # lands on a fresh process, and close() leaves none behind.
            self._server.kill()

    def _roundtrip(
        self, op: str, args: Tuple[object, ...], timeout: Optional[float] = None
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

    # -------------------------------------------------------- fault injection

    def kill(self) -> None:
        """Destroy the transport abruptly (the generic chaos kill hook): an
        owned server dies outright, somebody else's just loses this connection."""
        if self._server is not None:
            self._server.kill()
        else:
            self.sever("close")

    def sever(self, mode: str = "close") -> None:
        """Kill the live connection in a transport-shaped way.

        ``close``
            Silent death: the socket just goes away (FIN), like a crashed
            server host.
        ``reset``
            Abortive close: ``SO_LINGER(0)`` makes TCP send RST, the
            mid-operation connection-reset case.
        ``partial_frame``
            Send a frame whose header declares more bytes than follow, then
            close — the truncated-write corruption case.
        """
        conn = self._conn
        if conn is None:
            return
        if mode == "close":
            conn.close()
        elif mode == "reset":
            conn.reset_close()
        elif mode == "partial_frame":
            conn.send_partial_frame()
        else:
            raise ValueError(f"unknown sever mode {mode!r}")

    def rewind_generation(self, steps: int = 1) -> None:
        """Make the next reconnect look stale (chaos: ``reconnect_stale_epoch``).

        Advances the *expected* generation past the server's next hello, so
        exactly one reconnect attempt fails with the typed stale-epoch
        error (and, under recovery, the attempt after it succeeds — the
        rejected hello itself advanced the server).
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if self._seen_generation is not None:
            self._seen_generation += steps

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("poisoned" if self._poisoned else "connected")
        return (
            f"SocketShardSupervisor(name={self.name!r}, "
            f"address={format_address(self.address)}, {state}, epoch={self._epoch})"
        )


class SocketShardBackend(SupervisedShardBackend):
    """A :class:`~repro.core.sharded.ShardBackend` living behind a socket.

    The client-side surface (batched validation, chunked lazy fill streams,
    diagnostics) is :class:`~repro.core.remote.SupervisedShardBackend`;
    this class only wires a :class:`SocketShardSupervisor` under it.
    Without an explicit ``address`` the backend hosts its own
    :class:`LocalShardServer`, making a standalone backend fully
    self-contained (tests, notebooks); a :class:`LocalShardServer` given as
    the address is owned by the supervisor (see there).

    Always :meth:`close` the backend (or use it as a context manager): the
    connection is a real socket and a loopback server a real thread/process.
    """

    def __init__(
        self,
        address: Union[Address, LocalShardServer, None] = None,
        neighbor_set_size: int = 5,
        name: str = "socket-shard",
        fill_chunk_size: int = DEFAULT_FILL_CHUNK,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        recovery: Optional[RecoveryPolicy] = None,
        compact_watermark: Optional[int] = None,
        pool: Optional[SocketConnectionPool] = None,
        on_close: Optional[Callable[[], None]] = None,
    ) -> None:
        self.name = name
        self.fill_chunk_size = fill_chunk_size
        self._on_close = on_close
        self._released = False
        self._own_server = LocalShardServer() if address is None else None
        try:
            self.supervisor = SocketShardSupervisor(
                name=name,
                address=address or self._own_server.address,  # type: ignore[union-attr]
                neighbor_set_size=neighbor_set_size,
                request_timeout=request_timeout,
                recovery=recovery,
                compact_watermark=compact_watermark,
                pool=pool,
            )
        except BaseException:
            self._release_once()
            raise

    def _release_once(self) -> None:
        if not self._released:
            self._released = True
            if self._own_server is not None:
                self._own_server.stop()
            if self._on_close is not None:
                self._on_close()

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._release_once()

    def __repr__(self) -> str:
        return (
            f"SocketShardBackend(name={self.name!r}, "
            f"address={format_address(self.supervisor.address)})"
        )


def socket_shard_factory(
    neighbor_set_size: int = 5,
    addresses: Optional[Sequence[Address]] = None,
    fill_chunk_size: int = DEFAULT_FILL_CHUNK,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    recovery: Optional[RecoveryPolicy] = None,
    compact_watermark: Optional[int] = None,
    pool_idle: int = DEFAULT_POOL_IDLE,
) -> Callable[[], SocketShardBackend]:
    """A ``shard_factory`` for :class:`ShardedManagementServer` over sockets.

    With ``addresses``, shard *i* connects to ``addresses[i % len]`` —
    point it at ``repro-experiments shard-serve`` instances on other
    machines.  Without, the factory hosts ONE loopback
    :class:`LocalShardServer` shared by all its shards (each on its own
    connection, hence its own connection-scoped ``ManagementServer``) and
    refcounts it down when the last shard closes — so the existing
    ``ShardedManagementServer.close()`` / ``Scenario.close()`` flows tear
    the whole socket plane down without new plumbing.  Connections are
    pooled per address (shared by the factory's shards) so reconnects reuse
    warm sockets.
    """
    indexes = itertools.count()
    state: dict = {"server": None}
    pools: dict = {}

    def factory() -> SocketShardBackend:
        index = next(indexes)
        release: Optional[Callable[[], None]] = None
        if addresses:
            address = addresses[index % len(addresses)]
        else:
            server = state["server"]
            if server is None or not server.alive:
                server = LocalShardServer()
                state["server"] = server
            server.acquire()
            address = server.address
            release = server.release
        key = address if isinstance(address, str) else tuple(address)
        pool = pools.get(key)
        if pool is None:
            pool = pools[key] = SocketConnectionPool(address, max_idle=pool_idle)
        pool.add_ref()

        def on_close(pool=pool, release=release):
            pool.drop_ref()
            if release is not None:
                release()

        return SocketShardBackend(
            address=address,
            neighbor_set_size=neighbor_set_size,
            name=f"shard-{index}",
            fill_chunk_size=fill_chunk_size,
            request_timeout=request_timeout,
            recovery=recovery,
            compact_watermark=compact_watermark,
            pool=pool,
            on_close=on_close,
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


async def _serve(addresses: Sequence[Address], ready=None) -> None:
    server = ShardServer()
    try:
        for address in addresses:
            resolved = await server.listen(address)
            print(f"listening {format_address(resolved)}", flush=True)
        if ready is not None:
            ready(server)
        await asyncio.Event().wait()
    finally:
        await server.close()


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
    try:
        asyncio.run(_serve(addresses))
    except KeyboardInterrupt:
        pass
    return 0
