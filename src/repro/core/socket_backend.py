"""The shard transport: asyncio shard servers, socket-backed shards.

The wire protocol of :mod:`repro.core.remote` runs over real sockets, and
only over sockets: a :class:`ShardServer` (asyncio, TCP and Unix-domain)
hosts a ``ManagementServer(maintain_cache=False)`` per **connection-scoped
shard**, and :class:`SocketShardBackend` — the one remote-shard client
class — is a full :class:`~repro.core.sharded.ShardBackend` over it.  The
frame codec (:mod:`repro.core.codec`), the request dispatch and the
journal/recovery/compaction story (:mod:`repro.core.remote`) live
elsewhere — this module is how frames move, who hosts the server, how a
dead transport comes back and what the client asks for.

Connection-scoped shards and the hello handshake
------------------------------------------------
A shard's state lives exactly as long as its connection.  The first frame a
client sends is ``hello`` carrying ``(PROTOCOL_VERSION,
neighbor_set_size)``; the server answers ``(PROTOCOL_VERSION, generation)``
after building a fresh ``ManagementServer`` for the connection.  A second
``hello`` on the same connection discards the shard and builds a new one,
so no input, however it arrives, reaches a previous tenant's peers.  Dying
and reconnecting (every restart dials afresh) therefore lands on an *empty*
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
other machines, or — for self-contained runs — one loopback
:class:`LocalShardServer` thread per shard; a restart reconnects to it.
``"process"``: one forked :class:`ChildShardServer` per shard, owned by
that shard's supervisor; it really dies when killed and a restart respawns
it.  Either loopback server stops with the backend hosting it, so
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
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import ShardUnavailableError, WireProtocolError
from .budget import DeadlineBudget
from .codec import decode_frame, decode_path, encode_frame, encode_path
from .neighbor_cache import SHARED_DISTANCES
from .path import LandmarkId, PeerId, RouterPath
from .path_tree import PathTree
from .remote import (
    DEFAULT_FILL_CHUNK,
    DEFAULT_REQUEST_TIMEOUT,
    RecoveryPolicy,
    ShardRequestHandler,
    ShardSupervisorBase,
    _rebuild_exception,
)

__all__ = [
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
PROTOCOL_VERSION = 1

#: Upper bound on one frame body — far above any real snapshot, low enough
#: that a corrupt header cannot make either side try to buffer gigabytes.
MAX_FRAME_BYTES = 1 << 30

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
    """A loopback :class:`ShardServer` this process hosts for one shard.

    The self-contained deployment used by tests, scenarios and the
    benchmark: one address for life — an ephemeral Unix socket (``127.0.0.1``
    TCP where ``AF_UNIX`` is unavailable), so a killed host's successor is
    found where the old one was — served until :meth:`stop` reaps the host
    and unlinks the socket; the :class:`SocketShardBackend` that hosts it
    stops it on ``close()``, so closing every backend leaves no thread,
    process or file behind.  The host is a daemon thread;
    :class:`ChildShardServer` overrides :meth:`start`, :attr:`alive` and
    :meth:`kill` to make it a process.
    """

    def __init__(self) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
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
    a fresh dial + hello + journal replay; :attr:`epoch` counts
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


class SocketShardBackend:
    """A :class:`~repro.core.sharded.ShardBackend` living behind a socket.

    The whole client side of a remote shard — path encoding, batched
    validation, chunked lazy fill streams with epoch-guarded recovery,
    diagnostics — over the ``request``/``notify``/``epoch`` interface of
    one :class:`SocketShardSupervisor`.  Without an explicit ``address``
    the backend hosts its own :class:`LocalShardServer` thread, which
    outlives restarts (a restart reconnects); a :class:`LocalShardServer`
    given as the address is owned by the supervisor (a restart respawns
    it, see there).  Either server stops with the backend, so a
    standalone backend is fully self-contained (tests, notebooks).

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
    ) -> None:
        self.name = name
        self.fill_chunk_size = fill_chunk_size
        host = LocalShardServer() if address is None else address
        self._server = host if isinstance(host, LocalShardServer) else None
        try:
            self.supervisor = SocketShardSupervisor(
                name=name,
                address=address or host.address,  # type: ignore[union-attr]
                neighbor_set_size=neighbor_set_size,
                request_timeout=request_timeout,
                recovery=recovery,
                compact_watermark=compact_watermark,
            )
        except BaseException:
            if self._server is not None:
                self._server.stop()
            raise

    # ---------------------------------------------------------- shard surface

    def register_landmark(self, landmark_id: LandmarkId, router) -> None:
        self.supervisor.request("register_landmark", (landmark_id, router), journal=True)

    def first_rejected_path(
        self, paths: Sequence[RouterPath]
    ) -> Optional[Tuple[int, BaseException]]:
        """Batch validation in one round trip (the arrival batching rule)."""
        result = self.supervisor.request(
            "validate_batch", (tuple(encode_path(path) for path in paths),)
        )
        if result is None:
            return None
        index, type_name, message = result  # type: ignore[misc]
        return (int(index), _rebuild_exception(str(type_name), str(message)))

    def insert_paths(self, paths: Sequence[RouterPath], validate: bool = True) -> None:
        self.supervisor.request(
            "insert_paths",
            (tuple(encode_path(path) for path in paths), validate),
            journal=True,
        )

    def join_paths(self, paths: Sequence[RouterPath], k: int) -> List[List[Tuple[PeerId, float]]]:
        """One round trip, journaled on ack as the ``insert_paths`` it contains
        (validated by then): journal, replay and compaction stay what they were."""
        encoded = tuple(encode_path(path) for path in paths)
        result = self.supervisor.request(
            "join_paths", (encoded, k), journal=("insert_paths", (encoded, False))
        )
        try:
            lists = [_shared_pairs(pairs) for pairs in result]  # type: ignore[union-attr]
            # One list per path, no peer twice; dict() also refuses a peer
            # id that could never key the coordinator's cache.
            if len(lists) == len(paths) and all(len(dict(pairs)) == len(pairs) for pairs in lists):
                return lists
        except (TypeError, ValueError):
            pass
        # Acknowledged, so journaled; but no answer to record peers on.
        raise ShardUnavailableError(self.name, "malformed reply to 'join_paths'")

    def unregister_peer(self, peer_id: PeerId) -> None:
        self.supervisor.request("unregister", (peer_id,), journal=True)

    def local_closest(self, peer_id: PeerId, k: int) -> List[Tuple[PeerId, float]]:
        return _shared_pairs(self.supervisor.request("local_closest", (peer_id, k)))  # type: ignore[arg-type]
    def fill_candidates(
        self,
        bases: Mapping[LandmarkId, float],
        exclude_peer: Optional[PeerId] = None,
    ) -> Iterator[Tuple[float, str, PeerId]]:
        """Chunked client view of the shard's lazy candidate stream.

        The shard-side stream is opened on the first ``next()`` (a never
        consumed stream costs nothing on either side) and torn down by a
        one-way ``fill_close`` when the consumer stops early.

        With a :class:`RecoveryPolicy`, a shard death mid-stream is healed
        by reopening the stream on the restarted (journal-replayed, hence
        byte-identical) shard and fast-forwarding past the candidates
        already yielded — the consumer sees one uninterrupted stream.
        Without a policy it fails typed, never silently-partial.
        """
        bases_items = tuple(bases.items())
        chunk_size = self.fill_chunk_size
        supervisor = self.supervisor

        def open_stream() -> Tuple[int, int]:
            # A recoverable open doubles as the recovery trigger: on a dead
            # shard it restarts+replays first, then opens on the fresh one.
            stream_id = supervisor.request("fill_open", (bases_items, exclude_peer))
            return supervisor.epoch, int(stream_id)  # type: ignore[arg-type]

        def pull(stream_id: int, count: int) -> Tuple[bool, Tuple[object, ...]]:
            # Not recoverable at the supervisor layer: a mid-stream fault
            # needs reopen+skip, not a blind re-issue against a stream id
            # from the dead incarnation.
            return supervisor.request(  # type: ignore[return-value]
                "fill_next", (stream_id, count), recoverable=False
            )

        def reopen(yielded: int) -> Tuple[int, int, bool]:
            """Open a fresh stream and skip the ``yielded`` leading items."""
            epoch, stream_id = open_stream()
            remaining = yielded
            done = False
            while remaining > 0:
                done, chunk = pull(stream_id, min(chunk_size, remaining))
                remaining -= len(chunk)
                if done:
                    break
            if remaining > 0:
                raise ShardUnavailableError(
                    self.name,
                    "fill stream shrank during recovery (shard state diverged)",
                )
            return epoch, stream_id, done and remaining == 0

        def stream() -> Iterator[Tuple[float, str, PeerId]]:
            epoch, stream_id = open_stream()
            yielded = 0
            exhausted = False
            try:
                while True:
                    if supervisor.epoch != epoch:
                        # The shard restarted mid-stream: our stream id now
                        # belongs to a different incarnation.
                        if supervisor.recovery is None:
                            raise ShardUnavailableError(
                                self.name, "shard restarted mid fill stream"
                            )
                        epoch, stream_id, done = reopen(yielded)
                        if done:
                            exhausted = True
                            return
                    try:
                        done, chunk = pull(stream_id, chunk_size)
                    except ShardUnavailableError:
                        if supervisor.recovery is None:
                            raise
                        epoch, stream_id, done = reopen(yielded)
                        if done:
                            exhausted = True
                            return
                        continue
                    for item in chunk:
                        yielded += 1
                        yield tuple(item)  # type: ignore[misc]
                    if done:
                        exhausted = True
                        return
            finally:
                # Only tear down a stream on the incarnation that owns it:
                # after a restart the same id may name a fresh, unrelated
                # stream.
                if not exhausted and supervisor.epoch == epoch:
                    supervisor.notify("fill_close", (stream_id,))

        return stream()

    def tree(self, landmark_id: LandmarkId) -> PathTree:
        """A local **snapshot** of the shard's tree (for diagnostics).

        Rebuilt from the shard's paths, so its rows — hence ``closest_peers``
        and ``tree_distance`` answers — equal the live tree's; the
        query-work counters (index ranges examined plus entries scanned) are
        copied across.  Mutating the snapshot does not affect the shard.
        """
        root, encoded_paths, total_visits, last_visits = self.supervisor.request(  # type: ignore[misc]
            "tree", (landmark_id,)
        )
        snapshot = PathTree(landmark_id=landmark_id, landmark_router=root)
        for encoded in encoded_paths:  # type: ignore[union-attr]
            snapshot.insert(decode_path(encoded))
        snapshot.total_query_visits = int(total_visits)  # type: ignore[arg-type]
        snapshot.last_query_visits = int(last_visits)  # type: ignore[arg-type]
        return snapshot

    def tree_distance(self, landmark_id: LandmarkId, peer_a: PeerId, peer_b: PeerId) -> float:
        """``dtree`` of a same-landmark pair: one scalar round trip.

        This is how the coordinator's ``estimate_distance`` reaches a remote
        tree — :meth:`tree` snapshots are for diagnostics only.
        """
        return float(
            self.supervisor.request("tree_distance", (landmark_id, peer_a, peer_b))  # type: ignore[arg-type]
        )

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
        """Snapshot-compact the supervisor's journal; return snapshot bytes."""
        return self.supervisor.compact()

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


def _shared_pairs(pairs) -> List[Tuple[PeerId, float]]:
    """A shard's ``(peer, distance)`` reply with each distance read through
    :data:`~repro.core.neighbor_cache.SHARED_DISTANCES`: the floats pickle
    just decoded never reach the coordinator's cache."""
    return [(peer, SHARED_DISTANCES[distance]) for peer, distance in pairs]


def socket_shard_factory(
    neighbor_set_size: int = 5,
    addresses: Optional[Sequence[Address]] = None,
    fill_chunk_size: int = DEFAULT_FILL_CHUNK,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    recovery: Optional[RecoveryPolicy] = None,
    compact_watermark: Optional[int] = None,
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
            fill_chunk_size=fill_chunk_size,
            request_timeout=request_timeout,
            recovery=recovery,
            compact_watermark=compact_watermark,
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
