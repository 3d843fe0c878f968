"""Remote shards: the request protocol, the journal and recovery.

:class:`~repro.core.sharded.ShardedManagementServer` drives its shards
through the :class:`~repro.core.sharded.ShardBackend` protocol.  A remote
shard is a full :class:`~repro.core.management_server.ManagementServer`
(with ``maintain_cache=False`` — the coordinator owns the only cache)
behind a :class:`~repro.core.socket_backend.ShardServer`, and this module
is the protocol's two ends above the bytes: the server-side request
dispatch (:class:`ShardRequestHandler`) and the supervision story
(:class:`ShardSupervisorBase`).  ONE transport moves the frames, and ONE
client class speaks it — :mod:`repro.core.socket_backend`'s
:class:`~repro.core.socket_backend.SocketShardBackend`.  Every self-hosted
shard has its own loopback server, and the remote backend names differ only
in what it is: ``"process"`` forks one child shard server per shard and its
supervisor owns it (a restart respawns the child), ``"socket"`` runs one
server thread per shard that outlives the connection (a restart
reconnects); pointed at ``addresses``, a socket shard dials a server
somebody else runs.

Requests and replies
--------------------
Strictly request/reply over one connection per shard (the coordinator is
single-threaded per shard, so requests never interleave); the message
grammar and the frame format — JSON bodies, so ids are JSON scalars and a
tuple sent arrives as a list — are :mod:`repro.core.codec`'s.  Errors raised
by the shard's ``ManagementServer`` travel as ``(type_name, str(message))``
and are re-raised client-side as the same exception type with the same
message (resolved from :mod:`repro.exceptions`, then builtins), which is
exactly the surface the equivalence oracle compares — so a remote plane
reproduces the inline plane's errors byte for byte.  (Reconstructed
exceptions carry the message but not constructor-specific attributes like
``peer_id``.)

Batching rules
--------------
* **Arrival is one frame**: a newcomer, or a shard's whole slice of a
  co-arriving batch, crosses the transport as ONE ``join_paths`` request
  whose reply carries each path's local closest list, so arrival cost per
  peer stays O(path length), not O(round trips).  A re-registration is
  the same frame, as the shard replaces a peer it holds; a peer moving to
  another shard's landmark sends its old home an ``unregister`` first.
* **Nothing the coordinator holds is asked for**: it validates a batch
  against its own landmark routers, so a rejected batch sends no frame,
  and it reads ``dtree`` off its own paths, so ``estimate_distance`` sends
  none either.
* **A fill is one bounded read**: ``fill`` carries the detour-estimate
  bases and the number of candidates the coordinator still needs, and the
  reply is at most that many — a query that needs two fill candidates
  ships two, not every foreign peer.  The server keeps no per-connection
  state beyond the shard.
* A request with ``request_id == 0`` is one-way: the server sends no reply.

Fault model
-----------
Every transport failure (the list is :mod:`repro.core.socket_backend`'s)
raises :class:`~repro.exceptions.ShardUnavailableError` naming the shard —
malformed frames and replies included: :class:`~repro.exceptions.
WireProtocolError` is internal, and deliberately distinct from the
join-protocol ``ProtocolError`` — and poisons the channel so subsequent
requests fail fast until :meth:`ShardSupervisorBase.restart`.  The supervisor
keeps the **state a restart rebuilds** from every successful mutating
request (``register_landmark``, ``insert_paths``, ``unregister``): the
shard's landmarks in registration order, and one path per live peer in
registration order.  Its :attr:`ShardSupervisorBase.journal` is the ops a
restart replays onto the *empty* shard it lands on — every
``register_landmark``, then ONE ``insert_paths`` of the live paths, which
the empty shard loads — and that rebuilds the shard's trees and min-hop
orderings to a byte-identical state (insert order determines tree shape;
the orderings are rebuilt lazily from the same sorted keys).  Mutating
requests only touch coordinator state *after* the shard acknowledged them,
so a crash mid-operation leaves the coordinator consistent with the journal
for single-operation arrival/departure/query: a failed join leaves no peer
behind.  A batch ``register_peers`` that spans shards is not atomic across
a shard crash: the coordinator records none of it while the shards that
acknowledged hold their slice — restart, replay and re-register the batch
(a peer a shard already holds is replaced) to converge.

Self-healing
------------
Recovery is **opt-in**: with a :class:`RecoveryPolicy`, any transport
failure on a recoverable request triggers a bounded loop of backoff →
restart → one re-issue of the failed request, instead of raising on first
fault.  The backoff doubles from ``backoff_base_s`` up to
:data:`BACKOFF_CAP_S`, without jitter, so a schedule is the same on every
run; journal replay rebuilds shard state byte-identically, so a re-issued
read — a fill included — answers what the lost one would have.  Each
acknowledgement updates the recorded state once, so upkeep is O(1) per
path and a restart replays O(live state), whatever the operation history.
"""

from __future__ import annotations

import builtins
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from .. import exceptions as _exceptions
from ..exceptions import ShardUnavailableError, WireProtocolError
from .budget import DeadlineBudget
from .codec import decode_path, encode_path, encoded_peer
from .management_server import ManagementServer
from .path import PeerId

__all__ = [
    "BACKENDS",
    "RecoveryPolicy",
    "ShardRequestHandler",
    "ShardSupervisorBase",
    "decode_path",
    "encode_path",
    "shard_factory_for",
]

#: The shard-backend implementations selectable by name — the single source
#: for every ``backend=`` surface (ScenarioConfig, the benchmark, the CLI).
#: Both remote names run on :mod:`repro.core.socket_backend` (threaded shard
#: servers over TCP / Unix-domain sockets), which :func:`shard_factory_for`
#: imports lazily so an inline plane never loads the transport.
BACKENDS = ("inline", "process", "socket")

#: Seconds a request waits for its reply before declaring the shard gone.
#: Applies to *every* round trip — requests, the hello handshake and journal
#: replay during restart — so a hung shard server can never block the
#: coordinator indefinitely.
DEFAULT_REQUEST_TIMEOUT = 60.0

#: Longest sleep before one restart attempt, in seconds.
BACKOFF_CAP_S = 2.0


# ---------------------------------------------------------------- recovery


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a shard supervisor self-heals from transport failures.

    When a recoverable request fails with
    :class:`~repro.exceptions.ShardUnavailableError`, the supervisor runs up
    to ``max_restarts`` attempts of *backoff → restart (respawn + journal
    replay) → re-issue the failed request*, raising the last error when the
    budget is exhausted.  Domain errors (``UnknownPeerError`` and friends)
    are answers, not faults — they never trigger recovery.  For a socket
    shard (:mod:`repro.core.socket_backend`) "restart" means
    reconnect-with-replay; the policy, backoff schedule and deadline
    semantics are identical.

    Parameters
    ----------
    max_restarts:
        Restart+re-issue attempts per failed request.
    backoff_base_s:
        Attempt ``n`` sleeps ``backoff_base_s * 2**(n-1)`` seconds, at most
        :data:`BACKOFF_CAP_S`, before restarting.  Set ``backoff_base_s=0``
        for no delay (tests).
    sleep:
        Injected sleep callable (tests pass a no-op to skip real delays).
    """

    max_restarts: int = 2
    backoff_base_s: float = 0.05
    sleep: Callable[[float], None] = field(default=time.sleep)

    def backoff_s(self, attempt: int) -> float:
        """Delay before restart ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return max(min(self.backoff_base_s * 2 ** (attempt - 1), BACKOFF_CAP_S), 0.0)


def _rebuild_exception(type_name: str, message: str) -> BaseException:
    """Client-side twin of a shard-side exception: same type, same ``str()``.

    The instance is created without running the original constructor (which
    may require domain arguments the wire does not carry), so it carries the
    message but not attributes like ``peer_id``.
    """
    candidate = getattr(_exceptions, type_name, None)
    if not (isinstance(candidate, type) and issubclass(candidate, BaseException)):
        candidate = getattr(builtins, type_name, None)
    # An honest shard reports what ``except Exception`` caught: a name that
    # would unwind the coordinator or end a generator is a protocol violation.
    if not (isinstance(candidate, type) and issubclass(candidate, Exception)) or issubclass(
        candidate, (StopIteration, StopAsyncIteration)
    ):
        return WireProtocolError(f"{type_name}: {message}")
    try:
        error = candidate.__new__(candidate)
    except TypeError:  # ExceptionGroup: nothing without members the wire never carries
        return WireProtocolError(f"{type_name}: {message}")
    BaseException.__init__(error, message)
    return error


# -------------------------------------------------------------- shard side


class ShardRequestHandler:
    """Transport-neutral shard session: one server, nothing else.

    The request/reply semantics of a shard — dispatch against a
    ``ManagementServer(maintain_cache=False)``, errors serialised as
    ``(type_name, message)`` — know nothing about how frames arrive: a
    :class:`~repro.core.socket_backend.ShardServer` connection feeds its
    decoded request tuples through one handler instance.
    """

    def __init__(self, neighbor_set_size: int) -> None:
        self.server = ManagementServer(
            neighbor_set_size=neighbor_set_size, maintain_cache=False
        )

    def handle(self, request_id: int, op: str, args: Tuple[object, ...]):
        """Apply one decoded request; return the reply tuple (or ``None``).

        One-way requests (``request_id == 0``) return ``None`` — the caller
        must not write a reply for them.
        """
        try:
            result = _dispatch(self.server, op, args)
        except Exception as error:  # noqa: BLE001 - errors are protocol payload
            reply = (request_id, "err", type(error).__name__, str(error))
        else:
            reply = (request_id, "ok", result)
        return reply if request_id else None


def _dispatch(server: ManagementServer, op: str, args):
    """Apply one decoded request to the shard's server; return the value."""
    if op == "ping":
        return "pong"
    if op == "register_landmark":
        landmark_id, router = args
        return server.register_landmark(landmark_id, router)
    if op == "insert_paths":
        encoded_paths, validate = args
        return server.insert_paths([decode_path(p) for p in encoded_paths], validate=validate)
    if op == "join_paths":
        encoded_paths, k = args
        return server.join_paths([decode_path(p) for p in encoded_paths], k)
    if op == "unregister":
        return server.unregister_peer(args[0])
    if op == "local_closest":
        peer_id, k = args
        return tuple(server.local_closest(peer_id, k))
    if op == "fill":
        bases_items, limit = args
        return tuple(server.fill_candidates(dict(bases_items), limit))
    if op == "tree":
        tree = server.tree(args[0])
        return (
            tree.routers[0] if tree.routers else None,
            tuple(encode_path(server.peer_path(peer)) for peer in tree.peers()),
            tree.total_query_visits,
            tree.last_query_visits,
        )
    if op == "total_tree_visits":
        return server.total_tree_visits()
    if op == "total_insert_work":
        return tuple(server.total_insert_work())
    if op == "stats":
        return server.stats.as_dict()
    raise WireProtocolError(f"unknown operation {op!r}")


# -------------------------------------------------------------- supervisor


class ShardSupervisorBase:
    """Transport-agnostic shard supervision: journal and recovery.

    The one subclass, :class:`~repro.core.socket_backend.SocketShardSupervisor`,
    owns the transport — dialling a shard server's socket and, for a server
    it hosts itself, respawning it — and defines the hooks this class calls:
    ``_establish_transport``, ``_teardown_transport`` and ``_roundtrip``
    (plus ``notify``).  Everything above the transport is shared verbatim:
    the state a restart rebuilds — the acknowledged ``register_landmark``
    ops in order, and each live peer's encoded path in registration order,
    updated once per acknowledged mutation — its replay form
    :attr:`journal`, :meth:`restart` (fresh transport + replay, restoring
    the shard's data plane byte-identically), and the
    :class:`RecoveryPolicy` loop of backoff → restart → re-issue.

    Parameters
    ----------
    name:
        The shard's name; every :class:`ShardUnavailableError` carries it.
    request_timeout:
        Seconds each round trip may take in total (all phases draw from one
        :class:`~repro.core.budget.DeadlineBudget`).  ``None`` is clamped to
        :data:`DEFAULT_REQUEST_TIMEOUT` — every round trip has a deadline.
    recovery:
        Optional :class:`RecoveryPolicy`.  When given, recoverable requests
        that fail with :class:`ShardUnavailableError` trigger bounded
        backoff → restart+replay → re-issue instead of raising.
    """

    def __init__(
        self,
        name: str,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.name = name
        if request_timeout is None:
            request_timeout = DEFAULT_REQUEST_TIMEOUT
        self.request_timeout = request_timeout
        self._recovery = recovery
        self._landmarks: List[Tuple[str, Tuple[object, ...]]] = []
        self._live: Dict[PeerId, Tuple[object, ...]] = {}
        self._next_request_id = itertools.count(1)
        self._poisoned: Optional[str] = None
        self._closed = False
        self._epoch = 0

    # ------------------------------------------------------------- lifecycle

    @property
    def journal(self) -> Tuple[Tuple[str, Tuple[object, ...]], ...]:
        """The ops a restart replays (immutable view): every acknowledged
        ``register_landmark`` in order, then ONE ``insert_paths(live paths,
        validate=False)`` in registration order, when a peer is live."""
        load = (("insert_paths", (tuple(self._live.values()), False)),) if self._live else ()
        return tuple(self._landmarks) + load

    @property
    def journal_length(self) -> int:
        """Number of journal entries — O(1), unlike materialising ``journal``."""
        return len(self._landmarks) + bool(self._live)

    @property
    def epoch(self) -> int:
        """Transport incarnation counter (bumped by every spawn/reconnect)."""
        return self._epoch

    def restart(self) -> None:
        """Fresh transport + journal replay (crash recovery)."""
        if self._closed:
            raise ShardUnavailableError(self.name, "supervisor is closed")
        self._teardown_transport()
        self._establish_transport()
        for op, args in self.journal:
            self._roundtrip(op, args)

    def close(self) -> None:
        """Shut the shard down and release the transport (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._teardown_transport()

    def health_check(self, timeout: float = 5.0) -> bool:
        """True when the shard is reachable and answering pings."""
        try:
            return self.request("ping", (), timeout=timeout, recoverable=False) == "pong"
        except ShardUnavailableError:
            return False

    # --------------------------------------------------------------- requests

    def _budget(self, timeout: Optional[float]) -> DeadlineBudget:
        """The single deadline budget one round trip's phases share."""
        deadline = self.request_timeout if timeout is None else timeout
        return DeadlineBudget(deadline)

    def request(
        self,
        op: str,
        args: Tuple[object, ...],
        journal: Union[bool, Tuple[str, Tuple[object, ...]]] = False,
        timeout: Optional[float] = None,
        recoverable: bool = True,
    ) -> object:
        """One request/reply round trip; records mutating ops on success.

        ``journal=True`` records the request itself; a compound request
        passes the ``(op, args)`` of the mutation it contains instead.
        With a :class:`RecoveryPolicy` installed, a transport failure on a
        ``recoverable`` request runs the bounded restart+replay+re-issue
        loop before giving up.  Pass ``recoverable=False`` for requests that
        must observe faults directly (health probes).
        """
        try:
            value = self._roundtrip(op, args, timeout=timeout)
        except ShardUnavailableError as error:
            if self._recovery is None or not recoverable or self._closed:
                raise
            value = self._recover(op, args, timeout, error)
        if journal:
            self._record(*((op, args) if journal is True else journal))
        return value

    def _record(self, op: str, args: Tuple[object, ...]) -> None:
        """Apply one acknowledged mutation to the state a restart rebuilds.

        An ``insert_paths`` moves each of its peers to the end of the
        registration order (a peer already there is replaced), an
        ``unregister`` drops its peer if it is there, and any other op is a
        landmark.  Every recorded op was acknowledged, so the load a
        restart sends needs no validating again.
        """
        if op == "insert_paths":
            for encoded in args[0]:  # type: ignore[attr-defined]
                peer = encoded_peer(encoded)
                self._live.pop(peer, None)
                self._live[peer] = encoded
        elif op == "unregister":
            self._live.pop(args[0], None)  # type: ignore[arg-type]
        else:
            self._landmarks.append((op, args))

    def _recover(
        self,
        op: str,
        args: Tuple[object, ...],
        timeout: Optional[float],
        error: ShardUnavailableError,
    ) -> object:
        """Bounded backoff → restart+replay → re-issue loop for one request."""
        policy = self._recovery
        assert policy is not None
        last = error
        for attempt in range(1, policy.max_restarts + 1):
            delay = policy.backoff_s(attempt)
            if delay > 0:
                policy.sleep(delay)
            try:
                self.restart()
                return self._roundtrip(op, args, timeout=timeout)
            except ShardUnavailableError as retry_error:
                last = retry_error
        raise last

    def _interpret_reply(self, reply, request_id: int, op: str) -> object:
        """Turn a decoded reply tuple into a value or a raised exception.

        Shared by every transport: out-of-order or malformed replies poison
        the channel (the request/reply pairing is unknown from here on), and
        server-reported ``WireProtocolError`` surfaces as unavailability,
        never as a domain error.
        """
        if reply[0] != request_id or len(reply) < 3:
            self._poisoned = f"out-of-order reply to {op!r}"
            raise ShardUnavailableError(self.name, self._poisoned)
        if reply[1] == "ok":
            return reply[2]
        if reply[1] == "err" and len(reply) == 4:
            error = _rebuild_exception(str(reply[2]), str(reply[3]))
            if isinstance(error, WireProtocolError):
                # The server saw a protocol violation from us: surface it as
                # unavailability, never as a domain (join-protocol) error.
                raise ShardUnavailableError(
                    self.name, f"shard server reported a protocol violation: {error}"
                ) from error
            raise error
        self._poisoned = f"malformed reply to {op!r}"
        raise ShardUnavailableError(self.name, self._poisoned)


def shard_factory_for(backend: str, neighbor_set_size: int = 5, **kwargs):
    """The ``ShardedManagementServer(shard_factory=...)`` value for a backend.

    The one place backend names map to wiring, shared by scenarios, the
    benchmark and tests.  ``"inline"`` returns ``None`` (the coordinator's
    default in-process shards).  ``"socket"`` returns a
    :func:`~repro.core.socket_backend.socket_shard_factory` (which, without
    explicit ``addresses``, hosts one loopback shard server per shard in
    this process so the socket plane is self-contained).  ``"process"`` forks
    one :class:`~repro.core.socket_backend.ChildShardServer` per shard and
    hands it to the :class:`~repro.core.socket_backend.SocketShardBackend`
    whose supervisor owns it, so a crash is real: a SIGKILLed child
    stays dead and ``restart()`` respawns it before replaying the
    journal.  Either way the backend stops its server on ``close()``.  Shards are
    named ``shard-0``, ``shard-1``, … in creation order; ``kwargs``
    (``request_timeout``, ``recovery``) are shared by every shard of the
    factory.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "inline":
        return None
    # Imported lazily: inline planes never need the transport.
    from .socket_backend import ChildShardServer, SocketShardBackend, socket_shard_factory

    if backend == "socket":
        return socket_shard_factory(neighbor_set_size, **kwargs)
    indexes = itertools.count()

    def process_shard() -> SocketShardBackend:
        return SocketShardBackend(
            ChildShardServer(), neighbor_set_size, f"shard-{next(indexes)}", **kwargs
        )

    return process_shard
