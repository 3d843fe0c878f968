"""Deterministic fault injection for the plane's tests.

Robustness claims need *scripted* failures: a :class:`FaultPlan` describes
exactly which operation fails and how, a :class:`ChaosShardBackend` wraps
any :class:`~repro.core.sharded.ShardBackend` and executes the plan, and
the equivalence oracle in ``tests/core/test_sharded_equivalence.py`` then
proves the plane converges byte-identical to the single server *through*
the scripted crash/recover sequence.  Nothing here is random: faults fire
on a per-plan operation counter, so a failing case replays identically.
The same plan, built by :func:`wire_plan`, scripts the simulated network
(``SimulatedNetwork(fault_plan=...)`` takes anything with
``faults_for(op_name)``).

Shard fault kinds
-----------------
``crash_before``
    Kill the shard's transport (:func:`kill`: SIGKILL the child server of a
    process shard, cut the connection of a socket shard) before forwarding
    the call — with a :class:`~repro.core.remote.RecoveryPolicy` the shard
    self-heals via restart+replay+re-issue.  The operation is never lost.
``crash_after``
    Forward the call, then kill the shard.  The operation was acknowledged
    (and journaled, if mutating), so recovery replays it.
``drop_reply``
    Forward the call, discard its result and raise
    :class:`~repro.exceptions.ShardUnavailableError` instead.  The shard
    *did* apply (and journal) the operation while the caller sees a
    failure, which is why the byte-identity oracle scripts only crash
    faults and ``drop_reply`` is covered by dedicated tests.
``delay``
    Sleep ``delay_s`` (via the injectable ``sleep``) before forwarding.
``error``
    Raise :class:`~repro.exceptions.ShardUnavailableError` without touching
    the shard at all — a pure transport flake.

Network-shaped fault kinds
--------------------------
A connection can fail while the server behind it lives.  Every remote shard
— ``process`` and ``socket`` alike — is socket-backed and accepts these;
they raise typed on an inline shard, which has no supervisor:

``partial_frame``
    Before forwarding, send a frame whose length header promises more
    bytes than follow, then close (:func:`send_partial_frame`).
``conn_reset``
    Before forwarding, close the connection abortively (:func:`reset_close`:
    ``SO_LINGER(0)``, TCP RST).
``reconnect_stale_epoch``
    Before forwarding, advance the supervisor's expected server generation
    past the server's next hello (:func:`rewind_generation`) and close the
    connection: the first recovery reconnect lands on a stale epoch and
    fails typed, and only the attempt after it succeeds (``max_restarts``
    must be >= 2).  A process shard respawns its own server on every
    restart and forgets the generation: there it is a plain disconnect.

Wire-shaped fault kinds
-----------------------
``drop``
    Lost in transit.  Sim: the message is dropped.  Backend: the call is
    never forwarded and raises ``ShardUnavailableError``.
``duplicate``
    Delivered twice.  Sim: two deliveries with independent latency
    samples.  Backend: forwarded twice, the first result returned.
``reorder``
    Delivered after the next message to the same recipient.  Backend:
    only one-way (``None``-returning) operations can be held, so the fault
    requires ``op_name`` and raises typed on a value-returning operation.
``partition``
    Every matching operation in ``[at_op, at_op + window_ops)`` fails.

``delay`` belongs to both vocabularies: on the sim it adds ``delay_s *
1000`` simulated milliseconds to the delivery.

A fault fires at the first counted operation ``>= at_op`` whose name
matches ``op_name`` (when given).  One-time faults are consumed by firing;
``persistent=True`` faults fire on every matching operation from ``at_op``
on.  A ``partition`` stays live for its whole window; ``persistent=True``
never heals it.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.exceptions import ShardUnavailableError, SimulationError

FAULT_KINDS = (
    "crash_before",
    "crash_after",
    "drop_reply",
    "delay",
    "error",
    "partial_frame",
    "conn_reset",
    "reconnect_stale_epoch",
    "drop",
    "duplicate",
    "reorder",
    "partition",
)

#: Kinds that act on a remote shard's connection (no inline shard has one).
NETWORK_FAULT_KINDS = ("partial_frame", "conn_reset", "reconnect_stale_epoch")

#: The lossy-wire vocabulary shared by the event sim and the shard backends.
WIRE_FAULT_KINDS = ("drop", "delay", "duplicate", "reorder", "partition")

#: Backend operations with no return value; the only ones a synchronous
#: backend can reorder.
_ONE_WAY_OPS = frozenset({"register_landmark", "insert_paths", "unregister_peer"})


@dataclass(frozen=True)
class Fault:
    """One scripted fault: *what* goes wrong at *which* counted operation.

    Kind/option mismatches are rejected at construction: ``delay_s`` only
    for (and required positive by) ``delay``, ``window_ops`` only for (and
    required ``>= 1`` by) ``partition``, and ``reorder`` requires
    ``op_name``.
    """

    at_op: int
    kind: str
    op_name: Optional[str] = None
    delay_s: float = 0.0
    persistent: bool = False
    window_ops: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.at_op < 1:
            raise ValueError(f"at_op must be >= 1, got {self.at_op}")
        if self.kind == "delay":
            if self.delay_s <= 0.0:
                raise ValueError(
                    f"kind='delay' requires delay_s > 0, got {self.delay_s!r}"
                )
        elif self.delay_s != 0.0:
            raise ValueError(
                f"delay_s is only valid for kind='delay', got delay_s={self.delay_s!r} "
                f"with kind={self.kind!r}"
            )
        if self.kind == "partition":
            if self.window_ops < 1:
                raise ValueError(
                    f"kind='partition' requires window_ops >= 1, got {self.window_ops!r}"
                )
        elif self.window_ops != 0:
            raise ValueError(
                f"window_ops is only valid for kind='partition', got "
                f"window_ops={self.window_ops!r} with kind={self.kind!r}"
            )
        if self.kind == "reorder" and self.op_name is None:
            raise ValueError("kind='reorder' requires op_name (the stream to reorder within)")

    @property
    def window_end(self) -> int:
        """First counted op *past* the fault's active window."""
        if self.kind == "partition":
            return self.at_op + self.window_ops
        return self.at_op + 1


class FaultPlan:
    """A deterministic schedule of :class:`Fault` objects.

    Counts every operation it is asked about (`ops_seen`) and yields the
    faults due at each count.  Fired faults are recorded in :attr:`fired`
    as ``(op_count, kind, op_name)``.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._pending: List[Fault] = list(faults)
        self.ops_seen = 0
        self.fired: List[Tuple[int, str, str]] = []

    @property
    def pending(self) -> Tuple[Fault, ...]:
        """Faults that have not fired yet (immutable view)."""
        return tuple(self._pending)

    def faults_for(self, op_name: str) -> List[Fault]:
        """Count one operation and return the faults due for it."""
        self.ops_seen += 1
        due: List[Fault] = []
        kept: List[Fault] = []
        for fault in self._pending:
            name_ok = fault.op_name is None or fault.op_name == op_name
            if fault.kind == "partition":
                # Partitions are positional: the window covers counted ops
                # [at_op, at_op + window_ops), matching or not.
                in_window = self.ops_seen >= fault.at_op and (
                    fault.persistent or self.ops_seen < fault.window_end
                )
            else:
                # Point faults fire at the first *matching* op at or after
                # at_op — an op-name filter can make the exact at_op pass by.
                in_window = self.ops_seen >= fault.at_op
            fired = in_window and name_ok
            if fired:
                due.append(fault)
                self.fired.append((self.ops_seen, fault.kind, op_name))
            if fault.persistent:
                kept.append(fault)
            elif fault.kind == "partition":
                # A partition fires on every matching op inside its window
                # and heals when it closes.
                if self.ops_seen + 1 < fault.window_end:
                    kept.append(fault)
            elif not fired:
                kept.append(fault)
        self._pending = kept
        return due

    def __repr__(self) -> str:
        return (
            f"FaultPlan(pending={len(self._pending)}, fired={len(self.fired)}, "
            f"ops_seen={self.ops_seen})"
        )


def wire_plan(*faults: Fault) -> FaultPlan:
    """A plan for ``SimulatedNetwork(fault_plan=...)``: wire kinds only.

    Shard-only kinds such as ``crash_before`` have no wire meaning and are
    rejected here, when the plan is written.  Each send counts as one
    operation named by :func:`repro.sim.network.message_op_name`.
    """
    bad = [fault.kind for fault in faults if fault.kind not in WIRE_FAULT_KINDS]
    if bad:
        raise SimulationError(f"wire fault plans accept kinds {WIRE_FAULT_KINDS}, got {bad}")
    return FaultPlan(faults)


# ------------------------------------------------------- transport faults


def reset_close(conn) -> None:
    """Close a ``FramedConnection`` abortively: ``SO_LINGER(0)``, so TCP sends RST."""
    if conn.closed:
        return
    conn.closed = True
    with contextlib.suppress(OSError):
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    conn.sock.close()


def send_partial_frame(conn) -> None:
    """Send a header that promises more bytes than follow, then close.

    The truncated-write corruption the length prefix exists to catch: the
    server reads a short body, hits EOF and drops the connection; the
    client side is closed at once so its next request fails typed.
    """
    if conn.closed:
        return
    with contextlib.suppress(OSError):
        conn.sock.settimeout(1.0)
        conn.sock.sendall(struct.pack("!I", 64) + b"\x00\x01\x02")
    conn.close()


_SEVER = {
    "close": lambda conn: conn.close(),  # silent death (FIN)
    "reset": reset_close,
    "partial_frame": send_partial_frame,
}


def sever(supervisor, mode: str = "close") -> None:
    """Kill a supervisor's live connection: ``close``, ``reset`` or ``partial_frame``."""
    conn = supervisor.connection
    if conn is not None:
        _SEVER[mode](conn)


def kill(supervisor) -> None:
    """Crash a shard's transport: a server the supervisor owns dies outright
    (SIGKILL for a process shard's child), anyone else's just loses this
    connection."""
    if supervisor._server is not None:
        supervisor._server.kill()
    else:
        sever(supervisor)


def rewind_generation(supervisor, steps: int = 1) -> None:
    """Make the supervisor's next reconnect look stale.

    Advances the *expected* generation past the server's next hello, so
    exactly one reconnect attempt fails with the typed stale-epoch error
    (the rejected hello itself advances the server).
    """
    if supervisor._seen_generation is not None:
        supervisor._seen_generation += steps


# ----------------------------------------------------------- chaos backend


class ChaosShardBackend:
    """A :class:`~repro.core.sharded.ShardBackend` that executes a FaultPlan.

    Wraps any backend; crash and network-shaped faults additionally
    require a supervised (remote) inner backend, so there is a transport to
    kill.  Only what the coordinator sends a shard is faulted and counted;
    everything else (``close``, ``restart``, ``health_check``, diagnostics
    such as ``tree`` or ``supervisor``) passes through unfaulted.
    """

    def __init__(self, inner, plan: FaultPlan, sleep: Callable[[float], None] = time.sleep) -> None:
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        # One-way operations deferred by a ``reorder`` fault, executed (in
        # held order) after the next forwarded operation completes.
        self._reordered: List[Callable[[], object]] = []

    @property
    def name(self) -> str:
        return str(getattr(self.inner, "name", "chaos-shard"))

    def _supervisor(self, kind: str):
        """The inner shard's supervisor; typed refusal on an inline shard."""
        supervisor = getattr(self.inner, "supervisor", None)
        if supervisor is None:
            raise ShardUnavailableError(
                self.name, f"chaos: {kind} faults need a supervised shard backend"
            )
        return supervisor

    def _call(self, op_name: str, func, *args, **kwargs):
        faults = self.plan.faults_for(op_name)
        duplicated = False
        for fault in faults:
            if fault.kind == "delay":
                self._sleep(fault.delay_s)
            elif fault.kind == "crash_before":
                kill(self._supervisor(fault.kind))
            elif fault.kind == "partial_frame":
                sever(self._supervisor(fault.kind), "partial_frame")
            elif fault.kind == "conn_reset":
                sever(self._supervisor(fault.kind), "reset")
            elif fault.kind == "reconnect_stale_epoch":
                supervisor = self._supervisor(fault.kind)
                rewind_generation(supervisor)
                sever(supervisor)
            elif fault.kind == "error":
                raise ShardUnavailableError(
                    self.name, f"chaos: scripted error at op {self.plan.ops_seen}"
                )
            elif fault.kind in ("drop", "partition"):
                raise ShardUnavailableError(
                    self.name,
                    f"chaos: {fault.kind} — request {op_name!r} lost at op "
                    f"{self.plan.ops_seen}",
                )
            elif fault.kind == "duplicate":
                duplicated = True
            elif fault.kind == "reorder":
                if op_name not in _ONE_WAY_OPS:
                    raise ShardUnavailableError(
                        self.name,
                        f"chaos: reorder targets one-way ops {sorted(_ONE_WAY_OPS)}, "
                        f"not {op_name!r}",
                    )
                self._reordered.append(lambda: func(*args, **kwargs))
                return None
        result = func(*args, **kwargs)
        if duplicated:
            # The wire delivered the same request twice: apply it again and
            # keep the first result.
            func(*args, **kwargs)
        self._flush_reordered()
        for fault in faults:
            if fault.kind == "crash_after":
                kill(self._supervisor(fault.kind))
            elif fault.kind == "drop_reply":
                raise ShardUnavailableError(
                    self.name,
                    f"chaos: reply to {op_name!r} dropped at op {self.plan.ops_seen}",
                )
        return result

    def _flush_reordered(self) -> None:
        """Deliver reorder-held one-way operations (late arrivals)."""
        while self._reordered:
            self._reordered.pop(0)()

    # ---------------------------------------------------------- shard surface

    def register_landmark(self, landmark_id, router):
        return self._call("register_landmark", self.inner.register_landmark, landmark_id, router)

    def insert_paths(self, paths, validate=True):
        return self._call("insert_paths", self.inner.insert_paths, paths, validate=validate)

    def join_paths(self, paths, k):
        return self._call("join_paths", self.inner.join_paths, paths, k)

    def unregister_peer(self, peer_id):
        return self._call("unregister_peer", self.inner.unregister_peer, peer_id)

    def local_closest(self, peer_id, k):
        return self._call("local_closest", self.inner.local_closest, peer_id, k)

    def fill_candidates(self, bases, limit):
        return self._call("fill_candidates", self.inner.fill_candidates, bases, limit)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        # Reordered means late, not lost: deliver held one-way ops before
        # the backend goes away.
        self._flush_reordered()
        self.inner.close()

    def __enter__(self) -> "ChaosShardBackend":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __getattr__(self, attribute: str):
        # Lifecycle and diagnostics (restart, tree, supervisor, ...) reach
        # the inner backend directly; only the methods above are faulted.
        return getattr(self.inner, attribute)

    def __repr__(self) -> str:
        return f"ChaosShardBackend(inner={self.inner!r}, plan={self.plan!r})"
