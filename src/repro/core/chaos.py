"""Deterministic fault injection for shard backends.

Robustness claims need *scripted* failures: a :class:`FaultPlan` describes
exactly which backend operation fails and how, a :class:`ChaosShardBackend`
wraps any :class:`~repro.core.sharded.ShardBackend` and executes the plan,
and the equivalence oracle in ``tests/core/test_sharded_equivalence.py``
then proves the plane converges byte-identical to the single server
*through* the scripted crash/recover sequence.  Nothing here is random:
faults fire on a per-backend operation counter, so a failing case replays
identically.

Fault kinds
-----------
``crash_before``
    Kill the shard's transport (``supervisor.kill()``: SIGKILL the child
    server of a process shard, cut the connection of a socket shard) before
    forwarding the call — the inner backend sees a dead shard and (with a
    :class:`~repro.core.remote.RecoveryPolicy`) self-heals via
    restart+replay+re-issue.  The operation itself is never lost.
``crash_after``
    Forward the call, then kill the shard.  The operation was acknowledged
    (and journaled, if mutating), so recovery replays it — this is the
    "crash between ops" case.
``drop_reply``
    Forward the call, discard its result and raise
    :class:`~repro.exceptions.ShardUnavailableError` instead.  The shard
    *did* apply (and journal) the operation while the caller sees a
    failure — the one fault whose recovery needs caller-level convergence
    (re-register the batch), which is why the byte-identity oracle scripts
    only crash faults and ``drop_reply`` is covered by dedicated tests.
``delay``
    Sleep ``delay_s`` (via the injectable ``sleep``) before forwarding —
    models a slow shard without killing anything.
``error``
    Raise :class:`~repro.exceptions.ShardUnavailableError` without touching
    the shard at all — a pure transport flake; a bare retry would succeed.

Network-shaped fault kinds
--------------------------
A connection can fail while the server behind it lives, so three kinds
target the ``SocketShardSupervisor.sever``/``rewind_generation`` hooks.
Every remote shard — ``process`` and ``socket`` alike — is socket-backed
and accepts them; they raise typed on an inline shard, which has no
supervisor:

``partial_frame``
    Before forwarding, send a frame whose length header promises more
    bytes than follow, then close — the truncated-write corruption the
    length prefix exists to catch.  The forwarded call fails typed and
    (with recovery) heals by reconnect+replay+re-issue.
``conn_reset``
    Before forwarding, close the connection abortively (``SO_LINGER(0)``,
    TCP RST) — the mid-operation connection-reset case.  Same recovery
    story as ``partial_frame``.
``reconnect_stale_epoch``
    Before forwarding, advance the supervisor's expected server generation
    *past* the server's next hello and kill the connection: the first
    recovery reconnect lands on a stale epoch and fails typed, and only
    the attempt after it succeeds — exercising the stale-epoch guard under
    an otherwise-converging plan (``max_restarts`` must be >= 2).  A
    process shard respawns its own server on every restart and so forgets
    the generation: there the fault is a plain disconnect healed at once.

Wire-shaped fault kinds
-----------------------
The event-sim discovery protocol (:mod:`repro.protocol`) and the shard
backends share one *lossy-wire* failure vocabulary, so the same
:class:`FaultPlan` can script both the simulated network (via
:class:`repro.sim.network.NetworkFaultPlan`) and a
:class:`ChaosShardBackend`:

``drop``
    The request/message is lost in transit.  On the sim: the message is
    silently dropped (counted in ``dropped_messages``).  On a backend: the
    call is never forwarded and raises
    :class:`~repro.exceptions.ShardUnavailableError` (the request never
    reached the shard — contrast ``drop_reply``, where it did).
``duplicate``
    At-least-once delivery gone wrong: the message arrives twice.  On the
    sim: the delivery is scheduled twice (independent latency samples).  On
    a backend: the operation is forwarded twice and the first result is
    returned — safe only if the receiver dedups or the op is idempotent,
    which is exactly what it exercises.
``reorder``
    The message is delivered late, *after* the next message to the same
    recipient.  On the sim: delivery is held until the next delivery to
    that recipient completes.  On a backend calls are synchronous, so only
    one-way (``None``-returning) operations can be reordered: the call is
    deferred and executed after the next forwarded operation.  A reorder
    fault therefore requires ``op_name`` (enforced at construction); firing
    it on a value-returning operation raises typed at the call site.
``partition``
    A connectivity window: every matching operation in
    ``[at_op, at_op + window_ops)`` fails.  On the sim: messages in the
    window are dropped.  On a backend: calls in the window raise
    :class:`~repro.exceptions.ShardUnavailableError` without forwarding.
    Requires ``window_ops >= 1`` (enforced at construction).

``delay`` belongs to both vocabularies: on a backend it sleeps
``delay_s`` wall seconds; on the sim it adds ``delay_s * 1000`` simulated
milliseconds to the delivery.

One-time vs persistent
----------------------
A fault fires at the first counted operation ``>= at_op`` (whose name
matches ``op_name``, when given).  One-time faults (default) are consumed
by firing; ``persistent=True`` faults keep firing on every matching
operation from ``at_op`` on.  ``partition`` faults stay live for their
whole window (one-time means one *window*, not one operation);
``persistent=True`` re-opens the window at every matching op from
``at_op`` on, i.e. the partition never heals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ShardUnavailableError
from .path import LandmarkId, NodeId, PeerId, RouterPath

__all__ = [
    "Fault",
    "FaultPlan",
    "ChaosShardBackend",
    "FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "WIRE_FAULT_KINDS",
]

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

#: Kinds that need a remote shard's ``sever``/``rewind_generation`` chaos
#: hooks (process and socket shards have them; inline shards do not).
NETWORK_FAULT_KINDS = ("partial_frame", "conn_reset", "reconnect_stale_epoch")

#: The lossy-wire vocabulary shared by the event sim
#: (:class:`repro.sim.network.NetworkFaultPlan`) and the shard backends —
#: one :class:`FaultPlan` scripts both planes.
WIRE_FAULT_KINDS = ("drop", "delay", "duplicate", "reorder", "partition")

#: Backend operations with no return value; the only ones a synchronous
#: backend can reorder (the caller never waits on a reply, so delivering
#: the effect late is observable yet well-defined).
_ONE_WAY_OPS = frozenset({"register_landmark", "insert_paths", "unregister_peer"})


@dataclass(frozen=True)
class Fault:
    """One scripted fault: *what* goes wrong at *which* counted operation.

    Kind/option mismatches are rejected here, at construction — a plan that
    would misfire must fail when it is written, not when it fires:

    * ``delay_s`` is only meaningful for ``kind="delay"`` (and a delay of
      zero would be a no-op, so it must be positive there);
    * ``window_ops`` is only meaningful for ``kind="partition"`` (where it
      is required, ``>= 1``);
    * ``kind="reorder"`` requires ``op_name`` — reordering is only defined
      relative to a named message/operation stream.
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
    """A deterministic schedule of :class:`Fault` objects for one backend.

    The plan counts every operation the wrapping :class:`ChaosShardBackend`
    forwards (`ops_seen`) and yields the faults due at each count.  Fired
    faults are recorded in :attr:`fired` as ``(op_count, kind, op_name)``
    so tests can assert the scripted failures actually happened.
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
                # A partition stays live for its whole window (it fires on
                # *every* matching op inside it) and heals when it closes.
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


class ChaosShardBackend:
    """A :class:`~repro.core.sharded.ShardBackend` that executes a FaultPlan.

    Wraps any backend; crash and network-shaped faults additionally
    require a supervised (remote) inner backend, so there is a transport to
    kill.  Only what the coordinator sends a shard is faulted and counted;
    everything else (``close``, ``restart``, ``health_check``, diagnostics
    such as ``tree`` or ``supervisor``) passes through unfaulted — chaos
    targets the data plane, not the harness's cleanup.
    """

    def __init__(self, inner, plan: FaultPlan, sleep: Callable[[float], None] = time.sleep) -> None:
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        # One-way operations deferred by a ``reorder`` fault, executed (in
        # held order) after the next forwarded operation completes.
        self._reordered: List[Tuple[str, Callable[[], object]]] = []

    @property
    def name(self) -> str:
        return str(getattr(self.inner, "name", "chaos-shard"))

    # ------------------------------------------------------------- injection

    def _supervisor_hook(self, hook: str):
        """The inner supervisor's chaos hook; typed refusal on an inline shard."""
        method = getattr(getattr(self.inner, "supervisor", None), hook, None)
        if method is None:
            raise ShardUnavailableError(
                self.name, f"chaos: {hook}() faults need a supervised shard backend"
            )
        return method

    def _call(self, op_name: str, func, *args, **kwargs):
        faults = self.plan.faults_for(op_name)
        duplicated = False
        for fault in faults:
            if fault.kind == "delay":
                self._sleep(fault.delay_s)
            elif fault.kind == "crash_before":
                # Shaped like the shard: SIGKILL a process shard's child
                # server, cut a socket shard's connection.
                self._supervisor_hook("kill")()
            elif fault.kind == "partial_frame":
                self._supervisor_hook("sever")("partial_frame")
            elif fault.kind == "conn_reset":
                self._supervisor_hook("sever")("reset")
            elif fault.kind == "reconnect_stale_epoch":
                self._supervisor_hook("rewind_generation")()
                self._supervisor_hook("sever")("close")
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
                self._reordered.append((op_name, lambda: func(*args, **kwargs)))
                return None
        result = func(*args, **kwargs)
        if duplicated:
            # The wire delivered the same request twice: apply it again and
            # keep the first result (both applications must agree for
            # idempotent/deduplicated receivers, which is what this probes).
            func(*args, **kwargs)
        self._flush_reordered()
        for fault in faults:
            if fault.kind == "crash_after":
                self._supervisor_hook("kill")()
            elif fault.kind == "drop_reply":
                raise ShardUnavailableError(
                    self.name,
                    f"chaos: reply to {op_name!r} dropped at op {self.plan.ops_seen}",
                )
        return result

    def _flush_reordered(self) -> None:
        """Deliver reorder-held one-way operations (late arrivals)."""
        while self._reordered:
            _name, thunk = self._reordered.pop(0)
            thunk()

    # ---------------------------------------------------------- shard surface

    def register_landmark(self, landmark_id: LandmarkId, router: NodeId) -> None:
        return self._call("register_landmark", self.inner.register_landmark, landmark_id, router)

    def first_rejected_path(
        self, paths: Sequence[RouterPath]
    ) -> Optional[Tuple[int, BaseException]]:
        return self._call("first_rejected_path", self.inner.first_rejected_path, paths)

    def insert_paths(self, paths: Sequence[RouterPath], validate: bool = True) -> None:
        return self._call("insert_paths", self.inner.insert_paths, paths, validate=validate)

    def join_paths(self, paths: Sequence[RouterPath], k: int) -> List[List[Tuple[PeerId, float]]]:
        return self._call("join_paths", self.inner.join_paths, paths, k)

    def unregister_peer(self, peer_id: PeerId) -> None:
        return self._call("unregister_peer", self.inner.unregister_peer, peer_id)

    def local_closest(self, peer_id: PeerId, k: int) -> List[Tuple[PeerId, float]]:
        return self._call("local_closest", self.inner.local_closest, peer_id, k)

    def fill_candidates(
        self, bases: Mapping[LandmarkId, float], limit: int
    ) -> List[Tuple[float, str, PeerId]]:
        return self._call("fill_candidates", self.inner.fill_candidates, bases, limit)

    def tree_distance(self, landmark_id: LandmarkId, peer_a: PeerId, peer_b: PeerId) -> float:
        return self._call("tree_distance", self.inner.tree_distance, landmark_id, peer_a, peer_b)

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
