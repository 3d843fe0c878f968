"""Latency-aware message delivery between simulated hosts.

The network layer connects protocol endpoints (peers, landmarks, the
management server) to the discrete-event engine: ``send`` schedules the
destination's ``handle_message`` after the one-way latency between the two
hosts' attachment routers (computed over the router topology), plus optional
fixed processing delay and random jitter.

The wire is *lossy* on demand, three ways, all seed-deterministic:

* probability knobs — ``loss_probability``, ``duplicate_probability`` and
  ``reorder_probability`` perturb every message independently (the classic
  UDP impairments: silent drops, at-least-once duplicates, late delivery
  behind a younger message);
* a scripted :class:`NetworkFaultPlan` — the *same*
  :class:`~repro.core.chaos.Fault` vocabulary that scripts the chaos shard
  backends (``drop`` / ``delay`` / ``duplicate`` / ``reorder`` /
  ``partition``) applied to counted messages, so one fault plan stresses
  the event sim and the serving plane identically;
* teardown — a message in flight to a host that detaches before delivery
  is recorded as dropped.  Attachments are *epoch-stamped*: re-attaching a
  host id (handover, a restarted daemon) starts a new epoch, and messages
  sent to an earlier epoch are dropped rather than delivered to the
  successor.

Every attached host is one entry of one table, ``host id -> (router,
handler, epoch)``, where the epoch is the network's count of attachments at
the time (so no two attachments share one).  A send looks each endpoint up
there once, reads the latency memo by the two routers and schedules
``_deliver(record, epoch)`` on the engine; the delivery compares that epoch
with the recipient's entry, and a missing or newer entry drops the message.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Protocol, Tuple

from .._validation import (
    coerce_seed,
    require_non_negative_float,
    require_probability,
)
from ..core.chaos import Fault, FaultPlan, WIRE_FAULT_KINDS
from ..exceptions import SimulationError
from ..routing.distance_engine import HopDistanceEngine
from ..topology.graph import Graph
from .engine import Engine

HostId = Hashable
NodeId = Hashable


def message_op_name(message: Any) -> str:
    """The fault-plan operation name of one message.

    Messages may carry an explicit ``op_name`` attribute; otherwise the
    lowercased class name is used (``Beacon`` → ``"beacon"``), so
    :class:`~repro.core.chaos.Fault` ``op_name`` filters read naturally.
    """
    explicit = getattr(message, "op_name", None)
    if isinstance(explicit, str):
        return explicit
    return type(message).__name__.lower()


class NetworkFaultPlan:
    """Adapter: a :class:`~repro.core.chaos.FaultPlan` applied to the wire.

    The adapter validates that every scripted fault uses the shared
    lossy-wire vocabulary (:data:`~repro.core.chaos.WIRE_FAULT_KINDS`) —
    backend-only kinds like ``crash_before`` have no wire meaning and are
    rejected at construction, not at fire time.  Each ``send`` counts as
    one operation named by :func:`message_op_name`, so ``op_name`` filters
    (e.g. only ``"beacon"`` messages) and ``persistent=True`` compose
    exactly as they do on a :class:`~repro.core.chaos.ChaosShardBackend`.

    Effects (interpreted by :class:`SimulatedNetwork`):

    * ``drop`` / ``partition`` — the message is dropped (partitions drop
      every matching message inside their ``window_ops`` window);
    * ``delay`` — ``delay_s`` (seconds) is added to the delivery as
      ``delay_s * 1000`` simulated milliseconds;
    * ``duplicate`` — the message is delivered twice, each copy with its
      own latency sample;
    * ``reorder`` — delivery is held until the next message to the same
      recipient is delivered (the held copy arrives immediately after it).
    """

    def __init__(self, plan: FaultPlan) -> None:
        bad = [fault.kind for fault in plan.pending if fault.kind not in WIRE_FAULT_KINDS]
        if bad:
            raise SimulationError(
                f"wire fault plans accept kinds {WIRE_FAULT_KINDS}, got {bad}"
            )
        self.plan = plan

    @classmethod
    def of(cls, *faults: Fault) -> "NetworkFaultPlan":
        """Convenience constructor from bare faults."""
        return cls(FaultPlan(faults))

    @property
    def fired(self) -> List[Tuple[int, str, str]]:
        """``(message_count, kind, op_name)`` triples of fired faults."""
        return self.plan.fired

    def faults_for(self, op_name: str) -> List[Fault]:
        """Count one message send and return the faults due for it."""
        return self.plan.faults_for(op_name)


class MessageHandler(Protocol):
    """Anything attached to the network must accept delivered messages."""

    def handle_message(self, sender: HostId, message: Any) -> None:
        """Process ``message`` sent by ``sender``."""
        ...


@dataclass(slots=True)
class DeliveryRecord:
    """One delivered (or dropped) message, for trace inspection."""

    sent_at: float
    delivered_at: Optional[float]
    sender: HostId
    recipient: HostId
    message: Any
    dropped: bool = False
    duplicate: bool = False
    """True for the extra copy a duplication fault/knob produced."""


class SimulatedNetwork:
    """Message transport over a router topology.

    Parameters
    ----------
    engine:
        The event loop used to schedule deliveries.
    graph:
        Router topology; one-way latency between two hosts is the
        latency-weighted shortest path between their attachment routers.
    processing_delay_ms:
        Fixed per-message processing time added at the receiver.
    jitter_ms:
        Uniform random jitter added to each delivery.
    loss_probability:
        Probability that a message is silently dropped.
    duplicate_probability:
        Probability that a message is delivered twice (the duplicate gets
        its own latency/jitter sample, so the copies may arrive in either
        order — receivers must dedup).
    reorder_probability:
        Probability that a message is delivered *late*: it is held until
        the next message to the same recipient is delivered and arrives
        immediately after it (a pairwise swap, the minimal reordering).
    seed:
        Seed for every random decision (loss, jitter, duplication,
        reordering) — same seed, same impairments.
    distance_engine:
        Optional shared :class:`HopDistanceEngine` over ``graph``; latency
        lookups read its weighted trees, one Dijkstra per source router (a
        scenario can hand in its own engine so the simulation shares its
        snapshot).
    fault_plan:
        Optional :class:`NetworkFaultPlan` scripting per-message faults on
        top of (and independently of) the probability knobs.
    """

    def __init__(
        self,
        engine: Engine,
        graph: Graph,
        processing_delay_ms: float = 0.5,
        jitter_ms: float = 0.0,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        reorder_probability: float = 0.0,
        seed: Optional[int] = None,
        distance_engine: Optional[HopDistanceEngine] = None,
        fault_plan: Optional[NetworkFaultPlan] = None,
    ) -> None:
        self.engine = engine
        self.graph = graph
        self.processing_delay_ms = require_non_negative_float(processing_delay_ms, "processing_delay_ms")
        self.jitter_ms = require_non_negative_float(jitter_ms, "jitter_ms")
        self.loss_probability = require_probability(loss_probability, "loss_probability")
        self.duplicate_probability = require_probability(
            duplicate_probability, "duplicate_probability"
        )
        self.reorder_probability = require_probability(
            reorder_probability, "reorder_probability"
        )
        self._rng = random.Random(coerce_seed(seed))
        # host id -> (router, handler, epoch).  The epoch is checked at
        # delivery: a message addressed to epoch N is dropped if the host
        # detached, even when a successor re-attached under a newer epoch.
        self._hosts: Dict[HostId, Tuple[NodeId, MessageHandler, int]] = {}
        self._attachments = itertools.count(1)
        # Reorder-held deliveries per recipient: (record, epoch) — exactly the
        # arguments ``_deliver`` would have been scheduled with, so releasing
        # one is the same call a timer makes (epoch check included).
        self._held: Dict[HostId, List[Tuple[DeliveryRecord, int]]] = {}
        if distance_engine is None:
            distance_engine = HopDistanceEngine(graph)
        else:
            distance_engine.check_graph(graph)
        self._distances = distance_engine
        # (router_a, router_b) -> latency, valid for one graph generation.
        self._latency_memo: Dict[Tuple[NodeId, NodeId], float] = {}
        self._memo_generation = graph.generation
        self.fault_plan = fault_plan
        self.deliveries: List[DeliveryRecord] = []
        self.dropped_messages = 0
        self.sent_messages = 0
        self.duplicated_messages = 0
        self.reordered_messages = 0

    # ------------------------------------------------------------------ hosts

    def attach_host(self, host_id: HostId, router: NodeId, handler: MessageHandler) -> None:
        """Attach a protocol endpoint to a router (starts a new epoch)."""
        if not self.graph.has_node(router):
            raise SimulationError(f"router {router!r} is not part of the topology")
        self._hosts[host_id] = (router, handler, next(self._attachments))

    def detach_host(self, host_id: HostId) -> None:
        """Detach a departed host.

        Queued deliveries to it are dropped when they fire — including
        reorder-held messages, which are dropped immediately (there is no
        live endpoint left to release them to).
        """
        self._hosts.pop(host_id, None)
        for record, _epoch in self._held.pop(host_id, []):
            self._drop(record)

    def is_attached(self, host_id: HostId) -> bool:
        """True if ``host_id`` is currently attached."""
        return host_id in self._hosts

    def router_of(self, host_id: HostId) -> NodeId:
        """The router a host is attached to."""
        entry = self._hosts.get(host_id)
        if entry is None:
            raise SimulationError(f"host {host_id!r} is not attached to the network")
        return entry[0]

    # ---------------------------------------------------------------- latency

    def one_way_latency(self, sender: HostId, recipient: HostId) -> float:
        """Latency-weighted shortest-path delay between two hosts' routers.

        The number is constant while the topology is, so it is read from a
        memo keyed by the *router* pair — a handover (``attach_host`` at
        another router) just reads another key — and the memo is emptied
        when ``graph.generation`` has moved since it was filled.

        A miss asks the distance engine.  The topology is undirected, so
        latency is symmetric — which lets the lookup prefer whichever
        endpoint already has a weighted tree as the Dijkstra source.  Under
        the protocol's many-peers-one-host traffic pattern that means one
        Dijkstra from the host's router instead of one per peer access
        router.
        """
        return self._router_latency(self.router_of(sender), self.router_of(recipient))

    def _router_latency(self, router_a: NodeId, router_b: NodeId) -> float:
        """The one-way latency between two attachment routers (see ``one_way_latency``)."""
        if self._memo_generation != self.graph.generation:
            self._latency_memo.clear()
            self._memo_generation = self.graph.generation
        latency = self._latency_memo.get((router_a, router_b))
        if latency is not None:
            return latency
        if router_a == router_b:
            latency = 0.1  # same access router: LAN-ish delay
        else:
            source, target = router_a, router_b
            if self._distances.has_latency_tree(target) and not self._distances.has_latency_tree(source):
                source, target = target, source
            latency = self._distances.latency_between(source, target)
            if latency is None:
                raise SimulationError(f"no route between routers {router_a!r} and {router_b!r}")
        self._latency_memo[(router_a, router_b)] = latency
        return latency

    # ------------------------------------------------------------------- send

    def _drop(self, record: DeliveryRecord) -> None:
        record.dropped = True
        self.dropped_messages += 1

    def _deliver(self, record: DeliveryRecord, epoch: int) -> None:
        """Hand ``record`` to its recipient as attached at ``epoch``, or drop it.

        A delivery releases the messages held behind it (``reorder``): they
        arrive right after it, through this same call.
        """
        recipient = record.recipient
        entry = self._hosts.get(recipient)
        if entry is None or entry[2] != epoch:
            # Detached in flight — or detached and re-attached: a new
            # epoch must never receive the old epoch's traffic.
            self._drop(record)
            return
        record.delivered_at = self.engine.now
        entry[1].handle_message(record.sender, record.message)
        if self._held:
            for held, held_epoch in self._held.pop(recipient, ()):
                self._deliver(held, held_epoch)

    def send(self, sender: HostId, recipient: HostId, message: Any) -> DeliveryRecord:
        """Send ``message``; delivery is scheduled on the engine.

        A delivery's delay is the routers' one-way latency plus the
        processing delay, plus a jitter sample when ``jitter_ms`` is set,
        plus whatever a scripted ``delay`` fault adds.
        """
        hosts = self._hosts
        source = hosts.get(sender)
        if source is None:
            raise SimulationError(f"sender {sender!r} is not attached to the network")
        target = hosts.get(recipient)
        if target is None:
            raise SimulationError(f"recipient {recipient!r} is not attached to the network")
        self.sent_messages += 1
        now = self.engine.now
        record = DeliveryRecord(now, None, sender, recipient, message)
        self.deliveries.append(record)

        # Scripted faults first (deterministic, counted per send), then the
        # probability knobs (deterministic per seed).
        extra_delay_ms = 0.0
        duplicate = False
        reorder = False
        if self.fault_plan is not None:
            for fault in self.fault_plan.faults_for(message_op_name(message)):
                if fault.kind in ("drop", "partition"):
                    self._drop(record)
                    return record
                if fault.kind == "delay":
                    extra_delay_ms += fault.delay_s * 1000.0
                elif fault.kind == "duplicate":
                    duplicate = True
                elif fault.kind == "reorder":
                    reorder = True
        rng = self._rng
        if rng.random() < self.loss_probability:
            self._drop(record)
            return record
        if self.duplicate_probability > 0 and rng.random() < self.duplicate_probability:
            duplicate = True
        if self.reorder_probability > 0 and rng.random() < self.reorder_probability:
            reorder = True

        epoch = target[2]
        jitter_ms = self.jitter_ms
        if duplicate or not reorder:
            base_ms = self._router_latency(source[0], target[0]) + self.processing_delay_ms
        if duplicate:
            # The copy has its own jitter sample, drawn before the original's.
            self.duplicated_messages += 1
            copy = DeliveryRecord(now, None, sender, recipient, message, False, True)
            self.deliveries.append(copy)
            delay = base_ms + rng.uniform(0.0, jitter_ms) if jitter_ms > 0 else base_ms
            self.engine.schedule(delay + extra_delay_ms, self._deliver, copy, epoch)
        if reorder:
            self.reordered_messages += 1
            self._held.setdefault(recipient, []).append((record, epoch))
        else:
            delay = base_ms + rng.uniform(0.0, jitter_ms) if jitter_ms > 0 else base_ms
            self.engine.schedule(delay + extra_delay_ms, self._deliver, record, epoch)
        return record

    # ------------------------------------------------------------- accounting

    def accounting_consistent(self) -> bool:
        """Every recorded message is delivered, dropped, or still held/queued.

        After the engine drains and no messages are held, ``deliveries``
        must partition exactly into delivered and dropped — the invariant
        the loss/teardown tests pin.
        """
        delivered = sum(1 for record in self.deliveries if record.delivered_at is not None)
        dropped = sum(1 for record in self.deliveries if record.dropped)
        in_flight = sum(
            1
            for record in self.deliveries
            if record.delivered_at is None and not record.dropped
        )
        return (
            dropped == self.dropped_messages
            and delivered + dropped + in_flight == len(self.deliveries)
        )
