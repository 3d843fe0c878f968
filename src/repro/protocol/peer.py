"""The daemon side of the beaconing protocol.

A :class:`BeaconingPeer` keeps itself registered the only way a real
discovery daemon can: by saying so, periodically, over a wire that loses
messages.  Every ``beacon_interval_ms`` it starts a *round* — a sequence
number announcing its current router path — and retransmits it with
jittered exponential backoff until the management host acks it or the
round's deadline passes.  The deadline is one number on *simulated* time
(``engine.now`` at the round's start plus its budget, in milliseconds):
every retry waits at most what is left of it, which gives retransmissions
the same single-deadline semantics the socket backends' ``DeadlineBudget``
gives multi-phase round trips — however the retries are distributed, one
round never outlives one budget.

Rounds supersede each other — when the next interval fires, an unacked
round is abandoned rather than retried forever, which keeps worst-case
control traffic bounded under 100% loss, and the next round takes a fresh
number.  One number is the exception: the one that first announced a
path.  Its ack carries the peer's neighbour list, so it is retired by an
ack or by a newer path, never by the clock — the round after an unacked
one re-announces it, the host re-acks an applied number whenever asked,
and however many acks the wire eats the peer never moves past the one
that holds its list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from .._validation import coerce_seed
from ..core.newcomer import LandmarkDescriptor, NewcomerClient
from ..core.path import PeerId, RouterPath
from ..sim.engine import Engine
from ..sim.events import TimerHandle
from ..sim.network import HostId, SimulatedNetwork
from .messages import Beacon, BeaconAck


@dataclass(frozen=True)
class BeaconConfig:
    """Timing knobs of one beaconing peer.

    Attributes
    ----------
    beacon_interval_ms:
        Cadence of new rounds (fresh sequence numbers).
    ack_timeout_ms:
        Wait after each (re)transmission before retrying.
    backoff_factor:
        Multiplier applied to the timeout per retry within a round.
    max_backoff_ms:
        Ceiling on the per-retry timeout.
    jitter_fraction:
        Each retry timeout is stretched by ``uniform(0, jitter_fraction)``
        of itself (deterministic per peer seed) so a beacon storm after a
        partition heals spreads out instead of synchronising.
    round_budget_ms:
        Total retransmission budget per round; defaults to
        ``beacon_interval_ms`` (a round never outlives its interval).
    """

    beacon_interval_ms: float = 1000.0
    ack_timeout_ms: float = 200.0
    backoff_factor: float = 2.0
    max_backoff_ms: float = 2000.0
    jitter_fraction: float = 0.1
    round_budget_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.beacon_interval_ms <= 0:
            raise ValueError(f"beacon_interval_ms must be positive, got {self.beacon_interval_ms}")
        if self.ack_timeout_ms <= 0:
            raise ValueError(f"ack_timeout_ms must be positive, got {self.ack_timeout_ms}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.max_backoff_ms < self.ack_timeout_ms:
            raise ValueError(
                f"max_backoff_ms ({self.max_backoff_ms}) must be >= "
                f"ack_timeout_ms ({self.ack_timeout_ms})"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError(f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}")
        if self.round_budget_ms is not None and self.round_budget_ms <= 0:
            raise ValueError(f"round_budget_ms must be positive, got {self.round_budget_ms}")

    @property
    def budget_ms(self) -> float:
        """Effective per-round retransmission budget."""
        return self.round_budget_ms if self.round_budget_ms is not None else self.beacon_interval_ms


@dataclass
class PeerStats:
    """Send-side protocol counters and latency samples."""

    beacons_sent: int = 0
    retransmissions: int = 0
    acks_received: int = 0
    duplicate_acks: int = 0
    rounds_started: int = 0
    rounds_acked: int = 0
    rounds_abandoned: int = 0
    path_updates: int = 0
    arrived_at_ms: Optional[float] = None
    """When the newcomer began measuring (None for a peer handed its path)."""
    first_beacon_at_ms: Optional[float] = None
    first_ack_at_ms: Optional[float] = None
    first_neighbors_at_ms: Optional[float] = None
    update_latencies_ms: List[float] = field(default_factory=list)
    """Per path update: time from ``update_path`` to the ack that applied it."""

    @property
    def discovery_latency_ms(self) -> Optional[float]:
        """First beacon sent to first neighbour list heard (None until then)."""
        if self.first_beacon_at_ms is None or self.first_neighbors_at_ms is None:
            return None
        return self.first_neighbors_at_ms - self.first_beacon_at_ms

    @property
    def setup_delay_ms(self) -> Optional[float]:
        """The paper's setup delay: first probe to first neighbour list heard."""
        if self.arrived_at_ms is None or self.first_neighbors_at_ms is None:
            return None
        return self.first_neighbors_at_ms - self.arrived_at_ms


class BeaconingPeer:
    """Periodic-beacon endpoint registering through the simulated wire.

    The caller attaches the peer to the network at its access router
    (``network.attach_host(peer_id, path.access_router, peer)``) and then
    calls :meth:`start`; the peer only sends and receives from there on.
    """

    def __init__(
        self,
        peer_id: PeerId,
        engine: Engine,
        network: SimulatedNetwork,
        host_id: HostId,
        path: RouterPath,
        config: Optional[BeaconConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        if path.peer_id != peer_id:
            raise ValueError(
                f"peer {peer_id!r} cannot beacon a path recorded for {path.peer_id!r}"
            )
        self.peer_id = peer_id
        self.engine = engine
        self.network = network
        self.host_id = host_id
        self.path = path
        self.config = config if config is not None else BeaconConfig()
        self._rng = random.Random(coerce_seed(seed))
        self.stats = PeerStats()
        self.neighbors: Optional[Tuple[Tuple[PeerId, float], ...]] = None
        """The last neighbour list the host handed over (None before the first)."""
        self.neighbors_at_ms: Optional[float] = None
        self._running = False
        self._seq = -1
        self._seq_path: Optional[RouterPath] = None  # the path ``_seq`` names
        self._acked_path: Optional[RouterPath] = None  # the newest path the host acked
        self._round_open = False
        self._attempts = 0
        self._deadline = 0.0  # when the open round's budget runs out (simulated ms)
        self._retry_timer: Optional[TimerHandle] = None
        self._interval_timer: Optional[TimerHandle] = None
        self._pending_update_at: Optional[float] = None

    # ---------------------------------------------------------------- lifecycle

    @classmethod
    def arrive(
        cls,
        client: NewcomerClient,
        landmarks: Sequence[LandmarkDescriptor],
        network: SimulatedNetwork,
        host_id: HostId,
        config: Optional[BeaconConfig] = None,
        seed: Optional[int] = None,
    ) -> "BeaconingPeer":
        """A newcomer arrives now: measure, attach, beacon when the probing is done.

        The same daemon one step earlier.  Its first beacon is the join's
        path upload and the ack its neighbour list, so the paper's setup
        delay — ``stats.setup_delay_ms``, what ``NewcomerClient.join`` models
        with a formula — is read off the simulation clock.
        """
        path, probe_delay_ms = client.measure(landmarks)
        peer = cls(client.peer_id, network.engine, network, host_id, path, config, seed)
        peer.stats.arrived_at_ms = network.engine.now
        network.attach_host(client.peer_id, client.access_router, peer)
        peer.start(initial_delay_ms=probe_delay_ms)
        return peer

    def start(self, initial_delay_ms: float = 0.0) -> None:
        """Begin beaconing ``initial_delay_ms`` from now."""
        if initial_delay_ms < 0:
            raise ValueError(f"initial_delay_ms must be >= 0, got {initial_delay_ms}")
        self._running = True
        self._interval_timer = self.engine.schedule(initial_delay_ms, self._begin_round)

    def stop(self) -> None:
        """Stop beaconing (the host will expire us after the TTL)."""
        self._running = False
        self._cancel(self._retry_timer)
        self._cancel(self._interval_timer)
        self._retry_timer = None
        self._interval_timer = None

    @property
    def running(self) -> bool:
        """True while the peer is beaconing."""
        return self._running

    @property
    def current_seq(self) -> int:
        """Sequence number of the newest round (-1 before the first)."""
        return self._seq

    # ------------------------------------------------------------------- update

    def update_path(self, path: RouterPath) -> None:
        """Adopt a new router path (mobility handover).

        A fresh round carrying the new path starts at once instead of
        waiting out the current interval, so a sequence number never names
        two paths.  The time from this call to the ack of that round is
        recorded in ``stats.update_latencies_ms`` — the protocol-level
        *staleness* of the handover.
        """
        if path.peer_id != self.peer_id:
            raise ValueError(
                f"peer {self.peer_id!r} cannot adopt a path recorded for {path.peer_id!r}"
            )
        self.path = path
        self.stats.path_updates += 1
        self._pending_update_at = self.engine.now
        if self._running:
            self._cancel(self._interval_timer)
            self._begin_round()

    # ------------------------------------------------------------------- rounds

    @staticmethod
    def _cancel(timer: Optional[TimerHandle]) -> None:
        if timer is not None:
            timer.cancel()

    def _begin_round(self) -> None:
        if not self._running:
            return
        if self._round_open:
            # Superseded: the new round takes over, on a fresh budget.
            self.stats.rounds_abandoned += 1
        self._cancel(self._retry_timer)
        # Only a path's first number outlives its round: until the host has
        # acked the path, that number's ack is the one with the list.
        if self._seq_path is not self.path or self._acked_path is self.path:
            self._seq += 1
            self._seq_path = self.path
        self._round_open = True
        self._attempts = 0
        self.stats.rounds_started += 1
        # One deadline on simulated time: every retry in this round draws
        # its timeout from what is left of it (units are engine ms).
        self._deadline = self.engine.now + self.config.budget_ms
        self._interval_timer = self.engine.schedule(
            self.config.beacon_interval_ms, self._begin_round
        )
        self._transmit()

    def _transmit(self) -> None:
        if not self._running or not self._round_open:
            return
        if self.stats.first_beacon_at_ms is None:
            self.stats.first_beacon_at_ms = self.engine.now
        if self._attempts > 0:
            self.stats.retransmissions += 1
        self._attempts += 1
        self.stats.beacons_sent += 1
        self.network.send(
            self.peer_id, self.host_id, Beacon(peer_id=self.peer_id, seq=self._seq, path=self.path)
        )
        self._schedule_retry()

    def _schedule_retry(self) -> None:
        config = self.config
        try:
            backoff = config.ack_timeout_ms * (config.backoff_factor ** (self._attempts - 1))
        except OverflowError:
            # A long enough round takes the power past the largest float;
            # the clamp below would have picked the cap anyway.
            backoff = config.max_backoff_ms
        timeout = min(backoff, config.max_backoff_ms)
        if config.jitter_fraction > 0:
            timeout *= 1.0 + self._rng.uniform(0.0, config.jitter_fraction)
        remaining = max(0.0, self._deadline - self.engine.now)
        if remaining <= 0:
            self._give_up()
            return
        delay = min(timeout, remaining)
        self._retry_timer = self.engine.schedule(delay, self._retry)

    def _retry(self) -> None:
        if not self._running or not self._round_open:
            return
        if self.engine.now >= self._deadline:
            self._give_up()
            return
        self._transmit()

    def _give_up(self) -> None:
        # Budget exhausted before an ack: abandon the round; the next
        # interval's beacon takes over.
        self._round_open = False
        self.stats.rounds_abandoned += 1

    # ------------------------------------------------------------------ receive

    def handle_message(self, sender: HostId, message: Any) -> None:
        """Network delivery entry point (``MessageHandler`` protocol)."""
        if not isinstance(message, BeaconAck):
            return
        if not self._round_open or message.seq != self._seq:
            # Ack for a superseded round, or a wire duplicate of one we
            # already consumed — both harmless.
            self.stats.duplicate_acks += 1
            return
        self._round_open = False
        self._acked_path = self._seq_path
        self._cancel(self._retry_timer)
        self._retry_timer = None
        self.stats.acks_received += 1
        self.stats.rounds_acked += 1
        if self.stats.first_ack_at_ms is None:
            self.stats.first_ack_at_ms = self.engine.now
        if message.neighbors is not None:
            self.neighbors = message.neighbors
            self.neighbors_at_ms = self.engine.now
            if self.stats.first_neighbors_at_ms is None:
                self.stats.first_neighbors_at_ms = self.engine.now
        if self._pending_update_at is not None:
            self.stats.update_latencies_ms.append(self.engine.now - self._pending_update_at)
            self._pending_update_at = None

    def __repr__(self) -> str:
        return (
            f"BeaconingPeer(peer_id={self.peer_id!r}, seq={self._seq}, "
            f"running={self._running})"
        )
