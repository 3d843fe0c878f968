"""The management plane behind a lossy wire.

:class:`ProtocolManagementHost` is the receive side of the beaconing
protocol: it attaches to a :class:`~repro.sim.network.SimulatedNetwork`
and turns heard :class:`~repro.protocol.messages.Beacon` messages into
management-plane state, the way a deployed discovery daemon turns UDP
datagrams into peer-table entries.  Five behaviours make the plane safe
under at-least-once delivery on an untrusted wire:

* **dedup** — beacons carry per-peer sequence numbers; a sequence number
  already applied is re-acked but never touches the plane again, so a
  duplicated beacon cannot double-register (the plane would otherwise
  unregister + reinsert, churning ``membership_generation`` and every
  cached neighbour list that references the peer).  Dedup protects a
  registration the plane *currently holds*: a daemon that comes back
  after expiry, counting from 0 again, is a newcomer;
* **ack after apply** — the ack for sequence ``n`` is sent only after
  the plane has applied beacon ``n``, and only for a peer the plane holds
  at that moment, so a peer that heard an ack knows it is registered;
* **the ack carries the answer** — the ack of a beacon that registered
  the peer or changed its path carries what ``register_peer`` returned,
  round 2 of the paper's join; a retransmission of that number is
  re-acked with the list read back from the plane (a cache hit), so a
  lost list heals like any lost ack.  Refresh acks stay the bare echo:
  what the beacon did to the plane decides, never a flag;
* **expiry** — a periodic sweep unregisters peers whose last beacon is
  older than the TTL (the silent-failure detector of the paper's setting:
  no unregister message is ever required, stopping beaconing is leaving);
* **quarantine** — a malformed message (not a beacon) or a forged beacon
  (claiming a peer id that does not match the sender, or carrying a path
  recorded for someone else) bans the sender: it is unregistered and its
  future traffic is dropped before any plane work.

A plane call that fails typed (:class:`~repro.exceptions.ShardUnavailableError`:
a shard is down or recovering) never reaches the event loop.  A beacon it
interrupts is not acked, records no registration and bans nobody, so the
peer's retransmit within its round budget heals it; an expiry or ban whose
``unregister_peer`` fails keeps the registration, and the next sweep tries
again.  Each such failure counts once in ``HostStats.plane_failures``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.path import PeerId, RouterPath
from ..exceptions import ShardUnavailableError
from ..sim.engine import Engine
from ..sim.events import TimerHandle
from ..sim.network import HostId, SimulatedNetwork
from .messages import Beacon, BeaconAck

ExpireHook = Callable[[PeerId, float], None]


@dataclass
class HostStats:
    """Receive-side protocol counters (one instance per host)."""

    beacons_received: int = 0
    beacons_registered: int = 0
    """Beacons that reached the plane as ``register_peer`` (new/changed path)."""
    beacons_refreshed: int = 0
    """Beacons that only refreshed the TTL (same path, already registered)."""
    duplicate_beacons: int = 0
    """Beacons deduplicated by sequence number (re-acked, no plane work): wire
    copies, retransmissions, a path's first number re-announced while unacked."""
    acks_sent: int = 0
    lists_sent: int = 0
    """Acks that carried a neighbour list (answers to a registration)."""
    peers_expired: int = 0
    peers_banned: int = 0
    banned_beacons_dropped: int = 0
    malformed_messages: int = 0
    plane_failures: int = 0
    """Plane calls that failed typed: a beacon left unacked, or an eviction
    left for the next sweep."""

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (experiment tables, benchmark metrics)."""
        return asdict(self)


@dataclass(slots=True)
class _Registration:
    """What the host remembers about one peer the plane holds through it."""

    seq: int  # newest sequence number applied
    heard_ms: float  # when a beacon carrying ``seq`` was last heard
    path: RouterPath  # what the plane holds for the peer
    answered_seq: int  # the number that registered ``path``: its acks carry the list


class ProtocolManagementHost:
    """Management-plane endpoint speaking the beaconing protocol.

    Parameters
    ----------
    host_id:
        Network identity the host attaches under (peers address acks come
        from it).
    engine, network:
        The simulation event loop and wire; the host schedules its expiry
        sweep on ``engine`` and sends acks through ``network``.
    server:
        The live management plane beacons are applied to.  Any
        ``ManagementPlaneBase`` works — single server or sharded plane.
    ttl_ms:
        A peer whose newest beacon is older than this is expired
        (unregistered) by the sweep.
    sweep_interval_ms:
        How often the expiry sweep runs; defaults to ``ttl_ms / 4`` so a
        stale entry outlives its TTL by at most a quarter of it.
    on_expire:
        Optional hook called as ``on_expire(peer_id, now_ms)`` after a
        peer is expired (experiments record staleness with it).
    """

    def __init__(
        self,
        host_id: HostId,
        engine: Engine,
        network: SimulatedNetwork,
        server: Any,
        ttl_ms: float,
        sweep_interval_ms: Optional[float] = None,
        on_expire: Optional[ExpireHook] = None,
    ) -> None:
        if ttl_ms <= 0:
            raise ValueError(f"ttl_ms must be positive, got {ttl_ms}")
        self.host_id = host_id
        self.engine = engine
        self.network = network
        self.server = server
        self.ttl_ms = float(ttl_ms)
        self.sweep_interval_ms = (
            float(sweep_interval_ms) if sweep_interval_ms is not None else self.ttl_ms / 4.0
        )
        if self.sweep_interval_ms <= 0:
            raise ValueError(f"sweep_interval_ms must be positive, got {sweep_interval_ms}")
        self.on_expire = on_expire
        self.stats = HostStats()
        self.banned: Set[HostId] = set()
        # Dropped on expiry and on a ban, sequence number included: a late
        # copy that resurrects an expired peer costs one more TTL, where
        # remembering the number left a restarted daemon acked and invisible
        # for as many rounds as its previous life had beaconed.
        self._registrations: Dict[PeerId, _Registration] = {}
        self._sweep_timer: Optional[TimerHandle] = None

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Schedule the periodic expiry sweep (idempotent)."""
        if self._sweep_timer is None or self._sweep_timer.cancelled:
            self._sweep_timer = self.engine.schedule(self.sweep_interval_ms, self._sweep)

    def stop(self) -> None:
        """Cancel the expiry sweep."""
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None

    # ------------------------------------------------------------------ receive

    def handle_message(self, sender: HostId, message: Any) -> None:
        """Network delivery entry point (``MessageHandler`` protocol)."""
        if sender in self.banned:
            # Quarantined senders never reach the plane — not even their
            # well-formed beacons.
            self.stats.banned_beacons_dropped += 1
            return
        if not isinstance(message, Beacon):
            self.stats.malformed_messages += 1
            self._ban(sender)
            return
        if message.peer_id != sender or message.path.peer_id != message.peer_id:
            # Forged: claiming someone else's identity, or re-announcing a
            # path recorded for a different peer.
            self._ban(sender)
            return
        try:
            self._apply_beacon(sender, message)
        except ShardUnavailableError:
            # The registration is recorded only after register_peer returns,
            # and nothing is acked: the peer retransmits.
            self.stats.plane_failures += 1

    def _apply_beacon(self, sender: HostId, beacon: Beacon) -> None:
        self.stats.beacons_received += 1
        peer_id = beacon.peer_id
        now = self.engine.now
        held = self._registrations.get(peer_id)
        if held is not None and not self.server.has_peer(peer_id):
            held = None  # the plane is shared: someone else unregistered the peer
        if held is not None and beacon.seq <= held.seq:
            # At-least-once duplicate (retransmit, wire duplication, or a
            # reordered late copy).  Re-ack so the sender stops resending,
            # but never touch the plane: dedup is what keeps duplicated
            # beacons from double-registering.
            self.stats.duplicate_beacons += 1
            if beacon.seq == held.seq:
                held.heard_ms = now
            neighbors = None
            if beacon.seq == held.answered_seq:
                neighbors = tuple(self.server.closest_peers(peer_id))
            self._ack(sender, beacon.seq, neighbors)
            return

        if held is not None and held.path == beacon.path:
            # Same path re-announced: pure TTL refresh, no plane churn (a
            # re-register would bump membership_generation for nothing).
            held.seq = beacon.seq
            held.heard_ms = now
            self.stats.beacons_refreshed += 1
            neighbors = None
        else:
            neighbors = tuple(self.server.register_peer(beacon.path))
            self._registrations[peer_id] = _Registration(beacon.seq, now, beacon.path, beacon.seq)
            self.stats.beacons_registered += 1
        # Ack only after the plane applied the beacon: acked => registered.
        self._ack(sender, beacon.seq, neighbors)

    def _ack(
        self, sender: HostId, seq: int, neighbors: Optional[Tuple[Tuple[PeerId, float], ...]]
    ) -> None:
        if not self.network.is_attached(sender):
            return
        self.network.send(self.host_id, sender, BeaconAck(sender, seq, neighbors))
        self.stats.acks_sent += 1
        if neighbors is not None:
            self.stats.lists_sent += 1

    # --------------------------------------------------------------- quarantine

    def _ban(self, sender: HostId) -> None:
        self.banned.add(sender)
        self.stats.peers_banned += 1
        # Quarantine also evicts any state the sender managed to register.
        self._evict(sender)

    def _evict(self, peer_id: PeerId) -> bool:
        """Take ``peer_id`` out of the plane and forget it; False if the plane failed typed.

        A failed eviction keeps the registration, which is what the next
        sweep retries.
        """
        if self.server.has_peer(peer_id):
            try:
                self.server.unregister_peer(peer_id)
            except ShardUnavailableError:
                self.stats.plane_failures += 1
                return False
        self._registrations.pop(peer_id, None)
        return True

    # ------------------------------------------------------------------- expiry

    def _sweep(self) -> None:
        self.expire_stale()
        self._sweep_timer = self.engine.schedule(self.sweep_interval_ms, self._sweep)

    def expire_stale(self) -> List[PeerId]:
        """Unregister every peer whose newest beacon is older than the TTL.

        Called by the periodic sweep; callable directly from tests and
        experiments.  Returns the expired peer ids (deterministic order).
        A banned sender whose eviction failed is evicted again, and is not
        counted as expired.
        """
        now = self.engine.now
        stale = [
            peer_id
            for peer_id, held in self._registrations.items()
            if now - held.heard_ms > self.ttl_ms or peer_id in self.banned
        ]
        expired = []
        for peer_id in stale:
            if not self._evict(peer_id) or peer_id in self.banned:
                continue
            expired.append(peer_id)
            self.stats.peers_expired += 1
            if self.on_expire is not None:
                self.on_expire(peer_id, now)
        return expired

    # -------------------------------------------------------------------- views

    def is_live(self, peer_id: PeerId) -> bool:
        """True if the peer is currently registered via the protocol."""
        return peer_id in self._registrations and self.server.has_peer(peer_id)

    def last_heard(self, peer_id: PeerId) -> Optional[float]:
        """Simulated time of the peer's newest applied/refreshed beacon."""
        held = self._registrations.get(peer_id)
        return held.heard_ms if held is not None else None

    def __repr__(self) -> str:
        return (
            f"ProtocolManagementHost(host_id={self.host_id!r}, "
            f"live={len(self._registrations)}, banned={len(self.banned)})"
        )
