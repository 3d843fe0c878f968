"""Wire vocabulary of the beaconing discovery protocol.

Two message types cross the simulated network:

* :class:`Beacon` — peer → management host.  Carries the peer's current
  router path and a per-peer monotonically increasing sequence number.
  Beacons double as registration (first beacon heard), refresh (same
  path re-announced before the TTL runs out) and update (new path after
  a handover).  Retransmissions of an unacked round reuse the round's
  sequence number, which is what lets the receiver deduplicate
  at-least-once delivery; the number that first announced a path is
  reused by the rounds after it too, until it is acked.
* :class:`BeaconAck` — host → peer.  Echoes the sequence number so the
  sender can stop retransmitting that round.  An ack is only sent after
  the plane has applied the beacon, so "acked" implies "registered".
  The ack of a beacon that registered the peer or changed its path is
  also round 2 of the paper's join: it carries the peer's neighbour list.

A join is a first beacon; leaving is silence.  Messages are named tuples:
immutable, and built by one tuple allocation (a beacon checks its sequence
number first).  Their lowercased class names (``beacon`` / ``beaconack``)
are the op names a :class:`~repro.sim.network.NetworkFaultPlan` targets,
via :func:`repro.sim.network.message_op_name`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from ..core.path import PeerId, RouterPath

# Synthetic wire-size model for maintenance-traffic accounting.  The paper's
# control messages are tiny UDP datagrams: a fixed header plus one entry per
# path hop for beacons and per neighbour for acks that carry a list.
# Absolute bytes matter less than how traffic scales with beacon rate and
# path length, so a simple affine model is enough.
_HEADER_BYTES = 28  # IP + UDP headers
_BEACON_BASE_BYTES = 24  # peer id, landmark id, seq, flags
_BEACON_HOP_BYTES = 8  # one router id per hop
_ACK_BYTES = 12  # peer id echo + seq
_ACK_NEIGHBOR_BYTES = 8  # one peer id + its distance per list entry


class _BeaconFields(NamedTuple):
    peer_id: PeerId
    seq: int
    path: RouterPath


class Beacon(_BeaconFields):
    """Peer → host: announce or refresh the peer's path registration."""

    __slots__ = ()

    def __new__(cls, peer_id: PeerId, seq: int, path: RouterPath) -> "Beacon":
        if seq < 0:
            raise ValueError(f"beacon sequence numbers start at 0, got {seq}")
        return tuple.__new__(cls, (peer_id, seq, path))


class BeaconAck(NamedTuple):
    """Host → peer: the beacon with this sequence number has been applied."""

    peer_id: PeerId
    seq: int
    neighbors: Optional[Tuple[Tuple[PeerId, float], ...]] = None
    """The peer's closest peers, as the plane's own ``(peer, distance)``
    pairs, when the acked beacon registered the peer or changed its path.
    ``None`` — no list attached, a refresh — is not ``()``, which tells the
    first peer of a population that it has no neighbours yet."""


def wire_size(message: object) -> int:
    """Synthetic on-the-wire size in bytes of one protocol message.

    Deterministic and cheap; used for the maintenance-traffic counters
    (bytes per peer per second), never for delivery decisions.
    """
    if isinstance(message, Beacon):
        return _HEADER_BYTES + _BEACON_BASE_BYTES + _BEACON_HOP_BYTES * message.path.hop_count
    if isinstance(message, BeaconAck):
        return _HEADER_BYTES + _ACK_BYTES + _ACK_NEIGHBOR_BYTES * len(message.neighbors or ())
    raise TypeError(f"not a protocol message: {message!r}")
