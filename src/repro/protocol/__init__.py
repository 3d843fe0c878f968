"""Message-level discovery protocol on the event sim (lossy-wire realism).

The management plane elsewhere in this repo is driven by *function calls*:
a registration happens because some harness invoked ``register_peer``.
Every deployed discovery daemon instead lives on a lossy wire — periodic
UDP beacons, reply-on-hear acks, timeout-driven peer expiry, trusted /
banned peer lists (SNIPPETS.md Snippets 1–2) — and the paper never
measured how its tree-based scheme degrades when its own control messages
are lost, duplicated or late.  This package closes that gap, and it is the
one message stack: the paper's two-round join is a first beacon (the path
upload) whose ack carries the neighbour list, and leaving is silence.

* :class:`~repro.protocol.messages.Beacon` /
  :class:`~repro.protocol.messages.BeaconAck` — the wire vocabulary:
  sequence-numbered, path-carrying beacons and their acks, which carry
  the peer's neighbour list whenever they answer a registration;
* :class:`~repro.protocol.peer.BeaconingPeer` — the daemon side: periodic
  beacons, ack-driven retransmission with jittered exponential backoff
  under one deadline on simulated time per round;
  ``BeaconingPeer.arrive`` is a newcomer — probe, then beacon;
* :class:`~repro.protocol.host.ProtocolManagementHost` — the plane side:
  at-least-once dedup by beacon sequence number, register/refresh on
  hear, the list in the ack, TTL expiry of peers that stop beaconing, and
  a quarantine list for malformed / forged-path senders;
* :class:`~repro.protocol.simulation.ProtocolSimulation` — a deterministic
  driver wiring peers (or a scenario's arriving newcomers), host and a
  :class:`~repro.sim.network.SimulatedNetwork` (loss / duplication /
  reordering knobs, or a scripted ``fault_plan``: anything with
  ``faults_for(op_name)``) and reporting discovery latency (first beacon
  to neighbour list), staleness and maintenance traffic.
"""

from .messages import Beacon, BeaconAck, wire_size
from .host import HostStats, ProtocolManagementHost
from .peer import BeaconConfig, BeaconingPeer, PeerStats
from .simulation import (
    ProtocolMetrics,
    ProtocolSimulation,
    topology_from_paths,
)

__all__ = [
    "Beacon",
    "BeaconAck",
    "BeaconConfig",
    "BeaconingPeer",
    "HostStats",
    "PeerStats",
    "ProtocolManagementHost",
    "ProtocolMetrics",
    "ProtocolSimulation",
    "topology_from_paths",
    "wire_size",
]
