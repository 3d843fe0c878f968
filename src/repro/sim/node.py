"""Simulated protocol endpoints (hosts) for the event-driven join protocol.

Two node types are provided:

* :class:`ServerNode` wraps a :class:`~repro.core.management_server.ManagementServer`
  so it can be driven by messages arriving over the simulated network;
* :class:`PeerNode` runs the newcomer side: on ``start_join`` it pings the
  landmarks and traceroutes the closest (one timed activity, as long as
  :meth:`NewcomerClient.probe_delay_ms
  <repro.core.newcomer.NewcomerClient.probe_delay_ms>` says), sends the path
  report, and records when the neighbour list arrives — giving an end-to-end
  *setup delay* whose server round trips cross the simulated network, where
  the in-process client adds the landmark RTT instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from ..core.management_server import ManagementServer
from ..core.newcomer import NewcomerClient
from ..core.path import RouterPath
from ..core.protocol import (
    JoinRequest,
    JoinResponse,
    LandmarkDescriptor,
    LeaveNotice,
    NeighborRecommendation,
    NeighborResponse,
    PathReport,
)
from ..exceptions import ProtocolError
from ..routing.traceroute import TracerouteSimulator
from .engine import Engine
from .network import SimulatedNetwork

HostId = Hashable


class ServerNode:
    """The management server as a network endpoint."""

    def __init__(
        self,
        host_id: HostId,
        server: ManagementServer,
        network: SimulatedNetwork,
        processing_time_ms: float = 1.0,
    ) -> None:
        self.host_id = host_id
        self.server = server
        self.network = network
        self.processing_time_ms = float(processing_time_ms)
        self.handled_messages = 0

    def handle_message(self, sender: HostId, message: Any) -> None:
        """Dispatch protocol messages to the wrapped management server."""
        self.handled_messages += 1
        if isinstance(message, JoinRequest):
            response = JoinResponse.for_landmarks(
                message.peer_id,
                [(lid, self.server.landmark_router(lid)) for lid in self.server.landmarks()],
            )
            self.network.send(self.host_id, sender, response)
        elif isinstance(message, PathReport):
            pairs = self.server.register_peer(message.path)
            response = NeighborResponse.from_pairs(message.peer_id, pairs)
            self.network.send(self.host_id, sender, response)
        elif isinstance(message, LeaveNotice):
            if self.server.has_peer(message.peer_id):
                self.server.unregister_peer(message.peer_id)
        else:
            raise ProtocolError(f"server received an unexpected message: {message!r}")


@dataclass
class PeerJoinRecord:
    """Timing and outcome of one simulated peer join."""

    peer_id: HostId
    started_at: float
    landmark_list_received_at: Optional[float] = None
    probe_finished_at: Optional[float] = None
    neighbors_received_at: Optional[float] = None
    neighbors: List[NeighborRecommendation] = field(default_factory=list)

    @property
    def setup_delay(self) -> Optional[float]:
        """Join start to neighbour list received (simulated ms)."""
        if self.neighbors_received_at is None:
            return None
        return self.neighbors_received_at - self.started_at

    @property
    def completed(self) -> bool:
        """True if the join finished."""
        return self.neighbors_received_at is not None


class PeerNode:
    """The newcomer side of the join protocol as a network endpoint."""

    def __init__(
        self,
        host_id: HostId,
        access_router: Hashable,
        server_host: HostId,
        engine: Engine,
        network: SimulatedNetwork,
        traceroute: TracerouteSimulator,
        per_hop_probe_ms: float = 20.0,
        landmark_selection: str = "closest_rtt",
    ) -> None:
        self.host_id = host_id
        self.access_router = access_router
        self.server_host = server_host
        self.engine = engine
        self.network = network
        self.client = NewcomerClient(
            peer_id=host_id,
            access_router=access_router,
            traceroute=traceroute,
            landmark_selection=landmark_selection,
            probe_cost_ms=per_hop_probe_ms,
        )
        self.record: Optional[PeerJoinRecord] = None
        self.path: Optional[RouterPath] = None

    # ------------------------------------------------------------------ join

    def start_join(self) -> PeerJoinRecord:
        """Begin the join: ask the server for its landmark list."""
        self.record = PeerJoinRecord(peer_id=self.host_id, started_at=self.engine.now)
        self.network.send(self.host_id, self.server_host, JoinRequest(peer_id=self.host_id))
        return self.record

    def handle_message(self, sender: HostId, message: Any) -> None:
        """Progress the join state machine on each server response."""
        if self.record is None:
            raise ProtocolError(f"peer {self.host_id!r} received a message before joining")
        if isinstance(message, JoinResponse):
            self.record.landmark_list_received_at = self.engine.now
            self._probe_and_report(list(message.landmarks))
        elif isinstance(message, NeighborResponse):
            self.record.neighbors_received_at = self.engine.now
            self.record.neighbors = list(message.neighbors)
        else:
            raise ProtocolError(f"peer {self.host_id!r} received an unexpected message: {message!r}")

    def _probe_and_report(self, landmarks: List[LandmarkDescriptor]) -> None:
        """Model the probing time (pings, then one traceroute), then upload the path report."""
        chosen, ping_rtts = self.client.select_landmark(landmarks)
        self.path, probed_hops = self.client.probe_landmark(chosen)
        probe_duration = self.client.probe_delay_ms(ping_rtts, probed_hops)

        def report() -> None:
            assert self.record is not None and self.path is not None
            self.record.probe_finished_at = self.engine.now
            self.network.send(
                self.host_id, self.server_host, PathReport(peer_id=self.host_id, path=self.path)
            )

        self.engine.schedule(probe_duration, report, label=f"probe:{self.host_id}")

    def leave(self) -> None:
        """Announce departure to the server and detach from the network."""
        self.network.send(self.host_id, self.server_host, LeaveNotice(peer_id=self.host_id))
        self.network.detach_host(self.host_id)
