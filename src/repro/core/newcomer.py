"""Client side of the paper's two-round join: measure, upload one path, get the list.

A :class:`NewcomerClient` models what a joining peer does:

1. hold the landmark list — bootstrap configuration, handed over with the
   management server's address (:func:`landmark_descriptors`);
2. ping every landmark — one echo RTT each, all sent at once — to find the
   closest one *in terms of latency*: the paper's newcomer targets "its
   closest landmark" (the lowest RTT, ties broken by ``repr`` of the
   landmark id);
3. run the traceroute-like tool towards that one landmark and drop the
   anonymous hops from the result;
4. upload the path and receive the recommended neighbour list.

Steps 2–3 are :meth:`NewcomerClient.measure`: ``len(landmarks)`` pings and
exactly one traceroute.  Step 4 has two carriers.  :meth:`NewcomerClient.join`
calls ``server.register_peer`` in process (as the experiments do) and records
a :class:`JoinTranscript` whose timings are modelled from what was measured —
the slowest ping, :data:`PROBE_COST_MS` per traceroute hop, one server round
trip (see :meth:`NewcomerClient.probe_delay_ms`).  On the wire
(:meth:`repro.protocol.peer.BeaconingPeer.arrive`) the path is a first beacon
and the list rides its ack, so the same delay is read off the sim clock;
``join`` is the reference the wire join is proved against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import LandmarkError, TracerouteError
from ..routing.path_inference import clean_traceroute
from ..routing.traceroute import TracerouteSimulator
from .management_server import ManagementServer
from .path import LandmarkId, NodeId, PeerId, RouterPath

#: Modelled wall-clock cost of one traceroute hop probe (a TTL answered or timed out).
PROBE_COST_MS = 20.0


@dataclass(frozen=True)
class LandmarkDescriptor:
    """What a newcomer needs to know about one landmark."""

    landmark_id: LandmarkId
    router: NodeId


@dataclass
class JoinTranscript:
    """Timings of one in-process join, used by setup-delay experiments.

    Times are in simulated milliseconds relative to the join start.
    """

    peer_id: PeerId
    landmark_id: Optional[LandmarkId] = None
    probe_started_at: Optional[float] = None
    probe_finished_at: Optional[float] = None
    report_sent_at: Optional[float] = None
    neighbors_received_at: Optional[float] = None

    @property
    def setup_delay(self) -> Optional[float]:
        """Total time from join start to neighbour list received."""
        if self.probe_started_at is None or self.neighbors_received_at is None:
            return None
        return self.neighbors_received_at - self.probe_started_at


@dataclass
class JoinResult:
    """Outcome of one join: the plane's answer plus the timing transcript."""

    peer_id: PeerId
    landmark_id: LandmarkId
    path: RouterPath
    neighbors: List[Tuple[PeerId, float]]
    """``(peer, estimated distance)`` pairs exactly as ``register_peer`` returned them."""
    transcript: JoinTranscript

    def neighbor_ids(self) -> List[PeerId]:
        """Recommended neighbour identifiers, closest first."""
        return [peer for peer, _ in self.neighbors]


class NewcomerClient:
    """Implements the peer side of the join protocol.

    Parameters
    ----------
    peer_id:
        Identifier of the joining peer.
    access_router:
        Router the peer's host is attached to (its first hop).
    traceroute:
        Simulated traceroute tool operating on the router topology.
    """

    def __init__(
        self, peer_id: PeerId, access_router: NodeId, traceroute: TracerouteSimulator
    ) -> None:
        self.peer_id = peer_id
        self.access_router = access_router
        self.traceroute = traceroute

    # ------------------------------------------------------------- selection

    def select_landmark(
        self, landmarks: Sequence[LandmarkDescriptor]
    ) -> Tuple[LandmarkDescriptor, Dict[LandmarkId, float]]:
        """Ping every landmark, pick the closest, and return the measured ping RTTs.

        Each landmark costs one echo (:meth:`TracerouteSimulator.ping`), never
        a traceroute; landmarks beyond the tool's ``max_ttl`` are left out.
        The lowest RTT wins, ties broken by ``repr`` of the landmark id.  The
        returned dict maps landmark id → ping RTT and feeds
        :meth:`probe_delay_ms`; it is empty when there was nothing to choose
        (a single landmark).
        """
        if not landmarks:
            raise LandmarkError("the management server announced no landmarks")
        if len(landmarks) == 1:
            return landmarks[0], {}

        ping = self.traceroute.ping
        source = self.access_router
        ping_rtts: Dict[LandmarkId, float] = {}
        best: Optional[LandmarkDescriptor] = None
        best_rtt = 0.0
        for descriptor in landmarks:
            rtt = ping(source, descriptor.router)
            if rtt is None:
                continue
            ping_rtts[descriptor.landmark_id] = rtt
            if (
                best is None
                or rtt < best_rtt
                or (rtt == best_rtt and repr(descriptor.landmark_id) < repr(best.landmark_id))
            ):
                best, best_rtt = descriptor, rtt
        if best is None:
            raise TracerouteError(
                f"peer {self.peer_id!r} could not reach any landmark from router "
                f"{self.access_router!r}"
            )
        return best, ping_rtts

    # ------------------------------------------------------------------ probe

    def probe_landmark(self, landmark: LandmarkDescriptor) -> Tuple[RouterPath, int]:
        """Run the join's one traceroute, towards ``landmark``, and clean the path.

        Returns the cleaned path (anonymous hops dropped; its ``rtt_ms`` is
        the trace's own landmark RTT, ``None`` from the landmark's own
        router, where the path is that router alone) and the number of TTLs
        the tool probed, anonymous hops included, which is what the
        traceroute cost in time.
        """
        result = self.traceroute.trace(self.access_router, landmark.router)
        routers = clean_traceroute(result)
        # The peer's own access router is the first hop of its path; the
        # traceroute starts *from* that router, so prepend it explicitly.  A
        # reached trace is empty only from the landmark's own router, whose
        # path is that one router.
        if not routers or routers[0] != self.access_router:
            routers.insert(0, self.access_router)
        path = RouterPath.from_routers(
            peer_id=self.peer_id,
            landmark_id=landmark.landmark_id,
            routers=routers,
            rtt_ms=result.destination_rtt_ms(),
        )
        return path, result.hop_count

    def probe_delay_ms(self, ping_rtts: Dict[LandmarkId, float], probed_hops: int) -> float:
        """Modelled time from the first ping to the end of the traceroute.

        The pings go out together, so they cost the slowest echo; the
        traceroute then probes one TTL after another at :data:`PROBE_COST_MS`
        each, and an unanswered TTL costs its timeout like any other.  The
        join's setup delay is this plus one round trip to the server.
        """
        return max(ping_rtts.values(), default=0.0) + PROBE_COST_MS * probed_hops

    def measure(self, landmarks: Sequence[LandmarkDescriptor]) -> Tuple[RouterPath, float]:
        """The measuring half of a join: the path to upload and how long it took to get."""
        chosen, ping_rtts = self.select_landmark(landmarks)
        path, probed_hops = self.probe_landmark(chosen)
        return path, self.probe_delay_ms(ping_rtts, probed_hops)

    # ------------------------------------------------------------------- join

    def join(
        self,
        server: ManagementServer,
        start_time_ms: float = 0.0,
        landmarks: Optional[Sequence[LandmarkDescriptor]] = None,
    ) -> JoinResult:
        """Run the full two-round join against ``server``, in process.

        ``landmarks`` is the server's landmark list when the caller already
        holds it (a scenario joining many peers); by default it is fetched.
        """
        if landmarks is None:
            landmarks = landmark_descriptors(server)
        path, probe_delay = self.measure(landmarks)
        neighbors = server.register_peer(path)

        probe_finished_at = start_time_ms + probe_delay
        server_rtt = path.rtt_ms if path.rtt_ms is not None else 10.0
        transcript = JoinTranscript(
            peer_id=self.peer_id,
            landmark_id=path.landmark_id,
            probe_started_at=start_time_ms,
            probe_finished_at=probe_finished_at,
            report_sent_at=probe_finished_at,
            neighbors_received_at=probe_finished_at + server_rtt,
        )
        return JoinResult(
            peer_id=self.peer_id,
            landmark_id=path.landmark_id,
            path=path,
            neighbors=neighbors,
            transcript=transcript,
        )


def landmark_descriptors(server: ManagementServer) -> List[LandmarkDescriptor]:
    """The landmark list ``server`` hands a newcomer at bootstrap."""
    return [
        LandmarkDescriptor(landmark_id=lid, router=server.landmark_router(lid))
        for lid in server.landmarks()
    ]
