"""Deterministic driver wiring peers, plane and wire together.

:class:`ProtocolSimulation` is the harness every consumer of the
protocol layer shares — the oracle tests, the lossy-wire experiments
and the ``protocol-lossy`` benchmark.  Given a set of
:class:`~repro.core.path.RouterPath` (for example
:func:`~repro.workloads.synthetic.synthetic_paths`), it builds the router topology those
paths imply, stands up a :class:`~repro.sim.network.SimulatedNetwork`
with the requested impairments, attaches one
:class:`~repro.protocol.peer.BeaconingPeer` per path plus a
:class:`~repro.protocol.host.ProtocolManagementHost` wrapping the
management plane, runs the event engine for a scripted duration and
reports :class:`ProtocolMetrics` — discovery latency, staleness,
maintenance traffic and the full counter set.  Same seed, same report.
:meth:`ProtocolSimulation.over_scenario` stands the same harness up over
a built scenario's router map and plane instead, with arriving newcomers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Sequence

from ..core.management_server import ManagementServer
from ..core.path import NodeId, PeerId, RouterPath
from ..metrics.latency_stats import DelaySummary
from ..routing.distance_engine import HopDistanceEngine
from ..sim.engine import Engine
from ..sim.network import SimulatedNetwork
from ..sim.rng import derive_seed
from ..topology.graph import Graph
from .host import ProtocolManagementHost
from .messages import wire_size
from .peer import BeaconConfig, BeaconingPeer

if TYPE_CHECKING:
    from ..core.newcomer import LandmarkDescriptor, NewcomerClient
    from ..workloads.scenarios import Scenario

DEFAULT_HOP_LATENCY_MS = 5.0
MANAGEMENT_HOST_ID = "mgmt-host"


def topology_from_paths(
    paths: Iterable[RouterPath], hop_latency_ms: float = DEFAULT_HOP_LATENCY_MS
) -> Graph:
    """Router topology implied by a set of peer-to-landmark paths.

    Every consecutive router pair on every path becomes an edge with a
    uniform ``latency`` weight, so the network's one-way delay between a
    peer and the management host is proportional to the peer's hop count
    — the same distance model the plane estimates with.  The caller is
    responsible for the paths forming one connected component (the
    synthetic populations all traverse a shared core).
    """
    if hop_latency_ms <= 0:
        raise ValueError(f"hop_latency_ms must be positive, got {hop_latency_ms}")
    graph = Graph(name="protocol-topology")
    for path in paths:
        for router in path.routers:
            if not graph.has_node(router):
                graph.add_node(router)
        for u, v in zip(path.routers, path.routers[1:]):
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, latency=hop_latency_ms)
    return graph


def _summary(samples: Sequence[float]) -> Optional[DelaySummary]:
    return DelaySummary.from_samples(samples) if samples else None


@dataclass
class ProtocolMetrics:
    """One protocol-simulation run, summarised.

    All latencies are simulated milliseconds; traffic counters cover the
    whole run (beacons *and* acks, including dropped and duplicated
    copies — everything that crossed the wire).
    """

    duration_ms: float
    peers: int
    discovered_peers: int
    live_peers: int
    messages_sent: int
    maintenance_bytes: int
    beacons_sent: int
    retransmissions: int
    dropped_messages: int
    duplicated_messages: int
    reordered_messages: int
    discovery_latency: Optional[DelaySummary]
    staleness: Optional[DelaySummary]
    host_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def messages_per_sec(self) -> float:
        """Wire messages per simulated second."""
        if self.duration_ms <= 0:
            return 0.0
        return self.messages_sent / (self.duration_ms / 1000.0)

    @property
    def maintenance_bytes_per_peer_s(self) -> float:
        """Maintenance-traffic bytes per peer per simulated second."""
        if self.duration_ms <= 0 or self.peers == 0:
            return 0.0
        return self.maintenance_bytes / self.peers / (self.duration_ms / 1000.0)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict for experiment tables and benchmark metrics."""
        return {
            "duration_ms": self.duration_ms,
            "peers": self.peers,
            "discovered_peers": self.discovered_peers,
            "live_peers": self.live_peers,
            "messages_sent": self.messages_sent,
            "messages_per_sec": round(self.messages_per_sec, 3),
            "maintenance_bytes": self.maintenance_bytes,
            "maintenance_bytes_per_peer_s": round(self.maintenance_bytes_per_peer_s, 3),
            "beacons_sent": self.beacons_sent,
            "retransmissions": self.retransmissions,
            "dropped_messages": self.dropped_messages,
            "duplicated_messages": self.duplicated_messages,
            "reordered_messages": self.reordered_messages,
            "discovery_p50_ms": self.discovery_latency.median if self.discovery_latency else None,
            "discovery_p99_ms": self.discovery_latency.p99 if self.discovery_latency else None,
            "staleness_p50_ms": self.staleness.median if self.staleness else None,
            "staleness_p99_ms": self.staleness.p99 if self.staleness else None,
            **self.host_counters,
        }


class ProtocolSimulation:
    """Everything needed to run the beaconing protocol over a lossy wire.

    Parameters
    ----------
    paths:
        One :class:`RouterPath` per peer; the router topology is derived
        from them (:func:`topology_from_paths`).
    server:
        Management plane to wrap; by default a fresh
        :class:`ManagementServer` with every landmark appearing in
        ``paths`` registered at its landmark-side router.
    beacon_config:
        Shared :class:`BeaconConfig` for every peer.
    ttl_ms:
        Host-side expiry TTL; defaults to ``3 × beacon_interval`` (a peer
        survives two consecutive lost rounds before it is expired).
    start_times_ms:
        Per-peer beaconing start times (aligned with ``paths``); defaults
        to deterministically staggering all starts across one beacon
        interval, which is how real daemons desynchronise.
    loss_probability / duplicate_probability / reorder_probability /
    jitter_ms / fault_plan:
        Passed through to :class:`SimulatedNetwork` (a fault plan is
        anything with ``faults_for(op_name)``).
    seed:
        Master seed; the network and every peer derive their own streams
        from it.
    """

    def __init__(
        self,
        paths: Sequence[RouterPath],
        server: Optional[Any] = None,
        beacon_config: Optional[BeaconConfig] = None,
        ttl_ms: Optional[float] = None,
        start_times_ms: Optional[Sequence[float]] = None,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        reorder_probability: float = 0.0,
        jitter_ms: float = 0.0,
        fault_plan: Optional[Any] = None,
        seed: int = 0,
        hop_latency_ms: float = DEFAULT_HOP_LATENCY_MS,
        neighbor_set_size: int = 5,
    ) -> None:
        if not paths:
            raise ValueError("a protocol simulation needs at least one peer path")
        if start_times_ms is not None and len(start_times_ms) != len(paths):
            raise ValueError(
                f"start_times_ms has {len(start_times_ms)} entries for {len(paths)} paths"
            )
        graph = topology_from_paths(paths, hop_latency_ms=hop_latency_ms)
        # The management host lives at the landmark-side router of the
        # first path — the "server sits next to the landmark" picture the
        # paper draws.
        host_router = paths[0].landmark_router
        # One shared distance engine, with the management host's weighted
        # tree built up front: latency is symmetric on the undirected
        # topology, so the network answers every peer<->host lookup from
        # this one tree instead of running a Dijkstra per peer access router.
        distances = HopDistanceEngine(graph)
        distances.tree(host_router, weighted=True)
        network = SimulatedNetwork(
            Engine(),
            graph,
            distance_engine=distances,
            jitter_ms=jitter_ms,
            loss_probability=loss_probability,
            duplicate_probability=duplicate_probability,
            reorder_probability=reorder_probability,
            seed=derive_seed(seed, "protocol-network"),
            fault_plan=fault_plan,
        )
        owns_server = server is None
        if owns_server:
            server = ManagementServer(neighbor_set_size=neighbor_set_size)
            for path in paths:
                if path.landmark_id not in server.landmarks():
                    server.register_landmark(path.landmark_id, path.landmark_router)
        self._stand_up(network, host_router, server, owns_server, beacon_config, ttl_ms)

        if start_times_ms is None:
            interval = self.config.beacon_interval_ms
            start_times_ms = [interval * index / len(paths) for index in range(len(paths))]
        for index, path in enumerate(paths):
            peer = BeaconingPeer(
                path.peer_id,
                self.engine,
                self.network,
                MANAGEMENT_HOST_ID,
                path,
                config=self.config,
                seed=derive_seed(seed, f"protocol-peer-{index}"),
            )
            self.peers[path.peer_id] = peer
            self.network.attach_host(path.peer_id, path.access_router, peer)

        # One event at time 0, not a timer per peer made here: the timers
        # still follow the script's events and the host's sweep in scheduling
        # order, and a simulation built but never run holds none of them.
        self.engine.schedule_at(0.0, self._start_peers, start_times_ms)

    def _stand_up(
        self,
        network: SimulatedNetwork,
        host_router: NodeId,
        server: Any,
        owns_server: bool,
        beacon_config: Optional[BeaconConfig],
        ttl_ms: Optional[float],
    ) -> None:
        """Every attribute, and the host on ``network``; each way in adds its peers."""
        self.config = beacon_config if beacon_config is not None else BeaconConfig()
        self.ttl_ms = float(ttl_ms) if ttl_ms is not None else 3.0 * self.config.beacon_interval_ms
        self.network = network
        self.engine = network.engine
        self.server = server
        self._owns_server = owns_server
        self.host = ProtocolManagementHost(
            MANAGEMENT_HOST_ID,
            self.engine,
            self.network,
            self.server,
            ttl_ms=self.ttl_ms,
        )
        self.network.attach_host(MANAGEMENT_HOST_ID, host_router, self.host)
        self.peers: Dict[PeerId, BeaconingPeer] = {}

    def _start_peers(self, start_times_ms: Sequence[float]) -> None:
        for peer, start_at in zip(self.peers.values(), start_times_ms):
            peer.start(initial_delay_ms=start_at)

    @classmethod
    def over_scenario(
        cls,
        scenario: "Scenario",
        arrivals_ms: Mapping[PeerId, float],
        beacon_config: Optional[BeaconConfig] = None,
        ttl_ms: Optional[float] = None,
        seed: int = 0,
        **impairments: Any,
    ) -> "ProtocolSimulation":
        """Stand the protocol up over a built scenario: its peers join on the wire.

        The wire is the scenario's router map (latencies from its distance
        engine), the plane its management server, and the host sits beside
        its first landmark.  Each peer of ``arrivals_ms`` (peer id → arrival
        time) arrives then through :meth:`BeaconingPeer.arrive` — measuring
        with the scenario's traceroute tool, in arrival order — and is in
        ``peers`` from that moment.  ``impairments`` are the constructor's
        loss / duplication / reordering / jitter / fault-plan arguments.
        """
        # __init__ is the way in from paths; _stand_up sets every attribute.
        sim = cls.__new__(cls)
        network = SimulatedNetwork(
            Engine(),
            scenario.router_map.graph,
            distance_engine=scenario.distance_engine,
            seed=derive_seed(seed, "protocol-network"),
            **impairments,
        )
        host_router = scenario.landmark_set.routers()[0]
        sim._stand_up(network, host_router, scenario.server, False, beacon_config, ttl_ms)

        for peer_id, at_ms in arrivals_ms.items():  # an unknown peer id fails here, not mid-run
            client = scenario.newcomer(peer_id)
            peer_seed = derive_seed(seed, f"protocol-peer-{peer_id}")
            sim.engine.schedule_at(
                at_ms, sim._arrive, client, scenario.bootstrap_landmarks, peer_seed
            )
        return sim

    def _arrive(
        self,
        client: "NewcomerClient",
        landmarks: Sequence["LandmarkDescriptor"],
        peer_seed: int,
    ) -> None:
        self.peers[client.peer_id] = BeaconingPeer.arrive(
            client, landmarks, self.network, MANAGEMENT_HOST_ID, config=self.config, seed=peer_seed
        )

    # ---------------------------------------------------------------- scripting

    def schedule_path_update(self, peer_id: PeerId, at_ms: float, path: RouterPath) -> None:
        """Script a mobility handover: ``peer_id`` adopts ``path`` at ``at_ms``.

        The new path's routers must already exist in the topology (pass
        every post-handover path to the constructor, or keep handovers
        within the derived topology).
        """
        self.engine.schedule_at(at_ms, self._hand_over, self.peers[peer_id], path)

    def _hand_over(self, peer: BeaconingPeer, path: RouterPath) -> None:
        if self.network.is_attached(peer.peer_id):
            # Re-attach at the new access router: a new epoch, so
            # messages in flight to the old attachment are dropped.
            self.network.attach_host(peer.peer_id, path.access_router, peer)
        peer.update_path(path)

    def schedule_stop(self, peer_id: PeerId, at_ms: float) -> None:
        """Script a silent failure: the peer stops beaconing and detaches at ``at_ms``."""
        self.engine.schedule_at(at_ms, self._stop_peer, self.peers[peer_id])

    def _stop_peer(self, peer: BeaconingPeer) -> None:
        peer.stop()
        self.network.detach_host(peer.peer_id)

    # ---------------------------------------------------------------------- run

    def run(self, duration_ms: float) -> ProtocolMetrics:
        """Start the host's sweep, run the engine to ``duration_ms``, summarise."""
        if duration_ms <= 0:
            raise ValueError(f"duration_ms must be positive, got {duration_ms}")
        self.host.start()
        self.engine.run(until=duration_ms)
        return self.collect_metrics(duration_ms)

    def collect_metrics(self, duration_ms: float) -> ProtocolMetrics:
        """Summarise the run so far (callable mid-run from experiments)."""
        discovery = [
            peer.stats.discovery_latency_ms
            for peer in self.peers.values()
            if peer.stats.discovery_latency_ms is not None
        ]
        staleness = [
            sample for peer in self.peers.values() for sample in peer.stats.update_latencies_ms
        ]
        return ProtocolMetrics(
            duration_ms=duration_ms,
            peers=len(self.peers),
            discovered_peers=len(discovery),
            live_peers=sum(
                1 for peer_id in self.peers if self.host.is_live(peer_id)
            ),
            messages_sent=len(self.network.deliveries),
            maintenance_bytes=sum(
                wire_size(record.message) for record in self.network.deliveries
            ),
            beacons_sent=sum(peer.stats.beacons_sent for peer in self.peers.values()),
            retransmissions=sum(peer.stats.retransmissions for peer in self.peers.values()),
            dropped_messages=self.network.dropped_messages,
            duplicated_messages=self.network.duplicated_messages,
            reordered_messages=self.network.reordered_messages,
            discovery_latency=_summary(discovery),
            staleness=_summary(staleness),
            host_counters=self.host.stats.as_dict(),
        )

    def close(self) -> None:
        """Release the plane this simulation built; one it was handed is its owner's."""
        if self._owns_server:
            self.server.close()
