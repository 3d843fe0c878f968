"""Scenario builder: the paper's simulation setup as one reusable object.

The paper's evaluation loop is always the same skeleton:

1. generate (or load) a router-level map;
2. attach ``n`` peers to degree-1 routers;
3. attach a few landmarks to medium-degree routers;
4. have every peer join through the management server;
5. compare the returned neighbour sets against the brute-force optimum and a
   random choice.

:class:`Scenario` encapsulates steps 1–4 with explicit, reproducible
configuration, and exposes the pieces (server, oracle, traceroute, peer
attachment map) the experiments and examples need for step 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Union

from .._validation import coerce_seed, require_positive_int
from ..baselines.brute_force import BruteForceOracle
from ..baselines.random_selection import RandomSelection
from ..core.management_server import ManagementServer
from ..core.remote import BACKENDS, shard_factory_for
from ..core.sharded import ShardedManagementServer
from ..core.newcomer import (
    JoinResult,
    LandmarkDescriptor,
    NewcomerClient,
    landmark_descriptors,
)
from ..exceptions import ConfigurationError
from ..landmarks.manager import LandmarkSet
from ..landmarks.placement import place_on_router_map
from ..routing.distance_engine import HopDistanceEngine
from ..routing.route_table import RouteTable
from ..routing.traceroute import TracerouteConfig, TracerouteSimulator
from ..sim.rng import RandomStreams
from ..topology.internet_mapper import RouterMap, RouterMapConfig, generate_router_map

PeerId = Hashable
NodeId = Hashable


@dataclass
class ScenarioConfig:
    """Everything needed to build one evaluation scenario."""

    peer_count: int = 600
    """Number of peers to attach (the paper sweeps 600–1400)."""

    landmark_count: int = 10
    """Number of landmarks ("few landmarks" in the paper)."""

    neighbor_set_size: int = 5
    """Neighbours returned per peer (k)."""

    landmark_strategy: str = "medium_degree"
    """Placement strategy (the paper's default is medium-degree routers)."""

    router_map_config: Optional[RouterMapConfig] = None
    """Router map parameters; None uses the default ~4000-router map."""

    traceroute_config: Optional[TracerouteConfig] = None
    """Traceroute imperfections; None means a perfect tool."""

    maintain_cache: bool = True
    """Whether the management server keeps per-peer neighbour caches."""

    shard_count: Optional[int] = None
    """Partition landmarks across this many management-plane shards
    (:class:`~repro.core.sharded.ShardedManagementServer`); None keeps the
    paper's single :class:`~repro.core.management_server.ManagementServer`.
    Results are identical either way — sharding is an operational choice."""

    backend: str = "inline"
    """Where the shards live: ``"inline"`` keeps every shard in this process;
    ``"process"`` forks one child shard server per shard; ``"socket"`` runs
    every shard as a connection-scoped shard on its own loopback shard
    server, served by one thread per connection in this process — both behind
    :class:`~repro.core.socket_backend.SocketShardBackend`, the one shard
    transport.  Remote backends require ``shard_count``.  Results are
    byte-identical in every case; call :meth:`Scenario.close` when done so
    child processes, connections and loopback servers are reaped."""

    seed: Optional[int] = None
    """Master seed; every random decision derives from it."""

    def __post_init__(self) -> None:
        require_positive_int(self.peer_count, "peer_count")
        require_positive_int(self.landmark_count, "landmark_count")
        require_positive_int(self.neighbor_set_size, "neighbor_set_size")
        if self.shard_count is not None:
            require_positive_int(self.shard_count, "shard_count")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.backend in ("process", "socket") and self.shard_count is None:
            raise ConfigurationError(f"backend={self.backend!r} requires shard_count")
        coerce_seed(self.seed)


@dataclass
class Scenario:
    """A fully built evaluation scenario."""

    config: ScenarioConfig
    router_map: RouterMap
    landmark_set: LandmarkSet
    server: Union[ManagementServer, ShardedManagementServer]
    traceroute: TracerouteSimulator
    oracle: BruteForceOracle
    peer_routers: Dict[PeerId, NodeId]
    join_results: Dict[PeerId, JoinResult] = field(default_factory=dict)
    distance_engine: Optional[HopDistanceEngine] = None
    """Shared hop/latency distance engine over the router map; the landmark
    set, route table, traceroute simulator and brute-force oracle all
    compute their distances through this one engine (one CSR snapshot and
    vector cache for the whole scenario)."""

    def __post_init__(self) -> None:
        if self.distance_engine is None:
            self.distance_engine = HopDistanceEngine(self.router_map.graph)
        else:
            self.distance_engine.check_graph(self.router_map.graph)

    @property
    def peer_ids(self) -> List[PeerId]:
        """All peer identifiers in creation order."""
        return list(self.peer_routers)

    def close(self) -> None:
        """Release the management plane's resources (idempotent).

        Only scenarios built with a remote backend hold real resources (a
        connection per shard, plus a child server process per shard or one
        loopback server thread), but calling this is always safe, so tests
        and experiments can tear scenarios down uniformly.
        """
        self.server.close()

    def __enter__(self) -> "Scenario":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def true_distance(self, peer_a: PeerId, peer_b: PeerId) -> float:
        """True hop distance between two peers (via the oracle)."""
        return self.oracle.peer_distance(peer_a, peer_b)

    # ------------------------------------------------------------ strategies

    def scheme_neighbor_sets(self) -> Dict[PeerId, List[PeerId]]:
        """Neighbour sets produced by the paper's scheme.

        Each peer's current neighbour list is obtained from the management
        server (an O(1) cached lookup): early joiners' lists have been kept
        up to date by the server as later peers arrived, exactly as the
        deployed system would behave.
        """
        if not self.join_results:
            raise ConfigurationError("peers have not joined yet; call join_all() first")
        return {
            peer_id: [
                neighbor
                for neighbor, _ in self.server.closest_peers(
                    peer_id, k=self.config.neighbor_set_size
                )
            ]
            for peer_id in self.join_results
        }

    def oracle_neighbor_sets(self) -> Dict[PeerId, List[PeerId]]:
        """Optimal neighbour sets from the brute-force oracle."""
        return {
            peer_id: self.oracle.select_neighbors(peer_id, k=self.config.neighbor_set_size)
            for peer_id in self.peer_ids
        }

    def random_neighbor_sets(self, seed: Optional[int] = None) -> Dict[PeerId, List[PeerId]]:
        """Random neighbour sets (uses a derived seed for reproducibility)."""
        streams = RandomStreams(seed if seed is not None else self.config.seed)
        selection = RandomSelection(seed=streams.seed_for("random-baseline"))
        population = self.peer_ids
        return {
            peer_id: selection.select_neighbors(
                peer_id, population, self.config.neighbor_set_size
            )
            for peer_id in population
        }

    # ------------------------------------------------------------------ joins

    def join_all(self) -> Dict[PeerId, JoinResult]:
        """Join every peer through the management server (in creation order)."""
        for peer_id in self.peer_routers:
            if peer_id not in self.join_results:
                self.join_one(peer_id)
        return self.join_results

    @cached_property
    def bootstrap_landmarks(self) -> List[LandmarkDescriptor]:
        """The landmark list every newcomer is handed; fixed once the scenario is built."""
        return landmark_descriptors(self.server)

    def newcomer(self, peer_id: PeerId) -> NewcomerClient:
        """The joining client of one peer: the one place a scenario builds it.

        What it measures reaches the server in process (:meth:`join_one`) or
        as a beacon on the simulated wire
        (:meth:`ProtocolSimulation.over_scenario
        <repro.protocol.simulation.ProtocolSimulation.over_scenario>`).
        """
        if peer_id not in self.peer_routers:
            raise ConfigurationError(f"unknown peer {peer_id!r}")
        return NewcomerClient(peer_id, self.peer_routers[peer_id], self.traceroute)

    def join_one(self, peer_id: PeerId) -> JoinResult:
        """Join a single peer (used by incremental / churn experiments)."""
        result = self.newcomer(peer_id).join(self.server, landmarks=self.bootstrap_landmarks)
        self.join_results[peer_id] = result
        return result


def build_scenario(
    config: Optional[ScenarioConfig] = None,
    router_map: Optional[RouterMap] = None,
    **overrides,
) -> Scenario:
    """Build a scenario from a config (or keyword overrides).

    The build performs the paper's setup: peers on degree-1 routers,
    landmarks on medium-degree routers, a management server pre-loaded with
    inter-landmark distances, and a traceroute simulator over the map.
    Peers do **not** join automatically — call :meth:`Scenario.join_all`.

    ``router_map`` optionally supplies a pre-generated map, skipping step 1
    (used by sweeps that reuse one map across configs).
    """
    if config is None:
        config = ScenarioConfig(**overrides)
    elif overrides:
        raise ConfigurationError("pass either a config object or keyword overrides, not both")

    streams = RandomStreams(config.seed)

    # 1. Router-level map.
    if router_map is None:
        map_config = config.router_map_config
        if map_config is None:
            map_config = RouterMapConfig(seed=streams.seed_for("router-map"))
        router_map = generate_router_map(map_config)

    # One distance engine for the whole scenario: landmarks, route table,
    # oracle and experiments all share its CSR snapshot and vector caches.
    engine = HopDistanceEngine(router_map.graph)

    # 2. Peers on degree-1 routers.
    stub_routers = router_map.stub_routers()
    if len(stub_routers) == 0:
        raise ConfigurationError("the router map has no degree-1 routers to attach peers to")
    rng = streams.stream("peer-attachment")
    peer_routers: Dict[PeerId, NodeId] = {}
    for index in range(config.peer_count):
        peer_routers[f"peer{index}"] = rng.choice(stub_routers)

    # 3. Landmarks on medium-degree routers.
    landmark_routers = place_on_router_map(
        router_map,
        config.landmark_count,
        strategy=config.landmark_strategy,
        seed=streams.seed_for("landmark-placement"),
    )
    landmark_set = LandmarkSet.from_routers(router_map.graph, landmark_routers, engine=engine)

    # 4. Management plane (single-server or sharded) with inter-landmark
    #    distances; the sharded plane returns identical results, so the rest
    #    of the scenario machinery is oblivious to the choice.
    distances = landmark_set.pairwise_hop_distances() if len(landmark_set) > 1 else None
    if config.shard_count is None:
        server: Union[ManagementServer, ShardedManagementServer] = ManagementServer(
            neighbor_set_size=config.neighbor_set_size,
            maintain_cache=config.maintain_cache,
            landmark_distances=distances,
        )
    else:
        shard_factory = shard_factory_for(config.backend, config.neighbor_set_size)
        server = ShardedManagementServer(
            shard_count=config.shard_count,
            neighbor_set_size=config.neighbor_set_size,
            maintain_cache=config.maintain_cache,
            landmark_distances=distances,
            shard_factory=shard_factory,
        )
    try:
        for landmark in landmark_set:
            server.register_landmark(landmark.landmark_id, landmark.router)

        # 5. Traceroute simulator + oracle.
        route_table = RouteTable(graph=router_map.graph, engine=engine)
        traceroute_config = config.traceroute_config or TracerouteConfig(
            seed=streams.seed_for("traceroute")
        )
        traceroute = TracerouteSimulator(
            graph=router_map.graph, route_table=route_table, config=traceroute_config
        )
        oracle = BruteForceOracle(router_map.graph, peer_routers, engine=engine)
    except BaseException:
        # A failure after the plane exists must not orphan its resources
        # (one child server process per shard with backend="process").
        server.close()
        raise

    return Scenario(
        config=config,
        router_map=router_map,
        landmark_set=landmark_set,
        server=server,
        traceroute=traceroute,
        oracle=oracle,
        peer_routers=peer_routers,
        distance_engine=engine,
    )


def small_scenario(seed: Optional[int] = None, peer_count: int = 60) -> Scenario:
    """A small scenario over the ~600-router test map (for unit tests and docs)."""
    streams = RandomStreams(seed)
    config = ScenarioConfig(
        peer_count=peer_count,
        landmark_count=4,
        neighbor_set_size=3,
        router_map_config=RouterMapConfig.small(streams.seed_for("router-map")),
        seed=seed,
    )
    return build_scenario(config)
