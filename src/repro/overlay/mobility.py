"""Mobility and handover (paper future work).

The paper notes that "the mobility will require specific algorithms, managing
both faulty peers and handover".  This module provides the handover half: a
peer whose host moves to a different access router must re-probe its (possibly
new) closest landmark, re-register at the management server, and refresh its
overlay neighbours — ideally without interrupting an ongoing streaming
session.

Two pieces are provided:

* :class:`MobilityModel` — generates synthetic movement traces (each move
  re-attaches a peer to a new degree-1 router, biased towards routers in the
  same region or uniformly random, modelling small hand-offs vs big jumps);
* :class:`HandoverManager` — executes one handover against a scenario's
  management server and reports what changed (new landmark?, neighbour-set
  overlap, how much the neighbour cost degraded before the refresh).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .._validation import coerce_seed, require_positive_float, require_positive_int, require_probability
from ..exceptions import ConfigurationError
from ..routing.distance_engine import HopDistanceEngine

PeerId = Hashable
NodeId = Hashable


@dataclass(frozen=True)
class Move:
    """One peer relocation."""

    time_s: float
    peer_id: PeerId
    new_router: NodeId


@dataclass
class MobilityModel:
    """Synthetic relocation traces over a router map.

    Parameters
    ----------
    candidate_routers:
        Degree-1 routers a moving peer may re-attach to.
    local_move_probability:
        Probability that a move is *local*: the new router is one of the
        ``locality_radius`` hop-closest candidates to the old router (a Wi-Fi
        to cellular style hand-off).  Other moves pick uniformly at random
        (the user went somewhere else entirely).
    mean_pause_s:
        Mean time between two moves of the same peer (exponential).
    engine:
        Optional shared :class:`HopDistanceEngine` owned by the session
        (e.g. ``scenario.distance_engine``); without one, the model keeps a
        private engine per graph, so ranking candidates for a local move is
        a cached-vector lookup instead of a fresh BFS per handover step.
    """

    candidate_routers: Sequence[NodeId]
    local_move_probability: float = 0.7
    locality_radius: int = 16
    mean_pause_s: float = 120.0
    seed: Optional[int] = None
    engine: Optional[HopDistanceEngine] = None
    _rng: random.Random = field(init=False, repr=False)
    _private_engine: Optional[HopDistanceEngine] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if not self.candidate_routers:
            raise ConfigurationError("candidate_routers must not be empty")
        require_probability(self.local_move_probability, "local_move_probability")
        require_positive_int(self.locality_radius, "locality_radius")
        require_positive_float(self.mean_pause_s, "mean_pause_s")
        self._rng = random.Random(coerce_seed(self.seed))

    def _engine_for(self, graph) -> HopDistanceEngine:
        """The shared engine if it matches ``graph``, else a cached private one."""
        if self.engine is not None and self.engine.graph is graph:
            return self.engine
        if self._private_engine is None or self._private_engine.graph is not graph:
            self._private_engine = HopDistanceEngine(graph)
        return self._private_engine

    def next_router(self, graph, current_router: NodeId) -> NodeId:
        """Pick the router a peer moves to from ``current_router``."""
        candidates = [router for router in self.candidate_routers if router != current_router]
        if not candidates:
            return current_router
        if self._rng.random() < self.local_move_probability:
            distances = self._engine_for(graph).hop_distances_to(
                current_router, candidates, default=float("inf")
            )
            ranked = sorted(
                (distance, repr(router), router)
                for distance, router in zip(distances, candidates)
            )
            pool = [router for _, _, router in ranked[: self.locality_radius]]
            return self._rng.choice(pool)
        return self._rng.choice(candidates)

    def trace(
        self,
        graph,
        initial_attachment: Dict[PeerId, NodeId],
        horizon_s: float,
        mobile_fraction: float = 0.3,
    ) -> List[Move]:
        """Generate a movement trace for a fraction of the population."""
        require_positive_float(horizon_s, "horizon_s")
        require_probability(mobile_fraction, "mobile_fraction")
        peers = list(initial_attachment)
        mobile_count = int(round(len(peers) * mobile_fraction))
        mobile_peers = self._rng.sample(peers, mobile_count) if mobile_count else []
        moves: List[Move] = []
        for peer in mobile_peers:
            time = self._rng.expovariate(1.0 / self.mean_pause_s)
            current = initial_attachment[peer]
            while time < horizon_s:
                current = self.next_router(graph, current)
                moves.append(Move(time_s=time, peer_id=peer, new_router=current))
                time += self._rng.expovariate(1.0 / self.mean_pause_s)
        moves.sort(key=lambda move: (move.time_s, repr(move.peer_id)))
        return moves


@dataclass
class HandoverReport:
    """What one handover changed."""

    peer_id: PeerId
    old_router: NodeId
    new_router: NodeId
    old_landmark: Hashable
    new_landmark: Hashable
    landmark_changed: bool
    old_neighbors: List[PeerId]
    new_neighbors: List[PeerId]
    stale_neighbor_cost: float
    refreshed_neighbor_cost: float

    @property
    def neighbor_overlap(self) -> float:
        """Fraction of the old neighbour set kept after the handover."""
        if not self.old_neighbors:
            return 1.0
        kept = len(set(self.old_neighbors) & set(self.new_neighbors))
        return kept / len(self.old_neighbors)

    @property
    def refresh_gain(self) -> float:
        """How much the refresh improved the neighbour cost (>= 0 is better)."""
        if self.stale_neighbor_cost == 0:
            return 0.0
        return (self.stale_neighbor_cost - self.refreshed_neighbor_cost) / self.stale_neighbor_cost


class HandoverManager:
    """Executes peer handovers against a scenario's management server.

    The manager needs the scenario pieces a real client would have: the
    traceroute tool, the management server, and (for reporting only) the
    brute-force oracle to price neighbour sets in true hop distances.
    """

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.handovers_executed = 0

    def move_peer(self, peer_id: PeerId, new_router: NodeId) -> HandoverReport:
        """Re-attach ``peer_id`` to ``new_router`` and refresh its state."""
        scenario = self.scenario
        if peer_id not in scenario.peer_routers:
            raise ConfigurationError(f"unknown peer {peer_id!r}")
        if not scenario.router_map.graph.has_node(new_router):
            raise ConfigurationError(f"unknown router {new_router!r}")

        old_router = scenario.peer_routers[peer_id]
        old_landmark = scenario.server.peer_landmark(peer_id)
        k = scenario.config.neighbor_set_size
        old_neighbors = [p for p, _ in scenario.server.closest_peers(peer_id, k=k)]

        # Cost of keeping the stale neighbour set from the NEW position.
        scenario.oracle.add_peer(peer_id, new_router)
        scenario.peer_routers[peer_id] = new_router
        stale_cost = (
            scenario.oracle.neighbor_cost(peer_id, old_neighbors) if old_neighbors else 0.0
        )

        # Re-run the join protocol from the new attachment point.
        result = scenario.join_one(peer_id)
        new_neighbors = [p for p, _ in scenario.server.closest_peers(peer_id, k=k)]
        refreshed_cost = (
            scenario.oracle.neighbor_cost(peer_id, new_neighbors) if new_neighbors else 0.0
        )
        self.handovers_executed += 1

        return HandoverReport(
            peer_id=peer_id,
            old_router=old_router,
            new_router=new_router,
            old_landmark=old_landmark,
            new_landmark=result.landmark_id,
            landmark_changed=result.landmark_id != old_landmark,
            old_neighbors=old_neighbors,
            new_neighbors=new_neighbors,
            stale_neighbor_cost=stale_cost,
            refreshed_neighbor_cost=refreshed_cost,
        )

    def run_trace(self, moves: Sequence[Move]) -> List[HandoverReport]:
        """Execute a whole movement trace, in order."""
        return [self.move_peer(move.peer_id, move.new_router) for move in moves]
