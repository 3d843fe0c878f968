"""Brute-force oracle — the paper's "best set of neighbours" reference.

The oracle knows the full router topology and every peer's attachment router,
so it can compute the genuinely closest ``k`` peers for anyone.  The paper
uses exactly this as the denominator of its figure (``D_closest``); it is not
deployable (it needs global knowledge and O(n) work per query) but it bounds
what any proximity scheme can achieve.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from .._validation import require_positive_int
from ..exceptions import ConfigurationError
from ..routing.distance_engine import HopDistanceEngine
from ..topology.graph import Graph

PeerId = Hashable
NodeId = Hashable


class BruteForceOracle:
    """Exact closest-peer selection using full topology knowledge.

    Parameters
    ----------
    graph:
        The router topology.
    attachment:
        Maps every peer to the router its host hangs off.
    host_hops:
        Hops charged for the host-to-router link on each side (1 by default,
        consistent with how the tree distance counts).
    engine:
        Optional shared :class:`HopDistanceEngine` over ``graph``; the
        scenario builder passes its own so the oracle reads the same hop
        vectors as every other distance consumer.  Every distance is the
        engine's, so it follows the graph as it mutates.
    """

    name = "brute_force"

    def __init__(
        self,
        graph: Graph,
        attachment: Dict[PeerId, NodeId],
        host_hops: int = 1,
        engine: Optional[HopDistanceEngine] = None,
    ) -> None:
        if host_hops < 0:
            raise ConfigurationError(f"host_hops must be >= 0, got {host_hops}")
        self.graph = graph
        self.attachment = dict(attachment)
        self.host_hops = host_hops
        self._engine = HopDistanceEngine(graph) if engine is None else engine.check_graph(graph)

    def peer_distance(self, peer_a: PeerId, peer_b: PeerId) -> float:
        """True hop distance between two peers (host links included)."""
        if peer_a == peer_b:
            return 0.0
        router_a = self.attachment[peer_a]
        router_b = self.attachment[peer_b]
        router_distance = 0 if router_a == router_b else self._engine.hop_distance(router_a, router_b)
        return float(router_distance + 2 * self.host_hops)

    # Alias so the oracle can be scored like a plane by evaluate_estimator.
    estimate_distance = peer_distance

    def select_neighbors(
        self,
        peer_id: PeerId,
        population: Optional[Sequence[PeerId]] = None,
        k: int = 5,
        exclude: Optional[Set[PeerId]] = None,
    ) -> List[PeerId]:
        """Return the truly closest ``k`` peers of ``peer_id``."""
        return [peer for peer, _ in self.closest_peers(peer_id, k, population=population, exclude=exclude)]

    def closest_peers(
        self,
        peer_id: PeerId,
        k: int,
        population: Optional[Sequence[PeerId]] = None,
        exclude: Optional[Set[PeerId]] = None,
    ) -> List[Tuple[PeerId, float]]:
        """Return the ``k`` closest peers with their true distances."""
        require_positive_int(k, "k")
        if peer_id not in self.attachment:
            raise ConfigurationError(f"peer {peer_id!r} has no known attachment router")
        excluded = {peer_id}
        if exclude:
            excluded |= set(exclude)
        candidates = population if population is not None else list(self.attachment)
        origin_router = self.attachment[peer_id]
        distances = self._engine.hop_distances(origin_router)

        ranked: List[Tuple[float, str, PeerId]] = []
        for candidate in candidates:
            if candidate in excluded or candidate not in self.attachment:
                continue
            router = self.attachment[candidate]
            router_distance = 0 if router == origin_router else distances.get(router)
            if router_distance is None:
                continue
            total = float(router_distance + 2 * self.host_hops)
            ranked.append((total, repr(candidate), candidate))
        ranked.sort()
        return [(candidate, distance) for distance, _, candidate in ranked[:k]]

    def neighbor_cost(self, peer_id: PeerId, neighbors: Sequence[PeerId]) -> float:
        """Sum of true hop distances from ``peer_id`` to ``neighbors`` (the paper's D)."""
        return sum(self.peer_distance(peer_id, neighbor) for neighbor in neighbors)
