"""Landmark set management.

A :class:`LandmarkSet` groups the deployed landmarks, knows which router each
one is attached to, and can compute the inter-landmark distance matrix the
management server needs for cross-landmark estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import LandmarkError
from ..routing.distance_engine import HopDistanceEngine
from ..topology.graph import Graph

NodeId = Hashable
LandmarkId = Hashable


@dataclass(frozen=True)
class Landmark:
    """One deployed landmark."""

    landmark_id: LandmarkId
    router: NodeId


@dataclass
class LandmarkSet:
    """The set of deployed landmarks plus distance bookkeeping.

    All hop/latency questions are answered through one shared
    :class:`HopDistanceEngine` (injectable so a scenario can pass its own):
    the inter-landmark matrix is one batched multi-source pass, and the
    closest-landmark oracle reads the per-landmark distance vectors instead
    of running a fresh BFS per queried router (hop distances on an
    undirected graph are symmetric), which turns coverage sweeps from one
    BFS per router into one BFS per landmark.
    """

    graph: Graph
    landmarks: List[Landmark] = field(default_factory=list)
    engine: Optional[HopDistanceEngine] = field(default=None, repr=False)
    _by_id: Dict[LandmarkId, Landmark] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = HopDistanceEngine(self.graph)
        else:
            self.engine.check_graph(self.graph)

    @classmethod
    def from_routers(
        cls,
        graph: Graph,
        routers: Sequence[NodeId],
        prefix: str = "lm",
        engine: Optional[HopDistanceEngine] = None,
    ) -> "LandmarkSet":
        """Create landmarks named ``lm0, lm1, ...`` attached to ``routers``."""
        landmark_set = cls(graph=graph, engine=engine)
        for index, router in enumerate(routers):
            landmark_set.add(f"{prefix}{index}", router)
        return landmark_set

    def add(self, landmark_id: LandmarkId, router: NodeId) -> Landmark:
        """Add a landmark attached to ``router``."""
        if landmark_id in self._by_id:
            raise LandmarkError(f"landmark {landmark_id!r} already exists")
        if not self.graph.has_node(router):
            raise LandmarkError(f"router {router!r} is not part of the topology")
        landmark = Landmark(landmark_id=landmark_id, router=router)
        self.landmarks.append(landmark)
        self._by_id[landmark_id] = landmark
        return landmark

    def ids(self) -> List[LandmarkId]:
        """All landmark identifiers."""
        return [landmark.landmark_id for landmark in self.landmarks]

    def routers(self) -> List[NodeId]:
        """All landmark attachment routers."""
        return [landmark.router for landmark in self.landmarks]

    def __len__(self) -> int:
        return len(self.landmarks)

    def __iter__(self) -> Iterator[Landmark]:
        return iter(self.landmarks)

    # -------------------------------------------------------------- distances

    def pairwise_hop_distances(self) -> Dict[Tuple[LandmarkId, LandmarkId], float]:
        """Hop distances between every pair of landmarks (both orders).

        One batched multi-source pass over the shared engine snapshot: each
        landmark's distance vector is computed once and every pair is a flat
        lookup.
        """
        result: Dict[Tuple[LandmarkId, LandmarkId], float] = {}
        self.engine.warm_hops(landmark.router for landmark in self.landmarks)
        for landmark in self.landmarks:
            for other in self.landmarks:
                if other.landmark_id == landmark.landmark_id:
                    continue
                distance = self.engine.hop_between(landmark.router, other.router)
                if distance is None:
                    raise LandmarkError(
                        f"landmarks {landmark.landmark_id!r} and {other.landmark_id!r} "
                        "are not connected"
                    )
                result[(landmark.landmark_id, other.landmark_id)] = float(distance)
        return result
