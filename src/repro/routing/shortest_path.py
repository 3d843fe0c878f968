"""The all-pairs hop-distance view the brute-force oracle reads.

Hop distance — the number of router hops — is the metric the paper's figure
is expressed in (``D`` is a sum of hop distances).
:class:`AllPairsHopDistances` is a thin per-source dict view over
engine-computed hop vectors (:mod:`repro.routing.distance_engine`, one CSR
snapshot shared across all sources).  The dict-based reference BFS and
Dijkstra the engine is tested against live beside their oracles, in
``tests/routing/reference_paths.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, Optional

from ..exceptions import NoRouteError
from ..topology.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .distance_engine import HopDistanceEngine

NodeId = Hashable


@dataclass
class AllPairsHopDistances:
    """Lazy all-pairs hop-distance oracle with per-source caching.

    The brute-force baseline needs hop distances between every peer's
    attachment router and every other attachment router.  Computing the full
    all-pairs matrix over ~4 000 routers is wasteful; instead this is a thin
    per-source dict view over a :class:`~repro.routing.distance_engine.
    HopDistanceEngine`: distance vectors are computed (and batched across
    sources) by the engine's CSR snapshot, and a plain dict is materialised
    only for sources whose full :meth:`distances_from` map is requested.

    Pass ``engine=`` to share one engine (and its snapshot/vector caches)
    with the rest of a scenario; by default the view owns a private engine.
    The dict cache is dropped automatically when the underlying graph
    mutates (the engine rebuilds its snapshot via the graph's generation
    counter).
    """

    graph: Graph
    engine: Optional["HopDistanceEngine"] = None
    _cache: Dict[NodeId, Dict[NodeId, int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.engine is None:
            from .distance_engine import HopDistanceEngine

            self.engine = HopDistanceEngine(self.graph)
        else:
            self.engine.check_graph(self.graph)
        self._snapshot_generation = self.graph.generation

    def _checked_cache(self) -> Dict[NodeId, Dict[NodeId, int]]:
        """The dict cache, dropped when the graph has mutated under us."""
        if self._snapshot_generation != self.graph.generation:
            self._cache.clear()
            self._snapshot_generation = self.graph.generation
        return self._cache

    def distances_from(self, source: NodeId) -> Dict[NodeId, int]:
        """Return (and cache) hop distances from ``source`` to all nodes."""
        cache = self._checked_cache()
        if source not in cache:
            cache[source] = self.engine.hop_distances(source)
        return cache[source]

    def distance(self, source: NodeId, destination: NodeId) -> int:
        """Hop distance between two nodes, cached per source."""
        distances = self.distances_from(source)
        if destination not in distances:
            raise NoRouteError(source, destination)
        return distances[destination]

    @property
    def cached_sources(self) -> int:
        """Number of sources currently cached."""
        return len(self._checked_cache())
