"""Router-level topology substrate: graphs, the router map, latency and centrality.

Public surface:

* :class:`~repro.topology.graph.Graph` — the adjacency-list graph type the
  whole library operates on.
* The router-level map builder
  :func:`~repro.topology.internet_mapper.generate_router_map`, whose core is
  a :func:`~repro.topology.internet_mapper.barabasi_albert` graph.
* Latency models in :mod:`~repro.topology.latency`.
* Centrality analyses in :mod:`~repro.topology.centrality`.
"""

from .graph import DEFAULT_WEIGHT_KEY, Graph
from .internet_mapper import (
    RouterMap,
    RouterMapConfig,
    barabasi_albert,
    generate_router_map,
    small_router_map,
)
from .latency import ConstantLatencyModel, LatencyModel, TieredLatencyModel
from .centrality import (
    approximate_betweenness,
    betweenness_centrality,
    centrality_concentration,
)

__all__ = [
    "DEFAULT_WEIGHT_KEY",
    "Graph",
    "barabasi_albert",
    "RouterMap",
    "RouterMapConfig",
    "generate_router_map",
    "small_router_map",
    "ConstantLatencyModel",
    "LatencyModel",
    "TieredLatencyModel",
    "approximate_betweenness",
    "betweenness_centrality",
    "centrality_concentration",
]
