"""Router-level topology substrate: graphs, the router map, latency and analyses.

Public surface:

* :class:`~repro.topology.graph.Graph` — the adjacency-list graph type the
  whole library operates on.
* The router-level map builder
  :func:`~repro.topology.internet_mapper.generate_router_map`, whose core is
  a :func:`~repro.topology.internet_mapper.barabasi_albert` graph.
* Latency models in :mod:`~repro.topology.latency`.
* Centrality / structure analyses in :mod:`~repro.topology.centrality` and
  :mod:`~repro.topology.metrics`.
"""

from .graph import DEFAULT_WEIGHT_KEY, Graph, edge_key
from .internet_mapper import (
    RouterMap,
    RouterMapConfig,
    barabasi_albert,
    generate_router_map,
    paper_router_map,
    small_router_map,
)
from .latency import ConstantLatencyModel, LatencyModel, TieredLatencyModel
from .centrality import (
    approximate_betweenness,
    betweenness_centrality,
    centrality_concentration,
)
from .metrics import (
    PathLengthStats,
    TopologySummary,
    approximate_diameter,
    average_clustering,
    average_degree,
    bfs_distances,
    clustering_coefficient,
    degree_ccdf,
    degree_distribution,
    degree_one_fraction,
    estimate_powerlaw_exponent,
    max_degree,
    sampled_path_length_stats,
    summarize,
)

__all__ = [
    "DEFAULT_WEIGHT_KEY",
    "Graph",
    "edge_key",
    "barabasi_albert",
    "RouterMap",
    "RouterMapConfig",
    "generate_router_map",
    "paper_router_map",
    "small_router_map",
    "ConstantLatencyModel",
    "LatencyModel",
    "TieredLatencyModel",
    "approximate_betweenness",
    "betweenness_centrality",
    "centrality_concentration",
    "PathLengthStats",
    "TopologySummary",
    "approximate_diameter",
    "average_clustering",
    "average_degree",
    "bfs_distances",
    "clustering_coefficient",
    "degree_ccdf",
    "degree_distribution",
    "degree_one_fraction",
    "estimate_powerlaw_exponent",
    "max_degree",
    "sampled_path_length_stats",
    "summarize",
]
