"""Routing substrate: shortest paths, forwarding tables, simulated traceroute.

The traceroute path a peer records towards its landmark is the only network
measurement the paper's system relies on; everything in this package exists
to produce those paths faithfully over the synthetic router maps.
"""

from .shortest_path import (
    AllPairsHopDistances,
    ShortestPathTree,
    bfs_shortest_paths,
    dijkstra_shortest_paths,
    hop_distance,
    latency_distance,
    reconstruct_path,
    shortest_path_tree,
)
from .distance_engine import ColumnTree, CsrTopology, HopDistanceEngine
from .route_table import RouteTable
from .traceroute import (
    TracerouteConfig,
    TracerouteHop,
    TracerouteResult,
    TracerouteSimulator,
)
from .path_inference import (
    GAP_DROP,
    GAP_PLACEHOLDER,
    GAP_POLICIES,
    GAP_TRUNCATE,
    CleanedPath,
    clean_traceroute,
)

__all__ = [
    "AllPairsHopDistances",
    "ColumnTree",
    "CsrTopology",
    "HopDistanceEngine",
    "ShortestPathTree",
    "bfs_shortest_paths",
    "dijkstra_shortest_paths",
    "hop_distance",
    "latency_distance",
    "reconstruct_path",
    "shortest_path_tree",
    "RouteTable",
    "TracerouteConfig",
    "TracerouteHop",
    "TracerouteResult",
    "TracerouteSimulator",
    "GAP_DROP",
    "GAP_PLACEHOLDER",
    "GAP_POLICIES",
    "GAP_TRUNCATE",
    "CleanedPath",
    "clean_traceroute",
]
