"""Routing substrate: hop distances, forwarding tables, simulated traceroute.

The traceroute path a peer records towards its landmark is the only network
measurement the paper's system relies on; everything in this package exists
to produce those paths faithfully over the synthetic router maps.  One
engine (:class:`HopDistanceEngine`) answers every distance: a hop count from
a byte level-vector, a route or a latency from a :class:`ColumnTree`.
"""

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
    "ColumnTree",
    "CsrTopology",
    "HopDistanceEngine",
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
