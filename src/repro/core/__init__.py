"""The paper's primary contribution: landmark path trees + management server.

The pieces fit together as follows:

* a peer records a :class:`~repro.core.path.RouterPath` towards its closest
  landmark (client side: :class:`~repro.core.newcomer.NewcomerClient`);
* the :class:`~repro.core.management_server.ManagementServer` inserts the
  path into the landmark's :class:`~repro.core.path_tree.PathTree` and
  answers with the estimated-closest peers;
* :mod:`~repro.core.distance` provides the tooling to compare the inferred
  ``dtree`` distances against true network distances.
"""

from .path import (
    LandmarkId,
    NodeId,
    PeerId,
    RouterPath,
    shared_suffix_length,
    tree_distance,
)
from .interning import PeerKeyInterner
from .path_tree import PathTree
from .management_plane import ChangeRecord, DegradedResult, PlaneHealth, ShardHealth
from .management_server import ManagementServer, NeighborEntry, ServerStats
from .neighbor_cache import NeighborCache
from .sharded import ConsistentHashRing, ShardBackend, ShardedManagementServer
from .remote import RecoveryPolicy, shard_factory_for
from .chaos import ChaosShardBackend, Fault, FaultPlan
from .serving import DiscoverySnapshot, FlatTrie, SnapshotPublisher, SnapshotReader
from .distance import (
    AccuracyReport,
    PairAccuracy,
    evaluate_estimator,
    sample_peer_pairs,
)
from .newcomer import (
    LANDMARK_SELECTION_POLICIES,
    SELECT_CLOSEST_RTT,
    SELECT_FEWEST_HOPS,
    SELECT_FIRST,
    JoinResult,
    JoinTranscript,
    LandmarkDescriptor,
    NewcomerClient,
)

__all__ = [
    "LandmarkId",
    "NodeId",
    "PeerId",
    "RouterPath",
    "shared_suffix_length",
    "tree_distance",
    "PathTree",
    "PeerKeyInterner",
    "ManagementServer",
    "NeighborCache",
    "NeighborEntry",
    "ServerStats",
    "ConsistentHashRing",
    "ShardBackend",
    "ShardedManagementServer",
    "DegradedResult",
    "PlaneHealth",
    "ShardHealth",
    "RecoveryPolicy",
    "shard_factory_for",
    "ChangeRecord",
    "ChaosShardBackend",
    "Fault",
    "FaultPlan",
    "DiscoverySnapshot",
    "FlatTrie",
    "SnapshotPublisher",
    "SnapshotReader",
    "AccuracyReport",
    "PairAccuracy",
    "evaluate_estimator",
    "sample_peer_pairs",
    "LANDMARK_SELECTION_POLICIES",
    "SELECT_CLOSEST_RTT",
    "SELECT_FEWEST_HOPS",
    "SELECT_FIRST",
    "JoinResult",
    "JoinTranscript",
    "LandmarkDescriptor",
    "NewcomerClient",
]
