"""repro — reproduction of "A Quicker Way to Discover Nearby Peers" (CoNEXT 2007).

The package implements the paper's landmark path-tree proximity-discovery
scheme together with every substrate its evaluation needs:

* :mod:`repro.topology` — synthetic router-level Internet maps;
* :mod:`repro.routing` — shortest-path routing and simulated traceroute;
* :mod:`repro.core` — the path tree, management server and join protocol
  (the paper's contribution);
* :mod:`repro.landmarks` — landmark placement and management;
* :mod:`repro.baselines` — the random and brute-force references;
* :mod:`repro.protocol` — the join protocol on the wire: beaconing peers
  and the management host;
* :mod:`repro.sim` — a deterministic discrete-event simulator and lossy
  wire;
* :mod:`repro.metrics`, :mod:`repro.workloads`, :mod:`repro.experiments` —
  the evaluation harness reproducing the paper's figure and claims.

Quickstart
----------
>>> from repro import build_scenario, ScenarioConfig
>>> scenario = build_scenario(ScenarioConfig(peer_count=50, landmark_count=3,
...                                          neighbor_set_size=3, seed=1))
>>> results = scenario.join_all()
>>> neighbors = scenario.server.closest_peers("peer0", k=3)
>>> len(neighbors) <= 3
True
"""

from .core import (
    ManagementServer,
    NewcomerClient,
    PathTree,
    RouterPath,
    ShardedManagementServer,
)
from .landmarks import LandmarkSet, place_landmarks
from .topology import Graph, RouterMap, RouterMapConfig, generate_router_map
from .workloads import Scenario, ScenarioConfig, build_scenario, small_scenario
from .experiments import run_experiment, run_figure1

__version__ = "1.0.0"

__all__ = [
    "ManagementServer",
    "NewcomerClient",
    "ShardedManagementServer",
    "PathTree",
    "RouterPath",
    "LandmarkSet",
    "place_landmarks",
    "Graph",
    "RouterMap",
    "RouterMapConfig",
    "generate_router_map",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "small_scenario",
    "run_experiment",
    "run_figure1",
    "__version__",
]
