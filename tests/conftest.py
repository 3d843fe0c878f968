"""Shared fixtures for the test suite.

Expensive objects (the small router map, a joined scenario) are built once
per session; tests that need to mutate them build their own copies.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest
from hypothesis import settings as hypothesis_settings

from repro.topology.graph import DEFAULT_WEIGHT_KEY, Graph
from repro.topology.internet_mapper import RouterMap, RouterMapConfig, generate_router_map
from repro.workloads.scenarios import Scenario, ScenarioConfig, build_scenario


# High-budget profile for the sharded-equivalence oracle; CI's dedicated
# matrix entry selects it via HYPOTHESIS_PROFILE=ci-equivalence.  Tests that
# pin max_examples in their own @settings are unaffected.
hypothesis_settings.register_profile("ci-equivalence", max_examples=400, deadline=None)
# Reduced budget for the PROCESS-backend oracle run: every example forks
# 1-8 child shard servers, so its own CI matrix entry trades example count
# for a hard wall-clock timeout instead of inheriting the 400-example sweep.
hypothesis_settings.register_profile("ci-equivalence-process", max_examples=60, deadline=None)
# Smallest budget for the CHAOS-backend oracle run: every example forks
# child shard servers AND SIGKILLs/respawns them on a scripted fault plan, so
# each example pays several respawn+replay cycles on top of the fork cost.
hypothesis_settings.register_profile("ci-equivalence-chaos", max_examples=25, deadline=None)
# Budget for the SOCKET-backend oracle run: connection-scoped shards behind
# the in-process asyncio shard server.  Cheaper than forking child
# servers but dearer than inline, so it sits between the process and
# inline budgets; its CI matrix entry selects it with -k "socket" (which
# also picks up the socket-chaos fault-plan parametrization).
hypothesis_settings.register_profile("ci-equivalence-socket", max_examples=50, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    hypothesis_settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """No test may orphan a child shard server process.

    The ``process`` shard backend forks one child server per shard; every
    test/CLI path must reap them (``close()``, context managers, fixture
    finalizers) so the tier-1 suite exits cleanly.  This fixture enforces
    that suite-wide: leaked workers are terminated, then the test fails.
    """
    yield
    leaked = multiprocessing.active_children()
    for process in leaked:
        process.terminate()
    assert not leaked, f"leaked shard worker processes: {leaked}"


SMALL_MAP_KWARGS = dict(
    core_size=15,
    core_attachment=3,
    transit_size=60,
    transit_attachment=2,
    stub_size=250,
    stub_attachment=1,
)


def make_small_map(seed: int = 5) -> RouterMap:
    """A ~325-router map, freshly generated (for tests that mutate it)."""
    return generate_router_map(RouterMapConfig(seed=seed, **SMALL_MAP_KWARGS))


def make_small_scenario(seed: int = 5, peer_count: int = 40, **kwargs) -> Scenario:
    """A small un-joined scenario over the small test map."""
    config = ScenarioConfig(
        peer_count=peer_count,
        landmark_count=kwargs.pop("landmark_count", 3),
        neighbor_set_size=kwargs.pop("neighbor_set_size", 3),
        router_map_config=RouterMapConfig(seed=seed, **SMALL_MAP_KWARGS),
        seed=seed,
        **kwargs,
    )
    return build_scenario(config)


def reference_graphs() -> dict:
    """Small connected :mod:`networkx` graphs used as an independent oracle.

    Chosen to cover what the hand-built fixtures do not: ties between equal
    shortest paths (even cycle, grid, complete graph), triangles (barbell,
    complete graph), girth 5 (Petersen), trees and a preferential-attachment
    graph.  Build the library's :class:`Graph` with ``Graph.from_networkx``.
    networkx is a test-only dependency: without it the calling test skips.
    """
    nx = pytest.importorskip("networkx")
    graphs = {
        "path-7": nx.path_graph(7),
        "cycle-10": nx.cycle_graph(10),
        "complete-6": nx.complete_graph(6),
        "grid-3x4": nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 4)),
        "barbell-4-2": nx.barbell_graph(4, 2),
        "petersen": nx.petersen_graph(),
        "binary-tree-3": nx.balanced_tree(2, 3),
        "ba-60-2": nx.barabasi_albert_graph(60, 2, seed=3),
    }
    assert sorted(graphs) == REFERENCE_GRAPH_NAMES
    return graphs


def with_reference_latencies(reference):
    """Give every edge of ``reference`` a latency and return both views.

    The latencies are multiples of 0.25 below 4, so every path sum is exact
    in binary floating point and the library's latencies can be compared to
    networkx's Dijkstra with ``==``.  Returns ``(reference, Graph)``.
    """
    for index, (u, v) in enumerate(reference.edges()):
        reference.edges[u, v][DEFAULT_WEIGHT_KEY] = 0.25 * (1 + (7 * index) % 13)
    return reference, Graph.from_networkx(reference)


# Spelled out so that collecting the suite never imports networkx.
REFERENCE_GRAPH_NAMES = [
    "ba-60-2",
    "barbell-4-2",
    "binary-tree-3",
    "complete-6",
    "cycle-10",
    "grid-3x4",
    "path-7",
    "petersen",
]


@pytest.fixture(scope="session")
def small_router_map() -> RouterMap:
    """Session-wide read-only small router map."""
    return make_small_map(seed=5)


@pytest.fixture(scope="session")
def joined_scenario() -> Scenario:
    """Session-wide scenario with every peer already joined (read-only)."""
    scenario = make_small_scenario(seed=5, peer_count=40)
    scenario.join_all()
    return scenario


@pytest.fixture()
def fresh_scenario() -> Scenario:
    """A fresh, un-joined scenario (safe to mutate)."""
    return make_small_scenario(seed=9, peer_count=30)


@pytest.fixture()
def line_graph() -> Graph:
    """A 6-node path graph 0-1-2-3-4-5 with unit latencies."""
    graph = Graph(name="line")
    for u, v in zip(range(5), range(1, 6)):
        graph.add_edge(u, v, latency=1.0)
    return graph


@pytest.fixture()
def star_graph() -> Graph:
    """A star with centre ``0`` and leaves 1..6."""
    graph = Graph(name="star")
    for leaf in range(1, 7):
        graph.add_edge(0, leaf, latency=1.0)
    return graph


@pytest.fixture()
def tree_graph() -> Graph:
    """A small binary-ish tree used by path and routing tests.

    Structure::

              0
            /   \\
           1     2
          / \\   / \\
         3   4 5   6
         |   |
         7   8
    """
    graph = Graph(name="tree")
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (4, 8)]
    for u, v in edges:
        graph.add_edge(u, v, latency=1.0)
    return graph


@pytest.fixture()
def rng() -> random.Random:
    """A seeded RNG for tests that need randomness."""
    return random.Random(1234)
