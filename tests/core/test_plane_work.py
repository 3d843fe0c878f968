"""Work accounting on every management plane: counted, never timed.

The single server, inline shards (1, 2, 3, 4, 8) and remote shards (process,
socket) run the same workloads over the same 8-landmark population of the
three-level access hierarchy, and must report the same coordinator counters,
the same index work (``total_tree_visits``) and the same trie insert work
(``total_insert_work``): crossing a shard or a process boundary may cost
time, never work.  At 40 peers (five per landmark, so every ``k=5`` list is
filled across landmarks) and at 400.

Per workload, the single server's counters are also pinned to what the
workload did, at populations from 40 to 3,200: one registration and five
trie nodes touched per newcomer, one index read per newcomer and the same
insert work whatever the wave size, nearly every steady-state query a cache
hit, departure repairs bounded by ``10·k`` per leaver.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Dict, List

import pytest

from repro.core import ManagementServer, ShardedManagementServer
from repro.core.path import RouterPath
from repro.core.remote import shard_factory_for
from repro.workloads import synthetic_paths

K = 5
LANDMARKS = [f"lmk{index}" for index in range(8)]
DISTANCES = {
    (a, b): float(2 + j - i)
    for i, a in enumerate(LANDMARKS)
    for j, b in enumerate(LANDMARKS)
    if i < j
}
#: Newcomers, departures and churn cycles per workload.
OPS = 24
#: Steady-state closest-peer queries per query workload.
QUERIES = 100
#: Flash-crowd newcomers per arrival workload, and the wave sizes they land in.
ARRIVALS = 64
WAVES = (1, 8, ARRIVALS)

PLANES = (
    "inline-1",
    "inline-2",
    "inline-3",
    "inline-4",
    "inline-8",
    "process-2",
    "process-4",
    "socket-2",
    "socket-4",
)


def make_plane(name: str):
    """``"single"`` or ``"<backend>-<shards>"``, with the 8 landmarks registered."""
    if name == "single":
        plane = ManagementServer(neighbor_set_size=K)
        for (a, b), distance in DISTANCES.items():
            plane.set_landmark_distance(a, b, distance)
    else:
        backend, shards = name.split("-")
        plane = ShardedManagementServer(
            int(shards),
            neighbor_set_size=K,
            landmark_distances=DISTANCES,
            shard_factory=shard_factory_for(backend, K),
        )
    for landmark in LANDMARKS:
        plane.register_landmark(landmark, landmark)
    return plane


def population_paths(count: int, seed: int, prefix: str = "") -> List[RouterPath]:
    """``count`` peers, an equal share under each landmark's own hierarchy."""
    return [
        path
        for index, landmark in enumerate(LANDMARKS)
        for path in synthetic_paths(
            count // len(LANDMARKS), seed + index, landmark, prefix=f"{prefix}{landmark}-"
        )
    ]


def crowd_paths(count: int, seed: int) -> List[RouterPath]:
    """A flash crowd on the first two landmarks: 4 regions x 8 PoPs x 12
    access routers, so co-arriving newcomers share attachment routers."""
    rng = random.Random(seed)
    paths = []
    for index in range(count):
        landmark = LANDMARKS[rng.randrange(2)]
        region, pop, access = rng.randrange(4), rng.randrange(8), rng.randrange(12)
        routers = [
            f"access-{region}-{pop}-{access}",
            f"pop-{region}-{pop}",
            f"region-{region}",
            "core",
            landmark,
        ]
        paths.append(RouterPath.from_routers(f"crowd{index}", landmark, routers))
    return paths


def insert(plane, rng: random.Random) -> None:
    plane.register_peers(population_paths(OPS, seed=rng.randrange(1000), prefix="newcomer-"))


def query(plane, rng: random.Random) -> None:
    peers = plane.peers()
    for peer in [rng.choice(peers) for _ in range(QUERIES)]:
        plane.closest_peers(peer)


def departure(plane, rng: random.Random) -> None:
    for peer in rng.sample(plane.peers(), OPS):
        plane.unregister_peer(peer)


def churn(plane, rng: random.Random) -> None:
    for peer in rng.sample(plane.peers(), OPS):
        path = plane.peer_path(peer)
        plane.unregister_peer(peer)
        plane.register_peers([path])


def arrival(wave: int) -> Callable:
    def arrive(plane, rng: random.Random) -> None:
        newcomers = crowd_paths(ARRIVALS, seed=rng.randrange(1000))
        for start in range(0, len(newcomers), wave):
            plane.register_peers(newcomers[start : start + wave])

    return arrive


WORKLOADS: Dict[str, Callable] = {
    "insert": insert,
    "query": query,
    "departure": departure,
    "churn": churn,
    **{f"arrival-{wave}": arrival(wave) for wave in WAVES},
}


def measure(plane_name: str, workload: str, population: int) -> Dict[str, int]:
    """The counters one workload adds on a freshly populated plane."""
    with make_plane(plane_name) as plane:
        plane.register_peers(population_paths(population, seed=3))
        plane.stats.reset()
        visits, (created, touched) = plane.total_tree_visits(), plane.total_insert_work()
        WORKLOADS[workload](plane, random.Random(population))
        counters = plane.stats.as_dict()
        after_created, after_touched = plane.total_insert_work()
        counters.update(
            tree_node_visits=plane.total_tree_visits() - visits,
            trie_nodes_created=after_created - created,
            trie_nodes_touched=after_touched - touched,
            peer_count=plane.peer_count,
        )
        return counters


@lru_cache(maxsize=None)
def single_server(workload: str, population: int) -> Dict[str, int]:
    return measure("single", workload, population)


@pytest.mark.parametrize("population", [40, 400])
@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_plane_does_the_single_servers_work(workload, plane, population):
    assert measure(plane, workload, population) == single_server(workload, population)


POPULATIONS = [40, 200, 800, 3200]


@pytest.mark.parametrize("population", POPULATIONS)
class TestWorkloadCounters:
    """What each workload costs on the single server, by count."""

    def test_an_insert_batch_touches_five_nodes_per_newcomer(self, population):
        counters = single_server("insert", population)
        assert counters["registrations"] == counters["tree_queries"] == OPS
        assert counters["removals"] == 0
        assert counters["trie_nodes_touched"] == 5 * OPS
        assert 0 < counters["trie_nodes_created"] <= counters["trie_nodes_touched"]
        assert counters["peer_count"] == population + OPS

    def test_steady_queries_are_nearly_all_cache_hits(self, population):
        counters = single_server("query", population)
        assert counters["queries"] == QUERIES
        assert counters["cache_hits"] >= 0.9 * QUERIES
        assert counters["registrations"] == counters["removals"] == 0
        assert counters["trie_nodes_created"] == counters["trie_nodes_touched"] == 0

    def test_departures_repair_fewer_than_ten_k_lists_each(self, population):
        counters = single_server("departure", population)
        assert counters["removals"] == OPS
        assert 0 < counters["departure_updates"] < 10 * K * OPS
        assert counters["registrations"] == 0
        assert counters["trie_nodes_created"] == counters["trie_nodes_touched"] == 0
        assert counters["peer_count"] == population - OPS

    def test_churn_reinserts_one_path_per_cycle(self, population):
        counters = single_server("churn", population)
        assert counters["removals"] == counters["registrations"] == OPS
        assert counters["trie_nodes_touched"] == 5 * OPS
        assert counters["trie_nodes_created"] <= 5 * OPS
        assert counters["peer_count"] == population

    @pytest.mark.parametrize("wave", WAVES)
    def test_an_arrival_reads_the_index_once_per_newcomer(self, population, wave):
        counters = single_server(f"arrival-{wave}", population)
        assert counters["registrations"] == counters["tree_queries"] == ARRIVALS
        assert counters["trie_nodes_touched"] == 5 * ARRIVALS
        assert counters["peer_count"] == population + ARRIVALS

    def test_the_wave_size_moves_no_insert_work(self, population):
        work = {
            (counters["trie_nodes_created"], counters["trie_nodes_touched"])
            for counters in (single_server(f"arrival-{wave}", population) for wave in WAVES)
        }
        assert len(work) == 1
