"""Discovery hot-path workloads measured by ``repro-experiments perf``.

Each workload builds a management plane populated with synthetic paths over
a three-level access hierarchy (the same shape the complexity benchmarks
use: it reproduces real landmark-tree fan-out without paying for a full
router-map build at every population size), then times one hot-path
operation class:

* ``insert``    — batch arrival of fresh newcomers via ``register_peers``;
* ``query``     — cached closest-peer lookups (the O(1) claim);
* ``departure`` — peer removals repaired through the reverse neighbour
  index (the O(k) claim);
* ``churn``     — interleaved leave / re-join cycles, the membership-dynamics
  mix the paper defers to future work;
* ``arrival``   — a flash crowd joining in batches of ``batch_size``
  (schema v5).  Arrivals are drawn from a deliberately *concentrated*
  access locality (a few regions/PoPs, the way real flash crowds share
  access networks), so larger batches put co-arriving peers on shared
  attachment routers, where they see each other at once; ``batch_size=1``
  is the sequential-arrival baseline on the same peer stream.  One workload run
  registers ``ops`` newcomers total regardless of batch size, so per-op
  cost across the batch axis isolates batch amortisation itself.

The ``build`` workload (schema v4) is different in kind: instead of a
synthetic plane it measures the **scenario-build distance plane** — a full
:func:`~repro.workloads.scenarios.build_scenario` over a router map scaled
to the population (paper-scale ~4 000 routers at the suite's largest
population) followed by :meth:`~repro.workloads.scenarios.Scenario.
warm_distance_plane` (landmark pairwise distances, landmark-rooted routing
trees, true-hop-distance vectors from every distinct peer attachment
router).  Map *generation* happens outside the timed phase — it is a
topology-generator concern the distance engine does not touch — so the cell
regression-gates exactly the code the
:mod:`repro.routing.distance_engine` owns.  One build is one cell;
``per_op_us`` divides by the peer count.

The ``serving`` workload (schema v8) measures the lock-free serving plane:
a :class:`~repro.core.serving.SnapshotPublisher` freezes the populated
plane into an immutable :class:`~repro.core.serving.DiscoverySnapshot` and
``readers`` concurrent :class:`~repro.core.serving.SnapshotReader` threads
run closest-peer queries against it with zero locks.  One cell per entry
in ``reader_counts`` (the **concurrent-clients dimension**).  Because the
readers share hardware (CI runs this on a single core, where the
interpreter time-slices the threads), wall-clock throughput cannot show
reader scaling; the cell therefore records two throughputs:

* ``wall_qps`` — aggregate queries per wall-clock second, whatever the
  scheduler did;
* ``capacity_qps`` — the sum over readers of ``ops / on-CPU busy time``
  (per-thread ``time.thread_time_ns``): the rate the reader fleet would
  sustain given a core each, i.e. the lock-freedom signal.  Readers that
  serialised on a lock would burn busy time waiting and ``capacity_qps``
  would stay flat as readers are added; lock-free readers scale it
  linearly.

Latency quantiles (``latency_p50_ns`` / ``latency_p99_ns``) are on-CPU
nanoseconds per query for the same reason — wall-clock quantiles on a
shared core measure scheduler slices, not the read path.  Three more
pieces of quantile hygiene: each reader runs a short untimed warmup pass
before the barrier (interpreter type/specialisation caches); the cyclic GC
is paused across the timed sweep (read queries allocate but create no
cycles, and a generational collection over a population-sized snapshot
heap otherwise lands in whichever query it interrupts and owns the p99);
and each reader makes several timed passes over the identical query
sample, recording a query's latency as its *minimum* across passes.  The
queries are deterministic and read-only, so the minimum is the standard
repeated-measurement estimator of their true cost: heterogeneity across
queries survives (a cache-miss query is slow in every pass), and so would
lock contention (waiting burns on-CPU time in every pass), while
preemption-resume cache refills and clock-syscall jitter — which land on
different queries each pass — do not.  ``publish_lag_us``
records how long the publisher takes to build+install the next epoch
(snapshot staleness bound) after a fixed churn batch — 64 peers leave and
re-join through the publisher — because a publish costs what changed since
the previous one; the readers keep the epoch pinned before that batch.  The
serving cells run on inline cells
only: the snapshot read path is identical wherever the shards live, so the
backend axis is degenerate for it.

The ``recovery`` / ``recovery-compacted`` pair (schema v6) measures the
self-healing path: restart+replay cost of a churned remote shard before
and after journal compaction (see :func:`run_recovery_workload`).  Both
cells exist per remote backend and carry ``journal_len`` / ``snapshot_bytes``
/ ``recovery_us`` counters so compaction regressions gate like time
regressions.

The suite has an optional **shards** dimension: with ``shards=None`` a cell
runs the classic single-landmark
:class:`~repro.core.management_server.ManagementServer` (bit-for-bit the
pre-sharding workload, so old and new ``BENCH_discovery.json`` reports stay
comparable), while an integer runs a
:class:`~repro.core.sharded.ShardedManagementServer` over a fixed
:data:`SHARDED_LANDMARK_COUNT`-landmark population — the same workload at
every shard count, so per-op cost across the shards axis isolates the cost
of partitioning itself.

Orthogonally, the **backend** dimension says where sharded cells' shards
live: ``backend="inline"`` keeps them in-process (the only pre-v3
behaviour), ``backend="process"`` forks one child shard server per shard,
and ``backend="socket"`` (schema v7) runs every shard as a
connection-scoped server on one loopback asyncio shard server thread —
both behind :class:`~repro.core.socket_backend.SocketShardBackend` on the
same framed Unix-socket transport, the same workload over the same
partitioning, so per-op cost across the backend axis isolates the cost of
crossing the boundary (framing, codec, chunked fills, socket I/O) and of
where the server runs (another process vs. a thread sharing this GIL).
Remote backends require a shard count; every workload reaps its worker
processes, connections and loopback servers before returning, however the
measured phase exits.

Sampling is a pure function of ``(seed, workload, population)``: every
workload re-seeds its own RNG via :func:`workload_rng` instead of sharing a
suite-level RNG, so multiplying cells along the shards axis can never
silently change which peers an existing cell samples.

Every record carries the :class:`~repro.core.management_server.ServerStats`
counter deltas observed during the measured phase plus the landmark trees'
node-visit counters and the insert-side trie work counters
(``trie_nodes_created`` / ``trie_nodes_touched``, schema v5), so
regressions in algorithmic work are visible even on noisy machines.
Schema v8 adds two memory counters to every cell: ``peak_rss_kb`` (the
process's resident-set high-water mark at the end of the measured phase —
monotone across a run, so a leak shows up where it happens and the largest
populations bound it) and ``bytes_per_peer`` (that peak divided by the
cell's population: the per-peer memory trajectory of the whole plane).
"""

from __future__ import annotations

import gc
import random
import resource
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.management_server import ManagementServer
from ..core.path import RouterPath
from ..core.serving import SnapshotPublisher, SnapshotReader
from ..core.remote import BACKENDS, shard_factory_for
from ..core.sharded import ShardedManagementServer
from ..protocol.peer import BeaconConfig
from ..protocol.simulation import ProtocolSimulation
from ..sim.rng import derive_seed
from ..topology.internet_mapper import RouterMap, RouterMapConfig, generate_router_map
from ..workloads.scenarios import ScenarioConfig, build_scenario
from .report import PerfRecord, PerfReport
from .timer import OpTimer

DEFAULT_POPULATIONS = (200, 800, 3200, 12800)
DEFAULT_LANDMARK = "lmk"

#: Batch sizes the suite measures the ``arrival`` workload at: sequential
#: joins, a moderate co-arriving group, and a full flash-crowd wave.
DEFAULT_ARRIVAL_BATCH_SIZES = (1, 32, 256)

#: Reader counts the suite measures the ``serving`` workload at: the
#: single-reader baseline and two fan-out points of the concurrent-clients
#: sweep (the acceptance bar compares 1 vs 4).
DEFAULT_READER_COUNTS = (1, 2, 4)

#: Landmark count used by every ``build`` cell (sharded or not) so the
#: scenario workload is identical along the shards/backend axes.
BUILD_LANDMARK_COUNT = 8

#: Landmark count used by every sharded cell, regardless of shard count, so
#: the workload is identical along the shards axis and only the partitioning
#: varies.
SHARDED_LANDMARK_COUNT = 8

ManagementPlane = Union[ManagementServer, ShardedManagementServer]

# Per-workload RNG offsets; keep these stable or old reports stop being
# comparable (the sampled peers would change).
_QUERY_RNG_OFFSET = 2
_DEPARTURE_RNG_OFFSET = 3
_CHURN_RNG_OFFSET = 4

# Seed offset for the arrival workload's newcomer paths (distinct from the
# insert workload's ``seed + 1`` newcomers, so the two cells never share
# peers).
_ARRIVAL_SEED_OFFSET = 7

# RNG offset for the recovery workload's churn victims.
_RECOVERY_RNG_OFFSET = 9

# RNG offset for the serving workload's query sample.
_SERVING_RNG_OFFSET = 11

# Untimed queries each serving reader runs before the barrier releases it.
_SERVING_WARMUP_OPS = 200

# Timed passes each serving reader makes over the query sample; a query's
# recorded latency is its minimum across the passes (see the module
# docstring's quantile-hygiene paragraph).
_SERVING_LATENCY_PASSES = 3

#: Peers that leave and re-join through the publisher before the timed
#: publish: a publish costs what changed since the last one, so timing one
#: with nothing pending would time an empty epoch.
_SERVING_PUBLISH_CHURN = 64

#: Wire loss probabilities the ``protocol`` workload sweeps when enabled
#: (one cell per rate, inline-only; the suite skips the workload unless the
#: caller passes rates — ``--protocol-loss`` on the CLI).
DEFAULT_PROTOCOL_LOSS_RATES = (0.0, 0.1, 0.3)

# Simulated milliseconds each protocol cell runs the beaconing sim for, and
# the beacon cadence it uses.  Fixed simulated time (not ``ops``) keeps the
# cell's *simulated-time* counters — messages/sec, maintenance bytes per
# peer per second, discovery quantiles — comparable across machines; the
# wall-clock ``per_op_us`` (cost per wire message processed) is what the
# regression gate watches.
_PROTOCOL_DURATION_MS = 3000.0
_PROTOCOL_BEACON_INTERVAL_MS = 500.0

# Seed stream name for the protocol workload's simulation (network + peer
# jitter); the sweep derives one stream per loss rate.
_PROTOCOL_SEED_STREAM = "perf-protocol"


def workload_rng(seed: int, offset: int) -> random.Random:
    """A fresh RNG for one workload invocation (one report cell).

    Sampling must depend only on the suite seed and the workload — never on
    how many other cells ran before, which the ``shards`` dimension
    multiplies — so each workload builds its own RNG from ``seed + offset``
    at call time.  Because populations register peers in index order,
    ``rng.sample(server.peers(), ops)`` then picks the same peer *names* in
    every cell of a population, sharded or not, and matches reports written
    before the shards dimension existed.
    """
    return random.Random(seed + offset)


def synthetic_paths(
    count: int,
    seed: int = 3,
    landmark: str = DEFAULT_LANDMARK,
    prefix: str = "peer",
) -> List[RouterPath]:
    """``count`` synthetic peer paths over a three-level access hierarchy."""
    rng = random.Random(seed)
    paths: List[RouterPath] = []
    for index in range(count):
        region = rng.randrange(12)
        pop = rng.randrange(30)
        access = rng.randrange(60)
        routers = [
            f"access-{region}-{pop}-{access}",
            f"pop-{region}-{pop}",
            f"region-{region}",
            "core",
            landmark,
        ]
        paths.append(RouterPath.from_routers(f"{prefix}{index}", landmark, routers))
    return paths


def sharded_landmarks(landmark_count: int = SHARDED_LANDMARK_COUNT) -> List[str]:
    """Landmark identifiers used by the sharded cells."""
    return [f"lmk{index}" for index in range(landmark_count)]


def sharded_landmark_distances(
    landmark_count: int = SHARDED_LANDMARK_COUNT,
) -> Dict[Tuple[str, str], float]:
    """Deterministic pairwise hop distances between the sharded landmarks."""
    names = sharded_landmarks(landmark_count)
    return {
        (names[i], names[j]): float(2 + abs(i - j))
        for i in range(landmark_count)
        for j in range(landmark_count)
        if i < j
    }


def synthetic_sharded_paths(
    count: int,
    seed: int = 3,
    landmark_count: int = SHARDED_LANDMARK_COUNT,
    prefix: str = "peer",
) -> List[RouterPath]:
    """``count`` synthetic paths spread over ``landmark_count`` landmarks.

    Peer names match :func:`synthetic_paths` (``peer0``, ``peer1``, …, in
    index order) so per-cell sampling picks the same names as the
    single-landmark cells; each landmark gets its own disjoint three-level
    hierarchy so the per-landmark trees are independent.
    """
    rng = random.Random(seed)
    names = sharded_landmarks(landmark_count)
    paths: List[RouterPath] = []
    for index in range(count):
        landmark = names[rng.randrange(landmark_count)]
        region = rng.randrange(12)
        pop = rng.randrange(30)
        access = rng.randrange(60)
        routers = [
            f"{landmark}-access-{region}-{pop}-{access}",
            f"{landmark}-pop-{region}-{pop}",
            f"{landmark}-region-{region}",
            f"{landmark}-core",
            landmark,
        ]
        paths.append(RouterPath.from_routers(f"{prefix}{index}", landmark, routers))
    return paths


def _population_paths(
    count: int, seed: int, shards: Optional[int], prefix: str = "peer"
) -> List[RouterPath]:
    """The synthetic population for a cell (single- or multi-landmark)."""
    if shards is None:
        return synthetic_paths(count, seed=seed, prefix=prefix)
    return synthetic_sharded_paths(count, seed=seed, prefix=prefix)


def arrival_paths(
    count: int, seed: int, shards: Optional[int], prefix: str = "arrival"
) -> List[RouterPath]:
    """``count`` flash-crowd newcomer paths with concentrated access locality.

    Same router namespace as the steady population, but arrivals are drawn
    from 4 regions x 8 PoPs x 12 access routers (384 access leaves instead
    of 21 600): a flash crowd shares access networks, so batches of
    co-arriving peers genuinely cluster on attachment routers.  Sharded
    cells concentrate the crowd on the first two landmarks the same way.
    """
    rng = random.Random(seed)
    names = sharded_landmarks()
    paths: List[RouterPath] = []
    for index in range(count):
        region = rng.randrange(4)
        pop = rng.randrange(8)
        access = rng.randrange(12)
        if shards is None:
            landmark = DEFAULT_LANDMARK
            routers = [
                f"access-{region}-{pop}-{access}",
                f"pop-{region}-{pop}",
                f"region-{region}",
                "core",
                landmark,
            ]
        else:
            landmark = names[rng.randrange(2)]
            routers = [
                f"{landmark}-access-{region}-{pop}-{access}",
                f"{landmark}-pop-{region}-{pop}",
                f"{landmark}-region-{region}",
                f"{landmark}-core",
                landmark,
            ]
        paths.append(RouterPath.from_routers(f"{prefix}{index}", landmark, routers))
    return paths


#: Backends whose shards live behind a transport (child-process / thread
#: or external shard server) — they only exist on a sharded plane, so their cells need a
#: shard count, and each has a recovery (restart/reconnect+replay) story
#: the ``recovery`` workload measures.
REMOTE_BACKENDS = ("process", "socket")


def _require_backend(backend: str, shards: Optional[int]) -> None:
    """Reject unknown backends and remote cells without a shard count."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend in REMOTE_BACKENDS and shards is None:
        raise ValueError(f"backend={backend!r} requires a shard count")


def build_populated_server(
    population: int,
    neighbor_set_size: int = 5,
    seed: int = 3,
    shards: Optional[int] = None,
    backend: str = "inline",
) -> ManagementPlane:
    """A management plane pre-loaded with ``population`` synthetic peers.

    ``shards=None`` reproduces the original single-landmark
    :class:`ManagementServer` exactly; an integer builds a
    :class:`ShardedManagementServer` over that many shards with
    :data:`SHARDED_LANDMARK_COUNT` landmarks, inline or (with
    ``backend="process"``) one worker process per shard.  The caller owns
    the returned plane and must ``close()`` it.
    """
    _require_backend(backend, shards)
    if shards is None:
        server: ManagementPlane = ManagementServer(neighbor_set_size=neighbor_set_size)
        server.register_landmark(DEFAULT_LANDMARK, DEFAULT_LANDMARK)
    else:
        shard_factory = shard_factory_for(backend, neighbor_set_size)
        server = ShardedManagementServer(
            shard_count=shards,
            neighbor_set_size=neighbor_set_size,
            landmark_distances=sharded_landmark_distances(),
            shard_factory=shard_factory,
        )
        for landmark in sharded_landmarks():
            server.register_landmark(landmark, landmark)
    try:
        server.register_peers(_population_paths(population, seed, shards))
    except BaseException:
        server.close()
        raise
    return server


def _tree_visits(server: ManagementPlane) -> int:
    """Total trie nodes visited by closest-peer queries across all trees."""
    return server.total_tree_visits()


def _insert_work(server: ManagementPlane) -> Tuple[int, int]:
    """Total trie ``(nodes_created, nodes_touched)`` across all trees."""
    return server.total_insert_work()


def _memory_counters(population: int) -> Dict[str, int]:
    """``peak_rss_kb`` / ``bytes_per_peer`` for one cell (schema v8).

    ``ru_maxrss`` is the process-lifetime resident-set high-water mark
    (kilobytes on Linux) — monotone across a suite run, so within a run the
    growth between cells localises where memory went, and the largest
    population's cell bounds the whole plane's footprint.
    ``bytes_per_peer`` divides that peak by the cell's population: the
    per-peer memory trajectory the roadmap's scaling claims gate on.
    """
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "peak_rss_kb": int(peak_rss_kb),
        "bytes_per_peer": int(peak_rss_kb * 1024 // max(1, population)),
    }


def _measured_counters(
    server: ManagementPlane,
    visits_before: int,
    work_before: Tuple[int, int],
    population: int,
) -> Dict[str, int]:
    counters = server.stats.as_dict()
    counters["tree_node_visits"] = _tree_visits(server) - visits_before
    created, touched = _insert_work(server)
    counters["trie_nodes_created"] = created - work_before[0]
    counters["trie_nodes_touched"] = touched - work_before[1]
    counters.update(_memory_counters(population))
    return counters


def run_insert_workload(
    population: int,
    ops: int = 200,
    seed: int = 3,
    neighbor_set_size: int = 5,
    shards: Optional[int] = None,
    backend: str = "inline",
) -> PerfRecord:
    """Batch arrival of ``ops`` newcomers on top of ``population`` peers."""
    server = build_populated_server(
        population, neighbor_set_size, seed=seed, shards=shards, backend=backend
    )
    try:
        newcomers = _population_paths(ops, seed + 1, shards, prefix="newcomer")
        server.stats.reset()
        visits = _tree_visits(server)
        work = _insert_work(server)
        timer = OpTimer()
        with timer:
            server.register_peers(newcomers)
            timer.add_ops(len(newcomers))
        return PerfRecord.from_timing(
            "insert",
            population,
            timer.timing,
            _measured_counters(server, visits, work, population),
            shards=shards,
            backend=backend,
        )
    finally:
        server.close()


def run_query_workload(
    population: int,
    ops: int = 2000,
    seed: int = 3,
    neighbor_set_size: int = 5,
    shards: Optional[int] = None,
    backend: str = "inline",
) -> PerfRecord:
    """Cached closest-peer lookups against a steady population."""
    server = build_populated_server(
        population, neighbor_set_size, seed=seed, shards=shards, backend=backend
    )
    try:
        rng = workload_rng(seed, _QUERY_RNG_OFFSET)
        peers = server.peers()
        sample = [rng.choice(peers) for _ in range(ops)]
        server.stats.reset()
        visits = _tree_visits(server)
        work = _insert_work(server)
        timer = OpTimer()
        with timer:
            for peer in sample:
                server.closest_peers(peer)
                timer.add_ops()
        return PerfRecord.from_timing(
            "query",
            population,
            timer.timing,
            _measured_counters(server, visits, work, population),
            shards=shards,
            backend=backend,
        )
    finally:
        server.close()


def run_departure_workload(
    population: int,
    ops: int = 200,
    seed: int = 3,
    neighbor_set_size: int = 5,
    shards: Optional[int] = None,
    backend: str = "inline",
) -> PerfRecord:
    """Departures repaired through the reverse neighbour index."""
    server = build_populated_server(
        population, neighbor_set_size, seed=seed, shards=shards, backend=backend
    )
    try:
        rng = workload_rng(seed, _DEPARTURE_RNG_OFFSET)
        ops = min(ops, population - 1)
        departing = rng.sample(server.peers(), ops)
        server.stats.reset()
        visits = _tree_visits(server)
        work = _insert_work(server)
        timer = OpTimer()
        with timer:
            for peer in departing:
                server.unregister_peer(peer)
                timer.add_ops()
        return PerfRecord.from_timing(
            "departure",
            population,
            timer.timing,
            _measured_counters(server, visits, work, population),
            shards=shards,
            backend=backend,
        )
    finally:
        server.close()


def run_churn_workload(
    population: int,
    ops: int = 200,
    seed: int = 3,
    neighbor_set_size: int = 5,
    shards: Optional[int] = None,
    backend: str = "inline",
) -> PerfRecord:
    """Interleaved leave / re-join cycles at a steady population."""
    server = build_populated_server(
        population, neighbor_set_size, seed=seed, shards=shards, backend=backend
    )
    try:
        rng = workload_rng(seed, _CHURN_RNG_OFFSET)
        churners = rng.sample(server.peers(), min(ops, population - 1))
        replacement_paths = {
            path.peer_id: path for path in _population_paths(population, seed, shards)
        }
        server.stats.reset()
        visits = _tree_visits(server)
        work = _insert_work(server)
        timer = OpTimer()
        with timer:
            for peer in churners:
                server.unregister_peer(peer)
                server.register_peers([replacement_paths[peer]])
                timer.add_ops()
        return PerfRecord.from_timing(
            "churn",
            population,
            timer.timing,
            _measured_counters(server, visits, work, population),
            shards=shards,
            backend=backend,
        )
    finally:
        server.close()


def run_arrival_workload(
    population: int,
    ops: int = 256,
    seed: int = 3,
    neighbor_set_size: int = 5,
    shards: Optional[int] = None,
    backend: str = "inline",
    batch_size: int = 32,
) -> PerfRecord:
    """Flash-crowd arrival: ``ops`` newcomers join in ``batch_size`` waves.

    Registers the same concentrated-locality newcomer stream (see
    :func:`arrival_paths`) as consecutive ``register_peers`` batches of
    ``batch_size`` on top of a ``population``-peer steady plane, so the
    per-newcomer cost across the batch-size axis isolates what batching
    itself buys (amortised validation, one cache pass per wave).
    ``per_op_us`` divides by the newcomer count.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    server = build_populated_server(
        population, neighbor_set_size, seed=seed, shards=shards, backend=backend
    )
    try:
        newcomers = arrival_paths(ops, seed + _ARRIVAL_SEED_OFFSET, shards)
        server.stats.reset()
        visits = _tree_visits(server)
        work = _insert_work(server)
        timer = OpTimer()
        with timer:
            for start in range(0, len(newcomers), batch_size):
                batch = newcomers[start : start + batch_size]
                server.register_peers(batch)
                timer.add_ops(len(batch))
        return PerfRecord.from_timing(
            "arrival",
            population,
            timer.timing,
            _measured_counters(server, visits, work, population),
            shards=shards,
            backend=backend,
            batch_size=batch_size,
        )
    finally:
        server.close()


def _quantile(sorted_values: Sequence[int], fraction: float) -> int:
    """Nearest-rank quantile of a pre-sorted sample (0 for an empty one)."""
    if not sorted_values:
        return 0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return int(sorted_values[rank])


def _serving_reader_loop(
    snapshot, sample: Sequence[str], results: list, slot: int, barrier: threading.Barrier
) -> None:
    """One reader thread: pin-per-query closest-peer lookups over a snapshot.

    Busy time and per-query latencies use ``time.thread_time_ns`` (on-CPU
    nanoseconds for *this* thread), so the numbers mean the same thing
    whether the fleet got one core or is being time-sliced on a single one
    — see the module docstring's ``capacity_qps`` rationale.  A short
    untimed warmup pass runs before the barrier (a throwaway reader issues
    it so ``queries_served`` counts exactly the timed queries); the timed
    region then makes :data:`_SERVING_LATENCY_PASSES` passes over the
    sample and reports each query's minimum latency across them (the
    module docstring's quantile-hygiene paragraph says why).
    """
    reader = SnapshotReader(snapshot)
    clock = time.thread_time_ns
    warmup = SnapshotReader(snapshot)
    for peer in sample[:_SERVING_WARMUP_OPS]:
        warmup.closest_peers(peer)
    best: List[int] = [0] * len(sample)
    barrier.wait()
    busy_start = clock()
    for pass_index in range(_SERVING_LATENCY_PASSES):
        first_pass = pass_index == 0
        for index, peer in enumerate(sample):
            started = clock()
            reader.closest_peers(peer)
            elapsed = clock() - started
            if first_pass or elapsed < best[index]:
                best[index] = elapsed
    busy_ns = clock() - busy_start
    results[slot] = (reader.queries_served, busy_ns, best)


def run_serving_workload(
    population: int,
    ops: int = 2000,
    seed: int = 3,
    neighbor_set_size: int = 5,
    shards: Optional[int] = None,
    backend: str = "inline",
    reader_counts: Sequence[int] = DEFAULT_READER_COUNTS,
) -> List[PerfRecord]:
    """Lock-free snapshot reads under a concurrent-clients sweep (schema v8).

    Builds one populated plane, publishes one
    :class:`~repro.core.serving.DiscoverySnapshot` epoch through a
    :class:`~repro.core.serving.SnapshotPublisher`, then — one cell per
    entry in ``reader_counts`` — runs that many
    :class:`~repro.core.serving.SnapshotReader` threads, each issuing the
    same ``ops`` closest-peer queries against the pinned epoch,
    :data:`_SERVING_LATENCY_PASSES` times over.  The cell's ``ops`` is the
    fleet total (``ops x readers x passes``); ``per_op_us`` is wall time
    per query.  Counters per cell:

    * ``capacity_qps`` — sum over readers of queries per on-CPU second,
      the core-independent scaling signal (see the module docstring);
    * ``wall_qps`` — aggregate wall-clock throughput as scheduled;
    * ``latency_p50_ns`` / ``latency_p99_ns`` — on-CPU per-query quantiles
      over every reader's sample, each query's latency its minimum across
      the passes (quantile hygiene, module docstring);
    * ``publish_lag_us`` — how long building+installing the next epoch
      takes on the write side (the staleness bound readers pay) once
      :data:`_SERVING_PUBLISH_CHURN` peers have left and re-joined since
      the epoch the readers hold;
    * ``generation`` and the schema-v8 memory counters.
    """
    if any(count < 1 for count in reader_counts):
        raise ValueError(f"reader counts must be >= 1, got {list(reader_counts)}")
    server = build_populated_server(
        population, neighbor_set_size, seed=seed, shards=shards, backend=backend
    )
    try:
        publisher = SnapshotPublisher(server)
        # The readers are served the epoch pinned here — every list warm, as
        # in every baseline so far; the churn below erodes cached lists on
        # the live plane, and a read sweep over *that* epoch would time trie
        # queries, not the lock-free read path.
        snapshot = publisher.snapshot
        rng = workload_rng(seed, _SERVING_RNG_OFFSET)
        peers = server.peers()
        sample = [rng.choice(peers) for _ in range(ops)]
        churned = rng.sample(peers, min(_SERVING_PUBLISH_CHURN, len(peers)))
        paths = [server.peer_path(peer) for peer in churned]
        for peer in churned:
            publisher.unregister_peer(peer)
        for path in paths:
            publisher.register_peer(path)
        publisher.publish()
        publish_lag_us = int(publisher.last_publish_seconds * 1e6)
        records: List[PerfRecord] = []
        # Quantile hygiene: drain the build-phase garbage now, then keep the
        # cyclic collector paused across the timed sweeps.  Read queries
        # allocate but never create cycles, and a generational collection
        # over a population-sized snapshot heap lands in whichever query it
        # interrupts — that pause, not the read path, owns the p99.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for readers in reader_counts:
                results: List[Optional[Tuple[int, int, List[int]]]] = [None] * readers
                barrier = threading.Barrier(readers + 1)
                threads = [
                    threading.Thread(
                        target=_serving_reader_loop,
                        args=(snapshot, sample, results, slot, barrier),
                    )
                    for slot in range(readers)
                ]
                for thread in threads:
                    thread.start()
                timer = OpTimer()
                with timer:
                    barrier.wait()  # release the fleet, then wall-clock it
                    for thread in threads:
                        thread.join()
                    timer.add_ops(ops * readers * _SERVING_LATENCY_PASSES)
                latencies: List[int] = []
                capacity_qps = 0.0
                for entry in results:
                    assert entry is not None  # threads report before join returns
                    served, busy_ns, reader_latencies = entry
                    capacity_qps += served / max(busy_ns, 1) * 1e9
                    latencies.extend(reader_latencies)
                latencies.sort()
                wall_s = timer.timing.total_s
                fleet_queries = ops * readers * _SERVING_LATENCY_PASSES
                counters = {
                    "capacity_qps": int(capacity_qps),
                    "wall_qps": int(fleet_queries / wall_s) if wall_s > 0 else 0,
                    "latency_p50_ns": _quantile(latencies, 0.50),
                    "latency_p99_ns": _quantile(latencies, 0.99),
                    "publish_lag_us": publish_lag_us,
                    "generation": snapshot.generation,
                }
                counters.update(_memory_counters(population))
                records.append(
                    PerfRecord.from_timing(
                        "serving",
                        population,
                        timer.timing,
                        counters,
                        shards=shards,
                        backend=backend,
                        readers=readers,
                    )
                )
        finally:
            if gc_was_enabled:
                gc.enable()
        return records
    finally:
        server.close()


def run_protocol_workload(
    population: int,
    seed: int = 3,
    neighbor_set_size: int = 5,
    loss_rates: Sequence[float] = DEFAULT_PROTOCOL_LOSS_RATES,
) -> List[PerfRecord]:
    """The beaconing discovery protocol over the lossy wire (schema v9).

    One cell per entry in ``loss_rates``: a
    :class:`~repro.protocol.simulation.ProtocolSimulation` with
    ``population`` beaconing peers runs :data:`_PROTOCOL_DURATION_MS`
    simulated milliseconds at that wire loss probability, and the cell
    times the whole event-driven run.  ``ops`` is the number of wire
    messages the simulation carried (beacons + acks, including dropped and
    duplicated copies), so ``per_op_us`` is the wall cost per message
    event — the hot path being the network send/deliver machinery plus the
    host's dedup/registration work.  Counters per cell:

    * ``messages_per_sec`` / ``maintenance_bytes_per_peer_s`` — simulated-
      time protocol costs (the paper-facing numbers);
    * ``discovery_p50_ms`` / ``discovery_p99_ms`` — simulated time from a
      peer's first beacon to its first neighbour list (the ack that
      answers its registration carries it);
    * ``beacons_sent`` / ``retransmissions`` / ``dropped_messages`` /
      ``duplicated_messages`` / ``reordered_messages`` / ``peers_expired``
      / ``discovered_peers`` (peers holding a list) — protocol health,
      plus the schema-v8 memory counters.

    The simulation is seed-deterministic per ``(seed, loss)``, so the
    simulated-time counters are exactly reproducible; only the wall-clock
    timing varies across machines.
    """
    if not loss_rates:
        raise ValueError("loss_rates must not be empty")
    for loss in loss_rates:
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss rates must be in [0, 1), got {loss}")
    records: List[PerfRecord] = []
    paths = synthetic_paths(population, seed=seed)
    for loss in loss_rates:
        sim = ProtocolSimulation(
            paths,
            beacon_config=BeaconConfig(beacon_interval_ms=_PROTOCOL_BEACON_INTERVAL_MS),
            loss_probability=loss,
            seed=derive_seed(seed, f"{_PROTOCOL_SEED_STREAM}-{loss}"),
            neighbor_set_size=neighbor_set_size,
        )
        try:
            timer = OpTimer()
            with timer:
                metrics = sim.run(_PROTOCOL_DURATION_MS)
                timer.add_ops(metrics.messages_sent)
            counters = {
                "messages_per_sec": int(metrics.messages_per_sec),
                "maintenance_bytes_per_peer_s": int(metrics.maintenance_bytes_per_peer_s),
                "discovery_p50_ms": int(
                    metrics.discovery_latency.median if metrics.discovery_latency else 0
                ),
                "discovery_p99_ms": int(
                    metrics.discovery_latency.p99 if metrics.discovery_latency else 0
                ),
                "beacons_sent": metrics.beacons_sent,
                "retransmissions": metrics.retransmissions,
                "dropped_messages": metrics.dropped_messages,
                "duplicated_messages": metrics.duplicated_messages,
                "reordered_messages": metrics.reordered_messages,
                "peers_expired": metrics.host_counters.get("peers_expired", 0),
                "discovered_peers": metrics.discovered_peers,
            }
            counters.update(_memory_counters(population))
            records.append(
                PerfRecord.from_timing(
                    "protocol",
                    population,
                    timer.timing,
                    counters,
                    shards=None,
                    backend="inline",
                    loss=loss,
                )
            )
        finally:
            sim.close()
    return records


def run_recovery_workload(
    population: int,
    ops: int = 500,
    seed: int = 3,
    neighbor_set_size: int = 5,
    backend_name: str = "process",
) -> List[PerfRecord]:
    """Restart+replay cost vs journal length, with and without compaction.

    Builds one remote shard through
    :func:`~repro.core.remote.shard_factory_for` (``backend_name`` picks who
    hosts its server: a forked child for ``process``, a loopback thread for
    ``socket``), loads ``population`` peers, then runs ``ops``
    leave/re-join churn cycles so the journal records far more history than
    live state.  Two records come back (both tagged ``backend_name``,
    ``shards=1``):

    * ``recovery`` — ``restart()`` (respawn or reconnect) replaying the
      full churn journal; ``ops`` is the journal length, so ``per_op_us``
      is replay cost per journaled operation.
    * ``recovery-compacted`` — the same shard after
      :meth:`~repro.core.remote.SupervisedShardBackend.compact`, so the
      replay is one snapshot restore bounded by live state; ``per_op_us``
      is the whole restart.

    Counters carry ``journal_len``, ``snapshot_bytes``, ``recovery_us`` and
    ``live_peers`` (schema v6), so a compaction regression (snapshot bloat,
    replay growing with history again) gates like a time regression.
    """
    if backend_name not in REMOTE_BACKENDS:
        raise ValueError(
            f"recovery workload needs a remote backend {REMOTE_BACKENDS}, "
            f"got {backend_name!r}"
        )
    backend = shard_factory_for(backend_name, neighbor_set_size)()
    records: List[PerfRecord] = []
    try:
        backend.register_landmark(DEFAULT_LANDMARK, DEFAULT_LANDMARK)
        paths = synthetic_paths(population, seed=seed)
        backend.insert_paths(paths)
        rng = workload_rng(seed, _RECOVERY_RNG_OFFSET)
        for _ in range(ops):
            victim = paths[rng.randrange(len(paths))]
            backend.unregister_peer(victim.peer_id)
            backend.insert_paths([victim])

        journal_len = backend.supervisor.journal_length
        timer = OpTimer()
        with timer:
            backend.restart()
            timer.add_ops(journal_len)
        records.append(
            PerfRecord.from_timing(
                "recovery",
                population,
                timer.timing,
                {
                    "journal_len": journal_len,
                    "snapshot_bytes": 0,
                    "recovery_us": int(timer.timing.total_s * 1e6),
                    "live_peers": population,
                    **_memory_counters(population),
                },
                shards=1,
                backend=backend_name,
            )
        )

        snapshot_bytes = backend.compact()
        compacted_len = backend.supervisor.journal_length
        timer = OpTimer()
        with timer:
            backend.restart()
            timer.add_ops(compacted_len)
        records.append(
            PerfRecord.from_timing(
                "recovery-compacted",
                population,
                timer.timing,
                {
                    "journal_len": compacted_len,
                    "snapshot_bytes": snapshot_bytes,
                    "recovery_us": int(timer.timing.total_s * 1e6),
                    "live_peers": population,
                    **_memory_counters(population),
                },
                shards=1,
                backend=backend_name,
            )
        )
        return records
    finally:
        backend.close()


def build_map_config(population: int, seed: int = 3) -> RouterMapConfig:
    """Router map for one ``build`` cell, scaled to the population.

    The suite's largest population gets the paper-scale default map
    (~4 000 routers); smaller populations get proportionally smaller maps
    (clamped so the tier structure survives), keeping smoke cells cheap.
    The map is a pure function of ``(population, seed)`` so a cell is
    always comparable with itself across reports.
    """
    fraction = min(1.0, population / DEFAULT_POPULATIONS[-1])
    return RouterMapConfig(
        core_size=max(8, int(60 * fraction)),
        core_attachment=4,
        transit_size=max(12, int(600 * fraction)),
        transit_attachment=2,
        stub_size=max(48, int(3400 * fraction)),
        stub_attachment=1,
        seed=seed,
    )


def run_build_workload(
    population: int,
    ops: Optional[int] = None,
    seed: int = 3,
    neighbor_set_size: int = 5,
    shards: Optional[int] = None,
    backend: str = "inline",
    router_map_config: Optional[RouterMapConfig] = None,
    router_map: Optional[RouterMap] = None,
) -> PerfRecord:
    """Scenario distance-plane build at ``population`` peers.

    Times :func:`~repro.workloads.scenarios.build_scenario` (landmark
    placement, inter-landmark distance matrix, management plane, traceroute
    plumbing) plus :meth:`~repro.workloads.scenarios.Scenario.
    warm_distance_plane` (landmark routing trees and true-distance vectors
    from every distinct attachment router) over a pre-generated router map.
    ``ops`` is accepted for suite uniformity but ignored — one build is one
    cell, and ``per_op_us`` divides by the peer count.  Counters carry the
    distance engine's algorithmic-work counters plus the map size, so a
    regression in BFS batching is visible even on noisy machines.

    ``router_map`` optionally supplies the pre-generated map (the suite
    shares one map across a population's backend/shard cells — the map is
    a pure function of ``(population, seed)`` either way).
    """
    del ops  # one build per cell; the op count is the peer count
    _require_backend(backend, shards)
    if router_map is None:
        map_config = router_map_config or build_map_config(population, seed)
        router_map = generate_router_map(map_config)
    else:
        map_config = router_map.config
    config = ScenarioConfig(
        peer_count=population,
        landmark_count=BUILD_LANDMARK_COUNT,
        neighbor_set_size=neighbor_set_size,
        router_map_config=map_config,
        seed=seed,
        shard_count=shards,
        backend=backend,
    )
    scenario = None
    try:
        timer = OpTimer()
        with timer:
            scenario = build_scenario(config, router_map=router_map)
            distance_sources = scenario.warm_distance_plane()
            timer.add_ops(population)
        counters = scenario.distance_engine.stats.as_dict()
        counters["routers"] = router_map.graph.node_count
        counters["edges"] = router_map.graph.edge_count
        counters["distance_sources"] = distance_sources
        counters.update(_memory_counters(population))
        return PerfRecord.from_timing(
            "build",
            population,
            timer.timing,
            counters,
            shards=shards,
            backend=backend,
        )
    finally:
        if scenario is not None:
            scenario.close()


def run_discovery_suite(
    populations: Sequence[int] = DEFAULT_POPULATIONS,
    ops: Optional[int] = None,
    seed: int = 3,
    neighbor_set_size: int = 5,
    shard_counts: Optional[Sequence[Optional[int]]] = None,
    backends: Sequence[str] = ("inline",),
    arrival_batch_sizes: Sequence[int] = DEFAULT_ARRIVAL_BATCH_SIZES,
    recovery_ops: Optional[int] = None,
    reader_counts: Sequence[int] = DEFAULT_READER_COUNTS,
    protocol_loss_rates: Optional[Sequence[float]] = None,
) -> PerfReport:
    """Run every discovery workload at every (population, backend, shards).

    ``ops`` overrides each workload's default operation count (useful for
    smoke runs in CI); ``None`` keeps the defaults (the ``build`` workload
    ignores it either way).  ``shard_counts=None`` runs the classic
    single-server cells; a sequence like ``(1, 4)`` runs each workload on a
    :class:`ShardedManagementServer` at every listed shard count instead,
    tagging each record with its ``shards`` value.  A ``None`` *entry*
    (CLI spelling ``--shards none,2``) mixes the classic single-server
    cells into the same report, so one run can record a complete baseline:
    classic cells plus sharded cells across every backend.  ``backends``
    multiplies the sharded cells along the backend axis; remote backends
    (:data:`REMOTE_BACKENDS`) only exist sharded, so they skip ``None``
    shard entries (and require at least one real count).  Sampling stays a
    pure function of ``(seed, workload, population)``, so adding either
    dimension never changes what existing cells measure.

    For every remote backend among ``backends`` the suite also runs
    :func:`run_recovery_workload` once per population (it needs a real
    worker/connection to restart, so it is remote-only and single-shard);
    ``recovery_ops`` overrides its churn-cycle count independently of
    ``ops`` because replay cost scales with journal length, not query
    count.

    Inline cells additionally run :func:`run_serving_workload` — one
    ``serving`` record per entry in ``reader_counts`` (the
    concurrent-clients dimension).  The snapshot read path is identical
    wherever the shards live, so remote backends skip it.

    ``protocol_loss_rates`` (``--protocol-loss`` on the CLI) additionally
    runs :func:`run_protocol_workload` once per population — one
    ``protocol`` cell per loss rate, tagged with the schema-v9 ``loss``
    dimension.  The protocol cells measure the event-sim wire, not the
    plane backends, so they run once per population regardless of the
    shards/backend axes (``shards=None``, ``backend="inline"``) and are
    skipped entirely when the argument is ``None``.
    """
    for backend in backends:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    remote_backends = [backend for backend in backends if backend in REMOTE_BACKENDS]
    real_counts = [count for count in (shard_counts or []) if count is not None]
    if remote_backends and not real_counts:
        raise ValueError(
            f"backends including {remote_backends} require at least one real "
            "shard count (remote shards only exist on a sharded plane)"
        )
    report = PerfReport(
        metadata={
            "suite": "discovery",
            "populations": list(populations),
            "neighbor_set_size": neighbor_set_size,
            "seed": seed,
            "shard_counts": list(shard_counts) if shard_counts is not None else None,
            "backends": list(backends),
            "arrival_batch_sizes": list(arrival_batch_sizes),
            "recovery_ops": recovery_ops,
            "reader_counts": list(reader_counts),
            "protocol_loss_rates": (
                list(protocol_loss_rates) if protocol_loss_rates is not None else None
            ),
        }
    )
    overrides = {} if ops is None else {"ops": ops}
    shard_values: Sequence[Optional[int]] = (
        [None] if shard_counts is None else list(shard_counts)
    )
    for population in populations:
        # One map per population, shared by every backend/shard build cell
        # (it is a pure function of (population, seed); generation happens
        # outside the build cells' timed phase either way).
        build_router_map: Optional[RouterMap] = None
        for backend in backends:
            for shards in shard_values:
                if shards is None and backend in REMOTE_BACKENDS:
                    # Remote shards only exist on a sharded plane; the
                    # classic single-server cell is backend-independent and
                    # already covered by the inline pass.
                    continue
                for runner in (
                    run_insert_workload,
                    run_query_workload,
                    run_departure_workload,
                    run_churn_workload,
                ):
                    report.add(
                        runner(
                            population,
                            seed=seed,
                            neighbor_set_size=neighbor_set_size,
                            shards=shards,
                            backend=backend,
                            **overrides,
                        )
                    )
                for batch_size in arrival_batch_sizes:
                    report.add(
                        run_arrival_workload(
                            population,
                            seed=seed,
                            neighbor_set_size=neighbor_set_size,
                            shards=shards,
                            backend=backend,
                            batch_size=batch_size,
                            **overrides,
                        )
                    )
                if build_router_map is None:
                    build_router_map = generate_router_map(build_map_config(population, seed))
                report.add(
                    run_build_workload(
                        population,
                        seed=seed,
                        neighbor_set_size=neighbor_set_size,
                        shards=shards,
                        backend=backend,
                        router_map=build_router_map,
                    )
                )
                if backend == "inline":
                    for record in run_serving_workload(
                        population,
                        seed=seed,
                        neighbor_set_size=neighbor_set_size,
                        shards=shards,
                        backend=backend,
                        reader_counts=reader_counts,
                        **overrides,
                    ):
                        report.add(record)
        for backend_name in remote_backends:
            recovery_overrides = (
                overrides if recovery_ops is None else {"ops": recovery_ops}
            )
            for record in run_recovery_workload(
                population,
                seed=seed,
                neighbor_set_size=neighbor_set_size,
                backend_name=backend_name,
                **recovery_overrides,
            ):
                report.add(record)
        if protocol_loss_rates is not None:
            for record in run_protocol_workload(
                population,
                seed=seed,
                neighbor_set_size=neighbor_set_size,
                loss_rates=protocol_loss_rates,
            ):
                report.add(record)
    return report
