"""The benchmark's workloads and metrics: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root is :func:`manifest` written out;
``test_bench_smoke.py`` fails when the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

COMMAND = ["python3", "-m", "bench"]
PATHS = ["bench"]
RUN_SECONDS = 10


class WorkloadSpec(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    exact: bool = False
    """Repeats exactly for a seed (a count, or a simulated time)."""


WORKLOADS: List[WorkloadSpec] = [
    WorkloadSpec(
        "paper-join",
        "Figure 1 conditions through the real client stack (probe, traceroute, report, "
        "neighbour list); routing and newcomer code do the work and no other workload touches them",
    ),
    WorkloadSpec(
        "plane-churn-inline",
        "12,800-peer single server under queries, cold queries, leaves and re-joins; path trie, "
        "neighbour cache and interner do all the work; the control that bypasses wire, serving and sim",
    ),
    WorkloadSpec(
        "plane-churn-socket",
        "the same population and op stream over 2 socket shards, then compaction and restarts; "
        "coordinator, codec, transport and supervisor dominate, writes and recovery beside reads",
    ),
    WorkloadSpec(
        "serving-epochs",
        "mutate, publish, read over the same population; the snapshot rebuild dominates, so one "
        "trie format must speed publishing here without moving plane-churn-inline",
    ),
    WorkloadSpec(
        "protocol-lossy",
        "1,600 beaconing peers over a wire with loss, duplication, reordering, handovers and silent "
        "stops; event sim and protocol do the work and the plane almost none",
    ),
]

#: What a user of the system sees.  Every workload reports every one of
#: them; times are quoted for the reference machine (see harness.py).
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_us", "us", "lower", 0.25),
    Metric("op_p99_us", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: Self time of a layer, in microseconds per workload op, from the traced rounds.
SELF_TIME_SPANS = [
    "routing.trace",
    "routing.route",
    "routing.engine",
    "newcomer.select",
    "newcomer.probe",
    "plane.register",
    "plane.closest",
    "plane.unregister",
    "path_tree.insert",
    "path_tree.remove",
    "path_tree.walk",
    "neighbor_cache.store",
    "neighbor_cache.propagate",
    "neighbor_cache.drop",
    "sharded.coordinator",
    "codec.encode",
    "codec.decode",
    "shard_server.handle",
    "serving.read",
    "serving.walk",
    "sim.network_send",
    "protocol.host_handle",
    "protocol.peer_handle",
]

PER_LAYER: List[Metric] = (
    [Metric(f"{span}_self_us", "us", "lower") for span in SELF_TIME_SPANS]
    + [
        # per-class latencies of the untraced rounds (0 where the class is absent)
        Metric("op.join_p50_us", "us", "lower"),
        Metric("op.join_p99_us", "us", "lower"),
        Metric("op.query_p50_us", "us", "lower"),
        Metric("op.cold_query_p50_us", "us", "lower"),
        Metric("op.leave_p50_us", "us", "lower"),
        Metric("op.recovery_p50_ms", "ms", "lower"),
        Metric("op.publish_p50_ms", "ms", "lower"),
        Metric("op.snapshot_query_p50_us", "us", "lower"),
        Metric("op.cold_snapshot_query_p50_us", "us", "lower"),
        Metric("op.msg_us", "us", "lower"),
        # counts, ratios and simulated times: the ``exact`` ones repeat for a seed
        Metric("routing.trace_calls_per_join", "count", "lower", exact=True),
        Metric("path_tree.node_visits_per_walk", "count", "lower", exact=True),
        Metric("path_tree.nodes_touched_per_insert", "count", "lower", exact=True),
        Metric("neighbor_cache.hit_ratio", "ratio", "higher", exact=True),
        Metric("neighbor_cache.refills_per_kop", "count", "lower", exact=True),
        Metric("interning.key_calls_per_op", "count", "lower", exact=True),
        Metric("sharded.roundtrips_per_op", "count", "lower", exact=True),
        Metric("codec.bytes_per_roundtrip", "bytes", "lower", exact=True),
        Metric("transport.roundtrips", "count", "lower", exact=True),
        Metric("transport.wait_us_per_roundtrip", "us", "lower"),
        Metric("recovery.snapshot_bytes", "bytes", "lower", exact=True),
        Metric("recovery.journal_len", "count", "lower", exact=True),
        Metric("serving.build_ms", "ms", "lower"),
        Metric("serving.flat_trie_ms", "ms", "lower"),
        Metric("serving.walk_ratio", "ratio", "lower", exact=True),
        Metric("sim.events_per_msg", "count", "lower", exact=True),
        Metric("sim.engine_self_us_per_event", "us", "lower"),
        Metric("sim.dropped_share", "ratio", "lower", exact=True),
        Metric("sim.duplicated_share", "ratio", "lower", exact=True),
        Metric("sim.join_delay_p50_ms", "ms", "lower", exact=True),
        Metric("sim.discovery_p99_ms", "ms", "lower", exact=True),
        Metric("protocol.dedup_hits", "count", "lower", exact=True),
        Metric("protocol.peers_expired", "count", "lower", exact=True),
        Metric("protocol.retransmissions_per_peer", "count", "lower", exact=True),
        Metric("protocol.bytes_per_peer_s", "bytes/s", "lower", exact=True),
        Metric("quality.scheme_ratio", "ratio", "lower", exact=True),
        Metric("quality.random_ratio", "ratio", "higher", exact=True),
        Metric("quality.oracle_s", "s", "lower"),
        Metric("trace.coverage", "ratio", "higher"),
        Metric("trace.overhead_ratio", "ratio", "lower"),
        Metric("trace.unresolved_boundaries", "count", "lower", exact=True),
        Metric("harness.ref_kernel_ms", "ms", "lower"),
        Metric("harness.rounds_kept", "count", "higher"),
        Metric("harness.disturbed_rounds", "count", "lower"),
        Metric("harness.raw_wall_s", "s", "lower"),
    ]
)


def workload_names() -> List[str]:
    return [workload.name for workload in WORKLOADS]


def manifest() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
