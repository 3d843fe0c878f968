"""Runs one workload in this process and turns what it measured into metrics."""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import registry
from .harness import (
    REF_NOMINAL_MS,
    Measurement,
    RefKernel,
    measure,
    peak_rss_mb,
    timed_setups,
)
from .trace import Tracer
from .workloads.base import Check, Finish, Workload
from .workloads.paper_join import PaperJoin
from .workloads.plane_churn import PlaneChurn, PlaneChurnSocket
from .workloads.protocol import ProtocolLossy
from .workloads.serving import ServingEpochs

WORKLOAD_CLASSES = {
    cls.name: cls for cls in (PaperJoin, PlaneChurn, PlaneChurnSocket, ServingEpochs, ProtocolLossy)
}

_PLANE = dict(population=12800, reserve=640, landmarks=8, k=5, check_samples=100)
_SMOKE_PLANE = dict(population=400, reserve=20, landmarks=8, k=5, check_samples=20)

#: Workload sizes.  ``full`` is what the metrics are quoted for; ``smoke``
#: exercises every code path in a fraction of a second for the tier-1 test.
SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "harness": dict(ref_size=12800, setups=3, untraced_rounds=3, traced_rounds=3),
        "paper-join": dict(
            peers=1400, landmarks=10, k=5, router_map=None,
            quality_sizes=(600, 1000, 1400), quality_samples=150,
        ),
        "plane-churn-inline": dict(_PLANE, ops_per_round=9000, digest_ops=10000),
        "plane-churn-socket": dict(
            _PLANE, ops_per_round=5000, digest_ops=10000, shards=2, restarts=6
        ),
        "serving-epochs": dict(_PLANE, epochs_per_round=4, mutations=64, reads=2000, check_samples=1000),
        "protocol-lossy": dict(
            peers=1600, k=5, beacon_ms=500.0, duration_ms=3000.0, slice_ms=2.5,
            loss=0.1, duplicate=0.02, reorder=0.02, handover_share=0.05, stop_share=0.05,
        ),
    },
    "smoke": {
        "harness": dict(ref_size=1280, setups=1, untraced_rounds=1, traced_rounds=1),
        "paper-join": dict(
            peers=60, landmarks=4, k=3,
            router_map=dict(
                core_size=20, core_attachment=3, transit_size=100, transit_attachment=2,
                stub_size=480, stub_attachment=1,
            ),
            quality_sizes=(30, 60), quality_samples=20,
        ),
        "plane-churn-inline": dict(_SMOKE_PLANE, ops_per_round=400, digest_ops=300),
        "plane-churn-socket": dict(
            _SMOKE_PLANE, ops_per_round=300, digest_ops=300, shards=2, restarts=2
        ),
        "serving-epochs": dict(_SMOKE_PLANE, epochs_per_round=2, mutations=8, reads=100, check_samples=100),
        "protocol-lossy": dict(
            peers=60, k=3, beacon_ms=500.0, duration_ms=2500.0, slice_ms=25.0,
            loss=0.1, duplicate=0.02, reorder=0.02, handover_share=0.05, stop_share=0.05,
        ),
    },
}


@dataclass
class Result:
    """One workload run: the contract's result line plus everything around it."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, float] = field(default_factory=dict)
    """Named values beyond the reported metric set (sample counts, per-class times)."""
    checks: List[Check] = field(default_factory=list)
    digest: str = ""
    layers: Dict[str, float] = field(default_factory=dict)
    """Share of traced self time per layer (traced runs only)."""

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(check.passed for check in self.checks)

    def line(self) -> Dict[str, object]:
        """The JSON object the contract wants as the last line of stdout."""
        units = {m.name: m.unit for m in registry.END_TO_END + registry.PER_LAYER}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in self.metrics.items()
            },
        }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: str = "full",
    trace_out: Optional[str] = None,
) -> Result:
    """Set up, measure, check and tear down one workload; see the module docs."""
    sizes = SCALES[scale]
    knobs = sizes["harness"]
    workload: Workload = WORKLOAD_CLASSES[name](seed, sizes[name])
    ref = RefKernel(int(knobs["ref_size"]))
    ref.run()  # first pass pays for lazy interpreter set-up
    result = Result(workload=name, seed=seed, traced=traced)
    setups = timed_setups(
        workload.setup, workload.teardown, ref, 1 if traced else int(knobs["setups"])
    )
    tracer = Tracer()
    try:
        # The population outlives every round: park it in the permanent
        # generation so the hand-run collections between rounds stay cheap.
        gc.collect()
        gc.freeze()
        warm = measure(workload.round, ref, rounds=1, first_index=-1)
        if traced:
            phases, counts = _traced_phases(workload, ref, tracer, knobs)
        else:
            phases = [measure(workload.round, ref, seconds=seconds)]
        rss = peak_rss_mb()
        finish = _finish(workload, ref)
    finally:
        workload.teardown()
        gc.unfreeze()
    result.checks = finish.checks
    result.digest = finish.digest
    result.attempted = sum(p.ops for p in [warm] + phases) + sum(c.ops for c in finish.checks)
    result.failed = sum(p.failed for p in [warm] + phases) + sum(
        check.ops for check in finish.checks if not check.passed
    )
    if traced:
        _layer_metrics(result, tracer, phases[0], phases[1], counts[0], counts[1], finish)
        if trace_out:
            tracer.write(trace_out)
    else:
        _end_to_end_metrics(result, phases[0], setups, rss)
        result.details.update(
            {name: value for name, value in _class_values(phases[0], finish).items() if value}
        )
    return result


def _traced_phases(workload: Workload, ref: RefKernel, tracer: Tracer, knobs: Dict[str, object]):
    """Untraced rounds, then traced ones; counter deltas over both and over the latter."""
    before = workload.counters()
    untraced = measure(workload.round, ref, rounds=int(knobs["untraced_rounds"]))
    between = workload.counters()
    tracer.install()
    try:
        traced = measure(
            workload.round, ref, rounds=int(knobs["traced_rounds"]), first_index=len(untraced.rounds)
        )
    finally:
        tracer.uninstall()
    after = workload.counters()
    return [untraced, traced], [_delta(before, after), _delta(between, after)]


def _finish(workload: Workload, ref: RefKernel) -> Finish:
    """Run the workload's checks between two reference passes.

    The wall-clock samples the checks took are scaled like a round's.
    """
    gc.collect()
    before = ref.run()
    finish = workload.finish()
    factor = REF_NOMINAL_MS / ((before + ref.run()) / 2.0)
    finish.timings_ms = {
        name: [value * factor for value in values] for name, values in finish.timings_ms.items()
    }
    return finish


def _delta(earlier: Dict[str, float], later: Dict[str, float]) -> Dict[str, float]:
    return {name: later[name] - earlier.get(name, 0) for name in later}


def _end_to_end_metrics(result: Result, main: Measurement, setups: List[float], rss: float) -> None:
    per_round_setups = [r.stats["setup_s"] for r in main.kept if "setup_s" in r.stats]
    result.metrics = {
        "setup_s": statistics.median(setups + per_round_setups),
        "ops_per_s": main.median("ops_per_s"),
        "op_p50_us": main.median("op_p50_us"),
        "op_p99_us": main.median("op_p99_us"),
        "peak_rss_mb": rss,
    }
    result.details.update(
        {
            "setup_samples": len(setups) + len(per_round_setups),
            "op_samples_per_round": main.median("op_samples"),
            "harness.rounds_kept": len(main.kept),
            "harness.disturbed_rounds": main.disturbed,
            "harness.ref_kernel_ms": main.ref_ms(),
            "harness.raw_wall_s": main.wall_s,
        }
    )


#: Per-class statistic of a measurement -> the name it is reported under.
_CLASS_METRICS = {
    "join_p50_us": "op.join_p50_us",
    "join_p99_us": "op.join_p99_us",
    "query_p50_us": "op.query_p50_us",
    "cold_query_p50_us": "op.cold_query_p50_us",
    "leave_p50_us": "op.leave_p50_us",
    "snapshot_query_p50_us": "op.snapshot_query_p50_us",
    "cold_snapshot_query_p50_us": "op.cold_snapshot_query_p50_us",
    "msg_p50_us": "op.msg_us",
}


def _class_values(measurement: Measurement, finish: Finish) -> Dict[str, float]:
    """Per-class latencies and the workload's own values, 0 where absent."""
    values = {
        reported: measurement.median(stat) or 0.0 for stat, reported in _CLASS_METRICS.items()
    }
    publish = measurement.median("publish_p50_us")
    values["op.publish_p50_ms"] = publish / 1e3 if publish else 0.0
    recovery = finish.timings_ms.get("recovery")
    values["op.recovery_p50_ms"] = statistics.median(recovery) if recovery else 0.0
    for name in (
        "quality.scheme_ratio", "quality.random_ratio", "sim.join_delay_p50_ms",
        "sim.discovery_p99_ms", "recovery.snapshot_bytes", "recovery.journal_len",
    ):
        values[name] = float(finish.values.get(name, 0.0))
    return values


def _layer_metrics(
    result: Result,
    tracer: Tracer,
    untraced: Measurement,
    traced: Measurement,
    counts: Dict[str, float],
    traced_counts: Dict[str, float],
    finish: Finish,
) -> None:
    """Per-layer metrics: self times from spans, counts from public counters.

    ``counts`` span the untraced and the traced rounds (a fixed number of
    rounds, so they repeat exactly for a seed); ratios against traced spans
    use ``traced_counts``.
    """
    ops = max(1, sum(r.sample.ops for r in traced.rounds))
    # Spans carry raw nanoseconds; scale them like the traced rounds' wall.
    raw_wall_ns = sum(r.sample.wall_ns for r in traced.rounds)
    factor = sum(r.sample.wall_ns * r.factor for r in traced.rounds) / max(1, raw_wall_ns)
    metrics = dict.fromkeys((m.name for m in registry.PER_LAYER), 0.0)
    for span in registry.SELF_TIME_SPANS:
        metrics[f"{span}_self_us"] = tracer.self_ns(span) * factor / 1e3 / ops
    metrics.update(_class_values(untraced, finish))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counted_ops = max(1, sum(r.sample.ops for r in untraced.rounds) + ops)
    roundtrips = tracer.calls("transport.roundtrip")
    events = traced_counts.get("events", 0)
    messages = counts.get("messages", 0)
    metrics.update(
        {
            "routing.trace_calls_per_join": ratio(tracer.calls("routing.trace"), tracer.calls("scenario.join")),
            "path_tree.node_visits_per_walk": ratio(counts.get("tree_visits", 0), counts.get("tree_queries", 0)),
            "path_tree.nodes_touched_per_insert": ratio(
                counts.get("insert_nodes_touched", 0), counts.get("registrations", 0)
            ),
            "neighbor_cache.hit_ratio": ratio(counts.get("cache_hits", 0), counts.get("queries", 0)),
            "neighbor_cache.refills_per_kop": 1e3 * ratio(counts.get("cache_refills", 0), counted_ops),
            "interning.key_calls_per_op": ratio(tracer.counts.get("interning.key", 0), ops),
            "sharded.roundtrips_per_op": ratio(roundtrips, ops) if tracer.calls("sharded.coordinator") else 0.0,
            "codec.bytes_per_roundtrip": ratio(tracer.byte_totals.get("codec.encode", 0), roundtrips),
            "transport.roundtrips": float(roundtrips),
            "transport.wait_us_per_roundtrip": ratio(
                (tracer.self_ns("transport.roundtrip") - tracer.total_self_ns(main_thread=False))
                * factor / 1e3,
                roundtrips,
            ),
            "serving.build_ms": ratio(tracer.self_ns("serving.build") * factor / 1e6, tracer.calls("serving.build")),
            "serving.flat_trie_ms": ratio(
                tracer.self_ns("serving.flat_trie") * factor / 1e6, tracer.calls("serving.build")
            ),
            "serving.walk_ratio": ratio(tracer.calls("serving.walk"), tracer.calls("serving.read")),
            "sim.events_per_msg": ratio(counts.get("events", 0), messages),
            "sim.engine_self_us_per_event": ratio(tracer.self_ns("sim.engine") * factor / 1e3, events),
            "sim.dropped_share": ratio(counts.get("dropped", 0), messages),
            "sim.duplicated_share": ratio(counts.get("duplicated", 0), messages),
            "protocol.dedup_hits": float(counts.get("dedup_hits", 0)),
            "protocol.peers_expired": float(counts.get("peers_expired", 0)),
            "protocol.retransmissions_per_peer": ratio(
                counts.get("retransmissions", 0), counts.get("peer_rounds", 0)
            ),
            "protocol.bytes_per_peer_s": ratio(counts.get("bytes", 0), counts.get("peer_seconds", 0)),
            "quality.oracle_s": sum(finish.timings_ms.get("quality.oracle", [])) / 1e3,
            "trace.coverage": ratio(tracer.total_self_ns(main_thread=True), raw_wall_ns),
            "trace.overhead_ratio": ratio(traced.ns_per_op(), untraced.ns_per_op()),
            "trace.unresolved_boundaries": float(len(tracer.unresolved)),
            "harness.ref_kernel_ms": traced.ref_ms(),
            "harness.rounds_kept": float(len(untraced.kept) + len(traced.kept)),
            "harness.disturbed_rounds": float(untraced.disturbed + traced.disturbed),
            "harness.raw_wall_s": untraced.wall_s + traced.wall_s,
        }
    )
    result.metrics = metrics
    total_self = max(1, tracer.total_self_ns())
    result.layers = {
        name: value / total_self for name, value in sorted(tracer.self_ns_by_name().items())
    }
    result.details["trace.spans"] = tracer.span_count()
