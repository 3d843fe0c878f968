"""Tests for the perf harness (timer, report, workloads, CLI subcommand)."""

from __future__ import annotations

import json
import multiprocessing
import random

import pytest

from repro.cli import build_perf_parser, main, run_perf
from repro.core.sharded import ShardedManagementServer
from repro.perf.compare import CellDelta, compare_reports
from repro.perf.report import SCHEMA_VERSION, PerfRecord, PerfReport
from repro.perf.timer import OpTimer, Timing, time_ops
from repro.perf.workloads import (
    BUILD_LANDMARK_COUNT,
    DEFAULT_ARRIVAL_BATCH_SIZES,
    DEFAULT_POPULATIONS,
    DEFAULT_READER_COUNTS,
    SHARDED_LANDMARK_COUNT,
    _SERVING_LATENCY_PASSES,
    arrival_paths,
    build_map_config,
    build_populated_server,
    run_arrival_workload,
    run_build_workload,
    run_churn_workload,
    run_departure_workload,
    run_discovery_suite,
    run_insert_workload,
    run_protocol_workload,
    run_query_workload,
    run_recovery_workload,
    run_serving_workload,
)
from repro.topology.internet_mapper import RouterMapConfig

ALL_WORKLOADS = ("insert", "query", "departure", "churn", "arrival", "build", "serving")

#: The suite default: one arrival cell per batch size.
ARRIVAL_BATCH_SIZES = (1, 32, 256)

#: Tiny map for build-workload tests (the scaled default would dominate
#: test wall-clock).
SMALL_BUILD_MAP = dict(
    core_size=8,
    core_attachment=3,
    transit_size=12,
    transit_attachment=2,
    stub_size=60,
    stub_attachment=1,
)


def _algorithmic(counters):
    """Drop the host-dependent memory readings (``ru_maxrss`` is a process
    high-water mark, so it can grow between two otherwise identical cells)."""
    return {k: v for k, v in counters.items() if k not in ("peak_rss_kb", "bytes_per_peer")}


class TestTimer:
    def test_timing_derived_values(self):
        timing = Timing(ops=4, total_s=2.0)
        assert timing.per_op_s == 0.5
        assert timing.per_op_us == 500_000.0
        assert timing.ops_per_s == 2.0

    def test_zero_ops_is_safe(self):
        timing = Timing(ops=0, total_s=0.0)
        assert timing.per_op_s == 0.0
        assert timing.ops_per_s == float("inf")

    def test_op_timer_accumulates_across_bursts(self):
        timer = OpTimer()
        for _ in range(3):
            with timer:
                timer.add_ops(2)
        timing = timer.timing
        assert timing.ops == 6
        assert timing.total_s >= 0.0

    def test_time_ops_counts_and_times(self):
        timing = time_ops(lambda: sum(range(100)), ops=10)
        assert timing.ops == 10
        assert timing.total_s >= 0.0


class TestReport:
    def test_record_per_op_us(self):
        record = PerfRecord(workload="query", population=100, ops=1000, total_s=0.5)
        assert record.per_op_us == pytest.approx(500.0)

    def test_round_trip(self):
        report = PerfReport(metadata={"suite": "discovery"})
        report.add(
            PerfRecord(
                workload="insert", population=10, ops=5, total_s=0.1, counters={"registrations": 5}
            )
        )
        report.add(PerfRecord(workload="query", population=10, ops=5, total_s=0.1, shards=4))
        data = report.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        rebuilt = PerfReport.from_dict(data)
        assert rebuilt.records[0].workload == "insert"
        assert rebuilt.records[0].counters == {"registrations": 5}
        assert rebuilt.records[0].shards is None
        assert rebuilt.records[1].shards == 4
        assert rebuilt.metadata == {"suite": "discovery"}

    def test_schema_v1_records_load_with_no_shards(self):
        """Pre-sharding reports (no 'shards' key) stay loadable/comparable."""
        data = {
            "schema_version": 1,
            "metadata": {},
            "records": [
                {"workload": "query", "population": 20, "ops": 5, "total_s": 0.01}
            ],
        }
        rebuilt = PerfReport.from_dict(data)
        assert rebuilt.records[0].shards is None
        assert rebuilt.records[0].cell == ("query", 20, None, "inline", None, None, None)

    def test_schema_v2_records_load_as_inline_backend(self):
        """Pre-backend reports (no 'backend' key) line up with inline cells."""
        data = {
            "schema_version": 2,
            "metadata": {},
            "records": [
                {"workload": "churn", "population": 20, "ops": 5, "total_s": 0.01, "shards": 2}
            ],
        }
        rebuilt = PerfReport.from_dict(data)
        assert rebuilt.records[0].backend == "inline"
        assert rebuilt.records[0].cell == ("churn", 20, 2, "inline", None, None, None)

    def test_write_emits_valid_json(self, tmp_path):
        report = PerfReport()
        report.add(PerfRecord(workload="query", population=10, ops=1, total_s=0.01))
        path = report.write(tmp_path / "bench.json")
        data = json.loads(path.read_text())
        assert data["records"][0]["per_op_us"] == pytest.approx(10_000.0)

    def test_to_text_lists_all_records(self):
        report = PerfReport()
        report.add(PerfRecord(workload="churn", population=10, ops=1, total_s=0.01))
        text = report.to_text()
        assert "churn" in text
        assert "per_op_us" in text


class TestWorkloads:
    def test_build_populated_server_uses_batch_path(self):
        server = build_populated_server(30, seed=1)
        assert server.peer_count == 30
        assert server.stats.registrations == 30

    @pytest.mark.parametrize(
        "runner, name",
        [
            (run_insert_workload, "insert"),
            (run_query_workload, "query"),
            (run_departure_workload, "departure"),
            (run_churn_workload, "churn"),
        ],
    )
    def test_each_workload_produces_a_record(self, runner, name):
        record = runner(40, ops=10, seed=2)
        assert record.workload == name
        assert record.population == 40
        assert record.ops == 10
        assert record.total_s >= 0.0
        assert "registrations" in record.counters
        assert "tree_node_visits" in record.counters

    def test_query_workload_is_mostly_cache_hits(self):
        record = run_query_workload(50, ops=100, seed=2)
        assert record.counters["cache_hits"] >= 90

    def test_departure_workload_counts_reverse_index_repairs(self):
        record = run_departure_workload(50, ops=20, seed=2)
        assert record.counters["removals"] == 20
        # Reverse-index repairs happen, and never explode to O(n) per removal.
        assert 0 < record.counters["departure_updates"] < 20 * 50

    def test_churn_keeps_population_stable(self):
        record = run_churn_workload(40, ops=15, seed=2)
        assert record.counters["removals"] == 15
        assert record.counters["registrations"] == 15

    def test_suite_covers_all_workloads_and_populations(self):
        report = run_discovery_suite(populations=(20, 40), ops=5, seed=2)
        combos = {(record.workload, record.population) for record in report.records}
        assert combos == {
            (workload, population)
            for workload in ALL_WORKLOADS
            for population in (20, 40)
        }
        arrival_cells = {
            (record.population, record.batch_size)
            for record in report.records
            if record.workload == "arrival"
        }
        assert arrival_cells == {
            (population, batch_size)
            for population in (20, 40)
            for batch_size in ARRIVAL_BATCH_SIZES
        }
        assert all(
            record.batch_size is None
            for record in report.records
            if record.workload != "arrival"
        )
        serving_cells = {
            (record.population, record.readers)
            for record in report.records
            if record.workload == "serving"
        }
        assert serving_cells == {
            (population, readers)
            for population in (20, 40)
            for readers in DEFAULT_READER_COUNTS
        }
        assert all(
            record.readers is None
            for record in report.records
            if record.workload != "serving"
        )
        assert report.metadata["populations"] == [20, 40]
        assert report.metadata["arrival_batch_sizes"] == list(ARRIVAL_BATCH_SIZES)
        assert report.metadata["reader_counts"] == list(DEFAULT_READER_COUNTS)

    def test_default_populations_match_issue_scales(self):
        assert DEFAULT_POPULATIONS == (200, 800, 3200, 12800)


class TestArrivalWorkload:
    def test_arrival_record_shape(self):
        record = run_arrival_workload(40, ops=12, seed=2, batch_size=4)
        assert record.workload == "arrival"
        assert record.population == 40
        assert record.ops == 12
        assert record.batch_size == 4
        assert record.cell == ("arrival", 40, None, "inline", 4, None, None)
        assert record.counters["registrations"] == 12
        assert "tree_node_visits" in record.counters
        assert "trie_nodes_created" in record.counters
        assert "trie_nodes_touched" in record.counters

    def test_arrival_default_batch_sizes_match_suite(self):
        assert DEFAULT_ARRIVAL_BATCH_SIZES == (1, 32, 256)

    def test_arrival_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            run_arrival_workload(40, ops=10, seed=2, batch_size=0)

    def test_arrival_reads_the_index_once_per_newcomer_at_any_batch_size(self):
        """Batching changes when the neighbour lists are computed (after the
        whole wave has landed), not how: one index read per newcomer, and no
        more rows touched per read in a 256-wave than one by one."""
        sequential = run_arrival_workload(800, ops=256, seed=2, batch_size=1).counters
        batched = run_arrival_workload(800, ops=256, seed=2, batch_size=256).counters
        assert sequential["tree_queries"] == batched["tree_queries"] == 256
        assert batched["tree_node_visits"] <= sequential["tree_node_visits"]

    def test_query_visits_are_flat_in_population(self):
        """Index ranges examined plus entries scanned per cold query, on the
        three-level shape: within ``2k`` plus two per level at every
        population, and no higher at 12,800 peers than at 800."""
        k, levels, means = 5, 5, {}
        for population in (800, 12800):
            server = build_populated_server(population, seed=2)
            sample = random.Random(4).sample(server.peers(), 100)
            worst = 0
            started = server.total_tree_visits()
            for peer in sample:
                before = server.total_tree_visits()
                server.local_closest(peer, k)
                worst = max(worst, server.total_tree_visits() - before)
            assert 0 < worst <= 2 * k + 2 * levels
            means[population] = (server.total_tree_visits() - started) / len(sample)
        assert means[12800] <= means[800] + 1.0

    def test_arrival_insert_work_is_flat_across_batch_sizes(self):
        """Batching may only change query-side work: the trie insert work
        (nodes created / traversed) is a function of the paths alone."""
        baseline = run_arrival_workload(100, ops=40, seed=2, batch_size=1).counters
        for batch_size in (8, 40):
            counters = run_arrival_workload(100, ops=40, seed=2, batch_size=batch_size).counters
            assert counters["trie_nodes_created"] == baseline["trie_nodes_created"]
            assert counters["trie_nodes_touched"] == baseline["trie_nodes_touched"]

    def test_batched_arrival_results_match_sequential_registration(self):
        """One batch of co-arriving newcomers must leave the plane in
        exactly the state sequential arrivals of the same paths would —
        the byte-identical guarantee of the batch-aware neighbour phase.
        (Batch members may see each other earlier than late sequential
        arrivals see earlier ones, so neighbour lists are compared on the
        settled plane, not per call.)"""
        newcomers = arrival_paths(64, seed=9, shards=None)
        batched = build_populated_server(300, seed=2)
        batched.register_peers(newcomers)
        sequential = build_populated_server(300, seed=2)
        sequential.register_peers(newcomers)
        assert batched.peers() == sequential.peers()
        for peer in batched.peers():
            assert batched.closest_peers(peer) == sequential.closest_peers(peer)

    def test_arrival_runs_sharded_and_process(self):
        inline = run_arrival_workload(40, ops=8, seed=2, shards=2, batch_size=4)
        assert inline.cell == ("arrival", 40, 2, "inline", 4, None, None)
        process = run_arrival_workload(40, ops=8, seed=2, shards=2, backend="process", batch_size=4)
        assert process.cell == ("arrival", 40, 2, "process", 4, None, None)
        assert _algorithmic(process.counters) == _algorithmic(inline.counters)
        assert multiprocessing.active_children() == []


class TestInsertWorkCounters:
    """The registration-side twin of the query-visit scaling assertions."""

    def test_trie_touch_work_is_linear_in_path_length_not_population(self):
        """Every insert traverses exactly the path's routers (5 in the
        synthetic hierarchy): the O(d) registration bound, independent of
        how many peers are already registered."""
        small = run_insert_workload(200, ops=50, seed=2).counters
        large = run_insert_workload(3200, ops=50, seed=2).counters
        assert small["trie_nodes_touched"] == 50 * 5
        assert large["trie_nodes_touched"] == 50 * 5

    def test_trie_creation_shrinks_as_the_trie_fills(self):
        """Denser trees share more prefixes: the same newcomer stream
        allocates fewer fresh trie nodes at larger populations, and never
        more than it touches."""
        small = run_insert_workload(200, ops=50, seed=2).counters
        large = run_insert_workload(12800, ops=50, seed=2).counters
        assert 0 < large["trie_nodes_created"] <= small["trie_nodes_created"]
        assert small["trie_nodes_created"] <= small["trie_nodes_touched"]

    def test_churn_reinsert_work_is_bounded_per_cycle(self):
        record = run_churn_workload(400, ops=30, seed=2)
        assert record.counters["trie_nodes_touched"] == 30 * 5
        assert record.counters["trie_nodes_created"] <= 30 * 5

    def test_process_backend_reports_identical_insert_work(self):
        inline = run_insert_workload(60, ops=10, seed=2, shards=2).counters
        process = run_insert_workload(60, ops=10, seed=2, shards=2, backend="process").counters
        assert inline["trie_nodes_created"] == process["trie_nodes_created"]
        assert inline["trie_nodes_touched"] == process["trie_nodes_touched"]


class TestBuildWorkload:
    def _record(self, population=30, **kwargs):
        return run_build_workload(
            population,
            seed=2,
            router_map_config=RouterMapConfig(seed=2, **SMALL_BUILD_MAP),
            **kwargs,
        )

    def test_build_record_shape(self):
        record = self._record(population=30)
        assert record.workload == "build"
        assert record.population == 30
        # One build per cell: the op count is the peer count, not --ops.
        assert record.ops == 30
        assert record.total_s > 0.0
        for counter in ("bfs_runs", "snapshot_builds", "routers", "edges", "distance_sources"):
            assert counter in record.counters
        assert record.counters["snapshot_builds"] >= 1
        assert 0 < record.counters["distance_sources"] <= 30

    def test_build_ignores_ops_override(self):
        record = self._record(population=30, ops=5)
        assert record.ops == 30

    def test_build_batches_leaf_sources(self):
        """Peers attach to degree-1 stubs, so warmed vectors must be mostly
        translate-derived — the engine's batching claim, counter-based."""
        record = self._record(population=60)
        assert record.counters["derived_vectors"] > 0
        assert record.counters["bfs_runs"] < record.counters["distance_sources"] + BUILD_LANDMARK_COUNT + 5

    def test_build_sharded_and_process_cells_tag_records(self):
        inline = self._record(population=30, shards=2)
        assert inline.cell == ("build", 30, 2, "inline", None, None, None)
        process = self._record(population=30, shards=2, backend="process")
        assert process.cell == ("build", 30, 2, "process", None, None, None)
        assert multiprocessing.active_children() == []

    def test_build_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            self._record(population=30, backend="process")
        with pytest.raises(ValueError):
            self._record(population=30, backend="bogus")

    def test_build_map_config_scales_with_population(self):
        largest = build_map_config(DEFAULT_POPULATIONS[-1], seed=3)
        assert largest.total_routers == RouterMapConfig().total_routers
        small = build_map_config(50, seed=3)
        assert small.total_routers < largest.total_routers
        # Pure function of (population, seed): same inputs, same map.
        assert build_map_config(50, seed=3) == build_map_config(50, seed=3)

    def test_build_is_deterministic_in_algorithmic_work(self):
        first = self._record(population=40).counters
        second = self._record(population=40).counters
        assert first == second


class TestShardedWorkloads:
    def test_build_populated_server_sharded(self):
        server = build_populated_server(40, seed=1, shards=2)
        assert isinstance(server, ShardedManagementServer)
        assert server.peer_count == 40
        assert len(server.landmarks()) == SHARDED_LANDMARK_COUNT

    def test_sharded_population_keeps_peer_names_and_order(self):
        """Cells sample by name from peers(); names must not depend on shards."""
        single = build_populated_server(30, seed=3)
        sharded = build_populated_server(30, seed=3, shards=4)
        assert sharded.peers() == single.peers()

    @pytest.mark.parametrize(
        "runner, name",
        [
            (run_insert_workload, "insert"),
            (run_query_workload, "query"),
            (run_departure_workload, "departure"),
            (run_churn_workload, "churn"),
        ],
    )
    def test_each_workload_runs_sharded(self, runner, name):
        record = runner(40, ops=10, seed=2, shards=2)
        assert record.workload == name
        assert record.shards == 2
        assert record.total_s >= 0.0
        assert "tree_node_visits" in record.counters

    def test_sharded_query_workload_is_mostly_cache_hits(self):
        record = run_query_workload(50, ops=100, seed=2, shards=2)
        assert record.counters["cache_hits"] >= 90

    @pytest.mark.parametrize("runner", [run_insert_workload, run_churn_workload])
    def test_algorithmic_work_is_flat_across_shard_counts(self, runner):
        """The scaling acceptance claim, counter-based: spreading the same
        8-landmark population over more shards adds zero tree visits, cache
        updates or departure repairs — per-shard op cost cannot grow."""
        baseline = runner(200, ops=20, seed=2, shards=1).counters
        for shards in (2, 4, 8):
            assert runner(200, ops=20, seed=2, shards=shards).counters == baseline

    def test_suite_with_shard_counts_tags_cells(self):
        report = run_discovery_suite(
            populations=(20, 40), ops=5, seed=2, shard_counts=(1, 2),
            arrival_batch_sizes=(2,),
        )
        combos = {(record.workload, record.population, record.shards) for record in report.records}
        assert combos == {
            (workload, population, shards)
            for workload in ALL_WORKLOADS
            for population in (20, 40)
            for shards in (1, 2)
        }
        assert report.metadata["shard_counts"] == [1, 2]

    def test_workload_sampling_is_per_cell_pure(self):
        """The sampled peers of a cell never depend on which other cells ran.

        Counters are deterministic functions of the sampled peers, so
        identical counters across a standalone run, a repeat run, and a
        suite run that also measured sharded cells prove the RNG is re-seeded
        per invocation rather than shared across the suite.
        """
        standalone = run_departure_workload(40, ops=10, seed=2)
        repeat = run_departure_workload(40, ops=10, seed=2)
        assert standalone.counters == repeat.counters
        suite = run_discovery_suite(populations=(40,), ops=10, seed=2, shard_counts=(2,))
        sharded_cell = next(
            r for r in suite.records if r.workload == "departure" and r.shards == 2
        )
        sharded_repeat = run_departure_workload(40, ops=10, seed=2, shards=2)
        assert sharded_cell.counters == sharded_repeat.counters
        churn_a = run_churn_workload(40, ops=10, seed=2)
        churn_b = run_churn_workload(40, ops=10, seed=2)
        assert churn_a.counters == churn_b.counters


class TestRecoveryWorkload:
    def test_recovery_pair_shape_and_counters(self):
        plain, compacted = run_recovery_workload(30, ops=20, seed=2)
        assert plain.workload == "recovery"
        assert compacted.workload == "recovery-compacted"
        for record in (plain, compacted):
            assert record.backend == "process"
            assert record.shards == 1
            assert record.population == 30
            for counter in ("journal_len", "snapshot_bytes", "recovery_us", "live_peers"):
                assert counter in record.counters
            assert record.counters["live_peers"] == 30
        # Journal: landmark + initial insert + 2 entries per churn cycle.
        assert plain.counters["journal_len"] == 2 + 2 * 20
        assert plain.ops == plain.counters["journal_len"]
        assert plain.counters["snapshot_bytes"] == 0  # not compacted yet
        # After compaction: one restore_state entry, a real snapshot size.
        assert compacted.counters["journal_len"] == 1
        assert compacted.ops == 1
        assert compacted.counters["snapshot_bytes"] > 0
        assert multiprocessing.active_children() == []

    def test_suite_runs_recovery_only_with_the_process_backend(self):
        inline_only = run_discovery_suite(
            populations=(20,), ops=3, seed=2, shard_counts=(2,), arrival_batch_sizes=(2,)
        )
        assert not any(
            record.workload.startswith("recovery") for record in inline_only.records
        )
        assert inline_only.metadata["recovery_ops"] is None
        with_process = run_discovery_suite(
            populations=(20,), ops=3, seed=2, shard_counts=(2,),
            backends=("process",), arrival_batch_sizes=(2,), recovery_ops=5,
        )
        recovery = [
            record for record in with_process.records
            if record.workload.startswith("recovery")
        ]
        assert {record.workload for record in recovery} == {
            "recovery", "recovery-compacted"
        }
        plain = next(record for record in recovery if record.workload == "recovery")
        assert plain.counters["journal_len"] == 2 + 2 * 5  # --recovery-ops wins
        assert with_process.metadata["recovery_ops"] == 5

    def test_compaction_speeds_replay_5x_at_10k_journaled_ops(self):
        """The issue's recovery-benchmark acceptance bar: with >= 10k
        journaled operations over a small live population, snapshot-compacted
        replay recovers at least 5x faster than full-journal replay."""
        plain, compacted = run_recovery_workload(200, ops=5000, seed=3)
        assert plain.counters["journal_len"] >= 10_000
        assert compacted.counters["journal_len"] == 1
        speedup = plain.counters["recovery_us"] / max(compacted.counters["recovery_us"], 1)
        assert speedup >= 5.0, (
            f"compaction speedup {speedup:.1f}x < 5x "
            f"(full replay {plain.counters['recovery_us']}us, "
            f"compacted {compacted.counters['recovery_us']}us)"
        )
        assert multiprocessing.active_children() == []

    def test_recovery_cells_against_old_baselines_are_new_cells(self):
        """Schema v6 is additive: a pre-recovery baseline still gates every
        old cell while the recovery pair joins as new, uncompared cells."""
        baseline = _report_from_cells([("query", 200, None, 10.0)])
        current = _report_from_cells([("query", 200, None, 10.0)])
        current.add(
            PerfRecord(
                workload="recovery", population=200, ops=100, total_s=0.1,
                shards=1, backend="process",
                counters={"journal_len": 100, "snapshot_bytes": 0, "recovery_us": 100000},
            )
        )
        result = compare_reports(baseline, current)
        assert result.ok
        assert result.current_only == [("recovery", 200, 1, "process", None, None, None)]


class TestProcessBackendWorkloads:
    # Worker-process teardown is enforced suite-wide by the
    # no_leaked_workers autouse fixture in tests/conftest.py.

    def test_build_populated_server_process_backend(self):
        server = build_populated_server(30, seed=1, shards=2, backend="process")
        try:
            assert isinstance(server, ShardedManagementServer)
            assert server.peer_count == 30
        finally:
            server.close()

    def test_process_backend_requires_shards(self):
        with pytest.raises(ValueError):
            build_populated_server(30, seed=1, backend="process")
        with pytest.raises(ValueError):
            build_populated_server(30, seed=1, shards=2, backend="bogus")

    @pytest.mark.parametrize(
        "runner, name",
        [
            (run_insert_workload, "insert"),
            (run_query_workload, "query"),
            (run_departure_workload, "departure"),
            (run_churn_workload, "churn"),
        ],
    )
    def test_each_workload_runs_on_the_process_backend(self, runner, name):
        record = runner(40, ops=10, seed=2, shards=2, backend="process")
        assert record.workload == name
        assert record.shards == 2
        assert record.backend == "process"
        assert record.total_s >= 0.0
        assert "tree_node_visits" in record.counters

    @pytest.mark.parametrize(
        "runner",
        [run_insert_workload, run_query_workload, run_departure_workload, run_churn_workload],
    )
    def test_process_cells_do_identical_algorithmic_work(self, runner):
        """Crossing the process boundary may cost time, never extra work:
        coordinator counters and worker tree visits match the inline cell."""
        inline = runner(60, ops=10, seed=2, shards=2).counters
        process = runner(60, ops=10, seed=2, shards=2, backend="process").counters
        assert process == inline

    def test_suite_multiplies_backend_cells_and_tags_metadata(self):
        report = run_discovery_suite(
            populations=(20,), ops=3, seed=2, shard_counts=(2,),
            backends=("inline", "process"), arrival_batch_sizes=(2,),
        )
        combos = {
            (record.workload, record.shards, record.backend)
            for record in report.records
            if not record.workload.startswith("recovery")
            and record.workload != "serving"
        }
        assert combos == {
            (workload, 2, backend)
            for workload in ALL_WORKLOADS
            if workload != "serving"
            for backend in ("inline", "process")
        }
        # Serving cells are inline-only: the snapshot read path is the same
        # wherever the shards live, so the backend axis is degenerate for it.
        serving_backends = {
            record.backend for record in report.records if record.workload == "serving"
        }
        assert serving_backends == {"inline"}
        # A process run also measures the recovery pair (single-shard cells).
        recovery = {
            (record.workload, record.shards, record.backend)
            for record in report.records
            if record.workload.startswith("recovery")
        }
        assert recovery == {
            ("recovery", 1, "process"),
            ("recovery-compacted", 1, "process"),
        }
        assert report.metadata["backends"] == ["inline", "process"]

    def test_suite_rejects_process_backend_without_shards(self):
        with pytest.raises(ValueError):
            run_discovery_suite(populations=(20,), ops=3, backends=("process",))
        with pytest.raises(ValueError):
            run_discovery_suite(populations=(20,), ops=3, backends=("bogus",))


class TestSocketBackendWorkloads:
    # Socket/server teardown is enforced per-test: the loopback ShardServer
    # dies with the last backend, and no worker processes are involved.

    def test_build_populated_server_socket_backend(self):
        server = build_populated_server(30, seed=1, shards=2, backend="socket")
        try:
            assert isinstance(server, ShardedManagementServer)
            assert server.peer_count == 30
        finally:
            server.close()

    def test_socket_backend_requires_shards(self):
        with pytest.raises(ValueError):
            build_populated_server(30, seed=1, backend="socket")

    @pytest.mark.parametrize(
        "runner, name",
        [
            (run_insert_workload, "insert"),
            (run_query_workload, "query"),
            (run_departure_workload, "departure"),
            (run_churn_workload, "churn"),
        ],
    )
    def test_each_workload_runs_on_the_socket_backend(self, runner, name):
        record = runner(40, ops=10, seed=2, shards=2, backend="socket")
        assert record.workload == name
        assert record.shards == 2
        assert record.backend == "socket"
        assert record.total_s >= 0.0
        assert "tree_node_visits" in record.counters

    @pytest.mark.parametrize(
        "runner",
        [run_insert_workload, run_query_workload, run_departure_workload, run_churn_workload],
    )
    def test_socket_cells_do_identical_algorithmic_work(self, runner):
        """Crossing the socket may cost time, never extra work."""
        inline = runner(60, ops=10, seed=2, shards=2).counters
        socket_cell = runner(60, ops=10, seed=2, shards=2, backend="socket").counters
        assert socket_cell == inline

    def test_recovery_workload_runs_on_the_socket_backend(self):
        plain, compacted = run_recovery_workload(30, ops=20, seed=2, backend_name="socket")
        for record in (plain, compacted):
            assert record.backend == "socket"
            assert record.shards == 1
        assert plain.counters["journal_len"] == 2 + 2 * 20
        assert compacted.counters["journal_len"] == 1
        assert compacted.counters["snapshot_bytes"] > 0

    def test_suite_measures_recovery_per_remote_backend(self):
        report = run_discovery_suite(
            populations=(20,), ops=3, seed=2, shard_counts=(2,),
            backends=("process", "socket"), arrival_batch_sizes=(2,), recovery_ops=4,
        )
        recovery = {
            (record.workload, record.backend)
            for record in report.records
            if record.workload.startswith("recovery")
        }
        assert recovery == {
            ("recovery", "process"),
            ("recovery-compacted", "process"),
            ("recovery", "socket"),
            ("recovery-compacted", "socket"),
        }

    def test_suite_mixes_classic_and_sharded_cells_with_none(self):
        """shard_counts may carry None (classic single-server cells): remote
        backends skip it, inline measures it as the shards=None cell."""
        report = run_discovery_suite(
            populations=(20,), ops=3, seed=2, shard_counts=(None, 2),
            backends=("inline", "socket"), arrival_batch_sizes=(2,),
        )
        combos = {
            (record.shards, record.backend)
            for record in report.records
            if not record.workload.startswith("recovery")
        }
        assert combos == {(None, "inline"), (2, "inline"), (2, "socket")}

    def test_suite_rejects_remote_backends_without_a_real_shard_count(self):
        with pytest.raises(ValueError):
            run_discovery_suite(
                populations=(20,), ops=3, shard_counts=(None,), backends=("socket",)
            )


class TestServingWorkload:
    def test_serving_records_shape(self):
        records = run_serving_workload(60, ops=50, seed=2, reader_counts=(1, 2))
        assert [record.readers for record in records] == [1, 2]
        for record in records:
            assert record.workload == "serving"
            assert record.population == 60
            # fleet total: every reader runs every pass over the sample
            assert record.ops == 50 * record.readers * _SERVING_LATENCY_PASSES
            assert record.cell == ("serving", 60, None, "inline", None, record.readers, None)
            for counter in (
                "capacity_qps",
                "wall_qps",
                "latency_p50_ns",
                "latency_p99_ns",
                "publish_lag_us",
                "generation",
                "peak_rss_kb",
                "bytes_per_peer",
            ):
                assert counter in record.counters, counter
            assert record.counters["capacity_qps"] > 0
            assert record.counters["latency_p50_ns"] <= record.counters["latency_p99_ns"]

    def test_publish_lag_times_an_epoch_with_pending_churn(self, monkeypatch):
        """A publish costs what changed since the last one, so the timed
        publish must follow the fixed churn batch — a leave and a re-join per
        churned peer — not an idle plane."""
        from repro.core.serving import SnapshotPublisher

        pending_at_publish = []
        publish = SnapshotPublisher.publish

        def recording_publish(self):
            pending_at_publish.append(self.pending_mutations)
            return publish(self)

        monkeypatch.setattr(SnapshotPublisher, "publish", recording_publish)
        (small,) = run_serving_workload(40, ops=10, seed=2, reader_counts=(1,))
        (large,) = run_serving_workload(200, ops=10, seed=2, reader_counts=(1,))
        assert pending_at_publish == [2 * 40, 2 * 64]
        assert small.counters["publish_lag_us"] > 0 and large.counters["publish_lag_us"] > 0

    def test_serving_capacity_scales_with_readers(self):
        """The lock-freedom signal: on-CPU capacity grows with the fleet
        because readers never serialise on shared state.  The threshold is
        deliberately below the ~2x ideal — CI machines are noisy — but well
        above the flat line a lock would produce."""
        single, double = run_serving_workload(800, ops=2000, seed=2, reader_counts=(1, 2))
        ratio = double.counters["capacity_qps"] / single.counters["capacity_qps"]
        assert ratio >= 1.5, f"2-reader capacity only {ratio:.2f}x the single reader"

    def test_serving_runs_on_a_sharded_plane(self):
        (record,) = run_serving_workload(60, ops=30, seed=2, shards=2, reader_counts=(2,))
        assert record.cell == ("serving", 60, 2, "inline", None, 2, None)
        assert record.counters["capacity_qps"] > 0

    def test_serving_answers_match_the_live_plane(self):
        """The perf cell measures the real read path: the snapshot served to
        the readers answers exactly like the live plane it froze."""
        from repro.core.serving import DiscoverySnapshot

        server = build_populated_server(80, seed=2)
        snapshot = DiscoverySnapshot.build(server)
        for peer in server.peers()[:20]:
            assert snapshot.closest_peers(peer) == server.closest_peers(peer)

    def test_serving_rejects_bad_reader_counts(self):
        with pytest.raises(ValueError):
            run_serving_workload(60, ops=10, seed=2, reader_counts=(1, 0))

    def test_default_reader_counts_cover_the_acceptance_sweep(self):
        assert DEFAULT_READER_COUNTS == (1, 2, 4)


class TestProtocolWorkload:
    def test_protocol_records_shape(self):
        records = run_protocol_workload(20, seed=3, loss_rates=(0.0, 0.2))
        assert [record.loss for record in records] == [0.0, 0.2]
        for record in records:
            assert record.workload == "protocol"
            assert record.population == 20
            assert record.shards is None
            assert record.backend == "inline"
            assert record.cell == ("protocol", 20, None, "inline", None, None, record.loss)
            assert record.ops > 0  # wire messages carried
            counters = record.counters
            assert counters["discovered_peers"] == 20  # every peer holds a neighbour list
            assert counters["messages_per_sec"] > 0
            assert counters["maintenance_bytes_per_peer_s"] > 0
            assert counters["discovery_p99_ms"] >= counters["discovery_p50_ms"] > 0
            assert counters["peak_rss_kb"] > 0
        clean, lossy = records
        assert clean.counters["dropped_messages"] == 0
        assert clean.counters["retransmissions"] == 0
        assert lossy.counters["dropped_messages"] > 0
        assert lossy.counters["retransmissions"] > 0

    @pytest.mark.parametrize("rates", [(), (1.0,), (-0.1,), (0.0, 1.5)])
    def test_bad_loss_rates_rejected(self, rates):
        with pytest.raises(ValueError):
            run_protocol_workload(20, loss_rates=rates)

    def test_simulated_counters_are_deterministic(self):
        """Wall-clock timing varies, but the simulated-time counters — the
        paper-facing numbers — must be byte-identical across runs."""

        def counters():
            [record] = run_protocol_workload(16, seed=3, loss_rates=(0.25,))
            return record.ops, _algorithmic(record.counters)

        assert counters() == counters()

    def test_suite_runs_protocol_cells_only_when_asked(self):
        report = run_discovery_suite(
            populations=(20,), ops=30, protocol_loss_rates=(0.0,)
        )
        protocol = [r for r in report.records if r.workload == "protocol"]
        assert [record.loss for record in protocol] == [0.0]
        assert report.metadata["protocol_loss_rates"] == [0.0]
        without = run_discovery_suite(populations=(20,), ops=30)
        assert not [r for r in without.records if r.workload == "protocol"]
        assert without.metadata["protocol_loss_rates"] is None


class TestCommittedBaseline:
    """Satellite: the committed baseline must never drift behind the code.

    ``BENCH_discovery.json`` is the regression anchor CI compares against;
    a baseline recorded at an older schema silently stops gating new cells,
    so its schema version and its backend coverage are asserted here (and
    therefore in every CI run of the tier-1 suite).
    """

    @pytest.fixture()
    def baseline(self):
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_discovery.json"
        assert path.exists(), "committed perf baseline is missing"
        return json.loads(path.read_text())

    def test_schema_version_matches_the_code(self, baseline):
        assert baseline["schema_version"] == SCHEMA_VERSION

    def test_baseline_covers_every_backend_and_the_classic_cells(self, baseline):
        backends = {record["backend"] for record in baseline["records"]}
        assert {"inline", "process", "socket"} <= backends
        assert any(record["shards"] is None for record in baseline["records"])
        recovery = {
            (record["workload"], record["backend"])
            for record in baseline["records"]
            if record["workload"].startswith("recovery")
        }
        assert {("recovery", "process"), ("recovery", "socket")} <= recovery

    def test_baseline_covers_the_reader_sweep(self, baseline):
        """The concurrent-clients dimension is recorded at every default
        reader count, and every cell carries the schema-v8 memory counters."""
        serving_readers = {
            record["readers"]
            for record in baseline["records"]
            if record["workload"] == "serving"
        }
        assert set(DEFAULT_READER_COUNTS) <= serving_readers
        for record in baseline["records"]:
            assert record["counters"]["peak_rss_kb"] > 0
            assert record["counters"]["bytes_per_peer"] > 0

    def test_baseline_covers_the_protocol_loss_sweep(self, baseline):
        """Schema v9: the beaconing protocol is recorded at every default
        wire-loss rate, so CI gates the lossy-wire cells too."""
        protocol_losses = {
            record["loss"]
            for record in baseline["records"]
            if record["workload"] == "protocol"
        }
        assert protocol_losses == {0.0, 0.1, 0.3}
        for record in baseline["records"]:
            if record["workload"] == "protocol":
                assert record["counters"]["discovered_peers"] > 0
            else:
                assert record["loss"] is None


def _report_from_cells(cells):
    """Build a PerfReport from (workload, population, shards, per_op_us[, backend]) rows."""
    report = PerfReport()
    for workload, population, shards, per_op_us, *rest in cells:
        report.add(
            PerfRecord(
                workload=workload,
                population=population,
                ops=100,
                total_s=per_op_us * 100 / 1e6,
                shards=shards,
                backend=rest[0] if rest else "inline",
            )
        )
    return report


class TestCompare:
    def test_no_regression_within_threshold(self):
        baseline = _report_from_cells([("query", 200, None, 10.0), ("insert", 200, None, 50.0)])
        current = _report_from_cells([("query", 200, None, 12.0), ("insert", 200, None, 45.0)])
        result = compare_reports(baseline, current, threshold=0.25)
        assert result.ok
        assert result.regressions == []
        assert "OK" in result.to_text()

    def test_regression_beyond_threshold_fails(self):
        baseline = _report_from_cells([("query", 200, None, 10.0), ("churn", 800, None, 40.0)])
        current = _report_from_cells([("query", 200, None, 13.0), ("churn", 800, None, 40.0)])
        result = compare_reports(baseline, current, threshold=0.25)
        assert not result.ok
        assert [delta.key for delta in result.regressions] == [
            ("query", 200, None, "inline", None, None, None)
        ]
        assert "REGRESSION" in result.to_text()
        assert "FAIL" in result.to_text()

    def test_exactly_at_threshold_is_not_a_regression(self):
        baseline = _report_from_cells([("query", 200, None, 10.0)])
        current = _report_from_cells([("query", 200, None, 12.5)])
        assert compare_reports(baseline, current, threshold=0.25).ok

    def test_cells_are_keyed_by_shards_too(self):
        baseline = _report_from_cells([("query", 200, 1, 10.0), ("query", 200, 4, 10.0)])
        current = _report_from_cells([("query", 200, 1, 10.0), ("query", 200, 4, 30.0)])
        result = compare_reports(baseline, current)
        assert [delta.key for delta in result.regressions] == [("query", 200, 4, "inline", None, None, None)]

    def test_cells_are_keyed_by_backend_too(self):
        """A slow process cell never fails an inline cell, and vice versa."""
        baseline = _report_from_cells(
            [("query", 200, 2, 10.0), ("query", 200, 2, 10.0, "process")]
        )
        current = _report_from_cells(
            [("query", 200, 2, 10.0), ("query", 200, 2, 90.0, "process")]
        )
        result = compare_reports(baseline, current)
        assert [delta.key for delta in result.regressions] == [("query", 200, 2, "process", None, None, None)]

    def test_process_cells_against_inline_baseline_are_new_cells(self):
        """The --backend dimension must not break pre-v3 baselines: inline
        cells still gate, process cells join as new (uncompared) cells."""
        baseline = _report_from_cells([("query", 200, 2, 10.0)])
        current = _report_from_cells(
            [("query", 200, 2, 11.0), ("query", 200, 2, 500.0, "process")]
        )
        result = compare_reports(baseline, current)
        assert result.ok
        assert [delta.key for delta in result.deltas] == [("query", 200, 2, "inline", None, None, None)]
        assert result.current_only == [("query", 200, 2, "process", None, None, None)]

    def test_unmatched_cells_are_reported_but_never_fail(self):
        baseline = _report_from_cells([("query", 200, None, 10.0), ("query", 800, None, 10.0)])
        current = _report_from_cells([("query", 200, None, 10.0), ("query", 200, 2, 99.0)])
        result = compare_reports(baseline, current)
        assert result.ok
        assert result.baseline_only == [("query", 800, None, "inline", None, None, None)]
        assert result.current_only == [("query", 200, 2, "inline", None, None, None)]
        text = result.to_text()
        assert "baseline only" in text
        assert "new cell" in text

    def test_zero_baseline_cells_are_skipped_as_noise(self):
        baseline = _report_from_cells([("query", 200, None, 0.0)])
        current = _report_from_cells([("query", 200, None, 5.0)])
        result = compare_reports(baseline, current)
        assert result.ok
        assert result.deltas[0].ratio == float("inf")

    def test_build_cells_gate_like_any_other_workload(self):
        baseline = _report_from_cells([("build", 12800, None, 50.0), ("query", 200, None, 10.0)])
        current = _report_from_cells([("build", 12800, None, 300.0), ("query", 200, None, 10.0)])
        result = compare_reports(baseline, current, threshold=0.25)
        assert not result.ok
        assert [delta.key for delta in result.regressions] == [
            ("build", 12800, None, "inline", None, None, None)
        ]

    def test_cells_are_keyed_by_batch_size_too(self):
        """A slow arrival cell at one batch size never fails another."""
        baseline = PerfReport()
        current = PerfReport()
        for report, slow_us in ((baseline, 10.0), (current, 90.0)):
            report.add(
                PerfRecord(workload="arrival", population=200, ops=100,
                           total_s=10.0 * 100 / 1e6, batch_size=1)
            )
            report.add(
                PerfRecord(workload="arrival", population=200, ops=100,
                           total_s=slow_us * 100 / 1e6, batch_size=32)
            )
        result = compare_reports(baseline, current)
        assert [delta.key for delta in result.regressions] == [
            ("arrival", 200, None, "inline", 32, None, None)
        ]

    def test_arrival_cells_against_pre_v5_baseline_are_new_cells(self):
        baseline = _report_from_cells([("query", 200, None, 10.0)])
        current = _report_from_cells([("query", 200, None, 10.0)])
        current.add(
            PerfRecord(workload="arrival", population=200, ops=10, total_s=0.1, batch_size=32)
        )
        result = compare_reports(baseline, current)
        assert result.ok
        assert result.current_only == [("arrival", 200, None, "inline", 32, None, None)]
        assert "batch=32" in result.to_text()

    def test_cells_are_keyed_by_readers_too(self):
        """A slow serving cell at one reader count never fails another."""
        baseline = PerfReport()
        current = PerfReport()
        for report, slow_us in ((baseline, 10.0), (current, 90.0)):
            report.add(
                PerfRecord(workload="serving", population=200, ops=100,
                           total_s=10.0 * 100 / 1e6, readers=1)
            )
            report.add(
                PerfRecord(workload="serving", population=200, ops=100,
                           total_s=slow_us * 100 / 1e6, readers=4)
            )
        result = compare_reports(baseline, current)
        assert [delta.key for delta in result.regressions] == [
            ("serving", 200, None, "inline", None, 4, None)
        ]

    def test_serving_cells_against_pre_v8_baseline_are_new_cells(self):
        baseline = _report_from_cells([("query", 200, None, 10.0)])
        current = _report_from_cells([("query", 200, None, 10.0)])
        current.add(
            PerfRecord(workload="serving", population=200, ops=10, total_s=0.1, readers=2)
        )
        result = compare_reports(baseline, current)
        assert result.ok
        assert result.current_only == [("serving", 200, None, "inline", None, 2, None)]
        assert "readers=2" in result.to_text()

    def test_cells_are_keyed_by_loss_too(self):
        """A slow protocol cell at one loss rate never fails another."""
        baseline = PerfReport()
        current = PerfReport()
        for report, slow_us in ((baseline, 10.0), (current, 90.0)):
            report.add(
                PerfRecord(workload="protocol", population=200, ops=100,
                           total_s=10.0 * 100 / 1e6, loss=0.0)
            )
            report.add(
                PerfRecord(workload="protocol", population=200, ops=100,
                           total_s=slow_us * 100 / 1e6, loss=0.3)
            )
        result = compare_reports(baseline, current)
        assert [delta.key for delta in result.regressions] == [
            ("protocol", 200, None, "inline", None, None, 0.3)
        ]

    def test_protocol_cells_against_pre_v9_baseline_are_new_cells(self):
        baseline = _report_from_cells([("query", 200, None, 10.0)])
        current = _report_from_cells([("query", 200, None, 10.0)])
        current.add(
            PerfRecord(workload="protocol", population=200, ops=10, total_s=0.1, loss=0.1)
        )
        result = compare_reports(baseline, current)
        assert result.ok
        assert result.current_only == [("protocol", 200, None, "inline", None, None, 0.1)]
        assert "loss=0.1" in result.to_text()

    def test_delta_ratio(self):
        delta = CellDelta("query", 200, None, baseline_us=10.0, current_us=15.0)
        assert delta.ratio == pytest.approx(1.5)
        assert delta.is_regression(0.25)
        assert not delta.is_regression(0.6)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(PerfReport(), PerfReport(), threshold=-0.1)


class TestCli:
    def test_perf_parser_defaults(self):
        args = build_perf_parser().parse_args([])
        assert args.populations is None
        assert args.ops is None
        assert str(args.output) == "BENCH_discovery.json"

    def test_run_perf_writes_report(self, tmp_path, capsys):
        output = tmp_path / "BENCH_discovery.json"
        code = run_perf(["--populations", "20", "--ops", "5", "--output", str(output)])
        assert code == 0
        data = json.loads(output.read_text())
        workloads = {record["workload"] for record in data["records"]}
        assert workloads == set(ALL_WORKLOADS)
        assert all(record["population"] == 20 for record in data["records"])
        out = capsys.readouterr().out
        assert "insert" in out
        assert "build" in out

    def test_main_dispatches_perf_subcommand(self, tmp_path):
        output = tmp_path / "bench.json"
        code = main(["perf", "--populations", "20", "--ops", "3", "--output", str(output)])
        assert code == 0
        assert output.exists()

    def test_shards_flag_runs_sharded_cells(self, tmp_path):
        output = tmp_path / "bench.json"
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--shards", "1,2", "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert {record["shards"] for record in data["records"]} == {1, 2}

    @pytest.mark.parametrize("spec", ["0", "1,0", "abc", ","])
    def test_invalid_shards_spec_is_rejected(self, spec, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_perf(["--populations", "20", "--ops", "3", "--shards", spec,
                      "--output", str(tmp_path / "b.json")])

    def test_arrival_batch_sizes_flag_runs_one_cell_per_size(self, tmp_path):
        output = tmp_path / "bench.json"
        code = run_perf(
            ["--populations", "20", "--ops", "4", "--arrival-batch-sizes", "1,2",
             "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        arrival = [r for r in data["records"] if r["workload"] == "arrival"]
        assert sorted(r["batch_size"] for r in arrival) == [1, 2]
        assert all(r["batch_size"] is None for r in data["records"] if r["workload"] != "arrival")

    @pytest.mark.parametrize("spec", ["0", "1,0", "abc", ","])
    def test_invalid_arrival_batch_sizes_rejected(self, spec, tmp_path):
        with pytest.raises(SystemExit):
            run_perf(["--populations", "20", "--ops", "3",
                      "--arrival-batch-sizes", spec,
                      "--output", str(tmp_path / "b.json")])

    def test_readers_flag_runs_one_serving_cell_per_count(self, tmp_path):
        output = tmp_path / "bench.json"
        code = run_perf(
            ["--populations", "20", "--ops", "4", "--readers", "1,2",
             "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        serving = [r for r in data["records"] if r["workload"] == "serving"]
        assert sorted(r["readers"] for r in serving) == [1, 2]
        assert all(r["readers"] is None for r in data["records"] if r["workload"] != "serving")
        assert data["metadata"]["reader_counts"] == [1, 2]

    @pytest.mark.parametrize("spec", ["0", "1,0", "abc", ","])
    def test_invalid_readers_spec_is_rejected(self, spec, tmp_path):
        with pytest.raises(SystemExit):
            run_perf(["--populations", "20", "--ops", "3", "--readers", spec,
                      "--output", str(tmp_path / "b.json")])

    def test_protocol_loss_flag_runs_one_cell_per_rate(self, tmp_path):
        output = tmp_path / "bench.json"
        code = run_perf(
            ["--populations", "20", "--ops", "4", "--protocol-loss", "0,0.2",
             "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        protocol = [r for r in data["records"] if r["workload"] == "protocol"]
        assert sorted(r["loss"] for r in protocol) == [0.0, 0.2]
        assert all(r["loss"] is None for r in data["records"] if r["workload"] != "protocol")
        assert data["metadata"]["protocol_loss_rates"] == [0.0, 0.2]

    @pytest.mark.parametrize("spec", ["1.0", "0,-0.5", "abc", ","])
    def test_invalid_protocol_loss_spec_is_rejected(self, spec, tmp_path):
        with pytest.raises(SystemExit):
            run_perf(["--populations", "20", "--ops", "3", "--protocol-loss", spec,
                      "--output", str(tmp_path / "b.json")])

    def test_backend_flag_runs_process_cells(self, tmp_path):
        output = tmp_path / "bench.json"
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--shards", "2",
             "--backend", "process", "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert {record["backend"] for record in data["records"]} == {"process"}
        assert all(
            record["shards"] == 2
            for record in data["records"]
            if not record["workload"].startswith("recovery")
        )
        # A process run also emits the single-shard recovery pair.
        assert {
            record["workload"]
            for record in data["records"]
            if record["shards"] == 1
        } == {"recovery", "recovery-compacted"}
        assert multiprocessing.active_children() == []

    def test_backend_socket_runs_socket_cells(self, tmp_path):
        output = tmp_path / "bench.json"
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--shards", "2",
             "--backend", "socket", "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert {record["backend"] for record in data["records"]} == {"socket"}
        assert {
            record["workload"]
            for record in data["records"]
            if record["shards"] == 1
        } == {"recovery", "recovery-compacted"}
        assert multiprocessing.active_children() == []

    def test_shards_none_token_mixes_classic_cells(self, tmp_path):
        """--shards none,2 measures the classic single-server cells next to
        the sharded ones in one report (the full-baseline recording command)."""
        output = tmp_path / "bench.json"
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--shards", "none,2",
             "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert {record["shards"] for record in data["records"]} == {None, 2}

    def test_remote_backend_with_only_none_shards_is_rejected(self, tmp_path):
        for backend in ("process", "socket"):
            with pytest.raises(SystemExit):
                run_perf(["--populations", "20", "--ops", "3", "--shards", "none",
                          "--backend", backend, "--output", str(tmp_path / "b.json")])

    def test_recovery_ops_flag_sizes_the_recovery_journal(self, tmp_path):
        output = tmp_path / "bench.json"
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--shards", "2",
             "--backend", "process", "--recovery-ops", "4",
             "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        plain = next(
            record for record in data["records"] if record["workload"] == "recovery"
        )
        assert plain["counters"]["journal_len"] == 2 + 2 * 4
        assert data["metadata"]["recovery_ops"] == 4
        assert multiprocessing.active_children() == []

    def test_invalid_recovery_ops_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_perf(["--populations", "20", "--ops", "3", "--shards", "2",
                      "--backend", "process", "--recovery-ops", "0",
                      "--output", str(tmp_path / "b.json")])

    def test_backend_process_without_shards_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_perf(["--populations", "20", "--ops", "3", "--backend", "process",
                      "--output", str(tmp_path / "b.json")])

    @pytest.mark.parametrize("spec", ["bogus", "inline,bogus", ","])
    def test_invalid_backend_spec_is_rejected(self, spec, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_perf(["--populations", "20", "--ops", "3", "--shards", "2",
                      "--backend", spec, "--output", str(tmp_path / "b.json")])

    def test_compare_gates_inline_cells_while_process_cells_join_as_new(self, tmp_path, capsys):
        """The issue's acceptance path: an inline baseline still gates an
        'inline,process' run — process cells are listed as new, not compared."""
        baseline = tmp_path / "baseline.json"
        assert run_perf(
            ["--populations", "20", "--ops", "3", "--shards", "2",
             "--output", str(baseline)]
        ) == 0
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--shards", "2",
             "--backend", "inline,process", "--output", str(tmp_path / "new.json"),
             "--compare", str(baseline), "--compare-threshold", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK: no cell regressed" in out
        assert "new cell, not compared" in out

    def test_compare_passes_against_identical_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert run_perf(["--populations", "20", "--ops", "3", "--output", str(baseline)]) == 0
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--output", str(tmp_path / "new.json"),
             "--compare", str(baseline), "--compare-threshold", "1000"]
        )
        assert code == 0
        assert "OK: no cell regressed" in capsys.readouterr().out

    def test_compare_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert run_perf(["--populations", "20", "--ops", "3", "--output", str(baseline)]) == 0
        # Shrink the baseline timings so the re-run is a guaranteed regression.
        data = json.loads(baseline.read_text())
        for record in data["records"]:
            record["total_s"] = record["total_s"] / 1e6
        baseline.write_text(json.dumps(data))
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--output", str(tmp_path / "new.json"),
             "--compare", str(baseline)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "perf regression" in captured.err

    def test_compare_against_pre_build_baseline_passes_with_build_as_new_cell(
        self, tmp_path, capsys
    ):
        """Schema v3 baselines (no build cells) must keep gating the four
        classic workloads while build cells join as new, uncompared cells."""
        baseline = tmp_path / "baseline.json"
        assert run_perf(["--populations", "20", "--ops", "3", "--output", str(baseline)]) == 0
        data = json.loads(baseline.read_text())
        data["records"] = [r for r in data["records"] if r["workload"] != "build"]
        data["schema_version"] = 3
        baseline.write_text(json.dumps(data))
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--output", str(tmp_path / "new.json"),
             "--compare", str(baseline), "--compare-threshold", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK: no cell regressed" in out
        assert "new cell, not compared: build@20" in out

    def test_compare_with_no_overlapping_cells_errors(self, tmp_path, capsys):
        """The gate must not pass vacuously when nothing was compared."""
        baseline = tmp_path / "baseline.json"
        assert run_perf(["--populations", "20", "--ops", "3", "--output", str(baseline)]) == 0
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--shards", "2",
             "--output", str(tmp_path / "new.json"), "--compare", str(baseline)]
        )
        assert code == 1
        assert "no comparable cells" in capsys.readouterr().err

    def test_compare_with_unreadable_baseline_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = run_perf(
            ["--populations", "20", "--ops", "3", "--output", str(tmp_path / "new.json"),
             "--compare", str(missing)]
        )
        assert code == 1
        assert "cannot read baseline" in capsys.readouterr().err
