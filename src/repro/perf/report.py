"""Perf report: structured per-workload timings written to ``BENCH_*.json``.

The report is the regression anchor for the discovery hot path: every record
carries the workload name, the population it ran at, wall-clock timings from
:mod:`repro.perf.timer`, and the management server's
:class:`~repro.core.management_server.ServerStats` counters observed during
the measured phase, so later PRs can compare both time *and* algorithmic
work (tree-node visits, cache updates, departure repairs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .timer import Timing

# v2 added the shards dimension, v3 the backend dimension, v4 the
# scenario-build workload (``workload == "build"``, whose ops count is the
# peer count and whose counters come from the distance engine), v5 the
# arrival workload's batch-size dimension (``batch_size``, None for every
# other workload) plus the insert-side trie work counters, v6 the recovery
# workloads (``"recovery"`` / ``"recovery-compacted"``) whose counters carry
# ``journal_len``, ``snapshot_bytes`` and ``recovery_us`` so journal
# compaction regresses like a time regression, v7 the socket backend
# (``backend == "socket"``: connection-scoped shards behind an asyncio
# shard server; recovery cells now exist per remote backend), v8 the
# serving-plane workload (``workload == "serving"``) with its
# concurrent-clients ``readers`` dimension (None for every other workload)
# and its throughput/publish-lag counters, plus ``peak_rss_kb`` /
# ``bytes_per_peer`` memory counters in every cell, v9 the protocol
# workload (``workload == "protocol"``: the beaconing discovery protocol
# over the event sim's lossy wire) with its ``loss`` dimension (the wire
# loss probability, None for every other workload) and simulated-time
# counters (messages/sec, maintenance bytes per peer per second,
# discovery-latency quantiles).  All are additive: older reports load
# with defaults and their cells still compare (new cells show as
# current-only, never as failures).
SCHEMA_VERSION = 9


@dataclass
class PerfRecord:
    """One workload measurement at one population size.

    ``shards`` is the shard count of the sharded management plane the cell
    ran on, or ``None`` for the classic single-server cells (schema v1
    reports load as ``None``).  ``backend`` says where the shards lived:
    ``"inline"`` (in-process, the only pre-v3 behaviour — older reports load
    as ``"inline"``), ``"process"`` (one child shard server per shard) or
    ``"socket"`` (a loopback shard server thread).  ``batch_size`` is the
    arrival workload's co-arriving batch size; every other workload (and
    every pre-v5 record) loads as ``None``.  ``readers`` is the serving
    workload's concurrent reader count (schema v8); every other workload
    (and every pre-v8 record) loads as ``None``.  ``loss`` is the protocol
    workload's wire loss probability (schema v9); every other workload
    (and every pre-v9 record) loads as ``None``.
    """

    workload: str
    population: int
    ops: int
    total_s: float
    counters: Dict[str, int] = field(default_factory=dict)
    shards: Optional[int] = None
    backend: str = "inline"
    batch_size: Optional[int] = None
    readers: Optional[int] = None
    loss: Optional[float] = None

    @property
    def per_op_us(self) -> float:
        """Mean microseconds per operation."""
        return (self.total_s / self.ops) * 1e6 if self.ops else 0.0

    @classmethod
    def from_timing(
        cls,
        workload: str,
        population: int,
        timing: Timing,
        counters: Optional[Dict[str, int]] = None,
        shards: Optional[int] = None,
        backend: str = "inline",
        batch_size: Optional[int] = None,
        readers: Optional[int] = None,
        loss: Optional[float] = None,
    ) -> "PerfRecord":
        """Build a record from a :class:`~repro.perf.timer.Timing`."""
        return cls(
            workload=workload,
            population=population,
            ops=timing.ops,
            total_s=timing.total_s,
            counters=dict(counters or {}),
            shards=shards,
            backend=backend,
            batch_size=batch_size,
            readers=readers,
            loss=loss,
        )

    @property
    def cell(self) -> tuple:
        """The report cell this record measures (regression-comparison key)."""
        return (
            self.workload,
            self.population,
            self.shards,
            self.backend,
            self.batch_size,
            self.readers,
            self.loss,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (adds the derived per-op cost)."""
        return {
            "workload": self.workload,
            "population": self.population,
            "ops": self.ops,
            "total_s": self.total_s,
            "per_op_us": self.per_op_us,
            "counters": dict(self.counters),
            "shards": self.shards,
            "backend": self.backend,
            "batch_size": self.batch_size,
            "readers": self.readers,
            "loss": self.loss,
        }


@dataclass
class PerfReport:
    """A set of perf records plus run metadata."""

    records: List[PerfRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add(self, record: PerfRecord) -> None:
        """Append one record."""
        self.records.append(record)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of the whole report."""
        return {
            "schema_version": SCHEMA_VERSION,
            "metadata": dict(self.metadata),
            "records": [record.to_dict() for record in self.records],
        }

    def to_json(self, indent: int = 2) -> str:
        """The report serialised as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: Union[str, Path]) -> Path:
        """Write the JSON report to ``path`` and return it."""
        target = Path(path)
        target.write_text(self.to_json() + "\n")
        return target

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PerfReport":
        """Rebuild a report from :meth:`to_dict` output (regression tooling)."""
        records = [
            PerfRecord(
                workload=str(entry["workload"]),
                population=int(entry["population"]),
                ops=int(entry["ops"]),
                total_s=float(entry["total_s"]),
                counters=dict(entry.get("counters", {})),  # type: ignore[arg-type]
                shards=None if entry.get("shards") is None else int(entry["shards"]),  # type: ignore[arg-type]
                backend=str(entry.get("backend", "inline")),  # type: ignore[arg-type]
                batch_size=(
                    None if entry.get("batch_size") is None else int(entry["batch_size"])  # type: ignore[arg-type]
                ),
                readers=(
                    None if entry.get("readers") is None else int(entry["readers"])  # type: ignore[arg-type]
                ),
                loss=(
                    None if entry.get("loss") is None else float(entry["loss"])  # type: ignore[arg-type]
                ),
            )
            for entry in data.get("records", [])  # type: ignore[union-attr]
        ]
        return cls(records=records, metadata=dict(data.get("metadata", {})))  # type: ignore[arg-type]

    def to_text(self) -> str:
        """Aligned human-readable table for the CLI."""
        header = (
            f"{'workload':<12} {'population':>10} {'shards':>7} {'backend':>8} {'batch':>6} "
            f"{'readers':>7} {'loss':>5} {'ops':>8} {'total_s':>10} {'per_op_us':>12}"
        )
        lines = [header, "-" * len(header)]
        for record in self.records:
            shards = "-" if record.shards is None else str(record.shards)
            batch = "-" if record.batch_size is None else str(record.batch_size)
            readers = "-" if record.readers is None else str(record.readers)
            loss = "-" if record.loss is None else f"{record.loss:.2f}"
            lines.append(
                f"{record.workload:<12} {record.population:>10} {shards:>7} "
                f"{record.backend:>8} {batch:>6} {readers:>7} {loss:>5} {record.ops:>8} "
                f"{record.total_s:>10.4f} {record.per_op_us:>12.2f}"
            )
        return "\n".join(lines)
