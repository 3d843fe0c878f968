"""Latency and setup-delay statistics.

:class:`DelaySummary` summarises per-peer delays (the protocol simulation's
discovery latency and staleness, the wire-join example's setup delays);
:class:`ProbeCostModel` converts message counts into wall-clock estimates
for the convergence study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..exceptions import MetricError


@dataclass
class DelaySummary:
    """Summary of a delay distribution (milliseconds)."""

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "DelaySummary":
        """Build the summary from raw samples."""
        if not samples:
            raise MetricError("cannot summarise an empty delay sample set")
        ordered = sorted(float(sample) for sample in samples)
        count = len(ordered)

        def percentile(fraction: float) -> float:
            index = min(count - 1, max(0, int(math.ceil(fraction * count)) - 1))
            return ordered[index]

        return cls(
            count=count,
            mean=sum(ordered) / count,
            median=percentile(0.5),
            p90=percentile(0.9),
            p99=percentile(0.99),
            maximum=ordered[-1],
        )


@dataclass
class ProbeCostModel:
    """Converts protocol message counts into a wall-clock setup-time estimate.

    The paper's argument is about *time to first good neighbour list*: the
    path-tree scheme needs one traceroute (tens of probes, each a fraction of
    the path RTT) plus one server round-trip, while coordinate systems need
    many RTT measurements spread over gossip rounds.  This model makes the
    comparison explicit and tunable.
    """

    per_probe_rtt_ms: float = 40.0
    probes_in_parallel: int = 4
    per_round_interval_ms: float = 500.0
    server_round_trip_ms: float = 30.0

    def traceroute_time(self, hop_count: int, landmarks_probed: int = 1) -> float:
        """Time to traceroute ``landmarks_probed`` landmarks of ``hop_count`` hops."""
        if hop_count <= 0:
            raise MetricError(f"hop_count must be positive, got {hop_count}")
        batches = math.ceil(hop_count / max(1, self.probes_in_parallel))
        return batches * self.per_probe_rtt_ms * max(1, landmarks_probed)

    def path_tree_setup_time(self, hop_count: int, landmarks_probed: int = 1) -> float:
        """Total setup time for the paper's scheme (probe + one server round trip)."""
        return self.traceroute_time(hop_count, landmarks_probed) + self.server_round_trip_ms

    def coordinate_setup_time(self, rounds: int, samples_per_round: int = 1) -> float:
        """Setup time for a gossip-based coordinate system after ``rounds`` rounds."""
        if rounds < 0:
            raise MetricError(f"rounds must be >= 0, got {rounds}")
        per_round = max(self.per_round_interval_ms, samples_per_round * self.per_probe_rtt_ms)
        return rounds * per_round

    def landmark_measurement_time(self, landmark_count: int) -> float:
        """Time for a GNP/binning newcomer to measure every landmark once."""
        if landmark_count <= 0:
            raise MetricError(f"landmark_count must be positive, got {landmark_count}")
        batches = math.ceil(landmark_count / max(1, self.probes_in_parallel))
        return batches * self.per_probe_rtt_ms
