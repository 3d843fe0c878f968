"""Latency and setup-delay statistics.

:class:`DelaySummary` summarises per-peer delays: the protocol simulation's
discovery latency and staleness, and the wire-join example's setup delays.
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
