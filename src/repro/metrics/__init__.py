"""Evaluation metrics: the paper's D ratios and delay statistics."""

from .proximity import (
    ProximityComparison,
    compare_strategies,
    neighbor_cost,
    population_cost,
)
from .latency_stats import DelaySummary

__all__ = [
    "ProximityComparison",
    "compare_strategies",
    "neighbor_cost",
    "population_cost",
    "DelaySummary",
]
