"""Evaluation metrics: the paper's D ratios and delay statistics."""

from .proximity import (
    ProximityComparison,
    compare_strategies,
    mean_population_cost,
    neighbor_cost,
    per_peer_ratios,
    population_cost,
)
from .latency_stats import DelaySummary

__all__ = [
    "ProximityComparison",
    "compare_strategies",
    "mean_population_cost",
    "neighbor_cost",
    "per_peer_ratios",
    "population_cost",
    "DelaySummary",
]
