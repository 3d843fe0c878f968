"""Workload construction: arrival processes, evaluation scenarios, synthetic paths."""

from .arrivals import (
    Arrival,
    arrival_rate,
    flash_crowd_arrivals,
    poisson_arrivals,
    sequential_arrivals,
    uniform_arrivals,
)
from .scenarios import Scenario, ScenarioConfig, build_scenario, small_scenario
from .synthetic import synthetic_paths

__all__ = [
    "Arrival",
    "arrival_rate",
    "flash_crowd_arrivals",
    "poisson_arrivals",
    "sequential_arrivals",
    "uniform_arrivals",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "small_scenario",
    "synthetic_paths",
]
