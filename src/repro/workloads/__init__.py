"""Workload construction: arrival processes, evaluation scenarios, synthetic paths."""

from .arrivals import (
    Arrival,
    flash_crowd_arrivals,
    poisson_arrivals,
)
from .scenarios import Scenario, ScenarioConfig, build_scenario, small_scenario
from .synthetic import synthetic_paths

__all__ = [
    "Arrival",
    "flash_crowd_arrivals",
    "poisson_arrivals",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "small_scenario",
    "synthetic_paths",
]
