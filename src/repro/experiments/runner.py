"""Experiment registry and runner.

``repro-experiments`` (the console entry point in :mod:`repro.cli`) looks up
experiments by name here, runs them, prints their tables and optionally dumps
them as JSON.  Each experiment is a zero-argument callable (quick variants
are provided for everything so the whole suite can be smoke-run in CI).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..exceptions import ConfigurationError
from .ablations import (
    churn_study,
    superpeer_study,
    landmark_count_sweep,
    landmark_placement_sweep,
    neighbor_set_size_sweep,
    traceroute_noise_sweep,
    tree_accuracy_study,
)
from .analysis import branch_point_analysis
from .figure1 import Figure1Config, quick_figure1_config, run_figure1
from .protocol_sim import run_protocol_sim, run_protocol_sim_quick
from .results import ResultTable

ExperimentFunction = Callable[[], ResultTable]


def _figure1_full() -> ResultTable:
    return run_figure1(Figure1Config())


def _figure1_quick() -> ResultTable:
    return run_figure1(quick_figure1_config())


EXPERIMENTS: Dict[str, ExperimentFunction] = {
    "figure1": _figure1_full,
    "figure1-quick": _figure1_quick,
    "landmark-count": landmark_count_sweep,
    "landmark-placement": landmark_placement_sweep,
    "neighbor-set-size": neighbor_set_size_sweep,
    "tree-accuracy": tree_accuracy_study,
    "traceroute-noise": traceroute_noise_sweep,
    "churn": churn_study,
    "superpeers": superpeer_study,
    "branch-analysis": branch_point_analysis,
    "protocol-sim": run_protocol_sim,
    "protocol-sim-quick": run_protocol_sim_quick,
}
"""All runnable experiments by name."""


def available_experiments() -> List[str]:
    """Names accepted by :func:`run_experiment`."""
    return sorted(EXPERIMENTS)


def run_experiment(name: str) -> ResultTable:
    """Run one experiment by name and return its result table."""
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        )
    return EXPERIMENTS[name]()


def save_table(table: ResultTable, output_dir: Path, stem: Optional[str] = None) -> Path:
    """Write a table to ``output_dir`` as JSON; returns the file path."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"{stem or table.name}.json"
    path.write_text(table.to_json())
    return path
