"""Experiment harness: the paper's figure, claim checks and ablations."""

from .results import ResultTable, merge_seed_tables
from .figure1 import (
    Figure1Config,
    PAPER_PEER_COUNTS,
    evaluate_population,
    quick_figure1_config,
    run_figure1,
    run_single_seed,
)
from .ablations import (
    churn_study,
    superpeer_study,
    landmark_count_sweep,
    landmark_placement_sweep,
    traceroute_noise_sweep,
    tree_accuracy_study,
)
from .analysis import branch_point_analysis
from .runner import (
    EXPERIMENTS,
    available_experiments,
    run_experiment,
    save_table,
)

__all__ = [
    "ResultTable",
    "merge_seed_tables",
    "Figure1Config",
    "PAPER_PEER_COUNTS",
    "evaluate_population",
    "quick_figure1_config",
    "run_figure1",
    "run_single_seed",
    "churn_study",
    "superpeer_study",
    "landmark_count_sweep",
    "landmark_placement_sweep",
    "traceroute_noise_sweep",
    "tree_accuracy_study",
    "branch_point_analysis",
    "EXPERIMENTS",
    "available_experiments",
    "run_experiment",
    "save_table",
]
