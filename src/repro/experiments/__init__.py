"""Experiment framework: run matrix, hyperparameter grids, reporting."""

from .gridsearch import (
    PAPER_MAX_CANDIDATES_GRID,
    PAPER_TOP_N_GRID,
    GridPoint,
    hyperparameter_grid,
)
from .model_selection import SearchResult, Trial, grid_search_models
from .report import ascii_bars, format_series, format_table, group_rows
from .significance import (
    MRRInterval,
    SignTestResult,
    bootstrap_mrr_ci,
    paired_sign_test,
)
from .runner import (
    PAPER_DATASETS,
    PAPER_MODELS,
    PAPER_STRATEGIES,
    MatrixRow,
    clear_model_cache,
    default_model_config,
    default_train_config,
    get_trained_model,
    run_matrix,
)
from .workflow import FactDiscoveryWorkflow, WorkflowReport

__all__ = [
    "GridPoint",
    "hyperparameter_grid",
    "Trial",
    "SearchResult",
    "grid_search_models",
    "PAPER_TOP_N_GRID",
    "PAPER_MAX_CANDIDATES_GRID",
    "format_table",
    "format_series",
    "ascii_bars",
    "group_rows",
    "MRRInterval",
    "bootstrap_mrr_ci",
    "SignTestResult",
    "paired_sign_test",
    "MatrixRow",
    "run_matrix",
    "get_trained_model",
    "clear_model_cache",
    "default_model_config",
    "default_train_config",
    "PAPER_DATASETS",
    "PAPER_MODELS",
    "PAPER_STRATEGIES",
    "FactDiscoveryWorkflow",
    "WorkflowReport",
]
