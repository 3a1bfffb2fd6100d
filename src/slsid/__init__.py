"""Switched-linear system identification toolkit.

Identify the per-subsystem parameters and the switching sequence of a
switched linear regression from data: a block-coordinate descent solver for
the penalty-relaxed assignment problem (which it solves on hard labels,
since the relaxation has binary minimizers), excitation certificates that
decide when the noise-free problem has a unique solution, an exact
branch-and-bound oracle for small instances, and penalized model-order selection.
"""

from .bcd import SolveReport, SolverConfig, SolverFailure, bcd_solve
from .dataio import load_dataset, load_model, save_dataset, save_model
from .metrics import classification_error, nmse
from .model import (
    Assignment,
    Dataset,
    NoiseSpec,
    SLModel,
    generate_random_scenario,
    objective_integer,
    simulate,
)
from .oracle import (
    EnumerationLimitError,
    SolutionClass,
    oracle_global,
)
from .order import (
    OrderSelectConfig,
    OrderSelectReport,
    SweepScenario,
    consistency_sweep,
    select_order,
)
from .pe import (
    PEReport,
    SampleCounts,
    check_cluster_pe,
    check_distinct_params,
    check_no_separating_regressor,
    check_partition_condition,
    min_samples_bako,
    min_samples_ours,
    min_samples_table,
    min_samples_vidal,
    pe_report,
)

__all__ = [
    "Assignment",
    "Dataset",
    "EnumerationLimitError",
    "NoiseSpec",
    "OrderSelectConfig",
    "OrderSelectReport",
    "PEReport",
    "SLModel",
    "SampleCounts",
    "SolutionClass",
    "SolveReport",
    "SolverConfig",
    "SolverFailure",
    "SweepScenario",
    "bcd_solve",
    "check_cluster_pe",
    "check_distinct_params",
    "check_no_separating_regressor",
    "check_partition_condition",
    "classification_error",
    "consistency_sweep",
    "generate_random_scenario",
    "load_dataset",
    "load_model",
    "min_samples_bako",
    "min_samples_ours",
    "min_samples_table",
    "min_samples_vidal",
    "nmse",
    "objective_integer",
    "oracle_global",
    "pe_report",
    "save_dataset",
    "save_model",
    "select_order",
    "simulate",
]

__version__ = "0.1.0"
