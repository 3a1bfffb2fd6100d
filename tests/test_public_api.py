"""The package's public names, listed out.

Adding or removing a public name has to change this list too, so the
change shows in review.
"""

import slsid

PUBLIC = [
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


def test_all_is_the_listed_surface():
    assert len(PUBLIC) == 36
    assert slsid.__all__ == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in PUBLIC if not hasattr(slsid, name)]
    assert not missing
