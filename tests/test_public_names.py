"""The package re-exports each module's ``__all__``; this pins the result."""

from __future__ import annotations

import sccdma
from sccdma import coupling, density_evolution, search, threshold

PUBLIC_NAMES = [
    "BaseMatrix", "BisectionPlan", "BracketError", "CouplingGraph",
    "DEFAULT_SUCCESS_BER", "DeEvaluation", "DeTrajectory", "EnsembleSpec",
    "GraphError", "GraphParseError", "InstanceScore", "MAX_CHAIN_LENGTH",
    "MMSE_CUTOFF", "Provenance", "SearchReport", "SystemScenario",
    "ThresholdQuery", "ThresholdResult", "TrainingAssignment",
    "__version__", "assign_training", "average_load", "ber_of",
    "bp_threshold", "cluster_of", "de_step", "ensemble_search",
    "instance_seed", "make_regular", "mmse_bpsk", "parse_graph", "qfunc",
    "run_de", "sample_instance", "scalar_fixed_points", "score_instance",
    "serialize_graph", "sigma2_from_db", "sw_rewire", "to_base_matrix",
    "write_evaluation_log_csv", "write_search_csv", "write_summary_csv",
    "write_threshold_csv", "write_trajectory_csv",
]


def test_public_names_are_pinned_listed_once_and_resolve():
    assert len(PUBLIC_NAMES) == 45
    assert sorted(sccdma.__all__) == PUBLIC_NAMES
    assert len(set(sccdma.__all__)) == len(sccdma.__all__)
    assert [name for name in sccdma.__all__ if not hasattr(sccdma, name)] == []


def test_the_package_lists_each_modules_names_in_order_and_dir_shows_them():
    modules = (coupling, density_evolution, search, threshold)
    assert sccdma.__all__ == [*(name for m in modules for name in m.__all__), "__version__"]
    assert set(sccdma.__all__) <= set(dir(sccdma))
    assert all(getattr(sccdma, m.__name__.rpartition(".")[2]) is m for m in modules)
