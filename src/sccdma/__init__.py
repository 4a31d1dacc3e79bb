"""Density-evolution analysis of spatially coupled CDMA ensembles.

Builds regular and small-world coupling graphs, predicts per-position
BER through the coupled density-evolution recursion, estimates BP
thresholds by bisection, and searches ensembles for instances that
converge in few iterations.  Re-exports each module's ``__all__``.

The modules, and numpy with them, load when a name is first used
(PEP 562), so that ``sccdma.cli`` can set up the process before numpy
starts.
"""

import importlib as _importlib

__version__ = "0.1.0"

# The one list of public names, in module order; each module's __all__ is its entry.
_EXPORTS = {
    "coupling": (
        "GraphError", "GraphParseError", "MAX_CHAIN_LENGTH", "Provenance", "CouplingGraph",
        "TrainingAssignment", "BaseMatrix", "make_regular", "cluster_of", "sw_rewire",
        "assign_training", "to_base_matrix", "average_load", "serialize_graph", "parse_graph",
    ),
    "density_evolution": (
        "MMSE_CUTOFF", "SystemScenario", "DeTrajectory", "sigma2_from_db", "qfunc", "ber_of",
        "mmse_bpsk", "de_step", "run_de", "write_trajectory_csv", "write_summary_csv",
    ),
    "search": (
        "EnsembleSpec", "InstanceScore", "SearchReport", "instance_seed", "sample_instance",
        "score_instance", "ensemble_search", "write_search_csv",
    ),
    "threshold": (
        "DEFAULT_SUCCESS_BER", "BisectionPlan", "BracketError", "DeEvaluation", "ThresholdQuery",
        "ThresholdResult", "bp_threshold", "scalar_fixed_points", "write_threshold_csv",
        "write_evaluation_log_csv",
    ),
}
# Public name -> the module that defines it, so a name loads only its own module.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        module = _importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
