"""The benchmark's tracer rebinds sccdma names by (module, attribute).

A refactor that moves or drops one of those names would make every traced
and untraced benchmark pass fail, so the list in ``perfbench/tracing.py``
is checked here against the package.  So are the in-process workloads'
inputs in ``perfbench/workloads.py`` and the calls the runner makes on them.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from sccdma import bp_threshold, ensemble_search

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_binding_resolves_to_a_callable():
    bindings = _perfbench_module("tracing").BINDINGS
    assert bindings
    missing = []
    for module_name, attr, _layer in bindings:
        assert module_name.startswith("sccdma."), module_name
        value = getattr(importlib.import_module(module_name), attr, None)
        if not callable(value):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark bindings no longer resolve: {missing}"


def test_benchmark_inputs_build_and_bind_to_the_calls_the_runner_makes():
    workloads = _perfbench_module("workloads")
    query = workloads.threshold_query()
    inspect.signature(bp_threshold).bind(query)
    spec, scen = workloads.search_inputs(4)
    inspect.signature(ensemble_search).bind(spec, scen, target_ber=workloads.SEARCH_TARGET_BER)
