"""The benchmark's tracer rebinds sccdma names by (module, attribute).

A refactor that moves or drops one of those names would make every traced
and untraced benchmark pass fail, so the list in ``perfbench/tracing.py``
is checked here against the package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_binding_resolves_to_a_callable():
    bindings = _tracing_module().BINDINGS
    assert bindings
    missing = []
    for module_name, attr, _layer in bindings:
        assert module_name.startswith("sccdma."), module_name
        value = getattr(importlib.import_module(module_name), attr, None)
        if not callable(value):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark bindings no longer resolve: {missing}"
