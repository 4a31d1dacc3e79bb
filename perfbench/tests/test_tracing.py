"""Tests of the benchmark's traced run.

    python3 -m pytest perfbench/tests

They run one short pass each (a few seconds in all) and are not part of the
tier-1 suite, whose test path is ``tests/``.
"""

from __future__ import annotations

import importlib
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bound_names():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracing.BINDINGS
    }


def test_shims_restore_every_rebound_name():
    before = _bound_names()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _bound_names()
        assert all(during[key] is not before[key] for key in before)
        assert all(during[key].__wrapped__ is before[key] for key in before)
    assert _bound_names() == before

    with pytest.raises(KeyError):
        with tracer.installed():
            raise KeyError("a pass that raises")
    after = _bound_names()
    assert all(after[key] is before[key] for key in before)


class _Clock:
    """Advances one unit per reading, so every span duration is known."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_span_minus_children():
    layers = types.ModuleType("fake_layers")
    exec(
        "def leaf():\n    return 1\n"
        "def middle():\n    return leaf() + leaf()\n"
        "def top():\n    return middle() + leaf()\n",
        layers.__dict__,
    )
    sys.modules["fake_layers"] = layers
    try:
        bindings = (
            ("fake_layers", "leaf", "leaf"),
            ("fake_layers", "middle", "middle"),
            ("fake_layers", "top", "top"),
        )
        tracer = tracing.Tracer(bindings, clock=_Clock())
        with tracer.installed():
            assert layers.top() == 3
    finally:
        del sys.modules["fake_layers"]
    agg = tracing.aggregate(tracer.take())
    by_layer = agg["layers"]
    # clock readings: top 1-10, middle 2-7, leaves 3-4, 5-6 and 8-9
    assert by_layer["leaf"]["calls"] == 3
    assert by_layer["leaf"]["self_s"] == 3.0
    assert by_layer["middle"]["self_s"] == 5.0 - 2.0
    assert by_layer["top"]["self_s"] == 9.0 - 5.0 - 1.0
    assert agg["covered_s"] == 9.0
    assert tracing.self_total(agg) == agg["covered_s"]


def _small_search_inputs():
    spec, scen = workloads.search_inputs(seed=5)
    return replace(spec, n_samples=6), scen


def test_traced_in_process_pass_writes_the_untraced_bytes():
    inputs = _small_search_inputs()
    plain = run.inprocess_pass("search_sw200", inputs, 5, False, run.Stopwatch("in_process"))
    traced = run.inprocess_pass("search_sw200", inputs, 5, True, run.Stopwatch("in_process"))
    assert not plain["problems"] and not traced["problems"]
    assert traced["digest"] == plain["digest"]
    assert traced["counts"] == plain["counts"]
    layer = tracing.layer_metrics(traced["agg"], cli=False)
    assert layer["run_de.iterations"] == plain["counts"]["de_iterations"]
    assert layer["search.instances"] == 6
    assert layer["mmse.calls"] == layer["de_step.calls"] == layer["run_de.iterations"]


def test_traced_cli_pass_writes_the_untraced_bytes_and_self_times_add_up(tmp_path):
    plain = run.cli_pass("cli_threshold_uncoupled", 4, tmp_path, False, run.Stopwatch("cli"))
    traced = run.cli_pass("cli_threshold_uncoupled", 4, tmp_path, True, run.Stopwatch("cli"))
    assert not plain["problems"] and not traced["problems"]
    assert traced["digest"] == plain["digest"]
    assert traced["counts"] == plain["counts"]

    agg = traced["agg"]
    remainder = traced["wall"] - agg["covered_s"]
    assert remainder > 0.0
    # per-layer self times plus the untraced remainder make up the traced wall time
    assert tracing.self_total(agg) + remainder == pytest.approx(traced["wall"], abs=1e-9)
    layer = tracing.layer_metrics(agg, cli=True)
    assert layer["bisection.evaluations"] == plain["counts"]["evaluations"]
    assert layer["bisection.de_iterations"] == plain["counts"]["de_iterations"]
    assert layer["cli.compute_s"] > 0.0 and layer["cli.write_s"] > 0.0
