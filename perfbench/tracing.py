"""Spans around sccdma's layers, recorded from outside the package.

A :class:`Tracer` rebinds public names in the modules that call them (for
example ``density_evolution.mmse_bpsk``, which ``de_step`` looks up at call
time) to wrappers that record a span: layer, start, end, parent span and a
few counts taken from the call's arguments or result.  Spans stay in
memory.  :func:`aggregate` turns one pass's spans into per-layer totals,
where a span's self time is its duration minus its children's durations,
and :func:`layer_metrics` turns those totals into the benchmark's
per-layer metrics.  No sccdma source file changes.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, layer): every name the workloads reach a layer through.
BINDINGS = (
    ("sccdma.density_evolution", "mmse_bpsk", "mmse"),
    ("sccdma.density_evolution", "de_step", "de_step"),
    ("sccdma.threshold", "run_de", "run_de"),
    ("sccdma.search", "run_de", "run_de"),
    ("sccdma.cli", "run_de", "run_de"),
    ("sccdma.threshold", "bp_threshold", "bisection"),
    ("sccdma.cli", "bp_threshold", "bisection"),
    ("sccdma.search", "ensemble_search", "search"),
    ("sccdma.search", "sample_instance", "sample"),
    ("sccdma.search", "sw_rewire", "rewire"),
    ("sccdma.search", "to_base_matrix", "base_matrix"),
    ("sccdma.cli", "to_base_matrix", "base_matrix"),
    ("sccdma.cli", "parse_graph", "parse"),
    ("sccdma.cli", "write_trajectory_csv", "write"),
    ("sccdma.cli", "write_summary_csv", "write"),
    ("sccdma.cli", "write_threshold_csv", "write"),
    ("sccdma.cli", "write_evaluation_log_csv", "write"),
)

# Untraced in-process passes keep only these, to count DE iterations and to
# mark where the pass's timing may pause (a few hundred calls a pass at most).
RUN_DE_BINDINGS = tuple(b for b in BINDINGS if b[2] == "run_de")

COMPUTE_LAYERS = ("run_de", "bisection", "search")


def _describe(layer: str, args, kwargs, result):
    """Counts a span carries, taken from the call it wraps."""
    if layer == "mmse":
        return int(np.size(args[0] if args else kwargs["x"]))
    if layer == "run_de":
        return (result.iterations_run, bool(result.converged), int(result.sir.shape[1]))
    if layer == "bisection":
        query = args[0] if args else kwargs["query"]
        iterations = [ev.iterations for ev in result.log]
        return (result.de_evaluations, sum(iterations), max(iterations) / query.max_iter)
    if layer == "search":
        reached = sum(s.iterations_to_target is not None for s in result.scores)
        return (len(result.scores), len(result.failures), reached)
    return None


class Tracer:
    """Records one span per call of each rebound name, while installed."""

    def __init__(self, bindings=BINDINGS, after=None, clock=time.perf_counter):
        """``after``, if given, is called with no arguments after each wrapped call returns."""
        self.bindings = bindings
        self.after = after
        self.clock = clock
        # [layer, start, end, parent index or -1, counts]
        self.spans: list[list] = []
        self._open: list[int] = []

    def add(self, layer: str, start: float, end: float, info=None) -> None:
        """Record a span measured by the caller, such as an import."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, start, end, parent, info])

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, layer: str, fn):
        clock, open_, after = self.clock, self._open, self.after

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, 0.0, 0.0, open_[-1] if open_ else -1, None]
            self.spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            span[4] = _describe(layer, args, kwargs, result)
            if after is not None:
                after()
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every name in ``bindings``; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, layer in self.bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def aggregate(spans: list[list]) -> dict:
    """Per-layer calls, self time, total time of root spans and counts, for one pass.

    ``covered_s`` is the time the root spans cover; the self times of all
    spans add up to it.
    """
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    layers: dict[str, dict] = {}
    covered = 0.0
    for i, (layer, _, _, parent, info) in enumerate(spans):
        entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "root_s": 0.0, "info": []})
        entry["calls"] += 1
        entry["self_s"] += durations[i] - child_time[i]
        if parent < 0:
            entry["root_s"] += durations[i]
            covered += durations[i]
        if info is not None:
            entry["info"].append(info)
    return {"layers": layers, "covered_s": covered}


def self_total(agg: dict) -> float:
    return sum(entry["self_s"] for entry in agg["layers"].values())


def layer_metrics(agg: dict, cli: bool) -> dict[str, float]:
    """The benchmark's per-layer metrics for one traced pass.

    Layers a workload does not reach read 0.  ``cli`` says whether the
    spans come from a CLI process, whose root compute and write spans
    make up ``cli.compute_s`` and ``cli.write_s``.
    """
    layers = agg["layers"]

    def get(layer: str, key: str):
        return layers.get(layer, {}).get(key, 0 if key == "calls" else 0.0)

    def info(layer: str) -> list:
        return layers.get(layer, {}).get("info", [])

    elements = sum(info("mmse"))
    runs = info("run_de")
    bisections = info("bisection")
    searches = info("search")
    scored = sum(s[0] for s in searches)
    return {
        "mmse.calls": get("mmse", "calls"),
        "mmse.elements": elements,
        "mmse.self_s": get("mmse", "self_s"),
        "mmse.ns_per_element": get("mmse", "self_s") / elements * 1e9 if elements else 0.0,
        "de_step.calls": get("de_step", "calls"),
        "de_step.self_s": get("de_step", "self_s"),
        "de_step.us_per_call": (
            get("de_step", "self_s") / get("de_step", "calls") * 1e6
            if get("de_step", "calls")
            else 0.0
        ),
        "run_de.calls": len(runs),
        "run_de.iterations": sum(r[0] for r in runs),
        "run_de.max_iterations": max((r[0] for r in runs), default=0),
        "run_de.unconverged": sum(not r[1] for r in runs),
        "run_de.self_s": get("run_de", "self_s"),
        "run_de.table_bytes": sum((r[0] + 1) * r[2] * 8 * 2 for r in runs),
        "bisection.evaluations": sum(b[0] for b in bisections),
        "bisection.de_iterations": sum(b[1] for b in bisections),
        "bisection.self_s": get("bisection", "self_s"),
        "bisection.budget_share_max": max((b[2] for b in bisections), default=0.0),
        "rewire.calls": get("rewire", "calls"),
        "rewire.self_s": get("rewire", "self_s"),
        "search.instances": sum(s[0] + s[1] for s in searches),
        "search.failures": sum(s[1] for s in searches),
        # sample_instance is search bookkeeping around the rewiring
        "search.self_s": get("search", "self_s") + get("sample", "self_s"),
        "search.reached_ratio": sum(s[2] for s in searches) / scored if scored else 0.0,
        "graph.parse_s": get("parse", "self_s"),
        "graph.base_matrix_s": get("base_matrix", "self_s"),
        "cli.compute_s": sum(get(l, "root_s") for l in COMPUTE_LAYERS) if cli else 0.0,
        "cli.write_s": get("write", "root_s") if cli else 0.0,
    }


# Per-layer metrics that are counts: equal on every pass of one commit and seed.
COUNT_METRICS = (
    "mmse.calls", "mmse.elements", "de_step.calls", "run_de.calls",
    "run_de.iterations", "run_de.max_iterations", "run_de.unconverged",
    "run_de.table_bytes", "bisection.evaluations", "bisection.de_iterations",
    "bisection.budget_share_max", "rewire.calls", "search.instances",
    "search.failures", "search.reached_ratio",
)
