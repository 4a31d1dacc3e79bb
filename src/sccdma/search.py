"""Seeded search over small-world coupling ensembles.

Samples instances of an (L, W, p, c, tau) ensemble, scores each by the
number of density-evolution iterations until the average BER reaches a
target, and reports the instances in ranked order.  Instance seeds
derive from (master_seed, index) through a fixed mixing function, so
results are reproducible and independent of evaluation order.
The instances are scored in one running stack of states that steps
through density evolution in lockstep: each row's score is built as it
retires, and the next instance is sampled into its slot.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from typing import IO, Iterator

import numpy as np
from numpy.typing import NDArray

from .coupling import (
    CouplingGraph,
    TrainingAssignment,
    check_band,
    check_quota,
    check_rewiring,
    check_seed,
    sw_rewire,
    to_base_matrix,
)
from .density_evolution import (
    SystemScenario,
    _sir_floor,
    _Stack,
    _write_table,
    ber_of,
    check_de_budget,
    check_target_ber,
    format_float,
    run_de,  # noqa: F401  (not called here; perfbench's tracer rebinds sccdma.search.run_de)
)
from .threshold import (
    DEFAULT_SUCCESS_BER,
    BisectionPlan,
    BracketError,
    ThresholdQuery,
    ThresholdResult,
    bp_threshold,
    check_plan,
)

__all__ = [
    "EnsembleSpec",
    "InstanceScore",
    "SearchReport",
    "instance_seed",
    "sample_instance",
    "score_instance",
    "ensemble_search",
    "write_search_csv",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FINALIZE_1 = 0xBF58476D1CE4E5B9
_FINALIZE_2 = 0x94D049BB133111EB
_THRESHOLD_FINALISTS = 10
# 2^16 samples, 327 times the 200-instance search: the ranked report
# holds a score of about 300 bytes for each, near 19 MiB in all.
_MAX_SAMPLES = 1 << 16
# Bytes of stacked bsq in search's running stack, 32 instances at L = 64:
# one stack of every instance would hold all their L x L matrices at once.
_BLOCK_BYTES = 1 << 20


def _mix64(z: int) -> int:
    """splitmix64 finalizer: bijective 64-bit avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _FINALIZE_1) & _MASK64
    z = ((z ^ (z >> 27)) * _FINALIZE_2) & _MASK64
    return z ^ (z >> 31)


def instance_seed(master_seed: int, index: int) -> int:
    """Seed for sample ``index``: splitmix64 of master_seed + (index+1) * golden gamma."""
    check_seed(master_seed)
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    return _mix64(master_seed + (index + 1) * _GOLDEN)


@dataclass(frozen=True)
class EnsembleSpec:
    """An (L, W, p, c, tau) small-world ensemble plus sampling plan."""

    L: int
    W: int
    p: float
    c: int
    tau: int
    master_seed: int
    n_samples: int

    def __post_init__(self) -> None:
        # The checks of sw_rewire and assign_training, run up front so a
        # bad spec fails before any sampling starts.
        check_band(self.L, self.W)
        check_rewiring(self.L, self.W, self.p, self.c)
        check_quota(self.tau, self.L)
        check_seed(self.master_seed)
        if self.n_samples < 1:
            raise ValueError(f"need at least one sample, got {self.n_samples}")
        if self.n_samples > _MAX_SAMPLES:
            raise ValueError(f"at most {_MAX_SAMPLES} samples, got {self.n_samples}")


@dataclass(frozen=True)
class InstanceScore:
    """Score of one instance: iterations until the average BER reached the target.

    ``iterations_to_target`` is None when the target was never reached
    within the iteration budget.  ``iterations`` counts the DE steps the
    run took until it converged or ran out of budget.
    """

    instance_seed: int | None
    iterations_to_target: int | None
    final_max_ber: float
    iterations: int
    threshold: ThresholdResult | None = None
    index: int | None = None


@dataclass(frozen=True)
class SearchReport:
    """Ranked scores plus the best instance, reproducible from the spec alone."""

    spec: EnsembleSpec
    scenario: SystemScenario
    scores: tuple[InstanceScore, ...]
    best_graph: CouplingGraph
    best_assignment: TrainingAssignment
    with_thresholds: bool
    failures: tuple[tuple[int, str], ...] = field(default_factory=tuple)


def sample_instance(
    spec: EnsembleSpec, index: int
) -> tuple[CouplingGraph, TrainingAssignment]:
    """Instance ``index`` of the ensemble, independent of evaluation order."""
    if not 0 <= index < spec.n_samples:
        raise ValueError(f"index must lie in [0, {spec.n_samples}), got {index}")
    return sw_rewire(
        spec.L, spec.W, spec.p, spec.c, spec.tau, instance_seed(spec.master_seed, index)
    )


def _instance_row(
    g: CouplingGraph, assignment: TrainingAssignment, scen: SystemScenario, index: int | None = None
) -> tuple[tuple[int | None, int | None], NDArray[np.float64], NDArray[np.float64]]:
    """One instance as a stack row ((seed, index), loads, bsq), with its own training set."""
    seed = None if g.provenance is None else g.provenance.seed
    loads = replace(scen, training_set=assignment).row_loads(g.L)
    return (seed, index), loads, to_base_matrix(g).bsq


def _score_stack(
    queue: Iterator[tuple[tuple[int | None, int | None], NDArray[np.float64], NDArray[np.float64]]],
    slots: int,
    L: int,
    sigma2: float,
    target_ber: float,
    max_iter: int,
    tol: float,
) -> list[InstanceScore]:
    """Run DE from zero on every instance of ``queue`` in one running stack of ``slots`` rows.

    ``queue`` yields each instance as ((seed, index), loads, bsq), with
    loads (L,) and bsq (L, L).  The stack steps its rows in lockstep, each
    with its own step count.  Each row retires as it stops, into the
    :class:`InstanceScore` of what search reads of its run: the first
    step at which its average BER is at or below ``target_ber`` (step 0
    included; None if never), the maximum BER of its last state and its
    step count.  The next instance of the queue then joins, from zero, in
    the slot it leaves.  A row's score equals its run alone; scores come
    in the order the rows retire.

    Only rows whose mean SIR is at or above ``_sir_floor(target_ber)`` get
    the exact average-BER test.  The others are provably above the target:
    Q(sqrt(x)) is convex, so by Jensen their average BER is at least the
    floor's BER, which exceeds the target by a relative margin of 1e-9
    plus what qfunc may drop below the normal range.  So the results are
    those of the exact test on every row.
    """
    stack = _Stack(L, slots)
    sir_floor = _sir_floor(target_ber)
    # A row's mark is its first step at the target, or -1: 0 at its start
    # if the zero state is at the target, by the test record makes.
    start = 0 if sir_floor <= 0.0 and ber_of(np.zeros(L)).mean() <= target_ber else -1
    scores = []

    def record(state):
        # Rows already at the target, or with a mean SIR below the floor, skip the BER.
        first = stack.mark[: len(state)]
        near = np.flatnonzero((first < 0) & (np.add.reduce(state, axis=1) / L >= sir_floor))
        if near.size:
            near = near[ber_of(state[near]).mean(axis=1) <= target_ber]
            first[near] = stack.clock - stack.start[near]

    while True:
        for row in islice(queue, slots - len(stack)):
            stack.join(*row, mark=start)
        if not stack:
            return scores
        labels, sir, steps, _, marks = stack.run(sigma2, max_iter, tol, record)
        max_bers = ber_of(sir).max(axis=1).tolist()
        for (seed, index), max_ber, n, mark in zip(labels, max_bers, steps, marks):
            reached = None if mark < 0 else mark
            scores.append(InstanceScore(seed, reached, max_ber, n, index=index))


def score_instance(
    g: CouplingGraph,
    assignment: TrainingAssignment,
    scen: SystemScenario,
    target_ber: float,
    max_iter: int = 1000,
    sir_tol: float = 1e-8,
) -> InstanceScore:
    """Run density evolution and record iterations to the average-BER target.

    The system is ``scen`` with the instance's own training assignment in
    place of the scenario's.  The instance is the one row of its own
    running stack, and the result equals its score in
    :func:`ensemble_search`, whatever rows it shares a stack with there.
    """
    check_target_ber(target_ber)
    check_de_budget(max_iter, sir_tol)
    [score] = _score_stack(
        iter([_instance_row(g, assignment, scen)]), 1, g.L,
        scen.sigma2, target_ber, max_iter, sir_tol,
    )
    return score


def _rank_key(score: InstanceScore) -> tuple[float, float, int]:
    iters = (
        math.inf
        if score.iterations_to_target is None
        else float(score.iterations_to_target)
    )
    return (iters, score.final_max_ber, score.instance_seed or 0)


def _block_rows(L: int) -> int:
    """Slots of search's running stack: at most _BLOCK_BYTES of stacked bsq, and at least one."""
    return max(1, _BLOCK_BYTES // (L * L * 8))


def ensemble_search(
    spec: EnsembleSpec,
    scen: SystemScenario,
    target_ber: float = DEFAULT_SUCCESS_BER,
    max_iter: int = 1000,
    sir_tol: float = 1e-8,
    thresholds: BisectionPlan | None = None,
) -> SearchReport:
    """Score every instance of the ensemble and rank them.

    Ranking is ascending by iterations to target (unreached last), then
    final maximum BER, then instance seed.  Given ``thresholds``, each of
    the top 10 instances is also bisected for its BP threshold by a
    :class:`ThresholdQuery`, that plan plus the system the instance was
    scored in: its own base matrix and training set, the sigma2 and
    alpha_tr of ``scen`` and ``sir_tol``.  A finalist that cannot be
    bisected is recorded in ``failures`` and keeps no threshold.

    One running stack scores the instances: a buffer, allocated once, of
    at most 1 MiB of base matrices (32 instances at L = 64, or one
    instance where that is larger).  Instances are sampled in ascending
    index order, each as a slot of the stack comes free, and step through
    density evolution in lockstep with the rows beside them.  An instance
    that cannot be sampled is recorded in ``failures`` as (index, "Type:
    message"), and the next one takes its place.  The report does not
    depend on which instances share a stack, because every instance
    derives from its own index and scores alone.
    """
    # Checked before any sampling starts, so bad arguments fail up front.
    if thresholds is not None:
        check_plan(thresholds, scen.sigma2, scen.alpha_tr, sir_tol)
    check_target_ber(target_ber)
    check_de_budget(max_iter, sir_tol)
    failures = []

    def instances():
        for index in range(spec.n_samples):
            try:
                row = _instance_row(*sample_instance(spec, index), scen, index)
            except Exception as exc:  # recorded per instance, search continues
                failures.append((index, f"{type(exc).__name__}: {exc}"))
            else:
                yield row

    slots = min(_block_rows(spec.L), spec.n_samples)
    scores = _score_stack(
        instances(), slots, spec.L, scen.sigma2, target_ber, max_iter, sir_tol
    )
    if not scores:
        raise RuntimeError(f"all {spec.n_samples} instances failed: {failures[:3]}")
    scores.sort(key=_rank_key)

    if thresholds is not None:
        finalists = []
        for score in scores[:_THRESHOLD_FINALISTS]:
            g, assignment = sample_instance(spec, score.index)
            query = ThresholdQuery(**asdict(thresholds), B=to_base_matrix(g), sigma2=scen.sigma2,
                                   alpha_tr=scen.alpha_tr, training_set=assignment, sir_tol=sir_tol)
            try:
                finalists.append(replace(score, threshold=bp_threshold(query)))
            except (BracketError, RuntimeError) as exc:
                failures.append((score.index, f"{type(exc).__name__}: {exc}"))
                finalists.append(score)
        scores = finalists + scores[_THRESHOLD_FINALISTS:]

    best_graph, best_assignment = sample_instance(spec, scores[0].index)
    return SearchReport(
        spec=spec,
        scenario=scen,
        scores=tuple(scores),
        best_graph=best_graph,
        best_assignment=best_assignment,
        with_thresholds=thresholds is not None,
        failures=tuple(failures),
    )


def write_search_csv(report: SearchReport, stream: IO[str]) -> None:
    """Ranked table: index,instance_seed,iterations_to_target,final_max_ber[,alpha_bp].

    The alpha_bp column appears whenever thresholds were requested;
    unreached targets and missing thresholds leave their fields empty.
    """
    scores = report.scores
    columns = [
        [str(score.index) for score in scores],
        [str(score.instance_seed) for score in scores],
        ["" if s.iterations_to_target is None else str(s.iterations_to_target) for s in scores],
        np.array([score.final_max_ber for score in scores], dtype=np.float64),
    ]
    header = "index,instance_seed,iterations_to_target,final_max_ber"
    if report.with_thresholds:
        header += ",alpha_bp"
        columns.append(
            ["" if s.threshold is None else format_float(s.threshold.alpha_bp) for s in scores]
        )
    _write_table(stream, header, columns)
