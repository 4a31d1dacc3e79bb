"""Seeded search over small-world coupling ensembles.

Samples instances of an (L, W, p, c, tau) ensemble, scores each by the
number of density-evolution iterations until the average BER reaches a
target, and reports the instances in ranked order.  Instance seeds
derive from (master_seed, index) through a fixed mixing function, so
results are reproducible and independent of evaluation order.
One loop samples the instances into a block buffer and scores each
block as one stack of states that steps through density evolution in
lockstep; scores are built as the stack's rows retire.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import IO

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
    _lockstep,
    _sir_floor,
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
# Bytes of stacked bsq per scoring block, 32 instances at L = 64: one stack
# of every instance would hold all their L x L matrices at once.
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
    g: CouplingGraph, assignment: TrainingAssignment, scen: SystemScenario
) -> tuple[NDArray[np.float64], NDArray[np.float64], int | None]:
    """(bsq, loads, seed) of one instance; its training assignment supersedes the scenario's."""
    return (
        to_base_matrix(g).bsq,
        replace(scen, training_set=assignment).row_loads(g.L),
        None if g.provenance is None else g.provenance.seed,
    )


def _score_stack(
    labels: list[tuple[int | None, int | None]],
    bsq: NDArray[np.float64],
    loads: NDArray[np.float64],
    sigma2: float,
    target_ber: float,
    max_iter: int,
    tol: float,
) -> list[InstanceScore]:
    """Run DE from zero on a stack of instances in lockstep, one per row.

    Row i of ``bsq`` (n, L, L) and ``loads`` (n, L) is the instance with
    (seed, index) ``labels[i]``.  Each row retires as it stops, into the
    :class:`InstanceScore` of what search reads of its run: the first
    step at which its average BER is at or below ``target_ber`` (step 0
    included; None if never), the maximum BER of its last state and its
    step count.  The survivors are compacted in place, so ``bsq`` is
    overwritten.  A row's score equals its run alone; the scores keep the
    rows' order.

    Only rows whose mean SIR is at or above ``_sir_floor(target_ber)`` get
    the exact average-BER test.  The others are provably above the target:
    Q(sqrt(x)) is convex, so by Jensen their average BER is at least the
    floor's BER, which exceeds the target by a relative margin of 1e-9
    plus what qfunc may drop below the normal range.  So the results are
    those of the exact test on every row.
    """
    first = np.full(len(labels), -1)
    scores: list = [None] * len(labels)  # each row's score, set as it retires
    rows = np.arange(len(labels))  # stack row -> block row
    sir = np.zeros(loads.shape)
    sir_floor = _sir_floor(target_ber)
    step = -1  # steps taken to reach the last recorded state

    def record(state):
        # Rows already at the target, or with a mean SIR below the floor, skip the BER.
        nonlocal step
        step += 1
        near = np.flatnonzero((first[rows] < 0) & (state.mean(axis=1) >= sir_floor))
        if near.size:
            at_target = ber_of(state[near]).mean(axis=1) <= target_ber
            first[rows[near[at_target]]] = step

    record(sir)
    while rows.size:
        sir, _, _, done = _lockstep(
            sir, step, bsq[: rows.size], sigma2, loads, max_iter, tol, record
        )
        for row, max_ber in zip(rows[done].tolist(), ber_of(sir[done]).max(axis=1).tolist()):
            seed, index = labels[row]
            reached = None if first[row] < 0 else int(first[row])
            scores[row] = InstanceScore(seed, reached, max_ber, step, index=index)
        keep = np.flatnonzero(~done)
        # keep ascends, so each row moves down onto one that has retired or moved.
        for dst, src in enumerate(keep):
            if dst != src:
                bsq[dst] = bsq[src]
        sir, loads, rows = sir[keep], loads[keep], rows[keep]
    return scores


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
    place of the scenario's.  The result equals the instance's score in any
    :func:`ensemble_search` block.
    """
    check_target_ber(target_ber)
    check_de_budget(max_iter, sir_tol)
    bsq, loads, seed = _instance_row(g, assignment, scen)
    [score] = _score_stack(
        [(seed, None)], bsq[None].copy(), loads[None],
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
    """Instances per scoring block: at most _BLOCK_BYTES of stacked bsq, and at least one."""
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

    One loop samples and scores the instances in blocks of consecutive
    indices.  Each block refills one buffer, allocated once, of at most
    1 MiB of base matrices (32 instances at L = 64, or one instance where
    that is larger), and scores it as one lockstep stack.  An instance
    that cannot be sampled is recorded in ``failures`` as (index, "Type:
    message"), and the rest of its block is still scored.  The report
    does not depend on the blocks, because every instance derives from
    its own index and scores alone.
    """
    # Checked before any sampling starts, so bad arguments fail up front.
    if thresholds is not None:
        check_plan(thresholds, scen.sigma2, scen.alpha_tr, sir_tol)
    check_target_ber(target_ber)
    check_de_budget(max_iter, sir_tol)
    rows = min(_block_rows(spec.L), spec.n_samples)
    bsq = np.empty((rows, spec.L, spec.L))
    loads = np.empty((rows, spec.L))
    scores, failures = [], []
    for start in range(0, spec.n_samples, rows):
        labels = []
        for index in range(start, min(start + rows, spec.n_samples)):
            row = len(labels)
            try:
                bsq[row], loads[row], seed = _instance_row(*sample_instance(spec, index), scen)
            except Exception as exc:  # recorded per instance, search continues
                failures.append((index, f"{type(exc).__name__}: {exc}"))
            else:
                labels.append((seed, index))
        n = len(labels)
        scores.extend(
            _score_stack(labels, bsq[:n], loads[:n], scen.sigma2, target_ber, max_iter, sir_tol)
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
