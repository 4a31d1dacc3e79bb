"""Seeded search over small-world coupling ensembles.

Samples instances of an (L, W, p, c, tau) ensemble, scores each by the
number of density-evolution iterations until the average BER reaches a
target, and reports the instances in ranked order.  Instance seeds
derive from (master_seed, index) through a fixed mixing function, so
results are reproducible and independent of evaluation order or worker
count.  Instances are scored in blocks, each one stack of states that
steps through density evolution in lockstep.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
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
    _Q_LIMIT,
    SystemScenario,
    _lockstep,
    ber_of,
    check_de_budget,
    format_float,
    run_de,  # noqa: F401  (not called here; perfbench's tracer rebinds sccdma.search.run_de)
)
from .threshold import (
    DEFAULT_SUCCESS_BER,
    BracketError,
    ThresholdQuery,
    ThresholdResult,
    bp_threshold,
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
# Bytes of stacked bsq per scoring block, 32 instances at L = 64: one stack
# of every instance would hold all their L x L matrices at once.
_BLOCK_BYTES = 1 << 20
# The SIR floor's BER exceeds the target by this relative margin, far above
# the ~1e-13 relative error of ber_of and of a row's mean SIR.
_FLOOR_MARGIN = 1e-9
# qfunc reads 0 once x / sqrt(2) reaches _Q_LIMIT, where Q(x) is at most
# erfc(_Q_LIMIT) / 2 = 1.1e-307: the most it drops from any one BER.
_Q_CUTOFF_TAIL = math.erfc(_Q_LIMIT) / 2
# Above 2 _Q_LIMIT^2 = 1404.5, so its BER reads 0 and no floor reaches it.
_SIR_BER_ZERO = 2048.0


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


def _check_target_ber(target_ber: float) -> None:
    if not 0.0 < target_ber <= 0.5:
        raise ValueError(f"target BER must lie in (0, 0.5], got {target_ber}")


def _instance_row(
    g: CouplingGraph, assignment: TrainingAssignment, scen: SystemScenario
) -> tuple[NDArray[np.float64], NDArray[np.float64], int | None]:
    """(bsq, loads, seed) of one instance; its training assignment supersedes the scenario's."""
    return (
        to_base_matrix(g).bsq,
        replace(scen, training_set=assignment).row_loads(g.L),
        None if g.provenance is None else g.provenance.seed,
    )


# Every block and score_instance call of a search asks for the same floor.
@lru_cache(maxsize=8)
def _sir_floor(target_ber: float) -> float:
    """A SIR such that a state of lower mean SIR has average BER above ``target_ber``.

    x -> Q(sqrt(x)) is convex and decreasing, so by Jensen's inequality a
    state's average BER is at least ber_of of its mean SIR.  Bisection on
    ber_of keeps ber_of(floor) >= (target_ber + tail) * (1 + _FLOOR_MARGIN),
    where tail is the most qfunc's cut-off drops from one BER; the margin
    covers rounding in ber_of and in the mean.  Returns 0, which rules
    nothing out, when even ber_of(0) = 1/2 falls short, as for target 1/2.
    """
    goal = (target_ber + _Q_CUTOFF_TAIL) * (1.0 + _FLOOR_MARGIN)
    lo, hi = 0.0, _SIR_BER_ZERO
    if ber_of(lo) < goal:
        return lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if ber_of(mid) >= goal:
            lo = mid
        else:
            hi = mid
    return lo


def _score_stack(
    bsq: NDArray[np.float64],
    loads: NDArray[np.float64],
    sigma2: float,
    target_ber: float,
    max_iter: int,
    tol: float,
) -> list[tuple[int | None, float, int]]:
    """Run DE from zero on a stack of instances in lockstep, one per row.

    Row i of ``bsq`` (n, L, L) and ``loads`` (n, L) is one instance.  Each
    row keeps only what search reads of its run, and returns it in
    :class:`InstanceScore`'s field order: the first step at which its
    average BER is at or below ``target_ber`` (step 0 included; None if
    never), the maximum BER of its last state and its step count.
    Rows retire as they stop, and the survivors are compacted in place,
    so ``bsq`` is overwritten.  A row's result equals its run alone.

    Only rows whose mean SIR is at or above ``_sir_floor(target_ber)`` get
    the exact average-BER test.  The others are provably above the target:
    Q(sqrt(x)) is convex, so by Jensen their average BER is at least the
    floor's BER, which exceeds the target by a relative margin of 1e-9
    plus what qfunc's cut-off may drop.  So the results are those of the
    exact test on every row.
    """
    first = np.full(len(loads), -1)
    final_max_ber = np.empty(len(loads))
    iterations = np.empty(len(loads), dtype=np.intp)
    rows = np.arange(len(loads))  # stack row -> block row
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
        final_max_ber[rows[done]] = ber_of(sir[done]).max(axis=1)
        iterations[rows[done]] = step
        keep = np.flatnonzero(~done)
        # keep ascends, so each row moves down onto one that has retired or moved.
        for dst, src in enumerate(keep):
            if dst != src:
                bsq[dst] = bsq[src]
        sir, loads, rows = sir[keep], loads[keep], rows[keep]
    return [
        (None if reached < 0 else int(reached), float(max_ber), int(steps))
        for reached, max_ber, steps in zip(first, final_max_ber, iterations)
    ]


def score_instance(
    g: CouplingGraph,
    assignment: TrainingAssignment,
    scen: SystemScenario,
    target_ber: float,
    max_iter: int = 1000,
    sir_tol: float = 1e-8,
) -> InstanceScore:
    """Run density evolution and record iterations to the average-BER target.

    The instance's own training assignment supersedes the one in the
    scenario template.  The result equals the instance's score in any
    :func:`ensemble_search` block.
    """
    _check_target_ber(target_ber)
    check_de_budget(max_iter, sir_tol)
    bsq, loads, seed = _instance_row(g, assignment, scen)
    [outcome] = _score_stack(
        bsq[None].copy(), loads[None], scen.sigma2, target_ber, max_iter, sir_tol
    )
    return InstanceScore(seed, *outcome)


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


def _score_block(
    spec, scen, target_ber, max_iter, sir_tol, block: range
) -> tuple[list[InstanceScore], list[tuple[int, str]]]:
    """Sample instances ``block`` and score them as one stack; returns (scores, failures).

    An instance that cannot be sampled is recorded as (index, "Type:
    message") and left out of the stack; the others are still scored.
    Only the stack outlives sampling, not the graphs.
    """
    bsq = np.empty((len(block), spec.L, spec.L))
    loads = np.empty((len(block), spec.L))
    sampled, failures = [], []
    for index in block:
        row = len(sampled)
        try:
            bsq[row], loads[row], seed = _instance_row(*sample_instance(spec, index), scen)
        except Exception as exc:  # recorded per instance, search continues
            failures.append((index, f"{type(exc).__name__}: {exc}"))
        else:
            sampled.append((seed, index))
    n = len(sampled)
    outcomes = _score_stack(bsq[:n], loads[:n], scen.sigma2, target_ber, max_iter, sir_tol)
    scores = [
        InstanceScore(seed, *outcome, index=index)
        for (seed, index), outcome in zip(sampled, outcomes)
    ]
    return scores, failures


def ensemble_search(
    spec: EnsembleSpec,
    scen: SystemScenario,
    target_ber: float = DEFAULT_SUCCESS_BER,
    max_iter: int = 1000,
    workers: int = 1,
    sir_tol: float = 1e-8,
    thresholds: ThresholdQuery | None = None,
) -> SearchReport:
    """Score every instance of the ensemble and rank them.

    Ranking is ascending by iterations to target (unreached last), then
    final maximum BER, then instance seed.  Given ``thresholds``, each of
    the top 10 instances is also bisected for its BP threshold with that
    query, its own base matrix and training set replacing the query's;
    the query's sigma2, alpha_tr and sir_tol must be those of ``scen``
    and ``sir_tol``.
    Instances are scored in blocks of consecutive indices, each one
    lockstep stack of at most 1 MiB of base matrices (32 instances at
    L = 64), or of one instance where that is larger.  The blocks may be
    spread over up to ``workers`` processes, no more than the samples or
    the CPUs this process may use, with at most ceil(n_samples / workers)
    instances each.  The report does not depend on the worker count or
    the blocks, because every instance derives from its own index and
    scores alone.
    """
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    # Checked before any sampling starts, so bad arguments fail up front.
    _check_target_ber(target_ber)
    check_de_budget(max_iter, sir_tol)
    if thresholds is not None:
        # The finalists are bisected in the system they were scored in.
        bisected_at = (thresholds.sigma2, thresholds.alpha_tr, thresholds.sir_tol)
        if bisected_at != (scen.sigma2, scen.alpha_tr, sir_tol):
            raise ValueError(
                "thresholds must take sigma2, alpha_tr and sir_tol from the search: got "
                f"{bisected_at}, expected {(scen.sigma2, scen.alpha_tr, sir_tol)}"
            )
    # The pool starts all its processes at once, so no more than there are
    # samples or CPUs this process may run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, spec.n_samples, cpus or 1)
    # Each block is one pool task, and blocks of at most ceil(n_samples /
    # workers) instances leave no worker without one.
    rows = min(_block_rows(spec.L), -(-spec.n_samples // workers))
    blocks = [
        range(start, min(start + rows, spec.n_samples)) for start in range(0, spec.n_samples, rows)
    ]
    score_block = partial(_score_block, spec, scen, target_ber, max_iter, sir_tol)
    # Both maps return the blocks in index order.
    if workers == 1:
        outcomes = list(map(score_block, blocks))
    else:
        # Imported here: it loads multiprocessing, which every CLI call would pay for.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(score_block, blocks))

    scores = [score for block_scores, _ in outcomes for score in block_scores]
    failures = [failure for _, block_failures in outcomes for failure in block_failures]
    if not scores:
        raise RuntimeError(f"all {spec.n_samples} instances failed: {failures[:3]}")
    scores.sort(key=_rank_key)

    if thresholds is not None:
        finalists = []
        for score in scores[:_THRESHOLD_FINALISTS]:
            g, assignment = sample_instance(spec, score.index)
            query = replace(thresholds, B=to_base_matrix(g), training_set=assignment)
            try:
                finalists.append(replace(score, threshold=bp_threshold(query)))
            except BracketError as exc:
                failures.append((score.index, f"BracketError: {exc}"))
                finalists.append(score)
        scores = finalists + scores[_THRESHOLD_FINALISTS:]

    best_graph, best_assignment = sample_instance(spec, scores[0].index)
    return SearchReport(
        spec=spec,
        scenario=scen,
        scores=tuple(scores),
        best_graph=best_graph,
        best_assignment=best_assignment,
        failures=tuple(failures),
    )


def write_search_csv(report: SearchReport, stream: IO[str]) -> None:
    """Ranked table: index,instance_seed,iterations_to_target,final_max_ber[,alpha_bp].

    The alpha_bp column appears only when thresholds were computed;
    unreached targets and missing thresholds leave their fields empty.
    """
    with_thresholds = any(score.threshold is not None for score in report.scores)
    header = "index,instance_seed,iterations_to_target,final_max_ber"
    if with_thresholds:
        header += ",alpha_bp"
    stream.write(header + "\n")
    for score in report.scores:
        iters = "" if score.iterations_to_target is None else str(score.iterations_to_target)
        row = f"{score.index},{score.instance_seed},{iters},{format_float(score.final_max_ber)}"
        if with_thresholds:
            threshold = score.threshold
            row += "," if threshold is None else f",{format_float(threshold.alpha_bp)}"
        stream.write(row + "\n")
