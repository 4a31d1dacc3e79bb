"""Seeded search over small-world coupling ensembles.

Samples instances of an (L, W, p, c, tau) ensemble, scores each by the
number of density-evolution iterations until the average BER reaches a
target, and reports the instances in ranked order.  Instance seeds
derive from (master_seed, index) through a fixed mixing function, so
results are reproducible and independent of evaluation order or worker
count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import IO

import numpy as np

from .coupling import (
    BaseMatrix,
    CouplingGraph,
    TrainingAssignment,
    check_band,
    check_quota,
    check_rewiring,
    check_seed,
    sw_rewire,
    to_base_matrix,
)
from .density_evolution import SystemScenario, check_de_budget, format_float, run_de
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
    within the iteration budget.
    """

    instance_seed: int | None
    iterations_to_target: int | None
    final_max_ber: float
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


def score_instance(
    g: CouplingGraph,
    assignment: TrainingAssignment,
    scen: SystemScenario,
    target_ber: float,
    max_iter: int = 1000,
    sir_tol: float = 1e-8,
    index: int | None = None,
) -> InstanceScore:
    """Run density evolution and record iterations to the average-BER target.

    The instance's own training assignment supersedes the one in the
    scenario template.
    """
    _check_target_ber(target_ber)
    traj = run_de(
        to_base_matrix(g),
        replace(scen, training_set=assignment),
        max_iter=max_iter,
        tol=sir_tol,
    )
    reached = np.flatnonzero(traj.avg_ber <= target_ber)
    return InstanceScore(
        instance_seed=None if g.provenance is None else g.provenance.seed,
        iterations_to_target=int(reached[0]) if reached.size else None,
        final_max_ber=float(traj.ber[-1].max()),
        index=index,
    )


def _rank_key(score: InstanceScore) -> tuple[float, float, int]:
    iters = (
        math.inf
        if score.iterations_to_target is None
        else float(score.iterations_to_target)
    )
    return (iters, score.final_max_ber, score.instance_seed or 0)


def _score_index(
    spec, scen, target_ber, max_iter, sir_tol, index
) -> tuple[InstanceScore | None, str | None]:
    try:
        g, assignment = sample_instance(spec, index)
        score = score_instance(
            g, assignment, scen, target_ber, max_iter, sir_tol, index=index
        )
        return score, None
    except Exception as exc:  # recorded per instance, search continues
        return None, f"{type(exc).__name__}: {exc}"


def ensemble_search(
    spec: EnsembleSpec,
    scen: SystemScenario,
    target_ber: float = DEFAULT_SUCCESS_BER,
    max_iter: int = 1000,
    with_thresholds: bool = False,
    workers: int = 1,
    sir_tol: float = 1e-8,
    alpha_lo: float = 1.0,
    alpha_hi: float = 2.5,
    alpha_tol: float = 1e-4,
    success_ber: float = DEFAULT_SUCCESS_BER,
    threshold_max_iter: int = 10000,
) -> SearchReport:
    """Score every instance of the ensemble and rank them.

    Ranking is ascending by iterations to target (unreached last), then
    final maximum BER, then instance seed.  With ``with_thresholds`` the
    top 10 instances also get a BP-threshold bisection over
    (alpha_lo, alpha_hi).  Instance evaluation may be spread over up to
    ``workers`` processes, no more than the samples or the CPUs this
    process may use; the report does not depend on the worker count
    because every instance derives from its own index.
    """
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    # Checked here as well as per instance, so bad arguments fail before
    # any sampling starts.
    _check_target_ber(target_ber)
    check_de_budget(max_iter, sir_tol)
    if with_thresholds:
        # Every finalist's query is this one with its own graph and training
        # set; the uncoupled matrix stands in until then.
        shared_query = ThresholdQuery(
            B=BaseMatrix(L=1, bsq=[[1.0]]),
            sigma2=scen.sigma2,
            alpha_tr=scen.alpha_tr,
            training_set=scen.training_set,
            alpha_lo=alpha_lo,
            alpha_hi=alpha_hi,
            alpha_tol=alpha_tol,
            success_ber=success_ber,
            max_iter=threshold_max_iter,
            sir_tol=sir_tol,
        )
    score_at = partial(_score_index, spec, scen, target_ber, max_iter, sir_tol)
    indices = range(spec.n_samples)
    # The pool starts all its processes at once, so no more than there are
    # samples or CPUs this process may run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, spec.n_samples, cpus or 1)
    # Both maps return the outcomes in index order.
    if workers == 1:
        outcomes = list(map(score_at, indices))
    else:
        # Imported here: it loads multiprocessing, which every CLI call would pay for.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(score_at, indices, chunksize=8))

    scores = [score for score, _ in outcomes if score is not None]
    failures = [(index, err) for index, (_, err) in enumerate(outcomes) if err is not None]
    if not scores:
        raise RuntimeError(f"all {spec.n_samples} instances failed: {failures[:3]}")
    scores.sort(key=_rank_key)

    if with_thresholds:
        finalists = []
        for score in scores[:_THRESHOLD_FINALISTS]:
            g, assignment = sample_instance(spec, score.index)
            query = replace(shared_query, B=to_base_matrix(g), training_set=assignment)
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
