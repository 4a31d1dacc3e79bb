"""Seeded search over small-world coupling ensembles.

Samples instances of an (L, W, p, c, tau) ensemble, scores each by the
number of density-evolution iterations until the average BER reaches a
target, and reports the instances in ranked order.  Instance seeds
derive from (master_seed, index) through a fixed mixing function, so
results are reproducible and independent of evaluation order.
The instances are scored in one running stack of states that steps
through density evolution in lockstep: each row's score is built as it
retires, and the next instance is sampled into its slot.  Where the
process may run on more than one CPU, the instances are split into
interleaved shares, each scored on its own stack in a forked child.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import warnings
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from typing import IO, Iterator, NoReturn

import numpy as np
from numpy.typing import NDArray

from . import _EXPORTS
from .coupling import (
    CouplingGraph,
    TrainingAssignment,
    check_int,
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

__all__ = list(_EXPORTS["search"])

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
    master_seed = check_seed(master_seed)
    index = check_int("index", index, 0)
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
        # bad spec fails before any sampling starts.  The counts are stored
        # as the ints they check to.
        L, W, c = check_rewiring(self.L, self.W, self.p, self.c)
        counts = {
            "L": L,
            "W": W,
            "c": c,
            "tau": check_int("training quota tau", self.tau, 1, L),
            "master_seed": check_seed(self.master_seed),
            "n_samples": check_int("sample count", self.n_samples, 1, _MAX_SAMPLES),
        }
        for name, value in counts.items():
            object.__setattr__(self, name, value)


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
    index = check_int("index", index, 0, spec.n_samples - 1)
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
    max_iter = check_de_budget(max_iter, sir_tol)
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


def _share_count(n_samples: int, slots: int) -> int:
    """Shares search splits its instances into: one per CPU the process may use.

    At most n_samples // slots, so that every share holds at least
    ``slots`` instances and its stack starts full.  One share where the
    process cannot fork or read its CPU affinity, or where another Python
    thread runs: a child would inherit whatever locks that thread holds,
    with no thread to release them.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), n_samples // slots)


def _report_share(write_fd: int, score_share, share: int) -> NoReturn:
    """In a forked child: send ``score_share(share)``, or what it raised, down the pipe; exit."""
    try:
        with open(write_fd, "wb") as pipe:
            try:
                result = score_share(share)
            except Exception as exc:  # the parent raises RuntimeError with this text
                result = f"{type(exc).__name__}: {exc}"
            pickle.dump(result, pipe)
    finally:
        os._exit(0)  # the frames below belong to the caller, which runs in the parent


def _in_shares(score_share, shares: int) -> tuple[list, list]:
    """The (scores, failures) of every share, concatenated in share order.

    Share 0 is scored in this process, each other share in a child forked
    from it, which sends its result back as one pickle over a pipe and
    leaves by ``os._exit``.  A child whose share raises, or that ends
    without reporting, raises RuntimeError here.  However this call ends, every
    child is killed and reaped before it returns.
    """
    from signal import SIGKILL  # here, so that importing the package does not load signal

    children = []  # (share, pid, read end of its pipe)
    try:
        for share in range(1, shares):
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12 and later warn on a fork in a process with
                # more than one thread, and numpy's OpenBLAS runs worker
                # threads.  OpenBLAS stops them in its own pthread_atfork
                # handler, and the child runs only numpy and this package.
                # _share_count has ruled out other Python threads.
                warnings.filterwarnings(
                    "ignore", r"This process .*is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
            if pid == 0:
                _report_share(write_fd, score_share, share)
            os.close(write_fd)
            children.append((share, pid, open(read_fd, "rb")))
        scores, failures = score_share(0)
        for share, pid, pipe in children:
            with pipe:
                report = pipe.read()
            try:
                result = pickle.loads(report)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(
                    f"search share {share} (pid {pid}) ended without reporting"
                ) from None
            if isinstance(result, str):
                raise RuntimeError(f"search share {share} (pid {pid}) raised {result}")
            scores += result[0]
            failures += result[1]
        return scores, failures
    finally:
        for _, pid, pipe in children:  # a child that has reported is leaving anyway
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


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

    The instances are split into k interleaved shares, share r holding
    the indices equal to r modulo k, with k the number of CPUs the process
    may use, but at most n_samples // slots (below), and 1 where the
    process cannot fork or another Python thread runs.  Share 0 is scored
    in this process, each other share in a child forked from it after the
    argument checks; the children send back their scores and failures.
    The finalists are bisected in this process.

    Each share is scored on one running stack: a buffer, allocated once,
    of at most 1 MiB of base matrices (32 slots at L = 64, or one slot
    where a matrix is larger).  A share's instances are sampled in
    ascending index order, each as a slot of its stack comes free, and
    step through density evolution in lockstep with the rows beside them.
    An instance that cannot be sampled is recorded in ``failures`` as
    (index, "Type: message"), and the next one takes its place.  The
    report does not depend on the shares or on which instances share a
    stack: every instance derives from its own index and scores alone,
    the ranking is a total order (instance seeds are distinct), and
    sampling failures are listed by index.
    """
    # Checked before any sampling starts, so bad arguments fail up front.
    if thresholds is not None:
        check_plan(thresholds, scen.sigma2, scen.alpha_tr, sir_tol)
    check_target_ber(target_ber)
    max_iter = check_de_budget(max_iter, sir_tol)
    slots = min(_block_rows(spec.L), spec.n_samples)
    shares = _share_count(spec.n_samples, slots)

    def score_share(share):
        failures = []

        def instances():
            for index in range(share, spec.n_samples, shares):
                try:
                    row = _instance_row(*sample_instance(spec, index), scen, index)
                except Exception as exc:  # recorded per instance, search continues
                    failures.append((index, f"{type(exc).__name__}: {exc}"))
                else:
                    yield row

        scores = _score_stack(
            instances(), slots, spec.L, scen.sigma2, target_ber, max_iter, sir_tol
        )
        return scores, failures

    scores, failures = _in_shares(score_share, shares)
    failures.sort()
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
        [score.index for score in scores],
        [score.instance_seed for score in scores],
        [score.iterations_to_target for score in scores],
        np.array([score.final_max_ber for score in scores], dtype=np.float64),
    ]
    header = "index,instance_seed,iterations_to_target,final_max_ber"
    if report.with_thresholds:
        header += ",alpha_bp"
        columns.append([None if s.threshold is None else s.threshold.alpha_bp for s in scores])
    _write_table(stream, header, columns)
