"""BP-threshold estimation by bisection over the propagation load.

From the all-zero start the monotone density-evolution recursion
converges to its smallest fixed point.  Below the threshold that point
is the low-BER (near single-user) one; above it a high-interference
fixed point appears underneath and captures the recursion.  A run
"succeeds" when it converges with every position's final BER at or
below ``success_ber``, and the threshold is bracketed by bisection on
that flag.  For the uncoupled (L=1) system the scalar fixed-point
structure can also be enumerated directly as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .coupling import BaseMatrix, TrainingAssignment, average_load, check_positive
from .density_evolution import (
    SystemScenario,
    _lockstep,
    check_de_budget,
    format_float,
    mmse_bpsk,
    qfunc,
    run_de,
)

__all__ = [
    "ALPHA_MAP_10DB",
    "DEFAULT_SUCCESS_BER",
    "BracketError",
    "DeEvaluation",
    "ThresholdQuery",
    "ThresholdResult",
    "de_success",
    "bp_threshold",
    "scalar_fixed_points",
    "write_threshold_csv",
    "write_evaluation_log_csv",
]

# The low-BER fixed point does not reach the single-user bound: residual
# multiuser interference leaves its BER slightly above 1e-3 at practical
# SNR (about 1.04e-3 at 10 dB near the uncoupled transition, 1.1e-3 for
# the coupled chains studied here), while the high-interference fixed
# point sits near 1e-1.  The success level must separate the two
# plateaus; 2e-3 keeps roughly a 2x margin below and a 40x margin above.
DEFAULT_SUCCESS_BER = 2e-3

# Optimal-detection load limit at 10 dB: the long-chain limit of coupled BP
# thresholds, which nothing here computes.  A short trained circular chain can
# exceed it (regular (64, 2): 1.989044): its training seeds a wave with a short gap to cross.
ALPHA_MAP_10DB = 1.98267

# Levels of the bisection tree below the current probe that run alongside
# it: depth 2 stacks at most 7 DE states.
_SPECULATION_DEPTH = 2


class BracketError(ValueError):
    """A bisection bracket is inverted or does not straddle the threshold."""


@dataclass(frozen=True)
class DeEvaluation:
    """Outcome of one density-evolution run at a given propagation load."""

    alpha: float
    converged: bool
    max_ber: float
    iterations: int
    success: bool


@dataclass(frozen=True)
class ThresholdQuery:
    """A bisection problem: base matrix, scenario minus the load, and a bracket."""

    B: BaseMatrix
    sigma2: float
    alpha_tr: float
    training_set: TrainingAssignment
    alpha_lo: float
    alpha_hi: float
    alpha_tol: float = 1e-4
    success_ber: float = DEFAULT_SUCCESS_BER
    max_iter: int = 10000
    sir_tol: float = 1e-8

    def __post_init__(self) -> None:
        check_positive("alpha_lo", self.alpha_lo)
        check_positive("alpha_hi", self.alpha_hi)
        check_positive("alpha_tol", self.alpha_tol)
        self.scenario(self.alpha_lo)  # checks sigma2 and alpha_tr
        if self.alpha_lo >= self.alpha_hi:
            raise BracketError(
                f"inverted bracket: alpha_lo={self.alpha_lo} must be below alpha_hi={self.alpha_hi}"
            )
        # Below two float spacings a midpoint can equal a bracket end and bisection never ends.
        if self.alpha_tol < 2.0 * math.ulp(self.alpha_hi):
            raise ValueError(f"alpha_tol={self.alpha_tol} is below the float spacing at alpha_hi")
        if not 0.0 < self.success_ber < 1.0:
            raise ValueError(f"success level must be a probability, got {self.success_ber}")
        single_user = qfunc(math.sqrt(1.0 / self.sigma2))
        if single_user >= self.success_ber:
            raise ValueError(
                f"success level {self.success_ber} is unreachable: the single-user "
                f"bound at this noise level is {single_user:.6g}"
            )
        check_de_budget(self.max_iter, self.sir_tol)

    def scenario(self, alpha: float) -> SystemScenario:
        return SystemScenario(
            sigma2=self.sigma2,
            alpha_tr=self.alpha_tr,
            alpha=alpha,
            training_set=self.training_set,
        )


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection outcome: conservative estimate, final bracket, evaluation log."""

    alpha_bp: float
    bracket: tuple[float, float]
    de_evaluations: int
    avg_load_at_threshold: float
    success_ber: float
    alpha_tol: float
    log: tuple[DeEvaluation, ...]

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not lo <= self.alpha_bp <= hi:
            raise ValueError(f"estimate {self.alpha_bp} outside bracket {self.bracket}")
        if hi - lo > self.alpha_tol * (1.0 + 1e-12):
            raise ValueError(f"bracket {self.bracket} wider than tolerance {self.alpha_tol}")
        if self.de_evaluations != len(self.log):
            raise ValueError("evaluation count does not match the log")


def _evaluation(
    query: ThresholdQuery, alpha: float, converged: bool, max_ber: float, iterations: int
) -> DeEvaluation:
    """The logged outcome of a DE run at ``alpha`` that stopped with this largest BER."""
    return DeEvaluation(
        alpha=alpha,
        converged=bool(converged),
        max_ber=max_ber,
        iterations=int(iterations),
        success=bool(converged) and max_ber <= query.success_ber,
    )


def _evaluate(query: ThresholdQuery, alpha: float) -> DeEvaluation:
    traj = run_de(
        query.B,
        query.scenario(alpha),
        max_iter=query.max_iter,
        tol=query.sir_tol,
    )
    return _evaluation(
        query, alpha, traj.converged, float(traj.ber[-1].max()), traj.iterations_run
    )


def de_success(alpha: float, query: ThresholdQuery) -> bool:
    """Whether density evolution at this load converges with all BERs at or below the success level."""
    return _evaluate(query, alpha).success


def _check_monotone(log: list[DeEvaluation], new: DeEvaluation) -> None:
    # Success must not reappear above a recorded failure; bisection cannot
    # produce that ordering on its own, so a hit means the success flag is
    # not monotone in alpha and the bracket logic would be meaningless.
    for prior in log:
        inverted = (prior.success and not new.success and new.alpha < prior.alpha) or (
            new.success and not prior.success and new.alpha > prior.alpha
        )
        if inverted:
            bad_lo, bad_hi = sorted((prior, new), key=lambda ev: ev.alpha)
            raise RuntimeError(
                "density-evolution success is not monotone over the bracket: "
                f"failure at alpha={bad_lo.alpha:.9g} below success at "
                f"alpha={bad_hi.alpha:.9g}; refusing to bisect"
            )


def _subtree(lo: float, hi: float, tol: float, depth: int) -> list[tuple[float, float]]:
    """Brackets that bisection from (lo, hi) may probe within ``depth`` more levels."""
    if hi - lo <= tol:
        return []
    if depth == 0:
        return [(lo, hi)]
    mid = 0.5 * (lo + hi)
    return [(lo, hi), *_subtree(lo, mid, tol, depth - 1), *_subtree(mid, hi, tol, depth - 1)]


def _bisect(
    query: ThresholdQuery, lo: float, hi: float, log: list[DeEvaluation]
) -> tuple[float, float]:
    """Bisect (lo, hi) down to ``alpha_tol``, appending each probe to ``log``; returns the bracket.

    A probe's DE run does not depend on any other probe, so the current
    probe runs in one lockstep stack with every probe of the next
    ``_SPECULATION_DEPTH`` levels below it.  When the current probe
    decides, the branch it rules out leaves the stack and the next level
    joins.  The stack steps through the same loop, and stop rule, as
    :func:`run_de`, and each row keeps only its last state, so the logged
    evaluations, and the path they take, are those of probing one
    midpoint after another.
    """
    L = query.B.L
    sir = np.zeros((0, L))
    loads = np.zeros((0, L))
    steps = np.zeros(0, dtype=np.int64)
    keys: list[tuple[float, float]] = []  # bracket of each stacked row
    decided: dict[tuple[float, float], DeEvaluation] = {}
    while hi - lo > query.alpha_tol:
        if (lo, hi) in decided:
            ev = decided[(lo, hi)]
            _check_monotone(log, ev)
            log.append(ev)
            if ev.success:
                lo = ev.alpha
            else:
                hi = ev.alpha
            continue

        # Keep the undecided rows of the current probe's subtree, then add
        # the probes of that subtree that have not run yet.
        wanted = _subtree(lo, hi, query.alpha_tol, _SPECULATION_DEPTH)
        decided = {key: ev for key, ev in decided.items() if key in wanted}
        keep = [i for i, key in enumerate(keys) if key in wanted and key not in decided]
        sir, loads, steps = sir[keep], loads[keep], steps[keep]
        keys = [keys[i] for i in keep]
        joining = [key for key in wanted if key not in decided and key not in keys]
        if joining:
            sir = np.vstack([sir, np.zeros((len(joining), L))])
            loads = np.vstack(
                [loads, *(query.scenario(0.5 * (a + b)).row_loads(L) for a, b in joining)]
            )
            steps = np.append(steps, np.zeros(len(joining), dtype=np.int64))
            keys += joining

        sir, steps, converged, done = _lockstep(
            sir, steps, query.B.bsq, query.sigma2, loads, query.max_iter, query.sir_tol
        )
        max_bers = qfunc(np.sqrt(sir[done])).max(axis=1)
        for i, max_ber in zip(np.flatnonzero(done).tolist(), max_bers.tolist()):
            a, b = keys[i]
            decided[keys[i]] = _evaluation(
                query, 0.5 * (a + b), converged[i], max_ber, steps[i]
            )
    return lo, hi


def bp_threshold(query: ThresholdQuery) -> ThresholdResult:
    """Bisect the bracket on the density-evolution success flag.

    Requires success at ``alpha_lo`` and failure at ``alpha_hi``, each
    checked by :func:`run_de`; the midpoints then run speculatively in
    lockstep (see :func:`_bisect`), with the same log as one run after
    another.  The returned estimate is the final bracket's low end, the
    last load at which the run still succeeded.
    """
    log: list[DeEvaluation] = []
    lo_eval = _evaluate(query, query.alpha_lo)
    log.append(lo_eval)
    hi_eval = _evaluate(query, query.alpha_hi)
    _check_monotone(log, hi_eval)
    log.append(hi_eval)
    if not lo_eval.success or hi_eval.success:
        raise BracketError(
            "bracket does not straddle the threshold: "
            f"alpha_lo={query.alpha_lo} success={lo_eval.success} "
            f"(converged={lo_eval.converged}, max_ber={lo_eval.max_ber:.6g}), "
            f"alpha_hi={query.alpha_hi} success={hi_eval.success} "
            f"(converged={hi_eval.converged}, max_ber={hi_eval.max_ber:.6g})"
        )
    lo, hi = _bisect(query, query.alpha_lo, query.alpha_hi, log)
    return ThresholdResult(
        alpha_bp=lo,
        bracket=(lo, hi),
        de_evaluations=len(log),
        avg_load_at_threshold=average_load(
            query.alpha_tr, lo, query.training_set.tau, query.B.L
        ),
        success_ber=query.success_ber,
        alpha_tol=query.alpha_tol,
        log=tuple(log),
    )


def scalar_fixed_points(alpha: float, sigma2: float, grid_size: int = 4096) -> list[float]:
    """All fixed points of the uncoupled recursion x = 1 / (sigma2 + alpha * mmse(x)).

    Scans f(x) = x * (sigma2 + alpha * mmse(x)) - 1 for sign changes on
    a uniform grid over (0, 1/sigma2] and refines each bracketed root by
    bisection to 1e-10.  Returns the roots in ascending order; there is
    always at least one because f(0) = -1 and f(1/sigma2) > 0.
    """
    check_positive("alpha", alpha)
    check_positive("sigma2", sigma2)
    if grid_size < 100:
        raise ValueError(f"grid must have at least 100 cells, got {grid_size}")

    def f(x):
        return x * (sigma2 + alpha * mmse_bpsk(x)) - 1.0

    xs = np.linspace(0.0, 1.0 / sigma2, grid_size + 1)
    fs = f(xs)
    roots: list[float] = []
    for i in range(grid_size):
        a, b = float(xs[i]), float(xs[i + 1])
        fa, fb = float(fs[i]), float(fs[i + 1])
        if fb == 0.0:
            roots.append(b)
            continue
        if fa * fb >= 0.0:
            continue
        while b - a > 1e-10:
            midpoint = 0.5 * (a + b)
            fm = float(f(midpoint))
            if fa * fm <= 0.0:
                b, fb = midpoint, fm
            else:
                a, fa = midpoint, fm
        roots.append(0.5 * (a + b))
    return roots


def write_threshold_csv(result: ThresholdResult, stream: IO[str]) -> None:
    """Single-row report: alpha_bp,bracket_lo,bracket_hi,avg_load,evaluations,success_ber,alpha_tol."""
    stream.write("alpha_bp,bracket_lo,bracket_hi,avg_load,evaluations,success_ber,alpha_tol\n")
    stream.write(
        f"{format_float(result.alpha_bp)},{format_float(result.bracket[0])},"
        f"{format_float(result.bracket[1])},{format_float(result.avg_load_at_threshold)},"
        f"{result.de_evaluations},{format_float(result.success_ber)},"
        f"{format_float(result.alpha_tol)}\n"
    )


def write_evaluation_log_csv(result: ThresholdResult, stream: IO[str]) -> None:
    """Evaluation log in bisection order: alpha,converged,max_ber,iterations."""
    stream.write("alpha,converged,max_ber,iterations\n")
    for ev in result.log:
        flag = "true" if ev.converged else "false"
        stream.write(f"{format_float(ev.alpha)},{flag},{format_float(ev.max_ber)},{ev.iterations}\n")
