"""BP-threshold estimation by bisection over the propagation load.

From the all-zero start the monotone density-evolution recursion
converges to its smallest fixed point.  Below the threshold that point
is the low-BER (near single-user) one; above it a high-interference
fixed point appears underneath and captures the recursion.  A run
"succeeds" when it converges with every position's final BER at or
below ``success_ber``, and the threshold is bracketed by bisection on
that flag.  A run that is bound to fail stops early: once a
super-solution proves that some position's SIR stays at or below the
floor of ``success_ber``, its failure is certified and it is logged
unconverged at that step.  For the uncoupled (L=1) system the scalar
fixed-point structure can also be enumerated directly as an independent
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from . import _EXPORTS
from .coupling import BaseMatrix, TrainingAssignment, average_load, check_positive
from .density_evolution import (
    _NO_TRAINING,
    SystemScenario,
    _sir_floor,
    _Stack,
    _write_table,
    ber_of,
    check_de_budget,
    check_target_ber,
    mmse_bpsk,
    run_de,  # noqa: F401  (not called here; perfbench's tracer rebinds sccdma.threshold.run_de)
)

__all__ = list(_EXPORTS["threshold"])

# The low-BER fixed point does not reach the single-user bound: residual
# multiuser interference leaves its BER slightly above 1e-3 at practical
# SNR (about 1.04e-3 at 10 dB near the uncoupled transition, 1.1e-3 for
# the coupled chains studied here), while the high-interference fixed
# point sits near 1e-1.  The success level must separate the two
# plateaus; 2e-3 keeps roughly a 2x margin below and a 40x margin above.
DEFAULT_SUCCESS_BER = 2e-3

# Levels of the bisection tree below the current probe that run alongside
# it: depth 2 stacks at most 7 midpoints, and 9 DE states with the bracket ends.
_SPECULATION_DEPTH = 2

# Cells of the uniform grid on which scalar_fixed_points looks for sign changes.
_FIXED_POINT_GRID = 4096


class BracketError(ValueError):
    """A bisection bracket is inverted or does not straddle the threshold."""


@dataclass(frozen=True)
class DeEvaluation:
    """Outcome of one density-evolution run at a given propagation load.

    ``max_ber`` and ``iterations`` are those of the run's last state: at
    convergence, at its budget, or at the step at which its failure was
    certified (unconverged, below the budget).
    """

    alpha: float
    converged: bool
    max_ber: float
    iterations: int
    success: bool


@dataclass(frozen=True)
class BisectionPlan:
    """A bisection without its system: bracket, stopping width, success level, budget.

    Its ends are positive, finite and in order (else :class:`BracketError`),
    and a width below two float spacings at ``alpha_hi``, where a midpoint
    can equal an end, is refused.
    """

    alpha_lo: float
    alpha_hi: float
    alpha_tol: float = 1e-4
    success_ber: float = DEFAULT_SUCCESS_BER
    max_iter: int = 10000

    def __post_init__(self) -> None:
        for name in ("alpha_lo", "alpha_hi", "alpha_tol"):
            check_positive(name, getattr(self, name))
        if self.alpha_lo >= self.alpha_hi:
            raise BracketError(
                f"inverted bracket: alpha_lo={self.alpha_lo} must be below alpha_hi={self.alpha_hi}"
            )
        if self.alpha_tol < 2.0 * math.ulp(self.alpha_hi):
            raise ValueError(f"alpha_tol={self.alpha_tol} is below the float spacing at alpha_hi")
        check_target_ber(self.success_ber)


def check_plan(plan: BisectionPlan, sigma2: float, alpha_tr: float, sir_tol: float) -> int:
    """The plan's budget as an int; rejects a plan that a query's system cannot bisect.

    The system is (sigma2, alpha_tr, sir_tol).  In order: the scenario at
    ``alpha_hi``, whose noise bound covers every probe's load; a success
    level the single-user BER misses; the DE budget.
    """
    SystemScenario(sigma2, alpha_tr, plan.alpha_hi)
    single_user = ber_of(1.0 / sigma2)
    if single_user >= plan.success_ber:
        raise ValueError(
            f"success level {plan.success_ber} is unreachable: the single-user "
            f"bound at this noise level is {single_user:.6g}"
        )
    return check_de_budget(plan.max_iter, sir_tol)


@dataclass(frozen=True, kw_only=True)
class ThresholdQuery(BisectionPlan):
    """A bisection problem: a :class:`BisectionPlan` plus its system, by keyword.

    The system: base matrix, scenario minus the load (no training set by default), DE tolerance.
    """

    B: BaseMatrix
    sigma2: float
    alpha_tr: float
    training_set: TrainingAssignment = _NO_TRAINING
    sir_tol: float = 1e-8

    def __post_init__(self) -> None:
        super().__post_init__()
        max_iter = check_plan(self, self.sigma2, self.alpha_tr, self.sir_tol)
        object.__setattr__(self, "max_iter", max_iter)

    def scenario(self, alpha: float) -> SystemScenario:
        return SystemScenario(self.sigma2, self.alpha_tr, alpha, self.training_set)


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection outcome: final bracket and evaluation log, and what they give.

    The conservative estimate ``alpha_bp`` is the bracket's low end, the
    last load at which the run still succeeded, and ``de_evaluations`` is
    the log's length; both are derived once, when the record is built.
    """

    bracket: tuple[float, float]
    avg_load_at_threshold: float
    success_ber: float
    alpha_tol: float
    log: tuple[DeEvaluation, ...]
    alpha_bp: float = field(init=False)
    de_evaluations: int = field(init=False)

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if hi - lo > self.alpha_tol * (1.0 + 1e-12):
            raise ValueError(f"bracket {self.bracket} wider than tolerance {self.alpha_tol}")
        object.__setattr__(self, "alpha_bp", lo)
        object.__setattr__(self, "de_evaluations", len(self.log))


def _subtree(lo: float, hi: float, tol: float, depth: int) -> list[tuple[float, float]]:
    """Brackets that bisection from (lo, hi) may probe within ``depth`` more levels."""
    if hi - lo <= tol:
        return []
    if depth == 0:
        return [(lo, hi)]
    mid = 0.5 * (lo + hi)
    return [(lo, hi), *_subtree(lo, mid, tol, depth - 1), *_subtree(mid, hi, tol, depth - 1)]


def _end_outcome(ev: DeEvaluation, max_iter: int) -> str:
    """A bracket end's success flag, how its run stopped and its largest BER."""
    if ev.converged or ev.iterations == max_iter:
        stop = f"converged={ev.converged}"
    else:
        stop = f"failure certified at step {ev.iterations}"
    return f"success={ev.success} ({stop}, max_ber={ev.max_ber:.6g})"


def bp_threshold(query: ThresholdQuery) -> ThresholdResult:
    """Bisect the bracket on the density-evolution success flag, down to ``alpha_tol``.

    Requires success at ``alpha_lo`` and failure at ``alpha_hi``.  Inverted
    ends, failure below success, raise :class:`RuntimeError`; other ends
    that do not straddle the threshold raise :class:`BracketError`.  The
    path probes ``alpha_lo``, then ``alpha_hi``, then the midpoint of the
    current bracket.  The current probe runs in one lockstep stack with
    the ends still unlogged and every midpoint of the next
    ``_SPECULATION_DEPTH`` levels below it (at most 9 rows).  ``probes``
    maps each of those loads to its evaluation, or to None while it runs;
    a load that the path rules out leaves the table and the stack, and
    the next level joins both.  :class:`BisectionPlan` keeps the bracket
    wider than two float spacings, so each midpoint lies strictly inside
    it and every load is a distinct key.

    A probe also stops once a super-solution certifies its failure: some
    position's SIR stays at or below the floor of ``success_ber`` (see
    ``density_evolution._CERTIFY_MARGIN``).  It is logged with
    ``converged`` false, ``iterations`` its step at the certificate,
    below ``max_iter``, and ``max_ber`` that of its last state.  A row's
    update and certificate do not depend on the rows beside it, so the
    log, and the path it takes, are those of probing one load after
    another through the same loop.  A certified failure is a failure of
    the run to convergence or budget, so the bracket and every success
    flag are those of one :func:`run_de` per probe.
    """
    L, tol = query.B.L, query.alpha_tol
    floor = _sir_floor(query.success_ber)
    ends = (query.alpha_lo, query.alpha_hi)
    lo, hi = ends
    log: list[DeEvaluation] = []
    probes: dict[float, DeEvaluation | None] = {}
    stack = _Stack(L, 2 ** (_SPECULATION_DEPTH + 1) + 1, query.B.bsq)
    while len(log) < 2 or hi - lo > tol:
        probe = probes.get(ends[len(log)] if len(log) < 2 else 0.5 * (lo + hi))
        if probe is not None:
            log.append(probe)
            # On bracket ends that straddle the threshold this changes nothing.
            if probe.success:
                lo = probe.alpha
            else:
                hi = probe.alpha
            if len(log) == 2 and (not log[0].success or log[1].success):
                lo_ev, hi_ev = log
                # Only the ends can invert: every later probe lies strictly
                # between the highest success and the lowest failure logged.
                if hi_ev.success and not lo_ev.success:
                    raise RuntimeError(
                        "density-evolution success is not monotone over the bracket: "
                        f"failure at alpha={lo_ev.alpha:.9g} below success at "
                        f"alpha={hi_ev.alpha:.9g}; refusing to bisect"
                    )
                raise BracketError(
                    "bracket does not straddle the threshold: "
                    f"alpha_lo={lo_ev.alpha} {_end_outcome(lo_ev, query.max_iter)}, "
                    f"alpha_hi={hi_ev.alpha} {_end_outcome(hi_ev, query.max_iter)}"
                )
            continue

        midpoints = (0.5 * (a + b) for a, b in _subtree(lo, hi, tol, _SPECULATION_DEPTH))
        wanted = {alpha: probes.get(alpha) for alpha in (*ends[len(log) :], *midpoints)}
        stack.drop(probes.keys() - wanted.keys())
        for alpha in wanted.keys() - probes.keys():
            stack.join(alpha, query.scenario(alpha).row_loads(L))
        probes = wanted
        alphas, sir, steps, converged, _ = stack.run(
            query.sigma2, query.max_iter, query.sir_tol, floor=floor
        )
        for alpha, max_ber, n, ok in zip(alphas, ber_of(sir).max(axis=1).tolist(), steps, converged):
            probes[alpha] = DeEvaluation(alpha, ok, max_ber, n, ok and max_ber <= query.success_ber)
    return ThresholdResult(
        bracket=(lo, hi),
        avg_load_at_threshold=average_load(query.alpha_tr, lo, query.training_set.tau, L),
        success_ber=query.success_ber,
        alpha_tol=query.alpha_tol,
        log=tuple(log),
    )


def scalar_fixed_points(alpha: float, sigma2: float) -> list[float]:
    """All fixed points of the uncoupled recursion x = 1 / (sigma2 + alpha * mmse(x)).

    Scans f(x) = x * (sigma2 + alpha * mmse(x)) - 1 for sign changes on
    a uniform grid over (0, 1/sigma2] and refines each bracketed root by
    bisection to 1e-10.  Returns the roots in ascending order; there is
    always at least one because f(0) = -1 and f(1/sigma2) > 0.
    """
    check_positive("alpha", alpha)
    check_positive("sigma2", sigma2)

    def f(x):
        return x * (sigma2 + alpha * mmse_bpsk(x)) - 1.0

    xs = np.linspace(0.0, 1.0 / sigma2, _FIXED_POINT_GRID + 1)
    fs = f(xs)
    roots: list[float] = []
    for i in range(_FIXED_POINT_GRID):
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
    row = (
        result.alpha_bp, *result.bracket, result.avg_load_at_threshold,
        result.de_evaluations, result.success_ber, result.alpha_tol,
    )
    header = "alpha_bp,bracket_lo,bracket_hi,avg_load,evaluations,success_ber,alpha_tol"
    _write_table(stream, header, [[value] for value in row])


def write_evaluation_log_csv(result: ThresholdResult, stream: IO[str]) -> None:
    """Evaluation log in bisection order: alpha,converged (true or false),max_ber,iterations.

    A certified failure reads converged false with iterations below the
    budget; see :class:`DeEvaluation`.
    """
    columns = (
        np.array([ev.alpha for ev in result.log], dtype=np.float64),
        [ev.converged for ev in result.log],
        np.array([ev.max_ber for ev in result.log], dtype=np.float64),
        np.array([ev.iterations for ev in result.log], dtype=np.int64),
    )
    _write_table(stream, "alpha,converged,max_ber,iterations", columns)
