"""Coupled density evolution for spatially coupled CDMA systems.

The recursion tracks, per symbol period l, an effective noise level
sigma2_l(i) (noise plus residual multiuser interference) and, per
transmit position m, the signal-to-interference ratio sir_m(i):

    sigma2_l(i) = sigma2 + alpha_l * sum_m bsq[l, m] * mmse(sir_m(i-1))
    sir_m(i)    = sum_l bsq[l, m] / sigma2_l(i)

with sir_m(0) = 0 and per-position bit error rate Q(sqrt(sir_m(i))).
The row load alpha_l equals the training load on training periods and
the propagation load elsewhere.  Both updates are fully parallel
(Jacobi); the recursion is monotone from the all-zero start, so it
converges to the smallest fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO

import numpy as np
from numpy.typing import NDArray

from .coupling import BaseMatrix, TrainingAssignment, check_positive, check_training

__all__ = [
    "MMSE_CUTOFF",
    "SystemScenario",
    "DeTrajectory",
    "sigma2_from_db",
    "qfunc",
    "ber_of",
    "mmse_bpsk",
    "de_step",
    "run_de",
    "write_trajectory_csv",
    "write_summary_csv",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)

# Above this SNR the MMSE is below 1e-10 and is reported as exactly 0.
MMSE_CUTOFF = 50.0

# Hybrid evaluation switch: below _GH_SWITCH plain Gauss-Hermite quadrature
# on 1 - E[tanh(x + sqrt(x) Z)] is accurate to machine precision; above it
# the tanh kink drifts into the Gaussian tail and fixed-order quadrature
# degrades (about 5e-6 absolute error at x ~ 9.5 with 60 nodes), so the
# integral is rewritten with the identity (1 - tanh(u)) e^u = sech(u) as
#     mmse(x) = exp(-x/2) / sqrt(2 pi x) * int sech(u) exp(-u^2 / (2x)) du
# and evaluated by the trapezoidal rule on a fixed grid.  The integrand is
# analytic and decays like exp(-|u|), so the rule converges geometrically;
# with step 0.2 and extent 38 the absolute error stays below 1e-12 for all
# x in [_GH_SWITCH, MMSE_CUTOFF] (checked against 40-digit adaptive
# quadrature of the defining expectation).
_GH_SWITCH = 0.5
_TRAP_STEP = 0.2
_TRAP_U = np.arange(-190, 191, dtype=np.float64) * _TRAP_STEP
_TRAP_SECH = 1.0 / np.cosh(_TRAP_U)
_TRAP_USQ_HALF = 0.5 * np.square(_TRAP_U)


@lru_cache(maxsize=8)
def _hermgauss(n_nodes: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def sigma2_from_db(snr_db: float) -> float:
    """Noise variance from the SNR convention snr_db = 10 log10(1 / sigma2)."""
    try:
        sigma2 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    check_positive(f"noise variance at snr_db={snr_db}", sigma2)
    return sigma2


def _piecewise_table(func, lo, width, degree: int) -> NDArray[np.float64]:
    """Coefficient table of a piecewise polynomial fitted to ``func``.

    One column per piece [lo, lo + width]: rows are lo, the inverse
    width, then the monomial coefficients c0..cd in t = (x - lo) / width
    of the degree-d interpolant of ``func`` at the piece's Chebyshev
    points.  One extra all-zero column follows the last piece.  ``func``
    maps an array of points, one row per piece, to the values there.
    """
    nodes = np.polynomial.chebyshev.chebpts1(degree + 1)
    samples = func(lo[:, None] + width[:, None] * (0.5 * (nodes + 1.0)))
    # Fit in the Chebyshev basis, where the fit is well conditioned, then
    # convert: column j of to_monomial holds T_j(2t - 1)'s coefficients in t,
    # integers built exactly by T_{j+1} = 2 (2t - 1) T_j - T_{j-1}.
    coefs = np.polynomial.chebyshev.chebfit(nodes, samples.T, degree)
    to_monomial = np.zeros((degree + 1, degree + 1))
    to_monomial[0, 0] = 1.0
    to_monomial[:2, 1] = (-1.0, 2.0)
    for j in range(1, degree):
        to_monomial[1:, j + 1] = 4.0 * to_monomial[:-1, j]
        to_monomial[:, j + 1] -= 2.0 * to_monomial[:, j] + to_monomial[:, j - 1]
    table = np.zeros((degree + 3, lo.size + 1))
    table[0, :-1] = lo
    table[1, :-1] = 1.0 / width
    table[2:, :-1] = to_monomial @ coefs
    return table


def _horner(piece, x):
    """Value at x of the piece(s) given by table column(s) ``piece``."""
    t = (x - piece[0]) * piece[1]
    y = piece[-1] * t
    y += piece[-2]
    for coef in piece[-3:1:-1]:
        y *= t
        y += coef
    return y


# qfunc(x) is erfc(a) / 2 at a = x / sqrt(2), with a rounded as in the
# erfc-based evaluators (scipy.special.erfc) it agrees with.  Following the
# split of exp(-a^2) in W. J. Cody, Rational Chebyshev approximations for
# the error function, Math. Comp. 23 (1969), on a grid twice as fine, take
# s = k/32 <= |a| < s + 1/32:
#     erfc(|a|) / 2 = P_k(32 (|a| - s)) * exp(-(|a| - s) (|a| + s)),
# where P_k, of degree 6, interpolates erfc(a) exp(a^2 - s^2) / 2, a smooth
# and slowly varying function, at the Chebyshev points of piece k, sampled
# from math.erfc at import.  |a| - s is exact, so the exponent is small and
# accurate.  Against erfc(a) / 2 at the rounded a the result is within
# 2.7e-15 relative (checked against 25-digit mpmath on 250k points); the
# pieces stop at _Q_LIMIT, where Q(x) = 1.1e-307 is about to leave the
# normal range, and Q is 0 beyond.  The piece index is arithmetic,
# floor(32 |a|).
_Q_PIECES_PER_UNIT = 32
_Q_DEGREE = 6
_Q_LIMIT = 26.5
# Elements per block: bounds the gathered coefficients at 9 x 64 KiB.
_Q_BLOCK = 8192


def _q_pieces() -> NDArray[np.float64]:
    """Coefficient table of :func:`qfunc` in |a|, laid out for :func:`_horner`."""
    lo = np.arange(int(_Q_LIMIT * _Q_PIECES_PER_UNIT)) / _Q_PIECES_PER_UNIT
    erfc = np.vectorize(math.erfc, otypes=[np.float64])
    table = _piecewise_table(
        lambda a: 0.5 * erfc(a) * np.exp((a - lo[:, None]) * (a + lo[:, None])),
        lo,
        np.full(lo.shape, 1.0 / _Q_PIECES_PER_UNIT),
        _Q_DEGREE,
    )
    # The fit leaves c0 of the first piece within an ulp of Q(0) = 1/2.
    table[2, 0] = 0.5
    table.setflags(write=False)
    return table


_Q_PIECES = _q_pieces()


def qfunc(x):
    """Gaussian upper-tail probability Q(x) = P(Z > x) = erfc(x / sqrt(2)) / 2.

    numpy only: a piecewise polynomial times one exponential (see the
    comment above).  Within 2.7e-15 relative of erfc(a) / 2 at the rounded
    a = x / sqrt(2) wherever Q(x) exceeds 1.1e-307, and 0 for x > 37.47.
    scipy.special.erfc, which rounds a * a, differs by up to 5.5e-15
    relative on [-10, 10] and 6e-14 on [-37, 37].  Q(0) = 1/2 exactly,
    Q(-x) = 1 - Q(x), NaN gives NaN.  Accepts scalars or arrays; an array
    element and the same value passed as a scalar give identical results.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _Q_BLOCK):
        out[start : start + _Q_BLOCK] = _qfunc_block(flat[start : start + _Q_BLOCK])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _qfunc_block(x: NDArray[np.float64]) -> NDArray[np.float64]:
    a = np.abs(x / _SQRT2)
    np.minimum(a, _Q_LIMIT, out=a)
    # NaN casts to an arbitrary index; clipping keeps it in the table, and
    # t = NaN carries it to the result.  _Q_LIMIT indexes the zero column.
    with np.errstate(invalid="ignore"):
        index = (a * _Q_PIECES_PER_UNIT).astype(np.intp)
    piece = _Q_PIECES.take(index, axis=1, mode="clip")
    q = _horner(piece, a)
    lo = piece[0]
    q *= np.exp((lo - a) * (a + lo))
    np.subtract(1.0, q, out=q, where=x < 0.0)
    return q


def _nonnegative(x, name: str) -> NDArray[np.float64]:
    """``x`` as a float64 array; rejects negative and NaN elements, since min() propagates NaN."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not arr.min() >= 0.0:
        raise ValueError(f"{name} must be nonnegative")
    return arr


def ber_of(sir):
    """Bit error rate Q(sqrt(sir)) of a +-1 symbol at signal-to-interference ratio sir."""
    arr = _nonnegative(sir, "signal-to-interference ratio")
    return qfunc(np.sqrt(arr)) if np.ndim(sir) else qfunc(math.sqrt(float(arr)))


def _mmse_quadrature(x, n_nodes: int = 60):
    """Reference MMSE by quadrature; :func:`mmse_bpsk` interpolates it.

    Gauss-Hermite quadrature with ``n_nodes`` nodes for x < 0.5 and the
    exact sech-kernel reformulation on a fixed trapezoidal grid above
    (see module comments); absolute error is below 1e-10 on [0, 50].
    Returns exactly 1 at x = 0 and exactly 0 for x > 50.  Costs an
    (n x 381) kernel per call, so it only runs at import and in tests.
    """
    if n_nodes < 60:
        raise ValueError(f"need at least 60 quadrature nodes, got {n_nodes}")
    arr = _nonnegative(x, "snr")
    flat = np.atleast_1d(arr)
    out = np.zeros(flat.shape, dtype=np.float64)

    small = flat < _GH_SWITCH
    if small.any():
        nodes, weights = _hermgauss(n_nodes)
        xs = flat[small][:, None]
        out[small] = 1.0 - (np.tanh(xs + np.sqrt(2.0 * xs) * nodes) @ weights) / _SQRT_PI

    mid = ~small & (flat <= MMSE_CUTOFF)
    if mid.any():
        xs = flat[mid]
        kernel = _TRAP_SECH * np.exp(-_TRAP_USQ_HALF / xs[:, None])
        integral = kernel.sum(axis=1) * _TRAP_STEP
        out[mid] = integral * np.exp(-0.5 * xs) / np.sqrt(2.0 * math.pi * xs)

    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# mmse_bpsk is a piecewise polynomial of degree _MMSE_DEGREE interpolating
# the quadrature at Chebyshev points of each piece (Trefethen, Approximation
# Theory and Approximation Practice, 2013).  The pieces grow geometrically:
# [0, 1/128], then breaks at 0.5 * 2**(k/8) for k = -48..53, then up to 50.
# The function is smooth but not analytic at x = 0, so uniform pieces would
# need far more nodes near 0 than elsewhere; the break at 0.5 keeps each
# piece on one side of the quadrature's regime switch.  Each piece is kept
# as monomial coefficients in t = (x - lo) / (hi - lo), which decay like
# Taylor coefficients, so Horner's rule is stable and the first piece can
# hold mmse(0) = 1 exactly.  Against the quadrature the interpolant is
# within 7e-15 on [0, 50], except 1.4e-14 on (0.45, 0.5), where it absorbs
# the quadrature's step at 0.5 (see _mmse_pieces); the fit samples 927
# quadrature nodes once, at import.
_MMSE_DEGREE = 8
_MMSE_UPPER = np.append(0.5 * 2.0 ** (np.arange(-48, 54) / 8.0), MMSE_CUTOFF)
_MMSE_UPPER.setflags(write=False)


def _mmse_pieces() -> NDArray[np.float64]:
    """Coefficient table of :func:`mmse_bpsk`, laid out by :func:`_piecewise_table`.

    Piece i covers (lo, _MMSE_UPPER[i]] (the first one includes 0) and
    the extra all-zero column covers x > MMSE_CUTOFF, so
    ``_MMSE_UPPER.searchsorted(x)`` indexes the table directly.
    """
    lo = np.append(0.0, _MMSE_UPPER[:-1])
    table = _piecewise_table(_mmse_quadrature, lo, _MMSE_UPPER - lo, _MMSE_DEGREE)
    # The fit leaves c0 of the first piece within an ulp of mmse(0) = 1;
    # pinning it keeps every value at or below 1.
    table[2, 0] = 1.0
    # Neighbouring pieces meet within about 1e-15 (6.6e-15 at 0.5, where
    # the quadrature changes rules), sometimes with a step up.  Just above a
    # break a piece returns at most its c0, so raising the piece below until
    # it reaches that c0 at the break makes mmse_bpsk nonincreasing across
    # every break.  The raise goes on the top coefficient, whose t**d leaves
    # the lower end of the piece below, and so the break before it, untouched;
    # twice the shortfall outweighs the rounding of the final Horner step.
    for i in range(1, lo.size):
        short = table[2, i] - _horner(table[:, i - 1], lo[i])
        if short > 0.0:
            table[-1, i - 1] += 2.0 * short
    table.setflags(write=False)
    return table


_MMSE_PIECES = _mmse_pieces()


def mmse_bpsk(x):
    """MMSE of estimating a +-1 symbol over AWGN at signal-to-noise ratio x.

    Defined as 1 - E[tanh(x + sqrt(x) Z)] with Z standard normal
    (equivalently 1 - E[tanh^2] by channel symmetry; Guo, Shamai & Verdu
    2005).  Evaluated from a piecewise polynomial fitted at import to
    :func:`_mmse_quadrature`, which it matches to within 2e-14 absolute on
    [0, 50].  Returns exactly 1 at x = 0 and exactly 0 for x > 50, where
    the true value is below 1e-10.  Accepts scalars or arrays; an array
    element and the same value passed as a scalar give identical results.
    """
    arr = _nonnegative(x, "snr")
    piece = _MMSE_PIECES.take(_MMSE_UPPER.searchsorted(arr), axis=1)
    # Clipping keeps t finite (0 on the zero column) for x = inf.
    y = _horner(piece, np.minimum(arr, MMSE_CUTOFF))
    return float(y) if arr.ndim == 0 else y


@dataclass(frozen=True)
class SystemScenario:
    """Everything density evolution needs besides the base matrix.

    Noise variance sigma2, training load alpha_tr, propagation load
    alpha, and the training assignment that says which symbol periods
    run at the reduced load.
    """

    sigma2: float
    alpha_tr: float
    alpha: float
    training_set: TrainingAssignment

    def __post_init__(self) -> None:
        check_positive("sigma2", self.sigma2)
        check_positive("alpha_tr", self.alpha_tr)
        check_positive("alpha", self.alpha)

    def row_loads(self, L: int) -> NDArray[np.float64]:
        """Per-factor-node loads: alpha_tr on training periods, alpha elsewhere."""
        members = self.training_set.training_set
        check_training(members, L)
        loads = np.full(L, self.alpha, dtype=np.float64)
        if members:
            loads[list(members)] = self.alpha_tr
        return loads


@dataclass(frozen=True, eq=False)
class DeTrajectory:
    """Per-iteration record of a density-evolution run.

    Row i of ``sir`` and ``ber`` is the state after i iterations (row 0
    is the all-zero start, where every BER is 0.5).  Summaries hold the
    average and minimum BER and the argmin position per iteration.
    """

    sir: NDArray[np.float64]
    ber: NDArray[np.float64]
    avg_ber: NDArray[np.float64]
    min_ber: NDArray[np.float64]
    argmin_position: NDArray[np.int64]
    converged: bool
    iterations_run: int

    def __post_init__(self) -> None:
        n = self.sir.shape[0]
        if self.ber.shape != self.sir.shape:
            raise ValueError("sir and ber tables must have equal shapes")
        if not (self.avg_ber.shape == self.min_ber.shape == self.argmin_position.shape == (n,)):
            raise ValueError("summary arrays must have one entry per iteration")
        if self.iterations_run != n - 1:
            raise ValueError(
                f"iterations_run={self.iterations_run} does not match {n} recorded states"
            )
        for name in ("sir", "ber", "avg_ber", "min_ber", "argmin_position"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def de_step(
    sir: NDArray[np.float64],
    bsq: NDArray[np.float64],
    sigma2: float,
    loads: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """One parallel update of the coupled recursion; returns (sir, sigma2_rows).

    The new noise levels ``sigma2_rows`` consume the input ``sir``; the
    new sir consumes the new noise levels.  ``loads`` holds the per-row
    loads of :meth:`SystemScenario.row_loads`.

    ``sir`` and ``loads`` may also be stacks of shape (n, L), n states
    that share ``bsq``; row i of the results then equals, bit for bit,
    the update of row i alone.
    """
    if sir.ndim == 1:
        sigma2_rows = sigma2 + loads * (bsq @ mmse_bpsk(sir))
        return bsq.T @ (1.0 / sigma2_rows), sigma2_rows
    # Broadcast matvecs run the same per-row product as the 1-D form;
    # ``m @ bsq.T`` would be one matrix product with a different rounding.
    sigma2_rows = sigma2 + loads * (bsq @ mmse_bpsk(sir)[:, :, None])[:, :, 0]
    return (bsq.T @ (1.0 / sigma2_rows)[:, :, None])[:, :, 0], sigma2_rows


def check_de_budget(max_iter: int, tol: float) -> None:
    """Reject an iteration budget below 1 or a sir tolerance that is not positive and finite."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
    check_positive("tol", tol)


def _lockstep(sir, steps, bsq, sigma2, loads, max_iter, tol, record=None):
    """Advance DE states in lockstep until one stops; returns (sir, steps, converged, done).

    ``sir`` is one state (L,) or a stack (n, L) of states that share
    ``bsq``, with ``loads`` of the same shape; ``steps`` counts the steps
    each has taken so far (an int, or one per row), all below
    ``max_iter``.  A state stops once its largest sir change falls below
    ``tol`` (converged) or after ``max_iter`` steps.  Returns, after the
    first step at which any state stops, every state's last value, step
    count and converged flag, and ``done`` for the states that stopped.
    ``record``, if given, receives each new state.  This loop is the
    only caller of :func:`de_step`, looked up at call time.
    """
    # A single state's residual is a numpy scalar: float() reads it in
    # about 60 ns, where its .min() takes 2.6 us, a tenth of a step.
    least = float if sir.ndim == 1 else np.ndarray.min
    for taken in range(1, max_iter - np.max(steps) + 1):
        new, _ = de_step(sir, bsq, sigma2, loads)
        if record is not None:
            record(new)
        residual = abs(new - sir).max(axis=-1)
        sir = new
        if least(residual) < tol:
            break
    steps = steps + taken
    converged = residual < tol
    return sir, steps, converged, converged | (steps == max_iter)


def run_de(
    B: BaseMatrix,
    scen: SystemScenario,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> DeTrajectory:
    """Iterate :func:`de_step` from the all-zero start and record every iteration.

    Stops once the largest sir change falls below ``tol`` (converged)
    or after ``max_iter`` iterations (not converged).
    """
    check_de_budget(max_iter, tol)
    rows = [np.zeros(B.L)]
    _, _, converged, _ = _lockstep(
        rows[0], 0, B.bsq, scen.sigma2, scen.row_loads(B.L), max_iter, tol, rows.append
    )
    table = np.vstack(rows)
    ber = qfunc(np.sqrt(table))
    return DeTrajectory(
        sir=table,
        ber=ber,
        avg_ber=ber.mean(axis=1),
        min_ber=ber.min(axis=1),
        argmin_position=ber.argmin(axis=1).astype(np.int64),
        converged=bool(converged),
        iterations_run=table.shape[0] - 1,
    )


# The CSV number format: 17 significant digits, enough to round-trip.
_FLOAT_FORMAT = "%.17g"
_TRAJECTORY_ROW = f"%d,%d,{_FLOAT_FORMAT},{_FLOAT_FORMAT}\n"
# Trajectory lines formatted per write; bounds the text held at once.
_WRITE_LINES = 8192


def format_float(value: float) -> str:
    """A float as CSV text: 17 significant digits, enough to round-trip."""
    return _FLOAT_FORMAT % value


def write_trajectory_csv(traj: DeTrajectory, stream: IO[str]) -> None:
    """Long-format per-position table: iteration,position,sir,ber."""
    stream.write("iteration,position,sir,ber\n")
    n, L = traj.sir.shape
    block = max(1, _WRITE_LINES // L)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = zip(
            np.repeat(np.arange(start, stop), L).tolist(),
            list(range(L)) * (stop - start),
            traj.sir[start:stop].ravel().tolist(),
            traj.ber[start:stop].ravel().tolist(),
        )
        stream.write("".join(map(_TRAJECTORY_ROW.__mod__, rows)))


def write_summary_csv(traj: DeTrajectory, stream: IO[str]) -> None:
    """Per-iteration summary table: iteration,avg_ber,min_ber,argmin_position."""
    stream.write("iteration,avg_ber,min_ber,argmin_position\n")
    for i in range(traj.avg_ber.shape[0]):
        stream.write(
            f"{i},{format_float(traj.avg_ber[i])},{format_float(traj.min_ber[i])},"
            f"{int(traj.argmin_position[i])}\n"
        )
