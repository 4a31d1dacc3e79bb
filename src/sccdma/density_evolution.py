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
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import IO

import numpy as np
from numpy.typing import NDArray

from . import _EXPORTS
from .coupling import (
    MAX_CHAIN_LENGTH,
    BaseMatrix,
    TrainingAssignment,
    _is_int,
    check_int,
    check_positive,
    check_training,
)

__all__ = list(_EXPORTS["density_evolution"])

_SQRT2 = math.sqrt(2.0)

# Above this SNR the MMSE is below 1e-10 and is reported as exactly 0.
MMSE_CUTOFF = 50.0


def sigma2_from_db(snr_db: float) -> float:
    """Noise variance from the SNR convention snr_db = 10 log10(1 / sigma2)."""
    try:
        sigma2 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    check_positive(f"noise variance at snr_db={snr_db}", sigma2)
    return sigma2


def _horner(piece, x):
    """Value at x of the piece(s) given by table column(s) ``piece``."""
    t = (x - piece[0]) * piece[1]
    y = piece[-1] * t
    y += piece[-2]
    for coef in piece[-3:1:-1]:
        y *= t
        y += coef
    return y


# Elements per block: bounds the Python floats that math.erfc maps at once.
_Q_BLOCK = 8192


def qfunc(x):
    """Gaussian upper-tail probability Q(x) = P(Z > x) = erfc(x / sqrt(2)) / 2.

    Each element is 0.5 * math.erfc(|x| / sqrt(2)), reflected to 1 - Q(|x|)
    for x < 0: math.erfc at the rounded argument, within about 2 ulp of the
    exact value wherever Q(x) is a normal float.  Q(0) = 1/2 exactly, Q
    reads exactly 0 only where erfc underflows (x above about 38.47), and
    NaN gives NaN.  Accepts scalars or arrays; an array element and the same
    value passed as a scalar give identical results.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _Q_BLOCK):
        a = np.abs(flat[start : start + _Q_BLOCK]) / _SQRT2
        out[start : start + a.size] = np.fromiter(map(math.erfc, a.tolist()), np.float64, a.size)
    out *= 0.5
    np.subtract(1.0, out, out=out, where=flat < 0.0)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _nonnegative(x, name: str) -> NDArray[np.float64]:
    """``x`` as a float64 array; rejects negative and NaN elements, since minimum propagates NaN."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.minimum.reduce(arr, axis=None) >= 0.0:
        raise ValueError(f"{name} must be nonnegative")
    return arr


def ber_of(sir):
    """Bit error rate Q(sqrt(sir)) of a +-1 symbol at signal-to-interference ratio sir.

    The one map from sir to BER.  Accepts scalars or arrays, like :func:`qfunc`.
    """
    return qfunc(np.sqrt(_nonnegative(sir, "signal-to-interference ratio")))


def check_target_ber(target_ber: float) -> None:
    """Reject a BER level outside (0, 0.5]: no BER exceeds ber_of(0) = 1/2."""
    if not 0.0 < target_ber <= 0.5:
        raise ValueError(f"target BER must lie in (0, 0.5], got {target_ber}")


# The SIR floor's BER exceeds the target by this relative margin, far above
# the ~1e-13 relative error of ber_of and of a row's mean SIR.
_FLOOR_MARGIN = 1e-9
# Below the smallest normal float erfc loses its relative accuracy: the
# most qfunc can drop from any one BER there.
_Q_CUTOFF_TAIL = sys.float_info.min
# ber_of reads 0 above sir = 1480.35, where erfc underflows, so no floor reaches it.
_SIR_BER_ZERO = 2048.0


# A search and the bisections of its finalists all ask for the same floor.
@lru_cache(maxsize=8)
def _sir_floor(target_ber: float) -> float:
    """A SIR at or below which a BER, or by Jensen an average BER, exceeds ``target_ber``.

    x -> Q(sqrt(x)) is convex and decreasing, so a position at or below
    the floor has BER above the target, and by Jensen's inequality so
    does the average BER of a state whose mean SIR lies below it.
    Bisection on ber_of keeps ber_of(floor) >= (target_ber + tail) *
    (1 + _FLOOR_MARGIN), where tail bounds qfunc's error below the normal
    range; the margin covers rounding in ber_of and in the mean.  Returns
    0, which rules nothing out, when even ber_of(0) = 1/2 falls short, as
    for target 1/2.
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


# mmse_bpsk is a piecewise polynomial of degree 8, stored as data in
# mmse_pieces.npy beside this module.  Column i is piece (lo, _MMSE_UPPER[i]]
# of [0, MMSE_CUTOFF]; its rows are lo, the inverse width, then the monomial
# coefficients c0..c8 in t = (x - lo) / width, which decay like Taylor
# coefficients, so Horner's rule is stable and the first piece holds
# mmse(0) = 1 exactly.  An extra all-zero column covers x > MMSE_CUTOFF, so
# ``_MMSE_UPPER.searchsorted(x)`` indexes the table directly.  The pieces
# grow geometrically: [0, 1/128], then breaks at 0.5 * 2**(k/8) for
# k = -48..53, then up to 50.  Each interpolates a Gauss-Hermite/trapezoid
# quadrature at the piece's Chebyshev points (Trefethen, Approximation
# Theory and Approximation Practice, 2013), raised where needed so that no
# break steps up; tests/mmse_oracle.py holds that quadrature and fit, and
# the tests check the table against them and against mpmath.
_MMSE_PIECES = np.load(Path(__file__).with_name("mmse_pieces.npy"), allow_pickle=False)
_MMSE_PIECES.setflags(write=False)
# Each piece's upper end is the next piece's lo; the last piece ends at the cutoff.
_MMSE_UPPER = np.append(_MMSE_PIECES[0, 1:-1], MMSE_CUTOFF)
_MMSE_UPPER.setflags(write=False)


# From _BITS_INDEX_MIN elements on, mmse_bpsk finds each piece from the
# float's bits rather than by a binary search of _MMSE_UPPER.  On DE states
# the search takes 1.7 / 11.4 / 27.7 us at 64 / 512 / 2,048 elements and
# the bits 6.6 / 10.0 / 9.0 us, most of that per call.  A nonnegative float64's
# bits, shifted right by 45, give its exponent and its top 7 mantissa bits:
# a key that splits each binade into 128 buckets.  _PIECE_START[key - base]
# counts the breaks below the bucket's least float; breaks lie a factor
# 2**(1/8) apart, so no bucket holds two, and one compare against the next
# break completes the count that searchsorted gives.  Keys below the first
# break's bucket (zero, subnormals, -0.0, whose key is negative) and above
# the cutoff's clip to the table's ends, where the count is 0 and 103.
_BITS_INDEX_MIN = 512
_PIECE_SHIFT = 45
_PIECE_BASE, _PIECE_TOP = (_MMSE_UPPER[[0, -1]].view(np.int64) >> _PIECE_SHIFT).tolist()
# Through the bucket after the cutoff's, the first whose floats all exceed it.
_PIECE_START = _MMSE_UPPER.searchsorted(
    (np.arange(_PIECE_BASE, _PIECE_TOP + 2) << _PIECE_SHIFT).view(np.float64)
)
_PIECE_START.setflags(write=False)
# The break above each count; past the last one nothing is above.
_PIECE_NEXT = np.append(_MMSE_UPPER, np.inf)
_PIECE_NEXT.setflags(write=False)


def _piece_index(arr):
    """``_MMSE_UPPER.searchsorted(arr)`` of a nonnegative float64 array, from its bits."""
    key = arr.view(np.int64) >> _PIECE_SHIFT
    key -= _PIECE_BASE
    index = _PIECE_START.take(key, mode="clip")
    index += _PIECE_NEXT.take(index) < arr
    return index


def _mmse(arr):
    """:func:`mmse_bpsk` of a finite, nonnegative float64 array, unchecked.

    Above MMSE_CUTOFF the piece is the zero column, whose zero inverse
    width makes t = 0, and so the value 0, for every finite input.
    """
    index = _piece_index(arr) if arr.size >= _BITS_INDEX_MIN else _MMSE_UPPER.searchsorted(arr)
    return _horner(_MMSE_PIECES.take(index, axis=1), arr)


# The largest float: mmse_bpsk clips +inf to it, which _mmse reads as 0.
_LARGEST = sys.float_info.max


def mmse_bpsk(x):
    """MMSE of estimating a +-1 symbol over AWGN at signal-to-noise ratio x.

    Defined as 1 - E[tanh(x + sqrt(x) Z)] with Z standard normal
    (equivalently 1 - E[tanh^2] by channel symmetry; Guo, Shamai & Verdu
    2005).  Evaluated from a piecewise polynomial table shipped as data,
    within 2e-14 absolute of a quadrature on [0, 50].  Returns exactly 1
    at x = 0 and exactly 0 for x > 50, where the true value is below
    1e-10.  Accepts scalars or arrays; an array element and the same value
    passed as a scalar give identical results.
    """
    arr = _nonnegative(x, "snr")
    y = _mmse(np.minimum(arr, _LARGEST))
    return float(y) if arr.ndim == 0 else y


# A scenario's or a threshold query's default training assignment: no period trains.
_NO_TRAINING = TrainingAssignment((), 0)


@dataclass(frozen=True)
class SystemScenario:
    """Everything density evolution needs besides the base matrix.

    Noise variance sigma2, training load alpha_tr, propagation load
    alpha, and the training assignment that says which symbol periods
    run at the reduced load (none by default).
    """

    sigma2: float
    alpha_tr: float
    alpha: float
    training_set: TrainingAssignment = _NO_TRAINING

    def __post_init__(self) -> None:
        check_positive("sigma2", self.sigma2)
        check_positive("alpha_tr", self.alpha_tr)
        check_positive("alpha", self.alpha)
        # A row of bsq sums to at most L and mmse is at most 1, so this
        # bounds every noise level de_step can compute.
        check_positive(
            f"noise bound sigma2 + max(alpha_tr, alpha) * {MAX_CHAIN_LENGTH}",
            self.sigma2 + max(self.alpha_tr, self.alpha) * MAX_CHAIN_LENGTH,
        )

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
    """Per-iteration record of a density-evolution run, derived from its sir table.

    Row i of ``sir`` is the state after i iterations (row 0 is the
    all-zero start, where every BER is 0.5).  The BER table, its average
    and minimum per iteration, the argmin position and the iteration
    count are computed from ``sir`` once, when the record is built.
    """

    sir: NDArray[np.float64]
    converged: bool
    ber: NDArray[np.float64] = field(init=False)
    avg_ber: NDArray[np.float64] = field(init=False)
    min_ber: NDArray[np.float64] = field(init=False)
    argmin_position: NDArray[np.int64] = field(init=False)
    iterations_run: int = field(init=False)

    def __post_init__(self) -> None:
        ber = ber_of(self.sir)
        tables = {
            "sir": self.sir,
            "ber": ber,
            "avg_ber": ber.mean(axis=1),
            "min_ber": ber.min(axis=1),
            "argmin_position": ber.argmin(axis=1).astype(np.int64),
        }
        for name, arr in tables.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "iterations_run", self.sir.shape[0] - 1)


def de_step(
    sir: NDArray[np.float64],
    bsq: NDArray[np.float64],
    sigma2: float,
    loads: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """One parallel update of the coupled recursion; returns (sir, sigma2_rows).

    The new noise levels ``sigma2_rows`` consume the input ``sir``; the
    new sir consumes the new noise levels.  ``loads`` holds the per-row
    loads of :meth:`SystemScenario.row_loads`.  Nothing is checked: ``sir``
    must be a finite, nonnegative float64 array, as every state the
    recursion builds from zero is, and its MMSE is :func:`mmse_bpsk`'s
    without the input check.

    ``sir``, ``loads`` and ``bsq`` may also have any leading shape, as a
    stack (..., L) of states and loads that share one (L, L) ``bsq`` or
    carry their own (..., L, L); leading shapes broadcast against each
    other.  Each row of the results then equals, bit for bit, the update
    of that row alone.
    """
    # One matvec per state, for a state and a stack alike; ``m @ bsq.T``
    # would be one matrix product with a different rounding, and a
    # contiguous copy of the transpose may round differently too.
    sigma2_rows = sigma2 + loads * np.matvec(bsq, _mmse(sir))
    return np.matvec(bsq.mT, 1.0 / sigma2_rows), sigma2_rows


# Largest iteration budget: _Stack keeps each row's start on its clock in
# int64, and compares the clock less the start with the budget, which must
# itself fit with room to spare.
_MAX_ITER = 1 << 62


def check_de_budget(max_iter: int, tol: float) -> int:
    """``max_iter`` as an int.

    Rejects a bool, non-int or out-of-range [1, 2^62] budget, or a tol not positive and finite.
    """
    max_iter = check_int("max_iter", max_iter, 1, _MAX_ITER)
    check_positive("tol", tol)
    return max_iter


# Failure certificate, which only bisection asks for.  DE from zero is
# monotone, so a state u with F(u) <= u, F one de_step, bounds every iterate
# from zero from above: u is a super-solution (Amann, SIAM Review 1976; the
# order argument of threshold saturation, Yedla, Jian, Nguyen & Pfister,
# IEEE T-IT 2014).  If some position of u lies at or below the SIR floor of
# the success BER, every iterate has BER above it there, so the run fails.
# Every _CERTIFY_EVERY of its own steps, a row whose largest sir change
# shrank from the step before, by the ratio r < 1, tries the candidates
# u = s + c * max(delta, 0) / (1 - r) + _CERTIFY_NUDGE, c in _CERTIFY_SCALES:
# the geometric tail of its increments, overshot c times.
_CERTIFY_EVERY = 10
_CERTIFY_SCALES = np.array([1.0, 2.0, 4.0])[:, None, None]
_CERTIFY_NUDGE = 1e-12
# A candidate passes if computed F(u) <= u * (1 - _CERTIFY_MARGIN) at every
# position.  Then every computed iterate s_k from zero stays <= u, by
# induction from s_0 = 0 < u.  Given s_k <= u:
# - computed mmse_bpsk is nonincreasing but for rises of at most 3.2e-27,
#   under 1e-15 of its value there, all at x in [49.2, 49.35] (scans of
#   adjacent floats); so mmse(s_k) >= mmse(u) * (1 - 1e-15);
# - the rest of de_step, two matvecs over a nonnegative bsq, the product
#   with the loads, the add of sigma2 and the reciprocal, is monotone in
#   exact arithmetic.  Computed, in any summation order, each matvec is
#   within n roundings of exact, n the most nonzero entries in a row or
#   column of bsq (a zero term adds no rounding; n <= L), and each scalar
#   step within one.  So F(s_k) <= F(u) * (1 + eta) with
#   eta <= (4n + 10) * 2**-53 + 1e-15, 9.1e-13 at n = MAX_CHAIN_LENGTH,
#   the longest chain a graph builds.  (With no rise, a fixed order and
#   round-to-nearest keep F(s_k) <= F(u) exactly.);
# - the test itself rounds u * (1 - margin) by 2 * 2**-53 at most.
# So s_{k+1} = F(s_k) <= u * (1 - 1e-12 + 2.3e-16) * (1 + 9.1e-13) < u.
# The floor's BER keeps a relative margin of 1e-9 against erfc's
# ulp-level error (_FLOOR_MARGIN), so each such s_k has a computed BER
# above the success level at a position where u is at or below the floor.
_CERTIFY_MARGIN = 1e-12


def _certified(rows, old, new, residual, last, bsq, sigma2, loads, floor):
    """Those of ``rows`` whose step from ``old`` to ``new`` yields a failure certificate.

    ``residual`` and ``last`` hold each row's largest sir change of this
    step and of the one before.  All candidates of all rows go through
    one stacked :func:`de_step` call.
    """
    rows = rows[residual[rows] < last[rows]]
    if not rows.size:
        return rows
    ratio = residual[rows] / last[rows]
    tail = np.maximum(new[rows] - old[rows], 0.0) / (1.0 - ratio)[:, None]
    u = new[rows] + _CERTIFY_SCALES * tail + _CERTIFY_NUDGE
    # A tail can overflow to +inf; de_step takes finite states only, and
    # at the largest float its MMSE is 0, as at +inf.
    f_u, _ = de_step(
        np.minimum(u, _LARGEST), bsq if bsq.ndim == 2 else bsq[rows], sigma2, loads[rows]
    )
    proof = (f_u <= u * (1.0 - _CERTIFY_MARGIN)).all(axis=-1)
    proof &= (u <= floor).any(axis=-1)
    return rows[proof.any(axis=0)]


class _Stack:
    """DE states that step in lockstep from zero, each with its own step count.

    Each of ``slots`` holds a row or, free, the id None.  A row is its
    distinct id, sir, row loads, start on the stack's clock (its step
    count is the clock less its start), last sir change, ``bsq`` where the
    stack shares none, and ``mark``, an int that the client sets.  A row
    joins the lowest free slot at step 0; :meth:`run` moves the top rows
    into the free slots below them, steps every row until one stops, and
    frees the stopped rows; :meth:`drop` frees rows that have not stopped.
    A row's update, stop and certificate are those of the row alone (see
    :func:`de_step`).  This class and :func:`_certified`, which it calls,
    are the only callers of :func:`de_step`, looked up at call time.
    """

    def __init__(self, L: int, slots: int, bsq=None):
        self.bsq = np.empty((slots, L, L)) if bsq is None else bsq
        self.sir = np.empty((slots, L))
        self.loads = np.empty((slots, L))
        self.start = np.empty(slots, dtype=np.int64)
        self.last = np.empty(slots)
        self.mark = np.empty(slots, dtype=np.int64)
        self.ids: list = [None] * slots
        self.clock = 0
        self._columns = (self.sir, self.loads, self.start, self.last, self.mark)
        if bsq is None:
            self._columns += (self.bsq,)

    def __len__(self) -> int:
        return len(self.ids) - self.ids.count(None)

    def join(self, id, loads, bsq=None, mark: int = -1) -> None:
        """Start row ``id`` at step 0 with ``loads``, ``mark`` and any ``bsq`` of its own."""
        slot = self.ids.index(None)
        self.ids[slot] = id
        self.sir[slot] = 0.0
        self.loads[slot] = loads
        if bsq is not None:
            self.bsq[slot] = bsq
        self.start[slot] = self.clock
        self.last[slot] = math.inf
        self.mark[slot] = mark

    def drop(self, ids) -> None:
        """Free the slots of the rows of ``ids``."""
        self.ids = [None if id in ids else id for id in self.ids]

    def run(self, sigma2: float, max_iter: int, tol: float, record=None, floor=None):
        """Step every row until one stops; free the stopped rows and return them.

        A row stops once its largest sir change falls below ``tol``
        (converged) or at step ``max_iter``, and given a SIR ``floor`` also
        at the step at which a super-solution proves that some position
        stays at or below it (see _CERTIFY_MARGIN).  ``record``, if given,
        receives each new state, after the clock has advanced.  Returns the
        stopped rows' ids, states (a stack), step counts, converged flags
        and marks.
        """
        n = len(self)
        holes = [slot for slot in range(n) if self.ids[slot] is None]
        tops = [slot for slot in range(n, len(self.ids)) if self.ids[slot] is not None]
        for dst, src in zip(holes, tops):
            self.ids[dst], self.ids[src] = self.ids[src], None
            for column in self._columns:
                column[dst] = column[src]
        sir, loads, start = self.sir[:n], self.loads[:n], self.start[:n]
        bsq = self.bsq if self.bsq.ndim == 2 else self.bsq[:n]
        certified = []
        if floor is not None:
            last = self.last[:n]
            # due[t]: the rows whose own step count is a multiple of
            # _CERTIFY_EVERY where the clock is t, mod _CERTIFY_EVERY.
            phase = start % _CERTIFY_EVERY
            due = [np.flatnonzero(phase == t) for t in range(_CERTIFY_EVERY)]
        for clock in range(self.clock + 1, min(start.tolist()) + max_iter + 1):
            old, sir = sir, de_step(sir, bsq, sigma2, loads)[0]
            self.clock = clock
            if record is not None:
                record(sir)
            residual = np.maximum.reduce(abs(sir - old), axis=-1)
            if floor is not None:
                rows = due[clock % _CERTIFY_EVERY]
                if rows.size:
                    certified = _certified(rows, old, sir, residual, last, bsq, sigma2, loads, floor)
                    if certified.size:
                        break
                last = residual
            # Up to about 32 rows this beats a ufunc reduce: 0.7 against 1.7 us at one row.
            if min(residual.tolist()) < tol:
                break
        self.sir[:n] = sir
        self.last[:n] = residual
        steps = self.clock - start
        converged = residual < tol
        done = converged | (steps == max_iter)
        done[certified] = True
        stopped = np.flatnonzero(done)
        ids = [self.ids[slot] for slot in stopped.tolist()]
        for slot in stopped.tolist():
            self.ids[slot] = None
        marks = self.mark[stopped].tolist()
        return ids, sir[stopped], steps[stopped].tolist(), converged[stopped].tolist(), marks


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
    max_iter = check_de_budget(max_iter, tol)
    stack = _Stack(B.L, 1, B.bsq)
    stack.join(0, scen.row_loads(B.L))
    rows = [np.zeros((1, B.L))]
    _, _, _, [converged], _ = stack.run(scen.sigma2, max_iter, tol, rows.append)
    return DeTrajectory(sir=np.vstack(rows), converged=converged)


# The CSV number format: 17 significant digits, enough to round-trip.  Every
# field is format_field's, and _write_table's fast paths spell it exactly.
_FLOAT_FORMAT = "%.17g"
# Table lines formatted per write; bounds the text held at once.
_WRITE_LINES = 8192


def format_field(value) -> str:
    """A value as one CSV field: empty for None, true or false, %d for an integer, else %.17g."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    return ("%d" if _is_int(value) else _FLOAT_FORMAT) % value


# The index of the non-digit entry of _QUADS.
_POINT = 10000


def _digit_quads() -> tuple[NDArray[np.uint32], NDArray[np.uint8]]:
    """Of each of 0000 to 9999: its four ASCII digits packed into one uint32, and its trailing zeros.

    Entry _POINT packs two NULs and "0.", the part of a fixed-notation
    cell that is not digits.  Built from uint16 arrays so that no
    temporary reaches glibc's 128 KiB mmap threshold: freeing a block that
    large raises the threshold, which changes how every later allocation
    of the process is served.
    """
    chars = np.empty((_POINT + 1, 4), dtype=np.uint8)
    zeros = np.zeros(_POINT, dtype=np.uint8)
    n = np.arange(_POINT, dtype=np.uint16)
    for j, place in enumerate((1000, 100, 10, 1)):
        chars[:_POINT, j] = n // place % 10 + 48
        zeros += n % (10 * place) == 0
    chars[_POINT] = np.frombuffer(b"\0\0" b"0.", dtype=np.uint8)
    return chars.view(np.uint32).ravel(), zeros


def _fixed_layouts() -> NDArray[np.uint8]:
    """Masks that cut %.17g's fixed notation out of a cell of packed quads, per (k, end).

    A cell is the five quads of the 17 digits (three '0's, then the
    digits), entry _POINT, and the five quads again: room for the integer
    digits, a '0' where there are none, the point, the zeros between it
    and the first digit, and the fraction digits.  Row (k + 4) * 17 +
    end - 1 keeps what 10**k <= x < 10**(k+1) writes when its digits from
    index ``end`` on are zeros, and turns the rest of the cell to NUL.
    """
    k = np.arange(-4, 17, dtype=np.int8).repeat(17)[:, None]
    end = np.tile(np.arange(1, 18, dtype=np.int8), 21)[:, None]
    j = np.arange(17, dtype=np.int8)
    keep = np.zeros((21 * 17, 44), dtype=bool)
    keep[:, 3:20] = j <= k
    keep[:, 22:23] = k < 0
    keep[:, 23:24] = end > k + 1
    keep[:, 24:27] = np.arange(3, dtype=np.int8) < -1 - k
    keep[:, 27:] = (j > k) & (j < end)
    return keep.view(np.uint8) * np.uint8(255)


def _split(a):
    """Dekker's split of a into a 26-bit high part and the rest, whose products are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_QUADS, _QUAD_ZEROS = _digit_quads()
_FIXED_LAYOUTS = _fixed_layouts()
# 10**p for p in [0, 20], each exact in float64, and its halves for the two-product.
_POW10 = np.array([float(10**p) for p in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)
# 10**1 ... 10**18: an int64's digit count is one more than the powers at or below it.
_INT_POWERS = np.array([10**p for p in range(1, 19)], dtype=np.int64)
# The fast path covers the exponents %.17g writes in fixed notation, [-4, 16].
_FIXED_LO, _FIXED_HI = 1e-4, 1e17


def _quads(v, count: int) -> NDArray[np.intp]:
    """The last ``count`` base-10000 digits of each int64 v >= 0, a row each, most significant first."""
    quads = np.empty((count, v.size), dtype=np.intp)
    for j in reversed(range(count)):
        high = v // 10000
        quads[j] = v - high * 10000
        v = high
    return quads


def _times_pow10(x, p):
    """x * 10**p as an unevaluated sum hi + lo, exactly (Dekker's two-product)."""
    hi = x * _POW10[p]
    xh, xl = _split(x)
    lo = ((xh * _POW10_HI[p] - hi) + xh * _POW10_LO[p] + xl * _POW10_HI[p]) + xl * _POW10_LO[p]
    return hi, lo


def _decimal(x):
    """The 17 significant digits of each x in [_FIXED_LO, _FIXED_HI), its exponent, and which hold.

    With 10**k <= x < 10**(k+1), the exact product x * 10**(16-k) lies in
    [1e16, 1e17), and rounded to an integer it gives the digits.  A row
    whose product sits within 1e-6 of a rounding tie does not hold: there
    the half-even rule of %.17g would have to be reproduced.
    """
    k = np.clip(np.floor(np.log10(x)), -4, 16).astype(np.intp)
    hi, lo = _times_pow10(x, 16 - k)
    # log10 rounds, so next to a power of ten k may be one off; the product says which way.
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    if up.any() or down.any():
        k += up
        k -= down
        hi, lo = _times_pow10(x, 16 - k)
    below = np.floor(lo)
    rest = lo - below
    # No product rounds up to 1e17: the largest double below each power of
    # ten from 1e-4 to 1e17 gives a product at least 8 below it.
    digits = hi.astype(np.int64) + below.astype(np.int64) + (rest > 0.5)
    return digits, k, np.abs(rest - 0.5) >= 1e-6


def _fixed_cells(digits, k):
    """%.17g of digits * 10**(k-16), 17-digit digits and k in [-4, 16], as NUL-padded ASCII rows."""
    quads = _quads(digits, 5)
    # The quads after the first hold 16 digits; count their trailing zeros.
    zeros = np.take(_QUAD_ZEROS, quads[1:])
    trailing = zeros[3].astype(np.intp)
    for j in (2, 1, 0):
        trailing += (trailing == 4 * (3 - j)) * zeros[j]
    cells = np.empty((digits.size, 11), dtype=np.uint32)
    cells[:, :5] = cells[:, 6:] = np.take(_QUADS, quads.T)
    cells[:, 5] = _QUADS[_POINT]
    cells = cells.view(np.uint8)
    # The layout row of (k, end), end = 17 - trailing.
    cells &= np.take(_FIXED_LAYOUTS, (k + 4) * 17 + 16 - trailing, axis=0)
    return cells


def _int_cells(v):
    """Each int64 v >= 0 in decimal, as NUL-padded ASCII rows."""
    width = 1 + np.searchsorted(_INT_POWERS, v, side="right")
    count = -(-int(width.max()) // 4)
    chars = np.take(_QUADS, _quads(v, count).T).view(np.uint8)
    return chars * (np.arange(4 * count) >= 4 * count - width[:, None])


def _text_cells(values) -> NDArray[np.uint8]:
    """Each value spelled by :func:`format_field`, as the rows of a NUL-padded byte matrix."""
    cells = np.array([format_field(value) for value in values], dtype="S")
    return cells.view(np.uint8).reshape(len(values), cells.itemsize)


def _cells(column) -> NDArray[np.uint8]:
    """A column's fields, spelled as :func:`format_field` spells them, as NUL-padded ASCII rows.

    A float or int array is spelled vectorized where the exact fast paths
    apply, and value by value elsewhere; any other column is a sequence
    of values, spelled one by one.
    """
    if not isinstance(column, np.ndarray):
        return _text_cells(column)
    if column.dtype.kind == "f":
        fast = (column >= _FIXED_LO) & (column < _FIXED_HI)
        digits, k, holds = _decimal(np.where(fast, column, 1.0))
        cells = _fixed_cells(digits, k)
        fast &= holds
    else:
        column = column.astype(np.int64, copy=False)
        fast = column >= 0
        cells = _int_cells(np.where(fast, column, 0))
    if fast.all():
        return cells
    slow = ~fast
    other = _text_cells(column[slow].tolist())
    merged = np.zeros((column.size, max(cells.shape[1], other.shape[1])), dtype=np.uint8)
    merged[fast, : cells.shape[1]] = cells[fast]
    merged[slow, : other.shape[1]] = other
    return merged


def _write_table(stream: IO[str], header: str, columns) -> None:
    """Write ``header``, then a line of comma-separated fields per row of ``columns``.

    A column is an array or a sequence of values (see :func:`_cells`), or
    a function from row indices to an int array, which is called a block
    at a time; the sequences are equally long.  Each block of
    _WRITE_LINES lines is formatted column by column into one NUL-padded
    byte matrix, which loses its padding and is written at once.
    """
    stream.write(header + "\n")
    rows = next(len(column) for column in columns if not callable(column))
    for start in range(0, rows, _WRITE_LINES):
        stream.write(_lines(columns, start, min(start + _WRITE_LINES, rows)))


def _lines(columns, start: int, stop: int) -> str:
    """Lines ``start`` to ``stop`` of a table."""
    index = np.arange(start, stop)
    cells = [_cells(c(index) if callable(c) else c[start:stop]) for c in columns]
    lines = np.empty((stop - start, sum(c.shape[1] + 1 for c in cells)), dtype=np.uint8)
    end = 0
    for field in cells:
        lines[:, end : end + field.shape[1]] = field
        end += field.shape[1] + 1
        lines[:, end - 1] = ord(",")
    lines[:, -1] = ord("\n")
    # Each copy of the block goes as soon as the next one is made.
    del cells, field
    text = lines.tobytes()
    del lines
    return text.translate(None, b"\0").decode("ascii")


def write_trajectory_csv(traj: DeTrajectory, stream: IO[str]) -> None:
    """Long-format per-position table: iteration,position,sir,ber."""
    L = traj.sir.shape[1]
    columns = (lambda i: i // L, lambda i: i % L, traj.sir.ravel(), traj.ber.ravel())
    _write_table(stream, "iteration,position,sir,ber", columns)


def write_summary_csv(traj: DeTrajectory, stream: IO[str]) -> None:
    """Per-iteration summary table: iteration,avg_ber,min_ber,argmin_position."""
    columns = (lambda i: i, traj.avg_ber, traj.min_ber, traj.argmin_position)
    _write_table(stream, "iteration,avg_ber,min_ber,argmin_position", columns)
