"""The quadrature and the fit that derive ``mmse_pieces.npy``, kept as the tests' oracle.

:func:`mmse_bpsk` evaluates a piecewise polynomial table shipped as data
(``src/sccdma/mmse_pieces.npy``).  This module derives that table: a
Gauss-Hermite/trapezoid quadrature of the MMSE, interpolated at the
Chebyshev points of each piece.  The tests compare ``mmse_bpsk`` with the
quadrature, and the table with a refit on the test host.

To regenerate the table (after changing the quadrature or the pieces),
write ``mmse_pieces()`` with ``np.save(path, table, allow_pickle=False)``
and re-pin its sha256 in ``tests/test_density_evolution.py``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from sccdma.density_evolution import MMSE_CUTOFF, _horner, _nonnegative

_SQRT_PI = math.sqrt(math.pi)

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
# Rows of the trapezoid kernel per block: all 486 of the fit's points at once peak at 2.9 MiB.
_TRAP_BLOCK = 64


def mmse_quadrature(x, n_nodes: int = 60):
    """Reference MMSE by quadrature; :func:`mmse_bpsk` interpolates it.

    Gauss-Hermite quadrature with ``n_nodes`` nodes for x < 0.5 and the
    exact sech-kernel reformulation on a fixed trapezoidal grid above
    (see module comments); absolute error is below 1e-10 on [0, 50].
    Returns exactly 1 at x = 0 and exactly 0 for x > 50.  Builds an
    (n x 381) kernel in blocks of 64 rows.
    """
    if n_nodes < 60:
        raise ValueError(f"need at least 60 quadrature nodes, got {n_nodes}")
    arr = _nonnegative(x, "snr")
    flat = np.atleast_1d(arr)
    out = np.zeros(flat.shape, dtype=np.float64)

    small = flat < _GH_SWITCH
    if small.any():
        nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
        xs = flat[small][:, None]
        out[small] = 1.0 - (np.tanh(xs + np.sqrt(2.0 * xs) * nodes) @ weights) / _SQRT_PI

    mid = ~small & (flat <= MMSE_CUTOFF)
    if mid.any():
        xs = flat[mid]
        integral = np.empty(xs.size)
        for i in range(0, xs.size, _TRAP_BLOCK):
            kernel = _TRAP_SECH * np.exp(-_TRAP_USQ_HALF / xs[i : i + _TRAP_BLOCK, None])
            integral[i : i + _TRAP_BLOCK] = kernel.sum(axis=1)
        out[mid] = integral * _TRAP_STEP * np.exp(-0.5 * xs) / np.sqrt(2.0 * math.pi * xs)

    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# The table is a piecewise polynomial of degree MMSE_DEGREE interpolating
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
# the quadrature's step at 0.5 (see mmse_pieces); the fit samples 927
# quadrature nodes.
MMSE_DEGREE = 8
MMSE_UPPER = np.append(0.5 * 2.0 ** (np.arange(-48, 54) / 8.0), MMSE_CUTOFF)


def mmse_pieces() -> NDArray[np.float64]:
    """Coefficient table of :func:`mmse_bpsk`: column i is piece (lo, MMSE_UPPER[i]].

    Rows are lo, the inverse width, then the monomial coefficients c0..cd
    in t = (x - lo) / width of the degree-d interpolant of the quadrature
    at the piece's Chebyshev points; the first piece includes 0.  An extra
    all-zero column covers x > MMSE_CUTOFF, so ``MMSE_UPPER.searchsorted(x)``
    indexes the table directly.
    """
    lo = np.append(0.0, MMSE_UPPER[:-1])
    width = MMSE_UPPER - lo
    nodes = np.polynomial.chebyshev.chebpts1(MMSE_DEGREE + 1)
    samples = mmse_quadrature(lo[:, None] + width[:, None] * (0.5 * (nodes + 1.0)))
    # Fit in the Chebyshev basis, where the fit is well conditioned, then
    # convert: column j of to_monomial holds T_j(2t - 1)'s coefficients in t,
    # integers built exactly by T_{j+1} = 2 (2t - 1) T_j - T_{j-1}.
    coefs = np.polynomial.chebyshev.chebfit(nodes, samples.T, MMSE_DEGREE)
    to_monomial = np.zeros((MMSE_DEGREE + 1, MMSE_DEGREE + 1))
    to_monomial[0, 0] = 1.0
    to_monomial[:2, 1] = (-1.0, 2.0)
    for j in range(1, MMSE_DEGREE):
        to_monomial[1:, j + 1] = 4.0 * to_monomial[:-1, j]
        to_monomial[:, j + 1] -= 2.0 * to_monomial[:, j] + to_monomial[:, j - 1]
    table = np.pad(np.vstack((lo, 1.0 / width, to_monomial @ coefs)), ((0, 0), (0, 1)))
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
