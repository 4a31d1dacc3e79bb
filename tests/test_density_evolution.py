from __future__ import annotations

import hashlib
import functools
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from sccdma import (
    MMSE_CUTOFF,
    BaseMatrix,
    DeTrajectory,
    SystemScenario,
    TrainingAssignment,
    ber_of,
    de_step,
    make_regular,
    mmse_bpsk,
    qfunc,
    run_de,
    scalar_fixed_points,
    sigma2_from_db,
    sw_rewire,
    to_base_matrix,
    write_summary_csv,
    write_trajectory_csv,
)
from sccdma import density_evolution
from sccdma.density_evolution import (
    _BITS_INDEX_MIN,
    _MMSE_PIECES,
    _MMSE_UPPER,
    _PIECE_START,
    _Q_BLOCK,
    _Stack,
    _horner,
    _sir_floor,
    _piece_index,
)
from mmse_oracle import MMSE_UPPER, mmse_pieces, mmse_quadrature

# Gaussian upper-tail values from a 40-digit numerical integration of the
# standard normal density (mpmath.quad over [x, inf)), frozen.
Q_ORACLE = {
    -8.0: 0.9999999999999993779,
    -1.5: 0.933192798731141934,
    0.5: 0.30853753872598689636,
    1.0: 0.15865525393145705141,
    2.0: 0.0227501319481792072,
    3.0: 0.0013498980316300945267,
    5.0: 2.8665157187919391167e-7,
    8.0: 6.2209605742717841235e-16,
}
Q_SQRT10 = 7.8270112900127484e-4

# Monte-Carlo oracle for mmse_bpsk(1): mean of 1 - tanh(1 + Z) over 1e7
# standard normal draws, default_rng(20260814), frozen mean and std error.
MMSE_MC_MEAN = 0.44965063981421666
MMSE_MC_SE = 0.00015733833298007247

NO_TRAINING = TrainingAssignment((), 0)
UNCOUPLED = BaseMatrix(L=1, bsq=np.array([[1.0]]))

REG_T = TrainingAssignment(
    tuple(sorted(list(range(61, 64)) + list(range(0, 4)) + list(range(29, 36)))), 14
)


def _scenario(alpha, sigma2=0.1, alpha_tr=1.45, training=REG_T):
    return SystemScenario(sigma2=sigma2, alpha_tr=alpha_tr, alpha=alpha, training_set=training)


def test_sigma2_from_db():
    assert sigma2_from_db(10.0) == pytest.approx(0.1, rel=1e-15)
    assert sigma2_from_db(0.0) == pytest.approx(1.0, rel=1e-15)


def test_qfunc_symmetry_and_tail():
    assert qfunc(0.0) == 0.5
    assert qfunc(40.0) >= 0.0
    assert qfunc(40.0) < 1e-300
    assert qfunc(-0.0) == 0.5
    assert qfunc(np.inf) == 0.0 and qfunc(-np.inf) == 1.0
    assert np.isnan(qfunc(np.nan))
    xs = np.linspace(0.0, 9.0, 901)
    assert np.array_equal(qfunc(-xs), 1.0 - qfunc(xs))


def _scipy_q(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


def test_qfunc_matches_scipy_erfc():
    xs = np.linspace(-10.0, 10.0, 2_000_001)
    assert np.max(np.abs(qfunc(xs) / _scipy_q(xs) - 1.0)) <= 1e-14
    xs = np.linspace(-40.0, 40.0, 800_001)
    ref = _scipy_q(xs)
    normal = ref > 1e-300
    assert xs[normal].max() > 37.0
    assert np.max(np.abs(qfunc(xs[normal]) / ref[normal] - 1.0)) <= 1e-12
    assert np.all(qfunc(xs[~normal]) <= 1e-300)


def test_qfunc_against_tail_oracle():
    for x, expected in Q_ORACLE.items():
        assert abs(qfunc(x) - expected) <= 1e-12, x
    assert abs(qfunc(np.sqrt(10.0)) - Q_SQRT10) <= 1e-12


def test_qfunc_vectorized_matches_scalar():
    xs = np.linspace(-8.0, 8.0, 97)
    vec = qfunc(xs)
    assert np.array_equal(vec, np.array([qfunc(float(x)) for x in xs]))
    # Across the blocks a long array is evaluated in, and in any shape.
    xs = np.linspace(-40.0, 40.0, 3 * (_Q_BLOCK // 2 + 3)).reshape(3, -1)
    vec = qfunc(xs)
    assert vec.shape == xs.shape
    assert np.array_equal(vec.ravel(), [qfunc(float(x)) for x in xs.ravel()])


def test_qfunc_is_math_erfc_at_the_rounded_argument():
    # Bit for bit, over three blocks, and into erfc's subnormal tail.
    xs = np.linspace(-40.0, 40.0, 2 * _Q_BLOCK + 1001)
    upper = [0.5 * math.erfc(abs(x) / math.sqrt(2)) for x in xs.tolist()]
    expected = [1.0 - q if x < 0.0 else q for x, q in zip(xs.tolist(), upper)]
    assert 0.0 < min(q for q in upper if q > 0.0) < sys.float_info.min
    assert np.array_equal(qfunc(xs), expected)


def test_ber_of_examples():
    assert ber_of(0.0) == 0.5
    assert abs(ber_of(10.0) - 7.89e-4) <= 1e-5
    assert abs(ber_of(10.0) - Q_SQRT10) <= 1e-12
    grid = np.linspace(0.0, 20.0, 101)
    vals = ber_of(grid)
    assert np.all(np.diff(vals) <= 0)
    xs = np.array([0.0, 5e-324, 0.3, 2.0, 10.0, 1e3, np.inf])
    assert [ber_of(float(x)) for x in xs] == ber_of(xs).tolist()
    for bad in (-0.5, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            ber_of(bad)


def test_mmse_bpsk_endpoints():
    assert mmse_bpsk(0.0) == 1.0
    assert 0.0 < mmse_bpsk(MMSE_CUTOFF) < 1e-10
    for x in (np.nextafter(MMSE_CUTOFF, np.inf), 100.0, 1e300, np.inf):
        assert mmse_bpsk(x) == 0.0
    # +inf reads 0 in arrays too, on either side of the index crossover:
    # clipped to the cutoff before the piece index it would read mmse(50).
    assert mmse_bpsk(np.array([np.inf, 1.0])).tolist() == [0.0, mmse_bpsk(1.0)]
    assert (mmse_bpsk(np.full(_BITS_INDEX_MIN, np.inf)) == 0.0).all()


def test_mmse_bpsk_against_monte_carlo():
    assert abs(mmse_bpsk(1.0) - MMSE_MC_MEAN) <= 3.0 * MMSE_MC_SE


def test_mmse_bpsk_monotone_in_unit_interval():
    grid = np.arange(0.0, 20.0 + 1e-9, 0.1)
    vals = mmse_bpsk(grid)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0.0)


def test_mmse_quadrature_node_count_stability():
    grid = np.arange(0.0, 20.0 + 1e-9, 0.1)
    assert np.max(np.abs(mmse_quadrature(grid, n_nodes=60) - mmse_quadrature(grid, n_nodes=120))) <= 1e-9


def test_mmse_quadrature_domain_errors():
    with pytest.raises(ValueError):
        mmse_quadrature(-1e-9)
    with pytest.raises(ValueError):
        mmse_quadrature(1.0, n_nodes=40)


def test_mmse_bpsk_domain_errors():
    for bad in (-1e-9, np.nan, np.array([1.0, np.nan]), np.array([2.0, -np.inf])):
        with pytest.raises(ValueError):
            mmse_bpsk(bad)


def test_mmse_bpsk_vectorized_matches_scalar():
    # Horner's rule runs elementwise, so batching cannot change the rounding.
    xs = np.array([0.0, 1e-12, 0.05, 0.49, 0.5, 1.0, 9.4, 49.9, 50.0, 51.0, 200.0])
    vec = mmse_bpsk(xs)
    sca = np.array([mmse_bpsk(float(x)) for x in xs])
    np.testing.assert_array_equal(vec, sca)
    np.testing.assert_array_equal(mmse_bpsk(xs.reshape(1, -1, 1)).ravel(), vec)


# sha256 of every float of the table mmse_bpsk evaluates, as shipped.
MMSE_PIECES_SHA256 = "e0584d76b84898cb8023bf08df89f533dc8d028aee4be3a8193df4e56862e4c4"
# sha256 of mmse_bpsk(np.linspace(0.0, 60.0, 60_001)), recorded when the
# table was still fitted at import, on a host where that fit gave the pinned table.
MMSE_GRID_SHA256 = "715b0bf4277ef1b28880b175b823b169186d77768cf9f5657d189c51d66bae2c"


def test_mmse_table_ships_beside_the_module_as_float64_data():
    path = Path(density_evolution.__file__).with_name("mmse_pieces.npy")
    table = np.load(path, allow_pickle=False)
    assert (table.shape, table.dtype.str) == ((11, 104), "<f8")
    np.testing.assert_array_equal(table, _MMSE_PIECES)
    assert not _MMSE_PIECES.flags.writeable
    # The breaks are the pieces' lower ends, and the oracle's breaks.
    np.testing.assert_array_equal(_MMSE_UPPER, MMSE_UPPER)
    np.testing.assert_array_equal(_MMSE_PIECES[0], np.concatenate(([0.0], MMSE_UPPER[:-1], [0.0])))


def test_mmse_table_is_pinned_and_refits_on_this_host():
    # The oracle's fit re-derives the table here.  Its breaks and widths
    # come out exact; a host whose BLAS or libm rounds differently moves
    # the coefficients by up to 2.5e-11 of a piece's sum of |c| and the
    # values by a few ulp (2.2e-16 with Haswell OpenBLAS kernels, 2.3e-15
    # with numpy capped to SSE4 and Nehalem kernels), so values must agree
    # to 1e-14, the interpolant's own error against the quadrature.
    assert hashlib.sha256(_MMSE_PIECES.tobytes()).hexdigest() == MMSE_PIECES_SHA256
    refit = mmse_pieces()
    np.testing.assert_array_equal(refit[:2], _MMSE_PIECES[:2])
    grid = np.linspace(0.0, MMSE_CUTOFF, 200_001)
    refit_values = _horner(refit.take(_MMSE_UPPER.searchsorted(grid), axis=1), grid)
    assert np.max(np.abs(refit_values - mmse_bpsk(grid))) <= 1e-14


_PINS_CODE = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from mmse_oracle import mmse_pieces
from sccdma.density_evolution import _MMSE_PIECES, mmse_bpsk
grid = mmse_bpsk(np.linspace(0.0, 60.0, 60_001))
for arr in (_MMSE_PIECES, grid, mmse_pieces()):
    print(hashlib.sha256(arr.tobytes()).hexdigest())
"""


def test_mmse_bytes_hold_under_other_blas_kernels():
    # With a fit at import, Haswell kernels gave the table sha256 325ad52a...
    # and moved mmse_bpsk by up to 2.2e-16; shipped as data, neither moves.
    proc = subprocess.run(
        [sys.executable, "-c", _PINS_CODE, str(Path(__file__).parent)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
    )
    assert proc.returncode == 0, proc.stderr
    table, grid, refit = proc.stdout.split()
    if refit == hashlib.sha256(mmse_pieces().tobytes()).hexdigest():
        pytest.skip("the refit is the same under OPENBLAS_CORETYPE=Haswell: the host ignores it")
    assert (table, grid) == (MMSE_PIECES_SHA256, MMSE_GRID_SHA256)


def test_mmse_bpsk_matches_quadrature_on_dense_grids():
    dense = np.linspace(0.0, MMSE_CUTOFF, 1_000_001)
    fast = mmse_bpsk(dense)
    assert np.max(np.abs(fast - mmse_quadrature(dense))) <= 1e-12
    assert np.all(np.diff(fast) <= 0.0)
    small = np.logspace(-12.0, 0.0, 20_001)
    assert np.max(np.abs(mmse_bpsk(small) - mmse_quadrature(small))) <= 1e-12


def _mmse_mpmath(x: float) -> float:
    """1 - E[tanh(x + sqrt(x) Z)] by 40-digit mpmath.quad, split at the kink z = -sqrt(x) and at 0."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        root = mpmath.sqrt(x)
        integrand = lambda z: (1 - mpmath.tanh(x + root * z)) * mpmath.npdf(z)  # noqa: E731
        return float(mpmath.quad(integrand, [-mpmath.inf, -root, 0, mpmath.inf]))


MPMATH_POINTS = [
    1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.45, 0.5, 0.7, 1.0, 2.0, 5.0, 9.5, 15.0, 25.0, 40.0, 49.9
]


def test_mmse_bpsk_and_its_quadrature_match_mpmath():
    # An oracle independent of the quadrature the table was fitted to.
    # Worst seen: 7.0e-15 absolute at x = 0.5, where the quadrature
    # switches rules, and 3.8e-9 relative at x = 40, where mmse is 4e-10.
    exact = np.array([_mmse_mpmath(x) for x in MPMATH_POINTS])
    error = np.abs(mmse_bpsk(np.array(MPMATH_POINTS)) - exact)
    assert np.max(error) <= 1e-14
    assert np.max(error / exact) <= 1e-8
    assert np.max(np.abs(mmse_quadrature(np.array(MPMATH_POINTS)) - exact)) <= 1e-14


def test_mmse_bpsk_never_steps_up_at_piece_breaks():
    # Neighbouring pieces are fitted separately, and the quadrature changes
    # rules at 0.5 with a 6.6e-15 step up; the floats around every break
    # must still give nonincreasing values.
    for b in _MMSE_UPPER:
        xs = b + np.arange(-64, 65) * np.spacing(b)
        assert np.all(np.diff(mmse_bpsk(xs)) <= 0.0), b


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=0.0, max_value=60.0),
)
def test_mmse_bpsk_monotone_bounded_and_exact_property(u, v):
    a, b = min(u, v), max(u, v)
    fa, fb = mmse_bpsk(a), mmse_bpsk(b)
    assert 0.0 <= fb <= fa <= 1.0
    assert abs(fa - mmse_quadrature(a)) <= 1e-12
    assert abs(fb - mmse_quadrature(b)) <= 1e-12


def _break_neighbours():
    """Each piece break, both its float neighbours, and the ends of the index's range."""
    xs = [0.0, -0.0, 5e-324, 2.0**-8, np.nextafter(2.0**-8, 0.0), 50.0, 64.0, 1e300, np.inf]
    for b in _MMSE_UPPER:
        xs += [np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
    return np.array(xs)


def test_piece_index_from_bits_is_searchsorted_at_every_break():
    xs = _break_neighbours()
    np.testing.assert_array_equal(_piece_index(xs), _MMSE_UPPER.searchsorted(xs))
    # A strided 2-D view indexes as its copy does.
    grid = np.linspace(0.0, 60.0, 4096).reshape(64, 64)[:, ::3]
    np.testing.assert_array_equal(_piece_index(grid), _MMSE_UPPER.searchsorted(grid))
    # Each bucket of the bits holds at most one break, so one compare completes the count.
    assert set(np.diff(_PIECE_START).tolist()) == {0, 1}
    assert (_PIECE_START[0], _PIECE_START[-1]) == (0, _MMSE_UPPER.size)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=64.0), st.floats(min_value=0.0)),
        min_size=1,
        max_size=64,
    )
)
def test_piece_index_from_bits_is_searchsorted_property(xs):
    arr = np.array(xs, dtype=np.float64)
    np.testing.assert_array_equal(_piece_index(arr), _MMSE_UPPER.searchsorted(arr))


def test_mmse_bpsk_gives_the_same_bits_on_either_side_of_the_index_crossover():
    # Below _BITS_INDEX_MIN elements the piece comes from a binary search,
    # from there on from the bits: the same values must give the same bits.
    rng = np.random.default_rng(26)
    xs = np.concatenate([_break_neighbours(), rng.uniform(0.0, 60.0, _BITS_INDEX_MIN)])
    below = xs[: _BITS_INDEX_MIN - 1]
    above = xs[:_BITS_INDEX_MIN]
    assert below.size < _BITS_INDEX_MIN <= above.size
    np.testing.assert_array_equal(mmse_bpsk(above)[:-1], mmse_bpsk(below))
    np.testing.assert_array_equal(
        mmse_bpsk(above), np.array([mmse_bpsk(float(x)) for x in above])
    )


def test_mmse_kernel_gives_the_bits_of_mmse_bpsk():
    # de_step evaluates _mmse unchecked; on finite, nonnegative input it
    # must give mmse_bpsk's bits, from either side of the index crossover.
    breaks = _break_neighbours()
    xs = np.concatenate([
        breaks[np.isfinite(breaks)],
        MMSE_CUTOFF + np.arange(-64, 65) * math.ulp(MMSE_CUTOFF),
        np.geomspace(MMSE_CUTOFF, 1e300, 257),
        [sys.float_info.max],
        np.random.default_rng(36).uniform(0.0, 60.0, _BITS_INDEX_MIN),
    ])
    whole = density_evolution._mmse(xs)
    assert xs.size >= _BITS_INDEX_MIN
    step = _BITS_INDEX_MIN - 1
    searched = [density_evolution._mmse(xs[i : i + step]) for i in range(0, xs.size, step)]
    np.testing.assert_array_equal(np.concatenate(searched), whole)
    np.testing.assert_array_equal(mmse_bpsk(xs), whole)
    assert [mmse_bpsk(float(x)) for x in xs] == whole.tolist()
    # A stack of states, as de_step passes it.
    stack = xs[: 9 * 64].reshape(9, 64)
    np.testing.assert_array_equal(density_evolution._mmse(stack), whole[: 9 * 64].reshape(9, 64))
    assert (whole[xs > MMSE_CUTOFF] == 0.0).all()


def _step(sir, B, scen):
    return de_step(sir, B.bsq, scen.sigma2, scen.row_loads(B.L))


def test_de_step_hand_case():
    scen = _scenario(1.73, training=NO_TRAINING)
    sir = run_de(UNCOUPLED, scen, max_iter=1).sir[0]
    assert sir[0] == 0.0
    sir, sigma2_rows = _step(sir, UNCOUPLED, scen)
    assert sigma2_rows[0] == pytest.approx(0.1 + 1.73 * 1.0, abs=1e-12)
    assert sir[0] == pytest.approx(1.0 / 1.83, abs=1e-12)
    assert sir[0] == pytest.approx(0.546448, abs=1e-6)


def test_de_step_sir_upper_bound():
    B = to_base_matrix(make_regular(64, 2))
    scen = _scenario(1.9)
    sir = np.zeros(B.L)
    for _ in range(30):
        sir, _ = _step(sir, B, scen)
        assert np.all(sir <= 1.0 / scen.sigma2 + 1e-12)


def test_de_step_two_steps_monotone_against_reevaluation():
    # Independent re-evaluation of the recursion in straight numpy.
    B = to_base_matrix(make_regular(32, 2))
    T = TrainingAssignment((0, 1, 15, 16), 4)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.9, training_set=T)
    loads = np.where(np.isin(np.arange(32), T.training_set), 1.2, 1.9)

    sir = np.zeros(32)
    snapshots = [sir]
    for _ in range(2):
        s2 = 0.1 + loads * (B.bsq @ mmse_bpsk(sir))
        sir = (B.bsq / s2[:, None]).sum(axis=0)
        snapshots.append(sir)

    sir, _ = _step(np.zeros(32), B, scen)
    assert np.allclose(sir, snapshots[1], rtol=1e-13, atol=1e-15)
    sir, _ = _step(sir, B, scen)
    assert np.allclose(sir, snapshots[2], rtol=1e-13, atol=1e-15)
    assert np.all(snapshots[2] >= snapshots[1])


def test_de_step_dimension_mismatch():
    B = to_base_matrix(make_regular(32, 2))
    scen = _scenario(1.9, training=NO_TRAINING)
    sir = run_de(B, scen, max_iter=1).sir[-1]
    B8 = to_base_matrix(make_regular(8, 1))
    with pytest.raises(ValueError):
        _step(sir, B8, scen)


def test_de_step_stack_rows_equal_single_calls():
    # A row's update must not depend on the stack it sits in: bisection
    # runs probes in lockstep and logs what one run at a time would give.
    rng = np.random.default_rng(31)
    rewired, _ = sw_rewire(64, 2, 0.2, 2, 14, 23)
    cases = (
        (to_base_matrix(make_regular(64, 2)).bsq, range(1, 16)),
        (to_base_matrix(rewired).bsq, range(1, 16)),
        (UNCOUPLED.bsq, range(1, 16)),
        # An odd size and the largest chain, where matvec blocks differently.
        (to_base_matrix(make_regular(257, 2)).bsq, (1, 2, 7)),
        (to_base_matrix(make_regular(2048, 2)).bsq, (1, 2, 7)),
    )
    for bsq, sizes in cases:
        L = bsq.shape[0]
        for n in sizes:
            sir = rng.uniform(0.0, 12.0, (n, L))
            sir[rng.random((n, L)) < 0.3] = 0.0
            sir[0] = 0.0
            loads = rng.uniform(0.5, 2.5, (n, L))
            new, sigma2_rows = de_step(sir, bsq, 0.1, loads)
            assert new.shape == sigma2_rows.shape == (n, L)
            for i in range(n):
                one, one_rows = de_step(sir[i], bsq, 0.1, loads[i])
                assert np.array_equal(new[i], one), (L, n, i)
                assert np.array_equal(sigma2_rows[i], one_rows), (L, n, i)
    # Rows that carry their own bsq, as search stacks its instances: a
    # regular band, then rewired ones (at the prime L = 257, which no
    # cluster count divides, bands of other widths).
    for L, W, tau, sizes in ((16, 1, 3, (1, 2, 33)), (64, 2, 14, (2, 7, 33)), (257, 2, 14, (2, 5))):
        for n in sizes:
            if L == 257:
                graphs = [make_regular(L, width) for width in range(2, n + 2)]
            else:
                graphs = [make_regular(L, W)]
                graphs += [sw_rewire(L, W, 0.3, 2, tau, seed)[0] for seed in range(n - 1)]
            bsq = np.stack([to_base_matrix(g).bsq for g in graphs])
            sir = rng.uniform(0.0, 12.0, (n, L))
            sir[0] = 0.0
            loads = rng.uniform(0.5, 2.5, (n, L))
            new, sigma2_rows = de_step(sir, bsq, 0.1, loads)
            assert new.shape == sigma2_rows.shape == (n, L)
            for i in range(n):
                one, one_rows = de_step(sir[i], bsq[i], 0.1, loads[i])
                assert np.array_equal(new[i], one), (L, n, i)
                assert np.array_equal(sigma2_rows[i], one_rows), (L, n, i)


def test_lockstep_rows_joining_late_stop_where_run_de_stops():
    # Rows join a running stack at different steps, as probes join
    # speculative bisection, and leave once they stop.  Each must end with
    # run_de's last state, converged flag and step count for its load
    # alone.  With 62 steps, load 1.75 converges on its last allowed step
    # and loads 1.8-1.9 run out (alone they take 388, 104 and 75); 1.85
    # starts one step ahead, so it runs out while 1.8 has one step left.
    g, assignment = sw_rewire(32, 2, 0.4, 2, 6, 3)
    B = to_base_matrix(g)
    max_iter, tol = 62, 1e-8

    def row_loads(alpha):
        return _scenario(alpha, training=assignment).row_loads(B.L)

    stack = _Stack(B.L, 8, B.bsq)
    stack.join(1.85, row_loads(1.85))
    # The head start: its slot holds the state after one step, and it
    # started one clock tick before the stack's.
    stack.sir[0], _ = de_step(np.zeros(B.L), B.bsq, 0.1, row_loads(1.85))
    stack.start[0] -= 1
    joined_at, outcomes = {1.85: -1}, {}
    pending = [1.8, 1.2, 1.5, 1.75, 2.2, 1.9, 2.5]
    while pending or stack:
        for alpha in pending[:2]:
            stack.join(alpha, row_loads(alpha))
            joined_at[alpha] = stack.clock
        del pending[:2]
        alphas, sir, steps, converged, _ = stack.run(0.1, max_iter, tol)
        for alpha, last, n_steps, ok in zip(alphas, sir, steps, converged):
            outcomes[alpha] = (last, ok, n_steps)
    assert len(set(joined_at.values())) == 5
    assert outcomes.keys() == joined_at.keys()
    for alpha, (last, converged, n_steps) in outcomes.items():
        traj = run_de(B, _scenario(alpha, training=assignment), max_iter=max_iter, tol=tol)
        assert np.array_equal(last, traj.sir[-1]), alpha
        assert (converged, n_steps) == (traj.converged, traj.iterations_run), alpha
    assert outcomes[1.75][1:] == (True, max_iter)
    assert [outcomes[a][1:] for a in (1.8, 1.85, 1.9)] == [(False, max_iter)] * 3


def test_lockstep_rows_with_their_own_graphs_are_monotone_and_equal_run_de():
    # Search stacks instances of different rewired graphs, each with its
    # own bsq.  Rows join the stack two at a time, whenever a row stops,
    # and each keeps its own 60-step budget: (0, 1.8), (1, 1.85), (2, 1.9)
    # and (2, 1.75) run out (alone they take 244, 156, 110 and 61 steps)
    # and (1, 1.75) converges on its last step.  Every row's path must be
    # nondecreasing and equal run_de's table for its graph and load alone.
    max_iter, tol = 60, 1e-8
    graphs = {seed: sw_rewire(32, 2, 0.4, 2, 6, seed) for seed in range(4)}
    cases = [(3, 1.2), (0, 1.8), (1, 1.75), (2, 2.2), (1, 1.85), (0, 2.5), (2, 1.9), (2, 1.75)]

    def scenario(case):
        seed, alpha = case
        return _scenario(alpha, training=graphs[seed][1])

    def base(case):
        return to_base_matrix(graphs[case[0]][0])

    stack = _Stack(32, len(cases))
    pending, paths, outcomes, joined_at = list(cases), {}, {}, {}

    def record(state):
        for case, row in zip(stack.ids, state):
            paths[case].append(row)

    while pending or stack:
        for case in pending[:2]:
            stack.join(case, scenario(case).row_loads(32), base(case).bsq)
            paths[case], joined_at[case] = [np.zeros(32)], stack.clock
        del pending[:2]
        ids, _, steps, converged, _ = stack.run(0.1, max_iter, tol, record)
        for case, n_steps, ok in zip(ids, steps, converged):
            outcomes[case] = (ok, n_steps)
    assert len(set(joined_at.values())) == 4
    for case in cases:
        path = np.array(paths[case])
        assert np.all(np.diff(path, axis=0) >= 0.0), case
        traj = run_de(base(case), scenario(case), max_iter=max_iter, tol=tol)
        assert np.array_equal(path, traj.sir), case
        assert outcomes[case] == (traj.converged, traj.iterations_run), case
    assert outcomes[(1, 1.75)] == (True, max_iter)
    assert sum(outcome == (False, max_iter) for outcome in outcomes.values()) == 4


# Four rewired graphs of one ensemble, and loads on both sides of their thresholds.
_STACK_GRAPHS = [sw_rewire(32, 2, 0.4, 2, 6, seed) for seed in range(4)]
_STACK_ALPHAS = (1.2, 1.75, 1.85, 2.2, 2.5)
_STACK_BUDGET = 40


@functools.lru_cache(maxsize=None)
def _stack_reference(graph, alpha):
    g, assignment = _STACK_GRAPHS[graph]
    scen = _scenario(alpha, training=assignment)
    return to_base_matrix(g).bsq, scen.row_loads(32), run_de(
        to_base_matrix(g), scen, max_iter=_STACK_BUDGET
    )


@settings(max_examples=100, deadline=None)
@given(
    per_row_bsq=st.booleans(),
    certify=st.booleans(),
    slots=st.integers(1, 4),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("join"), st.integers(0, 3), st.integers(0, 4)),
            st.tuples(st.just("drop"), st.integers(0, 3)),
            st.just(("run",)),
        ),
        max_size=30,
    ),
)
# Load 2.5 is certified at step 10, so the row of load 1.2 moves into its slot.
@example(
    per_row_bsq=False, certify=True, slots=3,
    ops=[("join", 0, 4), ("join", 0, 1), ("join", 0, 0), ("run",), ("run",)],
)
# A dropped bottom row: the top row moves down with its own graph.
@example(
    per_row_bsq=True, certify=False, slots=3,
    ops=[("join", 1, 1), ("join", 2, 0), ("join", 3, 2), ("drop", 0), ("run",), ("run",)],
)
def test_stack_rows_stop_where_run_de_stops_under_any_schedule(per_row_bsq, certify, slots, ops):
    # Rows join, are dropped unfinished and run in any order.  A row that
    # stops has run_de's state, step count and converged flag for its
    # graph and load alone, or, certified, run_de's state at its step; a
    # dropped row never comes back; a join takes a freed slot before a new
    # one, so the stack never outgrows ``slots``; the rows that step are
    # the first slots, each at its own state and with the last sir change
    # it brought into the run, wherever it moved.
    floor = _sir_floor(2e-3) if certify else None
    stack = _Stack(32, slots, None if per_row_bsq else _stack_reference(0, 1.2)[0])
    cases, dropped, stopped = {}, set(), set()
    run_start = 0

    def record(state):
        ids = stack.ids[: len(state)]
        assert None not in ids and stack.ids[len(state) :] == [None] * (slots - len(state))
        assert dropped.isdisjoint(ids)
        for slot, row in enumerate(ids):
            path = _stack_reference(*cases[row])[2].sir
            assert np.array_equal(state[slot], path[stack.clock - stack.start[slot]])
            k = run_start - stack.start[slot]
            assert stack.last[slot] == (np.max(abs(path[k] - path[k - 1])) if k else math.inf)

    def run():
        nonlocal run_start
        run_start = stack.clock
        ids, sir, steps, converged, _ = stack.run(0.1, _STACK_BUDGET, 1e-8, record, floor)
        assert ids and stopped.isdisjoint(ids) and dropped.isdisjoint(ids)
        stopped.update(ids)
        for row, state, n_steps, ok in zip(ids, sir, steps, converged):
            traj = _stack_reference(*cases[row])[2]
            if ok or n_steps == _STACK_BUDGET:
                assert (ok, n_steps) == (traj.converged, traj.iterations_run)
            else:
                assert certify and n_steps < traj.iterations_run
            assert np.array_equal(state, traj.sir[n_steps])

    for op, *args in ops:
        if op == "join" and len(stack) < slots:
            graph = args[0] if per_row_bsq else 0
            bsq, loads, _ = _stack_reference(graph, _STACK_ALPHAS[args[1]])
            free = stack.ids.index(None)
            row = len(cases)
            cases[row] = (graph, _STACK_ALPHAS[args[1]])
            stack.join(row, loads, bsq if per_row_bsq else None)
            assert stack.ids.index(row) == free
        elif op == "drop" and len(stack):
            live = [row for row in stack.ids if row is not None]
            victim = live[args[0] % len(live)]
            stack.drop({victim})
            dropped.add(victim)
            assert victim not in stack.ids
        elif op == "run" and len(stack):
            run()
    while stack:
        run()
    assert stopped | dropped == cases.keys()


def test_run_de_rejects_training_index_beyond_chain():
    B8 = to_base_matrix(make_regular(8, 1))
    scen = _scenario(1.9, training=TrainingAssignment((8,), 1))
    with pytest.raises(ValueError, match="out of range for chain length 8"):
        run_de(B8, scen)


def test_run_de_uncoupled_below_threshold_matches_scalar_root():
    # Bracketed root of x * (0.1 + 1.5 * mmse(x)) = 1, frozen from a
    # 1e6-point dense-grid scan with bisection refinement.
    root = 9.561321179897
    traj = run_de(UNCOUPLED, _scenario(1.5, training=NO_TRAINING))
    assert traj.converged
    assert traj.sir[-1][0] == pytest.approx(root, abs=1e-6)
    assert traj.ber[-1][0] < 1e-3


def test_run_de_uncoupled_above_threshold_stuck():
    traj = run_de(UNCOUPLED, _scenario(1.9, training=NO_TRAINING))
    assert traj.converged
    assert traj.ber[-1][0] > 1e-2


def test_run_de_uncoupled_converges_at_the_largest_budget():
    # 2^62, the largest budget check_de_budget accepts, runs as a small one does.
    traj = run_de(UNCOUPLED, _scenario(1.5, training=NO_TRAINING), max_iter=2**62)
    assert traj.converged
    small = run_de(UNCOUPLED, _scenario(1.5, training=NO_TRAINING))
    assert traj.iterations_run == small.iterations_run
    assert np.array_equal(traj.sir, small.sir)


def test_run_de_regular_coupled_wave():
    # Regular (64, 2) at alpha=1.9: the wave clears every position down to
    # the fixed-point floor (~1.08e-3, just above 1e-3) within 1000
    # iterations.
    traj = run_de(to_base_matrix(make_regular(64, 2)), _scenario(1.9))
    assert traj.converged
    assert traj.iterations_run == 95
    assert float(traj.ber[-1].max()) == pytest.approx(1.0819822348605605e-3, rel=1e-9)
    assert float(traj.ber[-1].max()) <= 2e-3
    hits = np.nonzero(traj.avg_ber <= 2e-3)[0]
    assert hits.size and int(hits[0]) == 78


@pytest.mark.parametrize(
    "alpha, max_ber",
    [(1.8, 1.0578066e-3), (1.9, 1.0819822e-3), (1.98, 1.1025134e-3)],
)
def test_regular_coupled_floor_sits_just_below_the_uncoupled_upper_root(alpha, max_ber):
    # Regular (64, 2) with criterion-2 training converges to a fixed point
    # whose largest BER lies 2-6e-6 relative below the BER of x3, the
    # upper root of the uncoupled recursion at the same load: above the
    # 1e-3 that acceptance criteria 4-6 ask for at 10 dB.
    traj = run_de(to_base_matrix(make_regular(64, 2)), _scenario(alpha))
    assert traj.converged
    reached = float(traj.ber[-1].max())
    assert reached == pytest.approx(max_ber, rel=1e-7)
    upper = float(ber_of(scalar_fixed_points(alpha, 0.1)[-1]))
    assert 1e-6 < (upper - reached) / upper < 1e-5


def test_run_de_records_initial_half_ber_row():
    traj = run_de(UNCOUPLED, _scenario(1.5, training=NO_TRAINING), max_iter=5)
    assert traj.ber[0][0] == 0.5
    assert traj.sir[0][0] == 0.0
    assert traj.sir.shape[0] == traj.iterations_run + 1


def test_monotone_de_on_random_configurations():
    # 50 seeded configurations, mixed regular and rewired graphs.
    rng = np.random.default_rng(2024)
    done = 0
    while done < 50:
        W = int(rng.integers(1, 4))
        L = int(rng.integers(2 * W + 2, 49))
        sigma2 = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.5, 2.2))
        alpha_tr = float(rng.uniform(0.3, alpha))
        g = make_regular(L, W)
        if L % 2 == 0 and L // 2 > 4 * W and rng.random() < 0.5:
            g, ta = sw_rewire(L, W, float(rng.uniform(0.0, 0.3)), 2, int(rng.integers(1, L // 2)), int(rng.integers(1 << 32)))
        else:
            tau = int(rng.integers(0, L // 2 + 1))
            ta = TrainingAssignment(tuple(sorted(rng.choice(L, size=tau, replace=False).tolist())), tau)
        scen = SystemScenario(sigma2=sigma2, alpha_tr=alpha_tr, alpha=alpha, training_set=ta)
        traj = run_de(to_base_matrix(g), scen, max_iter=40)
        assert np.all(np.diff(traj.sir, axis=0) >= -1e-12), (L, W, sigma2, alpha)
        done += 1


def test_state_bounds_regular_and_rewired():
    # Exact row-noise bound sigma2 + alpha_l on unit row sums; the general
    # bound scales with the row sum for rewired rows carrying extra edges.
    scen = _scenario(1.9)
    B = to_base_matrix(make_regular(64, 2))
    loads = scen.row_loads(64)
    sir = np.zeros(64)
    for _ in range(20):
        sir, sigma2_rows = de_step(sir, B.bsq, scen.sigma2, loads)
        assert np.all(sigma2_rows >= scen.sigma2)
        assert np.all(sigma2_rows <= scen.sigma2 + loads + 1e-12)
        assert np.all(sir <= 1.0 / scen.sigma2 + 1e-12)
        assert np.all(sir >= 1.0 / (scen.sigma2 + loads.max()) - 1e-12)

    g, ta = sw_rewire(64, 2, 0.2, 2, 14, 17)
    B2 = to_base_matrix(g)
    scen2 = _scenario(1.9, training=ta)
    loads2 = scen2.row_loads(64)
    rowsum = B2.bsq.sum(axis=1)
    sir = np.zeros(64)
    for _ in range(20):
        sir, sigma2_rows = de_step(sir, B2.bsq, scen2.sigma2, loads2)
        assert np.all(sigma2_rows <= scen2.sigma2 + loads2 * rowsum + 1e-12)
        assert np.all(sir >= 1.0 / (scen2.sigma2 + (loads2 * rowsum).max()) - 1e-12)


def test_trajectory_ber_consistency():
    traj = run_de(to_base_matrix(make_regular(32, 2)), _scenario(1.8, training=TrainingAssignment((0, 16), 2)), max_iter=60)
    assert np.max(np.abs(traj.ber - ber_of(traj.sir))) <= 1e-14
    assert np.allclose(traj.avg_ber, traj.ber.mean(axis=1), atol=1e-15)
    assert np.allclose(traj.min_ber, traj.ber.min(axis=1), atol=1e-15)


def test_trajectory_derives_its_tables_from_sir():
    sir = np.array([[0.0, 0.0], [1.0, 4.0], [9.0, 2.0]])
    traj = DeTrajectory(sir=sir, converged=False)
    assert np.array_equal(traj.ber, ber_of(sir))
    assert np.array_equal(traj.avg_ber, traj.ber.mean(axis=1))
    assert np.array_equal(traj.min_ber, traj.ber.min(axis=1))
    assert traj.argmin_position.tolist() == [0, 1, 0]
    assert traj.iterations_run == 2
    for name in ("sir", "ber", "avg_ber", "min_ber", "argmin_position"):
        assert not getattr(traj, name).flags.writeable, name
    with pytest.raises(TypeError):
        DeTrajectory(sir=sir, converged=False, iterations_run=2)
    with pytest.raises(ValueError, match="nonnegative"):
        DeTrajectory(sir=-sir, converged=False)


def test_scenario_rejects_loads_whose_noise_level_overflows():
    # A bsq row sums to at most L <= MAX_CHAIN_LENGTH, so de_step's noise
    # level stays below sigma2 + max(alpha_tr, alpha) * MAX_CHAIN_LENGTH.
    _scenario(1e300, sigma2=1e300, alpha_tr=1e300)
    for bad in (dict(alpha=1e308, sigma2=1e308), dict(alpha=1.9, alpha_tr=1e306), dict(alpha=1e306)):
        with pytest.raises(ValueError, match="noise bound"):
            _scenario(**bad)


def test_trajectory_permutation_equivariance():
    L = 32
    B = to_base_matrix(make_regular(L, 2))
    T = (0, 1, 2, 15, 16, 17)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.3, alpha=1.9, training_set=TrainingAssignment(T, 6))
    traj = run_de(B, scen, max_iter=50)

    perm = np.random.default_rng(5).permutation(L)
    B2 = BaseMatrix(L=L, bsq=B.bsq[perm][:, perm])
    T2 = tuple(sorted(int(i) for i in np.nonzero(np.isin(perm, T))[0]))
    scen2 = SystemScenario(sigma2=0.1, alpha_tr=1.3, alpha=1.9, training_set=TrainingAssignment(T2, 6))
    traj2 = run_de(B2, scen2, max_iter=50)

    assert np.allclose(traj2.sir, traj.sir[:, perm], rtol=1e-12, atol=1e-14)


def test_trajectory_csv_round_trip():
    traj = run_de(UNCOUPLED, _scenario(1.5, training=NO_TRAINING), max_iter=8)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "iteration,position,sir,ber"
    assert len(lines) == 1 + traj.sir.size
    it, pos, sir, ber = lines[5].split(",")
    i, m = int(it), int(pos)
    assert float(sir) == traj.sir[i, m]
    assert float(ber) == traj.ber[i, m]

    buf = io.StringIO()
    write_summary_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "iteration,avg_ber,min_ber,argmin_position"
    assert len(lines) == 1 + traj.avg_ber.size
    row = lines[3].split(",")
    i = int(row[0])
    assert float(row[1]) == traj.avg_ber[i]
    assert int(row[3]) == traj.argmin_position[i]


def test_trajectory_csv_matches_per_cell_format_across_blocks():
    # 215 x 64 cells: the writer formats them in two blocks.
    traj = run_de(to_base_matrix(make_regular(64, 2)), _scenario(1.97), max_iter=500)
    assert traj.sir.size > 8192
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    want = ["iteration,position,sir,ber\n"]
    for i in range(traj.sir.shape[0]):
        for m in range(traj.sir.shape[1]):
            want.append(f"{i},{m},{traj.sir[i, m]:.17g},{traj.ber[i, m]:.17g}\n")
    assert buf.getvalue() == "".join(want)
