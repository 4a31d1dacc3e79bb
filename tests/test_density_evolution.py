from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from sccdma import (
    MMSE_CUTOFF,
    BaseMatrix,
    SystemScenario,
    TrainingAssignment,
    ber_of,
    de_step,
    make_regular,
    mmse_bpsk,
    qfunc,
    run_de,
    sigma2_from_db,
    sw_rewire,
    to_base_matrix,
    write_summary_csv,
    write_trajectory_csv,
)
from sccdma.density_evolution import _MMSE_UPPER, _Q_BLOCK, _lockstep, _mmse_quadrature

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


def test_ber_of_examples():
    assert ber_of(0.0) == 0.5
    assert abs(ber_of(10.0) - 7.89e-4) <= 1e-5
    assert abs(ber_of(10.0) - Q_SQRT10) <= 1e-12
    grid = np.linspace(0.0, 20.0, 101)
    vals = ber_of(grid)
    assert np.all(np.diff(vals) <= 0)
    for bad in (-0.5, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            ber_of(bad)


def test_mmse_bpsk_endpoints():
    assert mmse_bpsk(0.0) == 1.0
    assert 0.0 < mmse_bpsk(MMSE_CUTOFF) < 1e-10
    for x in (np.nextafter(MMSE_CUTOFF, np.inf), 100.0, 1e300, np.inf):
        assert mmse_bpsk(x) == 0.0


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
    assert np.max(np.abs(_mmse_quadrature(grid, n_nodes=60) - _mmse_quadrature(grid, n_nodes=120))) <= 1e-9


def test_mmse_quadrature_domain_errors():
    with pytest.raises(ValueError):
        _mmse_quadrature(-1e-9)
    with pytest.raises(ValueError):
        _mmse_quadrature(1.0, n_nodes=40)


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


def _quadrature_chunked(x):
    out = np.empty_like(x)
    for i in range(0, x.size, 16384):
        out[i : i + 16384] = _mmse_quadrature(x[i : i + 16384])
    return out


def test_mmse_bpsk_matches_quadrature_on_dense_grids():
    dense = np.linspace(0.0, MMSE_CUTOFF, 1_000_001)
    fast = mmse_bpsk(dense)
    assert np.max(np.abs(fast - _quadrature_chunked(dense))) <= 1e-12
    assert np.all(np.diff(fast) <= 0.0)
    small = np.logspace(-12.0, 0.0, 20_001)
    assert np.max(np.abs(mmse_bpsk(small) - _mmse_quadrature(small))) <= 1e-12


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
    assert abs(fa - _mmse_quadrature(a)) <= 1e-12
    assert abs(fb - _mmse_quadrature(b)) <= 1e-12


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
    rewired, _ = sw_rewire(make_regular(64, 2), 0.2, 2, 14, 23)
    matrices = (
        to_base_matrix(make_regular(64, 2)).bsq,
        to_base_matrix(rewired).bsq,
        UNCOUPLED.bsq,
    )
    for bsq in matrices:
        L = bsq.shape[0]
        for n in range(1, 16):
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


def test_lockstep_rows_joining_late_stop_where_run_de_stops():
    # Rows join a running stack at different steps, as probes join
    # speculative bisection, and leave once they stop.  Each must end with
    # run_de's last state, converged flag and step count for its load
    # alone.  With 62 steps, load 1.75 converges on its last allowed step
    # and loads 1.8-1.9 run out (alone they take 388, 104 and 75); 1.85
    # starts one step ahead, so it runs out while 1.8 has one step left.
    g, assignment = sw_rewire(make_regular(32, 2), 0.4, 2, 6, 3)
    B = to_base_matrix(g)
    max_iter, tol = 62, 1e-8

    def row_loads(alpha):
        return _scenario(alpha, training=assignment).row_loads(B.L)

    ahead, ahead_steps, _, _ = _lockstep(np.zeros(B.L), 0, B.bsq, 0.1, row_loads(1.85), 1, tol)
    alphas, joined_at, outcomes = [1.85], {1.85: -1}, {}
    sir, loads, steps = ahead[None, :], row_loads(1.85)[None, :], np.array([ahead_steps])
    pending = [1.8, 1.2, 1.5, 1.75, 2.2, 1.9, 2.5]
    clock = 0
    while pending or alphas:
        for alpha in pending[:2]:
            alphas.append(alpha)
            joined_at[alpha] = clock
            sir = np.vstack([sir, np.zeros(B.L)])
            loads = np.vstack([loads, row_loads(alpha)])
            steps = np.append(steps, 0)
        del pending[:2]
        before = int(steps[0])
        sir, steps, converged, done = _lockstep(sir, steps, B.bsq, 0.1, loads, max_iter, tol)
        clock += int(steps[0]) - before
        for i in np.flatnonzero(done):
            outcomes[alphas[i]] = (sir[i], bool(converged[i]), int(steps[i]))
        keep = np.flatnonzero(~done)
        sir, loads, steps = sir[keep], loads[keep], steps[keep]
        alphas = [alphas[i] for i in keep]
    assert len(set(joined_at.values())) == 5
    for alpha, (last, converged, n_steps) in outcomes.items():
        traj = run_de(B, _scenario(alpha, training=assignment), max_iter=max_iter, tol=tol)
        assert np.array_equal(last, traj.sir[-1]), alpha
        assert (converged, n_steps) == (traj.converged, traj.iterations_run), alpha
    assert outcomes[1.75][1:] == (True, max_iter)
    assert [outcomes[a][1:] for a in (1.8, 1.85, 1.9)] == [(False, max_iter)] * 3


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
            g, ta = sw_rewire(g, float(rng.uniform(0.0, 0.3)), 2, int(rng.integers(1, L // 2)), int(rng.integers(1 << 32)))
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

    g, ta = sw_rewire(make_regular(64, 2), 0.2, 2, 14, 17)
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
