from __future__ import annotations

import io
import time

import numpy as np
import pytest

from sccdma import (
    BaseMatrix,
    BracketError,
    DeEvaluation,
    ThresholdQuery,
    ThresholdResult,
    TrainingAssignment,
    average_load,
    bp_threshold,
    de_success,
    make_regular,
    run_de,
    scalar_fixed_points,
    sw_rewire,
    to_base_matrix,
    write_evaluation_log_csv,
    write_threshold_csv,
)
from sccdma import density_evolution, threshold
from sccdma.threshold import _check_monotone

UNCOUPLED = BaseMatrix(L=1, bsq=np.array([[1.0]]))
NO_TRAINING = TrainingAssignment((), 0)

REG_T = TrainingAssignment(
    tuple(sorted(list(range(61, 64)) + list(range(0, 4)) + list(range(29, 36)))), 14
)

# Roots of x * (sigma2 + alpha * mmse(x)) = 1, frozen from a 1e6-point
# dense-grid scan with bisection refinement to 1e-12.
ROOTS_A10 = [9.728204084914]
ROOTS_A19 = [1.150400336737, 3.092746938389, 9.404976496259]
ROOTS_NOISY = [0.009901951420]


def _uncoupled_query(**overrides):
    kwargs = dict(
        B=UNCOUPLED,
        sigma2=0.1,
        alpha_tr=1.0,
        training_set=NO_TRAINING,
        alpha_lo=1.0,
        alpha_hi=2.5,
    )
    kwargs.update(overrides)
    return ThresholdQuery(**kwargs)


def test_query_rejects_inverted_bracket():
    with pytest.raises(BracketError):
        _uncoupled_query(alpha_lo=2.0, alpha_hi=1.0)


def test_query_rejects_success_ber_below_single_user_bound():
    # Q(sqrt(10)) ~ 7.83e-4 can never be beaten at 10 dB.
    with pytest.raises(ValueError):
        _uncoupled_query(success_ber=5e-4)


def test_query_rejects_nonpositive_parameters():
    for bad in (
        dict(sigma2=0.0),
        dict(sigma2=-0.1),
        dict(alpha_tr=0.0),
        dict(alpha_lo=0.0),
        dict(alpha_lo=-1.0, alpha_hi=-0.5),
        dict(alpha_hi=0.0),
        dict(sigma2=float("nan")),
        dict(sigma2=1e-320),
        dict(alpha_tr=float("inf")),
        dict(alpha_lo=float("nan")),
        dict(alpha_hi=float("inf")),
    ):
        with pytest.raises(ValueError):
            _uncoupled_query(**bad)
    # Below two float spacings at alpha_hi, bisection could stop shrinking.
    for tol in (0.0, float("nan"), float("inf"), 1e-300, 4e-16):
        with pytest.raises(ValueError, match="alpha_tol"):
            _uncoupled_query(alpha_tol=tol)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        de_success(float("nan"), _uncoupled_query())
    with pytest.raises(ValueError):
        _uncoupled_query(success_ber=1.5)


def test_de_success_bracket_examples():
    q = _uncoupled_query()
    assert de_success(1.6, q) is True
    assert de_success(1.8, q) is False


def test_de_success_half_ber_always_succeeds():
    q = _uncoupled_query(success_ber=0.5)
    assert de_success(2.4, q) is True


def test_bp_threshold_uncoupled():
    start = time.monotonic()
    result = bp_threshold(_uncoupled_query())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert result.alpha_bp == pytest.approx(1.73078, abs=1e-3)
    assert result.alpha_bp == pytest.approx(1.73077392578125, rel=1e-12)
    lo, hi = result.bracket
    assert hi - lo <= result.alpha_tol
    assert lo == result.alpha_bp
    assert result.de_evaluations == len(result.log) == 16
    assert result.avg_load_at_threshold == pytest.approx(result.alpha_bp, rel=1e-12)


def test_bp_threshold_log_is_consistent():
    result = bp_threshold(_uncoupled_query())
    for ev in result.log:
        if ev.alpha <= result.bracket[0]:
            assert ev.success
        if ev.alpha >= result.bracket[1]:
            assert not ev.success


def test_bp_threshold_bracket_errors():
    with pytest.raises(BracketError, match="success=False"):
        bp_threshold(_uncoupled_query(alpha_lo=2.0, alpha_hi=2.5))
    with pytest.raises(BracketError, match="success=True"):
        bp_threshold(_uncoupled_query(alpha_lo=1.0, alpha_hi=1.2))


def test_check_monotone_aborts_on_inverted_pair():
    ok = DeEvaluation(alpha=1.5, converged=True, max_ber=1e-3, iterations=50, success=True)
    bad = DeEvaluation(alpha=1.4, converged=True, max_ber=0.1, iterations=50, success=False)
    _check_monotone([ok], DeEvaluation(alpha=1.6, converged=True, max_ber=0.1, iterations=9, success=False))
    with pytest.raises(RuntimeError, match="not monotone"):
        _check_monotone([ok], bad)


def test_coupled_threshold_not_below_uncoupled():
    uncoupled = bp_threshold(_uncoupled_query())
    coupled = bp_threshold(
        ThresholdQuery(
            B=to_base_matrix(make_regular(64, 2)),
            sigma2=0.1,
            alpha_tr=1.45,
            training_set=REG_T,
            alpha_lo=1.0,
            alpha_hi=2.5,
        )
    )
    assert coupled.alpha_bp >= uncoupled.alpha_bp
    assert coupled.alpha_bp == pytest.approx(1.989044189453125, rel=1e-12)


def test_scalar_fixed_points_single_root():
    roots = scalar_fixed_points(1.0, 0.1)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(ROOTS_A10[0], abs=1e-6)


def test_scalar_fixed_points_bistable_region():
    roots = scalar_fixed_points(1.9, 0.1)
    assert len(roots) == 3
    for got, expected in zip(roots, ROOTS_A19):
        assert got == pytest.approx(expected, abs=1e-6)


def test_scalar_fixed_points_high_noise_proxy():
    roots = scalar_fixed_points(1.0, 100.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(ROOTS_NOISY[0], abs=1e-8)
    assert roots[0] == pytest.approx(1.0 / 101.0, abs=2e-5)


def test_scalar_fixed_points_grid_validation():
    with pytest.raises(ValueError):
        scalar_fixed_points(1.0, 0.1, grid_size=99)
    for alpha, sigma2 in ((float("nan"), 0.1), (1.0, float("inf")), (0.0, 0.1)):
        with pytest.raises(ValueError):
            scalar_fixed_points(alpha, sigma2)


def test_bisection_agrees_with_uniqueness_boundary():
    # Largest alpha with a unique scalar fixed point, located by bisection
    # on the root count, must match the uncoupled BP threshold.
    result = bp_threshold(_uncoupled_query())
    lo, hi = 1.6, 1.8
    assert len(scalar_fixed_points(lo, 0.1)) == 1
    assert len(scalar_fixed_points(hi, 0.1)) == 3
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if len(scalar_fixed_points(mid, 0.1)) == 1:
            lo = mid
        else:
            hi = mid
    assert abs(lo - result.alpha_bp) <= 2 * result.alpha_tol


def test_threshold_csv_round_trip():
    result = bp_threshold(_uncoupled_query())
    buf = io.StringIO()
    write_threshold_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "alpha_bp,bracket_lo,bracket_hi,avg_load,evaluations,success_ber,alpha_tol"
    row = lines[1].split(",")
    assert float(row[0]) == result.alpha_bp
    assert int(row[4]) == result.de_evaluations

    buf = io.StringIO()
    write_evaluation_log_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "alpha,converged,max_ber,iterations"
    assert len(lines) == 1 + result.de_evaluations
    assert {ln.split(",")[1] for ln in lines[1:]} <= {"true", "false"}


def _sequential_bp_threshold(query):
    """Reference bisection: one run_de per probe, in path order."""

    def evaluate(alpha):
        traj = run_de(query.B, query.scenario(alpha), max_iter=query.max_iter, tol=query.sir_tol)
        max_ber = float(traj.ber[-1].max())
        success = bool(traj.converged and max_ber <= query.success_ber)
        return DeEvaluation(alpha, traj.converged, max_ber, traj.iterations_run, success)

    log = [evaluate(query.alpha_lo), evaluate(query.alpha_hi)]
    assert log[0].success and not log[1].success
    lo, hi = query.alpha_lo, query.alpha_hi
    while hi - lo > query.alpha_tol:
        mid = 0.5 * (lo + hi)
        log.append(evaluate(mid))
        if log[-1].success:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        alpha_bp=lo,
        bracket=(lo, hi),
        de_evaluations=len(log),
        avg_load_at_threshold=average_load(query.alpha_tr, lo, query.training_set.tau, query.B.L),
        success_ber=query.success_ber,
        alpha_tol=query.alpha_tol,
        log=tuple(log),
    )


def _csv_bytes(result):
    buf = io.StringIO()
    write_threshold_csv(result, buf)
    write_evaluation_log_csv(result, buf)
    return buf.getvalue()


def _rewired_query():
    g, assignment = sw_rewire(make_regular(32, 2), 0.4, 2, 6, 3)
    return ThresholdQuery(
        B=to_base_matrix(g),
        sigma2=0.1,
        alpha_tr=1.45,
        training_set=assignment,
        alpha_lo=1.0,
        alpha_hi=2.5,
        max_iter=60,
    )


SPECULATION_CASES = {
    "uncoupled": _uncoupled_query,
    "regular16": lambda: ThresholdQuery(
        B=to_base_matrix(make_regular(16, 1)),
        sigma2=0.1,
        alpha_tr=1.2,
        training_set=TrainingAssignment((0, 1, 8), 3),
        alpha_lo=1.0,
        alpha_hi=2.5,
    ),
    # Probes near the threshold run out of their 60 iterations; one
    # converges on its last one.
    "rewired_budget60": _rewired_query,
    # 26 probes, far deeper than the stack; eight run out of budget.
    "uncoupled_fine_budget400": lambda: _uncoupled_query(alpha_tol=1e-7, max_iter=400),
}


@pytest.mark.parametrize("case", sorted(SPECULATION_CASES))
def test_speculative_bisection_matches_sequential_reference(case):
    query = SPECULATION_CASES[case]()
    result = bp_threshold(query)
    reference = _sequential_bp_threshold(query)
    assert result == reference
    assert _csv_bytes(result) == _csv_bytes(reference)
    if "budget" in case:
        assert any(not ev.converged for ev in result.log)
        assert any(ev.converged and ev.iterations == query.max_iter for ev in result.log)


def test_speculative_bisection_runs_bracket_ends_alone_and_midpoints_stacked(monkeypatch):
    # The bracket ends go through threshold.run_de and the midpoints
    # through density_evolution.de_step, looked up at call time, so a
    # caller that rebinds either name sees every call.
    runs, stacks = [], []
    real_run_de = threshold.run_de
    real_de_step = density_evolution.de_step

    def counting_run_de(*args, **kwargs):
        runs.append(args[1].alpha)
        return real_run_de(*args, **kwargs)

    def counting_de_step(sir, *args):
        stacks.append(sir.shape[0] if sir.ndim == 2 else 0)
        return real_de_step(sir, *args)

    monkeypatch.setattr(threshold, "run_de", counting_run_de)
    monkeypatch.setattr(density_evolution, "de_step", counting_de_step)
    query = _uncoupled_query()
    result = bp_threshold(query)
    assert runs == [query.alpha_lo, query.alpha_hi]
    midpoint_steps = [n for n in stacks if n]
    assert 1 <= min(midpoint_steps) and max(midpoint_steps) == 7
    assert len(midpoint_steps) < sum(ev.iterations for ev in result.log[2:])


def test_uncoupled_bisection_schedule_is_frozen(monkeypatch):
    # The work of speculative bisection on the uncoupled query, frozen: the
    # bracket ends' 40 single-state steps, then 3,589 lockstep steps that
    # advance 11,632 rows, for 7,043 iterations on the bisection path.
    stacks = []
    real_de_step = density_evolution.de_step

    def counting_de_step(sir, *args):
        stacks.append(sir.shape[0] if sir.ndim == 2 else 0)
        return real_de_step(sir, *args)

    monkeypatch.setattr(density_evolution, "de_step", counting_de_step)
    result = bp_threshold(_uncoupled_query())
    stacked = [n for n in stacks if n]
    assert (len(stacks), len(stacked), sum(stacked)) == (3629, 3589, 11632)
    assert sum(ev.iterations for ev in result.log) == 7043
