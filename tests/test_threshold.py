from __future__ import annotations

import io
import time
from dataclasses import FrozenInstanceError
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sccdma import (
    DEFAULT_SUCCESS_BER,
    BaseMatrix,
    BisectionPlan,
    BracketError,
    DeEvaluation,
    SystemScenario,
    ThresholdQuery,
    ThresholdResult,
    TrainingAssignment,
    average_load,
    ber_of,
    bp_threshold,
    make_regular,
    mmse_bpsk,
    run_de,
    scalar_fixed_points,
    sigma2_from_db,
    sw_rewire,
    to_base_matrix,
    write_evaluation_log_csv,
    write_threshold_csv,
)
from sccdma import density_evolution, threshold

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


def _rejected_as_plan_and_query(bad, match=None):
    """A query and a plan with the same bad plan fields fail with the same message."""
    messages = []
    for build in (_uncoupled_query, BisectionPlan):
        with pytest.raises(ValueError, match=match) as error:
            build(**{"alpha_lo": 1.0, "alpha_hi": 2.5, **bad})
        messages.append(str(error.value))
    assert messages[0] == messages[1]


def test_query_rejects_nonpositive_parameters():
    for bad in (
        dict(sigma2=0.0),
        dict(sigma2=-0.1),
        dict(alpha_tr=0.0),
        dict(sigma2=float("nan")),
        dict(sigma2=1e-320),
        dict(alpha_tr=float("inf")),
    ):
        with pytest.raises(ValueError):
            _uncoupled_query(**bad)
    # The plan checks its own budget, so a plan and a query refuse it alike.
    for budget in (0, 2.5, True, 2**62 + 1):
        _rejected_as_plan_and_query(dict(max_iter=budget), match="max_iter must be an integer")
    budget = BisectionPlan(1.0, 2.5, max_iter=np.int16(500)).max_iter
    assert type(budget) is int and budget == 500
    for bad in (
        dict(alpha_lo=0.0),
        dict(alpha_lo=-1.0, alpha_hi=-0.5),
        dict(alpha_hi=0.0),
        dict(alpha_lo=float("nan")),
        dict(alpha_hi=float("inf")),
    ):
        _rejected_as_plan_and_query(bad)
    # Below two float spacings at alpha_hi, bisection could stop shrinking.
    for tol in (0.0, float("nan"), float("inf"), 1e-300, 4e-16):
        _rejected_as_plan_and_query(dict(alpha_tol=tol), match="alpha_tol")
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        _uncoupled_query().scenario(float("nan"))
    _rejected_as_plan_and_query(dict(success_ber=1.5))


def test_query_checks_the_noise_bound_at_alpha_hi():
    # Every probe's load lies below alpha_hi, so one check there covers them all.
    # The wide tolerance keeps the plan's own checks, which run first, quiet.
    with pytest.raises(ValueError, match="noise bound"):
        _uncoupled_query(alpha_hi=1e306, alpha_tol=1e300)
    with pytest.raises(ValueError) as error:
        _uncoupled_query(alpha_hi=1e306)
    assert str(error.value) == "alpha_tol=0.0001 is below the float spacing at alpha_hi"


def test_query_is_a_plan_plus_a_keyword_only_system():
    query = ThresholdQuery(1.0, 2.5, B=UNCOUPLED, sigma2=0.1, alpha_tr=1.0)
    assert isinstance(query, BisectionPlan)
    assert query.training_set == NO_TRAINING == query.scenario(2.0).training_set
    assert query == _uncoupled_query()
    with pytest.raises(TypeError):
        ThresholdQuery(1.0, 2.5, 1e-4, DEFAULT_SUCCESS_BER, 10000, UNCOUPLED, 0.1, 1.0)


def test_bp_threshold_logs_success_at_alpha_lo_then_failure_at_alpha_hi():
    result = bp_threshold(_uncoupled_query(alpha_lo=1.6, alpha_hi=1.8))
    assert [(ev.alpha, ev.success) for ev in result.log[:2]] == [(1.6, True), (1.8, False)]


def test_bp_threshold_half_ber_succeeds_at_alpha_hi():
    with pytest.raises(BracketError, match="alpha_hi=2.4 success=True"):
        bp_threshold(_uncoupled_query(success_ber=0.5, alpha_hi=2.4))


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
    # The estimate and the count are read off the bracket and the log.
    assert result.alpha_bp == result.bracket[0]
    assert result.de_evaluations == len(result.log)
    for name in ("alpha_bp", "de_evaluations"):
        with pytest.raises(FrozenInstanceError):
            setattr(result, name, 0)


# Queries whose bracket does not straddle the threshold, and the ends' part of
# the error.  Both failing ends are certified at step 10, so their max_ber
# is that of step 10, above the fixed point's (0.15839 and 0.211484).  At
# a budget of 1,500 the run at alpha_lo = 1.73077 (1,869 iterations to
# converge) stops unconverged, and no certificate can stop a success.
BRACKET_ERRORS = {
    "both_fail": (
        dict(alpha_lo=2.0, alpha_hi=2.5),
        "alpha_lo=2.0 success=False (failure certified at step 10, max_ber=0.15921), "
        "alpha_hi=2.5 success=False (failure certified at step 10, max_ber=0.211517)",
    ),
    "both_succeed": (
        dict(alpha_lo=1.0, alpha_hi=1.2),
        "alpha_lo=1.0 success=True (converged=True, max_ber=0.000907309), "
        "alpha_hi=1.2 success=True (converged=True, max_ber=0.000939261)",
    ),
    "lo_out_of_budget": (
        dict(alpha_lo=1.73077, max_iter=1500),
        "alpha_lo=1.73077 success=False (converged=False, max_ber=0.0811061), "
        "alpha_hi=2.5 success=False (failure certified at step 10, max_ber=0.211517)",
    ),
}


def test_bp_threshold_bracket_errors():
    for overrides, ends in BRACKET_ERRORS.values():
        with pytest.raises(BracketError) as info:
            bp_threshold(_uncoupled_query(**overrides))
        assert str(info.value) == f"bracket does not straddle the threshold: {ends}"


def test_bp_threshold_refuses_inverted_ends(monkeypatch):
    # Mirrored loads make success fall, not rise, with alpha: the run at
    # alpha_lo = 1.0 sees load 2.5 and fails, the one at alpha_hi = 2.5
    # sees load 1.0 and succeeds.
    real_de_step = density_evolution.de_step

    def mirrored_de_step(sir, bsq, sigma2, loads):
        return real_de_step(sir, bsq, sigma2, 3.5 - loads)

    monkeypatch.setattr(density_evolution, "de_step", mirrored_de_step)
    with pytest.raises(RuntimeError) as info:
        bp_threshold(_uncoupled_query())
    assert str(info.value) == (
        "density-evolution success is not monotone over the bracket: "
        "failure at alpha=1 below success at alpha=2.5; refusing to bisect"
    )


def _criterion2_query():
    return ThresholdQuery(
        B=to_base_matrix(make_regular(64, 2)),
        sigma2=0.1,
        alpha_tr=1.45,
        training_set=REG_T,
        alpha_lo=1.0,
        alpha_hi=2.5,
    )


def test_coupled_threshold_not_below_uncoupled():
    uncoupled = bp_threshold(_uncoupled_query())
    coupled = bp_threshold(_criterion2_query())
    assert coupled.alpha_bp >= uncoupled.alpha_bp
    assert coupled.alpha_bp == pytest.approx(1.989044189453125, rel=1e-12)


def test_scalar_fixed_points_single_root():
    roots = scalar_fixed_points(1.0, 0.1)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(ROOTS_A10[0], abs=1e-10)


def test_scalar_fixed_points_bistable_region():
    roots = scalar_fixed_points(1.9, 0.1)
    assert len(roots) == 3
    for got, expected in zip(roots, ROOTS_A19):
        assert got == pytest.approx(expected, abs=1e-10)


def test_scalar_fixed_points_high_noise_proxy():
    roots = scalar_fixed_points(1.0, 100.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(ROOTS_NOISY[0], abs=1e-10)
    assert roots[0] == pytest.approx(1.0 / 101.0, abs=2e-5)


def _g_extreme(sigma2, lo, hi, sign):
    """g's minimum (sign -1) or maximum (sign 1) on [lo, hi], g(x) = (1/x - sigma2) / mmse(x).

    Three grids of 4,097 points, each spanning two cells of the last, locate it.
    """
    for _ in range(3):
        xs = np.linspace(lo, hi, 4097)
        gs = sign * (1.0 / xs - sigma2) / mmse_bpsk(xs)
        i = int(np.argmax(gs))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, 4096)]
    return sign * float(gs[i])


@pytest.mark.parametrize("offset", [1e-6, 1e-7, 1e-8, 1e-9])
def test_scalar_fixed_points_counts_both_roots_just_inside_a_fold(offset):
    # At 10 dB g has a local minimum near x = 1.938 and a local maximum near
    # x = 7.623.  Just inside either fold two of the three roots share one
    # cell of a 4,096-cell grid over (0, 10], so a scan of f's signs on it
    # sees one root where there are three.
    minimum, maximum = _g_extreme(0.1, 1.0, 4.0, -1.0), _g_extreme(0.1, 4.0, 9.0, 1.0)
    assert minimum == pytest.approx(1.7307897796, abs=1e-10)
    assert maximum == pytest.approx(3.5304012652, abs=1e-10)
    for alpha in (minimum + offset, maximum - offset):
        assert len(scalar_fixed_points(alpha, 0.1)) == 3, alpha


def test_scalar_fixed_points_validation():
    for alpha, sigma2 in ((float("nan"), 0.1), (1.0, float("inf")), (0.0, 0.1)):
        with pytest.raises(ValueError):
            scalar_fixed_points(alpha, sigma2)


def _saddle_node_load(sigma2):
    """The uncoupled BP load: the first local minimum of g(x) = (1/x - sigma2) / mmse(x).

    x is a fixed point of x = 1 / (sigma2 + alpha * mmse(x)) exactly where
    alpha = g(x).  g falls from +inf at 0 to that minimum, so below it DE
    from zero has only the high fixed point to reach, and at it the two
    lower fixed points are born (a saddle-node).  Three grids of 4,097
    points, each spanning two cells of the last, locate it.
    """

    def g(x):
        return (1.0 / x - sigma2) / mmse_bpsk(x)

    lo, hi = 1e-3, 1.0 / sigma2
    for _ in range(3):
        xs = np.linspace(lo, hi, 4097)
        gs = g(xs)
        first = int(np.argmax(np.diff(gs) > 0.0))
        lo, hi = xs[first - 1], xs[first + 1]
    return float(gs[first])


@pytest.mark.parametrize("snr_db", [10.0, 12.0, 14.0])
def test_bisection_agrees_with_uniqueness_boundary(snr_db):
    # The uncoupled BP threshold's final bracket holds the saddle-node load,
    # and the largest alpha with a unique scalar fixed point, located by
    # bisection on the root count, lies within two tolerances of it.
    sigma2 = sigma2_from_db(snr_db)
    result = bp_threshold(_uncoupled_query(sigma2=sigma2))
    saddle_node = _saddle_node_load(sigma2)
    assert result.bracket[0] <= saddle_node <= result.bracket[1], (result.bracket, saddle_node)
    lo, hi = 1.5, 2.2
    assert len(scalar_fixed_points(lo, sigma2)) == 1
    assert len(scalar_fixed_points(hi, sigma2)) == 3
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if len(scalar_fixed_points(mid, sigma2)) == 1:
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


def _bisect(query, evaluate):
    """Bisection along the path alone: ``evaluate(alpha)`` gives each probe's DeEvaluation."""
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
        bracket=(lo, hi),
        avg_load_at_threshold=average_load(query.alpha_tr, lo, query.training_set.tau, query.B.L),
        success_ber=query.success_ber,
        alpha_tol=query.alpha_tol,
        log=tuple(log),
    )


def _sequential_bp_threshold(query):
    """Verdict oracle: one run_de per probe, to convergence or budget, in path order."""

    def evaluate(alpha):
        traj = run_de(query.B, query.scenario(alpha), max_iter=query.max_iter, tol=query.sir_tol)
        max_ber = float(traj.ber[-1].max())
        success = bool(traj.converged and max_ber <= query.success_ber)
        return DeEvaluation(alpha, traj.converged, max_ber, traj.iterations_run, success)

    return _bisect(query, evaluate)


def _run_rows(bsq, sigma2, loads, floor, max_iter, tol, width, per_row_bsq=False):
    """Each row's (steps, converged, sir) at its stop under the certified DE loop.

    Rows run in a stack of ``width`` slots and a waiting row joins as soon
    as one retires, so rows that run together have taken different step
    counts, as in speculative bisection; ``width`` 1 runs each row alone.
    """
    n, L = loads.shape
    stack = density_evolution._Stack(L, width, None if per_row_bsq else bsq)
    stopped = [None] * n
    waiting = iter(range(n))
    while True:
        for row in islice(waiting, width - len(stack)):
            stack.join(row, loads[row], bsq if per_row_bsq else None)
        if not stack:
            return stopped
        rows, sir, steps, converged, _ = stack.run(sigma2, max_iter, tol, floor=floor)
        for row, state, n_steps, ok in zip(rows, sir, steps, converged):
            stopped[row] = (n_steps, ok, state)


def _one_probe_at_a_time(query):
    """Log oracle: each probe alone through the certified DE loop, in path order."""
    floor = density_evolution._sir_floor(query.success_ber)

    def evaluate(alpha):
        loads = query.scenario(alpha).row_loads(query.B.L)[None]
        [(steps, converged, sir)] = _run_rows(
            query.B.bsq, query.sigma2, loads, floor, query.max_iter, query.sir_tol, width=1
        )
        max_ber = float(ber_of(sir).max())
        success = converged and max_ber <= query.success_ber
        return DeEvaluation(alpha, converged, max_ber, steps, success)

    return _bisect(query, evaluate)


def _csv_bytes(result):
    buf = io.StringIO()
    write_threshold_csv(result, buf)
    write_evaluation_log_csv(result, buf)
    return buf.getvalue()


def _rewired_query():
    g, assignment = sw_rewire(32, 2, 0.4, 2, 6, 3)
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
    # converges on its last one, and one is certified.
    "rewired_budget60": _rewired_query,
    # 26 probes, far deeper than the stack; six run out of budget (eight
    # under run_de) and five are certified.
    "uncoupled_fine_budget400": lambda: _uncoupled_query(alpha_tol=1e-7, max_iter=400),
    # A bracket end is the slowest probe on the path: alpha_lo takes 1,869
    # iterations while the midpoints retire beside it.
    "slowest_lo_end": lambda: _uncoupled_query(alpha_lo=1.73077),
    # alpha_hi converges after 3,362 iterations under run_de, but its
    # failure is certified at step 20.
    "slowest_hi_end": lambda: _uncoupled_query(alpha_hi=1.7308),
}


@pytest.mark.parametrize("case", [*sorted(SPECULATION_CASES), "criterion2"])
def test_bisection_verdicts_match_run_de_reference(case):
    # A certified failure is a failure of the run to convergence or budget,
    # so the path, the report and every probe's verdict are those of run_de.
    query = SPECULATION_CASES.get(case, _criterion2_query)()
    result = bp_threshold(query)
    reference = _sequential_bp_threshold(query)
    assert (result.bracket, result.alpha_bp, result.de_evaluations) == (
        reference.bracket, reference.alpha_bp, reference.de_evaluations
    )
    assert [(ev.alpha, ev.success) for ev in result.log] == [
        (ev.alpha, ev.success) for ev in reference.log
    ]
    # A probe stops at its certificate or where run_de stops, never later.
    for ev, ref in zip(result.log, reference.log):
        assert ev.iterations <= ref.iterations
        if ev.converged:
            assert ev == ref
    if case == "criterion2":
        assert sum(ev.iterations for ev in result.log) == 16601
        assert sum(ev.iterations for ev in reference.log) == 28099


@pytest.mark.parametrize("case", sorted(SPECULATION_CASES))
def test_speculative_bisection_matches_sequential_reference(case):
    query = SPECULATION_CASES[case]()
    result = bp_threshold(query)
    reference = _one_probe_at_a_time(query)
    assert result == reference
    assert _csv_bytes(result) == _csv_bytes(reference)
    # Every probe after the ends lies strictly between the highest success
    # and the lowest failure, so no later pair can be inverted.
    assert max(ev.alpha for ev in result.log if ev.success) < min(
        ev.alpha for ev in result.log if not ev.success
    )
    if "budget" in case:
        assert any(not ev.converged and ev.iterations == query.max_iter for ev in result.log)
        assert any(ev.converged and ev.iterations == query.max_iter for ev in result.log)
    if case == "slowest_lo_end":
        assert result.log[0].iterations == max(ev.iterations for ev in result.log)
    if case == "slowest_hi_end":
        assert (result.log[1].converged, result.log[1].iterations) == (False, 20)


def _count_de_steps(monkeypatch):
    """Record the rows of each de_step call: (lockstep steps, certificate calls)."""
    stacks, candidates = [], []
    real_de_step = density_evolution.de_step
    real_certified = density_evolution._certified
    calls = stacks

    def counting_de_step(sir, *args):
        calls.append(sir.size // sir.shape[-1])
        return real_de_step(sir, *args)

    def counting_certified(*args):
        nonlocal calls
        calls = candidates
        try:
            return real_certified(*args)
        finally:
            calls = stacks

    monkeypatch.setattr(density_evolution, "de_step", counting_de_step)
    monkeypatch.setattr(density_evolution, "_certified", counting_certified)
    return stacks, candidates


def test_speculative_bisection_stacks_bracket_ends_with_midpoints(monkeypatch):
    # Every probe, the bracket ends included, steps through
    # density_evolution.de_step as a row of one stack; threshold.run_de is
    # never called.  Both names are looked up at call time, so a caller
    # that rebinds either sees every call.
    runs = []
    real_run_de = threshold.run_de

    def counting_run_de(*args, **kwargs):
        runs.append(args[1].alpha)
        return real_run_de(*args, **kwargs)

    monkeypatch.setattr(threshold, "run_de", counting_run_de)
    stacks, candidates = _count_de_steps(monkeypatch)
    result = bp_threshold(_uncoupled_query())
    assert runs == []
    # The two ends and the 7 midpoints of the first three levels.
    assert 1 <= min(stacks) and max(stacks) == 9
    assert len(stacks) < sum(ev.iterations for ev in result.log)
    # Three candidates for each row a certificate tries, all in one call.
    assert candidates and all(n % 3 == 0 and n <= 27 for n in candidates)


@pytest.mark.parametrize(
    "query, steps, rows, calls, candidates, path",
    [
        (_uncoupled_query, 2502, 7211, 193, 1128, 3669),
        (_criterion2_query, 8044, 29337, 756, 5865, 16601),
    ],
    ids=["uncoupled", "criterion2"],
)
def test_uncoupled_bisection_schedule_is_frozen(
    monkeypatch, query, steps, rows, calls, candidates, path
):
    # The work of speculative bisection, frozen: lockstep steps, all
    # stacked, the rows they advance, the certificate calls and their
    # candidate rows, and the iterations on the bisection path.  The
    # uncoupled query without certificates took 3,589 steps, 11,672 rows
    # and 7,043 path iterations; the criterion-2 query (W1) 11,841 steps,
    # 60,639 rows and 28,099 path iterations.
    stacks, tried = _count_de_steps(monkeypatch)
    result = bp_threshold(query())
    stacked = [n for n in stacks if n]
    assert (len(stacks), len(stacked), sum(stacked)) == (steps, steps, rows)
    assert (len(tried), sum(tried)) == (calls, candidates)
    assert sum(ev.iterations for ev in result.log) == path


# A budget far past where the runs of the property below converge.
_LONG_BUDGET = 20000


@st.composite
def _small_systems(draw):
    """Regular (L, W) with L <= 16, or uncoupled, and 1-6 scenarios of random loads and training."""
    L = draw(st.sampled_from([1, *range(4, 17)]))
    if L == 1:
        B = UNCOUPLED
    else:
        B = to_base_matrix(make_regular(L, draw(st.integers(1, (L - 2) // 2))))
    sigma2 = 10.0 ** (-draw(st.floats(min_value=8.0, max_value=12.0)) / 10.0)
    load = st.floats(min_value=0.5, max_value=2.6)
    scenarios = []
    for _ in range(draw(st.integers(1, 6))):
        training = draw(st.sets(st.integers(0, L - 1), max_size=L))
        scenarios.append(SystemScenario(
            sigma2, draw(load), draw(load), TrainingAssignment(tuple(training), len(training))
        ))
    return B, scenarios


def _criterion2_probes(alphas):
    query = _criterion2_query()
    return query.B, [query.scenario(alpha) for alpha in alphas]


@settings(max_examples=100, deadline=None)
@given(
    system=_small_systems(),
    success_ber=st.sampled_from([1e-3, 2e-3, 1e-2, 5e-2]),
    width=st.integers(2, 4),
    per_row_bsq=st.booleans(),
)
# Uncoupled probes: alpha = 2.5 is certified at step 10, 1.7308 at step 20.
@example(
    system=(UNCOUPLED, [_uncoupled_query().scenario(a) for a in (2.5, 1.0, 1.7308)]),
    success_ber=2e-3, width=2, per_row_bsq=False,
)
# Criterion 2's probes on both sides of its threshold.
@example(
    system=_criterion2_probes([1.99, 1.98, 2.2]), success_ber=2e-3, width=2, per_row_bsq=True
)
def test_certified_failure_is_a_failure_at_any_budget(system, success_ber, width, per_row_bsq):
    B, scenarios = system
    sigma2 = scenarios[0].sigma2
    loads = np.array([scen.row_loads(B.L) for scen in scenarios])
    floor = density_evolution._sir_floor(success_ber)
    budget, tol = 3000, 1e-8
    stacked = _run_rows(B.bsq, sigma2, loads, floor, budget, tol, width, per_row_bsq)
    alone = _run_rows(B.bsq, sigma2, loads, floor, budget, tol, width=1)
    for (steps, converged, sir), row_alone, scen in zip(stacked, alone, scenarios):
        # A row stops at the same step, in the same state, in any stack.
        assert steps == row_alone[0] and converged == row_alone[1]
        assert np.array_equal(sir, row_alone[2])
        if converged or steps == budget:
            continue
        # Certified: every iterate from zero, up to a budget far past
        # convergence, has some position with BER above the level, so no
        # budget makes the run a success.
        run = run_de(B, scen, max_iter=_LONG_BUDGET, tol=tol)
        assert (run.ber.max(axis=1) > success_ber).all()
        assert np.array_equal(run.sir[steps], sir)


def test_a_certificate_candidate_that_overflows_keeps_its_verdict():
    # A candidate's geometric tail can overflow to +inf, where the MMSE is
    # 0.  de_step takes finite states only, and F(u) must stay what mmse 0
    # there gives.  Both rows' candidates are 1.5 times the fixed point of
    # load 3 and pass; row 0's also has one infinite position.
    bsq = to_base_matrix(make_regular(16, 2)).bsq
    loads = np.full((2, 16), 3.0)
    fixed = np.zeros(16)
    for _ in range(2000):
        fixed, _ = density_evolution.de_step(fixed, bsq, 0.1, loads[0])
    new = np.tile(1.5 * fixed, (2, 1))
    old = new.copy()
    new[0, 0], old[0, 0] = 1e308, 0.0
    residual, last = np.array([0.5, 0.5]), np.array([1.0, 1.0])
    floor = density_evolution._sir_floor(DEFAULT_SUCCESS_BER)
    # The overflow is the case under test.
    with np.errstate(over="ignore"):
        tail = (new - old) / 0.5
        rows = density_evolution._certified(
            np.array([0, 1]), old, new, residual, last, bsq, 0.1, loads, floor
        )
    assert np.isinf(tail[0, 0]) and np.isfinite(tail[1]).all()
    assert rows.tolist() == [0, 1]


def test_a_numpy_budget_bisects_as_its_int_does():
    # The stack adds the budget to its clock, which in an int8 overflows.
    query = _uncoupled_query(max_iter=np.int8(100))
    assert type(query.max_iter) is int
    assert bp_threshold(query).log == bp_threshold(_uncoupled_query(max_iter=100)).log
