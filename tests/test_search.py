from __future__ import annotations

import hashlib
import io
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sccdma import (
    MAX_CHAIN_LENGTH,
    EnsembleSpec,
    GraphError,
    SystemScenario,
    ThresholdQuery,
    TrainingAssignment,
    bp_threshold,
    cluster_of,
    ensemble_search,
    instance_seed,
    make_regular,
    run_de,
    sample_instance,
    score_instance,
    serialize_graph,
    sw_rewire,
    to_base_matrix,
    write_search_csv,
)
from sccdma import density_evolution, search

NO_TRAINING = TrainingAssignment((), 0)
REG_T = TrainingAssignment(
    tuple(sorted(list(range(61, 64)) + list(range(0, 4)) + list(range(29, 36)))), 14
)

SPEC_64 = EnsembleSpec(L=64, W=2, p=0.1, c=2, tau=14, master_seed=4, n_samples=200)

# Feasible convergence level: the coupled fixed point floors the maximum
# BER near 1.1e-3 at 10 dB, so 2e-3 is the working target (see threshold
# module docstring for the margins).
TARGET = 2e-3


def _scenario(alpha):
    return SystemScenario(sigma2=0.1, alpha_tr=1.45, alpha=alpha, training_set=NO_TRAINING)


def test_instance_seed_splitmix_reference():
    # splitmix64 stream seeded with 0: first three outputs.
    assert instance_seed(0, 0) == 0xE220A8397B1DCDAF
    assert instance_seed(0, 1) == 0x6E789E6AA1B965F4
    assert instance_seed(0, 2) == 0x06C45D188009454F


def test_instance_seed_wraps_modulo_64_bits():
    assert instance_seed(2**64 - 1, 0) == instance_seed(2**64 - 1, 0)
    assert 0 <= instance_seed(2**64 - 1, 5) < 2**64


def test_sample_instance_deterministic_bytes():
    g1, a1 = sample_instance(SPEC_64, 17)
    g2, a2 = sample_instance(SPEC_64, 17)
    assert serialize_graph(g1, a1) == serialize_graph(g2, a2)


# sha256 of serialize_graph(*sample_instance(spec, index)), frozen from the
# rewiring that walked every row of each window column; walking only the
# nonzero rows must consume the same draws in the same order.
SERIALIZED_SHA256 = (
    (SPEC_64, 0, "e33c3b1c7d651b95e972b2fe71ad91ebd431f7d421b81857a328df4d885681f7"),
    (SPEC_64, 169, "9b8a86c193259acd7a1ad3e6c797aa7cd680f18eae78a5d9d2a8a9125803e147"),
    (SPEC_64, 199, "2d5b95ceb1c7e6f11c389f9d5b9f682e599affb4c042b85c8985ac1e0ec78ce0"),
    (
        EnsembleSpec(L=64, W=2, p=0.5, c=4, tau=20, master_seed=7, n_samples=10),
        3,
        "c130f645d39308780a294197eccf867c0047c576ae8c40682060f828d254f0ac",
    ),
    (
        EnsembleSpec(L=48, W=3, p=0.9, c=2, tau=5, master_seed=11, n_samples=5),
        1,
        "e524cf6dd874dc7000342a72d5c47eb37cae63276649b6a6b1c881239a4d4d46",
    ),
    (
        EnsembleSpec(L=16, W=1, p=0.3, c=2, tau=3, master_seed=0, n_samples=5),
        4,
        "d79803921654e1752f768710db4b1c2ffc449f5f4b5f6b0ee51c941ffc30743f",
    ),
)


@pytest.mark.parametrize("spec, index, digest", SERIALIZED_SHA256)
def test_sample_instance_serialized_digest_is_frozen(spec, index, digest):
    text = serialize_graph(*sample_instance(spec, index))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sample_instance_matches_direct_rewire():
    g1, a1 = sample_instance(SPEC_64, 169)
    g2, a2 = sw_rewire(64, 2, 0.1, 2, 14, instance_seed(4, 169))
    assert g1 == g2 and a1 == a2


def test_sample_instance_p_zero_gives_regular_graph():
    spec = EnsembleSpec(L=64, W=2, p=0.0, c=2, tau=14, master_seed=1, n_samples=5)
    regular = make_regular(64, 2)
    for index in range(5):
        g, _ = sample_instance(spec, index)
        assert np.array_equal(g.mult, regular.mult)


def test_sample_instance_collisions_absent():
    spec = EnsembleSpec(L=64, W=2, p=0.5, c=2, tau=14, master_seed=9, n_samples=200)
    collisions = 0
    for index in range(0, 200, 2):
        g1, _ = sample_instance(spec, index)
        g2, _ = sample_instance(spec, index + 1)
        if np.array_equal(g1.mult, g2.mult):
            collisions += 1
    assert collisions == 0


def test_sample_instance_index_range():
    with pytest.raises(ValueError):
        sample_instance(SPEC_64, 200)
    with pytest.raises(ValueError):
        sample_instance(SPEC_64, -1)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(L=64, W=2, p=0.1, c=2, tau=14, master_seed=1, n_samples=0)
    with pytest.raises(ValueError):
        EnsembleSpec(L=64, W=2, p=0.1, c=3, tau=14, master_seed=1, n_samples=5)
    with pytest.raises(ValueError):
        EnsembleSpec(L=16, W=2, p=0.1, c=2, tau=4, master_seed=1, n_samples=5)
    # Rejected at construction, before sample_instance builds an L x L table.
    EnsembleSpec(L=MAX_CHAIN_LENGTH, W=2, p=0.1, c=2, tau=14, master_seed=1, n_samples=5)
    with pytest.raises(GraphError, match="exceeds the maximum"):
        EnsembleSpec(L=10**12, W=2, p=0.1, c=2, tau=14, master_seed=1, n_samples=5)
    for W in (0, -1):
        with pytest.raises(GraphError, match="coupling width must be positive"):
            EnsembleSpec(L=64, W=W, p=0.1, c=2, tau=14, master_seed=1, n_samples=5)


@pytest.mark.parametrize(
    "bad",
    [
        dict(target_ber=0.7),
        dict(max_iter=0),
        dict(sir_tol=-1.0),
    ],
)
def test_ensemble_search_checks_arguments_before_sampling(monkeypatch, bad):
    sampled = []
    monkeypatch.setattr(search, "sample_instance", lambda *args: sampled.append(args))
    with pytest.raises(ValueError):
        ensemble_search(SPEC_64, _scenario(1.98), **bad)
    assert sampled == []


@pytest.mark.parametrize("mismatch", [dict(sigma2=0.09), dict(alpha_tr=1.2), dict(sir_tol=1e-6)])
def test_ensemble_search_rejects_thresholds_off_the_search_before_sampling(monkeypatch, mismatch):
    # The finalists are bisected at the search's noise level, alpha_tr and tolerance.
    sampled = []
    monkeypatch.setattr(search, "sample_instance", lambda *args: sampled.append(args))
    query = ThresholdQuery(
        B=to_base_matrix(make_regular(8, 1)),
        sigma2=0.1,
        alpha_tr=1.45,
        training_set=NO_TRAINING,
        alpha_lo=1.0,
        alpha_hi=2.5,
        sir_tol=1e-8,
    )
    with pytest.raises(ValueError, match="thresholds must take sigma2, alpha_tr and sir_tol"):
        ensemble_search(SPEC_64, _scenario(1.98), thresholds=replace(query, **mismatch))
    assert sampled == []


def test_score_instance_regular_baseline():
    g = make_regular(64, 2)
    score = score_instance(g, REG_T, _scenario(1.9), TARGET)
    assert score.iterations_to_target == 78
    assert score.final_max_ber == pytest.approx(1.0819822348605605e-3, rel=1e-9)
    # the 1e-3 level sits below the coupled fixed-point floor
    score_strict = score_instance(g, REG_T, _scenario(1.9), 1e-3)
    assert score_strict.iterations_to_target is None


def test_score_instance_untrained_never_reaches():
    # without a training phase there is no low-noise seed for the wave
    g = make_regular(64, 2)
    score = score_instance(g, NO_TRAINING, _scenario(1.9), 1e-3)
    assert score.iterations_to_target is None
    assert score.final_max_ber > 1e-2


def test_score_instance_half_target_met_immediately():
    g = make_regular(64, 2)
    score = score_instance(g, REG_T, _scenario(1.9), 0.5, max_iter=5)
    assert score.iterations_to_target == 0


def test_ensemble_search_single_sample():
    spec = EnsembleSpec(L=64, W=2, p=0.1, c=2, tau=14, master_seed=3, n_samples=1)
    report = ensemble_search(spec, _scenario(1.9), target_ber=TARGET, max_iter=50)
    assert len(report.scores) == 1
    assert report.scores[0].instance_seed == instance_seed(3, 0)
    g, a = sample_instance(spec, 0)
    assert serialize_graph(report.best_graph, report.best_assignment) == serialize_graph(g, a)


SPEC_32 = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=12)
SCEN_32 = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)


def _csv_bytes(report):
    buf = io.StringIO()
    write_search_csv(report, buf)
    return buf.getvalue().encode()


def test_ensemble_search_worker_count_invariance():
    seq = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=80)
    par = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=80, workers=2)
    assert seq.scores == par.scores
    assert _csv_bytes(seq) == _csv_bytes(par)
    assert serialize_graph(seq.best_graph, seq.best_assignment) == serialize_graph(
        par.best_graph, par.best_assignment
    )


@pytest.mark.parametrize("rows", [1, 5, SPEC_32.n_samples])
def test_ensemble_search_block_size_invariance(monkeypatch, rows):
    # A row's score must not depend on the block it is stacked in.  The
    # 50-step budget makes three of the twelve rows run out mid-block.
    default = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    monkeypatch.setattr(search, "_BLOCK_BYTES", rows * SPEC_32.L**2 * 8)
    assert search._block_rows(SPEC_32.L) == rows
    report = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    assert report.scores == default.scores
    assert _csv_bytes(report) == _csv_bytes(default)
    assert sum(score.iterations == 50 for score in report.scores) == 3


@pytest.fixture(scope="module")
def runs_32():
    """run_de table of each SPEC_32 instance under the 50-step budget, by index."""
    return [
        run_de(to_base_matrix(g), replace(SCEN_32, training_set=a), max_iter=50)
        for g, a in (sample_instance(SPEC_32, index) for index in range(SPEC_32.n_samples))
    ]


def _table_score(traj, target):
    """(iterations_to_target, final_max_ber, iterations) as a run_de table gives them."""
    reached = np.flatnonzero(traj.avg_ber <= target)
    return (
        int(reached[0]) if reached.size else None,
        float(traj.ber[-1].max()),
        traj.iterations_run,
    )


def test_ensemble_search_schedule_is_frozen(monkeypatch, runs_32):
    # The twelve instances fit one block, so search takes as many lockstep
    # de_step calls as its longest run (50, the budget; three run out) and
    # advances as many rows as the instances' run_de iterations together.
    stacks = []
    real_de_step = density_evolution.de_step

    def counting_de_step(sir, *args):
        stacks.append(sir.shape[0] if sir.ndim == 2 else 1)
        return real_de_step(sir, *args)

    monkeypatch.setattr(density_evolution, "de_step", counting_de_step)
    report = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    assert sum(stacks) == sum(score.iterations for score in report.scores)
    assert sum(stacks) == sum(traj.iterations_run for traj in runs_32)
    assert (len(stacks), sum(stacks)) == (50, 539)
    # Each score is what its run_de table gives.
    for score in report.scores:
        assert (
            score.iterations_to_target,
            score.final_max_ber,
            score.iterations,
        ) == _table_score(runs_32[score.index], TARGET)


@pytest.mark.parametrize("target", [0.3, 0.1, 2e-2, 2e-3, 1.1e-3, 1e-3])
def test_scores_equal_their_run_de_tables_at_every_target(runs_32, target):
    # Each target has its own mean-SIR floor, so rows reach the exact test
    # at other steps: the twelve reach 0.3 at step 1, 0.1 at step 7 and
    # 1.1e-3 at steps 26-49; 1e-3 lies below every run's final BER.
    report = ensemble_search(SPEC_32, SCEN_32, target_ber=target, max_iter=50)
    for score in report.scores:
        assert (
            score.iterations_to_target,
            score.final_max_ber,
            score.iterations,
        ) == _table_score(runs_32[score.index], target)
    g = make_regular(64, 2)
    scen = replace(_scenario(1.9), training_set=REG_T)
    regular = score_instance(g, REG_T, scen, target)
    assert (
        regular.iterations_to_target,
        regular.final_max_ber,
        regular.iterations,
    ) == _table_score(run_de(to_base_matrix(g), scen), target)


@pytest.mark.parametrize("rows", [1, 5, SPEC_32.n_samples])
def test_mean_sir_floor_leaves_few_rows_to_the_exact_test(monkeypatch, rows):
    # Without the floor every waiting row takes the exact test at each step:
    # 388 rows, plus the 12 final max-BER rows.  With it, 31 rows do, in any
    # block size; all twelve instances still reach the target.
    monkeypatch.setattr(search, "_BLOCK_BYTES", rows * SPEC_32.L**2 * 8)
    ber_rows = []
    real_ber_of = search.ber_of

    def counting_ber_of(sir):
        if np.ndim(sir) == 2:
            ber_rows.append(len(sir))
        return real_ber_of(sir)

    monkeypatch.setattr(search, "ber_of", counting_ber_of)
    report = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    assert sum(ber_rows) == 31 + SPEC_32.n_samples
    assert all(score.iterations_to_target is not None for score in report.scores)


# qfunc's cut-off, x / sqrt(2) = 26.5, as a sir: ber_of reads 0 above it.
_SIR_CUTOFF = 2 * 26.5**2


@settings(max_examples=300, deadline=None)
@given(
    target=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    scale=st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=60).map(lambda k: 1.0 - 2.0**-k),
    ),
    spread=st.floats(min_value=0.0, max_value=1.0),
    shape=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=257),
)
# A floor at the cut-off would put two of these three entries past it,
# where Q is not 0 but ber_of reads 0: the floor must also cover the BER
# that the cut-off drops.
@example(target=5e-308, scale=1.0, spread=1e-9, shape=[-3.0, 1.0, 1.0])
def test_sir_floor_rules_out_only_rows_above_the_target(target, scale, spread, shape):
    floor = search._sir_floor(target)
    row = floor * scale * (1.0 + spread * np.array(shape))
    if row.mean() < floor:
        assert search.ber_of(row).mean() > target


def test_sir_floor_edges():
    # At target 1/2 no sir qualifies: the floor is 0 and rules nothing out.
    assert search._sir_floor(0.5) == 0.0
    # At the smallest targets the floor stops short of the cut-off.
    for target in (sys.float_info.min, 5e-324):
        floor = search._sir_floor(target)
        assert 1400.0 < floor < _SIR_CUTOFF
        assert search.ber_of(floor) > target


@pytest.mark.parametrize("rows", [1, SPEC_32.n_samples])
def test_ensemble_search_records_sampling_failure_and_scores_the_rest(monkeypatch, rows):
    # With one-row blocks the failing instance leaves its block empty.
    clean = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=80)
    monkeypatch.setattr(search, "_BLOCK_BYTES", rows * SPEC_32.L**2 * 8)
    real_sample = search.sample_instance

    def failing_sample(spec, index):
        if index == 5:
            raise RuntimeError("no instance 5")
        return real_sample(spec, index)

    monkeypatch.setattr(search, "sample_instance", failing_sample)
    report = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=80)
    assert report.failures == ((5, "RuntimeError: no instance 5"),)
    assert report.scores == tuple(score for score in clean.scores if score.index != 5)


def test_ensemble_search_pool_is_bounded_by_samples_and_cpus(monkeypatch):
    # The pool starts all max_workers processes at its first submit, so a
    # huge worker count must be cut down before it gets there.  The stand-in
    # pool records its size and maps in-process, so no process starts.
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=3)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)
    seq = ensemble_search(spec, scen, target_ber=TARGET, max_iter=80)
    for usable in (8, 2, 1):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid, n=usable: set(range(n)), raising=False
        )
        report = ensemble_search(spec, scen, target_ber=TARGET, max_iter=80, workers=10**6)
        assert report.scores == seq.scores
    # Without an affinity mask the CPU count bounds the pool.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ensemble_search(spec, scen, target_ber=TARGET, max_iter=80, workers=10**6)
    # One usable CPU scores in-process, without a pool.
    assert sizes == [3, 2, 2]


def test_ensemble_search_scores_reproducible_from_seeds():
    spec = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=8)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)
    report = ensemble_search(spec, scen, target_ber=TARGET, max_iter=80)
    for score in report.scores:
        g, a = sw_rewire(32, 1, 0.1, 2, 8, score.instance_seed)
        again = score_instance(g, a, scen, TARGET, max_iter=80)
        assert again.iterations_to_target == score.iterations_to_target
        assert again.final_max_ber == score.final_max_ber


def test_ensemble_search_ranking_order():
    spec = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=10)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)
    report = ensemble_search(spec, scen, target_ber=TARGET, max_iter=80)

    def key(s):
        reached = s.iterations_to_target if s.iterations_to_target is not None else float("inf")
        return (reached, s.final_max_ber, s.instance_seed)

    assert [key(s) for s in report.scores] == sorted(key(s) for s in report.scores)


def test_ensemble_search_p_zero_spread_is_training_only():
    spec = EnsembleSpec(L=64, W=2, p=0.0, c=2, tau=14, master_seed=2, n_samples=6)
    report = ensemble_search(spec, _scenario(1.9), target_ber=TARGET)
    regular = make_regular(64, 2)
    for index in range(6):
        g, _ = sample_instance(spec, index)
        assert np.array_equal(g.mult, regular.mult)
    reached = [s.iterations_to_target for s in report.scores]
    assert all(r is None or r > 0 for r in reached)


def test_sw_instance_tracks_regular_convergence_speed():
    # A rewired instance whose training lands in two tight clumps keeps
    # pace with the hand-placed regular blocks at alpha = 1.9.
    reg = score_instance(make_regular(64, 2), REG_T, _scenario(1.9), TARGET)
    g, a = sw_rewire(64, 2, 0.1, 2, 14, 659)
    sw = score_instance(g, a, _scenario(1.9), TARGET)
    assert reg.iterations_to_target == 78
    assert sw.iterations_to_target == 88
    assert abs(sw.iterations_to_target - reg.iterations_to_target) <= 0.2 * reg.iterations_to_target


def test_ensemble_search_finds_faster_instance_with_higher_threshold():
    # At alpha = 1.98 the master_seed=4 ensemble contains an instance that
    # beats the regular baseline's iteration count and whose BP threshold
    # clears the regular coupling value.
    reg = score_instance(make_regular(64, 2), REG_T, _scenario(1.98), TARGET)
    assert reg.iterations_to_target == 302

    # 400 iterations cover both baselines; the avg-BER prefix of a
    # trajectory does not depend on the cap, so ranks are unaffected.
    report = ensemble_search(SPEC_64, _scenario(1.98), target_ber=TARGET, max_iter=400)
    best = report.scores[0]
    assert best.index == 169
    assert best.instance_seed == instance_seed(4, 169)
    assert best.iterations_to_target == 257
    assert best.iterations_to_target < reg.iterations_to_target

    g, a = sample_instance(SPEC_64, 169)
    result = bp_threshold(
        ThresholdQuery(
            B=to_base_matrix(g),
            sigma2=0.1,
            alpha_tr=1.45,
            training_set=a,
            alpha_lo=1.0,
            alpha_hi=2.5,
        )
    )
    assert result.alpha_bp == pytest.approx(2.009552001953125, rel=1e-12)
    assert result.alpha_bp > 1.98958


def test_best_instance_wave_nucleates_inside_clusters():
    # On the selected instance the earliest-detected positions during the
    # wave (iterations 10..50) stay inside the two rewiring windows, and
    # every position ends at the fixed-point floor.
    g, a = sample_instance(SPEC_64, 169)
    traj = run_de(to_base_matrix(g), SystemScenario(0.1, 1.45, 1.98, a))
    windows = cluster_of(0, 64, 2) | cluster_of(32, 64, 2)
    assert set(int(m) for m in traj.argmin_position[10:51]) <= windows
    assert float(traj.ber[-1].max()) <= TARGET
    assert float(traj.ber[-1].max()) == pytest.approx(1.1008172208940379e-3, rel=1e-12)


def test_search_csv_without_thresholds():
    spec = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=4)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)
    report = ensemble_search(spec, scen, target_ber=TARGET, max_iter=80)
    buf = io.StringIO()
    write_search_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "index,instance_seed,iterations_to_target,final_max_ber"
    assert len(lines) == 5
    for line, score in zip(lines[1:], report.scores):
        cells = line.split(",")
        assert int(cells[0]) == score.index
        assert int(cells[1]) == score.instance_seed
        if score.iterations_to_target is None:
            assert cells[2] == ""
        else:
            assert int(cells[2]) == score.iterations_to_target


def test_search_csv_with_thresholds_column():
    spec = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=3)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)
    # Each finalist's bisection puts its own matrix and training set in the query.
    query = ThresholdQuery(
        B=to_base_matrix(make_regular(8, 1)),
        sigma2=0.1,
        alpha_tr=1.2,
        training_set=NO_TRAINING,
        alpha_lo=1.0,
        alpha_hi=2.5,
        alpha_tol=1e-2,
    )
    report = ensemble_search(spec, scen, target_ber=TARGET, max_iter=400, thresholds=query)
    buf = io.StringIO()
    write_search_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "index,instance_seed,iterations_to_target,final_max_ber,alpha_bp"
    scored = [s for s in report.scores if s.threshold is not None]
    assert scored, "expected thresholds for finalists"
    for score in scored:
        g, a = sample_instance(spec, score.index)
        alone = bp_threshold(replace(query, B=to_base_matrix(g), training_set=a))
        assert score.threshold == alone
