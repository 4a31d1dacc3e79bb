from __future__ import annotations

import hashlib
import io
import os
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sccdma import (
    MAX_CHAIN_LENGTH,
    BisectionPlan,
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
from sccdma import coupling, density_evolution, search

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
    # numpy integers are taken at their value, past int64 too.
    assert instance_seed(np.uint64(2**64 - 1), np.int64(3)) == instance_seed(2**64 - 1, 3)


def test_spec_stores_its_counts_as_python_ints():
    spec = EnsembleSpec(
        L=np.int16(64), W=np.int8(2), p=0.1, c=np.uint8(2), tau=np.int32(14),
        master_seed=np.uint64(4), n_samples=np.int16(200),
    )
    assert spec == SPEC_64
    counts = ("L", "W", "c", "tau", "master_seed", "n_samples")
    assert {type(getattr(spec, name)) for name in counts} == {int}


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


# sha256 over serialize_graph(*sample_instance(spec, index)) for every index
# in turn, frozen from the rewiring that snapshotted each cluster's window
# and rebuilt the band per instance: W2's spec, a spec in which every edge
# fires, and a p = 0, c = 1 spec, whose one cluster has no targets.  Each
# pins the whole random stream its instances draw.
ENSEMBLE_SHA256 = (
    (SPEC_64, "a174b769eeebae1f8a97d90530851e7bfc8b0c7e3829c061b5f1e0961cfb8481"),
    (
        EnsembleSpec(L=64, W=2, p=1.0, c=4, tau=20, master_seed=5, n_samples=20),
        "8962bb7bd6e1dd9846e4956160a421017e1acffa058a6587e5a7662c52db6141",
    ),
    (
        EnsembleSpec(L=32, W=2, p=0.0, c=1, tau=6, master_seed=3, n_samples=20),
        "187f42c2cf38d06ff7cf50a6cc920c5b4598c86f8d334dded9bef8cf08692eef",
    ),
)


@pytest.mark.parametrize("spec, digest", ENSEMBLE_SHA256)
def test_sampled_ensemble_digest_is_frozen(spec, digest):
    h = hashlib.sha256()
    for index in range(spec.n_samples):
        h.update(serialize_graph(*sample_instance(spec, index)).encode())
    assert h.hexdigest() == digest


def test_sw_rewire_does_not_depend_on_earlier_calls():
    # The seed-free part of the rewiring is cached per (L, W, c); no call
    # may leave anything in it that changes a later one.
    before = sw_rewire(64, 2, 1.0, 4, 20, 99)
    for seed in range(5):
        sw_rewire(64, 2, 1.0, 4, 20, seed)
        sw_rewire(48, 3, 0.9, 2, 5, seed)
        sw_rewire(64, 2, 0.5, 2, 14, seed)
    assert sw_rewire(64, 2, 1.0, 4, 20, 99) == before
    coupling._rewire_plan.cache_clear()
    assert sw_rewire(64, 2, 1.0, 4, 20, 99) == before


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
    with pytest.raises(ValueError, match="index must be an integer"):
        sample_instance(SPEC_64, 1.5)


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
        with pytest.raises(GraphError, match=r"coupling width W must be an integer in \[1,"):
            EnsembleSpec(L=64, W=W, p=0.1, c=2, tau=14, master_seed=1, n_samples=5)
    # A count or seed that is not an integer fails here, not in every instance.
    good = dict(L=64, W=2, p=0.1, c=2, tau=14, master_seed=1, n_samples=5)
    for bad in (
        dict(L=64.0), dict(W=2.0), dict(c=2.0), dict(tau=14.0), dict(master_seed=4.0),
        dict(n_samples=40.5), dict(n_samples=True),
    ):
        with pytest.raises(ValueError, match="integer"):
            EnsembleSpec(**{**good, **bad})


@pytest.mark.parametrize(
    "bad",
    [
        dict(target_ber=0.7),
        dict(max_iter=0),
        dict(max_iter=2.5),
        dict(max_iter=True),
        dict(sir_tol=-1.0),
        # Q(sqrt(10)) ~ 7.83e-4: no finalist's run could get under 5e-4 at 10 dB.
        dict(thresholds=BisectionPlan(1.0, 2.5, success_ber=5e-4)),
        # Past the noise bound at alpha_hi; the wide tolerance keeps the plan's own checks quiet.
        dict(thresholds=BisectionPlan(1.0, 1e306, alpha_tol=1e300)),
    ],
)
def test_ensemble_search_checks_arguments_before_sampling(monkeypatch, bad):
    sampled = []
    monkeypatch.setattr(search, "sample_instance", lambda *args: sampled.append(args))
    with pytest.raises(ValueError):
        ensemble_search(SPEC_64, _scenario(1.98), **bad)
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


@pytest.fixture
def one_share(monkeypatch):
    """Search scores every instance in this process, where rebound names see all its calls."""
    monkeypatch.setattr(search, "_share_count", lambda n_samples, slots: 1)


@pytest.fixture
def two_shares(monkeypatch):
    """Search forks one child for every odd index, whatever CPUs this host has."""
    monkeypatch.setattr(search, "_share_count", lambda n_samples, slots: 2)


@pytest.fixture
def reaped():
    """The test leaves no child process behind, running or exited."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_ensemble_search_rewires_through_the_search_module(monkeypatch):
    # perfbench's tracer times rewiring by rebinding search.sw_rewire.
    calls = []
    real_rewire = search.sw_rewire

    def counting_rewire(*args):
        calls.append(args)
        return real_rewire(*args)

    monkeypatch.setattr(search, "sw_rewire", counting_rewire)
    ensemble_search(replace(SPEC_32, n_samples=3), SCEN_32, target_ber=TARGET, max_iter=50)
    # One call per scored instance, and one more for the best graph.
    assert len(calls) == 4


@pytest.mark.parametrize("rows", [1, 5, SPEC_32.n_samples])
def test_ensemble_search_block_size_invariance(monkeypatch, rows):
    # A row's score must not depend on the rows it shares the stack with.
    # The 50-step budget makes three of the twelve rows run out of steps.
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
    # The twelve instances fit one stack, so search takes as many lockstep
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


def test_ensemble_search_refills_each_slot_as_its_instance_retires(
    monkeypatch, runs_32, one_share
):
    # Five slots for the twelve instances under the 50-step budget: each
    # retiring row's slot takes the next instance, sampled then, so the
    # stack steps five rows until the queue is empty and then drains.
    monkeypatch.setattr(search, "_BLOCK_BYTES", 5 * SPEC_32.L**2 * 8)
    sampled = []
    real_sample = search.sample_instance

    def logging_sample(spec, index):
        sampled.append(index)
        return real_sample(spec, index)

    stacks = []  # (rows, whether an instance was still queued) of each de_step call
    real_de_step = density_evolution.de_step

    def counting_de_step(sir, *args):
        stacks.append((sir.shape[0], len(sampled) < SPEC_32.n_samples))
        return real_de_step(sir, *args)

    monkeypatch.setattr(search, "sample_instance", logging_sample)
    monkeypatch.setattr(density_evolution, "de_step", counting_de_step)
    report = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    rows = [n for n, _ in stacks]
    assert len(stacks) == 137
    assert sum(rows) == sum(score.iterations for score in report.scores)
    assert sum(rows) == sum(traj.iterations_run for traj in runs_32)
    # Every index once, in order, then the best instance for the report.
    assert sampled == [*range(SPEC_32.n_samples), report.scores[0].index]
    assert all(n == 5 for n, queued in stacks if queued)
    assert rows == sorted(rows, reverse=True)
    for score in report.scores:
        assert (
            score.iterations_to_target,
            score.final_max_ber,
            score.iterations,
        ) == _table_score(runs_32[score.index], TARGET)


def test_search_at_w2_inputs_schedule_is_frozen(monkeypatch, one_share):
    # The benchmark's W2 search, 200 instances at alpha = 1.98 in one
    # running stack of 32 slots: 736 lockstep de_step calls advance the
    # 18,963 rows of the instances' runs.  Draining each block of 32
    # before the next took 1,883 calls.
    stacks = []
    real_de_step = density_evolution.de_step

    def counting_de_step(sir, *args):
        stacks.append(sir.shape[0] if sir.ndim == 2 else 1)
        return real_de_step(sir, *args)

    monkeypatch.setattr(density_evolution, "de_step", counting_de_step)
    report = ensemble_search(SPEC_64, _scenario(1.98), target_ber=TARGET)
    assert (len(stacks), sum(stacks)) == (736, 18963)
    assert sum(stacks) == sum(score.iterations for score in report.scores)


def test_search_at_w2_inputs_in_two_shares_writes_the_one_share_report(monkeypatch, reaped):
    # Each share scores its own instances alone, so the two shares'
    # rows are the one share's 18,963, and the ranked report is the same.
    monkeypatch.setattr(search, "_share_count", lambda n_samples, slots: 1)
    one = ensemble_search(SPEC_64, _scenario(1.98), target_ber=TARGET)
    monkeypatch.setattr(search, "_share_count", lambda n_samples, slots: 2)
    two = ensemble_search(SPEC_64, _scenario(1.98), target_ber=TARGET)
    assert sum(score.iterations for score in two.scores) == 18963
    assert two.scores == one.scores
    assert _csv_bytes(two) == _csv_bytes(one)


def test_share_count_is_one_per_cpu_while_each_share_fills_its_stack(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert search._share_count(200, 32) == 6
    assert search._share_count(1 << 16, 32) == 8
    assert search._share_count(12, 5) == 2
    assert search._share_count(12, 12) == 1
    # Another Python thread's locks would be held in the child for good.
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert search._share_count(200, 32) == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert search._share_count(200, 32) == 6
    monkeypatch.delattr(os, "fork")
    assert search._share_count(200, 32) == 1


def test_search_on_one_cpu_never_forks(monkeypatch, reaped):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    report = ensemble_search(SPEC_64, _scenario(1.98), target_ber=TARGET)
    assert sum(score.iterations for score in report.scores) == 18963


def test_search_forks_past_the_multithreaded_process_warning(monkeypatch, two_shares, reaped):
    # Python 3.12 and later warn on every fork in a process with a second
    # thread, as numpy's OpenBLAS workers are; the suite makes that an error.
    real_fork = os.fork

    def warning_fork():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
            "to deadlocks in the child.",
            DeprecationWarning,
        )
        return real_fork()

    clean = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    monkeypatch.setattr(os, "fork", warning_fork)
    report = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    assert _csv_bytes(report) == _csv_bytes(clean)


def _in_child_share(action):
    """A _score_stack that runs ``action()`` in place of scoring in a forked share."""
    parent, real_score_stack = os.getpid(), search._score_stack

    def score_stack(*args):
        if os.getpid() != parent:
            action()
        return real_score_stack(*args)

    return score_stack


def _raise_value_error():
    raise ValueError("no share")


def test_search_raises_when_a_child_share_raises(monkeypatch, two_shares, reaped):
    monkeypatch.setattr(search, "_score_stack", _in_child_share(_raise_value_error))
    with pytest.raises(RuntimeError, match=r"share 1 \(pid \d+\) raised ValueError: no share"):
        ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)


def test_search_raises_when_a_child_share_exits_without_reporting(
    monkeypatch, two_shares, reaped
):
    monkeypatch.setattr(search, "_score_stack", _in_child_share(lambda: os._exit(3)))
    with pytest.raises(RuntimeError, match=r"share 1 \(pid \d+\) ended without reporting"):
        ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)


def test_search_kills_its_children_when_its_own_share_raises(monkeypatch, two_shares, reaped):
    # The child would sleep for a minute; the parent's error ends it at once.
    parent, real_score_stack = os.getpid(), search._score_stack

    def score_stack(*args):
        if os.getpid() == parent:
            raise ValueError("no share")
        time.sleep(60)
        return real_score_stack(*args)

    monkeypatch.setattr(search, "_score_stack", score_stack)
    start = time.monotonic()
    with pytest.raises(ValueError, match="no share"):
        ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    assert time.monotonic() - start < 30


def test_search_lists_both_shares_sampling_failures_by_index(monkeypatch, two_shares, reaped):
    # Share r holds the indices equal to r modulo 2, so instance 5 fails
    # in the child's share and 6 in this process's.
    clean = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    parent, real_sample = os.getpid(), search.sample_instance

    def failing_sample(spec, index):
        if index in (5, 6):
            where = "here" if os.getpid() == parent else "in a child"
            raise RuntimeError(f"no instance {index} {where}")
        return real_sample(spec, index)

    monkeypatch.setattr(search, "sample_instance", failing_sample)
    report = ensemble_search(SPEC_32, SCEN_32, target_ber=TARGET, max_iter=50)
    assert report.failures == (
        (5, "RuntimeError: no instance 5 in a child"),
        (6, "RuntimeError: no instance 6 here"),
    )
    assert report.scores == tuple(s for s in clean.scores if s.index not in (5, 6))


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
def test_mean_sir_floor_leaves_few_rows_to_the_exact_test(monkeypatch, rows, one_share):
    # Without the floor every waiting row takes the exact test at each step:
    # 388 rows, plus the 12 final max-BER rows.  With it, 31 rows do, at any
    # stack size; all twelve instances still reach the target.
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


# Where erfc underflows, as a sir: ber_of reads 0 above it.
_SIR_CUTOFF = 1480.35


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
# A target near the smallest normal float, below which qfunc is accurate
# only to 5e-324 absolute: the floor keeps sys.float_info.min of BER in
# hand there, besides the relative margin.
@example(target=5e-308, scale=1.0, spread=1e-9, shape=[-3.0, 1.0, 1.0])
def test_sir_floor_rules_out_only_rows_above_the_target(target, scale, spread, shape):
    floor = density_evolution._sir_floor(target)
    row = floor * scale * (1.0 + spread * np.array(shape))
    if row.mean() < floor:
        assert search.ber_of(row).mean() > target


def test_sir_floor_edges():
    # At target 1/2 no sir qualifies: the floor is 0 and rules nothing out.
    assert density_evolution._sir_floor(0.5) == 0.0
    # At the smallest targets the floor stops short of where ber_of reads 0.
    for target in (sys.float_info.min, 5e-324):
        floor = density_evolution._sir_floor(target)
        assert 1400.0 < floor < _SIR_CUTOFF
        assert search.ber_of(floor) > target


@pytest.mark.parametrize("rows", [1, 5, SPEC_32.n_samples])
def test_ensemble_search_records_sampling_failure_and_scores_the_rest(monkeypatch, rows):
    # With one slot the failing instance is skipped between two runs; with
    # five it is the first to be sampled into a retired row's slot, so
    # instance 6 takes that slot instead.
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


def test_ensemble_search_scores_reproducible_from_seeds():
    spec = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=8)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)
    report = ensemble_search(spec, scen, target_ber=TARGET, max_iter=80)
    for score in report.scores:
        g, a = sw_rewire(32, 1, 0.1, 2, 8, score.instance_seed)
        again = score_instance(g, a, scen, TARGET, max_iter=80)
        assert again == replace(score, index=None)


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
    plan = BisectionPlan(alpha_lo=1.0, alpha_hi=2.5, alpha_tol=1e-2)
    report = ensemble_search(spec, scen, target_ber=TARGET, max_iter=400, thresholds=plan)
    buf = io.StringIO()
    write_search_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "index,instance_seed,iterations_to_target,final_max_ber,alpha_bp"
    scored = [s for s in report.scores if s.threshold is not None]
    assert scored, "expected thresholds for finalists"
    for score in scored:
        g, a = sample_instance(spec, score.index)
        # Each finalist is bisected on its own matrix and training set, in the search's system.
        query = ThresholdQuery(
            B=to_base_matrix(g),
            sigma2=0.1,
            alpha_tr=1.2,
            training_set=a,
            alpha_lo=1.0,
            alpha_hi=2.5,
            alpha_tol=1e-2,
        )
        alone = bp_threshold(query)
        assert score.threshold == alone


def test_search_csv_keeps_alpha_bp_column_when_no_finalist_gets_a_threshold():
    spec = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=3)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)
    # Both ends succeed, so no bracket straddles a threshold.
    plan = BisectionPlan(alpha_lo=1.0, alpha_hi=1.1, alpha_tol=1e-2)
    report = ensemble_search(spec, scen, target_ber=TARGET, max_iter=400, thresholds=plan)
    assert report.with_thresholds
    assert all(score.threshold is None for score in report.scores)
    assert [index for index, _ in report.failures] == [score.index for score in report.scores]
    assert all(message.startswith("BracketError: ") for _, message in report.failures)
    buf = io.StringIO()
    write_search_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "index,instance_seed,iterations_to_target,final_max_ber,alpha_bp"
    assert len(lines) == 1 + len(report.scores)
    assert all(line.count(",") == 4 and line.endswith(",") for line in lines[1:])
