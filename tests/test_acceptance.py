"""Acceptance gate: one test per release criterion, one verdict line each.

Criteria 4-6 pin convergence levels of 1e-3 average (respectively
per-position) BER at 10 dB.  Every (64, 2) coupled system we can build
converges to a fixed point whose BER floor sits just above that level
(avg >= 1.0597e-3, max >= 1.0820e-3 across regular and rewired
instances), so those three checks fail on the floor, not on the
dynamics.  They are implemented exactly as stated and left red; the
module suites exercise the same claims at the attainable 2e-3 level.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from sccdma import (
    EnsembleSpec,
    GraphError,
    SystemScenario,
    ThresholdQuery,
    TrainingAssignment,
    average_load,
    bp_threshold,
    cluster_of,
    de_step,
    ensemble_search,
    make_regular,
    mmse_bpsk,
    run_de,
    sample_instance,
    scalar_fixed_points,
    score_instance,
    sigma2_from_db,
    sw_rewire,
    to_base_matrix,
)

NO_TRAINING = TrainingAssignment((), 0)
REG_T = TrainingAssignment(
    tuple(sorted(list(range(61, 64)) + list(range(0, 4)) + list(range(29, 36)))), 14
)
SW_SPEC = EnsembleSpec(L=64, W=2, p=0.1, c=2, tau=14, master_seed=4, n_samples=200)

# 20 (alpha, sigma2) points for the fixed-point oracle; root counts are
# stable under grid refinement 200k -> 600k (12 single, 8 triple).
FIXED_POINT_GRID = (
    (1.0, 0.1), (1.3, 0.1), (1.6, 0.1), (2.2, 0.1), (2.5, 0.1),
    (1.2, 0.05), (1.5, 0.05), (1.0, 0.2), (1.8, 0.2), (2.5, 0.2),
    (1.5, 0.5), (2.0, 0.5), (1.7, 0.08), (1.0, 1.0),
    (1.95, 0.05), (2.5, 0.05), (1.9, 0.08), (1.75, 0.1), (1.9, 0.1), (1.8, 0.12),
)


def _verdict(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sccdma.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_criterion_1_uncoupled_threshold():
    start = time.perf_counter()
    proc = _cli("threshold", "--uncoupled", "--snr-db", 10)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    alpha_bp = float(proc.stdout.splitlines()[1].split(",")[0])
    err = abs(alpha_bp - 1.73078)
    _verdict(
        1,
        err <= 1e-3 and elapsed < 10.0,
        f"alpha_bp={alpha_bp:.6f}, |err|={err:.2e} <= 1e-3, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_regular_coupled_threshold():
    start = time.perf_counter()
    result = bp_threshold(
        ThresholdQuery(
            B=to_base_matrix(make_regular(64, 2)),
            sigma2=sigma2_from_db(10.0),
            alpha_tr=1.45,
            training_set=REG_T,
            alpha_lo=1.0,
            alpha_hi=2.5,
            max_iter=10000,
        )
    )
    elapsed = time.perf_counter() - start
    err_alpha = abs(result.alpha_bp - 1.98958)
    err_load = abs(result.avg_load_at_threshold - 1.83981)
    _verdict(
        2,
        err_alpha <= 2e-3 and err_load <= 1e-3 and elapsed < 600.0,
        f"alpha_bp={result.alpha_bp:.6f} (|err|={err_alpha:.2e} <= 2e-3), "
        f"avg_load={result.avg_load_at_threshold:.6f} (|err|={err_load:.2e} <= 1e-3), "
        f"{elapsed:.0f}s < 600s",
    )


def test_criterion_3_average_load_formula():
    pairs = ((1.98958, 1.83981), (1.99911, 1.84617))
    errs = [abs(average_load(1.45, alpha, 14, 64) - want) for alpha, want in pairs]
    _verdict(
        3,
        max(errs) <= 1e-4,
        f"|err|={errs[0]:.2e}, {errs[1]:.2e} <= 1e-4 for alpha=1.98958, 1.99911",
    )


def test_criterion_4_both_couplings_reach_1e3_at_alpha_190():
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.45, alpha=1.9, training_set=REG_T)
    reg = run_de(to_base_matrix(make_regular(64, 2)), scen, max_iter=10000)
    g, a = sw_rewire(64, 2, 0.1, 2, 14, 659)
    sw = run_de(to_base_matrix(g), replace(scen, training_set=a), max_iter=10000)
    reg_hit = np.flatnonzero(reg.avg_ber <= 1e-3)
    sw_hit = np.flatnonzero(sw.avg_ber <= 1e-3)
    if reg_hit.size and sw_hit.size:
        r, s = int(reg_hit[0]), int(sw_hit[0])
        ok = abs(s - r) <= 0.2 * r
        detail = f"regular {r} vs sw(seed=659) {s} iterations, within 20%: {ok}"
    else:
        ok = False
        detail = (
            f"avg BER 1e-3 unreachable: converged floors regular={reg.avg_ber[-1]:.7e}, "
            f"sw(seed=659)={sw.avg_ber[-1]:.7e}; at the attainable 2e-3 level the "
            f"counts are 78 vs 88 (within 20%)"
        )
    _verdict(4, ok, detail)


def test_criterion_5_search_beats_regular_at_alpha_198():
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.45, alpha=1.98, training_set=NO_TRAINING)
    regular = score_instance(make_regular(64, 2), REG_T, scen, 1e-3)
    report = ensemble_search(SW_SPEC, scen, target_ber=1e-3)
    reached = [s for s in report.scores if s.iterations_to_target is not None]
    ok = (
        regular.iterations_to_target is not None
        and any(s.iterations_to_target < regular.iterations_to_target for s in reached)
    )
    if ok:
        detail = f"best {reached[0].iterations_to_target} < regular {regular.iterations_to_target}"
    else:
        floor = min(s.final_max_ber for s in report.scores)
        detail = (
            f"0 of {len(report.scores)} instances (and no regular baseline) reached "
            f"avg BER 1e-3; lowest final max-BER floor {floor:.7e}; the threshold "
            f"conjunct is moot with no iteration counts to compare; at 2e-3 instance "
            f"169 takes 257 < regular 302 with alpha_bp 2.00955 > 1.98958"
        )
    _verdict(5, ok, detail)


def test_criterion_6_wave_nucleates_in_clusters_and_floors_at_1e3():
    # Stand-in best instance: the search's top rank at the attainable
    # level, since no instance attains the criterion-5 level.
    g, a = sample_instance(SW_SPEC, 169)
    traj = run_de(to_base_matrix(g), SystemScenario(0.1, 1.45, 1.98, a))
    windows = cluster_of(0, 64, 2) | cluster_of(32, 64, 2)
    argmin_ok = set(int(m) for m in traj.argmin_position[10:51]) <= windows
    final_max = float(traj.ber[-1].max())
    floor_ok = final_max <= 1e-3
    _verdict(
        6,
        argmin_ok and floor_ok,
        f"argmin positions at iterations 10-50 inside cluster_of(0)|cluster_of(32): "
        f"{argmin_ok}; final per-position max BER {final_max:.7e} <= 1e-3: {floor_ok}",
    )


def test_criterion_7a_monotone_de_property():
    rng = np.random.default_rng(7)
    worst = worst_stacked = 0.0
    done = 0
    while done < 50:
        W = int(rng.integers(1, 4))
        L = int(rng.integers(2 * W + 2, 49))
        sigma2 = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.5, 2.2))
        alpha_tr = float(rng.uniform(0.3, alpha))
        g = make_regular(L, W)
        if L % 2 == 0 and L // 2 > 4 * W and rng.random() < 0.5:
            g, ta = sw_rewire(
                L, W, float(rng.uniform(0.0, 0.3)), 2,
                int(rng.integers(1, L // 2)), int(rng.integers(1 << 32)),
            )
        else:
            tau = int(rng.integers(0, L // 2 + 1))
            ta = TrainingAssignment(
                tuple(sorted(rng.choice(L, size=tau, replace=False).tolist())), tau
            )
        scen = SystemScenario(sigma2=sigma2, alpha_tr=alpha_tr, alpha=alpha, training_set=ta)
        B = to_base_matrix(g)
        traj = run_de(B, scen, max_iter=40)
        worst = min(worst, float(np.diff(traj.sir, axis=0).min()))
        # The same recursion on a lockstep stack of three loads sharing B,
        # as bisection runs it; a fourth state joins halfway from zero.
        loads = np.stack(
            [replace(scen, alpha=a).row_loads(L) for a in (alpha, 0.8 * alpha, 1.1 * alpha)]
        )
        sir = np.zeros_like(loads)
        for step in range(40):
            if step == 20:
                loads = np.vstack([loads, replace(scen, alpha=0.9 * alpha).row_loads(L)])
                sir = np.vstack([sir, np.zeros(L)])
            new, _ = de_step(sir, B.bsq, sigma2, loads)
            worst_stacked = min(worst_stacked, float((new - sir).min()))
            sir = new
        done += 1
    _verdict(
        "7a",
        worst >= -1e-12 and worst_stacked >= -1e-12,
        f"min sir increment {worst:.2e} over 50 configurations, "
        f"{worst_stacked:.2e} on their stacked de_step",
    )


def test_criterion_7b_rewired_graph_invariants():
    combos = [
        (L, W, c)
        for W in (1, 2, 3)
        for c in (2, 4)
        for L in range(2 * W + 2, 65)
        if L % c == 0 and L // c > 4 * W
    ]
    rng = np.random.default_rng(11)
    done = 0
    while done < 1000:
        L, W, c = combos[int(rng.integers(len(combos)))]
        tau = int(rng.integers(1, L + 1))
        try:
            g, a = sw_rewire(
                L, W, float(rng.uniform(0.0, 1.0)), c, tau,
                int(rng.integers(1 << 63)),
            )
        except GraphError:
            # heavy rewiring can empty factor rows; tau may then exceed
            # the number of selectable positions - redraw
            continue
        done += 1
        bsq = to_base_matrix(g).bsq
        assert np.max(np.abs(bsq.sum(axis=0) - 1.0)) <= 1e-12, (L, W, c)
        assert np.all(g.mult >= 0), (L, W, c)
        assert np.all(g.mult.sum(axis=0) == 2 * W + 1), (L, W, c)
        assert len(a.training_set) == tau == a.tau, (L, W, c)
        assert len(set(a.training_set)) == tau, (L, W, c)
        assert all(0 <= t < L for t in a.training_set), (L, W, c)
    _verdict("7b", True, "column normalization and degree invariants on 1000 rewired graphs")


def _bfs_cluster(center, L, W):
    # depth-2 BFS on the regular bipartite graph, factor side only
    seen = {("f", center)}
    frontier = {("f", center)}
    for _ in range(2):
        grown = set()
        for side, node in frontier:
            other = "v" if side == "f" else "f"
            for d in range(-W, W + 1):
                peer = (other, (node + d) % L)
                if peer not in seen:
                    seen.add(peer)
                    grown.add(peer)
        frontier = grown
    return {node for side, node in seen if side == "f"}


def test_criterion_7c_cluster_windows_match_bfs():
    for W in range(1, 5):
        for L in range(2 * W + 2, 65):
            for center in range(L):
                assert cluster_of(center, L, W) == _bfs_cluster(center, L, W), (center, L, W)
    _verdict("7c", True, "cluster_of equals depth-2 BFS for all L <= 64, W <= 4")


def _mmse_chunked(x):
    out = np.empty_like(x)
    for i in range(0, x.size, 16384):
        out[i : i + 16384] = mmse_bpsk(x[i : i + 16384])
    return out


def test_criterion_7d_scalar_fixed_points_against_dense_grid():
    worst = 0.0
    for alpha, sigma2 in FIXED_POINT_GRID:
        lib = scalar_fixed_points(alpha, sigma2)

        def f(x):
            return x * (sigma2 + alpha * mmse_bpsk(x)) - 1.0

        cells = 200_000
        xs = np.linspace(0.0, 1.0 / sigma2, cells + 1)
        fs = xs * (sigma2 + alpha * _mmse_chunked(xs)) - 1.0
        oracle = [
            brentq(f, xs[i], xs[i + 1], xtol=1e-12)
            for i in range(cells)
            if fs[i] * fs[i + 1] < 0.0
        ]
        assert len(lib) == len(oracle), (alpha, sigma2, len(lib), len(oracle))
        worst = max(worst, max(abs(a - b) for a, b in zip(lib, oracle)))
    _verdict(
        "7d",
        worst <= 1e-6,
        f"root counts match at 20 (alpha, sigma2) points, max |defect| {worst:.2e} <= 1e-6",
    )


def test_criterion_7e_cli_reruns_byte_identical(tmp_path):
    outcomes = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        blobs = []
        procs = []

        g64 = d / "g64.txt"
        procs.append(_cli(
            "generate", "--L", 64, "--W", 2, "--p", 0.2, "--c", 2,
            "--tau", 14, "--seed", 42, "--out", g64,
        ))
        blobs.append(g64.read_bytes())

        g32 = d / "g32.txt"
        procs.append(_cli(
            "generate", "--L", 32, "--W", 1, "--p", 0.1, "--c", 2,
            "--tau", 8, "--seed", 5, "--out", g32,
        ))
        traj, summary = d / "traj.csv", d / "summary.csv"
        proc = _cli(
            "de", "--graph", g32, "--snr-db", 10, "--alpha-tr", 1.2,
            "--alpha", 1.8, "--max-iter", 120,
            "--out-trajectory", traj, "--out-summary", summary,
        )
        procs.append(proc)
        blobs += [traj.read_bytes(), summary.read_bytes(), proc.stdout.encode()]

        report, log = d / "threshold.csv", d / "evaluations.csv"
        procs.append(_cli(
            "threshold", "--uncoupled", "--snr-db", 10,
            "--out-report", report, "--out-log", log,
        ))
        blobs += [report.read_bytes(), log.read_bytes()]

        ranked, best = d / "ranked.csv", d / "best.txt"
        procs.append(_cli(
            "search", "--L", 32, "--W", 1, "--p", 0.1, "--c", 2, "--tau", 8,
            "--samples", 6, "--seed", 6, "--snr-db", 10, "--alpha-tr", 1.2,
            "--alpha", 1.8, "--max-iter", 80,
            "--out-report", ranked, "--out-best", best,
        ))
        blobs += [ranked.read_bytes(), best.read_bytes()]

        proc = _cli("avgload", "--alpha-tr", 1.45, "--alpha", 1.98958, "--tau", 14, "--L", 64)
        procs.append(proc)
        blobs.append(proc.stdout.encode())

        assert all(p.returncode == 0 for p in procs), [p.stderr for p in procs]
        outcomes.append(blobs)
    _verdict(
        "7e",
        outcomes[0] == outcomes[1],
        "all five subcommands rerun byte-identical under fixed seeds",
    )
