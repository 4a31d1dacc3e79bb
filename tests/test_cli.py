from __future__ import annotations

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from sccdma import (
    TrainingAssignment,
    average_load,
    make_regular,
    parse_graph,
    serialize_graph,
    sw_rewire,
    to_base_matrix,
)
from sccdma import search
from sccdma.cli import main

REG_TRAINING = "61,62,63,0,1,2,3,29,30,31,32,33,34,35"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sccdma.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_generate_writes_parsable_graph(tmp_path):
    out = tmp_path / "g.txt"
    proc = run_cli(
        "generate", "--L", 64, "--W", 2, "--p", 0.1, "--c", 2,
        "--tau", 14, "--seed", 7, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    graph, assignment = parse_graph(out.read_text())
    assert graph.L == 64 and graph.W == 2
    assert assignment.tau == 14 and len(assignment.training_set) == 14
    assert all(0 <= t < 64 for t in assignment.training_set)
    colsums = to_base_matrix(graph).bsq.sum(axis=0)
    assert np.max(np.abs(colsums - 1.0)) <= 1e-12


def test_generate_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        proc = run_cli(
            "generate", "--L", 64, "--W", 2, "--p", 0.3, "--c", 2,
            "--tau", 14, "--seed", 123, "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_generate_p_zero_matches_library(tmp_path):
    out = tmp_path / "g.txt"
    proc = run_cli(
        "generate", "--L", 64, "--W", 2, "--p", 0.0, "--c", 2,
        "--tau", 14, "--seed", 11, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    g, a = sw_rewire(make_regular(64, 2), 0.0, 2, 14, 11)
    assert out.read_text() == serialize_graph(g, a)


def test_generate_rejects_overlapping_windows(tmp_path):
    proc = run_cli(
        "generate", "--L", 16, "--W", 2, "--p", 0.1, "--c", 2,
        "--tau", 4, "--seed", 1, "--out", tmp_path / "g.txt",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_generate_explicit_training_set(tmp_path):
    out = tmp_path / "g.txt"
    proc = run_cli(
        "generate", "--L", 64, "--W", 2, "--p", 0.0, "--c", 2,
        "--training-set", "5,9,40", "--seed", 3, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    _, assignment = parse_graph(out.read_text())
    assert sorted(assignment.training_set) == [5, 9, 40]
    assert assignment.tau == 3


def test_generate_tau_and_training_set_are_exclusive(tmp_path):
    proc = run_cli(
        "generate", "--L", 64, "--W", 2, "--tau", 14,
        "--training-set", "0,1", "--seed", 1, "--out", tmp_path / "g.txt",
    )
    assert proc.returncode == 2
    proc = run_cli("generate", "--L", 64, "--W", 2, "--seed", 1, "--out", tmp_path / "g.txt")
    assert proc.returncode == 2


@pytest.fixture(scope="module")
def regular_graph_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("graphs") / "regular.txt"
    proc = run_cli(
        "generate", "--L", 64, "--W", 2, "--p", 0.0, "--c", 2,
        "--training-set", REG_TRAINING, "--seed", 0, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def _summary_rows(path):
    with open(path, newline="") as stream:
        return list(csv.DictReader(stream))


def test_de_writes_both_csvs(tmp_path, regular_graph_file):
    traj_csv = tmp_path / "traj.csv"
    summary_csv = tmp_path / "summary.csv"
    proc = run_cli(
        "de", "--graph", regular_graph_file, "--snr-db", 10,
        "--alpha-tr", 1.45, "--alpha", 1.9,
        "--out-trajectory", traj_csv, "--out-summary", summary_csv,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "converged=true iterations=95"

    rows = _summary_rows(summary_csv)
    assert len(rows) == 96
    crossings = [int(r["iteration"]) for r in rows if float(r["avg_ber"]) <= 2e-3]
    assert crossings[0] == 78

    with open(traj_csv, newline="") as stream:
        header = stream.readline().strip()
    assert header == "iteration,position,sir,ber"


def test_de_iterations_to_target_tol_insensitive(tmp_path, regular_graph_file):
    firsts = []
    for tol in ("1e-8", "1e-10"):
        summary_csv = tmp_path / f"summary_{tol}.csv"
        proc = run_cli(
            "de", "--graph", regular_graph_file, "--snr-db", 10,
            "--alpha-tr", 1.45, "--alpha", 1.9, "--tol", tol,
            "--out-trajectory", tmp_path / f"traj_{tol}.csv",
            "--out-summary", summary_csv,
        )
        assert proc.returncode == 0, proc.stderr
        rows = _summary_rows(summary_csv)
        firsts.append(next(int(r["iteration"]) for r in rows if float(r["avg_ber"]) <= 2e-3))
    assert firsts[0] == firsts[1] == 78


def test_threshold_uncoupled_stdout(tmp_path):
    proc = run_cli(
        "threshold", "--uncoupled", "--snr-db", 10,
        "--alpha-lo", 1.0, "--alpha-hi", 2.5,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "alpha_bp,bracket_lo,bracket_hi,avg_load,evaluations,success_ber,alpha_tol"
    cells = lines[1].split(",")
    alpha_bp = float(cells[0])
    assert abs(alpha_bp - 1.73078) <= 1e-3
    assert float(cells[2]) - float(cells[1]) <= 1e-4 + 1e-12

    report = tmp_path / "report.csv"
    log = tmp_path / "log.csv"
    proc2 = run_cli(
        "threshold", "--uncoupled", "--snr-db", 10,
        "--alpha-lo", 1.0, "--alpha-hi", 2.5,
        "--out-report", report, "--out-log", log,
    )
    assert proc2.returncode == 0, proc2.stderr
    assert report.read_text() == proc.stdout

    with open(log, newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert int(cells[4]) == len(rows)
    assert set(r["converged"] for r in rows) <= {"true", "false"}


def test_threshold_inverted_bracket_exits_2():
    proc = run_cli(
        "threshold", "--uncoupled", "--snr-db", 10,
        "--alpha-lo", 2.0, "--alpha-hi", 1.5,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_de_rejects_huge_graph_with_exit_2(tmp_path):
    graph = tmp_path / "huge.json"
    graph.write_text(
        '{"version": 1, "L": 1000000000000, "W": 1, "provenance": null, '
        '"edges": [], "training": []}'
    )
    proc = run_cli(
        "de", "--graph", graph, "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", 1.9,
        "--out-trajectory", tmp_path / "t.csv", "--out-summary", tmp_path / "s.csv",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "at least" in proc.stderr


def test_de_rejects_huge_multiplicity_with_exit_2(tmp_path):
    # 10**30 does not fit the int64 multiplicity table.
    doc = json.loads(serialize_graph(make_regular(8, 1), TrainingAssignment((0,), 1)))
    doc["edges"][0][2] = 10**30
    graph = tmp_path / "huge.json"
    graph.write_text(json.dumps(doc))
    proc = run_cli(
        "de", "--graph", graph, "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", 1.9,
        "--out-trajectory", tmp_path / "t.csv", "--out-summary", tmp_path / "s.csv",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "multiplicity" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_generate_rejects_huge_L_with_exit_2(tmp_path):
    # L = 10**12 would need an 8 TB table; the cap stops it with a message.
    out = tmp_path / "g.json"
    proc = run_cli(
        "generate", "--L", 10**12, "--W", 1, "--tau", 1, "--seed", 0, "--out", out,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "exceeds the maximum" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate costs about 0.25 s and 26 MiB on every CLI call.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sccdma; print('scipy.interpolate' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # Nor does the CLI load any of scipy (0.3 s, 23 MiB) or the process pool
    # that only multi-worker searches use.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, sccdma.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'multiprocessing')"
            " or m == 'concurrent.futures.process'))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_threshold_requires_graph_or_uncoupled():
    proc = run_cli("threshold", "--snr-db", 10)
    assert proc.returncode == 2


def _search_args(out, workers=1):
    return (
        "search", "--L", 32, "--W", 1, "--p", 0.1, "--c", 2, "--tau", 8,
        "--samples", 6, "--seed", 6, "--snr-db", 10,
        "--alpha-tr", 1.2, "--alpha", 1.8, "--max-iter", 80,
        "--workers", workers, "--out-report", out,
    )


def test_search_deterministic_and_worker_invariant(tmp_path):
    reports = []
    for name, workers in (("r1.csv", 1), ("r2.csv", 1), ("r4.csv", 2)):
        out = tmp_path / name
        proc = run_cli(*_search_args(out, workers))
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize(
    "flags",
    [
        ("--W", 0),
        ("--W", -1),
        ("--target-ber", 0.7),
        ("--tol", -1),
        ("--with-thresholds", "--alpha-tol", -1),
    ],
)
def test_search_rejects_bad_arguments_before_sampling(tmp_path, monkeypatch, capsys, flags):
    # One message and exit 2, not one failure per sampled instance.
    sampled = []
    monkeypatch.setattr(search, "sample_instance", lambda *args: sampled.append(args))
    out = tmp_path / "report.csv"
    assert main([str(arg) for arg in (*_search_args(out), *flags)]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
    assert sampled == []
    assert not out.exists()


def test_search_writes_best_graph(tmp_path):
    report = tmp_path / "report.csv"
    best = tmp_path / "best.txt"
    proc = run_cli(*_search_args(report), "--out-best", best)
    assert proc.returncode == 0, proc.stderr
    graph, assignment = parse_graph(best.read_text())
    assert graph.L == 32 and graph.W == 1
    assert assignment.tau == 8
    with open(report, newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 6
    assert graph.provenance is not None
    assert int(rows[0]["instance_seed"]) == graph.provenance.seed


def test_avgload_matches_library():
    proc = run_cli("avgload", "--alpha-tr", 1.45, "--alpha", 1.98958, "--tau", 14, "--L", 64)
    assert proc.returncode == 0, proc.stderr
    value = float(proc.stdout.strip())
    assert value == average_load(1.45, 1.98958, 14, 64)
    assert abs(value - 1.83981) <= 1e-3
