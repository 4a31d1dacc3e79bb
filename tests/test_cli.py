from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "sccdma.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_main(argv):
    """``main`` in-process on string arguments; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


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
    g, a = sw_rewire(64, 2, 0.0, 2, 14, 11)
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


@pytest.mark.parametrize(
    "flags, ends",
    [
        (
            ("--alpha-lo", 1.0, "--alpha-hi", 1.2),
            "alpha_lo=1.0 success=True (converged=True, max_ber=0.000907309), "
            "alpha_hi=1.2 success=True (converged=True, max_ber=0.000939261)",
        ),
        # alpha_lo needs 1,869 iterations to converge, so it runs out of budget.
        (
            ("--alpha-lo", 1.73077, "--max-iter", 1500),
            "alpha_lo=1.73077 success=False (converged=False, max_ber=0.0811061), "
            "alpha_hi=2.5 success=False (converged=True, max_ber=0.211484)",
        ),
    ],
    ids=["both_succeed", "lo_out_of_budget"],
)
def test_threshold_bracket_that_does_not_straddle_exits_2(flags, ends):
    code, out, err = run_main(("threshold", "--uncoupled", "--snr-db", 10, *flags))
    assert code == 2 and out == ""
    assert err == f"error: bracket does not straddle the threshold: {ends}\n"


@pytest.mark.parametrize("flag, value", [("--alpha-hi", "inf"), ("--alpha-tol", "1e-300")])
def test_threshold_bracket_that_cannot_shrink_exits_2(flag, value):
    # An infinite end, or a width below the float spacing, would keep
    # bisection from ever reaching alpha_tol.
    proc = run_cli("threshold", "--uncoupled", "--snr-db", 10, flag, value, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert flag[2:].replace("-", "_") in proc.stderr


@pytest.mark.parametrize(
    "argv, named",
    [
        (("threshold", "--uncoupled", "--snr-db", 10, "--alpha-tol", "nan"), "alpha_tol"),
        (("threshold", "--uncoupled", "--snr-db", "nan"), "snr_db=nan"),
        (("threshold", "--uncoupled", "--snr-db=-4000"), "snr_db=-4000"),
        (("threshold", "--uncoupled", "--snr-db", 10, "--training-set", "5,7"), "--training-set"),
        (("threshold", "--uncoupled", "--snr-db", 10, "--training-set", "0"), "--training-set"),
        (("de", "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", "nan"), "alpha must"),
        (("de", "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", 1.9, "--tol", "inf"), "tol must"),
        (("de", "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", 1.9, "--training-set", 8), "chain length 8"),
        (("avgload", "--alpha-tr", "nan", "--alpha", 1.9, "--tau", 14, "--L", 64), "alpha_tr"),
    ],
)
def test_bad_flag_exits_2_with_one_line_naming_it(tmp_path, argv, named):
    if argv[0] == "de":
        graph = tmp_path / "g.json"
        graph.write_text(serialize_graph(make_regular(8, 1), TrainingAssignment((0,), 1)))
        argv = (
            "de", "--graph", graph, *argv[1:],
            "--out-trajectory", tmp_path / "t.csv", "--out-summary", tmp_path / "s.csv",
        )
    code, out, err = run_main(argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and named in err, err


def _real(lo, hi):
    """Any float: NaN, infinities, zeros, negatives, a subnormal and 1e300 favoured, and [lo, hi]."""
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e300]),
        st.floats(),
        st.floats(lo, hi),
    )


def _assert_exit_0_finite_or_2(argv, overrides):
    # Each override repeats a flag of argv, and the last one given wins.
    argv = [*argv, *(f"{flag}={value!r}" for flag, value in overrides.items())]
    code, out, err = run_main(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    else:
        fields = out.splitlines()[-1].split(",")
        assert all(math.isfinite(float(field)) for field in fields), (argv, out)


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            "--snr-db": _real(8.0, 20.0),
            "--alpha-lo": _real(0.5, 1.7),
            "--alpha-hi": _real(1.8, 3.0),
            # Accepted tolerances stay at 1e-2 and above to keep each example
            # short; fine ones are the bisection tests' job.
            "--alpha-tol": st.one_of(
                st.sampled_from([math.nan, math.inf]),
                st.floats(max_value=1e-15),
                st.floats(min_value=1e-2),
            ),
            "--tol": _real(1e-12, 1e-4),
        },
    )
)
def test_threshold_real_flags_fuzz(overrides):
    _assert_exit_0_finite_or_2(
        ["threshold", "--uncoupled", "--max-iter", 60, "--snr-db", 10, "--alpha-tol", 0.01],
        overrides,
    )


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({}, optional={"--alpha-tr": _real(0.5, 3.0), "--alpha": _real(0.5, 3.0)}))
def test_avgload_real_flags_fuzz(overrides):
    _assert_exit_0_finite_or_2(
        ["avgload", "--alpha-tr", 1.45, "--alpha", 1.9, "--tau", 14, "--L", 64], overrides
    )


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
        ("--with-thresholds", "--alpha-lo", 3),
        ("--with-thresholds", "--threshold-max-iter", 0),
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


def test_search_reports_a_bad_bisection_flag_before_a_bad_scoring_flag(tmp_path, capsys):
    # The bisection flags become a query before the search checks its own.
    out = tmp_path / "report.csv"
    flags = ("--with-thresholds", "--alpha-lo", 3, "--target-ber", 0.7)
    assert main([str(arg) for arg in (*_search_args(out), *flags)]) == 2
    assert capsys.readouterr().err == (
        "error: inverted bracket: alpha_lo=3.0 must be below alpha_hi=2.5\n"
    )


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


def test_de_noise_level_that_overflows_exits_2(tmp_path, recwarn):
    # sigma2 = 1e308 plus a load of 1e308 would overflow inside de_step.
    graph = tmp_path / "g.json"
    graph.write_text(serialize_graph(make_regular(8, 1), TrainingAssignment((0,), 1)))
    code, out, err = run_main([
        "de", "--graph", graph, "--snr-db", -3080, "--alpha-tr", 1.45, "--alpha", 1e308,
        "--out-trajectory", tmp_path / "t.csv", "--out-summary", tmp_path / "s.csv",
    ])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "noise bound" in err, err
    assert len(recwarn) == 0
    assert not (tmp_path / "t.csv").exists()


# sha256 of each output file, recorded with numpy 2.4 and OpenBLAS 0.3.31 on
# x86-64 (another platform's exp or matvec may round differently).  Any moved
# byte, even in a 17th digit, shows here; a change that moves one on purpose
# records the new digests and says so in CHANGES.md.
FROZEN_DIGESTS = {
    "graph.json": "cce41844fb71967c9d68e63acfb948014cfc097d3f4537a3a77de74e37b5e2fa",
    "trajectory.csv": "90dfbc75f35c89aa1e30c9e9e784f3e5a0f7b4243e7b88f232b84d2818646ec0",
    "summary.csv": "d0b3aefe34a7fb31e9a5995d13c8aa3845679e65833579a252adc9ac11d379e3",
    "threshold_report.csv": "4ab01061760a76ca50b6ab323c71ff0b8de7ddf78b2dbcd6ed97a1e64ec58c04",
    "threshold_log.csv": "c9d2755d27e8b40c62a7c88cc4f6a9c49c74a761acafc0fe9fbc33f97a2ed083",
    "search_report.csv": "7a83eb73be1e2cac72feaaf5b3c3668efa044711224b2b29bef1183acde1fcea",
    "search_best.json": "b002105a6293fb2136e3903c3976d7e62d87637c04145662b0d8de3aaa52dde4",
    "search_thresholds.csv": "dec64251168a5a80f0facb867ae28dee13eb8a8b11352c4630238c8d6575d472",
}


def _write_frozen_outputs(work):
    """Run each subcommand on small inputs, writing the files of FROZEN_DIGESTS under ``work``."""
    argvs = [
        ("generate", "--L", 32, "--W", 2, "--p", 0.2, "--c", 2, "--tau", 6,
         "--seed", 5, "--out", work / "graph.json"),
        ("de", "--graph", work / "graph.json", "--snr-db", 10, "--alpha-tr", 1.45,
         "--alpha", 1.8, "--out-trajectory", work / "trajectory.csv",
         "--out-summary", work / "summary.csv"),
        ("threshold", "--uncoupled", "--snr-db", 10,
         "--out-report", work / "threshold_report.csv", "--out-log", work / "threshold_log.csv"),
        (*_search_args(work / "search_report.csv"), "--out-best", work / "search_best.json"),
        (*_search_args(work / "search_thresholds.csv"), "--with-thresholds", "--alpha-tol", 1e-2),
    ]
    for argv in argvs:
        code, _, err = run_main(argv)
        assert code == 0, (argv, err)


def test_outputs_match_frozen_digests(tmp_path):
    _write_frozen_outputs(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FROZEN_DIGESTS
    }
    assert digests == FROZEN_DIGESTS
