from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from sccdma import cli, search
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


def test_generate_explicit_training_set_draws_no_greedy_assignment(tmp_path):
    # At p = 1 factor node 1 loses all its edges, so a greedy assignment of
    # tau = 20 cannot be filled; the explicit set replaces it and is valid.
    out = tmp_path / "g.txt"
    code, _, err = run_main([
        "generate", "--L", 20, "--W", 2, "--p", 1.0, "--c", 2, "--seed", 2,
        "--training-set", ",".join(map(str, range(20))), "--out", out,
    ])
    assert code == 0, err
    graph, assignment = parse_graph(out.read_text())
    assert assignment.training_set == tuple(range(20))
    assert graph == sw_rewire(20, 2, 1.0, 2, 1, 2)[0]


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
        # alpha_lo needs 1,869 iterations to converge, so it runs out of budget;
        # alpha_hi's failure is certified at step 10.
        (
            ("--alpha-lo", 1.73077, "--max-iter", 1500),
            "alpha_lo=1.73077 success=False (converged=False, max_ber=0.0811061), "
            "alpha_hi=2.5 success=False (failure certified at step 10, max_ber=0.211517)",
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
        # Budgets past 2^62: 2^63 - 1 and 2^63 used to overflow int64 step counts.
        (("threshold", "--uncoupled", "--snr-db", 10, "--max-iter", 2**62 + 1), "max_iter"),
        (("threshold", "--uncoupled", "--snr-db", 10, "--max-iter", 2**63), "max_iter"),
        (("de", "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", 1.9, "--max-iter", 2**63 - 1), "max_iter"),
        (("de", "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", 1.9, "--max-iter", 2**63), "max_iter"),
        # No BER exceeds 1/2, so a higher level would make success mean convergence.
        (("threshold", "--uncoupled", "--snr-db", 10, "--success-ber", 0.7), "target BER"),
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
# The reciprocal of the subnormal sum of reciprocals overflowed to inf.
@example({"--alpha-tr": 1.7976931348623123e308, "--alpha": 1.797693134862315e308})
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


def test_de_reads_a_graph_file_up_to_the_length_bound_and_no_further(
    tmp_path, monkeypatch, regular_graph_file
):
    argv = [
        "de", "--graph", str(regular_graph_file), "--snr-db", "10",
        "--alpha-tr", "1.45", "--alpha", "1.9",
        "--out-trajectory", str(tmp_path / "t.csv"), "--out-summary", str(tmp_path / "s.csv"),
    ]
    # The bound is about 201 MB; reading a small file must not reserve it.
    tracemalloc.start()
    try:
        code = run_main(argv)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 16 << 20
    # A file one character over a small bound is named in one line.
    size = len(regular_graph_file.read_text(encoding="utf-8"))
    monkeypatch.setattr(cli, "_MAX_GRAPH_CHARS", size)
    assert run_main(argv)[0] == 0
    monkeypatch.setattr(cli, "_MAX_GRAPH_CHARS", size - 1)
    (tmp_path / "t.csv").unlink()
    code, _, err = run_main(argv)
    assert code == 2
    assert err == (
        f"error: graph file {regular_graph_file} is longer than {size - 1} characters, "
        "the most a graph document takes\n"
    )
    assert not (tmp_path / "t.csv").exists()


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
    # Nor does the CLI load any of scipy (0.3 s, 23 MiB) or the process pools
    # of multiprocessing: search forks its shares with os.fork alone.
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


def _fresh_interpreter(code: str, **env) -> str:
    """Standard output of ``code`` run by a new interpreter, OPENBLAS_THREAD_TIMEOUT unset unless given."""
    environ = {key: value for key, value in os.environ.items() if key != "OPENBLAS_THREAD_TIMEOUT"}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**environ, **env}
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_sets_no_variable_and_loads_no_numpy_until_a_name_is_used():
    shown = "import os, sys, sccdma; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'), 'numpy' in sys.modules)"
    assert _fresh_interpreter(shown) == "None False"
    assert _fresh_interpreter("import sys, sccdma; sccdma.run_de; print('numpy' in sys.modules)") == "True"


def test_a_public_name_loads_only_its_own_module():
    code = "import sys, sccdma; sccdma.{}; print(sorted(m for m in sys.modules if m.startswith('sccdma.')))"
    loaded = "['sccdma.coupling', 'sccdma.density_evolution', 'sccdma.threshold']"
    assert _fresh_interpreter(code.format("bp_threshold")) == loaded
    assert _fresh_interpreter(code.format("ThresholdQuery")) == loaded
    assert _fresh_interpreter(code.format("make_regular")) == "['sccdma.coupling']"


def test_cli_import_loads_no_mmse_fit():
    # The MMSE table is data: no numpy.polynomial (2-6 ms) and no fit at import.
    assert _fresh_interpreter("import sys, sccdma.cli; print('numpy.polynomial' in sys.modules)") == "False"


@pytest.mark.parametrize("given, kept", [(None, "4"), ("28", "28"), ("0", "0")])
def test_cli_import_sets_the_openblas_timeout_unless_the_user_did(given, kept):
    env = {} if given is None else {"OPENBLAS_THREAD_TIMEOUT": given}
    code = "import os, sccdma.cli; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert _fresh_interpreter(code, **env) == kept


def test_de_bytes_do_not_depend_on_the_openblas_timeout(tmp_path):
    # At L = 128 OpenBLAS runs the matvec on two threads where it has them.
    graph = tmp_path / "regular128.json"
    graph.write_text(serialize_graph(make_regular(128, 2), TrainingAssignment((0, 1, 2, 3), 4)))
    outputs = []
    for timeout in ("4", "28"):
        names = (tmp_path / f"t{timeout}.csv", tmp_path / f"s{timeout}.csv")
        proc = subprocess.run(
            [
                sys.executable, "-m", "sccdma.cli", "de", "--graph", str(graph), "--snr-db", "10",
                "--alpha-tr", "1.45", "--alpha", "1.9", "--max-iter", "300",
                "--out-trajectory", str(names[0]), "--out-summary", str(names[1]),
            ],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_THREAD_TIMEOUT": timeout},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([name.read_bytes() for name in names])
    assert outputs[0] == outputs[1]


def test_threshold_requires_graph_or_uncoupled():
    proc = run_cli("threshold", "--snr-db", 10)
    assert proc.returncode == 2


def _search_args(out):
    return (
        "search", "--L", 32, "--W", 1, "--p", 0.1, "--c", 2, "--tau", 8,
        "--samples", 6, "--seed", 6, "--snr-db", 10,
        "--alpha-tr", 1.2, "--alpha", 1.8, "--max-iter", 80,
        "--out-report", out,
    )


def test_search_rerun_is_byte_identical(tmp_path):
    outputs = []
    for run in ("a", "b"):
        report, best = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
        proc = run_cli(*_search_args(report), "--out-best", best)
        assert proc.returncode == 0, proc.stderr
        outputs.append((report.read_bytes(), best.read_bytes()))
    assert outputs[0] == outputs[1]


def test_search_reports_failed_bisections_and_exits_0(tmp_path):
    # Both ends of [1.0, 1.5] succeed on every finalist, so each bisection
    # fails; search says so per instance and still writes its report.
    out = tmp_path / "report.csv"
    flags = ("--with-thresholds", "--alpha-lo", 1.0, "--alpha-hi", 1.5, "--alpha-tol", 1e-2)
    code, stdout, err = run_main((*_search_args(out), *flags))
    assert code == 0 and stdout == ""
    with open(out, newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 6 and all(row["alpha_bp"] == "" for row in rows)
    lines = err.splitlines()
    assert sorted(int(line.split()[1]) for line in lines) == sorted(int(row["index"]) for row in rows)
    assert all(
        line.startswith("instance ") and " failed: BracketError: " in line for line in lines
    ), err


def test_search_records_a_finalist_with_inverted_bracket_ends_and_exits_0(tmp_path):
    # At success level 1/2 a run succeeds once it converges.  Within 60
    # iterations five finalists converge at 2.5 but not at 1.9, which
    # bisection refuses; the sixth converges at neither end.
    out = tmp_path / "report.csv"
    code, stdout, err = run_main((
        "search", "--L", 32, "--W", 1, "--p", 0.1, "--c", 2, "--tau", 8,
        "--samples", 6, "--seed", 7, "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", 1.9,
        "--with-thresholds", "--alpha-lo", 1.9, "--alpha-hi", 2.5, "--success-ber", 0.5,
        "--threshold-max-iter", 60, "--out-report", out,
    ))
    assert code == 0 and stdout == ""
    with open(out, newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 6 and all(row["alpha_bp"] == "" for row in rows)
    failed = sorted(
        (int(line.split()[1]), line.split(": ", 2)[1]) for line in err.splitlines()
    )
    assert failed == [(0, "BracketError"), *((i, "RuntimeError") for i in range(1, 6))], err
    assert (
        "instance 1 failed: RuntimeError: density-evolution success is not monotone "
        "over the bracket: failure at alpha=1.9 below success at alpha=2.5; refusing to bisect"
    ) in err.splitlines()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--alpha-hi", 1e306),
        ("--alpha-lo", 3),
        ("--alpha-tol", -1),
        ("--success-ber", 5e-4),
        ("budget", 0),
    ],
)
def test_threshold_and_search_print_one_message_per_bad_bisection_flag(tmp_path, flag, value):
    # Both commands check the same plan against the same 10 dB system.
    budget = {"threshold": "--max-iter", "search": "--threshold-max-iter"}
    errors = []
    for argv in (
        ("threshold", "--uncoupled", "--snr-db", 10),
        (*_search_args(tmp_path / "report.csv"), "--with-thresholds"),
    ):
        code, out, err = run_main((*argv, budget[argv[0]] if flag == "budget" else flag, value))
        assert code == 2 and out == ""
        errors.append(err)
    assert errors[0] == errors[1], errors
    assert errors[0].startswith("error:") and errors[0].count("\n") == 1


@pytest.mark.parametrize(
    "plan",
    [("--alpha-hi", 1e306), ("--alpha-lo", 3), ("--alpha-tol", -1), ("--success-ber", 5e-4), ("budget", 0)],
    ids=["alpha_hi", "alpha_lo", "alpha_tol", "success_ber", "budget"],
)
@pytest.mark.parametrize(
    "system", [("--snr-db", "nan"), ("--alpha-tr", 0), ("--tol", -1)], ids=["snr_db", "alpha_tr", "tol"]
)
def test_threshold_and_search_name_the_same_flag_of_a_bad_system_and_a_bad_plan(
    tmp_path, system, plan
):
    # Both commands check the noise level, then the plan, then the rest of the system.
    budget = {"threshold": "--max-iter", "search": "--threshold-max-iter"}
    flag, value = plan
    errors = []
    for argv in (
        ("threshold", "--uncoupled", "--snr-db", 10),
        (*_search_args(tmp_path / "report.csv"), "--with-thresholds"),
    ):
        code, out, err = run_main((*argv, *system, budget[argv[0]] if flag == "budget" else flag, value))
        assert code == 2 and out == ""
        errors.append(err)
    assert errors[0] == errors[1], errors
    assert errors[0].startswith("error:") and errors[0].count("\n") == 1


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
        ("--samples", 65537),
        ("--max-iter", 2**63),
        ("--with-thresholds", "--threshold-max-iter", 2**62 + 1),
        ("--with-thresholds", "--success-ber", 5e-4),
        ("--with-thresholds", "--alpha-hi", 1e306),
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
    # The bisection flags become a plan before the search checks its own.
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


_W2_SEARCH = (
    "search", "--L", 64, "--W", 2, "--p", 0.1, "--c", 2, "--tau", 14, "--samples", 200,
    "--snr-db", 10, "--alpha-tr", 1.45, "--alpha", 1.98, "--target-ber", 2e-3,
)
_W2_THRESHOLDS = ("--with-thresholds", "--alpha-lo", 1.5, "--alpha-hi", 2.2, "--alpha-tol", 1e-3)


@pytest.mark.parametrize("seed, flags", [(4, ()), (7, ()), (7, _W2_THRESHOLDS)])
def test_search_in_two_shares_writes_the_one_share_bytes(tmp_path, monkeypatch, seed, flags):
    outputs = []
    for shares in (1, 2):
        monkeypatch.setattr(search, "_share_count", lambda n_samples, slots, k=shares: k)
        report, best = tmp_path / f"{shares}.csv", tmp_path / f"{shares}.json"
        code, _, err = run_main(
            (*_W2_SEARCH, "--seed", seed, *flags, "--out-report", report, "--out-best", best)
        )
        assert code == 0, err
        outputs.append((report.read_bytes(), best.read_bytes()))
    assert outputs[0] == outputs[1]


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
# x86-64 with AVX-512 (another BLAS kernel may round de_step's matvecs, or
# another libm erfc, differently; under OPENBLAS_CORETYPE=Haswell the
# trajectory, summary and search reports move by up to 2.9e-15).  Any moved
# byte, even in a 17th digit, shows here; a change that moves one on purpose
# records the new digests and says so in CHANGES.md.
FROZEN_DIGESTS = {
    "graph.json": "cce41844fb71967c9d68e63acfb948014cfc097d3f4537a3a77de74e37b5e2fa",
    "trajectory.csv": "ad5f7cd68d8f2ad7f73bb364442d70004ec4df5a579dcf2c3f704f3c16f2f8ed",
    "summary.csv": "1c95906f0b392d4bfce1704e1317cae3a78b90b05a6ec32ca5b6252b861aa33c",
    "threshold_report.csv": "4ab01061760a76ca50b6ab323c71ff0b8de7ddf78b2dbcd6ed97a1e64ec58c04",
    "threshold_log.csv": "9c11d05d97ef03b14f373f5200fd92c7d6ca68e247027a57be698b44a609f4ef",
    "search_report.csv": "ebb616c71098639323d53320c4245953b77a97fb81d70f193add8a2ff579dd4e",
    "search_best.json": "b002105a6293fb2136e3903c3976d7e62d87637c04145662b0d8de3aaa52dde4",
    "search_thresholds.csv": "24a4de8ae3e9fb515a4d30b4f5d34d659ffacbb69627c076234272be2c0cbf6a",
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
