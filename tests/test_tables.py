"""Every CSV writer's table reads back, and spells each field as the format operator does."""

from __future__ import annotations

import io
import math
import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sccdma import (
    BaseMatrix,
    BisectionPlan,
    DeEvaluation,
    DeTrajectory,
    EnsembleSpec,
    InstanceScore,
    SearchReport,
    SystemScenario,
    ThresholdQuery,
    ThresholdResult,
    TrainingAssignment,
    bp_threshold,
    ensemble_search,
    make_regular,
    run_de,
    to_base_matrix,
    write_evaluation_log_csv,
    write_search_csv,
    write_summary_csv,
    write_threshold_csv,
    write_trajectory_csv,
)
from sccdma import density_evolution, search, threshold
from sccdma.density_evolution import _FLOAT_FORMAT, _WRITE_LINES, _decimal, _write_table

NO_TRAINING = TrainingAssignment((), 0)
UNCOUPLED = BaseMatrix(L=1, bsq=np.array([[1.0]]))


class _RecordingStream(io.StringIO):
    """A text stream that keeps the most lines any one write carried."""

    most_lines = 0

    def write(self, text: str) -> int:
        self.most_lines = max(self.most_lines, text.count("\n"))
        return super().write(text)


@cache
def _trajectory():
    training = TrainingAssignment((0, 1, 2, 3, 29, 30, 31, 32, 33, 34, 35, 61, 62, 63), 14)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.45, alpha=1.97, training_set=training)
    traj = run_de(to_base_matrix(make_regular(64, 2)), scen, max_iter=500)
    assert traj.sir.size > _WRITE_LINES, "the table should take more than one write"
    return traj


@cache
def _threshold():
    query = ThresholdQuery(
        B=UNCOUPLED, sigma2=0.1, alpha_tr=1.0, training_set=NO_TRAINING, alpha_lo=1.0, alpha_hi=2.5
    )
    return bp_threshold(query)


def _trajectory_table():
    traj = _trajectory()
    n, L = traj.sir.shape
    sir, ber = traj.sir.tolist(), traj.ber.tolist()
    rows = [(i, m, sir[i][m], ber[i][m]) for i in range(n) for m in range(L)]
    return write_trajectory_csv, traj, ["iteration", "position", "sir", "ber"], rows


def _summary_table():
    traj = _trajectory()
    columns = (traj.avg_ber.tolist(), traj.min_ber.tolist(), traj.argmin_position.tolist())
    rows = [(i, *cells) for i, cells in enumerate(zip(*columns))]
    return write_summary_csv, traj, ["iteration", "avg_ber", "min_ber", "argmin_position"], rows


def _threshold_table():
    result = _threshold()
    header = [
        "alpha_bp", "bracket_lo", "bracket_hi", "avg_load", "evaluations", "success_ber", "alpha_tol"
    ]
    row = (
        result.alpha_bp,
        *result.bracket,
        result.avg_load_at_threshold,
        result.de_evaluations,
        result.success_ber,
        result.alpha_tol,
    )
    return write_threshold_csv, result, header, [row]


def _evaluation_log_table():
    result = _threshold()
    rows = [(ev.alpha, ev.converged, ev.max_ber, ev.iterations) for ev in result.log]
    return write_evaluation_log_csv, result, ["alpha", "converged", "max_ber", "iterations"], rows


def _search_table(with_thresholds: bool):
    spec = EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=6, n_samples=4)
    scen = SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8, training_set=NO_TRAINING)
    plan = BisectionPlan(alpha_lo=1.0, alpha_hi=2.5, alpha_tol=1e-2)
    report = ensemble_search(
        spec, scen, target_ber=2e-3, max_iter=400, thresholds=plan if with_thresholds else None
    )
    header = ["index", "instance_seed", "iterations_to_target", "final_max_ber"]
    rows = [
        (s.index, s.instance_seed, s.iterations_to_target, s.final_max_ber) for s in report.scores
    ]
    if with_thresholds:
        assert any(s.threshold is not None for s in report.scores)
        header.append("alpha_bp")
        rows = [
            (*row, None if s.threshold is None else s.threshold.alpha_bp)
            for row, s in zip(rows, report.scores)
        ]
    return write_search_csv, report, header, rows


def _check_field(text: str, value) -> None:
    if value is None:
        assert text == ""
    elif isinstance(value, bool):
        assert text == ("true" if value else "false")
    elif isinstance(value, int):
        assert int(text) == value
    else:
        # Bit-equal, signed zeros included.
        assert float(text).hex() == float(value).hex()


@pytest.mark.parametrize(
    "table",
    [
        _trajectory_table,
        _summary_table,
        _threshold_table,
        _evaluation_log_table,
        lambda: _search_table(with_thresholds=False),
        lambda: _search_table(with_thresholds=True),
    ],
    ids=["trajectory", "summary", "threshold", "evaluation_log", "search", "search_thresholds"],
)
def test_every_table_reads_back_field_for_field(table):
    writer, record, header, rows = table()
    stream = _RecordingStream()
    writer(record, stream)
    lines = stream.getvalue().split("\n")
    assert lines.pop() == ""
    assert lines[0].split(",") == header
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == len(header)
        for text, value in zip(fields, row):
            _check_field(text, value)
    assert stream.most_lines <= _WRITE_LINES


# The format operator is the oracle: %.17g for floats, %d for ints.
def _written(column) -> list[str]:
    stream = io.StringIO()
    _write_table(stream, "x", [column])
    lines = stream.getvalue().split("\n")
    assert lines[0] == "x" and lines.pop() == ""
    return lines[1:]


def _ties() -> list[float]:
    """Doubles whose 17-digit rounding is an exact tie, one per exponent from -4 to 14."""
    # x = odd / 2**(17 - k) makes x * 10**(16 - k) an odd multiple of 1/2.
    ties = [123456789012345.625]
    for k in range(-4, 15):
        scale = 2 ** (17 - k)
        ties.append((2 * math.floor(1.5 * 10.0**k * scale / 2) + 1) / scale)
    return ties


def _is_tie(value: float) -> bool:
    """Whether value's exact 18th significant digit is a 5 with nothing after it."""
    x, k = Fraction(value), 0
    while x >= Fraction(10) ** (k + 1):
        k += 1
    while x < Fraction(10) ** k:
        k -= 1
    return (x * Fraction(10) ** (16 - k)).denominator == 2


def test_floats_are_spelled_as_the_format_operator_spells_them():
    powers = [float(f"1e{p}") for p in range(-5, 19)]
    neighbours = [math.nextafter(v, toward) for v in powers for toward in (0.0, math.inf)]
    ends = [1e-4, 1e17, 2.0**-1074, 2.0**-1022]
    signed = [0.0, -0.0, math.inf, -math.inf, math.nan, -1.5, -1e-4]
    values = powers + neighbours + ends + signed + _ties()
    assert _written(np.array(values)) == [_FLOAT_FORMAT % v for v in values]
    # Ties take the format operator; the rest of [1e-4, 1e17) the digit path.
    fixed = [v for v in powers + neighbours + _ties() if 1e-4 <= v < 1e17]
    assert _decimal(np.array(fixed))[2].tolist() == [not _is_tie(v) for v in fixed]
    assert all(_is_tie(v) for v in _ties())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(1e-4, 1e17)), min_size=1, max_size=40))
@example([5e-324, -0.0, math.nan, 123456789012345.625, 99999999999999984.0])
def test_any_float_column_is_spelled_as_the_format_operator_spells_it(values):
    assert _written(np.array(values, dtype=np.float64)) == [_FLOAT_FORMAT % v for v in values]


def test_ints_are_spelled_as_the_format_operator_spells_them():
    values = [0, 9, 10, *(10**k + d for k in range(1, 19) for d in (-1, 0, 1)), 2**63 - 1, -1, -(2**63)]
    assert _written(np.array(values, dtype=np.int64)) == ["%d" % v for v in values]
    # Seeds reach 2**64 - 1, past int64: they go as values, and None as an empty field.
    assert _written([2**63, 2**64 - 1, None]) == ["9223372036854775808", "18446744073709551615", ""]
    assert _written([True, False]) == ["true", "false"]


def _sized_trajectory(rows: int) -> DeTrajectory:
    # Zeros, subnormal and huge sirs, and the tiny BERs of large ones, take the format operator.
    rng = np.random.default_rng(rows)
    sir = rng.exponential(20.0, rows)
    sir[::97] = 0.0
    sir[1::89] = rng.choice([5e-324, 1e-5, 1e17, 3e20], size=sir[1::89].size)
    return DeTrajectory(sir=sir.reshape(rows, 1), converged=True)


def _sized_result(rows: int) -> ThresholdResult:
    rng = np.random.default_rng(rows)
    log = tuple(
        DeEvaluation(
            alpha=float(alpha), converged=bool(i % 3), max_ber=float(ber),
            iterations=int(iters), success=bool(i % 2),
        )
        for i, (alpha, ber, iters) in enumerate(zip(
            rng.uniform(1.0, 2.5, rows), rng.uniform(1e-6, 0.5, rows), rng.integers(0, 10**6, rows)
        ))
    )
    return ThresholdResult(
        bracket=(1.98, 1.9801), avg_load_at_threshold=1.8394571, success_ber=1e-3,
        alpha_tol=1e-4, log=log,
    )


def _sized_report(rows: int, with_thresholds: bool) -> SearchReport:
    rng = np.random.default_rng(rows)
    threshold = _sized_result(1)
    scores = tuple(
        InstanceScore(
            instance_seed=int(seed) * 3 + 2**62, iterations_to_target=None if i % 5 == 0 else i,
            final_max_ber=float(ber), iterations=i,
            threshold=threshold if with_thresholds and i % 4 else None, index=i,
        )
        for i, (seed, ber) in enumerate(zip(rng.integers(0, 2**62, rows), rng.uniform(0, 0.5, rows)))
    )
    return SearchReport(
        spec=EnsembleSpec(L=32, W=1, p=0.1, c=2, tau=8, master_seed=0, n_samples=1),
        scenario=SystemScenario(sigma2=0.1, alpha_tr=1.2, alpha=1.8),
        scores=scores, best_graph=make_regular(8, 1),
        best_assignment=TrainingAssignment((0, 4), 2), with_thresholds=with_thresholds,
    )


def _reference(header: str, row: str, rows) -> str:
    """The table as the format operator writes it, a line at a time."""
    return "".join([header + "\n", *((row + "\n") % values for values in rows)])


def _sized_tables(rows: int):
    traj, result = _sized_trajectory(rows), _sized_result(rows)
    f = _FLOAT_FORMAT
    yield write_trajectory_csv, traj, _reference(
        "iteration,position,sir,ber", f"%d,%d,{f},{f}",
        ((i, 0, sir[0], ber[0]) for i, (sir, ber) in enumerate(zip(traj.sir.tolist(), traj.ber.tolist()))),
    )
    yield write_summary_csv, traj, _reference(
        "iteration,avg_ber,min_ber,argmin_position", f"%d,{f},{f},%d",
        (
            (i, *cells)
            for i, cells in enumerate(
                zip(traj.avg_ber.tolist(), traj.min_ber.tolist(), traj.argmin_position.tolist())
            )
        ),
    )
    # The report has one row, whose evaluations field is the log's length.
    yield write_threshold_csv, result, _reference(
        "alpha_bp,bracket_lo,bracket_hi,avg_load,evaluations,success_ber,alpha_tol",
        ",".join([f] * 4 + ["%d"] + [f] * 2),
        [(1.98, 1.98, 1.9801, 1.8394571, rows, 1e-3, 1e-4)],
    )
    yield write_evaluation_log_csv, result, _reference(
        "alpha,converged,max_ber,iterations", f"{f},%s,{f},%d",
        ((ev.alpha, str(ev.converged).lower(), ev.max_ber, ev.iterations) for ev in result.log),
    )
    for with_thresholds in (False, True):
        report = _sized_report(rows, with_thresholds)
        fields = [
            (s.index, s.instance_seed, "" if s.iterations_to_target is None else s.iterations_to_target,
             s.final_max_ber, "" if s.threshold is None else f % s.threshold.alpha_bp)
            for s in report.scores
        ]
        width = 5 if with_thresholds else 4
        header = "index,instance_seed,iterations_to_target,final_max_ber,alpha_bp"
        yield write_search_csv, report, _reference(
            ",".join(header.split(",")[:width]), ",".join(["%s"] * 3 + [f, "%s"][: width - 3]),
            (row[:width] for row in fields),
        )


@pytest.mark.parametrize(
    "rows", sorted({0, 1, 8191, 8192, 8193, _WRITE_LINES - 1, _WRITE_LINES, _WRITE_LINES + 1})
)
def test_every_writer_spells_its_table_as_the_format_operator_would(rows):
    for writer, record, expected in _sized_tables(rows):
        stream = _RecordingStream()
        writer(record, stream)
        assert stream.getvalue() == expected, writer.__name__
        assert stream.most_lines <= _WRITE_LINES


def test_writers_hand_values_not_text_to_the_table(monkeypatch):
    # Every field is spelled in _write_table, so no writer spells one itself.
    handed = []

    def capture(stream, header, columns):
        handed.append((header, columns))

    for module in (density_evolution, search, threshold):
        monkeypatch.setattr(module, "_write_table", capture)
    for writer, record, _ in _sized_tables(5):
        writer(record, io.StringIO())
    assert len(handed) == 6
    for header, columns in handed:
        for column in columns:
            values = [] if callable(column) else list(column)
            assert not any(isinstance(value, str) for value in values), header


def test_short_tables_stay_below_the_mmap_threshold():
    # glibc serves a block of 128 KiB or more by mmap, and freeing one raises
    # that threshold for the rest of the process, which changes how the
    # in-process benchmark passes allocate: a threshold log (17 lines) and a
    # 200-instance search table must not format a whole _WRITE_LINES block.
    result, report = _sized_result(17), _sized_report(200, with_thresholds=True)
    for writer, record in [
        (write_threshold_csv, result), (write_evaluation_log_csv, result), (write_search_csv, report),
    ]:
        tracemalloc.start()
        try:
            writer(record, io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024, (writer.__name__, peak)
