"""Every CSV writer's table reads back: a field per column, numbers bit-equal to the record."""

from __future__ import annotations

import io
from functools import cache

import numpy as np
import pytest

from sccdma import (
    BaseMatrix,
    BisectionPlan,
    EnsembleSpec,
    SystemScenario,
    ThresholdQuery,
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
from sccdma.density_evolution import _WRITE_LINES

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
