"""The four benchmark workloads: their inputs, their CLI command lines and their oracles.

Shared by the runner (``run.py``) and its fresh-interpreter helper
(``child.py``).  Nothing here imports sccdma at module level, because the
helper times that import.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

WORKLOADS = (
    "threshold_regular64",
    "search_sw200",
    "cli_threshold_uncoupled",
    "cli_de_trajectory",
)
IN_PROCESS = ("threshold_regular64", "search_sw200")

SNR_DB = 10.0
ALPHA_TR = 1.45
# Training set of acceptance criterion 2: periods 61-63, 0-3 and 29-35.
REGULAR_TRAINING = tuple(sorted([*range(61, 64), *range(0, 4), *range(29, 36)]))
MAX_ITER = 10000
SEARCH_ALPHA = 1.98
SEARCH_TARGET_BER = 2e-3
SEARCH_SAMPLES = 200

# cli_de_trajectory runs instance 169 of an (L=64, W=2, p=0.1, c=2, tau=14)
# ensemble just below that instance's BP threshold, where the coupled wave
# crawls and DE needs about 1,530 iterations.  The run length depends
# sharply on the distance to the instance's own threshold (at a fixed load,
# instance 169 of other ensembles stops after 60-170 iterations), so the
# load is frozen per ensemble seed: the benchmark seed picks the ensemble
# as seed mod 8, and each load below was set so the run takes 1,527-1,531
# iterations.  Entry 4 is the ROADMAP instance (search rank 1 at seed 4).
# Values: ensemble seed -> (load, final per-position max BER).
DE_INSTANCE = 169
DE_CASES = {
    0: (1.8475, 0.0010754375329234142),
    1: (1.911217, 0.001087347265662976),
    2: (1.862481, 0.0010966931996464122),
    3: (1.8740694, 0.0010729649490559589),
    4: (2.009, 0.0011082463515344327),
    5: (1.8649346, 0.0010728083674721518),
    6: (1.97938, 0.0011023186970112889),
    7: (1.8660933, 0.0010735571475166612),
}
DE_BER_RTOL = 1e-9

# Frozen oracles at master seed 4 (search) and for the seed-free workloads.
THRESHOLD_ALPHA_BP = (1.98958, 2e-3)
THRESHOLD_AVG_LOAD = (1.83981, 1e-3)
UNCOUPLED_ALPHA_BP = (1.73078, 1e-3)
SEARCH_TOP_AT_SEED_4 = (169, 257)


def de_case(seed: int) -> tuple[int, float, float]:
    """(ensemble seed, load, frozen final max BER) of cli_de_trajectory for this seed."""
    ensemble = seed % len(DE_CASES)
    alpha, max_ber = DE_CASES[ensemble]
    return ensemble, alpha, max_ber


def threshold_query():
    """Criterion-2 bisection: regular (64, 2) at 10 dB, bracket [1.0, 2.5]."""
    from sccdma import (
        ThresholdQuery,
        TrainingAssignment,
        make_regular,
        sigma2_from_db,
        to_base_matrix,
    )

    return ThresholdQuery(
        B=to_base_matrix(make_regular(64, 2)),
        sigma2=sigma2_from_db(SNR_DB),
        alpha_tr=ALPHA_TR,
        training_set=TrainingAssignment(REGULAR_TRAINING, len(REGULAR_TRAINING)),
        alpha_lo=1.0,
        alpha_hi=2.5,
        max_iter=MAX_ITER,
    )


def search_inputs(seed: int):
    """(EnsembleSpec, SystemScenario) of the 200-sample search at alpha = 1.98."""
    from sccdma import EnsembleSpec, SystemScenario, TrainingAssignment, sigma2_from_db

    spec = EnsembleSpec(
        L=64, W=2, p=0.1, c=2, tau=14, master_seed=seed, n_samples=SEARCH_SAMPLES
    )
    scen = SystemScenario(
        sigma2=sigma2_from_db(SNR_DB),
        alpha_tr=ALPHA_TR,
        alpha=SEARCH_ALPHA,
        training_set=TrainingAssignment((), 0),
    )
    return spec, scen


def graph_path(work: Path) -> Path:
    return work / "instance.json"


def generate_argv(seed: int, work: Path) -> list[str]:
    """``sccdma generate`` arguments that write cli_de_trajectory's instance."""
    from sccdma import instance_seed

    ensemble, _, _ = de_case(seed)
    return [
        "generate", "--L", "64", "--W", "2", "--p", "0.1", "--c", "2", "--tau", "14",
        "--seed", str(instance_seed(ensemble, DE_INSTANCE)),
        "--out", str(graph_path(work)),
    ]


def build_inputs(workload: str, seed: int, work: Path):
    """Build a workload's inputs; returns (inputs, digest of the inputs).

    In-process workloads get their library objects; the CLI workloads get
    None, after writing any input file under ``work``.
    """
    if workload == "threshold_regular64":
        query = threshold_query()
        return query, digest(query.B.bsq.tobytes(), repr(query).encode())
    if workload == "search_sw200":
        spec, scen = search_inputs(seed)
        return (spec, scen), digest(repr(spec).encode(), repr(scen).encode())
    if workload == "cli_threshold_uncoupled":
        return None, digest(" ".join(cli_argv(workload, seed, work)).encode())
    if workload == "cli_de_trajectory":
        from sccdma.cli import main

        if main(generate_argv(seed, work)) != 0:
            raise RuntimeError("sccdma generate failed")
        return None, digest(graph_path(work).read_bytes())
    raise ValueError(f"unknown workload {workload!r}")


def cli_argv(workload: str, seed: int, work: Path) -> list[str]:
    """The sccdma command line of one CLI workload pass (after the program name)."""
    if workload == "cli_threshold_uncoupled":
        # --out-log adds 17 short lines; it is where the DE iteration counts are.
        return [
            "threshold", "--uncoupled", "--snr-db", "10",
            "--out-log", str(work / "log.csv"),
        ]
    if workload == "cli_de_trajectory":
        _, alpha, _ = de_case(seed)
        return [
            "de", "--graph", str(graph_path(work)), "--snr-db", "10",
            "--alpha-tr", repr(ALPHA_TR), "--alpha", repr(alpha),
            "--max-iter", str(MAX_ITER),
            "--out-trajectory", str(work / "trajectory.csv"),
            "--out-summary", str(work / "summary.csv"),
        ]
    raise ValueError(f"{workload!r} is not a CLI workload")


def cli_output_files(workload: str, work: Path) -> list[Path]:
    if workload == "cli_threshold_uncoupled":
        return [work / "log.csv"]
    return [work / "trajectory.csv", work / "summary.csv"]


def digest(*parts: bytes) -> str:
    """sha256 of length-prefixed parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _within(value: float, want_tol: tuple[float, float]) -> bool:
    want, tol = want_tol
    return abs(value - want) <= tol


# Oracles.  Each returns a list of problems (empty when the output is right)
# and the pass's work counts.


def check_threshold(result) -> tuple[list[str], dict]:
    problems = []
    if not _within(result.alpha_bp, THRESHOLD_ALPHA_BP):
        problems.append(f"alpha_bp {result.alpha_bp!r} not within {THRESHOLD_ALPHA_BP}")
    if not _within(result.avg_load_at_threshold, THRESHOLD_AVG_LOAD):
        problems.append(
            f"avg load {result.avg_load_at_threshold!r} not within {THRESHOLD_AVG_LOAD}"
        )
    iterations = [ev.iterations for ev in result.log]
    return problems, {
        "evaluations": result.de_evaluations,
        "de_iterations": sum(iterations),
        "instances": 0,
    }


def _rank_key(score) -> tuple[float, float, int]:
    iters = math.inf if score.iterations_to_target is None else score.iterations_to_target
    return (iters, score.final_max_ber, score.instance_seed or 0)


def check_search(report, seed: int, de_iterations: int) -> tuple[list[str], dict]:
    problems = []
    keys = [_rank_key(score) for score in report.scores]
    if keys != sorted(keys):
        problems.append("ranked scores are not sorted by (iterations, max BER, seed)")
    if report.failures:
        problems.append(f"{len(report.failures)} instances failed: {report.failures[:2]}")
    if seed == 4:
        top = report.scores[0]
        if (top.index, top.iterations_to_target) != SEARCH_TOP_AT_SEED_4:
            problems.append(
                f"top instance {top.index} at {top.iterations_to_target} iterations, "
                f"want {SEARCH_TOP_AT_SEED_4}"
            )
    return problems, {
        "evaluations": 0,
        "de_iterations": de_iterations,
        "instances": len(report.scores) + len(report.failures),
    }


def check_cli_threshold(stdout: str, log_csv: str) -> tuple[list[str], dict]:
    problems = []
    lines = stdout.splitlines()
    try:
        alpha_bp = float(lines[1].split(",")[0])
    except (IndexError, ValueError):
        return [f"unreadable threshold report {stdout[:200]!r}"], {}
    if not _within(alpha_bp, UNCOUPLED_ALPHA_BP):
        problems.append(f"alpha_bp {alpha_bp!r} not within {UNCOUPLED_ALPHA_BP}")
    rows = log_csv.splitlines()[1:]
    return problems, {
        "evaluations": len(rows),
        "de_iterations": sum(int(row.rsplit(",", 1)[1]) for row in rows),
        "instances": 0,
    }


def check_cli_de(stdout: str, trajectory: bytes, seed: int) -> tuple[list[str], dict]:
    problems = []
    fields = dict(tok.split("=", 1) for tok in stdout.split())
    if fields.get("converged") != "true":
        problems.append(f"run did not converge: {stdout.strip()!r}")
    iterations = int(fields.get("iterations", -1))
    _, _, want = de_case(seed)
    last = [
        row.split(",")
        for row in trajectory.decode().splitlines()[1:]
        if row.startswith(f"{iterations},")
    ]
    if not last:
        problems.append(f"trajectory has no rows for iteration {iterations}")
    else:
        max_ber = max(float(row[3]) for row in last)
        if not math.isclose(max_ber, want, rel_tol=DE_BER_RTOL, abs_tol=0.0):
            problems.append(f"final max BER {max_ber!r}, frozen {want!r}")
    return problems, {"evaluations": 0, "de_iterations": iterations, "instances": 0}
