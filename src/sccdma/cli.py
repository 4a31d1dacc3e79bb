"""Command-line surface: generate instances, run DE, estimate thresholds, search.

Subcommands: generate | de | threshold | search | avgload.  Data goes to
files or standard output, diagnostics to standard error.  An error ends
the run with exit code 2 and a message.  Search reports a failed
instance and still exits 0: each instance it could not sample or bisect
gets an ``instance N failed:`` line, and the report is written all the
same.
Every run with identical flags (seeds included) produces byte-identical
output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

# Set before numpy loads, which starts OpenBLAS's worker threads.  An idle
# worker spins for 2**OPENBLAS_THREAD_TIMEOUT cycles before it sleeps (2**28
# by default, about 0.1 s of a core per process) and no matvec of a CLI run
# at L = 64 wakes one.  A user's own value is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .coupling import (  # noqa: E402
    _MAX_GRAPH_CHARS,
    BaseMatrix,
    GraphParseError,
    TrainingAssignment,
    _rewired_graph,
    assign_training,
    average_load,
    check_training,
    parse_graph,
    serialize_graph,
    to_base_matrix,
)
from .density_evolution import (  # noqa: E402
    SystemScenario,
    format_field,
    run_de,
    sigma2_from_db,
    write_summary_csv,
    write_trajectory_csv,
)
from .search import EnsembleSpec, ensemble_search, write_search_csv  # noqa: E402
from .threshold import (  # noqa: E402
    DEFAULT_SUCCESS_BER,
    BisectionPlan,
    ThresholdQuery,
    bp_threshold,
    write_evaluation_log_csv,
    write_threshold_csv,
)

__all__ = ["main"]

_UNCOUPLED_B = BaseMatrix(L=1, bsq=[[1.0]])


def _parse_training_flag(text: str) -> tuple[int, ...]:
    try:
        members = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"training set must be comma-separated integers, got {text!r}")
    return members


def _training_override(members: tuple[int, ...], L: int) -> TrainingAssignment:
    check_training(members, L)
    return TrainingAssignment(training_set=members, tau=len(members))


def _load_graph(args):
    """The ``--graph`` file's graph and training set, ``--training-set`` replacing the latter."""
    chunks, length = [], 0
    with open(args.graph, encoding="utf-8") as stream:
        # In chunks: one read of the whole bound would reserve all of it up front.
        while chunk := stream.read(1 << 20):
            length += len(chunk)
            if length > _MAX_GRAPH_CHARS:
                raise GraphParseError(
                    f"graph file {args.graph} is longer than {_MAX_GRAPH_CHARS} characters, "
                    "the most a graph document takes"
                )
            chunks.append(chunk)
    graph, assignment = parse_graph("".join(chunks))
    if args.training_set is not None:
        assignment = _training_override(_parse_training_flag(args.training_set), graph.L)
    return graph, assignment


def _write_file(path: str, write) -> None:
    """Create or replace ``path`` as UTF-8, newlines as written, and fill it by ``write(stream)``."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write(stream)


def _plan_fields(args, max_iter: int) -> dict:
    """The bisection flags and ``max_iter`` as the fields of a plan, or of a query's plan."""
    names = ("alpha_lo", "alpha_hi", "alpha_tol", "success_ber")
    return {name: getattr(args, name) for name in names} | {"max_iter": max_iter}


def cmd_generate(args) -> int:
    # A bad set is reported before a bad graph flag, so it is parsed first.
    members = None if args.training_set is None else _parse_training_flag(args.training_set)
    # The graph's draws all come before the greedy assignment's, which an
    # explicit set replaces, so none of the latter are made.
    graph, rng = _rewired_graph(args.L, args.W, args.p, args.c, args.seed)
    if members is None:
        assignment = assign_training(graph, args.tau, rng)
    else:
        assignment = _training_override(members, args.L)
    text = serialize_graph(graph, assignment)
    _write_file(args.out, lambda stream: stream.write(text))
    return 0


def cmd_de(args) -> int:
    graph, assignment = _load_graph(args)
    scen = SystemScenario(sigma2_from_db(args.snr_db), args.alpha_tr, args.alpha, assignment)
    traj = run_de(to_base_matrix(graph), scen, max_iter=args.max_iter, tol=args.tol)
    _write_file(args.out_trajectory, partial(write_trajectory_csv, traj))
    _write_file(args.out_summary, partial(write_summary_csv, traj))
    print(f"converged={format_field(traj.converged)} iterations={traj.iterations_run}")
    return 0


def cmd_threshold(args) -> int:
    if args.uncoupled:
        if args.training_set is not None:
            raise ValueError("--training-set needs --graph: an uncoupled system has no training set")
        system = {"B": _UNCOUPLED_B}
    else:
        graph, assignment = _load_graph(args)
        system = {"B": to_base_matrix(graph), "training_set": assignment}
    result = bp_threshold(ThresholdQuery(
        **_plan_fields(args, args.max_iter), **system,
        sigma2=sigma2_from_db(args.snr_db), alpha_tr=args.alpha_tr, sir_tol=args.tol,
    ))
    if args.out_report is None:
        write_threshold_csv(result, sys.stdout)
    else:
        _write_file(args.out_report, partial(write_threshold_csv, result))
    if args.out_log is not None:
        _write_file(args.out_log, partial(write_evaluation_log_csv, result))
    return 0


def cmd_search(args) -> int:
    spec = EnsembleSpec(
        L=args.L,
        W=args.W,
        p=args.p,
        c=args.c,
        tau=args.tau,
        master_seed=args.seed,
        n_samples=args.samples,
    )
    # The noise level, then the plan, then the scenario: the order in which
    # ``threshold`` checks its flags, so both name the same bad one first.
    sigma2 = sigma2_from_db(args.snr_db)
    thresholds = None
    if args.with_thresholds:
        thresholds = BisectionPlan(**_plan_fields(args, args.threshold_max_iter))
    scen = SystemScenario(sigma2, args.alpha_tr, args.alpha)
    report = ensemble_search(
        spec,
        scen,
        target_ber=args.target_ber,
        max_iter=args.max_iter,
        sir_tol=args.tol,
        thresholds=thresholds,
    )
    _write_file(args.out_report, partial(write_search_csv, report))
    if args.out_best is not None:
        best = serialize_graph(report.best_graph, report.best_assignment)
        _write_file(args.out_best, lambda stream: stream.write(best))
    for index, message in report.failures:
        print(f"instance {index} failed: {message}", file=sys.stderr)
    return 0


def cmd_avgload(args) -> int:
    value = average_load(args.alpha_tr, args.alpha, args.tau, args.L)
    print(format_field(value))
    return 0


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snr-db", type=float, required=True, help="SNR 10*log10(1/sigma^2)")
    parser.add_argument("--alpha-tr", type=float, required=True, help="training-phase load")
    parser.add_argument("--alpha", type=float, required=True, help="propagation-phase load")


def _add_bisection_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha-lo", type=float, default=1.0, help="bracket low end")
    parser.add_argument("--alpha-hi", type=float, default=2.5, help="bracket high end")
    parser.add_argument("--alpha-tol", type=float, default=1e-4, help="bisection stopping width")
    parser.add_argument(
        "--success-ber",
        type=float,
        default=DEFAULT_SUCCESS_BER,
        help="max final BER that still counts as success",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sccdma",
        description="Spatially coupled CDMA analysis: coupling graphs, density evolution, thresholds, instance search.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="generate a coupling-graph instance")
    gen.add_argument("--L", type=int, required=True, help="chain length")
    gen.add_argument("--W", type=int, required=True, help="coupling width")
    gen.add_argument("--p", type=float, default=0.0, help="rewiring probability")
    gen.add_argument("--c", type=int, default=2, help="cluster count")
    group = gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", type=int, help="training-set size, assigned by degree")
    group.add_argument("--training-set", help="explicit training set, comma-separated factor indices")
    gen.add_argument("--seed", type=int, required=True, help="instance seed")
    gen.add_argument("--out", required=True, help="output graph file")
    gen.set_defaults(func=cmd_generate)

    de = sub.add_parser("de", help="run density evolution on a graph file")
    de.add_argument("--graph", required=True, help="input graph file")
    _add_scenario_flags(de)
    de.add_argument("--training-set", help="override the file's training set")
    de.add_argument("--max-iter", type=int, default=1000, help="iteration budget")
    de.add_argument("--tol", type=float, default=1e-8, help="sir convergence tolerance")
    de.add_argument("--out-trajectory", required=True, help="per-position CSV path")
    de.add_argument("--out-summary", required=True, help="per-iteration summary CSV path")
    de.set_defaults(func=cmd_de)

    thr = sub.add_parser("threshold", help="estimate the BP threshold by bisection")
    source = thr.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="input graph file")
    source.add_argument("--uncoupled", action="store_true", help="single-period system, no graph")
    thr.add_argument("--snr-db", type=float, required=True, help="SNR 10*log10(1/sigma^2)")
    thr.add_argument("--alpha-tr", type=float, default=1.0, help="training-phase load")
    thr.add_argument("--training-set", help="override the file's training set")
    _add_bisection_flags(thr)
    thr.add_argument("--max-iter", type=int, default=10000, help="iteration budget per run")
    thr.add_argument("--tol", type=float, default=1e-8, help="sir convergence tolerance")
    thr.add_argument("--out-report", help="report CSV path (default: standard output)")
    thr.add_argument(
        "--out-log",
        help="evaluation-log CSV path; a certified failure logs converged=false "
        "with iterations below --max-iter",
    )
    thr.set_defaults(func=cmd_threshold)

    sea = sub.add_parser("search", help="search a small-world ensemble for fast instances")
    sea.add_argument("--L", type=int, required=True, help="chain length")
    sea.add_argument("--W", type=int, required=True, help="coupling width")
    sea.add_argument("--p", type=float, required=True, help="rewiring probability")
    sea.add_argument("--c", type=int, default=2, help="cluster count")
    sea.add_argument("--tau", type=int, required=True, help="training-set size")
    sea.add_argument("--samples", type=int, required=True, help="number of instances")
    sea.add_argument("--seed", type=int, required=True, help="master seed")
    _add_scenario_flags(sea)
    sea.add_argument(
        "--target-ber",
        type=float,
        default=DEFAULT_SUCCESS_BER,
        help="average-BER level defining iterations-to-target",
    )
    sea.add_argument("--max-iter", type=int, default=1000, help="iteration budget per instance")
    sea.add_argument("--tol", type=float, default=1e-8, help="sir convergence tolerance")
    sea.add_argument("--with-thresholds", action="store_true", help="bisect thresholds of the top 10")
    _add_bisection_flags(sea)
    sea.add_argument(
        "--threshold-max-iter", type=int, default=10000, help="iteration budget inside bisection"
    )
    sea.add_argument("--out-report", required=True, help="ranked report CSV path")
    sea.add_argument("--out-best", help="graph file for the best instance")
    sea.set_defaults(func=cmd_search)

    avg = sub.add_parser("avgload", help="average load of a training/propagation split")
    avg.add_argument("--alpha-tr", type=float, required=True, help="training-phase load")
    avg.add_argument("--alpha", type=float, required=True, help="propagation-phase load")
    avg.add_argument("--tau", type=int, required=True, help="training-set size")
    avg.add_argument("--L", type=int, required=True, help="chain length")
    avg.set_defaults(func=cmd_avgload)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
