"""sccdma benchmark: four workloads, end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]

NAME is one of threshold_regular64, search_sw200, cli_threshold_uncoupled,
cli_de_trajectory, or ``all`` (each workload in its own process, one
table).  One caller runs one pass at a time (a closed loop) for about
``--seconds`` seconds, after building the inputs ``SETUP_REPEATS`` times in
fresh interpreters.  Every pass is checked against the frozen oracles in
``workloads.py``, and its output bytes and work counts must equal those of
the run's first pass.

With ``--trace 0`` the last line of standard output is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
wall_s (rescaled to the reference host speed, see REFERENCE_LOOPS),
setup_s and peak_rss_mib.  With ``--trace 1`` half the time runs
untraced passes and half runs traced ones, and the metrics are the
per-layer ones of ``tracing.layer_metrics`` plus cli.import_s,
cli.bytes_written and trace.overhead_s.  ``--out`` also writes the whole
record (machine, samples, work counts) as JSON.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "_work"
CHILD = BENCH / "child.py"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150.0
MIB = 1024.0  # ru_maxrss is in KiB on Linux

# The host's speed drifts by up to 1.5x over seconds to minutes (the host
# is shared), far more than the changes the benchmark should detect.  So
# each lap of a pass is bracketed by a fixed reference loop, independent of
# sccdma, and the lap's time is rescaled by the loop's reference time over
# its time around the lap.  A reference time is the loop's time on the
# baseline machine when the host was quiet, so rescaled times read as
# seconds there.  The host's slow phases slow different work by different
# factors, so each kind of pass has a loop of its own kind: in-process DE
# passes are dominated by exp over a 64 x 381 grid (the MMSE quadrature),
# CLI passes by import and interpreter work.  In tests, the grid loop
# tracked search_sw200 three times better than the interpreter loop, and the
# interpreter loop tracked cli_threshold_uncoupled where the grid loop
# over-corrected.  Set-up times are not rescaled: rescaling made them noisier.
LAP_S = 0.5
_GRID_U = np.arange(-190, 191) * 0.2
_GRID_SECH = 1.0 / np.cosh(_GRID_U)
_GRID_U2 = 0.5 * _GRID_U * _GRID_U
_GRID_X = np.linspace(0.6, 40.0, 64)
_SMALL_X = np.linspace(0.05, 5.0, 64)
_SMALL_M = np.full((64, 64), 1.0 / 64)


def grid_loop() -> float:
    """exp over a 64 x 381 grid and a little interpreter work."""
    acc = 0.0
    for i in range(40):
        kernel = _GRID_SECH * np.exp(-_GRID_U2 / (_GRID_X[:, None] * (1.0 + 0.01 * (i % 7))))
        acc += float(kernel.sum())
        acc += sum(k * k for k in range(40))
    return acc


def interpreter_loop() -> float:
    """Interpreter work and 64-element numpy calls."""
    acc = 0.0
    for i in range(1000):
        acc += float(_SMALL_X @ (_SMALL_M @ np.exp(-_SMALL_X * (1.0 + i % 7))))
        acc += sum(k * k for k in range(40))
    return acc


# pass kind -> (reference loop, its reference time in seconds)
REFERENCE_LOOPS = {
    "in_process": (grid_loop, 0.0045),
    "cli": (interpreter_loop, 0.0068),
}


def reference_time(loop) -> float:
    """Fastest of three timed loops, which skips a loop the host preempted."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return min(times)


class Stopwatch:
    """Times a pass in laps, each rescaled by the reference loops timed on either side.

    The host's speed changes within a long pass, so in-process passes end a
    lap after any DE run that brings it to LAP_S or more.  The reference
    loops themselves count in neither ``raw`` nor ``scaled``.
    """

    def __init__(self, kind: str, loop_s: float | None = None):
        self.loop, self.reference_s = REFERENCE_LOOPS[kind]
        self.raw = self.scaled = 0.0
        self.loop_s = loop_s

    def start(self) -> None:
        if self.loop_s is None:
            self.loop_s = reference_time(self.loop)
        self._began = time.perf_counter()

    def lap(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._began < LAP_S:
            return
        loop_s = reference_time(self.loop)
        self.raw += now - self._began
        self.scaled += (now - self._began) * 2 * self.reference_s / (self.loop_s + loop_s)
        self.loop_s = loop_s
        self._began = time.perf_counter()

    def stop(self) -> None:
        self.lap(force=True)


class SetupError(RuntimeError):
    """Building a workload's inputs failed; there is nothing to measure."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv: list[str], work: Path) -> tuple[int, float, float, str, str]:
    """Run a process to completion: (exit code, wall s, its own peak RSS MiB, stdout, stderr)."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=_env(), cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4, unlike wait, returns the resource usage of this child alone
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        wall,
        usage.ru_maxrss / MIB,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_setup(workload: str, seed: int, work: Path) -> dict:
    """Build the inputs SETUP_REPEATS times, each in a fresh interpreter."""
    walls, imports, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        code, wall, _, out, err = run_child(
            [sys.executable, str(CHILD), "setup", workload, str(seed), str(work)], work
        )
        if code != 0:
            raise SetupError(f"set-up of {workload} exited {code}:\n{err}")
        doc = json.loads(out.strip().splitlines()[-1])
        walls.append(wall)
        imports.append(doc["import_s"])
        digests.add(doc["digest"])
    if len(digests) != 1:
        raise SetupError(f"set-up of {workload} built different inputs: {sorted(digests)}")
    return {"setup_s": walls, "import_s": imports, "digest": digests.pop()}


def inprocess_pass(workload: str, inputs, seed: int, traced: bool, watch: Stopwatch) -> dict:
    from sccdma import search, threshold
    from sccdma import write_evaluation_log_csv, write_search_csv, write_threshold_csv

    # Untraced passes rebind run_de alone, to count iterations and end laps;
    # traced passes time one lap, so that no reference loop lands in a span.
    tracer = tracing.Tracer() if traced else tracing.Tracer(tracing.RUN_DE_BINDINGS, watch.lap)
    with tracer.installed():
        watch.start()
        if workload == "threshold_regular64":
            result = threshold.bp_threshold(inputs)
        else:
            spec, scen = inputs
            result = search.ensemble_search(spec, scen, target_ber=workloads.SEARCH_TARGET_BER)
        watch.stop()
    agg = tracing.aggregate(tracer.take())
    buf = io.StringIO()
    if workload == "threshold_regular64":
        write_threshold_csv(result, buf)
        write_evaluation_log_csv(result, buf)
        problems, counts = workloads.check_threshold(result)
    else:
        write_search_csv(result, buf)
        iterations = sum(info[0] for info in agg["layers"].get("run_de", {}).get("info", []))
        problems, counts = workloads.check_search(result, seed, iterations)
    output = buf.getvalue().encode("utf-8")
    counts["bytes_written"] = len(output)
    return {"wall": watch.raw, "scaled": watch.scaled, "digest": workloads.digest(output),
            "counts": counts, "problems": problems, "agg": agg}


def cli_pass(workload: str, seed: int, work: Path, traced: bool, watch: Stopwatch) -> dict:
    argv = workloads.cli_argv(workload, seed, work)
    files = workloads.cli_output_files(workload, work)
    for path in files:
        path.unlink(missing_ok=True)
    spans_path = work / "spans.json"
    if traced:
        command = [sys.executable, str(CHILD), "cli", str(spans_path), *argv]
    else:
        command = [sys.executable, "-m", "sccdma.cli", *argv]
    watch.start()
    code, _, rss, stdout, stderr = run_child(command, work)
    watch.stop()
    record = {"wall": watch.raw, "scaled": watch.scaled, "rss": rss, "agg": None}
    if code != 0:
        return {**record, "digest": None, "counts": {},
                "problems": [f"exit code {code}: {stderr.strip()[-500:]}"]}
    blobs = [stdout.encode("utf-8")] + [path.read_bytes() for path in files]
    if workload == "cli_threshold_uncoupled":
        problems, counts = workloads.check_cli_threshold(stdout, blobs[1].decode("utf-8"))
    else:
        problems, counts = workloads.check_cli_de(stdout, blobs[1], seed)
    counts["bytes_written"] = sum(len(blob) for blob in blobs)
    if traced:
        record["agg"] = json.loads(spans_path.read_text(encoding="utf-8"))
    return {**record, "digest": workloads.digest(*blobs), "counts": counts, "problems": problems}


def measure(run_pass, kind: str, seconds: float, min_passes: int) -> list[dict]:
    """Closed loop: passes back to back until the next one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    loop_s = None
    while True:
        watch = Stopwatch(kind, loop_s)
        began = time.perf_counter()
        try:
            record = run_pass(watch)
        except Exception:  # a pass that raises counts as failed; the loop goes on
            wall = time.perf_counter() - began
            record = {"wall": wall, "scaled": wall, "digest": None, "counts": {},
                      "problems": [traceback.format_exc()], "agg": None}
        passes.append(record)
        loop_s = watch.loop_s
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def judge(passes: list[dict], reference: dict) -> int:
    """Mark each pass failed or not against the run's first pass; return the failure count."""
    failed = 0
    for p in passes:
        problems = p["problems"]
        if p["digest"] != reference["digest"]:
            problems.append("output bytes differ from the run's first pass")
        if p["counts"] != reference["counts"]:
            problems.append(f"work counts {p['counts']} differ from {reference['counts']}")
        if "layer" in p:
            counts = {k: p["layer"][k] for k in tracing.COUNT_METRICS}
            if counts != reference["layer_counts"]:
                problems.append("per-layer counts differ from the first traced pass")
        p["failed"] = bool(problems)
        failed += p["failed"]
    return failed


def upper_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if the median qualifies."""
    n = len(samples)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup = run_setup(workload, seed, work)
    in_process = workload in workloads.IN_PROCESS
    if in_process:
        inputs, digest = workloads.build_inputs(workload, seed, work)
        if digest != setup["digest"]:
            raise SetupError("the runner built different inputs from the fresh interpreters")

        def untraced(watch):
            return inprocess_pass(workload, inputs, seed, False, watch)

        def traced_pass(watch):
            return inprocess_pass(workload, inputs, seed, True, watch)
    else:
        def untraced(watch):
            return cli_pass(workload, seed, work, False, watch)

        def traced_pass(watch):
            return cli_pass(workload, seed, work, True, watch)

    kind = "in_process" if in_process else "cli"
    budget = seconds / 2 if trace else seconds
    plain = measure(untraced, kind, budget, MIN_TRACED_PASSES if trace else MIN_PASSES)
    traced = measure(traced_pass, kind, budget, MIN_TRACED_PASSES) if trace else []
    reference = plain[0]
    for p in traced:
        if p["agg"] is not None:
            p["layer"] = tracing.layer_metrics(p["agg"], cli=not in_process)
            if reference.get("layer_counts") is None:
                reference["layer_counts"] = {k: p["layer"][k] for k in tracing.COUNT_METRICS}
    failed = judge(plain, reference) + judge(traced, reference)
    for p in plain + traced:
        for problem in p["problems"]:
            print(f"pass failed: {problem}", file=sys.stderr)

    walls = [p["scaled"] for p in plain]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(plain) + len(traced), "failed": failed,
        "work": reference["counts"],
        "wall_s_samples": walls,
        "raw_wall_s_samples": [p["wall"] for p in plain],
        "setup_s_samples": setup["setup_s"],
        "import_s_samples": setup["import_s"],
    }
    if not trace:
        if in_process:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MIB
        else:
            peak = statistics.median(p["rss"] for p in plain if "rss" in p)
        record["metrics"] = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup["setup_s"]), "s"),
            "peak_rss_mib": (peak, "MiB"),
        }
        return record

    good = [p for p in traced if p["agg"] is not None]
    if not good:
        raise SetupError(f"no traced pass of {workload} completed")
    traced_walls = [p["wall"] for p in traced]
    metrics = {
        k: (good[0]["layer"][k] if k in tracing.COUNT_METRICS
            else statistics.median(p["layer"][k] for p in good), _unit(k))
        for k in good[0]["layer"]
    }
    metrics["cli.import_s"] = (statistics.median(setup["import_s"]), "s")
    metrics["cli.bytes_written"] = (reference["counts"]["bytes_written"] if not in_process else 0,
                                    "bytes")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(record["raw_wall_s_samples"]), "s"
    )
    record["metrics"] = metrics
    record["traced_wall_s_samples"] = traced_walls
    record["remainder_s_samples"] = [
        p["wall"] - tracing.self_total(p["agg"]) for p in good
    ]
    return record


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ns_per_element"):
        return "ns"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_share_max")):
        return "ratio"
    return "count"


def machine_info() -> dict:
    """The hardware and software every result is measured on."""
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": None,
        "commit": _commit(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            read = lambda name: Path(index, name).read_text().strip()  # noqa: E731
            info["caches"][f"L{read('level')} {read('type')}"] = read("size")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    info["blas_threads"] = _blas_threads(numpy)
    return info


def _blas_threads(numpy) -> int | None:
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def report(record: dict) -> None:
    """Human-readable lines for one workload run."""
    attempted, failed = record["attempted"], record["failed"]
    mode = "traced" if record["trace"] else "untraced"
    print(f"# {record['workload']}  seed={record['seed']}  {mode}  "
          f"closed loop, 1 caller, {record['seconds']} s")
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print("work: " + "  ".join(f"{k}={v}" for k, v in record["work"].items()))
    walls, raw = record["wall_s_samples"], record["raw_wall_s_samples"]
    tail = upper_percentile(walls)
    tail_text = f", p{tail[0]} {tail[1]:.4f} s" if tail else ""
    print(f"wall_s (untraced, at reference speed): {statistics.median(walls):.4f} s "
          f"(median of n={len(walls)}{tail_text}); as measured {statistics.median(raw):.4f} s, "
          f"host at {statistics.median(w / r for w, r in zip(walls, raw)):.3f}x reference speed")
    print(f"error_rate: {failed / attempted:.4g} ({failed}/{attempted} passes)")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    if record["trace"]:
        remainder = statistics.median(record["remainder_s_samples"])
        print(f"untraced remainder (traced wall minus all self times): {remainder:.4f} s")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args) -> int:
    """Every workload in its own process; one table of the end-to-end metrics."""
    attempted = failed = 0
    correct = True
    metrics, records, rows = {}, {}, []
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:  # main removes WORK_ROOT
        for workload in workloads.WORKLOADS:
            out = Path(tmp) / f"{workload}.json"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(out)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                metrics[f"{workload}.{name}"] = (entry["value"], entry["unit"])
            records[workload] = json.loads(out.read_text(encoding="utf-8"))
            rows.append((workload, result))
    print()
    print(f"{'metric':28}" + "".join(f"{workload:>26}" for workload, _ in rows))
    for name, entry in rows[0][1]["metrics"].items():
        cells = "".join(
            f"{result['metrics'][name]['value']:>20.6g} {entry['unit']:<5}" for _, result in rows
        )
        print(f"{name:28}{cells}")
    rates = "".join(f"{r['failed'] / r['attempted']:>20.4g} {'':<5}" for _, r in rows)
    print(f"{'error_rate':28}{rates}")
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=4, help="workload seed (default 4)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="also write the full record as JSON to this path")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sccdma" / "__init__.py").is_file():
        print(f"error: no sccdma sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args)
        work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        try:
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still has its directory there
            pass
    record["machine"] = machine_info()
    report(record)
    correct = record["failed"] == 0
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(result_line(correct, record["attempted"], record["failed"], record["metrics"]))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
