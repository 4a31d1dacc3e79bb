"""Fresh-interpreter helper of the benchmark runner.

    python child.py setup WORKLOAD SEED WORKDIR
        Import sccdma.cli, build the workload's inputs (for
        cli_de_trajectory, run ``sccdma generate`` through ``cli.main``) and
        print {"import_s": ..., "digest": ...} as JSON.

    python child.py cli SPANS_JSON ARG...
        Run ``sccdma ARG...`` with every layer traced and write the pass's
        aggregated spans to SPANS_JSON; exits with the CLI's exit code.

The runner sets PYTHONPATH so that ``sccdma`` resolves to the checkout.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(workload: str, seed: int, work: Path) -> int:
    import workloads

    start = time.perf_counter()
    import sccdma.cli  # noqa: F401  (timed: the import every CLI call pays)

    import_s = time.perf_counter() - start
    _, digest = workloads.build_inputs(workload, seed, work)
    print(json.dumps({"import_s": import_s, "digest": digest}))
    return 0


def traced_cli(spans_path: Path, argv: list[str]) -> int:
    import tracing

    tracer = tracing.Tracer()
    start = time.perf_counter()
    import sccdma.cli

    tracer.add("import", start, time.perf_counter())
    with tracer.installed():
        code = sccdma.cli.main(argv)
    sys.stdout.flush()
    spans_path.write_text(json.dumps(tracing.aggregate(tracer.take())), encoding="utf-8")
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "setup":
        return setup(argv[1], int(argv[2]), Path(argv[3]))
    if len(argv) >= 2 and argv[0] == "cli":
        return traced_cli(Path(argv[1]), argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
