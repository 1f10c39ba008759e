"""Run one benchmark workload against the program in ``src/``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload http_topk --seed 1 --seconds 30 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics with nothing of the
program wrapped; ``--trace 1`` measures with layer probes installed
(in every other epoch, in process) and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every checked answer was right, 1 when one was wrong and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import envstamp

# Before numpy is imported anywhere in this process or its children.
envstamp.pin_blas_threads()

import common  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("http_topk", "batch_offline", "ingest_mix")


def _workload(name: str):
    if name == "http_topk":
        import wl_http as module
    elif name == "batch_offline":
        import wl_batch as module
    else:
        import wl_ingest as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.seconds is None:
        args.seconds = float(json.loads((root / "BENCHMARK.json").read_text())["run_seconds"])

    work_parent = root / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        generated = inputs.Inputs(args.seed)
        graph_path = work / "graph.json"
        generated.write_graph(graph_path)
        ctx = common.Context(
            root=root, work=work, seconds=args.seconds,
            trace=bool(args.trace), inputs=generated, graph_path=graph_path,
        )
        print("env " + json.dumps(envstamp.stamp(root), sort_keys=True), flush=True)
        outcome = _workload(args.workload).run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass

    expected = layers.PER_LAYER if args.trace else END_TO_END
    if args.trace:
        # A layer the workload does not drive reads 0.
        for name, unit in expected.items():
            outcome.metrics.setdefault(name, (0.0, unit))
    if set(outcome.metrics) != set(expected):
        print(f"error: metrics {sorted(outcome.metrics)} differ from "
              f"{sorted(expected)}", file=sys.stderr)
        return 2
    for note in outcome.notes:
        print(f"note {args.workload}: {note}", file=sys.stderr)
    for wrong in outcome.wrong[:20]:
        print(f"WRONG {args.workload}: {wrong}", file=sys.stderr)
    result = {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not outcome.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
