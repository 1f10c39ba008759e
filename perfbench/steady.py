"""Steadiness check: run each workload repeatedly and show each metric's
median, quartiles and spread against its bound in BENCHMARK.json.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads http_topk ...]

A set is ``--runs`` runs of every workload, seeds ``1 .. runs``.  The
spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  With two sets it also shows
how far the second set's median moved from the first's, in the
metric's worse direction.  Runs are strictly sequential: two at once
would measure each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = r + 1
                result = one_run(workload, seed, spec["run_seconds"], 0)
                runs.append(result)
                print(f"{workload} set {s + 1} seed {seed}: "
                      f"attempted {result['attempted']} failed {result['failed']} "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                 for m in metrics), flush=True)
            sets.append(runs)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summarise([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            line = (f"  {workload:14s} {name:15s} " + " | ".join(
                f"median {st['median']:.4g} q1 {st['q1']:.4g} q3 {st['q3']:.4g} "
                f"spread {st['spread'] * 100:.1f}%" for st in stats)
                + f" | bound {bound * 100:.0f}%")
            if any(st["spread"] > bound for st in stats):
                ok = False
                line += "  SPREAD OVER BOUND"
            if len(stats) == 2:
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
                line += f" | second median worse by {drift * 100:.1f}%"
                if drift > bound:
                    ok = False
                    line += "  DRIFT OVER BOUND"
            print(line, flush=True)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"  {workload:14s} failed shares {sorted(shares)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
