#!/usr/bin/env python3
"""Repeated benchmark runs, workloads interleaved, with medians and quartiles.

    python3 perfbench/report.py --reps 10 --seed0 100

Repetition r runs every workload once with seed ``seed0 + r``, in the
order of BENCHMARK.json when r is even and in reverse when r is odd.  Each
run is ``perfbench/run.py`` in its own process, as the driver runs it.
Prints the run context, then per workload and end-to-end metric the run
count, median, quartiles and spread, (q3 - q1) / median, against the
metric's bound; "!" marks a spread of a third of the bound or more.  Rows
marked "raw" give the timings before division by host slowness.  The full record goes to ``.perfbench/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def main() -> int:
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]),
                        help="comma-separated workload names")
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    context = bench.run_context()
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        seed = args.seed0 + rep
        for name in names if rep % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=bench.ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode} {proc.stderr.strip()}")
                return 1
            result = json.loads(lines[-1])
            result["context"] = json.loads(lines[-2])["context"]
            runs[name].append(result)
            print(f"rep {rep} {name} seed {seed} ({time.perf_counter() - start:.1f} s): "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                  flush=True)
    context["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"context": context}))

    summary = {}
    print(f"{'workload':14} {'metric':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, results in runs.items():
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[metric]
            summary.setdefault(name, {})[metric] = {
                "unit": first["unit"], "runs": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values}
            flag = "" if spread < bound / 3 else " !"
            print(f"{name:14} {metric:12} {len(values):3d} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {bound:>6}{flag}")
        # The same timings before division by host slowness, for comparison.
        for metric in results[0]["context"].get("raw_s", {}):
            values = [r["context"]["raw_s"][metric] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"{name:14} {'raw ' + metric:12} {len(values):3d} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {(q3 - q1) / med:7.3f}")
    bench.TRACE_DIR.mkdir(exist_ok=True)
    with open(bench.TRACE_DIR / "report.json", "w") as fh:
        json.dump({"context": context, "summary": summary, "runs": runs,
                   "correct": all(r["correct"] for rs in runs.values() for r in rs)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
