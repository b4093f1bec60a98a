#!/usr/bin/env python3
"""Self-test of the benchmark itself; takes about ten seconds.

    python3 perfbench/selftest.py

Smoke mode: every workload runs at n = 3 with K = 1, traced and untraced,
and so does scan at --jobs 2.  Each must print every metric of BENCHMARK.json
with its unit and pass its output checks, including the reference digest.  Then the checker must count
as failures a wrong expected digest, a non-zero ``cli.run`` status, a child
process that exits non-zero and a timeout, and the benchmark must refuse to
run without the program's sources.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def smoke_workloads() -> dict[str, bench.Workload]:
    smoke = {name: dataclasses.replace(w, n=3, k=1) for name, w in bench.WORKLOADS.items()}
    # stdout must not depend on --jobs, so this shares scan-n7's digest
    smoke["scan-n7-jobs2"] = dataclasses.replace(smoke["scan-n7"], jobs=2)
    return smoke


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    with open(bench.BENCH_DIR / "expected.json") as fh:
        expected = json.load(fh)
    digests, seed = expected["stdout_sha256"], expected["reference_seed"]
    smoke = smoke_workloads()

    shas = {}
    for name, w in smoke.items():
        for trace in (0, 1):
            result, context = bench.run_workload(name, w, seed, 1.0, bool(trace), digests)
            tag = f"{name} n=3 K=1 trace={trace}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: correct, attempted {result['attempted']}, failed {result['failed']}")
            expect(context["reference_digest_checked"], f"{tag}: reference digest checked")
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(got == units[trace], f"{tag}: every metric printed with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{tag}: every value a number")
        shas[name] = context["stdout_sha256"]
    expect(shas["scan-n7"] == shas["scan-n7-jobs2"], "scan prints the same stdout at --jobs 2")

    w = smoke["scan-n7"]
    out = bench.measure(w, seed, 0.1, expected_sha="0" * 64)
    expect(out.attempted >= 1 and out.failed == out.attempted,
           f"wrong digest counted as failed ({out.failed}/{out.attempted})")
    out = bench.measure(dataclasses.replace(w, n=4), seed, 0.1, None)
    expect(out.attempted >= 1 and out.failed == out.attempted,
           f"non-zero cli.run status counted as failed ({out.failed}/{out.attempted})")
    failed, why = bench.failed_u(w, bench.call_child("no-such-mode", w, seed, 30.0), None)
    expect(failed == w.k and "exited" in why[0], f"child exiting non-zero counted as failed: {why}")
    out = bench.measure(w, seed, 0.1, None, limit=0.01)
    expect(out.attempted >= 1 and out.failed == out.attempted
           and any("timed out" in p for p in out.problems),
           f"timeout counted as failed ({out.failed}/{out.attempted})")

    bare = bench.TRACE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{bench.BENCH_DIR.name}/run.py", "--workload",
                           "scan-n7", "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout,
           f"without the sources: exit {proc.returncode}, no result printed")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
