#!/usr/bin/env python3
"""nhspectrum benchmark: CLI workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload scan-n7 --seed 7 --seconds 55 --trace 0

Each workload is a closed loop with one client: ``nhspectrum.cli.run`` is
invoked with ``--u sample:K:<seed>`` in a fresh process, its stdout is
captured and checked, and the next invocation starts when the previous one
has ended, until ``--seconds`` are used.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics (medians over the invocations); with
``--trace 1`` it carries the per-layer metrics of one traced invocation.
The line before it is the run context: machine, versions, commit, load and
every sample.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Every child gets what is left of this, so a hung program is killed and
# counted as failed while the whole run still ends inside 180 s.
RUN_LIMIT_S = 160.0
# Set-up-only processes that fill the time left after the last invocation.
MAX_SETUP_EXTRAS = 16
# How long a child process runs between two pauses for reference work, and the
# three parts of one slice of reference work (see _ref_slice), timed on a
# 2-vCPU Intel Xeon VM at its typical speed.
REF_EVERY_S = 0.25
REF_S = (0.0062, 0.0056, 0.0033)
# The program slows more than the reference work when the host is busy: over
# two sets of ten runs, log raw time against log slowness had a slope of
# 1.56-1.60 on both workloads.  So timings are divided by slowness to this power.
SENSITIVITY = 1.5


@dataclass(frozen=True)
class Workload:
    command: str
    n: int
    k: int
    jobs: int = 1


WORKLOADS = {
    "scan-n7": Workload("scan", 7, 4),
    "lemmas-n9": Workload("verify-lemmas", 9, 2),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "field.make_context_s": "s",
    "field.log_tables_s": "s",
    "field.pair_add_table_s": "s",
    "field.pair_add_table_mb": "MB",
    "field.chi_cold_us": "us",
    "field.chi_warm_us": "us",
    "field.mul_cold_us": "us",
    "field.mul_warm_us": "us",
    "field.self_s": "s",
    "spectrum.u0_nonf3_elements_s": "s",
    "spectrum.u0_count": "count",
    "spectrum.closed_form_ms": "ms",
    "spectrum.self_s": "s",
    "ness.spectrum_bruteforce_ms": "ms",
    "ness.ddt_table_ms": "ms",
    "ness.ddt_builds_per_u": "count",
    "ness.ddt_cells": "count",
    "ness.self_s": "s",
    "charsums.section2_identities_ms": "ms",
    "charsums.g_product_sums_per_u": "count",
    "charsums.self_s": "s",
    "solution_census.verify_predictions_ms": "ms",
    "solution_census.pairs": "count",
    "solution_census.consistent_ratio": "ratio",
    "solution_census.self_s": "s",
    "rng.sample_ms": "ms",
    "cli.resolve_u_s": "s",
    "cli.emit_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "cli.unaccounted_s": "s",
    "trace.overhead_frac": "ratio",
}

# rng's self time is rng.sample_ms; cli's is cli.unaccounted_s plus its calls.
SELF_TIME_LAYERS = ("field", "spectrum", "ness", "charsums", "solution_census")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    data: Optional[dict]  # the child's JSON result, None when it failed
    error: Optional[str]
    elapsed: float        # the child process, start to exit, pauses included
    slowness: float = 1.0  # the host's, over the child's lifetime (see HostRef)
    pauses: list[tuple[float, float]] = field(default_factory=list)

    def active(self, span: list[float]) -> float:
        """The length of a perf_counter span of the child, less its pauses."""
        start, end = span
        return end - start - sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.pauses)


def call_child(mode: str, w: Workload, seed: int, timeout: float,
               ref: Optional["HostRef"] = None) -> Invocation:
    """Runs child.py once; with ``ref``, pauses it every REF_EVERY_S for reference work."""
    spec = {"mode": mode, "src": str(SRC), "command": w.command, "n": w.n, "k": w.k,
            "seed": seed, "jobs": w.jobs}
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    TRACE_DIR.mkdir(exist_ok=True)
    pauses: list[tuple[float, float]] = []
    # Files, not pipes: a child whose output filled a pipe would block.
    with tempfile.TemporaryFile("w+", dir=TRACE_DIR) as out, \
            tempfile.TemporaryFile("w+", dir=TRACE_DIR) as err:
        start = time.perf_counter()
        deadline = start + timeout
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err, text=True)
        try:
            while True:
                try:
                    proc.wait(timeout=max(0.0, min(REF_EVERY_S, deadline - time.perf_counter())))
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() >= deadline:
                        return Invocation(None, f"{mode} timed out after {timeout:.1f} s",
                                          time.perf_counter() - start)
                    if ref is not None:
                        pauses.append(ref.pause(proc))
        finally:
            if proc.poll() is None:  # timed out, or an error in between
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - start
        slowness = ref.take() if ref is not None else 1.0
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return Invocation(None, f"{mode} exited {proc.returncode}: {tail[0]}", elapsed)
    try:
        data = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return Invocation(None, f"{mode} printed no result", elapsed)
    return Invocation(data, None, elapsed, slowness, pauses)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
#
# The benchmark shares a few vCPUs with other tenants.  Their load makes the
# same code run 20-30 % faster or slower, in swings that last from seconds to
# minutes and that differ between the vCPUs.  So an untraced run keeps itself
# and its children on one vCPU, and every REF_EVERY_S it stops the child and
# does a slice of fixed reference work, which no change to the program touches.
# A child's timings, less its pauses, are divided by the host's slowness over
# the slices taken during its life, raised to SENSITIVITY.  They then read as
# seconds on a host that does the reference work at REF_S.  The raw timings go
# to the context line.


@functools.lru_cache(maxsize=None)
def _ref_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.integers(0, 2187, size=1_000_000, dtype=np.int64),
            rng.integers(0, 2187**2, size=2187**2, dtype=np.int64),
            rng.integers(0, 2187**2, size=100_000, dtype=np.int64))


def _ref_slice() -> tuple[float, float, float]:
    """One slice of reference work; the times of its three parts.

    One part per kind of work the workloads do: an interpreter loop, numpy
    passes over 3 MB, and gathers from a 38 MB table, the size of a q x q
    table at n = 7.
    """
    import numpy as np

    small, big, idx = _ref_arrays()
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    np.bincount(small[:400_000], minlength=2187)
    np.sort(small[:30_000])
    (small[:400_000] * 3 + 1) % 2187
    t2 = time.perf_counter()
    np.bincount(big[idx] % 4096, minlength=4096)
    big[::70].sum()
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


class HostRef:
    """Reference work in slices, while a child process is stopped."""

    def __init__(self):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        _ref_slice()  # warm-up, not kept
        self._totals = [0.0, 0.0, 0.0]
        self._slices = 0

    def _add(self) -> None:
        for i, t in enumerate(_ref_slice()):
            self._totals[i] += t
        self._slices += 1

    def pause(self, proc: subprocess.Popen) -> tuple[float, float]:
        """Stops ``proc`` for one slice; returns the pause as a perf_counter span."""
        start = time.perf_counter()
        proc.send_signal(signal.SIGSTOP)
        try:
            self._add()
        finally:
            proc.send_signal(signal.SIGCONT)
        return start, time.perf_counter()

    def take(self) -> float:
        """Slowness over the slices since the last call (at least one); above 1 is slow.

        The geometric mean of the three parts' times over REF_S.
        """
        if self._slices == 0:
            self._add()
        slowness = math.prod(t / self._slices / ref
                             for t, ref in zip(self._totals, REF_S)) ** (1 / 3)
        self._totals = [0.0, 0.0, 0.0]
        self._slices = 0
        return slowness


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def stdout_key(w: Workload, seed: int) -> str:
    """Names the stdout a reference digest belongs to; --jobs is not part of it."""
    return f"{w.command} --n {w.n} --u sample:{w.k}:{seed} --seed {seed}"


def load_digests() -> dict[str, str]:
    with open(BENCH_DIR / "expected.json") as fh:
        return json.load(fh)["stdout_sha256"]


def _scan_ok(q: int, recs: list[dict]) -> bool:
    total = (q - 1) * q
    if len(recs) != 1:
        return False
    rec = recs[0]
    omegas = rec["omegas"]
    return (rec["match"] is True and rec["lemmas_pass"] is True
            and rec["propositions_pass"] is True and sum(omegas) == total
            and sum(i * w for i, w in enumerate(omegas)) == total)


def _lemmas_ok(q: int, recs: list[dict]) -> bool:
    return (len(recs) == 18 and len({r["identity"] for r in recs}) == 18
            and all(r["pass"] is True and r["lhs"] == r["rhs"] for r in recs))


RECORD_CHECKS = {"scan": _scan_ok, "verify-lemmas": _lemmas_ok}


def failed_u(w: Workload, inv: Invocation, expected_sha: Optional[str]) -> tuple[int, list[str]]:
    """How many of the invocation's k parameters u failed, and why."""
    if inv.data is None:
        return w.k, [inv.error]
    if inv.data["status"] != 0:
        return w.k, [f"cli.run returned {inv.data['status']}: {inv.data['stderr'].strip()}"]
    stdout = inv.data["stdout"]
    if expected_sha is not None and hashlib.sha256(stdout.encode()).hexdigest() != expected_sha:
        return w.k, ["stdout differs from the reference digest"]
    try:
        by_u: dict[str, list[dict]] = defaultdict(list)
        for line in stdout.splitlines():
            rec = json.loads(line)
            if rec["n"] != w.n:
                return w.k, [f"record for n={rec['n']}"]
            by_u[rec["u"]].append(rec)
        check = RECORD_CHECKS[w.command]
        passed = sum(check(3**w.n, recs) for recs in by_u.values())
    except (ValueError, KeyError, TypeError) as exc:
        return w.k, [f"malformed output: {exc!r}"]
    if len(by_u) > w.k:
        return w.k, [f"{len(by_u)} parameters u in the output, asked for {w.k}"]
    failed = w.k - passed
    return failed, [f"{failed} of {w.k} u failed the record checks"] if failed else []


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    info: dict


def _median(values: list[float], default: float) -> float:
    return statistics.median(values) if values else default


def _left(start: float) -> float:
    return RUN_LIMIT_S - (time.perf_counter() - start)


def _tally(w: Workload, invs: list[Invocation], expected_sha: Optional[str]):
    attempted = failed = 0
    problems: list[str] = []
    digests = set()
    for inv in invs:
        bad, why = failed_u(w, inv, expected_sha)
        attempted += w.k
        failed += bad
        problems += why
        if inv.data is not None and "stdout" in inv.data:
            digests.add(hashlib.sha256(inv.data["stdout"].encode()).hexdigest())
    if len(digests) > 1:
        problems.append("stdout differs between invocations with the same inputs")
        failed = attempted
    return attempted, failed, problems, sorted(digests)


def measure(w: Workload, seed: int, seconds: float, expected_sha: Optional[str],
            limit: float = RUN_LIMIT_S) -> Outcome:
    """Untraced: invocations back to back for ``seconds``, then set-up-only fill.

    Each child is paused for reference work (see HostRef); its timings, less
    the pauses, are divided by the host's slowness over its life, raised to
    SENSITIVITY.
    """
    start = time.perf_counter()
    deadline = start + seconds
    ref = HostRef()
    invs: list[Invocation] = []
    while True:
        invs.append(call_child("run", w, seed, min(limit, _left(start)), ref))
        typical = statistics.median(i.elapsed for i in invs)
        if time.perf_counter() + typical > deadline or _left(start) < typical:
            break
    ok = [i for i in invs if i.data is not None and i.data["status"] == 0]
    setups = [(i.active(i.data["setup_span"]), i.slowness) for i in ok
              if i.data["setup_span"] is not None]
    extra_failed = False
    startup = _median([i.elapsed - i.data["wall_s"] for i in ok], 0.0)
    for _ in range(MAX_SETUP_EXTRAS):
        typical = _median([t for t, _ in setups], 0.0) + startup
        if time.perf_counter() + typical > deadline or _left(start) < typical:
            break
        inv = call_child("setup", w, seed, min(limit, _left(start)), ref)
        if inv.data is None:
            extra_failed = True
            break
        setups.append((inv.active(inv.data["setup_span"]), inv.slowness))
    attempted, failed, problems, digests = _tally(w, invs, expected_sha)
    if extra_failed:
        attempted += 1
        failed += 1
        problems.append("a set-up-only process failed")
    elapsed = statistics.median(i.elapsed for i in invs)
    timed = {"wall_s": [(i.active(i.data["wall_span"]), i.slowness) for i in ok],
             "cpu_s": [(i.data["cpu_s"], i.slowness) for i in ok], "setup_s": setups}
    raw = {name: _median([t for t, _ in pairs], elapsed) for name, pairs in timed.items()}
    metrics = {name: _median([t / slow**SENSITIVITY for t, slow in pairs], elapsed)
               for name, pairs in timed.items()}
    metrics.update({
        "peak_rss_mb": _median([i.data["peak_rss_mb"] for i in ok], 0.0),
        "ok_frac": (attempted - failed) / attempted,
    })
    info = {"invocations": len(invs), "setup_samples": len(setups), "stdout_sha256": digests,
            "raw_s": raw,
            "samples": {**{name: [t for t, _ in pairs] for name, pairs in timed.items()},
                        "peak_rss_mb": [i.data["peak_rss_mb"] for i in ok],
                        "host_slowness": [i.slowness for i in invs]},
            "numpy": ok[0].data["numpy"] if ok else None}
    return Outcome(metrics, attempted, failed, problems, info)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(w: Workload, spans: list[list], probes: dict, stdout: str,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from one traced invocation; per-u values divide by k."""
    q, k = 3**w.n, w.k
    spans = sorted(spans, key=lambda s: s[3])  # [id, parent, name, start, end, value]
    by_name: dict[str, list] = defaultdict(list)
    children: dict = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        children[s[1]].append(s)

    def dur(s) -> float:
        return s[4] - s[3]

    def covered(s, prefix: str = "") -> float:
        return _union_length([(c[3], c[4]) for c in children[s[0]] if c[2].startswith(prefix)])

    def total(name: str) -> float:
        return sum(dur(s) for s in by_name[name])

    def first(name: str) -> float:
        return dur(by_name[name][0]) if by_name[name] else 0.0

    def self_s(layer: str) -> float:
        return sum((dur(s) - covered(s) for s in spans if s[2].startswith(layer + ".")), 0.0)

    root = by_name["cli.run"][0]
    vp = [s[5] for s in by_name["solution_census.verify_predictions"] if s[5] is not None]
    vp_pairs = sum(v[0] for v in vp)
    consistent = vp_pairs - sum(v[1] for v in vp)
    ddt_ids = {s[0] for s in by_name["ness.ddt_table"]}
    loose_rows = [s for s in by_name["ness.ddt_row"] if s[1] not in ddt_ids]
    u0 = by_name["spectrum.u0_nonf3_elements"]

    metrics = dict(probes)
    metrics.update({
        "field.make_context_s": first("field.make_context"),
        "spectrum.u0_nonf3_elements_s": first("spectrum.u0_nonf3_elements"),
        "spectrum.u0_count": u0[0][5] if u0 and u0[0][5] is not None else 0,
        "spectrum.closed_form_ms": 1000 * total("spectrum.spectrum_closed_form") / k,
        "ness.spectrum_bruteforce_ms": 1000 * total("ness.spectrum_bruteforce") / k,
        "ness.ddt_table_ms": 1000 * total("ness.ddt_table") / k,
        "ness.ddt_builds_per_u": len(by_name["ness.ddt_table"]) / k,
        "ness.ddt_cells": (len(ddt_ids) * (q - 1) * q + len(loose_rows) * q) / k,
        "charsums.section2_identities_ms": 1000 * total("charsums.section2_identities") / k,
        "charsums.g_product_sums_per_u": len(by_name["charsums.g_product_sum"]) / k,
        "solution_census.verify_predictions_ms": 1000 * sum(
            dur(s) - covered(s, "ness.") for s in by_name["solution_census.verify_predictions"]
        ) / k,
        "solution_census.pairs": vp_pairs / k,
        # 1 when no pair is checked (verify-lemmas checks none)
        "solution_census.consistent_ratio": consistent / vp_pairs if vp_pairs else 1.0,
        "rng.sample_ms": 1000 * self_s("rng"),
        "cli.resolve_u_s": first("cli.resolve_u"),
        "cli.emit_ms": 1000 * total("cli.emit"),
        "cli.stdout_bytes": len(stdout.encode()),
        "cli.unaccounted_s": dur(root) - covered(root),
        "trace.overhead_frac": dur(root) / untraced_wall - 1,
    })
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = self_s(layer)
    return {name: metrics[name] for name in PER_LAYER}


def write_spans(workload: str, seed: int, spans: list[list]) -> Path:
    run_id = f"{workload}:seed{seed}:{os.getpid()}"
    t0 = min((s[3] for s in spans), default=0.0)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"run": run_id, "spans": [
            {"run": run_id, "id": s[0], "parent": s[1], "name": s[2],
             "start_s": s[3] - t0, "end_s": s[4] - t0, "value": s[5]} for s in spans
        ]}, fh)
    return path


def trace_run(w: Workload, seed: int, expected_sha: Optional[str], name: str) -> Outcome:
    """One untraced invocation, then one traced invocation with field probes."""
    start = time.perf_counter()
    base = call_child("run", w, seed, timeout=_left(start))
    trace = call_child("trace", w, seed, timeout=max(1.0, _left(start)))
    attempted, failed, problems, digests = _tally(w, [base, trace], expected_sha)
    info = {"invocations": 2, "stdout_sha256": digests,
            "numpy": trace.data["numpy"] if trace.data else None}
    if base.data is None or trace.data is None or failed:
        metrics = {m: 0.0 for m in PER_LAYER}
    else:
        metrics = layer_metrics(w, trace.data["spans"], trace.data["probes"],
                                trace.data["stdout"], base.data["wall_s"])
        info["spans"] = len(trace.data["spans"])
        info["span_file"] = str(write_spans(name, seed, trace.data["spans"]).relative_to(ROOT))
    return Outcome(metrics, attempted, failed, problems, info)


# ---------------------------------------------------------------------------
# run context and entry point
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "commit": _git_commit(), "cpu_model": _cpu_model(),
            "loadavg_start": list(os.getloadavg())}


def run_workload(name: str, w: Workload, seed: int, seconds: float, trace: bool,
                 digests: dict[str, str]) -> tuple[dict, dict]:
    """Returns (result line, context line) for one run of one workload."""
    context = dict(run_context(), workload=name, seed=seed, seconds=seconds, trace=int(trace))
    expected = digests.get(stdout_key(w, seed))
    if trace:
        out = trace_run(w, seed, expected, name)
        units = PER_LAYER
    else:
        out = measure(w, seed, seconds, expected)
        units = END_TO_END
    context.update(out.info, loadavg_end=list(os.getloadavg()), problems=out.problems,
                   reference_digest_checked=expected is not None)
    result = {
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m: {"value": out.metrics[m], "unit": units[m]} for m in units},
    }
    return result, context


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that call_child kills its child, even a stopped one.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "nhspectrum" / "cli.py").is_file():
        print(f"error: no nhspectrum sources under {SRC}", file=sys.stderr)
        return 2
    result, context = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), load_digests())
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
