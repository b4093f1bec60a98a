"""One measured invocation of nhspectrum, in a fresh process.

``run.py`` starts this file as ``python3 child.py '<json spec>'`` so that
peak memory and the lazily built field tables belong to one invocation
alone.  The spec names the mode, the program's ``src`` directory and the
workload (command, n, k, seed, jobs).  The last line of stdout is one JSON
object with the measurements and the program's captured stdout.

Modes:

  run    time ``cli.run`` on the workload: wall, CPU (user + sys), the
         set-up inside it (``make_context`` + ``cli.resolve_u``), peak RSS;
         the wall and set-up times also as perf_counter spans, so that the
         parent can take out the time it kept this process stopped
  setup  time ``make_context`` + ``cli.resolve_u`` alone on a fresh context
  trace  run ``cli.run`` with a span around every call into a public
         function of each layer module, then probe the field layer on
         fresh contexts
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import itertools
import json
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

LAYERS = ("field", "spectrum", "ness", "charsums", "solution_census", "rng", "cli")

# Called once per field element by scans over the whole field (q times per
# census pair, q times per scope enumeration); a span per call would cost
# more than the call, so their time stays with the caller.
PER_ELEMENT = {"ness.f_eval", "ness.f_eval_inverse_form", "ness.derivative",
               "ness.exponents", "charsums.in_theorem_scope"}

# Counts read off a call's return value and kept on its span.
SPAN_VALUES = {
    "spectrum.u0_nonf3_elements": len,
    "solution_census.verify_predictions": lambda r: [r["pairs"], len(r["mismatches"])],
}

PROBE_CALLS = 128


def _import_program(src: str) -> None:
    sys.path.insert(0, src)
    import nhspectrum

    if Path(nhspectrum.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"nhspectrum imported from {nhspectrum.__file__}, not from {src}")


def _config(cli, spec: dict):
    return cli.RunConfig(
        n=spec["n"], modulus=None, u_spec=f"sample:{spec['k']}:{spec['seed']}",
        command=spec["command"], output_format="json", seed=spec["seed"], jobs=spec["jobs"],
    )


def _peak_rss_mb() -> float:
    """This process's own peak RSS.

    ``ru_maxrss`` is not used where VmHWM can be read: a child started by
    fork or vfork carries its parent's peak in it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_mode(spec: dict) -> dict:
    from nhspectrum import cli

    # Time cli.run's own set-up from outside: the first make_context call to
    # the end of the first resolve_u call.
    marks: dict[str, tuple[float, float]] = {}

    def mark(name: str) -> None:
        fn = getattr(cli, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                marks.setdefault(name, (start, time.perf_counter()))

        setattr(cli, name, timed)

    mark("make_context")
    mark("resolve_u")
    out, err = io.StringIO(), io.StringIO()
    config = _config(cli, spec)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    status = cli.run(config, out, err)
    wall1, cpu = time.perf_counter(), time.process_time() - cpu0
    setup_span = None
    if len(marks) == 2:
        setup_span = [marks["make_context"][0], marks["resolve_u"][1]]
    return {"status": status, "wall_s": wall1 - wall0, "wall_span": [wall0, wall1],
            "cpu_s": cpu, "setup_span": setup_span, "peak_rss_mb": _peak_rss_mb(),
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def setup_mode(spec: dict) -> dict:
    from nhspectrum import cli
    from nhspectrum.field import make_context

    start = time.perf_counter()
    ctx = make_context(spec["n"])
    cli.resolve_u(ctx, f"sample:{spec['k']}:{spec['seed']}", spec["seed"])
    return {"setup_span": [start, time.perf_counter()]}


class Tracer:
    """Spans around calls into public layer functions, kept in memory.

    A span is ``[id, parent, name, start, end, value]``.  Worker threads
    start with an empty stack; their outermost spans get the first span
    opened (the root, ``cli.run``) as parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        extract = SPAN_VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.root
            sid = next(self._ids)
            if self.root is None:
                self.root = sid
            stack.append(sid)
            span = [sid, parent, name, time.perf_counter(), None, None]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if extract is not None:
                try:
                    span[5] = extract(result)
                except (KeyError, TypeError):
                    pass
            return result

        return traced

    def install(self):
        """Wrap every public function of each layer; returns the undo."""
        modules = {layer: importlib.import_module(f"nhspectrum.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                span_name = f"{layer}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and span_name not in PER_ELEMENT):
                    wrapped[fn] = self.wrap(span_name, fn)
        # Rebind every module-level name bound to a wrapped function, so
        # calls through ``from .x import f`` are traced too.
        patched = []
        for mod in [*modules.values(), importlib.import_module("nhspectrum")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patched.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])

        def undo():
            for mod, name, obj in patched:
                setattr(mod, name, obj)

        return undo


def _per_call_us(fn, args_list) -> float:
    times = []
    for args in args_list:
        start = time.perf_counter_ns()
        fn(*args)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1000


def field_probes(n: int, seed: int) -> dict:
    """Scalar op cost before and after the log tables, and the table builds."""
    import numpy as np
    from nhspectrum.field import make_context

    ctx = make_context(n)
    # pair_add_table() and neg_table() deadlock on a fresh context unless
    # digit_table() was built first.
    ctx.digit_table()
    rnd = random.Random(seed)
    pairs = [(rnd.randrange(1, ctx.q), rnd.randrange(1, ctx.q)) for _ in range(PROBE_CALLS)]
    singles = [(x,) for x, _ in pairs]
    probes = {"field.chi_cold_us": _per_call_us(ctx.chi, singles),
              "field.mul_cold_us": _per_call_us(ctx.mul, pairs)}
    start = time.perf_counter()
    ctx.chi_vec(np.arange(1, 2))
    probes["field.log_tables_s"] = time.perf_counter() - start
    probes["field.chi_warm_us"] = _per_call_us(ctx.chi, singles)
    probes["field.mul_warm_us"] = _per_call_us(ctx.mul, pairs)
    start = time.perf_counter()
    table = ctx.pair_add_table()
    probes["field.pair_add_table_s"] = time.perf_counter() - start if table is not None else 0.0
    probes["field.pair_add_table_mb"] = table.nbytes / 2**20 if table is not None else 0.0
    return probes


def trace_mode(spec: dict) -> dict:
    from nhspectrum import cli

    tracer = Tracer()
    undo = tracer.install()
    out, err = io.StringIO(), io.StringIO()
    try:
        status = cli.run(_config(cli, spec), out, err)
    finally:
        undo()
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "spans": tracer.spans, "probes": field_probes(spec["n"], spec["seed"])}


MODES = {"run": run_mode, "setup": setup_mode, "trace": trace_mode}


def main() -> None:
    spec = json.loads(sys.argv[1])
    _import_program(spec["src"])
    import numpy

    result = MODES[spec["mode"]](spec)
    result["numpy"] = numpy.__version__
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
