"""Command-line front end: build a field, resolve parameters, run reports.

Commands

  spectrum             per-u differential spectrum (closed form when u is in
                       scope, cross-checked against brute force)
  ddt                  per-(u, a) histogram of the DDT row values
  census               per-(a, b) solution census on a seeded pair sample
  verify-lemmas        the 18 character-sum identities per u
  verify-propositions  full-pair sweep: sign-vector prediction vs the DDT
  verify-theorem       closed-form spectrum vs brute force per u
  scan                 theorem + lemmas + propositions per u, one row each

Exit status: 0 all requested verifications pass, 1 any verification
mismatch, 2 usage or configuration error, 141 stdout closed early (as by
`| head`; the sweep stops there).  Output is deterministic for a fixed
configuration and seed.  Records go out in parameter order as each u is
built, so a run stopped by an inconsistency or a kill keeps the records of
every earlier u.  This module alone writes u, n and the modulus into them,
and the a, b and z of `census` and mismatch records as digit strings.

The --u selector accepts an element digit string ("120"), a generator
power ("gen^4"), "all" (every u with chi(u+1) != chi(u-1) outside GF(3)),
or "sample:N[:seed]" (seeded distinct sample of the same set; the :seed
part defaults to --seed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import solution_census as census_mod
from . import charsums, ness, rng, spectrum
from .field import FieldCtx, InconsistencyError, make_context

SPECTRUM_COLUMNS = [
    "n", "modulus", "u", "class", "epsilon", "gamma3", "gamma4",
    "omega0", "omega1", "omega2", "omega3", "omega4", "source", "match",
]

USAGE_ERROR = 2
VERIFICATION_ERROR = 1

# The most u a --jobs pool holds at once, so memory stays flat over a sweep.
POOL_WINDOW = 16


@dataclass(frozen=True)
class RunConfig:
    n: int
    modulus: Optional[str]
    u_spec: str
    command: str
    output_format: str
    seed: int
    jobs: int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhspectrum",
        description="Differential-spectrum reports for the Ness-Helleseth binomial over GF(3^n).",
    )
    parser.add_argument("--n", type=int, required=True, help="odd extension degree, 3..13")
    parser.add_argument("--modulus", help="monic degree-n modulus digits, lowest degree first")
    parser.add_argument("--u", default="all", dest="u_spec",
                        help="element digits | gen^k | all | sample:N[:seed] (default: all)")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--format", default="json", choices=("json", "csv", "text"),
                        dest="output_format")
    parser.add_argument("--seed", type=int, default=0, help="seed for sample resolution")
    parser.add_argument("--jobs", type=int, default=1, help="worker threads for sweeps, >= 1")
    return parser


def resolve_u(ctx: FieldCtx, u_spec: str, seed: int = 0) -> list[int]:
    """Expand a --u selector into a list of element indices."""
    if u_spec == "all":
        return spectrum.u0_nonf3_elements(ctx).tolist()
    if u_spec.startswith("sample:"):
        parts = u_spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad sample spec {u_spec!r}; want sample:N or sample:N:seed")
        try:
            count = int(parts[1])
            sample_seed = int(parts[2]) if len(parts) == 3 else seed
        except ValueError as exc:
            raise ValueError(f"bad sample spec {u_spec!r}: {exc}") from None
        drawn = rng.sample_distinct(spectrum.u0_nonf3_elements(ctx), count, sample_seed)
        return [int(u) for u in drawn]
    if u_spec.startswith("gen^"):
        try:
            k = int(u_spec[4:])
        except ValueError:
            raise ValueError(f"bad generator power {u_spec!r}") from None
        if k < 0:
            raise ValueError("generator power must be nonnegative")
        return [ctx.pow(ctx.generator, k)]
    try:
        return [ctx.parse_element(u_spec)]
    except ValueError as exc:
        raise ValueError(f"cannot resolve u spec {u_spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# per-command record builders; each returns (records, all_ok), read once
# ---------------------------------------------------------------------------


def _head(ctx: FieldCtx, u: int) -> dict:
    """The columns every record starts with."""
    return {"n": ctx.n, "modulus": ctx.modulus_str, "u": ctx.format_element(u)}


def _format_pair(ctx: FieldCtx, rec: dict) -> dict:
    """rec with its int a, b and z written as element digit strings, each in its place."""
    return {**rec, **{key: ctx.format_element(rec[key]) for key in ("a", "b", "z")}}


def _closed_form_head(ctx: FieldCtx, u: int, theorem: dict) -> dict:
    """The spectrum columns up to "source", from a `spectrum.verify_theorem_record`."""
    return {**_head(ctx, u), "class": theorem["class"], "epsilon": theorem["epsilon"],
            "gamma3": theorem["gamma3"], "gamma4": theorem["gamma4"],
            "omegas": theorem["closed_form"], "source": "closed-form"}


def _spectrum_records(ctx: FieldCtx, u: int, seed: int) -> tuple[list[dict], bool]:
    try:
        su = charsums.ScopedU(ctx, u)
    except charsums.OutOfScopeError as exc:
        omegas = ness.spectrum_bruteforce(ctx, ness.ddt_row(ctx, u))
        return [{**_head(ctx, u), "class": exc.label, "epsilon": None, "gamma3": None,
                 "gamma4": None, "omegas": omegas, "source": "brute-force", "match": None}], True
    theorem = spectrum.verify_theorem_record(su)
    return [dict(_closed_form_head(ctx, u, theorem), match=theorem["match"])], theorem["match"]


def _ddt_records(ctx: FieldCtx, u: int, seed: int) -> tuple[Iterator[dict], bool]:
    # the row is counted now (under --jobs, in the worker), its q - 1 records as they are
    # written; delta(a, .) is the permutation b -> a b of row 1, so every a has its histogram
    head, hist = _head(ctx, u), np.bincount(ness.ddt_row(ctx, u)).tolist()
    return (dict(head, a=ctx.format_element(a), delta_hist=hist) for a in range(1, ctx.q)), True


def _census_records(ctx: FieldCtx, u: int, seed: int) -> tuple[list[dict], bool]:
    """A pair is consistent when its prediction, the census total and the DDT
    entry agree, and its (N1, N_I, N_II + N_III, N_IV) is the `CASE_TABLE`
    entry of z."""
    q = ctx.q
    total_pairs = (q - 1) * q
    pair_count = min(200, total_pairs)
    pair_ids = rng.sample_distinct(range(total_pairs), pair_count, seed)
    su = charsums.ScopedU(ctx, u)
    prediction, cases = census_mod.prediction_by_z(su), census_mod.CASE_TABLE[su.lead]
    head = _head(ctx, u)
    records = []
    for pid in pair_ids:
        a = pid // q + 1
        b = pid % q
        c = census_mod.census(su, a, b)
        slot = ctx.slot(c["z"])
        consistent = (c["predicted"] == c["observed"] == int(prediction[slot])
                      and cases[su.pattern[slot], :4].tolist()
                      == [c["n1"], c["case_i"], c["case_ii"] + c["case_iii"], c["case_iv"]])
        records.append(_format_pair(ctx, {**head, "a": a, "b": b, **c, "consistent": consistent}))
    return records, all(rec["consistent"] for rec in records)


def _lemma_records(ctx: FieldCtx, u: int, seed: int) -> tuple[list[dict], bool]:
    reports = charsums.section2_identities(charsums.ScopedU(ctx, u))
    head = _head(ctx, u)
    return [{**head, **rep} for rep in reports], all(rep["pass"] for rep in reports)


def _proposition_records(ctx: FieldCtx, u: int, seed: int) -> tuple[list[dict], bool]:
    report = census_mod.verify_predictions(charsums.ScopedU(ctx, u))
    head, mismatches = _head(ctx, u), report["mismatches"]
    details = [_format_pair(ctx, {"u": head["u"], **m}) for m in mismatches]
    return [{**head, **report, "mismatches": len(mismatches)}, *details], report["ok"]


def _theorem_records(ctx: FieldCtx, u: int, seed: int) -> tuple[list[dict], bool]:
    rec = {**_head(ctx, u), **spectrum.verify_theorem_record(charsums.ScopedU(ctx, u))}
    return [rec], rec["match"]


def _scan_records(ctx: FieldCtx, u: int, seed: int) -> tuple[list[dict], bool]:
    su = charsums.ScopedU(ctx, u)
    theorem = spectrum.verify_theorem_record(su)
    lemmas_ok = all(rep["pass"] for rep in charsums.section2_identities(su))
    props_ok = census_mod.verify_predictions(su)["ok"]
    match = theorem["match"] and lemmas_ok and props_ok
    rec = dict(_closed_form_head(ctx, u, theorem), lemmas_pass=lemmas_ok,
               propositions_pass=props_ok, match=match)
    return [rec], match


BUILDERS: dict[str, Callable[[FieldCtx, int, int], tuple[Iterable[dict], bool]]] = {
    "spectrum": _spectrum_records,
    "ddt": _ddt_records,
    "census": _census_records,
    "verify-lemmas": _lemma_records,
    "verify-propositions": _proposition_records,
    "verify-theorem": _theorem_records,
    "scan": _scan_records,
}

COMMANDS = tuple(BUILDERS)


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

CSV_COLUMNS: dict[str, list[str]] = {
    "spectrum": SPECTRUM_COLUMNS,
    "scan": SPECTRUM_COLUMNS,
    "verify-theorem": SPECTRUM_COLUMNS,
    "ddt": ["n", "modulus", "u", "a", "delta_hist"],
    "census": ["n", "modulus", "u", "a", "b", "z", "n1", "case_i", "case_ii",
               "case_iii", "case_iv", "predicted", "observed", "consistent"],
    "verify-lemmas": ["n", "modulus", "u", "identity", "lhs", "rhs", "pass"],
    "verify-propositions": ["n", "modulus", "u", "pairs", "mismatches", "ok"],
}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def _to_csv_row(command: str, rec: dict) -> Optional[list[str]]:
    if command == "verify-propositions" and "pairs" not in rec:
        return None  # mismatch detail records have no csv row
    flat = dict(rec)
    if command == "verify-theorem":
        flat["source"] = "closed-form"
        flat.update({f"omega{i}": w for i, w in enumerate(rec.get("closed_form", []))})
    elif command in ("spectrum", "scan"):
        flat.update({f"omega{i}": w for i, w in enumerate(rec.get("omegas", []))})
        for i in range(5):
            flat.setdefault(f"omega{i}", 0)
    return [_csv_cell(flat.get(col)) for col in CSV_COLUMNS[command]]


def _format_text(rec: dict) -> str:
    parts = []
    for key, value in rec.items():
        if isinstance(value, list):
            value = "[" + ",".join(str(v) for v in value) + "]"
        parts.append(f"{key}={value}")
    return "  ".join(parts)


def emit(command: str, records: Iterable[dict], output_format: str,
         out: io.TextIOBase) -> int:
    """Write the records one by one; returns how many there were."""
    count = 0
    if output_format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        for count, rec in enumerate(records, 1):
            row = _to_csv_row(command, rec)
            if row is not None:
                writer.writerow(row)
    else:
        line = json.dumps if output_format == "json" else _format_text
        for count, rec in enumerate(records, 1):
            out.write(line(rec) + "\n")
    return count


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(config: RunConfig, out: Optional[io.TextIOBase] = None,
        err: Optional[io.TextIOBase] = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        return _run_checked(config, out, err)
    except charsums.OutOfScopeError as exc:  # only an explicit u can be out of scope
        err.write(f"error: command {config.command!r} {exc}\n")
        return USAGE_ERROR
    except InconsistencyError as exc:  # in set-up (the field certificate) or a builder
        err.write(json.dumps({"status": "inconsistency", "detail": str(exc)}) + "\n")
        return VERIFICATION_ERROR


def _run_checked(config: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    try:
        if config.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {config.jobs}")
        ctx = make_context(config.n, config.modulus)
        us = resolve_u(ctx, config.u_spec, config.seed)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR

    count, all_ok = 0, True
    with closing(_built(ctx, us, config)) as built:
        for recs, ok in built:
            if not count and config.output_format == "csv":
                csv.writer(out, lineterminator="\n").writerow(CSV_COLUMNS[config.command])
            count += emit(config.command, recs, config.output_format, out)
            all_ok &= ok
    if not all_ok:
        err.write(json.dumps({"status": "fail", "command": config.command, "n": config.n,
                              "records": count}) + "\n")
        return VERIFICATION_ERROR
    return 0


def _built(ctx: FieldCtx, us: list[int],
           config: RunConfig) -> Iterator[tuple[Iterable[dict], bool]]:
    """The records of each u in order, with --jobs > 1 from a thread pool given
    POOL_WINDOW u at a time; closing it cancels the u not yet started."""
    build = functools.partial(BUILDERS[config.command], ctx, seed=config.seed)
    workers = min(config.jobs, len(us))
    if workers > 1:  # the first os.cpu_count() of a process costs tens of microseconds
        workers = min(workers, os.cpu_count() or 1)
    if workers < 2:
        yield from map(build, us)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, len(us), POOL_WINDOW):
            yield from pool.map(build, us[start:start + POOL_WINDOW])


def main(argv: Optional[list[str]] = None) -> None:
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        status = run(config)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)  # conventional SIGPIPE status
    sys.exit(status)


if __name__ == "__main__":
    main()
