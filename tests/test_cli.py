"""Exit codes, record shapes, determinism and format contracts of the CLI."""

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nhspectrum import charsums, cli, field, ness, spectrum
from nhspectrum import solution_census as census_mod
from nhspectrum.cli import RunConfig, SPECTRUM_COLUMNS, resolve_u, run
from nhspectrum.field import FieldCtx, make_context
from nhspectrum.spectrum import u0_nonf3_elements


def _run(command, n=3, u="all", fmt="json", seed=0, jobs=1, modulus=None):
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(n=n, modulus=modulus, u_spec=u, command=command,
                       output_format=fmt, seed=seed, jobs=jobs)
    status = run(config, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli_argv_env(*args):
    """The argv and environment of a child interpreter that runs the CLI from `src`."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return [sys.executable, "-m", "nhspectrum.cli", *args], dict(os.environ, PYTHONPATH=path)


def _cli_subprocess(*args):
    argv, env = _cli_argv_env(*args)
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_verify_theorem_all_passes_n3():
    status, out, err = _run("verify-theorem")
    assert status == 0 and err == ""
    records = _json_lines(out)
    assert len(records) == len(u0_nonf3_elements(make_context(3)))
    assert all(rec["match"] is True for rec in records)


def test_usage_error_even_n():
    status, _, err = _run("spectrum", n=4)
    assert status == 2 and "odd" in err


def test_usage_error_reducible_modulus():
    status, _, err = _run("spectrum", modulus="0101")
    assert status == 2 and "reducible" in err


@pytest.mark.parametrize("modulus", ["12a1", "1-01", "12 1"])
def test_usage_error_non_digit_modulus_names_it(modulus):
    status, out, err = _run("spectrum", modulus=modulus)
    assert (status, out) == (2, "")
    assert err == f"error: modulus digits must be 0/1/2, got {modulus!r}\n"


def test_usage_error_out_of_scope_u_names_class():
    status, _, err = _run("verify-theorem", u="gen^0")
    assert status == 2 and "F3" in err


@pytest.mark.parametrize("command, n, u, status", [
    ("verify-lemmas", 3, "sample:1:1", 0),
    ("verify-lemmas", 5, "sample:1:1", 0),
    ("verify-lemmas", 7, "sample:1:1", 0),
    ("verify-lemmas", 9, "sample:1:1", 0),
    ("verify-lemmas", 11, "sample:1:1", 0),
    ("verify-lemmas", 13, "sample:1:1", 0),
    ("spectrum", 11, "gen^1", 0),
    ("verify-theorem", 11, "sample:1:3", 0),
])
def test_exit_status_matrix_every_n(command, n, u, status):
    proc = _cli_subprocess("--n", str(n), "--command", command, "--u", u)
    _assert_status(proc, status)
    if command == "verify-theorem":
        records = _json_lines(proc.stdout)
        assert len(records) == 1 and records[0]["match"] is True


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_exit_status_matrix_jobs_below_one(jobs):
    proc = _cli_subprocess("--n", "3", "--command", "verify-theorem", "--u", "all",
                           "--jobs", jobs)
    _assert_status(proc, 2)
    assert "--jobs" in proc.stderr


def _assert_status(proc, status):
    assert proc.returncode == status, proc.stderr
    if status == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_usage_error_bad_u_spec():
    status, _, err = _run("spectrum", u="xyz")
    assert status == 2
    status, _, err = _run("spectrum", u="sample:0:1")
    assert status == 2


def test_spectrum_accepts_any_u():
    status, out, _ = _run("spectrum", u="gen^0")
    assert status == 0
    rec = _json_lines(out)[0]
    assert rec["class"] == "F3" and rec["source"] == "brute-force"
    assert rec["match"] is None


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------


def test_resolve_u_forms():
    ctx = make_context(3)
    assert resolve_u(ctx, "all") == u0_nonf3_elements(ctx).tolist()
    assert resolve_u(ctx, "gen^4") == [ctx.pow(ctx.generator, 4)]
    assert resolve_u(ctx, "120") == [ctx.parse_element("120")]
    sampled = resolve_u(ctx, "sample:5:7")
    assert sampled == resolve_u(ctx, "sample:5:7")
    assert len(set(sampled)) == 5
    # bare sample:N falls back to --seed
    assert resolve_u(ctx, "sample:5", seed=7) == sampled


# ---------------------------------------------------------------------------
# record shapes per command
# ---------------------------------------------------------------------------


def test_spectrum_json_record_shape():
    status, out, _ = _run("spectrum", u="all")
    assert status == 0
    for rec in _json_lines(out):
        assert set(rec) == {
            "n", "modulus", "u", "class", "epsilon", "gamma3", "gamma4",
            "omegas", "source", "match",
        }
        assert rec["match"] is True


def test_spectrum_csv_columns_and_example_row():
    status, out, _ = _run("spectrum", u="all", fmt="csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].split(",") == SPECTRUM_COLUMNS
    expected = "286,208,156,26,26"
    rows = [line for line in lines[1:] if f",0,-4,4,{expected}," in line]
    assert rows, lines


def test_verify_lemmas_shape():
    status, out, _ = _run("verify-lemmas", n=3, u="sample:2:42")
    assert status == 0
    records = _json_lines(out)
    assert len(records) == 2 * 18
    assert all(rec["pass"] for rec in records)
    assert set(records[0]) == {"n", "modulus", "u", "identity", "lhs", "rhs", "pass"}


def test_verify_propositions_shape():
    status, out, _ = _run("verify-propositions", u="sample:3:1")
    assert status == 0
    for rec in _json_lines(out):
        assert rec["ok"] is True and rec["mismatches"] == 0
        assert rec["pairs"] == 26 * 27


def test_verify_propositions_mismatch_lines(monkeypatch):
    """A wrong DDT cell at z = 5 gives one detail line after the summary, u
    first and the elements as digit strings; csv writes the summary alone."""
    ctx = make_context(3)
    u = int(u0_nonf3_elements(ctx)[0])
    raised = ness.ddt_row(ctx, u).copy()
    raised[5] += 1
    monkeypatch.setattr(ness, "ddt_row", lambda ctx, u: raised)
    status, out, _ = _run("verify-propositions", u=ctx.format_element(u))
    summary, detail = _json_lines(out)
    assert status == 1 and summary["mismatches"] == 1 and summary["ok"] is False
    assert list(detail) == ["u", "a", "b", "z", "chi_signature", "predicted", "observed"]
    assert [detail[key] for key in ("u", "a", "b", "z")] == [
        ctx.format_element(u), ctx.format_element(1), ctx.format_element(5), ctx.format_element(5)]
    assert detail["observed"] == raised[5]
    status, out, _ = _run("verify-propositions", u=ctx.format_element(u), fmt="csv")
    assert status == 1 and len(out.splitlines()) == 2


def test_census_records_consistent():
    status, out, _ = _run("census", u="sample:1:3", seed=11)
    assert status == 0
    records = _json_lines(out)
    assert records and all(rec["consistent"] for rec in records)
    assert all(
        rec["predicted"] == rec["observed"] == rec["n1"] + rec["case_i"]
        + rec["case_ii"] + rec["case_iii"] + rec["case_iv"]
        for rec in records
    )


def test_census_reads_the_prediction_at_every_z(monkeypatch):
    """census reads one prediction vector per u: a sign key without a rule
    stops the run before the u's records, naming the first z that has it."""
    ctx = make_context(3)
    su = charsums.ScopedU(ctx, int(u0_nonf3_elements(ctx)[0]))
    table = census_mod.PREDICTION_TABLE.copy()
    table[su.sign_key[7]] = census_mod.NO_RULE
    monkeypatch.setattr(census_mod, "PREDICTION_TABLE", table)
    status, out, err = _run("census", u=ctx.format_element(su.u))
    assert (status, out) == (1, "")
    z = int(np.flatnonzero(su.sign_key == su.sign_key[7])[0])
    assert json.loads(err)["detail"] == (f"no condition matched at u={ctx.format_element(su.u)} "
                                         f"z={ctx.format_element(z)} "
                                         f"signs={census_mod.g_signs(su, z)}")


def test_ddt_rows_sum_to_field_size():
    status, out, _ = _run("ddt", u="gen^1")
    assert status == 0
    records = _json_lines(out)
    ctx = make_context(3)
    assert len(records) == ctx.q - 1
    for rec in records:
        hist = rec["delta_hist"]
        assert sum(hist) == ctx.q  # values of b, partitioned by count
        assert sum(i * c for i, c in enumerate(hist)) == ctx.q  # x partitioned


def test_scan_combines_everything():
    status, out, _ = _run("scan", u="sample:2:13")
    assert status == 0
    for rec in _json_lines(out):
        assert rec["lemmas_pass"] and rec["propositions_pass"] and rec["match"]


def test_scan_fails_on_a_wrong_ddt_row(monkeypatch):
    true_row = ness.ddt_row

    def raised_row(ctx, u):
        row = true_row(ctx, u).copy()
        row[5] += 1
        return row

    monkeypatch.setattr(ness, "ddt_row", raised_row)
    status, out, err = _run("scan", u="sample:1:13")
    assert status == 1
    rec, = _json_lines(out)
    assert rec["propositions_pass"] is False and rec["match"] is False
    assert _json_lines(err) == [
        {"status": "fail", "command": "scan", "n": 3, "records": 1}
    ]


def test_closed_form_divisibility_failure_names_u(monkeypatch):
    """gamma3 = -2 is inside the Hasse bound at q = 27 but leaves omega1
    fractional; the inconsistency record names the first u it hit."""
    monkeypatch.setattr(spectrum, "gamma3", lambda su: -2)
    status, out, err = _run("verify-theorem", u="all")
    assert status == 1 and out == ""
    (rec,) = _json_lines(err)
    ctx = make_context(3)
    first = ctx.format_element(u0_nonf3_elements(ctx)[0])
    assert rec["status"] == "inconsistency"
    assert rec["detail"].startswith(f"u={first}: omega1: ")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fmt, lines_per_u", [("json", 1), ("csv", 2), ("text", 1)])
def test_inconsistency_keeps_the_records_of_earlier_u(monkeypatch, fmt, lines_per_u, jobs):
    """Records go out as each u is built: a closed form that fails only at the
    second u leaves the first u's record (and the CSV header) on stdout."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    _, whole, _ = _run("verify-theorem", u="all", fmt=fmt)
    ctx = make_context(3)
    second = u0_nonf3_elements(ctx)[1]
    true_gamma3 = spectrum.gamma3
    monkeypatch.setattr(spectrum, "gamma3", lambda su: -2 if su.u == second else true_gamma3(su))
    status, out, err = _run("verify-theorem", u="all", fmt=fmt, jobs=jobs)
    assert status == 1
    assert out.splitlines() == whole.splitlines()[:lines_per_u]
    (rec,) = _json_lines(err)
    assert rec["status"] == "inconsistency"
    assert rec["detail"].startswith(f"u={ctx.format_element(second)}: omega1: ")


def test_set_up_inconsistency_is_a_record(monkeypatch):
    """A tabled generator that fails the log-table certificate stops the run
    in set-up (the scope mask builds the tables): exit 1, one stderr record."""
    modulus, _ = field.DEFAULT_FIELDS[5]
    monkeypatch.setitem(field.DEFAULT_FIELDS, 5, (modulus, 2))
    status, out, err = _run("verify-theorem", n=5, u="all")
    assert status == 1 and out == ""
    (rec,) = _json_lines(err)
    assert rec["status"] == "inconsistency"
    assert rec["detail"].startswith(f"modulus {modulus!r} with generator '20000':")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_output_byte_identical_across_runs():
    first = _run("scan", u="all", fmt="csv")
    second = _run("scan", u="all", fmt="csv")
    assert first == second


def test_jobs_do_not_change_output():
    solo = _run("verify-theorem", u="all", jobs=1)
    multi = _run("verify-theorem", u="all", jobs=4)
    assert solo == multi


@pytest.mark.parametrize("jobs, u, cpus, workers", [
    (10000, "all", 4, 4),       # capped at the CPU count
    (10000, "sample:3:1", 8, 3),  # capped at the number of u
    (2, "all", 8, 2),
    (3, "all", None, None),     # unknown CPU count: serial
    (8, "gen^1", 8, None),      # one u: serial
    (1, "all", 8, None),
])
def test_jobs_pool_size(monkeypatch, jobs, u, cpus, workers):
    sizes = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    status, out, _ = _run("spectrum", u=u, jobs=jobs)
    assert status == 0
    assert sizes == ([] if workers is None else [workers])
    assert out == _run("spectrum", u=u, jobs=1)[1]


def test_pool_holds_at_most_a_window_of_u(monkeypatch):
    """With --jobs > 1 the pool is given POOL_WINDOW u at a time: u submitted
    and not yet written never outnumber the window, and stdout is unchanged."""
    counts = {"submitted": 0, "emitted": 0}
    held = []  # at each submit

    class CountingPool(cli.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            counts["submitted"] += 1
            held.append(counts["submitted"] - counts["emitted"])
            return super().submit(*args, **kwargs)

    true_emit = cli.emit

    def counted_emit(*args):
        counts["emitted"] += 1
        true_emit(*args)

    solo = _run("scan", u="all", fmt="csv")
    monkeypatch.setattr(cli, "POOL_WINDOW", 2)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(cli, "emit", counted_emit)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert _run("scan", u="all", fmt="csv", jobs=4) == solo
    assert len(held) == counts["emitted"] == len(u0_nonf3_elements(make_context(3)))
    assert max(held) == 2


def test_closed_stdout_stops_the_sweep_with_status_141():
    """A reader that stops after one line (`| head -1`) ends the sweep: the
    broken pipe exits 141 with no traceback.  The whole n = 9 sweep takes
    about 18 s on a 2-vCPU machine and the stop well under 1 s; a child that
    is still running after 10 s is killed, and fails the test."""
    argv, env = _cli_argv_env("--n", "9", "--command", "verify-theorem", "--u", "all")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        watchdog = threading.Timer(10, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            status = proc.wait()
        finally:
            watchdog.cancel()
        err = proc.stderr.read()
    assert (status, err) == (141, "")
    assert json.loads(first)["match"] is True


# Whole-field translates per u: 1 for the DDT row where the command reads
# it, and none for the sign key, which reads rotations of the one table
# chi(g^m - 1) of the field.
TRANSLATES_PER_U = {"scan": 1, "verify-theorem": 1, "spectrum": 1, "census": 1,
                    "verify-lemmas": 0, "verify-propositions": 1}


@pytest.mark.parametrize("command, ddt_rows_per_u", [
    ("scan", 1), ("verify-theorem", 1), ("spectrum", 1), ("census", 1),
    ("verify-lemmas", 0), ("verify-propositions", 1),
])
def test_one_build_per_u(monkeypatch, command, ddt_rows_per_u):
    """Every scope command checks the scope once per u (in ScopedU), builds
    one sign key per u, runs no Horner pass (no `char_sum` anywhere in the
    library), counts at most one DDT row from one f table and makes no
    whole-field translate beyond those it reads (1 more per run, for the
    table chi(g^m - 1) that the scope mask and the sign key share);
    verify-lemmas reads no DDT."""
    counts = {"sign_key": 0, "char_sum": 0, "ddt_row": 0, "f_table": 0, "translate": 0,
              "classify_u": 0}

    def counted(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(charsums.ScopedU.sign_key, "func", "sign_key")
    counted(FieldCtx, "translate", "translate")
    for module in (charsums, spectrum, census_mod, ness):
        if hasattr(module, "char_sum"):
            counted(module, "char_sum", "char_sum")
    counted(ness, "ddt_row", "ddt_row")
    counted(ness, "f_table", "f_table")
    counted(charsums, "classify_u", "classify_u")
    k = 4
    status, out, _ = _run(command, n=5, u=f"sample:{k}:1")
    assert status == 0 and len({rec["u"] for rec in _json_lines(out)}) == k
    assert counts == {"sign_key": k, "char_sum": 0, "ddt_row": ddt_rows_per_u * k,
                      "f_table": ddt_rows_per_u * k,
                      "translate": TRANSLATES_PER_U[command] * k + 1,
                      "classify_u": k}


def test_console_entry_point_runs():
    proc = _cli_subprocess("--n", "3", "--command", "verify-theorem", "--u", "sample:2:9")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2
