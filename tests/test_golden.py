"""Golden stdout: every command in every format, byte for byte.

``tests/data/golden_stdout.json`` maps each case to the sha256 of the
stdout that ``cli.run`` wrote for it when the file was recorded.  A change
that keeps the program's output must keep every digest.  To add the cases
that the file lacks, run before the change that they guard:

    PYTHONPATH=src python tests/test_golden.py --add

That runs only the missing cases and rewrites the file in place with every
recorded digest as it was.  To record the whole file again (only when an
output change is intended):

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_stdout.json

The recorder writes nothing and exits non-zero, naming the cases, when a
case's run status is not 0, so a digest never pins the stdout of a failing
run.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from nhspectrum.cli import COMMANDS, RunConfig, run

GOLDEN = Path(__file__).parent / "data" / "golden_stdout.json"

# (n, --u, --seed) per setting; every command runs in every format at each.
SETTINGS = ((3, "all", 0), (5, "sample:2:7", 9))
FORMATS = ("json", "csv", "text")

# The whole scope at n = 7 in json, for each command that runs under a second
# (`census` and `ddt` take about 40 s there).
N7_COMMANDS = ("spectrum", "verify-lemmas", "verify-propositions", "verify-theorem", "scan")

# The census at n = 7 on a seeded sample of u (about 0.2 s), in place of the
# whole scope.
N7_CENSUS = ("census", 7, "sample:20:1", 0, "json")

# One explicit u of each out-of-scope class at n = 5: F3, U11 and U10.
OUT_OF_SCOPE_U = ("00000", "01000", "21100")

# u = 1 and u = 2, where 1 - u or 1 + u is 0, so f_u vanishes on the
# nonsquares or on the squares: the DDT row's zero-coefficient branch.
ZERO_COEFFICIENT_U = ("10000", "20000")

# A seeded sample at each n >= 9, in json, for the per-u character pass and
# the per-pair census (`scan` at n = 13 takes about 0.4 s, `census` at the
# three settings about 0.8 s together).
LARGE_N_SETTINGS = ((9, "sample:40:3"), (11, "sample:3:1"), (13, "sample:1:1"))
LARGE_N_COMMANDS = ("scan", "verify-lemmas", "verify-propositions", "census")

# The whole scope at n = 9 in json (about 3 s), the sweep that a per-orbit
# computation would change.
N9_WHOLE_SCOPE = ("verify-theorem", 9, "all", 0, "json")


def case_id(command: str, n: int, u_spec: str, seed: int, fmt: str) -> str:
    return f"{command}|n={n}|u={u_spec}|seed={seed}|{fmt}"


def cases() -> list[tuple[str, int, str, int, str]]:
    return ([(command, n, u_spec, seed, fmt)
             for n, u_spec, seed in SETTINGS
             for command in COMMANDS
             for fmt in FORMATS]
            + [(command, 7, "all", 0, "json") for command in N7_COMMANDS]
            + [N7_CENSUS]
            + [("spectrum", 5, u, 0, fmt) for u in OUT_OF_SCOPE_U for fmt in FORMATS]
            + [("spectrum", 5, u, 0, fmt) for u in ZERO_COEFFICIENT_U for fmt in FORMATS]
            + [("ddt", 5, u, 0, "json") for u in ZERO_COEFFICIENT_U]
            + [("spectrum", 7, u.ljust(7, "0"), 0, "json") for u in ZERO_COEFFICIENT_U]
            + [(command, n, u_spec, 0, "json")
               for n, u_spec in LARGE_N_SETTINGS for command in LARGE_N_COMMANDS]
            + [N9_WHOLE_SCOPE])


def stdout_digest(command: str, n: int, u_spec: str, seed: int, fmt: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(n=n, modulus=None, u_spec=u_spec, command=command,
                       output_format=fmt, seed=seed, jobs=1)
    status = run(config, out=out, err=err)
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", cases(), ids=lambda c: case_id(*c))
def test_stdout_matches_golden(case):
    expected = json.loads(GOLDEN.read_text())[case_id(*case)]
    status, digest = stdout_digest(*case)
    assert status == 0
    assert digest == expected


def record(case_list) -> dict[str, str]:
    """The digest of each case; raises SystemExit naming every case whose run
    status is not 0."""
    results = {case_id(*c): stdout_digest(*c) for c in case_list}
    failed = [f"{case} (status {status})" for case, (status, _) in results.items() if status]
    if failed:
        raise SystemExit("not recorded, a run failed: " + ", ".join(failed))
    return {case: digest for case, (_, digest) in results.items()}


def add_missing(golden: dict[str, str], case_list) -> dict[str, str]:
    """golden with the digest of each case of case_list that it lacks; a case
    it has is not run, so no recorded digest changes."""
    return {**record([c for c in case_list if case_id(*c) not in golden]), **golden}


def test_adding_keeps_every_recorded_digest():
    kept, added = ("spectrum", 3, "all", 0, "json"), ("spectrum", 3, "all", 0, "text")
    golden = add_missing({case_id(*kept): "kept"}, [kept, added])
    assert golden == {case_id(*kept): "kept", case_id(*added): stdout_digest(*added)[1]}


def test_recorder_refuses_a_failing_run():
    with pytest.raises(SystemExit, match=r"spectrum\|n=3\|u=nope\|seed=0\|json \(status 2\)"):
        record([("spectrum", 3, "all", 0, "json"), ("spectrum", 3, "nope", 0, "json")])


if __name__ == "__main__":
    if sys.argv[1:] == ["--add"]:
        added = add_missing(json.loads(GOLDEN.read_text()), cases())
        GOLDEN.write_text(json.dumps(added, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(record(cases()), indent=1, sort_keys=True))
