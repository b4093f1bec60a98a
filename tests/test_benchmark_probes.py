"""The benchmark's traced child still runs against the library.

`perfbench/child.py` wraps the public functions of every layer module and
probes `FieldCtx` methods by name (`digit_table`, `pair_add_table`,
`chi_vec`, scalar `chi` and `mul`), so removing or renaming one of them
breaks the benchmark.  These runs make that a test failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE_KEYS = {
    "field.chi_cold_us", "field.mul_cold_us", "field.log_tables_s", "field.chi_warm_us",
    "field.mul_warm_us", "field.pair_add_table_s", "field.pair_add_table_mb",
}


@pytest.mark.parametrize("command", ["scan", "verify-lemmas"])
def test_trace_mode_runs(command):
    spec = {"mode": "trace", "src": str(ROOT / "src"), "command": command,
            "n": 3, "k": 1, "seed": 1, "jobs": 1}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0, result["stderr"]
    assert result["spans"]
    assert {span[2] for span in result["spans"]} >= {"cli.run", "charsums.section2_identities"}
    assert set(result["probes"]) == PROBE_KEYS
