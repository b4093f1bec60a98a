"""Mutant registry: each shortcut the library takes, a mutant of it, and the
oracle checks that must catch that mutant.

An entry names the library attribute, installs its mutant with
``monkeypatch`` and lists its checks.  A check returns True when the library
agrees with its oracle (`tests/oracles.py`) or when a CLI command passes.
The test asserts that every check fails under the mutant and passes
without it, so a check that stops looking at the shortcut fails here.  The
mutants keep, as tests, the kind of scratch-copy mutation that CHANGES.md
reports for each shortcut (a wrongly compiled proposition table; a DDT row
read at the wrong a), so that they run on every change.
"""

import io

import numpy as np
import pytest

import oracles
from nhspectrum import cli, ness
from nhspectrum import solution_census as cn
from nhspectrum.charsums import ScopedU
from nhspectrum.spectrum import u0_nonf3_elements


def _scope(ctx):
    return [ScopedU(ctx, u) for u in u0_nonf3_elements(ctx).tolist()]


# ---------------------------------------------------------------------------
# oracle checks
# ---------------------------------------------------------------------------


def predictions_follow_rules(ctx) -> bool:
    """`prediction_by_z` at every z equals the rule interpreter at (1, z)."""
    return all(cn.prediction_by_z(su).tolist()
               == [oracles.matching_conditions(su, 1, z)[0][0] for z in range(ctx.q)]
               for su in _scope(ctx))


def row_gives_every_row(ctx) -> bool:
    """delta(a, b) = ddt_row[a b] for every a != 0 and b, against the
    counted q x q table."""
    zs = np.arange(ctx.q)
    for su in _scope(ctx):
        row, table = ness.ddt_row(ctx, su.u), oracles.ddt_table(ctx, su.u)
        if any((table[a] != row[oracles.mul_vec(ctx, a, zs)]).any() for a in range(1, ctx.q)):
            return False
    return True


def command_passes(command: str):
    """The check that `command` --u all exits 0; any status but 0 or 1 is an error."""

    def check(ctx) -> bool:
        config = cli.RunConfig(n=ctx.n, modulus=None, u_spec="all", command=command,
                               output_format="json", seed=0, jobs=1)
        status = cli.run(config, io.StringIO(), io.StringIO())
        assert status in (0, 1), (command, status)
        return status == 0

    check.__name__ = f"{command}_passes"
    return check


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------


def shift_one_prediction(monkeypatch, ctx):
    """`PREDICTION_TABLE` off by one at the commonest sign key of a nonzero z
    in the scope of ctx, as the compiled table would be if one rule or its
    compilation were wrong."""
    keys = np.concatenate([su.sign_key[1:] for su in _scope(ctx)])
    key = int(np.bincount(keys).argmax())
    wrong = cn.PREDICTION_TABLE.copy()
    wrong[key] = (wrong[key] + 1) % 5
    monkeypatch.setattr(cn, "PREDICTION_TABLE", wrong)


def count_row_g(monkeypatch, ctx):
    """`ddt_row` counts the row a = g in place of a = 1."""

    def row_at_generator(ctx, u):
        ftab = ness.f_table(ctx, u)
        return np.bincount(ctx.sub_vec(ftab[ctx.translate(ctx.generator)], ftab),
                           minlength=ctx.q)

    monkeypatch.setattr(ness, "ddt_row", row_at_generator)


# attribute: (mutant, checks that must catch it)
MUTANTS = {
    "solution_census.PREDICTION_TABLE": (
        shift_one_prediction,
        (predictions_follow_rules, command_passes("census"),
         command_passes("verify-propositions")),
    ),
    # delta(a, b) = delta(1, a b): one counted row stands for the whole DDT
    "ness.ddt_row": (
        count_row_g,
        (row_gives_every_row, command_passes("verify-propositions")),
    ),
}


@pytest.mark.parametrize("attribute, check", [
    pytest.param(attribute, check, id=f"{attribute}-{check.__name__}")
    for attribute, (_, checks) in MUTANTS.items() for check in checks
])
def test_mutant_is_caught(f3, monkeypatch, attribute, check):
    mutate = MUTANTS[attribute][0]
    with monkeypatch.context() as patch:
        mutate(patch, f3)
        assert not check(f3), f"{check.__name__} misses the mutant of {attribute}"
    assert check(f3), f"{check.__name__} fails on the library as it is"
