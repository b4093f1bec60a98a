"""Mutant registry: each shortcut the library takes, a mutant of it, and the
oracle checks that must catch that mutant.

An entry names the library attribute, installs its mutant with
``monkeypatch`` and lists its checks.  A check returns True when the library
agrees with its oracle (`tests/oracles.py`) or when a CLI command passes.
The test asserts that every check fails under the mutant and passes
without it, so a check that stops looking at the shortcut fails here.  The
mutants keep, as tests, the kind of scratch-copy mutation that CHANGES.md
reports for each shortcut (a wrongly compiled proposition table; a DDT row
read at the wrong a; a rotation or a stride of the log-order kernels one
step off), so that they run on every change.
"""

import io

import numpy as np
import pytest

import oracles
from nhspectrum import charsums, cli, ness
from nhspectrum import solution_census as cn
from nhspectrum.charsums import SIGN_PATTERNS, ScopedU
from nhspectrum.field import FieldCtx
from nhspectrum.spectrum import u0_nonf3_elements


def _scope(ctx):
    """Every in-scope u by the scalar rule, which no mutant here touches."""
    return [ScopedU(ctx, u) for u in range(ctx.q)
            if charsums.classify_u(ctx, u) == charsums.CLASS_U0]


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


def sign_key_matches_g_values(ctx) -> bool:
    """The signs of `sign_key` equal chi of z and of `g_values` at every z."""
    zs = np.arange(ctx.q)
    for su in _scope(ctx):
        values = np.stack([zs, *(oracles.g_values(su, gid) for gid in charsums.G_IDS)], axis=1)
        if not np.array_equal(SIGN_PATTERNS[su.sign_key], ctx.chi_vec(values)):
            return False
    return True


def scope_mask_follows_classify_u(ctx) -> bool:
    """`u0_nonf3_elements` is the u that `classify_u` labels in scope."""
    return u0_nonf3_elements(ctx).tolist() == [su.u for su in _scope(ctx)]


def f_table_matches_f_eval(ctx) -> bool:
    """`f_table` equals f_u by plain exponentiation at every x, for every u."""
    return all(ness.f_table(ctx, u).tolist() == [oracles.f_eval(ctx, u, x) for x in range(ctx.q)]
               for u in range(ctx.q))


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


def rotate_one_off(monkeypatch, ctx):
    """`chi_minus` reads C rotated one step too far for every a != 0."""
    chi_minus = FieldCtx.chi_minus

    def rotated(self, a):
        column = chi_minus(self, a)
        if a:
            column[:-1] = np.roll(column[:-1], -1)
        return column

    monkeypatch.setattr(FieldCtx, "chi_minus", rotated)


def shift_nonsquare_stride(monkeypatch, ctx):
    """`scaled_inverse` reads the stride of odd logs one step off: c/(g^2 x)
    in place of c/x at every nonsquare x."""
    scaled_inverse = FieldCtx.scaled_inverse

    def shifted(self, c_square, c_nonsquare):
        out = scaled_inverse(self, c_square, c_nonsquare)
        xs = np.arange(self.q)
        g_squared_xs = oracles.mul_vec(self, xs, self.pow(self.generator, 2))
        return np.where(self.chi_vec(xs) == -1, out[g_squared_xs], out)

    monkeypatch.setattr(FieldCtx, "scaled_inverse", shifted)


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
    # chi(z - g^j) = chi(g^j) C[k - j] at z = g^k: one table read in log order
    "FieldCtx.chi_minus": (
        rotate_one_off,
        (sign_key_matches_g_values, scope_mask_follows_classify_u),
    ),
    # c/g^k = alog[log c + q - 1 - k]: one reversed stride per parity
    "FieldCtx.scaled_inverse": (
        shift_nonsquare_stride,
        (f_table_matches_f_eval, command_passes("verify-theorem")),
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
