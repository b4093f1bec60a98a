"""Per-(a, b) solution counts for the derivative equation of f_u.

Fix a != 0 and write N(a, b) for the number of x with
f_u(x + a) - f_u(x) = b.  Solutions split into the two special points
{0, -a}, where the inversion form of f_u degenerates, and the rest, where
the equation becomes the quadratic

    b x^2 + (a b - u (t_a - t_0)) x + a (u t_0 + 1) = 0,

with t_a = chi(x + a) and t_0 = chi(x) frozen to one of the four sign
patterns (the cases I..IV below).  A root only counts when its actual
character signs reproduce the pattern that produced it (a "desired"
solution).  Put x = a y and divide by a: with z = a b the case quadratic is

    z y^2 + (z - u (t_a - t_0)) y + (u t_0 + 1) = 0,

a root y is desired when chi(y + 1) = chi(a) t_a and chi(y) = chi(a) t_0,
and the special points y in {0, -1} solve the equation exactly when
z = 1 + u or z = 1 - u.  So a pair enters only through z and chi(a).
For z != 0 put w = 1 / z: divided by z, the case quadratic is the monic

    y^2 + B y + C,   B = 1 - (t_a - t_0) u w,   C = w + t_0 u w,

and since 4 = 1 and 1/2 = -1 in characteristic 3 its roots are B +- s
with s^2 = B^2 - C.  That discriminant is

    1 - w - u w       = g2(z) / z^2   in case I,
    1 - w + u w       = g3(z) / z^2   in case IV,
    1 - w + (u w)^2   = g4(z) / z^2   in cases II and III alike,

so a pair takes one inverse and at most three square roots, and the case
counts are read off the signs of the classifier polynomials at z
(`charsums`).  For in-scope u the resulting count is determined entirely
by those signs and that of z itself, which yields a 0..4 prediction
without solving anything; this module computes both routes and the
machinery to compare them against direct counting.
Direct counting depends on z alone as well: delta(a, b) is the DDT row
`ScopedU.row` at the slot of z (`ness.ddt_row`, `FieldCtx.slot`).

At import, the rules in `SOLUTION_CONDITIONS` compile into
`PREDICTION_TABLE`, read per u only by `prediction_by_z`, and the closed
forms of the case counts into `CASE_TABLE`, both from the signs in
`charsums.PATTERN_SIGNS` and indexed as that table is, by the lead of u
(`ScopedU.lead`) and the pattern of z (`ScopedU.pattern`).  The two compile
into `EXPECTED`, the count both give where they agree, so the full-field
check is one gather at the patterns and one compare with the DDT row, in
the log order of both.  The tests keep an interpreter of the rules and the
scalar `census` as the oracles for every entry.  Records hold elements as
ints and no u: the CLI writes both.
"""

from __future__ import annotations

import numpy as np

from .charsums import PATTERN_SIGNS, ScopedU
from .field import FieldCtx, InconsistencyError

CASE_TAU = {"I": (1, 1), "II": (1, -1), "III": (-1, 1), "IV": (-1, -1)}

# Admissible (N1, N_I, N_II + N_III, N_IV) vectors and their totals.
TABLE_IV_ROWS: dict[tuple[int, int, int, int], int] = {
    (0, 0, 0, 0): 0,
    (1, 0, 0, 0): 1,
    (0, 1, 0, 0): 1,
    (0, 0, 1, 0): 1,
    (0, 0, 0, 1): 1,
    (0, 0, 2, 0): 2,
    (0, 1, 0, 1): 2,
    (1, 0, 2, 0): 3,
    (0, 1, 2, 0): 3,
    (0, 0, 2, 1): 3,
    (0, 1, 2, 1): 4,
}

# Solution-count conditions on the sign vector (s1..s5) of the classifier
# polynomials at z = a b.  Keys: "s" pins chi(g_i(z)) values; "one_pm_u"
# restricts to z in {1+u, 1-u}; "chi_z2mu2" pins chi(z^2 - u^2) (used only
# when s4 = 0, i.e. z = -1 +- sqrt(1-u^2)); "b_zero" is the b = 0 row.
# Exactly one condition across all counts must match any given (a, b).
# `rule_inputs` derives the last three from the signs: b_zero from s0,
# one_pm_u from s0, s2 and s3, and chi_z2mu2 from s0 and s5.
SOLUTION_CONDITIONS: dict[int, list[dict]] = {
    4: [
        {"s": {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}},
    ],
    3: [
        {"one_pm_u": True, "s": {4: 1, 5: 1}},
        {"s": {1: 1, 2: 1, 3: -1, 4: 1, 5: 1}},
        {"s": {1: 1, 2: -1, 3: 1, 4: 1, 5: 1}},
    ],
    2: [
        {"s": {1: 1, 2: 1, 3: 1, 4: -1}},
        {"s": {1: 1, 2: 1, 3: 1, 4: 1, 5: -1}},
        {"s": {2: -1, 3: -1, 4: 1, 5: 1}},
        {"s": {1: -1, 2: -1, 3: 1, 4: 1, 5: 1}},
        {"s": {1: -1, 2: 1, 3: -1, 4: 1, 5: 1}},
        {"s": {1: -1, 2: 1, 3: 1, 4: 1, 5: 1}},
    ],
    1: [
        {"one_pm_u": True, "s": {4: -1}},
        {"one_pm_u": True, "s": {4: 1, 5: -1}},
        {"s": {4: 0}, "chi_z2mu2": 1},
        {"s": {1: 1, 2: 1, 3: -1, 4: -1}},
        {"s": {1: 1, 2: -1, 3: 1, 4: -1}},
        {"s": {1: 1, 2: 1, 3: -1, 4: 1, 5: -1}},
        {"s": {1: 1, 2: -1, 3: 1, 4: 1, 5: -1}},
    ],
    0: [
        {"b_zero": True},
        {"s": {4: 0}, "chi_z2mu2": -1},
        {"s": {2: -1, 3: -1, 4: -1}},
        {"s": {1: -1, 2: -1, 3: 1, 4: -1}},
        {"s": {1: -1, 2: 1, 3: -1, 4: -1}},
        {"s": {1: -1, 2: 1, 3: 1, 4: -1}},
        {"s": {2: -1, 3: -1, 4: 1, 5: -1}},
        {"s": {1: -1, 2: -1, 3: 1, 4: 1, 5: -1}},
        {"s": {1: -1, 2: 1, 3: -1, 4: 1, 5: -1}},
        {"s": {1: -1, 2: 1, 3: 1, 4: 1, 5: -1}},
    ],
}


NO_RULE = -1
SEVERAL_RULES = -2
NOT_ADMISSIBLE = -1

CASE_COLUMNS = ("n1", "n_i", "n_ii_iii", "n_iv", "total")


def rule_inputs(signs) -> dict:
    """b_zero, one_pm_u and chi_z2mu2 from the signs (s0, ..., s5) of z,
    scalars or elementwise.  g1 = -(u+1) z, so b = 0 exactly when s0 = 0;
    g2 and g3 vanish only at 0 and 1 +- u.  Where s4 = 0, z + 1 = +-r, so
    z^2 - u^2 = -z (z + 1) and chi(z^2 - u^2) = -+chi(z) (n is odd): s5 at
    z = -1 - r, the zero of g4 where g5 is not 0, and -s0 at z = -1 + r.
    """
    s0, _, s2, s3, _, s5 = signs
    return {"b_zero": s0 == 0, "one_pm_u": (s0 != 0) & (s2 * s3 == 0),
            "chi_z2mu2": np.where(s5 != 0, s5, -s0)}


def _compile_conditions(pattern_signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (lead, pattern), from its signs in `pattern_signs`: the count whose
    single rule fires, else NO_RULE or SEVERAL_RULES; and (N1, N_I, N_II +
    N_III, N_IV) by their closed forms (all 0 for z = 0, the b = 0 row), then
    the total in TABLE_IV_ROWS or NOT_ADMISSIBLE.  N1 depends on z alone
    because u is outside GF(3): the special-point targets are a b = 1 +- u
    whatever chi(a) is.
    """
    shape = pattern_signs.shape[:-1]
    signs = pattern_signs.reshape(-1, pattern_signs.shape[-1]).T
    inputs = rule_inputs(signs)
    b_zero, one_pm_u, chi_z2mu2 = inputs["b_zero"], inputs["one_pm_u"], inputs["chi_z2mu2"]
    pred, fired = np.zeros((2, signs.shape[1]), dtype=np.int8)
    for count, conds in SOLUTION_CONDITIONS.items():
        for cond in conds:
            mask = b_zero == cond.get("b_zero", False)
            if cond.get("one_pm_u", False):
                mask &= one_pm_u
            for gid, want in cond.get("s", {}).items():
                mask &= signs[gid] == want
            if "chi_z2mu2" in cond:
                mask &= chi_z2mu2 == cond["chi_z2mu2"]
            fired += mask
            pred[mask] = count
    _, s1, s2, s3, s4, s5 = signs
    cases = np.stack([
        one_pm_u,
        (s1 == 1) & (s2 == 1),
        np.where((s4 == 1) & (s5 == 1), 2, (s4 == 0) & (chi_z2mu2 == 1)),
        (s1 == 1) & (s3 == 1),
    ], axis=1)
    cases[b_zero] = 0
    totals = [TABLE_IV_ROWS.get(tuple(row), NOT_ADMISSIBLE) for row in cases.tolist()]
    tables = (np.select([fired == 1, fired == 0], [pred, NO_RULE], SEVERAL_RULES)
              .astype(np.int8).reshape(shape),
              np.column_stack([cases, totals]).astype(np.int8).reshape(*shape, -1))
    for table in tables:
        table.flags.writeable = False
    return tables


PREDICTION_TABLE, CASE_TABLE = _compile_conditions(PATTERN_SIGNS)


def _expected(prediction: np.ndarray, cases: np.ndarray) -> np.ndarray:
    """Per (lead, pattern): the prediction where it equals the case total,
    else -1.  A negative entry never equals a DDT entry, and a prediction is
    negative where not exactly one rule fires, so a z whose entry equals
    delta(1, z) has one rule, and its prediction and total both equal
    delta(1, z)."""
    total = cases[..., CASE_COLUMNS.index("total")]
    expected = np.where(prediction == total, prediction, -1).astype(np.int8)
    expected.flags.writeable = False
    return expected


EXPECTED = _expected(PREDICTION_TABLE, CASE_TABLE)


# ---------------------------------------------------------------------------
# the per-pair census
# ---------------------------------------------------------------------------


def _desired_roots(ctx: FieldCtx, b1: int, s: int | None, want_1: int, want_0: int) -> int:
    """How many roots y = b1 +- s of y^2 + b1 y + c0, s^2 = b1^2 - c0 (s
    None where that is not a square), have chi(y + 1) = want_1 and
    chi(y) = want_0.  Either root s will do, as b1 +- s is one pair; the
    census takes `FieldCtx.sqrt_canonical`.  y + 1 differs from y in digit 0
    alone, so chi(y + 1) is read from the row of y in the chi grid, as
    `charsums.classify_u` reads chi(u +- 1)."""
    if s is None:
        return 0
    roots = (b1,) if s == 0 else (ctx.add(b1, s), ctx.sub(b1, s))
    grid = ctx.chi_table.reshape(-1, 3)
    return sum(ctx.chi(y) == want_0 and grid.item(y // 3, (y + 1) % 3) == want_1 for y in roots)


def census(su: ScopedU, a: int, b: int) -> dict:
    """Count solutions every way at once and check the admissible patterns.

    Returns {"z", "n1", "case_i", "case_ii", "case_iii", "case_iv",
    "predicted", "observed"}: z = a b, the special-point count N1, the
    number of desired roots of each case, the sum of those five (predicted)
    and delta(a, b) (observed), read from the DDT row `su.row` at the slot
    of z (`ness.ddt_row`).  The pair enters only through z and chi(a): x = 0
    and x = -a solve the equation exactly when z = 1 + u chi(a) or
    z = 1 - u chi(a), so N1 = [z = 1 + u] + [z = 1 - u], both points read
    from `ScopedU.points`, and each case is solved in y = x / a in its
    monic form, with one inverse w = 1 / z and one square root shared by
    cases II and III.  The (N1, N_I, N_II + N_III, N_IV) vector must appear
    in the admissible table with exactly the predicted total.
    """
    ctx, u = su.ctx, su.u
    if not (0 < a < ctx.q and 0 <= b < ctx.q):
        raise ValueError(f"needs 0 < a < q and 0 <= b < q, got a={a}, b={b}")
    z, chi_a = ctx.mul(a, b), ctx.chi(a)
    n1 = su.points[1:3].count(z)
    n_i = n_ii = n_iii = n_iv = 0
    if z:
        w = ctx.inv(z)
        uw = ctx.mul(u, w)
        one_w = ctx.sub(1, w)
        s_ii_iii = ctx.sqrt_canonical(ctx.add(one_w, ctx.mul(uw, uw)))
        monic = ((1, ctx.sqrt_canonical(ctx.sub(one_w, uw))),
                 (ctx.add(1, uw), s_ii_iii), (ctx.sub(1, uw), s_ii_iii),
                 (1, ctx.sqrt_canonical(ctx.add(one_w, uw))))
        n_i, n_ii, n_iii, n_iv = (_desired_roots(ctx, *coefs, chi_a * t_a, chi_a * t_0)
                                  for coefs, (t_a, t_0) in zip(monic, CASE_TAU.values()))
    predicted = n1 + n_i + n_ii + n_iii + n_iv
    table_key = (n1, n_i, n_ii + n_iii, n_iv)
    if TABLE_IV_ROWS.get(table_key) != predicted:
        raise InconsistencyError(
            f"case vector {table_key} with total {predicted} is not an "
            f"admissible pattern (u={ctx.format_element(u)}, "
            f"a={ctx.format_element(a)}, b={ctx.format_element(b)})"
        )
    return {"z": z, "n1": n1, "case_i": n_i, "case_ii": n_ii, "case_iii": n_iii,
            "case_iv": n_iv, "predicted": predicted, "observed": int(su.row[ctx.slot(z)])}


# ---------------------------------------------------------------------------
# sign-vector prediction and the full-field check
# ---------------------------------------------------------------------------


def g_signs(su: ScopedU, z: int) -> tuple[int, int, int, int, int]:
    """(chi(g1(z)), ..., chi(g5(z)))."""
    return tuple(PATTERN_SIGNS[su.lead, su.pattern[su.ctx.slot(z)], 1:].tolist())


def prediction_by_z(su: ScopedU) -> np.ndarray:
    """Predicted N(a, b) at every z = a b, in log order as `ScopedU.pattern`
    (the last slot, z = 0, covers b = 0 and is 0).

    One gather from the lead row of u in `PREDICTION_TABLE` at the patterns;
    raises InconsistencyError naming u, z and the signs at the smallest z
    where not exactly one condition fires.
    """
    ctx = su.ctx
    pred = PREDICTION_TABLE[su.lead].take(su.pattern)
    if pred.min() < 0:
        z = min(map(ctx.element_at, np.flatnonzero(pred < 0).tolist()))
        what = "no condition" if pred[ctx.slot(z)] == NO_RULE else "several conditions"
        raise InconsistencyError(f"{what} matched at u={ctx.format_element(su.u)} "
                                 f"z={ctx.format_element(z)} signs={g_signs(su, z)}")
    return pred


def verify_predictions(su: ScopedU) -> dict:
    """Compare predictions against the DDT for every (a, b).

    Checks, for each pair, that the proposition prediction and the total of
    the case vector both equal delta(a, b), the total being NOT_ADMISSIBLE
    unless the vector is in the admissible table (`CASE_TABLE`).  All three
    depend only on z = a b (`ness.ddt_row`), so the pairs (1, z) cover every
    pair, and one gather from the lead row of u in `EXPECTED` at the
    patterns, compared with the DDT row slot by slot, checks them all.  Only
    where that fails is `prediction_by_z` read, which raises as it does where
    not exactly one rule fires.  Returns a summary with one mismatch record
    per failing z, in increasing z, at (a, b) = (1, z), its elements as ints.
    """
    ctx, observed = su.ctx, su.row
    ok = EXPECTED[su.lead].take(su.pattern) == observed
    mismatches = []
    if not ok.all():
        predicted = prediction_by_z(su)
        failing = sorted((ctx.element_at(slot), slot) for slot in np.flatnonzero(~ok).tolist())
        mismatches = [{"a": 1, "b": z, "z": z, "chi_signature": list(g_signs(su, z)),
                       "predicted": int(predicted[slot]), "observed": int(observed[slot])}
                      for z, slot in failing]
    return {
        "pairs": (ctx.q - 1) * ctx.q,  # the row a = 1 stands for all q - 1 rows
        "mismatches": mismatches,
        "ok": not mismatches,
    }
