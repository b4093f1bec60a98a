"""Per-(a, b) solution counts for the derivative equation of f_u.

Fix a != 0 and write N(a, b) for the number of x with
f_u(x + a) - f_u(x) = b.  Solutions split into the two special points
{0, -a}, where the inversion form of f_u degenerates, and the rest, where
the equation becomes the quadratic

    b x^2 + (a b - u (t_a - t_0)) x + a (u t_0 + 1) = 0,

with t_a = chi(x + a) and t_0 = chi(x) frozen to one of the four sign
patterns (the cases I..IV below).  A root only counts when its actual
character signs reproduce the pattern that produced it (a "desired"
solution).  For in-scope u the resulting count is determined entirely by
the signs of the five classifier polynomials and of z itself at z = a b,
which yields a 0..4 prediction without solving anything; this module
computes both routes and the machinery to compare them against direct
counting.  Direct counting depends on z alone as well: delta(a, b) is the
DDT row `ScopedU.row` at z (`ness.ddt_row`).

At import, the rules in `SOLUTION_CONDITIONS` compile into
`PREDICTION_TABLE`, read only by `prediction_by_z`, and the closed forms of
the case counts into `CASE_TABLE`, both indexed by the sign key of z
(`ScopedU.sign_key`), so a full-field check is two gathers.  The tests keep
an interpreter of the rules and the scalar `census` as the oracles for
every entry.  Records hold elements as ints and no u: the CLI writes both.
"""

from __future__ import annotations

import numpy as np

from .charsums import SIGN_PATTERNS, ScopedU
from .field import FieldCtx, InconsistencyError

CASE_IDS = ("I", "II", "III", "IV")
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


def _compile_conditions() -> tuple[np.ndarray, np.ndarray]:
    """Per sign key: the count whose single rule fires, else NO_RULE or
    SEVERAL_RULES; and (N1, N_I, N_II + N_III, N_IV) by their closed forms
    (all 0 for z = 0, the b = 0 row), then the total in TABLE_IV_ROWS or
    NOT_ADMISSIBLE.  N1 depends on z alone because u is outside GF(3): the
    special-point targets are a b = 1 +- u whatever chi(a) is.
    """
    signs = SIGN_PATTERNS.T
    inputs = rule_inputs(signs)
    b_zero, one_pm_u, chi_z2mu2 = inputs["b_zero"], inputs["one_pm_u"], inputs["chi_z2mu2"]
    pred, fired = np.zeros((2, len(SIGN_PATTERNS)), dtype=np.int8)
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
    tables = (np.select([fired == 1, fired == 0], [pred, NO_RULE], SEVERAL_RULES).astype(np.int8),
              np.column_stack([cases, totals]).astype(np.int8))
    for table in tables:
        table.flags.writeable = False
    return tables


PREDICTION_TABLE, CASE_TABLE = _compile_conditions()


# ---------------------------------------------------------------------------
# direct machinery: special points, case quadratics, desired roots
# ---------------------------------------------------------------------------


def special_point_solutions(ctx: FieldCtx, u: int, a: int, b: int) -> int:
    """Number of solutions among x in {0, -a}.

    Closed form: 2 when u = 0 and b = 1/a; 1 when u != 0 and
    b = (1 +- u chi(a)) / a; else 0.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    inv_a = ctx.inv(a)
    if u == 0:
        return 2 if b == inv_a else 0
    chi_a = 1 if ctx.chi(a) == 1 else 2  # chi(a) as the field element +-1
    t_plus = ctx.mul(inv_a, ctx.add(1, ctx.mul(u, chi_a)))
    t_minus = ctx.mul(inv_a, ctx.sub(1, ctx.mul(u, chi_a)))
    return int(b == t_plus) + int(b == t_minus)


def solve_quadratic(ctx: FieldCtx, c2: int, c1: int, c0: int) -> tuple[int, ...]:
    """Roots of c2 x^2 + c1 x + c0 over the field (0, 1 or 2 of them)."""
    if c2 == 0:
        raise ValueError("leading coefficient must be nonzero")
    disc = ctx.sub(ctx.mul(c1, c1), ctx.mul(c2, c0))  # c1^2 - 4 c2 c0, 4 == 1
    inv_c2 = ctx.inv(c2)
    if disc == 0:
        return (ctx.mul(c1, inv_c2),)  # -c1 / (2 c2) and 2 == -1
    if ctx.chi(disc) == -1:
        return ()
    root = ctx.sqrt_canonical(disc)
    x1 = ctx.mul(ctx.add(c1, root), inv_c2)   # (-c1 + root) / (2 c2)
    x2 = ctx.mul(ctx.sub(c1, root), inv_c2)
    return (x1, x2)


def case_equation(ctx: FieldCtx, u: int, a: int, b: int, case_id: str) -> tuple[int, int, int]:
    """(c2, c1, c0) of the case quadratic for the given sign pattern."""
    tau_a, tau_0 = CASE_TAU[case_id]
    t_a = 1 if tau_a == 1 else 2
    t_0 = 1 if tau_0 == 1 else 2
    c2 = b
    c1 = ctx.sub(ctx.mul(a, b), ctx.mul(u, ctx.sub(t_a, t_0)))
    c0 = ctx.mul(a, ctx.add(ctx.mul(u, t_0), 1))
    return c2, c1, c0


def case_solutions(ctx: FieldCtx, u: int, a: int, b: int, case_id: str) -> tuple[int, ...]:
    """The desired solutions of one case: solve the case quadratic, then keep
    the roots whose character signs match.

    Roots at 0 or -a have a zero character on one side and never match,
    so the special points are excluded automatically.
    """
    if a == 0 or b == 0:
        raise ValueError("case analysis needs a != 0 and b != 0")
    if case_id not in CASE_IDS:
        raise ValueError(f"case_id must be one of {CASE_IDS}, got {case_id!r}")
    tau_a, tau_0 = CASE_TAU[case_id]
    roots = solve_quadratic(ctx, *case_equation(ctx, u, a, b, case_id))
    return tuple(x for x in roots if ctx.chi(ctx.add(x, a)) == tau_a and ctx.chi(x) == tau_0)


# ---------------------------------------------------------------------------
# the per-pair census
# ---------------------------------------------------------------------------


def census(su: ScopedU, a: int, b: int) -> dict:
    """Count solutions every way at once and check the admissible patterns.

    Returns {"z", "n1", "case_i", "case_ii", "case_iii", "case_iv",
    "predicted", "observed"}: z = a b, the special-point count N1, the
    number of desired roots of each case, the sum of those five (predicted)
    and delta(a, b) (observed), read from the DDT row `su.row` at z
    (`ness.ddt_row`).  The (N1, N_I, N_II + N_III, N_IV) vector must appear
    in the admissible table with exactly the predicted total.
    """
    ctx, u = su.ctx, su.u
    if a == 0:
        raise ValueError("a must be nonzero")
    n1 = special_point_solutions(ctx, u, a, b)
    n_i, n_ii, n_iii, n_iv = (len(case_solutions(ctx, u, a, b, cid)) if b else 0
                              for cid in CASE_IDS)
    predicted = n1 + n_i + n_ii + n_iii + n_iv
    table_key = (n1, n_i, n_ii + n_iii, n_iv)
    if TABLE_IV_ROWS.get(table_key) != predicted:
        raise InconsistencyError(
            f"case vector {table_key} with total {predicted} is not an "
            f"admissible pattern (u={ctx.format_element(u)}, "
            f"a={ctx.format_element(a)}, b={ctx.format_element(b)})"
        )
    z = ctx.mul(a, b)
    return {"z": z, "n1": n1, "case_i": n_i, "case_ii": n_ii, "case_iii": n_iii,
            "case_iv": n_iv, "predicted": predicted, "observed": int(su.row[z])}


# ---------------------------------------------------------------------------
# sign-vector prediction and the full-field check
# ---------------------------------------------------------------------------


def g_signs(su: ScopedU, z: int) -> tuple[int, int, int, int, int]:
    """(chi(g1(z)), ..., chi(g5(z)))."""
    return tuple(SIGN_PATTERNS[su.sign_key[z], 1:].tolist())


def prediction_by_z(su: ScopedU) -> np.ndarray:
    """Predicted N(a, b) at every z = a b (slot z = 0 covers b = 0 and is 0).

    One gather from `PREDICTION_TABLE` at the sign keys; raises
    InconsistencyError naming u, z and the signs at the first z where not
    exactly one condition fires.
    """
    pred = PREDICTION_TABLE[su.sign_key]
    if pred.min() < 0:
        z = int((pred < 0).argmax())
        what = "no condition" if pred[z] == NO_RULE else "several conditions"
        raise InconsistencyError(f"{what} matched at u={su.ctx.format_element(su.u)} "
                                 f"z={su.ctx.format_element(z)} signs={g_signs(su, z)}")
    return pred


def verify_predictions(su: ScopedU) -> dict:
    """Compare predictions against the DDT for every (a, b).

    Checks, for each pair, that the proposition prediction and the total of
    the case vector both equal delta(a, b), the total being NOT_ADMISSIBLE
    unless the vector is in the admissible table (`CASE_TABLE`).  All three
    depend only on z = a b (`ness.ddt_row`), so the pairs (1, z) cover every
    pair.  Returns a summary with one mismatch record per failing z, at
    (a, b) = (1, z), its elements as ints.
    """
    q = su.ctx.q
    predicted = prediction_by_z(su)
    totals = CASE_TABLE[su.sign_key, CASE_COLUMNS.index("total")]
    observed = su.row
    ok = (predicted == observed) & (totals == observed)
    mismatches = [{"a": 1, "b": z, "z": z, "chi_signature": list(g_signs(su, z)),
                   "predicted": int(predicted[z]), "observed": int(observed[z])}
                  for z in np.flatnonzero(~ok).tolist()]
    return {
        "pairs": (q - 1) * q,  # the row a = 1 stands for all q - 1 rows
        "mismatches": mismatches,
        "ok": not mismatches,
    }
