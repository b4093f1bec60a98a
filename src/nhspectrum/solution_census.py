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
the signs of the five classifier polynomials at z = a b, which yields a
0..4 prediction without solving anything; this module computes both routes
and the machinery to compare them against direct counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charsums
from .field import FieldCtx, InconsistencyError
from .ness import DDTRows, ddt_rows

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


@dataclass(frozen=True)
class CaseOutcome:
    """Desired solutions of one case quadratic."""

    case_id: str
    desired: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.desired)


def case_solutions(ctx: FieldCtx, u: int, a: int, b: int, case_id: str) -> CaseOutcome:
    """Solve the case quadratic, then keep roots whose character signs match.

    Roots at 0 or -a have a zero character on one side and never match,
    so the special points are excluded automatically.
    """
    if a == 0 or b == 0:
        raise ValueError("case analysis needs a != 0 and b != 0")
    if case_id not in CASE_IDS:
        raise ValueError(f"case_id must be one of {CASE_IDS}, got {case_id!r}")
    tau_a, tau_0 = CASE_TAU[case_id]
    roots = solve_quadratic(ctx, *case_equation(ctx, u, a, b, case_id))
    desired = tuple(
        x for x in roots if ctx.chi(ctx.add(x, a)) == tau_a and ctx.chi(x) == tau_0
    )
    return CaseOutcome(case_id=case_id, desired=desired)


# ---------------------------------------------------------------------------
# sign-vector prediction
# ---------------------------------------------------------------------------


def g_signs(ctx: FieldCtx, u: int, z: int) -> tuple[int, int, int, int, int]:
    """(chi(g1(z)), ..., chi(g5(z)))."""
    return tuple(ctx.chi(charsums.g_eval(ctx, u, gid, z)) for gid in charsums.G_IDS)


def _condition_matches(
    cond: dict, *, b_zero: bool, one_pm_u: bool, signs: tuple[int, ...], chi_z2mu2: int
) -> bool:
    if cond.get("b_zero", False) != b_zero:
        return False
    if b_zero:
        return True
    if cond.get("one_pm_u", False) and not one_pm_u:
        return False
    for gid, want in cond.get("s", {}).items():
        if signs[gid - 1] != want:
            return False
    if "chi_z2mu2" in cond and chi_z2mu2 != cond["chi_z2mu2"]:
        return False
    return True


def matching_conditions(ctx: FieldCtx, u: int, a: int, b: int) -> list[tuple[int, int]]:
    """All (count, condition index) pairs matching (a, b); must be exactly one."""
    charsums.require_scope(ctx, u)
    if a == 0:
        raise ValueError("a must be nonzero")
    z = ctx.mul(a, b)
    b_zero = b == 0
    one_pm_u = z in (ctx.add(1, u), ctx.sub(1, u))
    signs = g_signs(ctx, u, z)
    chi_z2mu2 = ctx.chi(ctx.sub(ctx.mul(z, z), ctx.mul(u, u)))
    out = []
    for count, conds in SOLUTION_CONDITIONS.items():
        for idx, cond in enumerate(conds):
            if _condition_matches(
                cond, b_zero=b_zero, one_pm_u=one_pm_u, signs=signs, chi_z2mu2=chi_z2mu2
            ):
                out.append((count, idx))
    return out


def predict_solution_count(ctx: FieldCtx, u: int, a: int, b: int) -> int:
    """N(a, b) from the sign vector alone; raises if not exactly one rule fires."""
    hits = matching_conditions(ctx, u, a, b)
    if len(hits) != 1:
        z = ctx.mul(a, b)
        raise InconsistencyError(
            f"{len(hits)} conditions matched at u={ctx.format_element(u)} "
            f"a={ctx.format_element(a)} b={ctx.format_element(b)} "
            f"z={ctx.format_element(z)} signs={g_signs(ctx, u, z)} hits={hits}"
        )
    return hits[0][0]


# ---------------------------------------------------------------------------
# the per-pair census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionCensus:
    """Full account of one (a, b): special points, cases, prediction, truth."""

    a: int
    b: int
    z: int
    n1: int
    cases: tuple[CaseOutcome, ...]
    predicted_total: int
    observed_total: int

    @property
    def case_counts(self) -> dict[str, int]:
        return {c.case_id: c.count for c in self.cases}

    @property
    def table_key(self) -> tuple[int, int, int, int]:
        k = self.case_counts
        return (self.n1, k["I"], k["II"] + k["III"], k["IV"])

    @property
    def consistent(self) -> bool:
        return self.predicted_total == self.observed_total


def census(ctx: FieldCtx, u: int, a: int, b: int, rows: DDTRows | None = None) -> SolutionCensus:
    """Count solutions every way at once and check the admissible patterns.

    ``predicted_total`` is the special-point count plus desired case roots;
    ``observed_total`` is delta(a, b), read from the two DDT rows through
    the scaling lemma (`ness.ddt_rows`): row 1 at a b for a square a, row g
    at (a/g) b otherwise.  ``rows`` is ``ddt_rows(ctx, u)`` when already
    built.  The (N1, N_I, N_II + N_III, N_IV) vector must appear in the
    admissible table with exactly the predicted total.
    """
    charsums.require_scope(ctx, u)
    if a == 0:
        raise ValueError("a must be nonzero")
    n1 = special_point_solutions(ctx, u, a, b)
    if b == 0:
        cases = tuple(CaseOutcome(cid, ()) for cid in CASE_IDS)
    else:
        cases = tuple(case_solutions(ctx, u, a, b, cid) for cid in CASE_IDS)
    predicted = n1 + sum(c.count for c in cases)
    if rows is None:
        rows = ddt_rows(ctx, u)
    z = ctx.mul(a, b)
    if ctx.chi(a) == 1:
        observed = int(rows[0][z])
    else:
        observed = int(rows[1][ctx.mul(z, ctx.inv(ctx.generator))])
    result = SolutionCensus(
        a=a,
        b=b,
        z=z,
        n1=n1,
        cases=cases,
        predicted_total=predicted,
        observed_total=observed,
    )
    expected_total = TABLE_IV_ROWS.get(result.table_key)
    if expected_total is None or expected_total != predicted:
        raise InconsistencyError(
            f"case vector {result.table_key} with total {predicted} is not an "
            f"admissible pattern (u={ctx.format_element(u)}, "
            f"a={ctx.format_element(a)}, b={ctx.format_element(b)})"
        )
    return result


def mismatch_record(ctx: FieldCtx, u: int, a: int, b: int, predicted: int, observed: int) -> dict:
    """JSON-ready triage record for a prediction that missed."""
    z = ctx.mul(a, b)
    return {
        "u": ctx.format_element(u),
        "a": ctx.format_element(a),
        "b": ctx.format_element(b),
        "z": ctx.format_element(z),
        "chi_signature": list(g_signs(ctx, u, z)),
        "predicted": predicted,
        "observed": observed,
    }


# ---------------------------------------------------------------------------
# vectorised full-field verification
# ---------------------------------------------------------------------------


SignVectors = tuple[np.ndarray, np.ndarray, np.ndarray]  # see _sign_vectors


def _sign_vectors(ctx: FieldCtx, u: int) -> SignVectors:
    """Over every z: chi(g_i(z)) for i = 1..5 (`charsums.g_sign_matrix`),
    chi(z^2 - u^2), and z in {1 +- u}."""
    charsums.require_scope(ctx, u)
    z = np.arange(ctx.q, dtype=np.int64)
    chi_z2mu2 = ctx.chi_vec(ctx.sub_vec(ctx.mul_vec(z, z), np.int64(ctx.mul(u, u))))
    one_pm_u = (z == ctx.add(1, u)) | (z == ctx.sub(1, u))
    return charsums.g_sign_matrix(ctx, u), chi_z2mu2, one_pm_u


def prediction_by_z(ctx: FieldCtx, u: int, vectors: SignVectors | None = None) -> np.ndarray:
    """Predicted N for every z in F* (slot z = 0 covers b = 0 and is 0).

    Also enforces that exactly one condition fires at every nonzero z.
    ``vectors`` is ``_sign_vectors(ctx, u)`` when the caller has built it.
    """
    q = ctx.q
    signs, chi_z2mu2, one_pm_u = vectors if vectors is not None else _sign_vectors(ctx, u)

    pred = np.zeros(q, dtype=np.int8)
    fired = np.zeros(q, dtype=np.int8)
    for count, conds in SOLUTION_CONDITIONS.items():
        for cond in conds:
            if cond.get("b_zero", False):
                continue
            mask = np.ones(q, dtype=bool)
            if cond.get("one_pm_u", False):
                mask &= one_pm_u
            for gid, want in cond.get("s", {}).items():
                mask &= signs[gid - 1] == want
            if "chi_z2mu2" in cond:
                mask &= chi_z2mu2 == cond["chi_z2mu2"]
            fired += mask
            pred[mask] = count
    fired[0] = 1  # z = 0 only arises from b = 0, which predicts 0
    if not np.all(fired == 1):
        offender = int(np.flatnonzero(fired != 1)[0])
        raise InconsistencyError(
            f"{int(fired[offender])} conditions matched at "
            f"u={ctx.format_element(u)} z={ctx.format_element(offender)} "
            f"signs={g_signs(ctx, u, offender)}"
        )
    pred[0] = 0
    return pred


def census_components_by_z(
    ctx: FieldCtx, u: int, vectors: SignVectors | None = None
) -> dict[str, np.ndarray]:
    """(N1, N_I, N_II + N_III, N_IV) for every z in F*, from closed forms.

    N1 depends on (a, b) only through z here because u is outside GF(3):
    the two special-point targets are ab = 1 +- u regardless of chi(a).
    ``vectors`` is ``_sign_vectors(ctx, u)`` when the caller has built it.
    """
    signs, chi_z2mu2, one_pm_u = vectors if vectors is not None else _sign_vectors(ctx, u)
    s1, s2, s3, s4, s5 = signs
    n1 = one_pm_u.astype(np.int8)
    n_i = ((s1 == 1) & (s2 == 1)).astype(np.int8)
    n_iv = ((s1 == 1) & (s3 == 1)).astype(np.int8)
    n_ii_iii = np.where(
        (s4 == 1) & (s5 == 1),
        np.int8(2),
        ((s4 == 0) & (chi_z2mu2 == 1)).astype(np.int8),
    )
    for arr in (n1, n_i, n_iv, n_ii_iii):
        arr[0] = 0
    return {"n1": n1, "n_i": n_i, "n_ii_iii": n_ii_iii, "n_iv": n_iv}


def verify_predictions(ctx: FieldCtx, u: int, rows: DDTRows | None = None) -> dict:
    """Compare predictions against the DDT for every (a, b).

    Checks, for each pair: the proposition prediction, the case-vector sum,
    and membership of the case vector in the admissible table.  All three
    depend only on z = a b, and so does delta(a, b) within a square class of
    a (`ness.ddt_rows`), so the pairs with a = 1 and a = g cover every pair.
    ``rows`` is ``ddt_rows(ctx, u)`` when already built.  Returns a summary
    with one mismatch record per failing representative pair.
    """
    charsums.require_scope(ctx, u)
    q = ctx.q
    if rows is None:
        rows = ddt_rows(ctx, u)
    vectors = _sign_vectors(ctx, u)
    pred_z = prediction_by_z(ctx, u, vectors)
    comp = census_components_by_z(ctx, u, vectors)
    totals_z = comp["n1"] + comp["n_i"] + comp["n_ii_iii"] + comp["n_iv"]

    keys_z = (
        comp["n1"] * 27 + comp["n_i"] * 9 + comp["n_ii_iii"] * 3 + comp["n_iv"]
    )
    admissible = np.full(54, -1, dtype=np.int8)
    for (k1, ki, k23, kiv), total in TABLE_IV_ROWS.items():
        admissible[k1 * 27 + ki * 9 + k23 * 3 + kiv] = total

    bs = np.arange(q, dtype=np.int64)
    mismatches: list[dict] = []
    for a, observed in zip((1, ctx.generator), rows):
        zrow = ctx.mul_vec(np.int64(a), bs)
        predicted = pred_z[zrow]
        ok = (
            (predicted == observed)
            & (totals_z[zrow] == observed)
            & (admissible[keys_z[zrow]] == totals_z[zrow])
        )
        for b in np.flatnonzero(~ok):
            mismatches.append(
                mismatch_record(ctx, u, a, int(b), int(predicted[b]), int(observed[b]))
            )
    return {
        "u": ctx.format_element(u),
        "pairs": (q - 1) * q,  # each representative row stands for (q - 1)/2 rows
        "mismatches": mismatches,
        "ok": not mismatches,
    }
