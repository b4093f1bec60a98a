"""Deliberately slow, independent references the fast paths are tested against.

None of this is library code: each function recomputes by a different
route what a production function computes, and the tests compare the two.

  * The oracles' own field arithmetic works on (..., n) int8 arrays of
    base-3 digits (`digits`, `value`) and reads only `n`, `q` and `modulus`
    of a field: `digitwise` adds index arrays digit by digit mod 3,
    `poly_mul_mod` is the schoolbook product reduced by the modulus and
    `frobenius` the n x n matrix of x -> x^3.  `add`, `neg`, `sub` and
    `mul` are one-element calls of them.
  * `f_values` evaluates f_u(x) = u x^d1 + x^d2 at every x at once: as d1 =
    3 + 9 + ... + 3^(n - 1), `powers` takes x^d1 as n - 2 products of the
    conjugates x^(3^i), chi(x) = x^d1 x and x^d2 = x^d1 chi(x), shared by
    every u, so each u costs one product.  `row_by_polynomials` counts
    f_u(x + 1) - f_u(x), the oracle for `ness.ddt_row` up to n = 11, and
    `case_rows_by_polynomials` splits it by the case of x, the oracle for
    the columns of `CASE_TABLE` at every z;
    `derivative`, `ddt_entry_naive` and `ddt_table` (every row a, for the
    lemma delta(a, b) = delta(1, a b)) read the same f_u.
    `same_parity_counts` counts the part of the row from the x with chi(x)
    = chi(x + 1), per parity, from Zech logarithms taken by the digit-wise
    adder: the oracle for the row `FieldCtx._zech` reads off in closed form.
    `counting_identities_hold` checks the two sums every spectrum meets,
    and `uniformity` reads its largest DDT value.  `case_counts` splits
    the x that solve one pair (a, b) into the special points {0, -a} and
    the four cases of (chi(x + a), chi(x)): the oracle for `census`.
  * `g_eval` evaluates one classifier polynomial at one z with the scalar
    ops; `g_values` evaluates it over the whole field with the digit-wise
    adder and `mul_vec`, a product gathered from the log tables.  Both are
    oracles for the signs the library reads off the pattern of z
    (`signs_by_z`), which it builds from the zeros of the polynomials
    instead, from the characters chi(z - a) packed by
    `FieldCtx.chi_pattern`, with no field addition.  `square_root` raises
    a to (q + 1) / 4 by square-and-multiply on its digits and asserts that
    the root is a square by the norm, the oracle for
    `FieldCtx.sqrt_canonical`; `root` takes the r of u by it, and
    `points_of_a` the five points of A by the digit-wise adder: the oracles
    for `ScopedU.r` and `ScopedU.points`, and `g_values` reads r from `root`.
  * `g_product_sum` multiplies the classifier polynomials in the field
    before taking chi, the oracle for `ScopedU.product_sums`, the sums
    over the pattern histogram; `gamma3_from_products` and
    `gamma4_from_products` are the defining forms of the two character sums.
  * `char_sum` sums chi of any polynomial by Horner's rule over the field,
    and `quadratic_char_sum` is the degree-2 closed form it is checked
    against; `gamma3_from_cubic` and `gamma4_from_quintic` are the two sums
    in their reduced one-polynomial forms.
  * `table_a_expected` writes the signs of the g family on the five-point
    set A in closed form; `table_a_chi` reads the same grid off
    `ScopedU.pattern`, and the tests compare the two.
  * `in_element_order` reads a log-order vector (`pattern`, the DDT row)
    at every z in element order, in one gather at the log table that
    `FieldCtx.slot` reads.
  * `entry_signs` writes the signs of one entry (lead, pattern) of the
    compiled tables from the factored g family, the oracle for
    `PATTERN_SIGNS`.
  * `matching_conditions` interprets `SOLUTION_CONDITIONS` rule by rule on
    the signs from `g_eval`, the oracle for `PREDICTION_TABLE`;
    `case_row` writes the case counts of one entry (`entry_inputs`) in
    closed form, the oracle for `CASE_TABLE`; `table_key` reads the
    admissible-table row off a `census` record.
  * `smallest_irreducible` searches for the first monic irreducible of
    degree n by trial division, the oracle for the moduli in
    `field.DEFAULT_FIELDS`; `random_irreducible` draws a seeded one.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Sequence

import numpy as np

from nhspectrum import charsums
from nhspectrum.charsums import G_IDS, ScopedU
from nhspectrum.field import FieldCtx, irreducible_witness
from nhspectrum.solution_census import (NOT_ADMISSIBLE, SOLUTION_CONDITIONS, TABLE_IV_ROWS,
                                        rule_inputs)


# ---------------------------------------------------------------------------
# the function and the DDT
# ---------------------------------------------------------------------------


_POWERS: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def powers(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x^d1, x^d2, chi(x)) at every x in element order, two (q, n) digit
    arrays and int8, kept per (n, modulus).  x^d1 is the product of the
    conjugates x^(3^i), 0 < i < n, each the one before read through x -> x^3
    (`frobenius`); chi(x) = x^d1 x is the norm x^((q - 1) / 2) (Lidl &
    Niederreiter, Finite Fields), and x^d2 = (x^d1)^2 x = x^d1 chi(x)."""
    key = ctx.n, tuple(ctx.modulus)
    if key not in _POWERS:
        x = digits(ctx, np.arange(ctx.q))
        cube = value(x @ frobenius(ctx) % 3)
        conjugate, d1 = cube, x[cube]
        for _ in range(ctx.n - 2):
            conjugate = cube[conjugate]
            d1 = poly_mul_mod(ctx, d1, x[conjugate])
        chi = np.array([0, 1, -1], dtype=np.int8)[value(poly_mul_mod(ctx, d1, x))]
        _POWERS[key] = d1, d1 * chi[:, None] % 3, chi
    return _POWERS[key]


@functools.lru_cache(maxsize=2)
def f_values(ctx: FieldCtx, u: int) -> np.ndarray:
    """f_u(x) = u x^d1 + x^d2 at every x in element order, one product by u
    on the shared `powers` (f(0) = 0); kept for the last two u."""
    d1, d2, _ = powers(ctx)
    return value((poly_mul_mod(ctx, digits(ctx, u), d1) + d2) % 3)


def plus_one(v: np.ndarray) -> np.ndarray:
    """v(x + 1) at every x, v given at every x in element order.  x + 1
    differs from x in digit 0 alone, so it is v as a (q / 3, 3) grid with its
    columns turned."""
    return v.reshape(-1, 3)[:, [1, 2, 0]].ravel()


def difference_counts(ctx: FieldCtx, f: np.ndarray) -> np.ndarray:
    """The count of x with f(x + 1) - f(x) = z for every z, f given at every
    x and the counts in element order."""
    return np.bincount(digitwise(ctx, plus_one(f), f, -1), minlength=ctx.q)


def row_by_polynomials(ctx: FieldCtx, u: int) -> np.ndarray:
    """delta(1, z) for every z in element order, counted from `f_values`:
    the oracle for `ness.ddt_row` at every n."""
    return difference_counts(ctx, f_values(ctx, u))


def case_rows_by_polynomials(ctx: FieldCtx, u: int) -> np.ndarray:
    """(5, q): `row_by_polynomials` split as `census` splits the x at a = 1,
    from the same f_u and the norm chi of `powers`: row 0 counts x in
    {0, -1}, rows 1 to 4 the x of cases I to IV, (chi(x + 1), chi(x)) in
    `CASE_OF_SIGNS` order.  The five rows sum to the row."""
    f, chi = f_values(ctx, u), powers(ctx)[2]
    t_1, t_0 = plus_one(chi), chi
    case = np.where(t_1 * t_0 == 0, 0, 1 + 2 * (t_1 == -1) + (t_0 == -1))
    diff = digitwise(ctx, plus_one(f), f, -1)
    return np.bincount(case * ctx.q + diff, minlength=5 * ctx.q).reshape(5, ctx.q)


def case_columns(rows: np.ndarray) -> np.ndarray:
    """(q, 4): (N1, N_I, N_II + N_III, N_IV) at every z from the five
    `case_rows_by_polynomials`, the columns of `CASE_TABLE` but the total."""
    return np.stack([rows[0], rows[1], rows[2] + rows[3], rows[4]], axis=1)


def derivative(ctx: FieldCtx, u: int, a: int, x) -> np.ndarray:
    """f_u(x + a) - f_u(x), for an element x or an index array of them."""
    if a == 0:
        raise ValueError("derivative direction a must be nonzero")
    f = f_values(ctx, u)
    return digitwise(ctx, f[digitwise(ctx, x, a)], f[x], -1)


def ddt_entry_naive(ctx: FieldCtx, u: int, a: int, b: int) -> int:
    """delta(a, b), counted over every x; the oracle for the row's entries."""
    if a == 0:
        raise ValueError("DDT rows are indexed by nonzero a")
    return int(np.count_nonzero(derivative(ctx, u, a, np.arange(ctx.q)) == b))


CASE_OF_SIGNS = {(1, 1): "case_i", (1, -1): "case_ii", (-1, 1): "case_iii", (-1, -1): "case_iv"}


def case_counts(ctx: FieldCtx, u: int, a: int, b: int) -> dict[str, int]:
    """The x with f_u(x + a) - f_u(x) = b, split as `census` splits them:
    "n1" for x in {0, -a}, else the case of (chi(x + a), chi(x)) in
    `CASE_OF_SIGNS`, chi from `powers`; the oracle for the five counts of
    `census`."""
    chi = powers(ctx)[2]
    counts = dict.fromkeys(("n1", *CASE_OF_SIGNS.values()), 0)
    for x in np.flatnonzero(derivative(ctx, u, a, np.arange(ctx.q)) == b).tolist():
        counts[CASE_OF_SIGNS.get((int(chi[add(ctx, x, a)]), int(chi[x])), "n1")] += 1
    return counts


def ddt_table(ctx: FieldCtx, u: int) -> np.ndarray:
    """(q, q) array of delta(a, b) in element order, one histogram of
    f_u(x + a) - f_u(x) per a, from `f_values` and `sum_table`.  Row a = 0
    is filled (delta(0, 0) = q) but is not part of the DDT."""
    f = f_values(ctx, u)
    plus = sum_table(ctx)
    minus_f = digitwise(ctx, 0, f, -1)
    out = np.zeros((ctx.q, ctx.q), dtype=np.int64)
    for a in range(ctx.q):
        out[a] = np.bincount(plus[f[plus[a]], minus_f], minlength=ctx.q)
    return out


def same_parity_counts(ctx: FieldCtx) -> np.ndarray:
    """(2, q - 1) int8: row p counts Z-(D(k)) - k mod q - 1 over the k of
    parity p with Z+(k) of parity p (`FieldCtx._zech` names the tables),
    x = 0 (a square) and x = -1 (a nonsquare) at 0.  Z- is read off the
    log tables at g**m - 1 by the digit-wise adder."""
    q = ctx.q
    n_logs, h = q - 1, (q - 1) // 2
    log, alog = ctx._log_tables
    minus = log[digitwise(ctx, alog[:n_logs], 1, -1)]
    minus[0] = 2 * n_logs
    diff = (np.concatenate([minus[h:], minus[:h]]) + h) % n_logs  # Z+(k)
    diff[h] = h  # k = h, x = -1: x + 1 = 0
    diff = np.arange(n_logs) - diff  # D(k), in (-N, N)
    is_cross = (diff & 1).astype(bool)  # k - Z+(k) odd: the parities differ
    same = np.empty((2, n_logs), dtype=np.int8)
    for parity in (0, 1):
        k = np.flatnonzero(~is_cross[parity::2]) * 2 + parity
        values = (minus[diff[k]] - k) % n_logs
        if parity:  # x = -1, k = h, where D(h) = 0: f(0) - f(-1) = c_nonsquare
            values[np.searchsorted(k, h)] = 0
        same[parity] = np.bincount(values, minlength=n_logs)
    same[0, 0] += 1  # x = 0: f(1) - f(0) = c_square
    return same


def uniformity(omegas: list[int]) -> int:
    """The largest DDT value hit: the last index of the spectrum."""
    return len(omegas) - 1


def counting_identities_hold(omegas: list[int], q: int) -> bool:
    """sum omega_i = (q - 1) q pairs (a, b), and sum i omega_i = (q - 1) q
    solutions x, q for each of the q - 1 nonzero a."""
    total = (q - 1) * q
    return sum(omegas) == total and sum(i * w for i, w in enumerate(omegas)) == total


# ---------------------------------------------------------------------------
# character sums
# ---------------------------------------------------------------------------


def mul_vec(ctx: FieldCtx, a, b) -> np.ndarray:
    """a b entrywise: alog at (log a + log b) mod (q - 1), and 0 wherever a
    factor is 0."""
    a, b = np.asarray(a), np.asarray(b)
    log, alog = ctx._log_tables
    product = alog[(log[a] + log[b]) % (ctx.q - 1)]
    return np.where((a == 0) | (b == 0), 0, product)


def char_sum(ctx: FieldCtx, coeffs: Sequence[int]) -> int:
    """Exact sum of chi(poly(z)) over all z; coeffs lowest degree first, by
    Horner's rule from the scalar leading coefficient, each sum digit-wise."""
    if not any(coeffs):
        raise ValueError("character sum of the zero polynomial is not defined")
    zs = np.arange(ctx.q, dtype=np.int64)
    acc = np.int64(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = mul_vec(ctx, acc, zs)
        if c:
            acc = digitwise(ctx, acc, c)
    return int(np.broadcast_to(ctx.chi_vec(acc), zs.shape).sum())


def quadratic_char_sum(ctx: FieldCtx, a2: int, a1: int, a0: int) -> int:
    """Closed form for sum of chi(a2 z^2 + a1 z + a0): -chi(a2) when the
    discriminant a1^2 - 4 a0 a2 is nonzero, else (q-1) chi(a2)."""
    if a2 == 0:
        raise ValueError("leading coefficient must be nonzero")
    d = ctx.sub(ctx.mul(a1, a1), ctx.mul(a0, a2))  # 4 == 1 in characteristic 3
    if d != 0:
        return -ctx.chi(a2)
    return (ctx.q - 1) * ctx.chi(a2)


def g_eval(su: ScopedU, gid: int, z: int) -> int:
    """g_gid(z) by scalar field ops."""
    ctx, u = su.ctx, su.u
    if gid == 1:
        return ctx.mul(ctx.sub(0, ctx.add(u, 1)), z)
    if gid == 2:
        return ctx.mul(z, ctx.sub(z, ctx.add(1, u)))
    if gid == 3:
        return ctx.mul(z, ctx.sub(z, ctx.sub(1, u)))
    if gid == 4:
        return ctx.add(ctx.sub(ctx.mul(z, z), z), ctx.mul(u, u))
    if gid == 5:
        return ctx.mul(ctx.sub(0, ctx.add(1, su.r)), ctx.sub(ctx.add(z, 1), su.r))
    raise ValueError(f"gid must be 1..5, got {gid}")


def square_root(ctx: FieldCtx, a) -> np.ndarray:
    """a**((q + 1) / 4) for an element or an index array, by square-and-multiply
    with `poly_mul_mod` on its digits: the root r of a with chi(r) = 1 at a
    nonzero square a, and 0 at 0.  chi(r) = 1 is asserted, not branched on,
    with chi the norm of `powers`, the product of the conjugates.  The oracle
    for `FieldCtx.sqrt_canonical`."""
    a, e = np.asarray(a), (ctx.q + 1) // 4
    base, result = digits(ctx, a), digits(ctx, np.ones_like(a))
    while e:
        if e & 1:
            result = poly_mul_mod(ctx, result, base)
        base = poly_mul_mod(ctx, base, base)
        e >>= 1
    r = value(result)
    chi = powers(ctx)[2]
    assert np.all((chi[a] != 1) | (chi[r] == 1)), "a root of a square with chi = -1"
    return r


@functools.lru_cache(maxsize=2)
def root(ctx: FieldCtx, u: int) -> int:
    """The root r of 1 - u^2 with chi(r) = 1 (`square_root`), 1 - u^2 by the
    schoolbook product and the digit-wise adder; the oracle for `ScopedU.r`,
    kept for the last two u (`g_values` reads it once per product)."""
    return int(square_root(ctx, sub(ctx, 1, mul(ctx, u, u))))


def points_of_a(ctx: FieldCtx, u: int) -> tuple[int, int, int, int, int]:
    """A = (0, 1+u, 1-u, -1+r, -1-r) by the digit-wise adder, r from `root`;
    the oracle for `ScopedU.points`."""
    r = root(ctx, u)
    return 0, add(ctx, 1, u), sub(ctx, 1, u), sub(ctx, r, 1), neg(ctx, add(ctx, 1, r))


def g_values(su: ScopedU, gid: int) -> np.ndarray:
    """g_gid(z) for every z in the field, as one index array, by the vector
    ops at the r of `root`."""
    ctx, u = su.ctx, su.u
    z = np.arange(ctx.q, dtype=np.int64)
    if gid == 1:
        return mul_vec(ctx, neg(ctx, add(ctx, u, 1)), z)
    if gid == 2:
        return mul_vec(ctx, z, digitwise(ctx, z, add(ctx, 1, u), -1))
    if gid == 3:
        return mul_vec(ctx, z, digitwise(ctx, z, sub(ctx, 1, u), -1))
    if gid == 4:
        return digitwise(ctx, digitwise(ctx, mul_vec(ctx, z, z), z, -1), ctx.mul(u, u))
    if gid == 5:
        r = root(ctx, u)
        return mul_vec(ctx, neg(ctx, add(ctx, 1, r)), digitwise(ctx, digitwise(ctx, z, 1), r, -1))
    raise ValueError(f"gid must be 1..5, got {gid}")


def g_signs(su: ScopedU, z: int) -> tuple[int, ...]:
    """(chi(g1(z)), ..., chi(g5(z))) by scalar evaluation."""
    return tuple(su.ctx.chi(g_eval(su, gid, z)) for gid in G_IDS)


def table_a_chi(su: ScopedU) -> list[list[int]]:
    """chi(g_i(x)) for x in A (rows) and i = 1..5 (columns), decoded from `ScopedU.pattern`."""
    return signs_by_z(su)[list(su.points), 1:].tolist()


def in_element_order(ctx: FieldCtx, vec: np.ndarray) -> np.ndarray:
    """A log-order vector (slot `FieldCtx.slot(z)` for z) read at z = 0, 1, ..., q - 1:
    one gather at the log table, which holds the slot of every z."""
    return vec[ctx._log_tables[0]]


def signs_by_z(su: ScopedU) -> np.ndarray:
    """(q, 6): (chi(z), chi(g1(z)), ..., chi(g5(z))) as the library reads them
    at z = 0, 1, ..., q - 1, `PATTERN_SIGNS` at the lead of u and the pattern of z."""
    return charsums.PATTERN_SIGNS[su.lead][in_element_order(su.ctx, su.pattern)]


def table_a_expected(su: ScopedU) -> list[list[int]]:
    """The grid of `table_a_chi` from its closed-form entries in terms of u and r."""
    ctx, u, r = su.ctx, su.u, su.r
    chi, mul, add, sub, neg = ctx.chi, ctx.mul, ctx.add, ctx.sub, functools.partial(ctx.sub, 0)
    u2 = mul(u, u)
    up1, um1 = add(u, 1), sub(u, 1)
    chi_u2pu = chi(add(u2, u))      # chi(u^2 + u)
    chi_umu2 = chi(sub(u, u2))      # chi(u - u^2)
    row_0 = [0, 0, 0, 1, -1]
    row_1pu = [-1, 0, -chi_u2pu, chi_umu2, -chi(add(mul(up1, r), mul(um1, um1)))]
    row_1mu = [-1, chi_umu2, 0, -chi_u2pu, -chi(add(mul(sub(1, u), r), mul(up1, up1)))]
    row_m1pr = [-1, -chi(u) * chi(add(sub(u, 1), r)), chi(u) * chi(add(neg(add(1, u)), r)), 0, 0]
    row_m1mr = [-1, chi(u) * chi(add(sub(1, u), r)), -chi(u) * chi(add(add(1, u), r)), 0,
                chi(sub(sub(u2, 1), r))]
    return [row_0, row_1pu, row_1mu, row_m1pr, row_m1mr]


def g_product_sum(su: ScopedU, gids: Iterable[int]) -> int:
    """Exact sum over z of chi of the product of the selected g polynomials.

    Multiplies the polynomials in the field; the oracle for `ScopedU.product_sums`.
    """
    gids = tuple(gids)
    if not gids:
        raise ValueError("need at least one polynomial id")
    prod = g_values(su, gids[0])
    for gid in gids[1:]:
        prod = mul_vec(su.ctx, prod, g_values(su, gid))
    return int(su.ctx.chi_vec(prod).sum())


def gamma3_from_products(su: ScopedU) -> int:
    """sum_z chi(g1 g4); the defining form of gamma3."""
    return g_product_sum(su, (1, 4))


def gamma4_from_products(su: ScopedU) -> int:
    """sum_z chi(g1 g2 g3 g4); the defining form of gamma4."""
    return g_product_sum(su, (1, 2, 3, 4))


def gamma3_from_cubic(su: ScopedU) -> int:
    """-chi(u+1) * sum_z chi(z^3 - z^2 + u^2 z), as g1 g4 = -(u+1) times the cubic."""
    ctx, u = su.ctx, su.u
    u2 = ctx.mul(u, u)
    return -ctx.chi(ctx.add(u, 1)) * char_sum(ctx, [0, u2, ctx.sub(0, 1), 1])


def gamma4_from_quintic(su: ScopedU) -> int:
    """-chi(u+1) * sum_z chi(z^5 - (u^2+1) z^2 + (u^2 - u^4) z): g1 g2 g3 g4 is
    -(u+1) z^2 times this quintic, and chi(z^2) = 1 away from z = 0."""
    ctx, u = su.ctx, su.u
    u2 = ctx.mul(u, u)
    u4 = ctx.mul(u2, u2)
    coeffs = [0, ctx.sub(u2, u4), ctx.sub(0, ctx.add(u2, 1)), 0, 0, 1]
    return -ctx.chi(ctx.add(u, 1)) * char_sum(ctx, coeffs)


# ---------------------------------------------------------------------------
# the proposition rules
# ---------------------------------------------------------------------------


def condition_matches(
    cond: dict, *, b_zero: bool, one_pm_u: bool, signs: tuple[int, ...], chi_z2mu2: int
) -> bool:
    """Whether one rule of `SOLUTION_CONDITIONS` fires on the given inputs."""
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


def fired_conditions(
    *, b_zero: bool, one_pm_u: bool, signs: tuple[int, ...], chi_z2mu2: int
) -> list[tuple[int, int]]:
    """All (count, condition index) pairs whose rule fires on the given inputs."""
    return [
        (count, idx)
        for count, conds in SOLUTION_CONDITIONS.items()
        for idx, cond in enumerate(conds)
        if condition_matches(
            cond, b_zero=b_zero, one_pm_u=one_pm_u, signs=signs, chi_z2mu2=chi_z2mu2
        )
    ]


def matching_conditions(su: ScopedU, a: int, b: int) -> list[tuple[int, int]]:
    """All (count, condition index) pairs matching (a, b); must be exactly one."""
    ctx, u = su.ctx, su.u
    if a == 0:
        raise ValueError("a must be nonzero")
    z = ctx.mul(a, b)
    return fired_conditions(
        b_zero=b == 0,
        one_pm_u=z in (ctx.add(1, u), ctx.sub(1, u)),
        signs=g_signs(su, z),
        chi_z2mu2=ctx.chi(ctx.sub(ctx.mul(z, z), ctx.mul(u, u))),
    )


def entry_signs(lead: int, pattern: int) -> tuple[int, ...]:
    """(s0, ..., s5) at a z with `ScopedU.pattern` pattern, for a u with
    `ScopedU.lead` lead, from the factored g family.  Digit i of the
    pattern, less 1, is c_i = chi(z - a_i) for the points a_i of A; chi(u+1)
    is 1 - 2 lead, and chi(-(1+r)) = chi(u+1) leads g5."""
    c0, c1, c2, c3, c4 = (pattern // 3**i % 3 - 1 for i in range(5))
    chi_u1 = 1 - 2 * lead
    return (c0, -chi_u1 * c0, c0 * c1, c0 * c2, c3 * c4, chi_u1 * c3)


def entry_inputs():
    """((lead, pattern), inputs) for all 2 x 243 entries of the compiled
    tables, the rule inputs derived from `entry_signs` by `rule_inputs`."""
    for entry in itertools.product(range(2), range(243)):
        signs = entry_signs(*entry)
        derived = {name: value.item() for name, value in rule_inputs(np.array(signs)).items()}
        yield entry, dict(derived, signs=signs[1:])


def case_row(*, b_zero: bool, one_pm_u: bool, signs: tuple[int, ...],
             chi_z2mu2: int) -> list[int]:
    """(N1, N_I, N_II + N_III, N_IV) by their closed forms in the signs, then
    the total of that vector in `TABLE_IV_ROWS`, NOT_ADMISSIBLE where it is
    not a row there; all 0 for b = 0.  The oracle for `CASE_TABLE`."""
    if b_zero:
        return [0, 0, 0, 0, 0]
    s1, s2, s3, s4, s5 = signs
    n_ii_iii = 2 if s4 == 1 and s5 == 1 else int(s4 == 0 and chi_z2mu2 == 1)
    vector = (int(one_pm_u), int(s1 == 1 and s2 == 1), n_ii_iii, int(s1 == 1 and s3 == 1))
    return [*vector, TABLE_IV_ROWS.get(vector, NOT_ADMISSIBLE)]


def table_key(c: dict) -> tuple[int, int, int, int]:
    """The (N1, N_I, N_II + N_III, N_IV) vector of a `census` record: its
    row of `TABLE_IV_ROWS`."""
    return (c["n1"], c["case_i"], c["case_ii"] + c["case_iii"], c["case_iv"])


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------


def digits(ctx: FieldCtx, a) -> np.ndarray:
    """(..., n) int8: the base-3 digits of an index or index array,
    lowest degree first."""
    return (np.asarray(a, dtype=np.int64)[..., None] // 3**np.arange(ctx.n) % 3).astype(np.int8)


def value(d) -> np.ndarray:
    """The index of each row of base-3 digits, lowest degree first."""
    d = np.asarray(d, dtype=np.int64)
    return d @ 3**np.arange(d.shape[-1])


def digitwise(ctx: FieldCtx, a, b, sign: int = 1) -> np.ndarray:
    """a + sign b digit by digit mod 3, for index arrays (broadcast) or ints;
    int32, as every index is below 3^13."""
    a, b = np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32)
    out, weight = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int32), 1
    for _ in range(ctx.n):
        out += (a % 3 + sign * (b % 3)) % 3 * weight
        a, b, weight = a // 3, b // 3, weight * 3
    return out


def poly_mul_mod(ctx: FieldCtx, a, b) -> np.ndarray:
    """a b for (..., n) digit arrays (broadcast): the schoolbook product of
    the digit columns, reduced by long division by the monic modulus.  A
    product digit sums at most n terms below 5 before its mod, and the
    division takes at most n - 1 terms below 5 off a digit, so int8 is exact
    for every n up to 13."""
    n, modulus = ctx.n, ctx.modulus
    a, b = (np.moveaxis(np.asarray(v, dtype=np.int8), -1, 0) for v in (a, b))
    prod = np.zeros((2 * n - 1, *np.broadcast_shapes(a.shape[1:], b.shape[1:])), dtype=np.int8)
    for i, j in itertools.product(range(n), repeat=2):
        prod[i + j] += a[i] * b[j]
    prod %= 3
    for k in range(2 * n - 2, n - 1, -1):  # x^k = -x^(k - n) (modulus - x^n)
        lead = prod[k] % 3
        for i, m in enumerate(modulus[:-1]):
            if m:
                prod[k - n + i] -= m * lead
    return np.moveaxis(prod[:n] % 3, 0, -1)


def frobenius(ctx: FieldCtx) -> np.ndarray:
    """(n, n) int8 matrix of the GF(3)-linear map x -> x^3: row j holds the
    digits of (x^j)^3, by `poly_mul_mod`."""
    monomials = np.eye(ctx.n, dtype=np.int8)
    return poly_mul_mod(ctx, poly_mul_mod(ctx, monomials, monomials), monomials)


def mul(ctx: FieldCtx, a, b) -> np.ndarray:
    """a b for indices or index arrays (broadcast), by `poly_mul_mod` on
    their digits."""
    return value(poly_mul_mod(ctx, digits(ctx, a), digits(ctx, b)))


def add(ctx: FieldCtx, a: int, b: int) -> int:
    """a + b, one element of `digitwise`, as are `neg` and `sub`."""
    return int(digitwise(ctx, a, b))


def neg(ctx: FieldCtx, a: int) -> int:
    return int(digitwise(ctx, 0, a, -1))


def sub(ctx: FieldCtx, a: int, b: int) -> int:
    return int(digitwise(ctx, a, b, -1))


@functools.lru_cache(maxsize=2)
def sum_table(ctx: FieldCtx) -> np.ndarray:
    """(q, q) int32 x + a at [a, x], digit by digit, built a block of rows at a
    time; kept for the last two fields (19 MB at n = 7)."""
    xs = np.arange(ctx.q)
    out = np.empty((ctx.q, ctx.q), dtype=np.int32)
    for start in range(0, ctx.q, 243):
        out[start:start + 243] = digitwise(ctx, xs, xs[start:start + 243, None])
    return out


def random_irreducible(n: int, seed: int) -> str:
    """A seeded monic irreducible of degree n, as a digit string, lowest
    degree first."""
    rnd = random.Random(seed)
    while True:
        modulus = [rnd.randrange(3) for _ in range(n)] + [1]
        if irreducible_witness(modulus) is None:
            return "".join(map(str, modulus))


def smallest_irreducible(n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n in base-3 counter order."""
    for idx in range(3**n):
        cand = [idx // 3**i % 3 for i in range(n)] + [1]
        if irreducible_witness(cand) is None:
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {n} found")  # unreachable
