"""Mutant registry: each shortcut the library takes, a mutant of it, and the
oracle checks that must catch that mutant.

An entry names the library attribute, installs its mutant with
``monkeypatch`` and lists its checks, run on a fresh field of the entry's
degree n (a table built once per field must be built under the mutant).  A
check returns True when the library agrees with its oracle
(`tests/oracles.py`) or when a CLI command passes.  The test asserts that
every check fails under the mutant and passes without it, so a check that
stops looking at the shortcut fails here.  The mutants keep, as tests, the
kind of scratch-copy mutation that CHANGES.md reports for each shortcut (a
wrongly compiled proposition table; a DDT row read at the wrong a; a
rotation one step off; a Zech offset one step off; the cross half of the
row turned one slot, run at n = 9; a parity flipped; a
sign flipped in the fold of x**n; the zero-coefficient turn without its
h; the coefficient swap dropped; the other square root, -r; a giant step one
squaring too far; the first generator candidate taken without its
certificate; two product columns swapped; a case total off by one; two case
columns swapped; a plane sum one term wrong; a Zech difference without its
-1 or its zero test; the parity of Z- flipped in chi(g**m - 1); the two
lead rows of the pattern signs swapped; an expected count off by one; a
character dropped from a root test; chi(y + 1) read one column off in the
chi grid; a constant term built with the wrong sign; a case given the root
of another case's discriminant; a product without its zero test; an inverse
read at q - 1 - log a), so that they run on every change.  A mutant of a function or of a
table build rewrites one fragment of its source and runs it in the
function's module (`rewritten`), since a table is a local of its build.
A mutant of a table that the import compiles into another also installs
the other compiled from it, as the import would (`PATTERN_PRODUCTS`,
`PREDICTION_TABLE` and `CASE_TABLE` from `PATTERN_SIGNS`, `EXPECTED` from
`PREDICTION_TABLE` and `CASE_TABLE`).
"""

import inspect
import io
import random
import textwrap

import numpy as np
import pytest

import oracles
from nhspectrum import charsums, cli, field, ness
from nhspectrum import solution_census as cn
from nhspectrum.charsums import ScopedU
from nhspectrum.field import DEFAULT_FIELDS, FieldCtx, InconsistencyError, built_once, make_context
from sampling import sample_u0_nonf3


def _scope(ctx):
    """Every in-scope u, u outside GF(3) with chi(u + 1) != chi(u - 1), by the
    digit-wise adder (`oracles.add`, `oracles.sub`): the library's scalar
    adder shares `_minus` with the kernels that some mutants here break."""
    return [ScopedU(ctx, u) for u in range(3, ctx.q)
            if ctx.chi(oracles.add(ctx, u, 1)) != ctx.chi(oracles.sub(ctx, u, 1))]


# ---------------------------------------------------------------------------
# oracle checks
# ---------------------------------------------------------------------------


def predictions_follow_rules(ctx) -> bool:
    """`prediction_by_z` at every z equals the rule interpreter at (1, z)."""
    return all(oracles.in_element_order(ctx, cn.prediction_by_z(su)).tolist()
               == [oracles.matching_conditions(su, 1, z)[0][0] for z in range(ctx.q)]
               for su in _scope(ctx))


def row_gives_every_row(ctx) -> bool:
    """delta(a, b) = ddt_row at the slot of a b for every a != 0 and b,
    against the counted q x q table.  A row build that indexes past the end
    of a table gives no row, which is a mismatch too."""
    zs = np.arange(ctx.q)
    for su in _scope(ctx):
        try:
            row = oracles.in_element_order(ctx, ness.ddt_row(ctx, su.u))
        except IndexError:
            return False
        table = oracles.ddt_table(ctx, su.u)
        if any((table[a] != row[oracles.mul_vec(ctx, a, zs)]).any() for a in range(1, ctx.q)):
            return False
    return True


def zero_coefficient_rows_match_table(ctx) -> bool:
    """`ddt_row` at u = 1 and u = 2, where f_u vanishes on a parity class,
    equals the row a = 1 of the counted table."""
    return all(np.array_equal(oracles.in_element_order(ctx, ness.ddt_row(ctx, u)),
                              oracles.ddt_table(ctx, u)[1]) for u in (1, 2))


def ddt_row_matches_polynomials(ctx) -> bool:
    """`ddt_row` at u = 0, 1, 2 and two seeded in-scope u, read in element
    order, equals the row counted from f_u by polynomial arithmetic
    (`oracles.row_by_polynomials`), with no closed form in between."""
    return all(np.array_equal(oracles.in_element_order(ctx, ness.ddt_row(ctx, u)),
                              oracles.row_by_polynomials(ctx, u))
               for u in (0, 1, 2, *sample_u0_nonf3(ctx, 2, seed=ctx.n)))


def square_roots_match_polynomials(ctx) -> bool:
    """`sqrt_canonical` at every element that is not a nonsquare equals the
    root a**((q + 1) / 4) of `oracles.square_root`."""
    roots = oracles.square_root(ctx, np.arange(ctx.q)).tolist()
    return all(ctx.sqrt_canonical(a) == roots[a] for a in range(ctx.q) if ctx.chi(a) != -1)


def scoped_roots_match_polynomials(ctx) -> bool:
    """`ScopedU.r` equals `oracles.root` at every in-scope u."""
    return all(su.r == oracles.root(ctx, su.u) for su in _scope(ctx))


def same_row_matches_counts(ctx) -> bool:
    """The same-parity row of `_zech` equals both rows counted per parity
    (`oracles.same_parity_counts`) and sums to (q + 1) / 4."""
    same = ctx._zech[3]
    return (np.array_equal(oracles.same_parity_counts(ctx), np.stack([same, same]))
            and int(same.sum()) == (ctx.q + 1) // 4)


def census_matches_case_counts(ctx) -> bool:
    """The five counts of `census` equal `oracles.case_counts` at 100 seeded
    pairs of every in-scope u.  A census that raises on an inadmissible case
    vector gives no counts, which is a mismatch too."""
    rng = random.Random(5)
    for su in _scope(ctx):
        for _ in range(100):
            a, b = rng.randrange(1, ctx.q), rng.randrange(ctx.q)
            counts = oracles.case_counts(ctx, su.u, a, b)
            try:
                c = cn.census(su, a, b)
            except InconsistencyError:
                return False
            if {key: c[key] for key in counts} != counts:
                return False
    return True


def pattern_signs_match_g_values(ctx) -> bool:
    """`PATTERN_SIGNS` at the lead of u, read at `chi_pattern` of the points
    of A, equals chi of z and of `g_values` at every z.  The lead and the
    points come from the digit-wise adder (`oracles.points_of_a`), as r in
    `g_values` does, so the check sees the pattern kernel and the sign
    table, not the scalar adder."""
    zs = np.arange(ctx.q)
    for su in _scope(ctx):
        lead = int(ctx.chi(oracles.add(ctx, su.u, 1)) == -1)
        pattern = ctx.chi_pattern(oracles.points_of_a(ctx, su.u))
        signs = charsums.PATTERN_SIGNS[lead][oracles.in_element_order(ctx, pattern)]
        values = np.stack([zs, *(oracles.g_values(su, gid) for gid in charsums.G_IDS)], axis=1)
        if not np.array_equal(signs, ctx.chi_vec(values)):
            return False
    return True


def antilog_steps_match_polynomials(ctx) -> bool:
    """The log build certifies the field, and alog[k + 1] = alog[k] g by the
    schoolbook product at every k < q - 1, the last step closing the cycle
    at alog[0]."""
    try:
        alog = ctx._log_tables[1]
    except InconsistencyError:
        return False
    ks = np.arange(ctx.q - 1)
    return np.array_equal(oracles.mul(ctx, alog[ks], ctx.generator), alog[(ks + 1) % (ctx.q - 1)])


def scalar_products_match_polynomials(ctx) -> bool:
    """Scalar `mul` equals the schoolbook product (`oracles.mul`) at every
    pair, 0 included.  A log build that fails its certificate gives no
    product, which is a mismatch too."""
    zs = np.arange(ctx.q)
    try:
        return ([[ctx.mul(a, b) for b in range(ctx.q)] for a in range(ctx.q)]
                == oracles.mul(ctx, zs[:, None], zs).tolist())
    except InconsistencyError:
        return False


def inverses_match_polynomials(ctx) -> bool:
    """a times scalar `inv(a)` is 1 by the schoolbook product at every a != 0,
    1 included."""
    zs = np.arange(1, ctx.q)
    return bool((oracles.mul(ctx, zs, [ctx.inv(a) for a in zs]) == 1).all())


def searched_generator_is_tabled(ctx) -> bool:
    """The search on the tabled modulus of n, passed explicitly, returns the
    tabled generator."""
    modulus, generator = DEFAULT_FIELDS[ctx.n]
    return make_context(ctx.n, modulus).generator == generator


def searched_field_certifies(ctx) -> bool:
    """The first `mul` of the field searched on the tabled modulus of n
    passes the log build's certificate."""
    try:
        make_context(ctx.n, DEFAULT_FIELDS[ctx.n][0]).mul(3, 3)
    except InconsistencyError:
        return False
    return True


def product_sums_match_field_products(ctx) -> bool:
    """Every column of `product_sums` equals chi of the g_i it selects,
    multiplied in the field (`oracles.g_product_sum`)."""
    subsets = [[gid for gid in charsums.G_IDS if m >> (gid - 1) & 1] for m in range(32)]
    return all(int(su.product_sums[m]) == oracles.g_product_sum(su, subsets[m])
               for su in _scope(ctx) for m in range(1, 32))


def case_rows_match_polynomials(ctx) -> bool:
    """`CASE_TABLE` at the lead of u and the pattern of z, but the total,
    equals the case rows counted from f_u (`oracles.case_rows_by_polynomials`)
    at every z, for every in-scope u."""
    return all(np.array_equal(
        oracles.case_columns(oracles.case_rows_by_polynomials(ctx, su.u)),
        cn.CASE_TABLE[su.lead][oracles.in_element_order(ctx, su.pattern), :4])
        for su in _scope(ctx))


def case_table_matches_closed_forms(ctx) -> bool:
    """`CASE_TABLE` at every (lead, pattern) equals `oracles.case_row`."""
    return all(cn.CASE_TABLE[entry].tolist() == oracles.case_row(**inputs)
               for entry, inputs in oracles.entry_inputs())


def expected_follows_tables(ctx) -> bool:
    """`EXPECTED` equals `PREDICTION_TABLE` at every entry where that equals
    the `CASE_TABLE` total, and is negative at every other entry."""
    prediction, total = cn.PREDICTION_TABLE, cn.CASE_TABLE[..., cn.CASE_COLUMNS.index("total")]
    agree = prediction == total
    return (np.array_equal(cn.EXPECTED[agree], prediction[agree])
            and bool((cn.EXPECTED[~agree] < 0).all()))


def scalar_adder_matches_digitwise(ctx) -> bool:
    """Scalar `add` and `sub`, and `sub` from 0, equal the digit-wise oracle at every pair."""
    zs = np.arange(ctx.q)
    return ([ctx.sub(0, a) for a in range(ctx.q)] == oracles.digitwise(ctx, 0, zs, -1).tolist()
            and [[ctx.add(a, b) for b in range(ctx.q)] for a in range(ctx.q)]
            == oracles.digitwise(ctx, zs[:, None], zs).tolist()
            and [[ctx.sub(a, b) for b in range(ctx.q)] for a in range(ctx.q)]
            == oracles.digitwise(ctx, zs[:, None], zs, -1).tolist())


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


def rewritten(owner, name: str, fragment: str, mutant: str):
    """The mutant that replaces the one `fragment` of the source of
    owner.name (a function, a method or a `built_once` table) by `mutant`."""

    def mutate(monkeypatch, ctx):
        attribute = inspect.getattr_static(owner, name)
        function = getattr(attribute, "func", attribute)
        source = textwrap.dedent(inspect.getsource(function))
        assert source.count(fragment) == 1, (name, fragment)
        namespace = {}
        exec(source.replace(fragment, mutant), vars(inspect.getmodule(function)), namespace)
        replacement = namespace[name]
        if isinstance(replacement, built_once):
            replacement.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, replacement)

    return mutate


def _commonest_entry(ctx) -> tuple[int, int]:
    """The commonest (lead, pattern) of a nonzero z (every slot but the last)
    in the scope of ctx."""
    codes = np.concatenate([su.pattern[:-1] + 243 * np.int64(su.lead) for su in _scope(ctx)])
    return divmod(int(np.bincount(codes).argmax()), 243)


def install_census_tables(monkeypatch, prediction, cases):
    """`PREDICTION_TABLE` and `CASE_TABLE`, and `EXPECTED` compiled from them."""
    monkeypatch.setattr(cn, "PREDICTION_TABLE", prediction)
    monkeypatch.setattr(cn, "CASE_TABLE", cases)
    monkeypatch.setattr(cn, "EXPECTED", cn._expected(prediction, cases))


def install_pattern_signs(monkeypatch, signs):
    """`PATTERN_SIGNS`, and `PATTERN_PRODUCTS` and the census tables compiled
    from it."""
    for module in (charsums, cn):
        monkeypatch.setattr(module, "PATTERN_SIGNS", signs)
    monkeypatch.setattr(charsums, "PATTERN_PRODUCTS", charsums._pattern_products(signs))
    install_census_tables(monkeypatch, *cn._compile_conditions(signs))


def shift_one_prediction(monkeypatch, ctx):
    """`PREDICTION_TABLE` off by one at the commonest (lead, pattern), as the
    compiled table would be if one rule or its compilation were wrong."""
    entry = _commonest_entry(ctx)
    wrong = cn.PREDICTION_TABLE.copy()
    wrong[entry] = (wrong[entry] + 1) % 5
    install_census_tables(monkeypatch, wrong, cn.CASE_TABLE)


def shift_one_total(monkeypatch, ctx):
    """The `CASE_TABLE` total one too large at the commonest (lead, pattern)."""
    wrong = cn.CASE_TABLE.copy()
    wrong[(*_commonest_entry(ctx), -1)] += 1
    install_census_tables(monkeypatch, cn.PREDICTION_TABLE, wrong)


def swap_case_columns(monkeypatch, ctx):
    """The N_I and N_IV columns of `CASE_TABLE` swapped: every total, and so
    `EXPECTED`, stays as it is."""
    wrong = cn.CASE_TABLE.copy()
    wrong[..., [1, 3]] = wrong[..., [3, 1]]
    install_census_tables(monkeypatch, cn.PREDICTION_TABLE, wrong)


def shift_one_expected(monkeypatch, ctx):
    """`EXPECTED` off by one at the commonest (lead, pattern), as the table
    would be if its compilation from the other two were wrong."""
    entry = _commonest_entry(ctx)
    wrong = cn.EXPECTED.copy()
    wrong[entry] = (wrong[entry] + 1) % 5
    monkeypatch.setattr(cn, "EXPECTED", wrong)


def swap_gamma3_column(monkeypatch, ctx):
    """`PATTERN_PRODUCTS` columns 9 (g1 g4, the product of gamma3) and 10
    (g2 g4) swapped."""
    wrong = charsums.PATTERN_PRODUCTS.copy()
    wrong[:, [9, 10]] = wrong[:, [10, 9]]
    monkeypatch.setattr(charsums, "PATTERN_PRODUCTS", wrong)


def swap_lead_rows(monkeypatch, ctx):
    """`PATTERN_SIGNS` with its two lead rows swapped, so that the signs of
    g1 and g5 are flipped at every u."""
    install_pattern_signs(monkeypatch, charsums.PATTERN_SIGNS[::-1].copy())


def count_row_g(monkeypatch, ctx):
    """`ddt_row` counts the row a = g in place of a = 1: delta(g, b) =
    delta(1, g b), the row one slot further on."""
    ddt_row = ness.ddt_row

    def row_at_generator(ctx, u):
        row = ddt_row(ctx, u).copy()
        row[:-1] = np.roll(row[:-1], -1)
        return row

    monkeypatch.setattr(ness, "ddt_row", row_at_generator)


# attribute: (mutant, n, checks that must catch it)
MUTANTS = {
    "solution_census.PREDICTION_TABLE": (
        shift_one_prediction, 3,
        (predictions_follow_rules, command_passes("census"),
         command_passes("verify-propositions")),
    ),
    # delta(a, b) = delta(1, a b): one counted row stands for the whole DDT
    "ness.ddt_row": (
        count_row_g, 3,
        (row_gives_every_row, command_passes("verify-propositions")),
    ),
    # chi(z - g^j) + 1 = D+-[k - j] at z = g^k: one slice per point in log
    # order, here read one slot off (C[k - j - 1]) for every point a != 0
    "FieldCtx.chi_pattern": (
        rewritten(FieldCtx, "chi_pattern", "[j & 1, q - 1 - j:2 * q - 2 - j]",
                  "[j & 1, q - 2 - j:2 * q - 3 - j]"), 3,
        (pattern_signs_match_g_values, product_sums_match_field_products),
    ),
    # the cross group (k odd, Z+(k) even) reads its offset h - Z+(k) one step off
    "FieldCtx._zech": (
        rewritten(FieldCtx, "_zech", "cross_e = d + h", "cross_e = d + h + 1"), 3,
        (row_gives_every_row, command_passes("verify-theorem")),
    ),
    # every cross x, whose parity differs from that of x + 1, has its
    # difference one slot further on: the cross half of the row turned by one
    "FieldCtx._zech.cross": (
        rewritten(FieldCtx, "_zech", "cross_e -= k", "cross_e -= k - 1"), 9,
        (ddt_row_matches_polynomials,),
    ),
    # the x with chi(x) = chi(x + 1) give same[v] = Z-(v) mod 2 at odd v: read
    # with the parity flipped, as if chi(g**v) = -1 were left out of the proof
    "FieldCtx._zech.same": (
        rewritten(FieldCtx, "_zech", "minus[1::2] & 1", "~minus[1::2] & 1"), 3,
        (same_row_matches_counts, row_gives_every_row),
    ),
    # f vanishes on the nonsquares (u = 1, and u = 2 once swapped): each cross
    # x differs by -f(x) or f(x + 1), here without the h of -1 = g**h
    "FieldCtx.difference_row": (
        rewritten(FieldCtx, "difference_row", "(logs[0] + h) % n_logs", "logs[0]"), 3,
        (zero_coefficient_rows_match_table,),
    ),
    # the row is symmetric in its two coefficients (f_{-u}(-x) = -f_u(x)), so
    # a zero c_square is swapped into c_nonsquare: here it is not
    "FieldCtx.difference_row.swap": (
        rewritten(FieldCtx, "difference_row", "if not c_square:", "if False:"), 3,
        (zero_coefficient_rows_match_table, ddt_row_matches_polynomials),
    ),
    # a**((q + 1) / 4) is the root with chi = 1, as q = 3 (mod 4): here the
    # other root, -r
    "FieldCtx.sqrt_canonical": (
        rewritten(FieldCtx, "sqrt_canonical", "else self.pow(a, (self.q + 1) // 4)",
                  "else self.sub(0, self.pow(a, (self.q + 1) // 4))"), 3,
        (square_roots_match_polynomials, scoped_roots_match_polynomials,
         command_passes("verify-lemmas")),
    ),
    # giant steps multiply by c = g^S, whose matrix the doubling leaves: one
    # squaring too many builds the table for g^(2S).  Every n has R >= 2
    # giant rows, so the smallest field runs them.
    "FieldCtx._log_build": (
        rewritten(FieldCtx, "_log_build", "self._times_table(mat, weights)",
                  "self._times_table(mat @ mat % P, weights)"), 3,
        (antilog_steps_match_polynomials,),
    ),
    # a table read at e - 1 by turning the digit-0 columns, for Z-, so for C,
    # the Zech tables and the scalar adder: turned the wrong way, so read at
    # e + 1.  Z-(h) then reads log 0 (-1 + 1 = 0), and the Zech build
    # indexes past its tables.
    "field._neighbour": (
        rewritten(field, "_neighbour", "out[1:] = table[:-1]\n    out[::P] = table[P - 1::P]",
                  "out[:-1] = table[1:]\n    out[P - 1::P] = table[::P]"), 3,
        (pattern_signs_match_g_values, row_gives_every_row),
    ),
    # row j + 1 of the matrix of a is row j times x, its top digit folded back
    # in as x**n = -(the modulus less x**n): folded in with the sign flipped
    "FieldCtx._mul_matrix": (
        rewritten(FieldCtx, "_mul_matrix", "top = [(-d) % P", "top = [d % P"), 3,
        (antilog_steps_match_polynomials,),
    ),
    # the generator search takes the first g = 3, 4, ... whose log build passes
    # the certificate: here the first candidate, without it, 3 in place of 5
    # on the n = 7 modulus, and the field builds the tables of 3 on first use
    "FieldCtx._find_generator": (
        rewritten(FieldCtx, "_find_generator",
                  'if tables is not None:\n            self.__dict__["_log_tables"] = tables\n',
                  "if True:\n"), 7,
        (searched_generator_is_tabled, searched_field_certifies),
    ),
    # chi(prod g_i) = prod chi(g_i): one table column per product of the g family
    "charsums.PATTERN_PRODUCTS": (
        swap_gamma3_column, 3,
        (product_sums_match_field_products, command_passes("verify-theorem")),
    ),
    # the signs depend on z through the five chi(z - a) and on u through
    # chi(u+1), the leads of g1 and g5: one sign vector per lead and pattern
    "charsums.PATTERN_SIGNS": (
        swap_lead_rows, 3,
        (pattern_signs_match_g_values, product_sums_match_field_products),
    ),
    # the case counts and their total compiled from closed forms in the signs
    "solution_census.CASE_TABLE": (
        shift_one_total, 3,
        (case_table_matches_closed_forms, command_passes("verify-propositions")),
    ),
    # each case count has its own closed form; swapped columns keep every
    # total, so only the census, which checks each column at z, sees them
    "solution_census.CASE_TABLE.columns": (
        swap_case_columns, 3,
        (case_table_matches_closed_forms, case_rows_match_polynomials, command_passes("census")),
    ),
    # x = a y: a pair enters the case quadratic only through z = a b, and its
    # root test through chi(a); here chi(a) is dropped from the test.  At
    # chi(a) = -1 that swaps the counts of cases II and III (y -> -1 - y
    # maps the roots of one onto the other) and keeps every total, so only
    # the per-case oracle sees it.
    "solution_census.census": (
        rewritten(cn, "census", "chi_a * t_a, chi_a * t_0", "t_a, t_0"), 3,
        (census_matches_case_counts,),
    ),
    # the monic case I, y^2 + y + (w + u w), with the t_0 u w term of its
    # constant C built with the wrong sign: discriminant 1 - w + u w
    "solution_census.census.C": (
        rewritten(cn, "census", "(1, ctx.sqrt_canonical(ctx.sub(one_w, uw)))",
                  "(1, ctx.sqrt_canonical(ctx.add(one_w, uw)))"), 3,
        (census_matches_case_counts, command_passes("census")),
    ),
    # cases II and III share the root s of g4(z) / z^2: here case III takes
    # the root of the case I discriminant 1 - w - u w instead.  (Case III
    # built with the B = 1 + u w of case II gives the same counts, so it is
    # no mutant: its true roots are -1 - y for the roots y of case II, and
    # the sign test of case III holds at y exactly when it holds at -1 - y.)
    "solution_census.census.II_III": (
        rewritten(cn, "census", "(ctx.sub(1, uw), s_ii_iii)",
                  "(ctx.sub(1, uw), ctx.sqrt_canonical(ctx.sub(one_w, uw)))"), 3,
        (census_matches_case_counts, command_passes("census")),
    ),
    # y + 1 differs from y in digit 0 alone, so chi(y + 1) is column (y + 1)
    # mod 3 of the row of y in the chi grid: here column (y - 1) mod 3, chi(y - 1)
    "solution_census._desired_roots": (
        rewritten(cn, "_desired_roots", "(y + 1) % 3", "(y - 1) % 3"), 3,
        (census_matches_case_counts,),
    ),
    # the prediction and the case total compared with the DDT in one gather
    "solution_census.EXPECTED": (
        shift_one_expected, 3,
        (expected_follows_tables, command_passes("verify-propositions")),
    ),
    # the plane sum with b1 dropped from t: wrong where digit i of b is 1 and
    # that of a is 0 or 1, yet every plane pair stays a valid element.  The
    # giant steps of the log build are plane sums, and the scalar sums are
    # not: Zech addition reads only the inverse tables log and alog, so it
    # stays right under a wrong log order.
    "FieldCtx._plane_sum": (
        rewritten(FieldCtx, "_plane_sum", "t = (a1 | b2) ^ (a2 | b1)\n",
                  "t = (a1 | b2) ^ a2\n"), 3,
        (scalar_products_match_polynomials, antilog_steps_match_polynomials),
    ),
    # a - b = -a (g**k - 1): without the h term, -1 = g**h, it is a (g**k - 1)
    "FieldCtx._sub_turned": (
        rewritten(FieldCtx, "_sub_turned", "(j + h + self._minus.item(k))",
                  "(j + self._minus.item(k))"), 3,
        (scalar_adder_matches_digitwise,),
    ),
    # a - a has k = 0: without its test it reads the sentinel Z-(0) = 2N
    "FieldCtx._sub_turned.zero": (
        rewritten(FieldCtx, "_sub_turned", "if not k:\n        return 0\n    return",
                  "return"), 3,
        (scalar_adder_matches_digitwise,),
    ),
    # C[m] = chi(g**m - 1) = (-1)**Z-(m): read with the parity flipped
    "FieldCtx._chi_columns": (
        rewritten(FieldCtx, "_chi_columns", "1 - 2 * (self._minus & 1)",
                  "2 * (self._minus & 1) - 1"), 3,
        (pattern_signs_match_g_values,),
    ),
    # zero has the last slot of the log order, log 0 = q - 1 = 0 mod q - 1,
    # so a product of logs alone reads 0 b as b: the zero test dropped
    "FieldCtx.mul": (
        rewritten(FieldCtx, "mul", "if a <= 0 or b <= 0:", "if False:"), 3,
        (scalar_products_match_polynomials,),
    ),
    # 1 / g^k = g^(-k mod q - 1): read at q - 1 - k, inv(1) lands on the
    # zero slot alog[q - 1]
    "FieldCtx.inv": (
        rewritten(FieldCtx, "inv", "-log.item(_checked_index(a)) % (self.q - 1)",
                  "self.q - 1 - log.item(_checked_index(a))"), 3,
        (inverses_match_polynomials,),
    ),
}


@pytest.mark.parametrize("attribute, check", [
    pytest.param(attribute, check, id=f"{attribute}-{check.__name__}")
    for attribute, (_, _, checks) in MUTANTS.items() for check in checks
])
def test_mutant_is_caught(monkeypatch, attribute, check):
    mutate, n, _ = MUTANTS[attribute]
    with monkeypatch.context() as patch:
        ctx = make_context(n)
        mutate(patch, ctx)
        assert not check(ctx), f"{check.__name__} misses the mutant of {attribute}"
    assert check(make_context(n)), f"{check.__name__} fails on the library as it is"


def test_cross_mutant_changes_the_n11_row(monkeypatch):
    """The mutant of the cross half of `_zech` shows in the n = 11 row too:
    it differs from the row counted from f_u at an in-scope u."""
    mutate, _, _ = MUTANTS["FieldCtx._zech.cross"]
    ctx = make_context(11)
    mutate(monkeypatch, ctx)
    (u,) = sample_u0_nonf3(ctx, 1, seed=11)
    row = oracles.in_element_order(ctx, ness.ddt_row(ctx, u))
    assert not np.array_equal(row, oracles.row_by_polynomials(ctx, u))
