"""Field-layer checks: construction, axioms, character, canonical roots."""

import functools
import io
import itertools
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from nhspectrum import cli, field
from nhspectrum.field import (
    DEFAULT_FIELDS,
    FieldCtx,
    InconsistencyError,
    ReducibleModulusError,
    irreducible_witness,
    make_context,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _norm_chi(ctx):
    """chi of every element, in element order, as the norm x^((q-1)/2) of
    the oracles' shared powers."""
    return oracles.powers(ctx)[2]


def _euclid_inverse(ctx, a):
    """Extended Euclid over GF(3)[x]; returns the inverse element index."""

    def trim(p):
        p = list(p)
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_poly(num, den):
        num, den = trim(num), trim(den)
        quot = [0] * max(1, len(num) - len(den) + 1)
        inv_lead = 1 if den[-1] == 1 else 2
        while len(num) >= len(den) and num:
            shift = len(num) - len(den)
            factor = (num[-1] * inv_lead) % 3
            quot[shift] = factor
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - factor * d) % 3
            num = trim(num)
        return quot, num

    def mul(pa, pb):
        out = [0] * (len(pa) + len(pb) - 1 or 1)
        for i, x in enumerate(pa):
            for j, y in enumerate(pb):
                out[i + j] = (out[i + j] + x * y) % 3
        return trim(out)

    def sub(pa, pb):
        width = max(len(pa), len(pb))
        pa = pa + [0] * (width - len(pa))
        pb = pb + [0] * (width - len(pb))
        return trim([(x - y) % 3 for x, y in zip(pa, pb)])

    r0, r1 = list(ctx.modulus), trim(oracles.digits(ctx, a).tolist())
    s0, s1 = [], [1]
    while r1:
        q, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(q, s1))
    # r0 is the gcd, a nonzero constant; scale s0 by its inverse (1 or 2)
    assert len(r0) == 1
    scale = 1 if r0[0] == 1 else 2
    inv = [(c * scale) % 3 for c in s0]
    inv += [0] * (ctx.n - len(inv))
    return int(oracles.value(inv[: ctx.n]))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_default_modulus_n3_is_smallest_irreducible(f3):
    assert f3.modulus_str == "1201"  # x^3 + 2x + 1
    # every earlier candidate in counter order has a factor
    for idx in range(7):
        digits = [(idx // 3**i) % 3 for i in range(3)] + [1]
        assert irreducible_witness(digits) is not None, digits
    assert irreducible_witness([1, 2, 0, 1]) is None


def test_x_cubed_plus_x_rejected_with_root_factor():
    with pytest.raises(ReducibleModulusError) as excinfo:
        make_context(3, "0101")  # x^3 + x, divisible by x
    assert excinfo.value.factor_str == "01"


def test_reducible_modulus_rejected_with_factor():
    bad = "111001"  # x^5 + x^2 + x + 1, vanishes at x = 2
    with pytest.raises(ReducibleModulusError):
        make_context(5, bad)


def test_even_and_out_of_range_n_rejected():
    with pytest.raises(ValueError):
        make_context(4)
    with pytest.raises(ValueError):
        make_context(1)
    with pytest.raises(ValueError):
        make_context(15)


def test_non_monic_or_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError):
        make_context(3, "1202")  # leading digit 2
    with pytest.raises(ValueError):
        make_context(3, "12011")  # degree 4


def test_n5_context_size(f5):
    assert f5.q == 243
    assert len({f5.format_element(a) for a in range(f5.q)}) == 243


def test_smallest_irreducible_has_no_witness():
    for n in (3, 5, 7):
        assert irreducible_witness(list(oracles.smallest_irreducible(n))) is None


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_default_fields_are_the_searched_fields(n):
    """The tabled modulus is the first irreducible in counter order, the tabled
    generator is what the search finds for that modulus passed explicitly,
    and both contexts build the same log tables."""
    modulus, generator = DEFAULT_FIELDS[n]
    assert modulus == "".join(map(str, oracles.smallest_irreducible(n)))
    tabled, searched = make_context(n), make_context(n, modulus)
    assert tabled.modulus == searched.modulus
    assert tabled.generator == searched.generator == generator
    for mine, theirs in zip(tabled._log_tables, searched._log_tables):
        assert np.array_equal(mine, theirs)


# (modulus, generator) for seeded irreducible moduli at n = 5, 7 and 9, each g
# in 3..7 at least once, recorded from a search that multiplied polynomials
SEARCHED_GENERATORS = [
    ("100021", 3), ("122201", 4), ("200011", 5), ("201221", 6), ("102221", 7),
    ("10001111", 3), ("20111101", 4), ("21101221", 5), ("20200211", 6),
    ("1011201101", 3), ("2221211221", 5), ("2212122221", 6), ("1002000011", 7),
]


@pytest.mark.parametrize("modulus, generator", SEARCHED_GENERATORS)
def test_searched_generator_is_pinned(modulus, generator):
    """The matrix-power search returns the recorded smallest primitive element."""
    assert make_context(len(modulus) - 1, modulus).generator == generator


@pytest.mark.parametrize("modulus", [modulus for modulus, _ in SEARCHED_GENERATORS])
def test_searched_field_log_order_is_one_permutation(modulus):
    """On a searched field too, log and alog are inverse tables of q entries
    with zero in the last slot."""
    _check_log_layout(make_context(len(modulus) - 1, modulus))


def _patched_generator(monkeypatch, n):
    """A --modulus field (not the tabled one) whose generator search returns 2."""
    monkeypatch.setattr(FieldCtx, "_find_generator", lambda self: 2)
    return make_context(n, oracles.random_irreducible(n, seed=n))


def _patched_table_reducible(monkeypatch, n):
    """The tabled field of n with its modulus replaced by x^n + x, divisible by x."""
    monkeypatch.setitem(DEFAULT_FIELDS, n, ("01" + "0" * (n - 2) + "1", DEFAULT_FIELDS[n][1]))
    ctx = make_context(n)
    assert irreducible_witness(list(ctx.modulus)) == [0, 1]
    return ctx


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("patch", [_patched_generator, _patched_table_reducible],
                         ids=["generator-2", "reducible-table-modulus"])
def test_log_build_certifies_the_field(monkeypatch, patch, n):
    """g = 2 has order 2 and a reducible modulus has fewer than q - 1 units:
    either way the powers of g miss a nonzero element and the first mul raises."""
    ctx = patch(monkeypatch, n)
    with pytest.raises(InconsistencyError, match="the powers of the generator miss"):
        ctx.mul(3, 3)


def test_default_field_set_up_does_no_search(monkeypatch):
    counts = {"witness": 0, "generator": 0}
    witness, find_generator = field.irreducible_witness, FieldCtx._find_generator

    def counted_witness(poly):
        counts["witness"] += 1
        return witness(poly)

    def counted_generator(self):
        counts["generator"] += 1
        return find_generator(self)

    monkeypatch.setattr(field, "irreducible_witness", counted_witness)
    monkeypatch.setattr(FieldCtx, "_find_generator", counted_generator)
    for n in (3, 7, 9):
        cli.resolve_u(make_context(n), "all")
        cli.resolve_u(make_context(n), "sample:3:1")
    assert counts == {"witness": 0, "generator": 0}
    make_context(5, DEFAULT_FIELDS[5][0])
    assert counts == {"witness": 1, "generator": 1}


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_mul_monomial_reduction(f3):
    x = f3.parse_element("010")
    x2 = f3.parse_element("001")
    assert f3.mul(x, x2) == f3.parse_element("210")  # x^3 = x + 2


def test_additive_structure_exhaustive(f3):
    """The Zech sums against the digit-wise oracle at every pair."""
    for a in range(f3.q):
        assert f3.add(a, f3.sub(0, a)) == 0
        assert f3.add(a, 0) == a
        assert f3.sub(a, a) == 0
        assert f3.sub(0, a) == oracles.neg(f3, a)
        for b in range(f3.q):
            assert f3.add(a, b) == oracles.add(f3, a, b)
            assert f3.sub(a, b) == oracles.sub(f3, a, b)


def test_mul_identity_and_inverses_exhaustive(f3):
    for a in range(f3.q):
        assert f3.mul(a, 1) == a
        assert f3.mul(a, 0) == 0
        if a:
            assert f3.mul(a, f3.inv(a)) == 1


def test_inv_of_constants(f5):
    assert f5.inv(1) == 1
    assert f5.inv(2) == 2  # 2 * 2 = 4 = 1


def test_inv_zero_rejected(f3):
    with pytest.raises(ZeroDivisionError):
        f3.inv(0)


def test_inv_matches_extended_euclid(f3, f5, f7):
    rng = random.Random(7)
    for ctx in (f3, f5, f7):
        for _ in range(25):
            a = rng.randrange(1, ctx.q)
            assert ctx.inv(a) == _euclid_inverse(ctx, a)
            assert ctx.inv(a) == ctx.pow(a, ctx.q - 2)


def test_mul_matches_schoolbook_oracle(f5):
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randrange(f5.q)
        b = rng.randrange(f5.q)
        assert f5.mul(a, b) == oracles.mul(f5, a, b)


def test_field_axioms_random(f5, f7):
    rng = random.Random(3)
    for ctx in (f5, f7):
        for _ in range(500):
            a, b, c = (rng.randrange(ctx.q) for _ in range(3))
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@given(a=st.integers(0, 26), b=st.integers(0, 26), c=st.integers(0, 26))
@settings(max_examples=200, deadline=None)
def test_axioms_hypothesis_n3(a, b, c):
    ctx = _HYPO_CTX
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.add(a, ctx.add(b, c)) == ctx.add(ctx.add(a, b), c)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


_HYPO_CTX = make_context(3)


# ---------------------------------------------------------------------------
# pow / chi / sqrt
# ---------------------------------------------------------------------------


def test_pow_conventions(f3):
    assert f3.pow(0, 0) == 1
    assert f3.pow(0, f3.q - 2) == 0
    assert f3.pow(5, 1) == 5


def test_pow_lagrange_and_frobenius(f3, f5, f7):
    rng = random.Random(13)
    for ctx in (f3, f5, f7):
        for _ in range(50):
            a = rng.randrange(1, ctx.q)
            assert ctx.pow(a, ctx.q - 1) == 1
            assert ctx.pow(a, ctx.q) == a


def test_generator_is_nonsquare(f3, f5, f7):
    for ctx in (f3, f5, f7):
        assert ctx.pow(ctx.generator, (ctx.q - 1) // 2) == 2  # the element -1


def test_chi_basics(f3, f5, f7):
    for ctx in (f3, f5, f7):
        assert ctx.chi(0) == 0
        assert ctx.chi(1) == 1
        assert ctx.chi(ctx.sub(0, 1)) == -1  # n odd
        rng = random.Random(17)
        for _ in range(50):
            a = rng.randrange(1, ctx.q)
            assert ctx.chi(ctx.mul(a, a)) == 1


def test_chi_multiplicative_exhaustive_n3(f3):
    for a in range(1, f3.q):
        for b in range(1, f3.q):
            assert f3.chi(f3.mul(a, b)) == f3.chi(a) * f3.chi(b)


def test_chi_square_count_and_balance(f3, f5):
    for ctx in (f3, f5):
        values = [ctx.chi(a) for a in range(ctx.q)]
        assert values.count(1) == (ctx.q - 1) // 2
        assert values.count(-1) == (ctx.q - 1) // 2
        assert sum(values) == 0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_sqrt_canonical_matches_root_oracle(n):
    """At every square and at 0, the root of `oracles.square_root`, whose
    square is the element by the schoolbook product (chi by the norm)."""
    ctx = make_context(n)
    zs = np.arange(ctx.q)
    roots, has_root = oracles.square_root(ctx, zs), oracles.powers(ctx)[2] != -1
    assert roots[0] == 0
    assert np.array_equal(oracles.mul(ctx, roots, roots)[has_root], zs[has_root])
    assert [ctx.sqrt_canonical(a) for a in zs[has_root].tolist()] == roots[has_root].tolist()


def test_sqrt_canonical_of_one(f5):
    assert f5.sqrt_canonical(1) == 1


def test_sqrt_canonical_rejects_nonsquares(f3, f5, f7):
    """None at every nonsquare, chi by the norm, and at no other element."""
    for ctx in (f3, f5, f7):
        nonsquares = oracles.powers(ctx)[2] == -1
        assert [ctx.sqrt_canonical(a) is None for a in range(ctx.q)] == nonsquares.tolist()


# ---------------------------------------------------------------------------
# enumeration, text format, vector layer
# ---------------------------------------------------------------------------


def test_elements_enumeration(f3, f5):
    """range(q) is the field in base-3 counter order: 0, 1, 2 are zero, one
    and minus one, and every index has its own digit vector."""
    for ctx in (f3, f5):
        assert ctx.add(1, 2) == 0 and ctx.sub(0, 1) == 2 and ctx.mul(2, 2) == 1
        digits = {tuple(field._idx_digits(a, ctx.n)) for a in range(ctx.q)}
        assert len(digits) == ctx.q
        assert all(oracles.value(d) == a
                   for a, d in enumerate(field._idx_digits(a, ctx.n) for a in range(ctx.q)))


def test_text_roundtrip(f3):
    a = f3.parse_element("120")
    assert field._idx_digits(a, 3) == [1, 2, 0]
    assert f3.format_element(a) == "120"
    for a in range(f3.q):
        assert f3.parse_element(f3.format_element(a)) == a


def test_parse_rejects_garbage(f3):
    with pytest.raises(ValueError):
        f3.parse_element("13")
    with pytest.raises(ValueError):
        f3.parse_element("")
    with pytest.raises(ValueError):
        f3.parse_element("1201")  # too many digits for n=3


def test_vector_ops_match_scalar_exhaustive_n3(f3):
    """The scalar ops against the digit-wise addition oracle, the schoolbook
    product, extended Euclid and the norm at every operand, each operand a
    plain int, numpy scalar or 0-d array and each result a Python int
    (records go through `json.dumps`, which rejects numpy ints); then the
    character kernel, and `add` at a numpy scalar against the digit-wise
    sum of every element."""
    q = f3.q
    elems = np.arange(q)

    powers = [np.ones(q, dtype=np.int64)]  # a**e at [e, a] for e < 2q, by the schoolbook product
    while len(powers) < 2 * q:
        powers.append(oracles.mul(f3, powers[-1], elems))
    powers = np.array(powers).T.tolist()
    slots = {z: k for k, z in enumerate(powers[f3.generator][:q - 1])} | {0: q - 1}
    norm = _norm_chi(f3).tolist()
    pairs = [(a, b) for a in range(q) for b in range(q)]
    left, right = np.array(pairs).T
    cases = {
        "add": (f3.add, pairs, oracles.digitwise(f3, left, right).tolist()),
        "sub": (f3.sub, pairs, oracles.digitwise(f3, left, right, -1).tolist()),
        "mul": (f3.mul, pairs, oracles.mul(f3, left, right).tolist()),
        "inv": (f3.inv, [(a,) for a in range(1, q)],
                [_euclid_inverse(f3, a) for a in range(1, q)]),
        "pow": (f3.pow, [(a, e) for a in range(q) for e in range(2 * q)],
                [powers[a][e] for a in range(q) for e in range(2 * q)]),
        "chi": (f3.chi, [(a,) for a in range(q)], norm),
        "slot": (f3.slot, [(z,) for z in range(q)], [slots[z] for z in range(q)]),
    }
    for name, (op, operands, expected) in cases.items():
        for kind in (int, np.int64, np.asarray):
            results = [op(*map(kind, args)) for args in operands]
            assert results == expected, (name, kind)
            assert all(type(result) is int for result in results), (name, kind)
    assert f3.chi_vec(elems).tolist() == norm
    for a in range(q):
        for x in (a, np.int64(a), np.asarray(a)):
            assert np.shape(f3.chi_vec(x)) == () and int(f3.chi_vec(x)) == norm[a]
    for c in range(q):
        for const in (c, np.int64(c)):
            sums = oracles.digitwise(f3, elems, c).tolist()
            assert [f3.add(z, const) for z in range(q)] == sums, c


def _check_vector_ops_random(ctx):
    rng = np.random.default_rng(23)
    A = rng.integers(0, ctx.q, size=1000)
    B = rng.integers(0, ctx.q, size=1000)
    A[:3] = B[3:6] = 0  # zero on each side
    pairs = [(int(a), int(b)) for a, b in zip(A, B)]
    assert [ctx.sub(a, b) for a, b in pairs] == oracles.digitwise(ctx, A, B, -1).tolist()
    assert [ctx.add(a, b) for a, b in pairs] == oracles.digitwise(ctx, A, B).tolist()
    assert [ctx.sub(0, a) for a, _ in pairs] == oracles.digitwise(ctx, 0, A, -1).tolist()
    b7 = int(B[7])
    assert ctx.chi_vec(A).tolist() == _norm_chi(ctx)[A].tolist()
    for c in (0, 1, 2, b7, ctx.q - 1):
        sums = oracles.digitwise(ctx, A, c).tolist()
        assert [ctx.add(a, c) for a, _ in pairs] == sums, c


def test_vector_ops_match_scalar_random_n5(f5):
    _check_vector_ops_random(f5)


def test_vector_ops_match_scalar_random_n7(f7):
    _check_vector_ops_random(f7)


def test_mul_log_path_agrees_with_poly_path(f3):
    for a in range(f3.q):
        for b in range(f3.q):
            assert f3.mul(a, b) == oracles.mul(f3, a, b)


def _check_log_layout(ctx):
    """log and alog are inverse int32 tables of q entries, zero in the last
    slot: log[0] == q - 1 and alog[q - 1] == 0."""
    q = ctx.q
    log, alog = ctx._log_tables
    assert log.dtype == alog.dtype == np.int32
    assert len(log) == len(alog) == q and alog.nbytes == 4 * q
    assert int(log[0]) == q - 1 and int(alog[q - 1]) == 0
    assert np.array_equal(log[alog], np.arange(q))


def _check_log_steps(ctx, ks):
    """alog[k + 1] == alog[k] * g by the polynomial oracle for every k in ks,
    k < q - 1, the step from k = q - 2 closing the cycle at alog[0] == 1,
    then the layout of both tables."""
    q = ctx.q
    alog = ctx._log_tables[1]
    ks = np.array(ks)
    assert int(alog[0]) == 1
    assert oracles.mul(ctx, alog[ks], ctx.generator).tolist() == alog[(ks + 1) % (q - 1)].tolist()
    _check_log_layout(ctx)


def _baby_giant(n: int) -> tuple[int, int]:
    """(S, R) of the log build, worked out here from n: S the largest power
    of two not above 3^(ceil(n/2) + 1) and R = ceil((q - 1) / S)."""
    baby = 1
    while 2 * baby <= 3**((n + 1) // 2 + 1):
        baby *= 2
    return baby, -(-(3**n - 1) // baby)


@pytest.mark.parametrize("n, modulus", [
    (3, None), (5, None), (7, None), (9, None), (5, oracles.random_irreducible(5, seed=2024)),
    (7, oracles.random_irreducible(7, seed=2024)),
], ids=["n3", "n5", "n7", "n9", "n5-random-modulus", "n7-random-modulus"])
def test_log_tables_by_doubling_match_oracle(n, modulus):
    """Every step of the cycle: at n = 3, 5, 7 and 9 that spans 2, 4, 18 and
    39 giant rows."""
    ctx = make_context(n, modulus)
    _check_log_steps(ctx, range(ctx.q - 1))


@pytest.mark.parametrize("n", [11, 13])
def test_log_tables_giant_steps_match_oracle(n):
    """Every block boundary k = i S - 1 of the R giant rows, the wrap at
    k = q - 2 and 64 seeded k, with S and R from `_baby_giant`."""
    q = 3**n
    baby, giant = _baby_giant(n)
    ks = {i * baby - 1 for i in range(1, giant)} | {q - 2}
    ks |= set(random.Random(n).sample(range(q - 1), 64))
    _check_log_steps(make_context(n), sorted(ks))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_log_build_forms_one_matrix(monkeypatch, n):
    """A default-field log build forms the multiplication matrix of g alone,
    and hands the giant steps the matrix of c = g^S that its doubling
    leaves: row j holds the digits of c x^j by the schoolbook product.
    Every n has R >= 2 giant rows, so every n runs the giant steps."""
    baby, giant = _baby_giant(n)
    assert giant >= 2
    made, giant_steps = [], []
    mul_matrix, times_table = FieldCtx._mul_matrix, FieldCtx._times_table

    def counted_mul_matrix(self, digits):
        made.append(list(digits))
        return mul_matrix(self, digits)

    def counted_times_table(self, c_mat, weights):
        giant_steps.append(c_mat.tolist())
        return times_table(self, c_mat, weights)

    monkeypatch.setattr(FieldCtx, "_mul_matrix", counted_mul_matrix)
    monkeypatch.setattr(FieldCtx, "_times_table", counted_times_table)
    ctx = make_context(n)
    ctx._log_tables
    c = oracles.digits(ctx, ctx.pow(ctx.generator, baby))
    assert made == [oracles.digits(ctx, ctx.generator).tolist()]
    monomials = np.eye(n, dtype=np.int8)
    assert giant_steps == [oracles.poly_mul_mod(ctx, c, monomials).tolist()]


@pytest.mark.parametrize("n, modulus", [
    (3, None), (5, None), (7, None), (5, oracles.random_irreducible(5, seed=2025)),
], ids=["n3", "n5", "n7", "n5-random-modulus"])
def test_times_table_matches_schoolbook_products(n, modulus):
    """`_times_table` of the matrix of c is the int32 table of c z by the
    schoolbook product at every z, for c = 1, 2, the generator, the giant
    multiplier g^S and seeded c; its plane sums read `_plane_value`, the
    element of each ones plane."""
    ctx = make_context(n, modulus)
    q, value = ctx.q, ctx._plane_value
    assert value.dtype == np.int32 and len(value) == 2**n
    assert value.tolist() == [sum(3**i for i in range(n) if m >> i & 1) for m in range(2**n)]
    weights = 3**np.arange(n, dtype=np.int32)
    rnd = random.Random(n)
    for c in (1, 2, ctx.generator, ctx.pow(ctx.generator, _baby_giant(n)[0]),
              *rnd.sample(range(3, q), 3)):
        table = ctx._times_table(ctx._mul_matrix(oracles.digits(ctx, c).tolist()), weights)
        assert table.dtype == np.int32
        assert table.tolist() == oracles.mul(ctx, c, np.arange(q)).tolist(), c


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_mul_vec_zero_mask_edges(n):
    """The oracles' vector product (`oracles.mul_vec`), which masks zero
    itself, at zero and at the largest log sum; `g_values` and `char_sum`
    multiply by z = 0."""
    ctx = make_context(n)
    mul_vec = functools.partial(oracles.mul_vec, ctx)
    q = ctx.q
    g_last = ctx.pow(ctx.generator, q - 2)  # log q - 2, the largest: logs sum to 2q - 4
    xs = np.array([0, 1, 2, ctx.generator, g_last, q - 1], dtype=np.int64)
    zeros = np.zeros_like(xs)
    assert not mul_vec(zeros, xs).any()
    assert not mul_vec(xs, zeros).any()
    assert int(mul_vec(np.int64(0), np.int64(0))) == 0
    assert not mul_vec(np.int64(0), np.arange(q)).any()
    expected = oracles.mul(ctx, g_last, g_last)
    assert int(mul_vec(np.int64(g_last), np.int64(g_last))) == expected
    assert mul_vec(xs, xs).tolist() == [ctx.mul(int(x), int(x)) for x in xs]


def test_pair_add_table_consistency(f3):
    pair = f3.pair_add_table()
    assert pair is not None and pair.dtype == np.int32
    elems = np.arange(f3.q)
    assert pair.tolist() == oracles.digitwise(f3, elems[:, None], elems).tolist()


def test_context_determinism():
    a = make_context(5)
    b = make_context(5)
    assert a.modulus == b.modulus
    assert a.generator == b.generator


# ---------------------------------------------------------------------------
# tables: first touch, concurrent first touch, other moduli
# ---------------------------------------------------------------------------

LOG_ORDER_FIELDS = [(3, None), (5, None), (7, None),
                    (5, oracles.random_irreducible(5, seed=2026))]
LOG_ORDER_IDS = ["n3", "n5", "n7", "n5-random-modulus"]


@pytest.mark.parametrize("n, modulus", LOG_ORDER_FIELDS, ids=LOG_ORDER_IDS)
def test_derived_log_tables_match_scalar_ops(n, modulus):
    """`_chi_columns` holds D+ = C + 1 and D- = 1 - C, C[m] = chi(g^m - 1)
    for m < q - 1, each twice over; `chi_pattern` of one point a is
    chi(z - a) + 1 in log order, z = 0 last, for every a at n = 3 and for 0,
    1, 2 and seeded a above; `slot` and `element_at` map every element to
    its log-order slot and back."""
    ctx = make_context(n, modulus)
    q, columns = ctx.q, ctx._chi_columns
    powers = [ctx.pow(ctx.generator, k) for k in range(q - 1)]
    c = [ctx.chi(ctx.sub(z, 1)) for z in powers]
    assert columns.dtype == np.uint8 and columns.shape == (2, 2 * q - 2)
    assert columns[0].tolist() == [x + 1 for x in c + c]
    assert columns[1].tolist() == [1 - x for x in c + c]

    rnd = random.Random(n)
    points = range(q) if n == 3 else [0, 1, 2, *rnd.sample(range(3, q), 8)]
    for a in points:
        column = ctx.chi_pattern([a])
        assert column.dtype == np.uint8
        assert column.tolist() == [ctx.chi(ctx.sub(z, a)) + 1 for z in [*powers, 0]], a
    slot = {z: k for k, z in enumerate(powers)} | {0: q - 1}
    assert [ctx.slot(x) for x in range(q)] == [slot[x] for x in range(q)]
    assert [ctx.element_at(k) for k in range(q)] == [*powers, 0]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_slot_and_element_at_are_inverse(n):
    """`element_at` undoes `slot` over every element and `slot` undoes
    `element_at` over every slot of range(q); a slot from q on raises, as
    the log order has no slot past zero's, and so does a negative argument
    to either."""
    ctx = make_context(n)
    q = ctx.q
    assert [ctx.element_at(ctx.slot(z)) for z in range(q)] == list(range(q))
    assert [ctx.slot(ctx.element_at(k)) for k in range(q)] == list(range(q))
    assert ctx.slot(0) == q - 1 and ctx.element_at(q - 1) == 0
    for slot in (q, q + 1, 2 * q - 3, 10**9):
        with pytest.raises(IndexError):
            ctx.element_at(slot)
    for index in (-1, -q):
        with pytest.raises(IndexError):
            ctx.element_at(index)
        with pytest.raises(IndexError):
            ctx.slot(index)


@pytest.mark.parametrize("n, modulus", LOG_ORDER_FIELDS, ids=LOG_ORDER_IDS)
def test_chi_pattern_matches_digitwise_characters(n, modulus):
    """`chi_pattern(points)` is the sum over i of 3^i (chi(z - a_i) + 1) at
    every z in log order, z - a_i by the digit-wise oracle: 200 seeded
    5-tuples and their prefixes at n = 3, 20 5-tuples above, each point drawn
    from the field or from 0 and the points before it."""
    ctx = make_context(n, modulus)
    q = ctx.q
    zs = np.array([ctx.element_at(k) for k in range(q)])
    rnd = random.Random(2026 + n + (modulus is not None))
    tuples = []
    for _ in range(200 if n == 3 else 20):
        points = []
        for _ in range(5):
            points.append(rnd.randrange(q) if rnd.random() < 0.6 else rnd.choice([0, *points]))
        tuples.append(points)
    assert any(0 in points for points in tuples)
    assert any(len(set(points)) < 5 for points in tuples)
    if n == 3:
        tuples += [points[:k] for points in tuples for k in range(1, 5)]
    digits = {}
    for points in tuples:
        for a in points:
            if a not in digits:
                digits[a] = (ctx.chi_vec(oracles.digitwise(ctx, zs, a, -1)) + 1).tolist()
        expected = [sum(3**i * digits[a][k] for i, a in enumerate(points)) for k in range(q)]
        pattern = ctx.chi_pattern(points)
        assert pattern.dtype == np.uint8 and pattern.tolist() == expected, points


@pytest.mark.parametrize("n, modulus", LOG_ORDER_FIELDS, ids=LOG_ORDER_IDS)
def test_neighbour_reads_minus_one(n, modulus):
    """`_neighbour`, the columns of a (q / 3, 3) grid turned one place,
    reads a table in element order at e - 1 by the digit-wise oracle, for
    every e."""
    ctx = make_context(n, modulus)
    elems = np.arange(ctx.q)
    assert field._neighbour(elems).tolist() == oracles.digitwise(ctx, elems, 1, -1).tolist()


def _difference_counts(ctx, c_square, c_nonsquare):
    """Count of x with f(x + 1) - f(x) = z, in element order, for f(x) =
    c x^d2 = c / x on the digit route of the oracles: c is c_square where
    the norm gives chi(x) = 1 and c_nonsquare elsewhere (x^d2 is 0 at 0)."""
    _, d2, chi = oracles.powers(ctx)
    c = oracles.digits(ctx, np.where(chi == 1, c_square, c_nonsquare))
    return oracles.difference_counts(ctx, oracles.value(oracles.poly_mul_mod(ctx, c, d2)))


@pytest.mark.parametrize("n, modulus", [
    (3, None), (5, None), (7, None), (9, None), (5, oracles.random_irreducible(5, seed=2027)),
], ids=["n3", "n5", "n7", "n9", "n5-random-modulus"])
def test_difference_row_matches_scalar_count(n, modulus):
    """`difference_row(c1, c2)` counts f(x + 1) - f(x) for f(x) = c/x, c = c1
    at squares and c2 at nonsquares: every pair with one c nonzero at n = 3
    (c = 0 is the zero-coefficient branch, and c1 = c2 puts x = 0 and x = -1
    in one slot), and seeded pairs with 0, 1, 2 and the largest log q - 2
    among the c above."""
    ctx = make_context(n, modulus)
    q = ctx.q
    if n == 3:
        pairs = [(c1, c2) for c1 in range(q) for c2 in range(q) if c1 or c2]
    else:
        rnd = random.Random(n)
        cs = [0, 1, 2, ctx.pow(ctx.generator, q - 2), *rnd.sample(range(3, q), 3)]
        pairs = [(c1, c2) for c1 in cs for c2 in cs if c1 or c2]
    slots = oracles.in_element_order(ctx, np.arange(q))  # the slot of every z
    for c1, c2 in pairs:
        row = ctx.difference_row(c1, c2)
        assert row.dtype == np.int32
        assert np.array_equal(row[slots], _difference_counts(ctx, c1, c2)), (c1, c2)


FIRST_CALLS = {
    "pair_add_table": lambda ctx: ctx.pair_add_table(),
    "digit_table": lambda ctx: ctx.digit_table(),
    "add": lambda ctx: ctx.add(5, 7),
    "sub": lambda ctx: ctx.sub(5, 7),
    "chi": lambda ctx: ctx.chi(5),
    "mul": lambda ctx: ctx.mul(5, 7),
    "chi_vec": lambda ctx: ctx.chi_vec(np.arange(ctx.q)),
    "difference_row": lambda ctx: ctx.difference_row(5, 7),
    "chi_pattern": lambda ctx: ctx.chi_pattern([0, 5, 7]),
}


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_first_call_on_fresh_context_returns(name):
    ctx = make_context(3)
    result = []
    worker = threading.Thread(target=lambda: result.append(FIRST_CALLS[name](ctx)), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), f"{name}() on a fresh context did not return in 10 s"
    assert len(result) == 1 and result[0] is not None


def test_concurrent_first_touch_builds_identical_tables():
    ctx = make_context(5)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def touch(i):
        barrier.wait(timeout=10)
        elems = np.arange(ctx.q)
        results[i] = (ctx.pair_add_table(), ctx.digit_table(), ctx.chi_vec(elems),
                      [ctx.mul(a, 7) for a in range(ctx.q)], ctx.difference_row(5, 7),
                      ctx.chi_pattern([0, 5, 7]),
                      [ctx.sub(a, ctx.q - 1 - a) for a in range(ctx.q)],
                      [ctx.add(a, 7) for a in range(ctx.q)])

    workers = [threading.Thread(target=touch, args=(i,), daemon=True) for i in range(4)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(w.is_alive() for w in workers)
    first = results[0]
    for other in results[1:]:
        for mine, theirs in zip(other, first):
            assert np.array_equal(mine, theirs)
    pair, _, _, _, row, _, subs, scalar_adds = first
    elems = np.arange(ctx.q)
    assert pair[:, 7].tolist() == scalar_adds == oracles.digitwise(ctx, elems, 7).tolist()
    assert subs == oracles.digitwise(ctx, elems, ctx.q - 1 - elems, -1).tolist()
    assert np.array_equal(oracles.in_element_order(ctx, row), _difference_counts(ctx, 5, 7))


def test_tables_are_read_only(f3):
    tables = (f3.digit_table(), f3.pair_add_table(), *f3._log_tables, f3.chi_table,
              f3._plane_value, f3._minus, f3._chi_columns, *f3._zech)
    for table in tables:
        with pytest.raises(ValueError):
            table[(1,) * table.ndim] = 0


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_setup_builds_only_log_and_character_tables(n):
    """The set-up of every command, `make_context` and `resolve_u`, keeps
    the log tables, the character table and the 2^n plane values of the
    giant steps and nothing else: no Zech table and no bit planes of the
    whole field.  tracemalloc puts what it keeps at no more than 11.5 q
    bytes from n = 7 on (8 q for the log pair, q for the character)."""
    tracemalloc.start()
    try:
        ctx = make_context(n)
        constructed = set(ctx.__dict__)
        cli.resolve_u(ctx, "sample:2:1")
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert set(ctx.__dict__) - constructed == {"_log_tables", "chi_table", "_plane_value"}
    assert len(ctx._plane_value) == 2**n
    if n >= 7:
        assert resident <= 11.5 * ctx.q, resident / ctx.q


def test_production_paths_never_build_the_digit_table(monkeypatch):
    """Every command runs with `digit_table` and `pair_add_table` raising."""
    def forbidden(self):
        raise AssertionError("a production path built a probe-only table")

    monkeypatch.setattr(FieldCtx, "digit_table", forbidden)
    monkeypatch.setattr(FieldCtx, "pair_add_table", forbidden)
    for command in cli.COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        config = cli.RunConfig(n=5, modulus=None, u_spec="sample:2:1", command=command,
                               output_format="json", seed=0, jobs=1)
        assert cli.run(config, out, err) == 0, (command, err.getvalue())
        assert out.getvalue()


@st.composite
def irreducible_moduli(draw):
    n = draw(st.sampled_from((3, 5)))
    low = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    assume(irreducible_witness(low + [1]) is None)
    return "".join(map(str, low + [1]))


@given(modulus=irreducible_moduli(), data=st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_ops_match_oracles_for_any_modulus(modulus, data):
    ctx = make_context(len(modulus) - 1, modulus)
    assert ctx.modulus_str == modulus
    elem = st.integers(0, ctx.q - 1)
    for _ in range(10):
        a, b = data.draw(elem), data.draw(elem)
        assert ctx.mul(a, b) == oracles.mul(ctx, a, b)
        if a:
            assert ctx.inv(a) == _euclid_inverse(ctx, a)
        assert ctx.chi(a) == int(ctx.chi_vec(a)) == _norm_chi(ctx)[a]
        # the Zech sums against the digit-wise oracle
        assert ctx.add(a, b) == oracles.add(ctx, a, b)
        assert ctx.sub(a, b) == oracles.sub(ctx, a, b)
        assert ctx.sub(0, a) == oracles.neg(ctx, a)
    elems = np.arange(ctx.q)
    assert [ctx.add(x, b) for x in range(ctx.q)] == oracles.digitwise(ctx, elems, b).tolist()
    assert [ctx.sub(x, b) for x in range(ctx.q)] == oracles.digitwise(ctx, elems, b, -1).tolist()
    assert ctx.chi_vec(elems).tolist() == _norm_chi(ctx).tolist()
