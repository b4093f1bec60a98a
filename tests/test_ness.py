"""Function evaluation, DDT accumulation and the brute-force spectrum."""

import collections
import random

import numpy as np
import pytest

import oracles
from nhspectrum import ness
from nhspectrum.charsums import CLASS_U0, CLASS_U10, CLASS_U11, ScopedU, classify_u
from nhspectrum.field import make_context
from nhspectrum.solution_census import CASE_TABLE
from nhspectrum.spectrum import u0_nonf3_elements
from sampling import sample_u0_nonf3


def test_exponents_n3(f3):
    """d1 = 3 + 9 = 12 and d2 = 2 d1 + 1 = 25 = q - 2: the shared powers of
    the oracles are x^12 and x^25 at every x by `pow`, and chi(x) = x^13."""
    d1, d2, chi = oracles.powers(f3)
    assert oracles.value(d1).tolist() == [f3.pow(x, 12) for x in range(f3.q)]
    assert oracles.value(d2).tolist() == [f3.pow(x, 25) for x in range(f3.q)]
    assert chi.tolist() == [f3.chi(x) for x in range(f3.q)]


def test_f_at_zero_and_one(f3):
    for u in range(f3.q):
        assert oracles.f_values(f3, u)[0] == 0
        assert oracles.f_values(f3, u)[1] == f3.add(u, 1)


def test_derivative_endpoints(f3):
    for u in (5, 7):
        f = oracles.f_values(f3, u)
        for a in range(1, f3.q):
            assert oracles.derivative(f3, u, a, 0) == f[a]
            assert oracles.derivative(f3, u, a, f3.sub(0, a)) == f3.sub(0, f[f3.sub(0, a)])


def test_derivative_reflection(f3):
    rng = random.Random(31)
    for _ in range(100):
        u = rng.randrange(f3.q)
        a = rng.randrange(1, f3.q)
        x = rng.randrange(f3.q)
        lhs = oracles.derivative(f3, u, a, x)
        rhs = f3.sub(0, oracles.derivative(f3, u, f3.sub(0, a), f3.add(x, a)))
        assert lhs == rhs


def test_derivative_rejects_zero_direction(f3):
    with pytest.raises(ValueError):
        oracles.derivative(f3, 5, 0, 1)
    with pytest.raises(ValueError):
        oracles.ddt_entry_naive(f3, 5, 0, 1)


def test_ddt_row_sums_to_q(f3, f5):
    for ctx, u in ((f3, 7), (f5, 19)):
        assert int(ness.ddt_row(ctx, u).sum()) == ctx.q
        table = oracles.ddt_table(ctx, u)
        for a in (1, 2, ctx.q - 1):
            assert int(table[a].sum()) == ctx.q


@pytest.mark.parametrize("n, modulus", [
    *((n, None) for n in (3, 5, 7, 9, 11, 13)),
    (5, "220001"), (7, "22200001"), (7, oracles.random_irreducible(7, seed=7)),
], ids=["n3", "n5", "n7", "n9", "n11", "n13", "n5-220001", "n7-22200001", "n7-random-modulus"])
def test_same_parity_row_equals_its_counts(n, modulus):
    """The same-parity part of the DDT row, read off the parities of Z- in
    closed form, equals the two rows counted per parity, and sums to
    (q + 1) / 4."""
    ctx = make_context(n, modulus)
    same = ctx._zech[3]
    assert same.dtype == np.int8 and same.shape == (ctx.q - 1,)
    assert not same.flags.writeable
    assert np.array_equal(oracles.same_parity_counts(ctx), np.stack([same, same]))
    assert int(same.sum()) == (ctx.q + 1) // 4


def test_ddt_row_matches_naive_n3(f3):
    """delta(a, b) read from the row at a b, against the count over every x."""
    rng = random.Random(37)
    for u in (u0_nonf3_elements(f3)[0], 1, 0):
        row = ness.ddt_row(f3, u)
        for _ in range(40):
            a = rng.randrange(1, f3.q)
            b = rng.randrange(f3.q)
            assert int(row[f3.slot(f3.mul(a, b))]) == oracles.ddt_entry_naive(f3, u, a, b)


def _row_us(ctx, seed):
    """u = 0, 1, 2, two seeded in-scope u and the first U10 and U11 u of a
    seeded draw."""
    first = {}
    for u in random.Random(seed).sample(range(3, ctx.q), min(64, ctx.q - 3)):
        first.setdefault(classify_u(ctx, u), u)
    return [0, 1, 2, *sample_u0_nonf3(ctx, 2, seed), first[CLASS_U10], first[CLASS_U11]]


@pytest.mark.parametrize("n, modulus", [
    *((n, None) for n in (3, 5, 7, 9, 11)), (9, oracles.random_irreducible(9, seed=9)),
], ids=["n3", "n5", "n7", "n9", "n11", "n9-random-modulus"])
def test_ddt_row_matches_polynomials(n, modulus):
    """`ddt_row`, read in element order, is the row counted from f_u by the
    oracles' polynomial arithmetic: at the u of `_row_us` up to n = 9, and
    at one in-scope u at n = 11."""
    ctx = make_context(n, modulus)
    for u in sample_u0_nonf3(ctx, 1, seed=n) if n == 11 else _row_us(ctx, seed=n):
        row = oracles.in_element_order(ctx, ness.ddt_row(ctx, u))
        assert np.array_equal(row, oracles.row_by_polynomials(ctx, u)), u


@pytest.mark.parametrize("n, modulus", [
    *((n, None) for n in (3, 5, 7, 9, 11)), (9, oracles.random_irreducible(9, seed=9)),
], ids=["n3", "n5", "n7", "n9", "n11", "n9-random-modulus"])
def test_case_rows_match_case_table(n, modulus):
    """The five case rows at a = 1 counted from f_u sum to the row at every z,
    and their (N1, N_I, N_II + N_III, N_IV) is the `CASE_TABLE` entry of u's
    lead at the pattern of z: at the in-scope u of
    `test_ddt_row_matches_polynomials`."""
    ctx = make_context(n, modulus)
    us = sample_u0_nonf3(ctx, 1, seed=n) if n == 11 else _row_us(ctx, seed=n)
    for u in [u for u in us if classify_u(ctx, u) == CLASS_U0]:
        su = ScopedU(ctx, u)
        rows = oracles.case_rows_by_polynomials(ctx, u)
        assert np.array_equal(rows.sum(axis=0), oracles.row_by_polynomials(ctx, u)), u
        table = CASE_TABLE[su.lead][oracles.in_element_order(ctx, su.pattern), :4]
        assert np.array_equal(oracles.case_columns(rows), table), u


Bare = collections.namedtuple("Bare", "n q modulus")


@pytest.mark.parametrize("n", [3, 5])
def test_polynomial_oracles_read_only_the_modulus(n):
    """The f_u and DDT oracles and the arithmetic under them give the same
    arrays on a record of n, q and the modulus alone as on the field: they
    read no library op or table.  The shared powers are rebuilt from the
    record first."""
    ctx = make_context(n)
    bare = Bare(ctx.n, ctx.q, ctx.modulus)
    built = oracles.powers(ctx)
    del oracles._POWERS[n, ctx.modulus]
    for mine, theirs in zip(oracles.powers(bare), built):
        assert np.array_equal(mine, theirs)
    u, a, b = sample_u0_nonf3(ctx, 1, seed=n)[0], 5, 7
    for oracle, args in [(oracles.frobenius, ()), (oracles.sum_table, ()),
                         (oracles.f_values, (u,)), (oracles.row_by_polynomials, (u,)),
                         (oracles.ddt_table, (u,)), (oracles.derivative, (u, a, np.arange(ctx.q))),
                         (oracles.mul, (np.arange(ctx.q), a)), (oracles.add, (a, b))]:
        assert np.array_equal(oracle(bare, *args), oracle(ctx, *args)), oracle.__name__
    for b in range(ctx.q):
        assert oracles.case_counts(bare, u, a, b) == oracles.case_counts(ctx, u, a, b)
        assert oracles.ddt_entry_naive(bare, u, a, b) == oracles.ddt_entry_naive(ctx, u, a, b)


def test_ddt_table_matches_naive_rows_n3(f3):
    u = u0_nonf3_elements(f3)[1]
    table = oracles.ddt_table(f3, u)
    for a in (1, 5, 20):
        for b in range(f3.q):
            assert int(table[a, b]) == oracles.ddt_entry_naive(f3, u, a, b)


def test_ddt_zero_output_column_empty_in_scope(f3):
    for u in u0_nonf3_elements(f3):
        assert int(ness.ddt_row(f3, u)[f3.slot(0)]) == 0
        assert not oracles.ddt_table(f3, u)[1:, 0].any()


def test_special_point_hit_present(f3):
    # b = (1 + u chi(a)) / a picks up the x = 0 solution
    for u in u0_nonf3_elements(f3):
        row = ness.ddt_row(f3, u)
        for a in (1, 4, 9):
            chi_a = 1 if f3.chi(a) == 1 else 2
            b = f3.mul(f3.inv(a), f3.add(1, f3.mul(u, chi_a)))
            assert int(row[f3.slot(f3.mul(a, b))]) >= 1


def _lemma_us(f3, f5, f7):
    yield from ((f3, u) for u in range(f3.q))
    yield from ((f5, u) for u in range(f5.q))
    rng = random.Random(53)
    yield from ((f7, u) for u in rng.sample(range(f7.q), 4))


def test_one_row_expands_to_full_table(f3, f5, f7):
    """delta(a, b) = delta(1, a b): every u at n = 3 and 5 (GF(3), U10, U11
    and U0 alike), 4 seeded u at n = 7.

    The row read at a b must equal the full table at every (a, b), and the
    one-row spectrum the histogram of the full table.
    """
    products = {}
    for ctx, u in _lemma_us(f3, f5, f7):
        if ctx.n not in products:
            elems = np.arange(ctx.q)
            products[ctx.n] = oracles.mul_vec(ctx, elems[:, None], elems[None, :])
        row = ness.ddt_row(ctx, u)
        table = oracles.ddt_table(ctx, u)
        expanded = oracles.in_element_order(ctx, row)[products[ctx.n]]
        for a in range(1, ctx.q):
            assert np.array_equal(expanded[a], table[a]), (ctx.n, u, a)

        counts = np.bincount(table[1:].ravel())
        last = int(np.flatnonzero(counts)[-1])
        expected = [int(c) for c in counts[: last + 1]]
        assert ness.spectrum_bruteforce(ctx, row) == expected, (ctx.n, u)


def test_spectrum_counting_identities_every_u_n3(f3):
    for u in range(f3.q):
        spec = ness.spectrum_bruteforce(f3, ness.ddt_row(f3, u))
        assert oracles.counting_identities_hold(spec, f3.q)
        assert spec[-1] > 0


def test_spectrum_rows_divisible_in_scope(f3, f5):
    for ctx in (f3, f5):
        for u in u0_nonf3_elements(ctx)[:6]:
            spec = ness.spectrum_bruteforce(ctx, ness.ddt_row(ctx, u))
            for i, w in enumerate(spec):
                if i >= 1:
                    assert w % (ctx.q - 1) == 0


def test_uniformity_by_class_n3(f3):
    expected = {"U11": 2, "U10": 3, "U0_nonF3": 4}
    for u in range(f3.q):
        label = classify_u(f3, u)
        if label in expected:
            uniformity = oracles.uniformity(ness.spectrum_bruteforce(f3, ness.ddt_row(f3, u)))
            assert uniformity == expected[label], u


def test_example_spectrum_reachable_n3(f3):
    from nhspectrum.spectrum import closed_form_inputs

    spectra = set()
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        ins = closed_form_inputs(su)
        if tuple(ins.values()) == (0, -4, 4):
            spectra.add(tuple(ness.spectrum_bruteforce(f3, su.row)))
    assert spectra == {(286, 208, 156, 26, 26)}


def test_ddt_table_row_zero_excluded_from_spectrum(f3):
    u = 8
    table = oracles.ddt_table(f3, u)
    spec = ness.spectrum_bruteforce(f3, ness.ddt_row(f3, u))
    counts = np.bincount(table[1:].ravel())
    assert [int(c) for c in counts] == spec
