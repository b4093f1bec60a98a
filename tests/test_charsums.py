"""Character sums, the classifier family, the sign table and the identity suite."""

import itertools
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from sampling import sample_u0_nonf3
from nhspectrum import charsums as cs
from nhspectrum import ness
from nhspectrum.field import DEFAULT_FIELDS, make_context
from nhspectrum.spectrum import u0_nonf3_elements


def scope_us(ctx):
    return u0_nonf3_elements(ctx)


# ---------------------------------------------------------------------------
# generic sums and the degree-2 closed form
# ---------------------------------------------------------------------------


def test_char_sum_of_square(f3, f5):
    for ctx in (f3, f5):
        assert oracles.char_sum(ctx, [0, 0, 1]) == ctx.q - 1  # z^2


def test_char_sum_linear_balanced(f3, f5):
    for ctx in (f3, f5):
        assert oracles.char_sum(ctx, [0, 1]) == 0  # z


def test_char_sum_z2_plus_one(f3, f5):
    for ctx in (f3, f5):
        assert oracles.char_sum(ctx, [1, 0, 1]) == -1  # nonzero discriminant


def test_char_sum_matches_scalar_horner(f3):
    """Random coefficients with many zeros, constants and zero leading terms
    included, against chi of the polynomial evaluated one z at a time."""
    rng = random.Random(59)
    for degree in range(6):
        for _ in range(8):
            coeffs = [rng.choice((0, 0, rng.randrange(f3.q))) for _ in range(degree + 1)]
            if not any(coeffs):
                coeffs[rng.randrange(degree + 1)] = rng.randrange(1, f3.q)
            expected = 0
            for z in range(f3.q):
                value = 0
                for c in reversed(coeffs):
                    value = f3.add(f3.mul(value, z), c)
                expected += f3.chi(value)
            assert oracles.char_sum(f3, coeffs) == expected, coeffs


def test_char_sum_rejects_zero_poly(f3):
    with pytest.raises(ValueError):
        oracles.char_sum(f3, [0, 0, 0])


def test_quadratic_closed_form_cases(f3, f5):
    for ctx in (f3, f5):
        assert oracles.quadratic_char_sum(ctx, 1, 0, 0) == ctx.q - 1  # d = 0
        assert oracles.quadratic_char_sum(ctx, 1, 0, 1) == -1
    with pytest.raises(ValueError):
        oracles.quadratic_char_sum(f3, 0, 1, 1)


def test_quadratic_closed_form_exhaustive_n3(f3):
    for a2 in range(1, f3.q):
        for a1 in range(f3.q):
            for a0 in range(f3.q):
                assert oracles.quadratic_char_sum(f3, a2, a1, a0) == oracles.char_sum(
                    f3, [a0, a1, a2]
                )


def test_quadratic_closed_form_random_n5(f5):
    rng = random.Random(42)
    for _ in range(1000):
        a2 = rng.randrange(1, f5.q)
        a1 = rng.randrange(f5.q)
        a0 = rng.randrange(f5.q)
        assert oracles.quadratic_char_sum(f5, a2, a1, a0) == oracles.char_sum(f5, [a0, a1, a2])


def test_quadratic_closed_form_random_n7(f7):
    rng = random.Random(47)
    for _ in range(200):
        a2 = rng.randrange(1, f7.q)
        a1 = rng.randrange(f7.q)
        a0 = rng.randrange(f7.q)
        assert oracles.quadratic_char_sum(f7, a2, a1, a0) == oracles.char_sum(f7, [a0, a1, a2])


# ---------------------------------------------------------------------------
# scope, the g family and the set A
# ---------------------------------------------------------------------------


def test_scope_excludes_base_field(f3, f5):
    """ScopedU raises exactly where `classify_u` is not U0: at every u of
    GF(3), and at every u of class U10 or U11, for n = 3 and 5."""
    for u in (0, 1, 2):
        assert cs.classify_u(f3, u) == cs.CLASS_F3
    for ctx in (f3, f5):
        for u in range(ctx.q):
            if cs.classify_u(ctx, u) == cs.CLASS_U0:
                assert cs.ScopedU(ctx, u).u == u
            else:
                with pytest.raises(ValueError, match="outside GF"):
                    cs.ScopedU(ctx, u)


def test_classify_u_rejects_elements_outside_the_field(f5):
    """u outside range(q) is no element: at -5 numpy would read the character
    table from its end, and from q on past it."""
    for u in (-5, -1, f5.q, f5.q + 3):
        with pytest.raises(ValueError, match="out of range"):
            cs.classify_u(f5, u)


def test_scoped_u_rejects_elements_outside_the_field(f5):
    """ScopedU(ctx, -1) would otherwise read its characters at q - 1 and
    report the closed form of that element; an index from q on is refused
    by the same check, not by an IndexError, and neither is out of scope."""
    for u in (-1, f5.q, f5.q + 3):
        with pytest.raises(ValueError, match="out of range") as info:
            cs.ScopedU(f5, u)
        assert not isinstance(info.value, cs.OutOfScopeError), u


def test_scope_members_have_square_1_minus_u2(f3, f5):
    for ctx in (f3, f5):
        for u in scope_us(ctx):
            assert ctx.chi(ctx.sub(1, ctx.mul(u, u))) == 1
            r = cs.ScopedU(ctx, u).r
            assert ctx.mul(r, r) == ctx.sub(1, ctx.mul(u, u))
            assert ctx.chi(r) == 1


def test_lazy_fields_build_concurrently(monkeypatch, f5):
    """Two threads build `row` for two different u at once.  Each build waits
    for the other at a barrier, which breaks if a lock shared by all
    instances lets only one build run at a time."""
    barrier = threading.Barrier(2, timeout=5)
    original = ness.ddt_row

    def waiting(ctx, u):
        barrier.wait()
        return original(ctx, u)

    monkeypatch.setattr(ness, "ddt_row", waiting)
    sus = [cs.ScopedU(f5, u) for u in scope_us(f5)[:2]]
    with ThreadPoolExecutor(max_workers=2) as pool:
        built = list(pool.map(lambda su: su.row, sus))
    for su, row in zip(sus, built):
        assert su.row is row  # kept, not rebuilt
        assert np.array_equal(row, original(f5, su.u))


def test_g_eval_examples(f3):
    for u in scope_us(f3):
        su = cs.ScopedU(f3, u)
        assert oracles.g_eval(su, 1, 0) == 0
        assert oracles.g_eval(su, 2, f3.add(1, u)) == 0
        assert oracles.g_eval(su, 4, 0) == f3.mul(u, u)
        assert oracles.g_eval(su, 5, f3.sub(su.r, 1)) == 0


def test_g_values_match_scalar(f5):
    su = cs.ScopedU(f5, scope_us(f5)[0])
    for gid in cs.G_IDS:
        vec = oracles.g_values(su, gid)
        for z in range(0, f5.q, 11):
            assert int(vec[z]) == oracles.g_eval(su, gid, z)
            assert cs.PATTERN_SIGNS[su.lead, su.pattern[f5.slot(z)], gid] == f5.chi(int(vec[z]))


def test_sign_matrix_matches_scalar_signs(scope_cases):
    """`PATTERN_SIGNS` holds the signs of the factored g family at each lead
    and pattern, and the pattern, built from the zeros of the g family and
    decoded by it into (chi(z), chi(g1(z)), ..., chi(g5(z))), equals chi of z
    and of every g_i evaluated one z at a time."""
    assert cs.PATTERN_SIGNS.shape == (2, 243, 6) and cs.PATTERN_SIGNS.dtype == np.int8
    assert not cs.PATTERN_SIGNS.flags.writeable
    for lead, pattern in itertools.product(range(2), range(243)):
        assert tuple(cs.PATTERN_SIGNS[lead, pattern]) == oracles.entry_signs(lead, pattern)
    for ctx, us in scope_cases:
        for u in us:
            su = cs.ScopedU(ctx, u)
            assert su.pattern.shape == (ctx.q,) and su.pattern.dtype == np.uint8
            expected = np.array([(ctx.chi(z), *oracles.g_signs(su, z)) for z in range(ctx.q)])
            assert np.array_equal(oracles.signs_by_z(su), expected), (ctx.n, u)


def _assert_lead_identity(su):
    """chi(1+r) = -chi(1+u) with 1+u+r != 0, and `lead` is 1 exactly where
    chi(u+1) = -1."""
    ctx, u, r = su.ctx, su.u, su.r
    chi_u1 = ctx.chi(ctx.add(1, u))
    assert ctx.add(ctx.add(1, u), r) != 0, u
    assert ctx.chi(ctx.add(1, r)) == -chi_u1, u
    assert su.lead == (chi_u1 == -1), u


@pytest.mark.parametrize("n, modulus", [
    (3, None), (5, None), (7, None), (5, "220001"), (7, "22200001"),
])
def test_lead_identity_holds_in_scope(n, modulus):
    """(1+u)(1+r) = -(1+u+r)^2 in characteristic 3, so the leads of g1 and g5
    are (-chi(u+1), chi(u+1)): checked at every in-scope u."""
    ctx = make_context(n, modulus)
    for u in range(ctx.q):
        if cs.classify_u(ctx, u) == cs.CLASS_U0:
            _assert_lead_identity(cs.ScopedU(ctx, u))


def test_lead_identity_holds_sampled_n9():
    ctx = make_context(9)
    for u in sample_u0_nonf3(ctx, 500, seed=9):
        _assert_lead_identity(cs.ScopedU(ctx, u))


@pytest.mark.parametrize("n, modulus, generator, stride", [
    (5, "220001", 6, 1), (7, "22200001", 4, 97),
])
def test_rotation_tables_hold_for_a_supplied_modulus(n, modulus, generator, stride):
    """On a supplied modulus, where `_find_generator` picks g, the scope mask and
    the pattern, both read from rotations of chi(g^m - 1), equal the scalar
    scope rule at every u and the scalar signs at every z (every in-scope u at
    n = 5, every stride-th at n = 7)."""
    ctx = make_context(n, modulus)
    assert ctx.generator == generator != DEFAULT_FIELDS[n][1]
    scope = [u for u in range(ctx.q) if cs.classify_u(ctx, u) == cs.CLASS_U0]
    assert u0_nonf3_elements(ctx).tolist() == scope
    for u in scope[::stride]:
        su = cs.ScopedU(ctx, u)
        expected = np.array([(ctx.chi(z), *oracles.g_signs(su, z)) for z in range(ctx.q)])
        assert np.array_equal(oracles.signs_by_z(su), expected), u


def test_sign_matrix_sums_match_field_products(scope_cases):
    """Every product of the g family, read from `ScopedU.product_sums` (32
    Python ints: the 243-bin pattern histogram times the lead row of u in
    `PATTERN_PRODUCTS`), equals chi of the polynomials multiplied in the
    field; column m holds g_i for each set bit i - 1 of m, and the empty
    product, column 0, sums to q."""
    assert cs.PATTERN_PRODUCTS.shape == (2, 32, 243)
    assert cs.PATTERN_PRODUCTS.dtype == np.int8 and not cs.PATTERN_PRODUCTS.flags.writeable
    subsets = [gids for k in range(1, 6) for gids in itertools.combinations(cs.G_IDS, k)]
    assert len(subsets) == 31
    for ctx, us in scope_cases:
        for u in us:
            su = cs.ScopedU(ctx, u)
            sums = su.product_sums
            assert len(sums) == 32 and all(type(s) is int for s in sums) and sums[0] == ctx.q
            for gids in subsets:
                column = sum(2 ** (gid - 1) for gid in gids)
                assert sums[column] == oracles.g_product_sum(su, gids), gids
                assert su.product_sum(*gids) == sums[column], gids


def test_set_a_contains_all_g_roots(f3):
    """The five points of A are distinct, equal their digit-wise oracle
    (`oracles.points_of_a`, r by `oracles.root`), and each g_i vanishes
    exactly on the points `G_ZEROS` lists for it."""
    for u in scope_us(f3):
        su = cs.ScopedU(f3, u)
        points = su.points
        assert len(set(points)) == 5
        assert su.r == oracles.root(f3, u) and points == oracles.points_of_a(f3, u)
        for gid in cs.G_IDS:
            zeros = cs.G_ZEROS[gid]
            roots = {z for z in range(f3.q) if oracles.g_eval(su, gid, z) == 0}
            assert roots == {points[k] for k in zeros}, (u, gid, roots, points)


def test_phi_never_zero_and_sign_product(f3, f5):
    for ctx in (f3, f5):
        for u in scope_us(ctx):
            phi = ctx.add(1, cs.ScopedU(ctx, u).r)
            assert phi != 0
            assert ctx.chi(ctx.mul(ctx.add(u, 1), phi)) == -1


# ---------------------------------------------------------------------------
# the sign table on A
# ---------------------------------------------------------------------------


def test_table_a_first_row(f3):
    for u in scope_us(f3):
        assert oracles.table_a_chi(cs.ScopedU(f3, u))[0] == [0, 0, 0, 1, -1]


def test_table_a_matches_symbolic_entries(f3, f5):
    for ctx in (f3, f5):
        for u in scope_us(ctx):
            su = cs.ScopedU(ctx, u)
            assert oracles.table_a_chi(su) == oracles.table_a_expected(su), u


def test_table_a_spot_entries(f3):
    for u in scope_us(f3):
        grid = oracles.table_a_chi(cs.ScopedU(f3, u))
        assert grid[1][0] == -1  # g1 at 1+u
        assert grid[3][3] == 0  # g4 at -1+sqrt(1-u^2)


def test_product_expansion_over_a_vanishes(f3, f5):
    for ctx in (f3, f5):
        for u in scope_us(ctx):
            total = 0
            for row in oracles.table_a_chi(cs.ScopedU(ctx, u)):
                term = 1
                for v in row:
                    term *= 1 + v
                total += term
            assert total == 0


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


def test_identity_suite_all_pass_n3(f3):
    for u in scope_us(f3):
        reports = cs.section2_identities(cs.ScopedU(f3, u))
        assert len(reports) == 18
        assert all(rep["pass"] for rep in reports), [r for r in reports if not r["pass"]]


def test_identity_suite_all_pass_n5(f5):
    for u in scope_us(f5):
        assert all(rep["pass"] for rep in cs.section2_identities(cs.ScopedU(f5, u)))


def test_identity_fixed_values(f3):
    for u in scope_us(f3):
        by_name = {rep["identity"]: rep for rep in cs.section2_identities(cs.ScopedU(f3, u))}
        assert by_name["g1g2"]["lhs"] == -1
        assert by_name["g2g3"]["lhs"] == -2
        assert by_name["g1g4+g1g2g3"]["lhs"] == 0
        assert by_name["g2g3g4"]["lhs"] == -2


def test_g_product_sum_examples(f3):
    for u in scope_us(f3):
        su = cs.ScopedU(f3, u)
        assert oracles.g_product_sum(su, (2, 3)) == -2
        phi = f3.add(1, su.r)
        assert oracles.g_product_sum(su, (4, 5)) == -f3.chi(phi)
        assert oracles.g_product_sum(su, (2, 3, 4)) == -2


def test_identity_report_json_shape(f3):
    u = scope_us(f3)[0]
    rec = cs.section2_identities(cs.ScopedU(f3, u))[0]
    assert set(rec) == {"identity", "lhs", "rhs", "pass"}
    assert rec["pass"] is True


# ---------------------------------------------------------------------------
# side identities used by the omega proofs
# ---------------------------------------------------------------------------


def test_two_probe_values_have_opposite_signs(f3, f5):
    # chi(u^2 - 1 + r) != chi(u^2 - 1 - r), neither zero
    for ctx in (f3, f5):
        for u in scope_us(ctx):
            r = cs.ScopedU(ctx, u).r
            base = ctx.sub(ctx.mul(u, u), 1)
            left = ctx.chi(ctx.add(base, r))
            right = ctx.chi(ctx.sub(base, r))
            assert left != 0 and right != 0 and left != right


def test_odd_cubic_sum_vanishes(f3, f5):
    # sum_t chi(t (u^2 t^2 + 1 - u^2)) = 0 by antisymmetry under t -> -t
    for ctx in (f3, f5):
        for u in scope_us(ctx):
            u2 = ctx.mul(u, u)
            coeffs = [0, ctx.sub(1, u2), 0, u2]
            assert oracles.char_sum(ctx, coeffs) == 0
