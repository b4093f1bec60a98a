"""Per-pair solution counting: special points, case quadratics in y = x / a,
predictions."""

import random

import numpy as np
import pytest

import oracles
from sampling import sample_u0_nonf3
from nhspectrum import solution_census as cn
from nhspectrum import ness
from nhspectrum.charsums import ScopedU
from nhspectrum.field import InconsistencyError, make_context
from nhspectrum.spectrum import u0_nonf3_elements


# ---------------------------------------------------------------------------
# the census against the counted oracle
# ---------------------------------------------------------------------------


def _five_counts(c):
    return {key: c[key] for key in ("n1", "case_i", "case_ii", "case_iii", "case_iv")}


def test_census_matches_case_counts_n3(f3):
    """Every pair of every in-scope u: the five counts of `census` equal the
    x counted and split by their signs (`test_census_exhaustive_n3` ties
    their total to the scalar DDT entry)."""
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        for a in range(1, f3.q):
            for b in range(f3.q):
                counts = oracles.case_counts(f3, u, a, b)
                assert _five_counts(cn.census(su, a, b)) == counts, (u, a, b)


@pytest.mark.parametrize("n, modulus, u_count, seed", [
    (5, None, 3, 61), (7, None, 2, 67), (7, "22200001", 2, 71), (9, None, 1, 73),
], ids=["n5", "n7", "n7-22200001", "n9"])
def test_census_matches_case_counts_sampled(n, modulus, u_count, seed):
    """200 seeded pairs of a few seeded u, on the default modulus and on a
    supplied one."""
    ctx = make_context(n, modulus)
    rng = random.Random(seed)
    for u in sample_u0_nonf3(ctx, u_count, seed):
        su = ScopedU(ctx, u)
        for _ in range(200):
            a, b = rng.randrange(1, ctx.q), rng.randrange(ctx.q)
            assert _five_counts(cn.census(su, a, b)) == oracles.case_counts(ctx, u, a, b), (u, a, b)


# ---------------------------------------------------------------------------
# special points {0, -a}: z = 1 +- u
# ---------------------------------------------------------------------------


def test_special_points_match_direct_check_all_u(f3):
    """For every u, not only in scope: x = 0 and x = -a solve the equation
    exactly when a b = 1 + u chi(a) and a b = 1 - u chi(a), so the count
    among them is [a b = 1 + u] + [a b = 1 - u], 2 at u = 0 and b = 1/a."""
    for u in range(f3.q):
        one_pm_u = (f3.add(1, u), f3.sub(1, u))
        for a in range(1, f3.q):
            plus, minus = (f3.add(1, f3.mul(u, sign % 3)) for sign in (f3.chi(a), -f3.chi(a)))
            ends = oracles.derivative(f3, u, a, [0, f3.sub(0, a)]).tolist()
            for b in range(f3.q):
                z = f3.mul(a, b)
                direct = [end == b for end in ends]
                assert direct == [z == plus, z == minus], (u, a, b)
                assert sum(direct) == sum(z == t for t in one_pm_u), (u, a, b)


def test_special_points_closed_form_cases(f3):
    """For an in-scope u and each a, N1 of `census` is 1 at the two b with
    a b = 1 + u or a b = 1 - u and 0 at every other b."""
    u = u0_nonf3_elements(f3)[0]
    su = ScopedU(f3, u)
    for a in (1, 5, 13):
        targets = {f3.mul(f3.inv(a), t) for t in (f3.add(1, u), f3.sub(1, u))}
        assert len(targets) == 2
        assert all(cn.census(su, a, b)["n1"] == (b in targets) for b in range(f3.q)), a


def test_special_points_reject_zero_a(f3):
    with pytest.raises(ValueError):
        cn.census(ScopedU(f3, u0_nonf3_elements(f3)[0]), 0, 1)


def test_census_rejects_pairs_outside_the_field(f5):
    """a and b must be elements, a nonzero: a negative one would be read from
    the end of the log table, and one from q on past it."""
    su = ScopedU(f5, u0_nonf3_elements(f5)[0])
    for a, b in ((-1, 1), (f5.q, 1), (1, -1), (1, f5.q), (1, f5.q + 3)):
        with pytest.raises(ValueError, match="0 < a < q"):
            cn.census(su, a, b)


# ---------------------------------------------------------------------------
# the four cases in y = x / a
# ---------------------------------------------------------------------------


def _y_quadratic(ctx, u, z, case_id):
    """(c2, c1, c0) = (z, z - u (t_a - t_0), 1 + u t_0) of one case in y."""
    t_a, t_0 = (t % 3 for t in cn.CASE_TAU[case_id])
    return z, ctx.sub(z, ctx.mul(u, ctx.sub(t_a, t_0))), ctx.add(1, ctx.mul(u, t_0))


def _x_quadratic(ctx, u, a, b, case_id):
    """(b, a b - u (t_a - t_0), a (1 + u t_0)), the case quadratic in x."""
    t_a, t_0 = (t % 3 for t in cn.CASE_TAU[case_id])
    c1 = ctx.sub(ctx.mul(a, b), ctx.mul(u, ctx.sub(t_a, t_0)))
    return b, c1, ctx.mul(a, ctx.add(1, ctx.mul(u, t_0)))


def _value(ctx, coeffs, x):
    c2, c1, c0 = coeffs
    return ctx.add(ctx.add(ctx.mul(c2, ctx.mul(x, x)), ctx.mul(c1, x)), c0)


def _roots(ctx, coeffs):
    """The roots of a quadratic, by trying every element."""
    return [y for y in range(ctx.q) if _value(ctx, coeffs, y) == 0]


def _nonsquare(ctx):
    return next(a for a in range(1, ctx.q) if ctx.chi(a) == -1)


def test_case_equations_match_table_forms(f3):
    """The quadratic in y at z = a b is the one in x at x = a y divided by a,
    and its discriminant c1^2 - c2 c0 (4 = 1) is g2(z) in case I, g3(z) in
    case IV and g4(z) in cases II and III.  Divided by z, with w = 1 / z, it
    is y^2 + B y + C with B = 1 - (t_a - t_0) u w and C = w + t_0 u w, and
    B^2 - C is that discriminant over z^2."""
    disc_g = {"I": 2, "II": 4, "III": 4, "IV": 3}
    for u in u0_nonf3_elements(f3)[:3]:
        su = ScopedU(f3, u)
        for a in range(1, f3.q, 2):
            for b in range(1, f3.q, 3):
                z = f3.mul(a, b)
                w = f3.inv(z)
                uw = f3.mul(u, w)
                for case_id in cn.CASE_TAU:
                    y_form = _y_quadratic(f3, u, z, case_id)
                    x_form = _x_quadratic(f3, u, a, b, case_id)
                    for y in range(f3.q):
                        assert (f3.mul(a, _value(f3, y_form, y))
                                == _value(f3, x_form, f3.mul(a, y))), (u, a, b, case_id, y)
                    c2, c1, c0 = y_form
                    disc = f3.sub(f3.mul(c1, c1), f3.mul(c2, c0))
                    assert disc == oracles.g_eval(su, disc_g[case_id], z), (u, z, case_id)
                    t_a, t_0 = (t % 3 for t in cn.CASE_TAU[case_id])
                    big_b = f3.sub(1, f3.mul(f3.sub(t_a, t_0), uw))
                    big_c = f3.add(w, f3.mul(t_0, uw))
                    assert (f3.mul(c1, w), f3.mul(c0, w)) == (big_b, big_c), (u, z, case_id)
                    assert (f3.sub(f3.mul(big_b, big_b), big_c)
                            == f3.mul(disc, f3.mul(w, w))), (u, z, case_id)


def test_case_solutions_are_desired_equation_solutions(f3):
    """Each case count of `census` at (a, b) is the number of x outside
    {0, -a} that solve the equation with signs (t_a, t_0), found by trying
    every x with the oracle's derivative."""
    u = u0_nonf3_elements(f3)[0]
    su = ScopedU(f3, u)
    for a in range(1, f3.q, 3):
        derivative = oracles.derivative(f3, u, a, np.arange(f3.q))
        for b in range(1, f3.q, 2):
            c = cn.census(su, a, b)
            for case_id in cn.CASE_TAU:
                tau_a, tau_0 = cn.CASE_TAU[case_id]
                desired = [x for x in range(f3.q)
                           if derivative[x] == b
                           and f3.chi(f3.add(x, a)) == tau_a and f3.chi(x) == tau_0]
                assert c[f"case_{case_id.lower()}"] == len(desired), (a, b, case_id)


def test_case_ii_iii_root_pairing(f3):
    """y solves case II exactly when -1 - y solves case III (x -> -(x + a)
    in x), with chi(y + 1) and chi(y) swapped and negated, so the census
    count of case II at chi(a) is that of case III at -chi(a).  A root has
    one pair of signs, so it is desired at one chi(a) at most, and the two
    counts at (a, b) add up to no more than the roots of case II."""
    ns = _nonsquare(f3)
    for u in u0_nonf3_elements(f3)[:3]:
        su = ScopedU(f3, u)
        for z in range(1, f3.q):
            roots2 = _roots(f3, _y_quadratic(f3, u, z, "II"))
            roots3 = _roots(f3, _y_quadratic(f3, u, z, "III"))
            assert sorted(f3.sub(2, y) for y in roots2) == roots3  # 2 is -1
            square, nonsquare = cn.census(su, 1, z), cn.census(su, ns, f3.mul(f3.inv(ns), z))
            assert (square["case_ii"], square["case_iii"]) == (nonsquare["case_iii"],
                                                               nonsquare["case_ii"]), (u, z)
            assert square["case_ii"] + square["case_iii"] <= len(roots2), (u, z)


def test_case_bounds(f3):
    u = u0_nonf3_elements(f3)[1]
    su = ScopedU(f3, u)
    for a in range(1, f3.q):
        for b in range(f3.q):
            c = cn.census(su, a, b)
            assert c["case_i"] <= 1 and c["case_iv"] <= 1, (a, b)
            assert c["case_ii"] + c["case_iii"] <= 2, (a, b)


def test_case_rejects_degenerate_inputs(f3):
    """a = 0 is no direction and raises; at b = 0 (z = 0) no case
    quadratic has a desired root."""
    su = ScopedU(f3, u0_nonf3_elements(f3)[0])
    with pytest.raises(ValueError):
        cn.census(su, 0, 1)
    for a in range(1, f3.q):
        c = cn.census(su, a, 0)
        assert c["z"] == 0 and [c[f"case_{i}"] for i in ("i", "ii", "iii", "iv")] == [0] * 4, a


# ---------------------------------------------------------------------------
# sign conditions for the individual case counts
# ---------------------------------------------------------------------------


def _pairs(f3):
    """Every other a and every third b != 0."""
    return [(a, b) for a in range(1, f3.q, 2) for b in range(1, f3.q, 3)]


def test_case_i_iv_sign_conditions(f3):
    # N_I = 1 iff s2 = 1 and s1 = 1; N_IV = 1 iff s3 = 1 and s1 = 1
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        for a, b in _pairs(f3):
            c = cn.census(su, a, b)
            s = oracles.g_signs(su, c["z"])
            assert c["case_i"] == int(s[0] == 1 and s[1] == 1)
            assert c["case_iv"] == int(s[0] == 1 and s[2] == 1)


def test_case_ii_iii_sum_sign_conditions(f3):
    # N_II + N_III: 2 iff s4 = s5 = 1; 1 iff s4 = 0 and chi(z^2-u^2) = 1; else 0
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        for a, b in _pairs(f3):
            c = cn.census(su, a, b)
            z = c["z"]
            s = oracles.g_signs(su, z)
            chi_z2mu2 = f3.chi(f3.sub(f3.mul(z, z), f3.mul(u, u)))
            total = c["case_ii"] + c["case_iii"]
            if s[3] == 1 and s[4] == 1:
                assert total == 2
            elif s[3] == 0 and chi_z2mu2 == 1:
                assert total == 1
            else:
                assert total == 0


def _case_rows(su):
    """`CASE_TABLE` at the lead of u and the pattern of every z, by column
    name; each z is also checked against the scalar census of (1, z)."""
    rows = cn.CASE_TABLE[su.lead][oracles.in_element_order(su.ctx, su.pattern)]
    for z, row in enumerate(rows.tolist()):
        c = cn.census(su, 1, z)
        assert tuple(row) == (*oracles.table_key(c), c["predicted"]), (su.u, z)
    return dict(zip(cn.CASE_COLUMNS, rows.T))


def test_degenerate_case_quadratic_blocks_i_and_iv(f3):
    # s4 = 0 forces chi((u+1) z) = -1, hence s1 = 1... and N_I = N_IV = 0
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        comp = _case_rows(su)
        for z in range(f3.q):
            if z and oracles.g_signs(su, z)[3] == 0:
                s = oracles.g_signs(su, z)
                assert s[0] == -1  # chi(g1) = -1, i.e. chi((u+1)/z) = +1
                assert comp["n_i"][z] == 0 and comp["n_iv"][z] == 0


def test_special_point_rows_exclude_cases_i_iv(f3):
    # z = 1 +- u: N1 = 1 while N_I = N_IV = 0 and N_II + N_III != 1
    for u in u0_nonf3_elements(f3):
        comp = _case_rows(ScopedU(f3, u))
        for z in (f3.add(1, u), f3.sub(1, u)):
            assert comp["n1"][z] == 1
            assert comp["n_i"][z] == 0 and comp["n_iv"][z] == 0
            assert comp["n_ii_iii"][z] != 1


# ---------------------------------------------------------------------------
# full census and proposition predictions
# ---------------------------------------------------------------------------


def test_census_exhaustive_n3(f3):
    for u in u0_nonf3_elements(f3):
        ddt = oracles.ddt_table(f3, u)
        su = ScopedU(f3, u)
        prediction = cn.prediction_by_z(su)
        for a in range(1, f3.q):
            for b in range(f3.q):
                c = cn.census(su, a, b)
                predicted = int(prediction[f3.slot(f3.mul(a, b))])
                assert c["predicted"] == c["observed"] == predicted
                assert c["observed"] == int(ddt[a, b]) == oracles.ddt_entry_naive(f3, u, a, b)
                assert oracles.table_key(c) in cn.TABLE_IV_ROWS


def test_census_totals_match_case_sum(f3):
    u = u0_nonf3_elements(f3)[0]
    c = cn.census(ScopedU(f3, u), 4, 9)
    assert c["predicted"] == c["n1"] + sum(c[f"case_{i}"] for i in ("i", "ii", "iii", "iv"))
    assert c["z"] == f3.mul(4, 9)


def test_table_iv_rows_are_the_admissible_vectors():
    totals = {}
    for (n1, ni, n23, niv), total in cn.TABLE_IV_ROWS.items():
        assert n1 + ni + n23 + niv == total
        totals.setdefault(total, 0)
        totals[total] += 1
    assert totals == {0: 1, 1: 4, 2: 2, 3: 3, 4: 1}


def test_full_pattern_with_four_solutions_occurs(f3):
    seen = set()
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        for a in range(1, f3.q):
            for b in range(1, f3.q):
                seen.add(oracles.table_key(cn.census(su, a, b)))
    assert (0, 1, 2, 1) in seen  # the four-solution row
    assert (1, 0, 0, 0) in seen


def test_predict_b_zero_is_zero(f3):
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        prediction = cn.prediction_by_z(su)
        for a in range(1, f3.q):
            assert int(prediction[f3.slot(f3.mul(a, 0))]) == 0


def test_predict_requires_scope_and_nonzero_a(f3):
    """A prediction needs an in-scope u; the per-pair census it is compared
    with needs a != 0."""
    with pytest.raises(ValueError):
        cn.prediction_by_z(ScopedU(f3, 1))
    u = u0_nonf3_elements(f3)[0]
    with pytest.raises(ValueError):
        cn.census(ScopedU(f3, u), 0, 3)


def test_exactly_one_condition_matches_n3(f3):
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        for a in range(1, f3.q):
            for b in range(f3.q):
                assert len(oracles.matching_conditions(su, a, b)) == 1


def test_rule_inputs_match_evaluation(scope_cases):
    """At every z, s0 = 0 exactly when z = 0, and the rule inputs derived from
    the signs equal their definitions evaluated in the field: b = 0, z in
    {1 +- u} and, at both zeros of g4, chi(z^2 - u^2)."""
    for ctx, us in scope_cases:
        for u in us:
            su = ScopedU(ctx, u)
            signs = oracles.signs_by_z(su)
            derived = cn.rule_inputs(signs.T)
            one_pm_u = (ctx.add(1, u), ctx.sub(1, u))
            assert np.count_nonzero(signs[:, 4] == 0) == 2, (ctx.n, u)
            for z in range(ctx.q):
                assert (signs[z, 0] == 0) == (z == 0) == derived["b_zero"][z], (ctx.n, u, z)
                assert derived["one_pm_u"][z] == (z in one_pm_u), (ctx.n, u, z)
                if signs[z, 4] == 0:
                    chi = ctx.chi(ctx.sub(ctx.mul(z, z), ctx.mul(u, u)))
                    assert derived["chi_z2mu2"][z] == chi, (ctx.n, u, z)


def test_prediction_table_equals_rule_interpreter():
    """Every (lead, pattern): the count where exactly one rule fires, NO_RULE
    where none does and SEVERAL_RULES where more than one does; every entry
    of z = 0 is 0."""
    assert cn.PREDICTION_TABLE.shape == (2, 243)
    assert len(list(oracles.entry_inputs())) == 486
    for entry, inputs in oracles.entry_inputs():
        hits = oracles.fired_conditions(**inputs)
        if len(hits) == 1:
            expected = hits[0][0]
        else:
            expected = cn.NO_RULE if not hits else cn.SEVERAL_RULES
        assert int(cn.PREDICTION_TABLE[entry]) == expected, (inputs, hits)
        if inputs["b_zero"]:
            assert cn.PREDICTION_TABLE[entry] == 0


def test_case_table_matches_closed_forms():
    """Every (lead, pattern): (N1, N_I, N_II + N_III, N_IV) from their closed
    forms in the signs, and the total of that vector in TABLE_IV_ROWS,
    NOT_ADMISSIBLE where it is not a row there; every entry of z = 0 (b = 0)
    reads all 0."""
    assert cn.CASE_TABLE.shape == (2, 243, len(cn.CASE_COLUMNS))
    inadmissible = 0
    for entry, inputs in oracles.entry_inputs():
        row = oracles.case_row(**inputs)
        inadmissible += row[-1] == cn.NOT_ADMISSIBLE
        assert cn.CASE_TABLE[entry].tolist() == row, inputs
    assert inadmissible > 0


def test_prediction_by_z_matches_scalar(f3):
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        pred = cn.prediction_by_z(su)
        assert pred[f3.slot(0)] == 0
        for a in range(1, f3.q):
            for b in range(f3.q):
                (hit,) = oracles.matching_conditions(su, a, b)
                assert hit[0] == int(pred[f3.slot(f3.mul(a, b))])


def test_prediction_names_the_key_without_a_rule(f3, monkeypatch):
    """The error names u, the first z with the broken entry, and its signs."""
    su = ScopedU(f3, u0_nonf3_elements(f3)[0])
    pattern = int(su.pattern[f3.slot(7)])
    z = int(np.flatnonzero(oracles.in_element_order(f3, su.pattern) == pattern)[0])
    table = cn.PREDICTION_TABLE.copy()
    table[su.lead, pattern] = cn.NO_RULE
    monkeypatch.setattr(cn, "PREDICTION_TABLE", table)
    with pytest.raises(InconsistencyError, match="no condition matched") as exc:
        cn.prediction_by_z(su)
    assert str(exc.value) == (f"no condition matched at u={f3.format_element(su.u)} "
                              f"z={f3.format_element(z)} signs={cn.g_signs(su, z)}")


def test_verify_predictions_clean_n3(f3):
    for u in u0_nonf3_elements(f3):
        report = cn.verify_predictions(ScopedU(f3, u))
        assert report["ok"] and report["pairs"] == (f3.q - 1) * f3.q


def test_verify_predictions_sampled_n5(f5):
    for u in sample_u0_nonf3(f5, 3, seed=99):
        report = cn.verify_predictions(ScopedU(f5, u))
        assert report["ok"], report["mismatches"][:3]


def test_exactly_one_condition_and_predictions_sampled_n7(f7):
    for u in sample_u0_nonf3(f7, 2, seed=101):
        cn.prediction_by_z(ScopedU(f7, u))  # raises unless exactly one rule fires per z
    u = sample_u0_nonf3(f7, 1, seed=103)[0]
    report = cn.verify_predictions(ScopedU(f7, u))
    assert report["ok"], report["mismatches"][:3]


def test_verify_predictions_reports_a_raised_cell(f3, monkeypatch):
    u = u0_nonf3_elements(f3)[0]
    b = 5
    raised = ness.ddt_row(f3, u).copy()
    raised[f3.slot(b)] += 1
    monkeypatch.setattr(ness, "ddt_row", lambda ctx, u: raised)
    su = ScopedU(f3, u)
    report = cn.verify_predictions(su)
    assert report["ok"] is False
    assert report["pairs"] == (f3.q - 1) * f3.q
    (rec,) = report["mismatches"]
    assert rec == {"a": 1, "b": b, "z": b, "chi_signature": list(oracles.g_signs(su, b)),
                   "predicted": int(cn.prediction_by_z(su)[f3.slot(b)]),
                   "observed": oracles.ddt_entry_naive(f3, u, 1, b) + 1}


def test_verify_predictions_reports_one_record_per_z(f3, monkeypatch):
    """A wrong count for one (lead, pattern) gives exactly one record per z
    with that pattern, at (a, b) = (1, z): the row a = 1 stands for every a.
    `EXPECTED` is compiled from the wrong table, as the import would compile
    it."""
    u = u0_nonf3_elements(f3)[1]
    su = ScopedU(f3, u)
    patterns = oracles.in_element_order(f3, su.pattern)
    entry = su.lead, int(np.bincount(patterns[1:]).argmax())  # the commonest of a nonzero z
    wrong = cn.PREDICTION_TABLE.copy()
    wrong[entry] = (wrong[entry] + 1) % 5
    monkeypatch.setattr(cn, "PREDICTION_TABLE", wrong)
    monkeypatch.setattr(cn, "EXPECTED", cn._expected(wrong, cn.CASE_TABLE))
    report = cn.verify_predictions(su)
    zs = np.flatnonzero(patterns == entry[1])
    assert len(zs) > 1 and report["ok"] is False
    assert report["mismatches"] == [
        {"a": 1, "b": z, "z": z, "chi_signature": list(oracles.g_signs(su, z)),
         "predicted": int(wrong[entry]), "observed": oracles.ddt_entry_naive(f3, u, 1, z)}
        for z in zs.tolist()
    ]


def test_mismatch_record_shape(f3, monkeypatch):
    """A mismatch record holds ints and the five signs, in the order the CLI
    writes them after u; the CLI alone writes u."""
    u = u0_nonf3_elements(f3)[0]
    raised = ness.ddt_row(f3, u).copy()
    raised[f3.slot(9)] += 1
    monkeypatch.setattr(ness, "ddt_row", lambda ctx, u: raised)
    (rec,) = cn.verify_predictions(ScopedU(f3, u))["mismatches"]
    assert list(rec) == ["a", "b", "z", "chi_signature", "predicted", "observed"]
    assert all(type(rec[key]) is int for key in ("a", "b", "z", "predicted", "observed"))
    assert len(rec["chi_signature"]) == 5


def test_census_rejects_out_of_scope_u(f3):
    with pytest.raises(ValueError):
        cn.census(ScopedU(f3, 0), 1, 1)
