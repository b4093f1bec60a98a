"""Per-pair solution counting: special points, case quadratics, predictions."""

import itertools
import random

import numpy as np
import pytest

import oracles
from sampling import sample_u0_nonf3
from nhspectrum import solution_census as cn
from nhspectrum import ness
from nhspectrum.charsums import SIGN_PATTERNS, ScopedU
from nhspectrum.field import InconsistencyError
from nhspectrum.spectrum import u0_nonf3_elements


# ---------------------------------------------------------------------------
# special points {0, -a}
# ---------------------------------------------------------------------------


def _special_points_direct(ctx, u, a, b):
    hits = 0
    for x in (0, ctx.neg(a)):
        if oracles.derivative(ctx, u, a, x) == b:
            hits += 1
    return hits


def test_special_points_match_direct_check_all_u(f3):
    rng = random.Random(41)
    for _ in range(400):
        u = rng.randrange(f3.q)  # the closed form covers every u
        a = rng.randrange(1, f3.q)
        b = rng.randrange(f3.q)
        assert cn.special_point_solutions(f3, u, a, b) == _special_points_direct(
            f3, u, a, b
        )


def test_special_points_closed_form_cases(f3):
    a = 5
    inv_a = f3.inv(a)
    assert cn.special_point_solutions(f3, 0, a, inv_a) == 2
    u = u0_nonf3_elements(f3)[0]
    chi_a = 1 if f3.chi(a) == 1 else 2
    b_plus = f3.mul(inv_a, f3.add(1, f3.mul(u, chi_a)))
    b_minus = f3.mul(inv_a, f3.sub(1, f3.mul(u, chi_a)))
    assert cn.special_point_solutions(f3, u, a, b_plus) == 1
    assert cn.special_point_solutions(f3, u, a, b_minus) == 1
    others = [b for b in range(f3.q) if b not in (b_plus, b_minus)]
    assert all(cn.special_point_solutions(f3, u, a, b) == 0 for b in others)


def test_special_points_reject_zero_a(f3):
    with pytest.raises(ValueError):
        cn.special_point_solutions(f3, 5, 0, 1)


# ---------------------------------------------------------------------------
# quadratic solving and the four cases
# ---------------------------------------------------------------------------


def test_solve_quadratic_against_scan(f3):
    rng = random.Random(43)
    for _ in range(300):
        c2 = rng.randrange(1, f3.q)
        c1 = rng.randrange(f3.q)
        c0 = rng.randrange(f3.q)
        roots = cn.solve_quadratic(f3, c2, c1, c0)
        expected = {
            x
            for x in range(f3.q)
            if f3.add(f3.add(f3.mul(c2, f3.mul(x, x)), f3.mul(c1, x)), c0) == 0
        }
        assert set(roots) == expected
        assert len(roots) == len(set(roots))


def test_case_equations_match_table_forms(f3):
    # case I: b x^2 + a b x + a(u+1); case IV: b x^2 + a b x - a(u-1)
    u, a, b = u0_nonf3_elements(f3)[2], 7, 11
    c2, c1, c0 = cn.case_equation(f3, u, a, b, "I")
    assert (c2, c1, c0) == (b, f3.mul(a, b), f3.mul(a, f3.add(u, 1)))
    c2, c1, c0 = cn.case_equation(f3, u, a, b, "IV")
    assert (c2, c1, c0) == (b, f3.mul(a, b), f3.neg(f3.mul(a, f3.sub(u, 1))))
    # case II: b x^2 + (u + a b) x - a(u-1); case III: b x^2 - (u - a b) x + a(u+1)
    c2, c1, c0 = cn.case_equation(f3, u, a, b, "II")
    assert (c2, c1, c0) == (b, f3.add(u, f3.mul(a, b)), f3.neg(f3.mul(a, f3.sub(u, 1))))
    c2, c1, c0 = cn.case_equation(f3, u, a, b, "III")
    assert (c2, c1, c0) == (b, f3.sub(f3.mul(a, b), u), f3.mul(a, f3.add(u, 1)))


def test_case_solutions_are_desired_equation_solutions(f3):
    u = u0_nonf3_elements(f3)[0]
    for a in range(1, f3.q, 3):
        for b in range(1, f3.q, 4):
            for case_id in cn.CASE_IDS:
                tau_a, tau_0 = cn.CASE_TAU[case_id]
                for x in cn.case_solutions(f3, u, a, b, case_id):
                    assert f3.chi(f3.add(x, a)) == tau_a
                    assert f3.chi(x) == tau_0
                    assert oracles.derivative(f3, u, a, x) == b


def test_case_ii_iii_root_pairing(f3):
    for u in u0_nonf3_elements(f3)[:3]:
        for a in range(1, f3.q):
            for b in range(1, f3.q):
                roots2 = cn.solve_quadratic(f3, *cn.case_equation(f3, u, a, b, "II"))
                roots3 = cn.solve_quadratic(f3, *cn.case_equation(f3, u, a, b, "III"))
                for x in roots2:
                    assert f3.neg(f3.add(x, a)) in roots3
                desired2 = cn.case_solutions(f3, u, a, b, "II")
                desired3 = cn.case_solutions(f3, u, a, b, "III")
                for x in desired2:
                    assert f3.neg(f3.add(x, a)) not in desired3


def test_case_bounds(f3):
    u = u0_nonf3_elements(f3)[1]
    for a in range(1, f3.q, 2):
        for b in range(1, f3.q, 2):
            counts = {
                cid: len(cn.case_solutions(f3, u, a, b, cid)) for cid in cn.CASE_IDS
            }
            assert counts["I"] <= 1
            assert counts["IV"] <= 1
            assert counts["II"] + counts["III"] <= 2


def test_case_rejects_degenerate_inputs(f3):
    u = u0_nonf3_elements(f3)[0]
    with pytest.raises(ValueError):
        cn.case_solutions(f3, u, 0, 1, "I")
    with pytest.raises(ValueError):
        cn.case_solutions(f3, u, 1, 0, "I")
    with pytest.raises(ValueError):
        cn.case_solutions(f3, u, 1, 1, "V")


# ---------------------------------------------------------------------------
# sign conditions for the individual case counts
# ---------------------------------------------------------------------------


def test_case_i_iv_sign_conditions(f3):
    # N_I = 1 iff s2 = 1 and s1 = 1; N_IV = 1 iff s3 = 1 and s1 = 1
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        for a in range(1, f3.q, 2):
            for b in range(1, f3.q, 3):
                s = oracles.g_signs(su, f3.mul(a, b))
                n_i = len(cn.case_solutions(f3, u, a, b, "I"))
                n_iv = len(cn.case_solutions(f3, u, a, b, "IV"))
                assert n_i == int(s[0] == 1 and s[1] == 1)
                assert n_iv == int(s[0] == 1 and s[2] == 1)


def test_case_ii_iii_sum_sign_conditions(f3):
    # N_II + N_III: 2 iff s4 = s5 = 1; 1 iff s4 = 0 and chi(z^2-u^2) = 1; else 0
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        for a in range(1, f3.q, 2):
            for b in range(1, f3.q, 3):
                z = f3.mul(a, b)
                s = oracles.g_signs(su, z)
                chi_z2mu2 = f3.chi(f3.sub(f3.mul(z, z), f3.mul(u, u)))
                total = (
                    len(cn.case_solutions(f3, u, a, b, "II"))
                    + len(cn.case_solutions(f3, u, a, b, "III"))
                )
                if s[3] == 1 and s[4] == 1:
                    assert total == 2
                elif s[3] == 0 and chi_z2mu2 == 1:
                    assert total == 1
                else:
                    assert total == 0


def _case_rows(su):
    """`CASE_TABLE` at the sign key of every z, by column name; each z is
    also checked against the scalar census of (1, z)."""
    rows = cn.CASE_TABLE[su.sign_key]
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
                predicted = int(prediction[f3.mul(a, b)])
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
            assert int(prediction[f3.mul(a, 0)]) == 0


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
    the sign key equal their definitions evaluated in the field: b = 0, z in
    {1 +- u} and, at both zeros of g4, chi(z^2 - u^2)."""
    for ctx, us in scope_cases:
        for u in us:
            su = ScopedU(ctx, u)
            signs = SIGN_PATTERNS[su.sign_key]
            derived = cn.rule_inputs(signs.T)
            one_pm_u = (ctx.add(1, u), ctx.sub(1, u))
            assert np.count_nonzero(signs[:, 4] == 0) == 2, (ctx.n, u)
            for z in range(ctx.q):
                assert (signs[z, 0] == 0) == (z == 0) == derived["b_zero"][z], (ctx.n, u, z)
                assert derived["one_pm_u"][z] == (z in one_pm_u), (ctx.n, u, z)
                if signs[z, 4] == 0:
                    chi = ctx.chi(ctx.sub(ctx.mul(z, z), ctx.mul(u, u)))
                    assert derived["chi_z2mu2"][z] == chi, (ctx.n, u, z)


def _table_keys():
    """(key, inputs) for all 3^6 sign keys, the rule inputs derived from the signs."""
    for key, signs in enumerate(itertools.product((-1, 0, 1), repeat=6)):
        derived = {name: value.item() for name, value in cn.rule_inputs(np.array(signs)).items()}
        yield key, dict(derived, signs=signs[1:])


def test_prediction_table_equals_rule_interpreter():
    """Every key: the count where exactly one rule fires, NO_RULE where none
    does and SEVERAL_RULES where more than one does; every key of z = 0 is 0."""
    assert len(cn.PREDICTION_TABLE) == len(list(_table_keys())) == 729
    for key, inputs in _table_keys():
        hits = oracles.fired_conditions(**inputs)
        if len(hits) == 1:
            expected = hits[0][0]
        else:
            expected = cn.NO_RULE if not hits else cn.SEVERAL_RULES
        assert int(cn.PREDICTION_TABLE[key]) == expected, (inputs, hits)
        if inputs["b_zero"]:
            assert cn.PREDICTION_TABLE[key] == 0


def test_case_table_matches_closed_forms():
    """Every key: (N1, N_I, N_II + N_III, N_IV) from their closed forms in the
    signs, and the total of that vector in TABLE_IV_ROWS, NOT_ADMISSIBLE where
    it is not a row there; every key of z = 0 (b = 0) reads all 0."""
    assert cn.CASE_TABLE.shape == (729, len(cn.CASE_COLUMNS))
    inadmissible = 0
    for key, inputs in _table_keys():
        s1, s2, s3, s4, s5 = inputs["signs"]
        if inputs["b_zero"]:
            assert cn.CASE_TABLE[key].tolist() == [0, 0, 0, 0, 0], inputs
            continue
        if s4 == 1 and s5 == 1:
            n_ii_iii = 2
        else:
            n_ii_iii = int(s4 == 0 and inputs["chi_z2mu2"] == 1)
        vector = (int(inputs["one_pm_u"]), int(s1 == 1 and s2 == 1), n_ii_iii,
                  int(s1 == 1 and s3 == 1))
        total = cn.TABLE_IV_ROWS.get(vector, cn.NOT_ADMISSIBLE)
        inadmissible += total == cn.NOT_ADMISSIBLE
        assert cn.CASE_TABLE[key].tolist() == [*vector, total], (inputs, vector)
    assert inadmissible > 0


def test_prediction_by_z_matches_scalar(f3):
    for u in u0_nonf3_elements(f3):
        su = ScopedU(f3, u)
        pred = cn.prediction_by_z(su)
        assert pred[0] == 0
        for a in range(1, f3.q):
            for b in range(f3.q):
                (hit,) = oracles.matching_conditions(su, a, b)
                assert hit[0] == int(pred[f3.mul(a, b)])


def test_prediction_names_the_key_without_a_rule(f3, monkeypatch):
    """The error names u, the first z with the broken key, and its signs."""
    su = ScopedU(f3, u0_nonf3_elements(f3)[0])
    key = int(su.sign_key[7])
    z = int(np.flatnonzero(su.sign_key == key)[0])
    table = cn.PREDICTION_TABLE.copy()
    table[key] = cn.NO_RULE
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
    raised[b] += 1
    monkeypatch.setattr(ness, "ddt_row", lambda ctx, u: raised)
    su = ScopedU(f3, u)
    report = cn.verify_predictions(su)
    assert report["ok"] is False
    assert report["pairs"] == (f3.q - 1) * f3.q
    (rec,) = report["mismatches"]
    assert rec == {"a": 1, "b": b, "z": b, "chi_signature": list(oracles.g_signs(su, b)),
                   "predicted": int(cn.prediction_by_z(su)[b]),
                   "observed": oracles.ddt_entry_naive(f3, u, 1, b) + 1}


def test_verify_predictions_reports_one_record_per_z(f3, monkeypatch):
    """A wrong count for one sign key gives exactly one record per z with that
    key, at (a, b) = (1, z): the row a = 1 stands for every a."""
    u = u0_nonf3_elements(f3)[1]
    su = ScopedU(f3, u)
    key = int(np.bincount(su.sign_key[1:]).argmax())  # the commonest key of a nonzero z
    wrong = cn.PREDICTION_TABLE.copy()
    wrong[key] = (wrong[key] + 1) % 5
    monkeypatch.setattr(cn, "PREDICTION_TABLE", wrong)
    report = cn.verify_predictions(su)
    zs = np.flatnonzero(su.sign_key == key)
    assert len(zs) > 1 and report["ok"] is False
    assert report["mismatches"] == [
        {"a": 1, "b": z, "z": z, "chi_signature": list(oracles.g_signs(su, z)),
         "predicted": int(wrong[key]), "observed": oracles.ddt_entry_naive(f3, u, 1, z)}
        for z in zs.tolist()
    ]


def test_mismatch_record_shape(f3, monkeypatch):
    """A mismatch record holds ints and the five signs, in the order the CLI
    writes them after u; the CLI alone writes u."""
    u = u0_nonf3_elements(f3)[0]
    raised = ness.ddt_row(f3, u).copy()
    raised[9] += 1
    monkeypatch.setattr(ness, "ddt_row", lambda ctx, u: raised)
    (rec,) = cn.verify_predictions(ScopedU(f3, u))["mismatches"]
    assert list(rec) == ["a", "b", "z", "chi_signature", "predicted", "observed"]
    assert all(type(rec[key]) is int for key in ("a", "b", "z", "predicted", "observed"))
    assert len(rec["chi_signature"]) == 5


def test_census_rejects_out_of_scope_u(f3):
    with pytest.raises(ValueError):
        cn.census(ScopedU(f3, 0), 1, 1)
