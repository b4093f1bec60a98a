"""Parameter classification, the two character sums and the closed form."""

import pytest

import oracles
from nhspectrum import charsums as cs
from nhspectrum import cli
from nhspectrum import ness
from nhspectrum import spectrum as sp
from nhspectrum import solution_census as cn
from nhspectrum.field import InconsistencyError


def closed_form(ctx, u):
    return sp.spectrum_closed_form(ctx, **sp.closed_form_inputs(cs.ScopedU(ctx, u)))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_scope_enumeration_matches_scalar_predicate(f3, f5, f7):
    for ctx in (f3, f5, f7):
        us = sp.u0_nonf3_elements(ctx)
        assert us.tolist() == [u for u in range(ctx.q) if cs.classify_u(ctx, u) == cs.CLASS_U0]
        # an index array; the u that --u resolves to are ints
        for spec in ("all", "sample:3:1"):
            assert all(type(u) is int for u in cli.resolve_u(ctx, spec))


def test_classify_base_field_flag(f3):
    assert f3.chi(1) != f3.chi(2)  # at u = 0 the pattern of u + 1, u - 1 differs ...
    assert cs.classify_u(f3, 0) == "F3"  # ... and GF(3) still wins
    with pytest.raises(ValueError, match="outside GF"):
        cs.ScopedU(f3, 0)
    assert cs.classify_u(f3, 1) == "F3"
    assert cs.classify_u(f3, 2) == "F3"


def test_classify_patterns(f3, f5):
    for ctx in (f3, f5):
        for u in range(ctx.q):
            label = cs.classify_u(ctx, u)
            if u in (0, 1, 2):
                continue
            chi_p = ctx.chi(ctx.add(u, 1))
            chi_m = ctx.chi(ctx.sub(u, 1))
            chi_u = ctx.chi(u)
            if chi_p != chi_m:
                assert label == "U0_nonF3"
            elif chi_u != chi_p:
                assert label == "U10"
            else:
                assert label == "U11"


def test_classes_partition_field(f3, f5):
    for ctx in (f3, f5):
        counts = {"F3": 0, "U0_nonF3": 0, "U10": 0, "U11": 0}
        for u in range(ctx.q):
            counts[cs.classify_u(ctx, u)] += 1
        assert counts["F3"] == 3
        assert sum(counts.values()) == ctx.q
        assert counts["U0_nonF3"] == len(sp.u0_nonf3_elements(ctx))


def test_scope_list_matches_classifier(f3):
    for u in sp.u0_nonf3_elements(f3):
        assert cs.classify_u(f3, u) == cs.CLASS_U0
        assert cs.ScopedU(f3, u).u == u


# ---------------------------------------------------------------------------
# gamma sums
# ---------------------------------------------------------------------------


def test_gamma_dual_forms_agree(scope_cases):
    """gamma3 and gamma4 from the sign-key histogram equal the g polynomials
    multiplied in the field and the reduced cubic and quintic summed by
    Horner's rule."""
    for ctx, us in scope_cases:
        for u in us:
            su = cs.ScopedU(ctx, u)
            g3, g4 = sp.gamma3(su), sp.gamma4(su)
            assert g3 == oracles.gamma3_from_products(su) == oracles.gamma3_from_cubic(su)
            assert g4 == oracles.gamma4_from_products(su) == oracles.gamma4_from_quintic(su)


def test_gamma_example_values_reachable(f3, f5):
    g3_values = {sp.gamma3(cs.ScopedU(f3, u)) for u in sp.u0_nonf3_elements(f3)}
    g4_values = {sp.gamma4(cs.ScopedU(f3, u)) for u in sp.u0_nonf3_elements(f3)}
    assert -4 in g3_values and 4 in g4_values
    g4_n5 = {sp.gamma4(cs.ScopedU(f5, u)) for u in sp.u0_nonf3_elements(f5)}
    assert 12 in g4_n5


def test_gamma_requires_scope(f3):
    with pytest.raises(ValueError):
        sp.gamma3(cs.ScopedU(f3, 1))
    with pytest.raises(ValueError):
        sp.gamma4(cs.ScopedU(f3, 0))


def test_gamma_within_hasse_and_weil_bounds(f3, f5, f7):
    """|gamma3| <= 2 sqrt(q) (Hasse, genus 1) and |gamma4| <= 4 sqrt(q)
    (Weil, genus 2), compared exactly as gamma3^2 <= 4q and gamma4^2 <= 16q."""
    for ctx in (f3, f5, f7):
        worst3 = worst4 = 0
        for u in sp.u0_nonf3_elements(ctx):
            su = cs.ScopedU(ctx, u)
            g3, g4 = sp.gamma3(su), sp.gamma4(su)
            assert g3 * g3 <= 4 * ctx.q, (ctx.n, u, g3)
            assert g4 * g4 <= 16 * ctx.q, (ctx.n, u, g4)
            worst3, worst4 = max(worst3, g3 * g3), max(worst4, g4 * g4)
        assert (worst3, worst4) == {3: (16, 16), 5: (784, 400), 7: (8464, 11664)}[ctx.n]


# ---------------------------------------------------------------------------
# epsilon
# ---------------------------------------------------------------------------


def test_epsilon_values_reachable(f3, f5):
    eps3 = {sp.epsilon(cs.ScopedU(f3, u)) for u in sp.u0_nonf3_elements(f3)}
    eps5 = {sp.epsilon(cs.ScopedU(f5, u)) for u in sp.u0_nonf3_elements(f5)}
    assert 0 in eps3
    assert 1 in eps5


def test_epsilon_equals_three_solution_indicator(f3, f5):
    # epsilon = 1 exactly when one of z = 1 +- u predicts three solutions,
    # i.e. carries chi(g4) = chi(g5) = 1 on top of the special-point hit.
    for ctx in (f3, f5):
        for u in sp.u0_nonf3_elements(ctx):
            su = cs.ScopedU(ctx, u)
            hits = 0
            for z in (ctx.add(1, u), ctx.sub(1, u)):
                s = oracles.g_signs(su, z)
                if s[3] == 1 and s[4] == 1:
                    hits += 1
            assert sp.epsilon(su) == hits


def test_epsilon_matches_census_at_special_rows(f3):
    for u in sp.u0_nonf3_elements(f3):
        su = cs.ScopedU(f3, u)
        pred = cn.prediction_by_z(su)
        three_rows = sum(int(pred[z]) == 3 for z in (f3.add(1, u), f3.sub(1, u)))
        assert sp.epsilon(su) == three_rows


# ---------------------------------------------------------------------------
# the closed form
# ---------------------------------------------------------------------------


def test_closed_form_matches_bruteforce_n3(f3):
    for u in sp.u0_nonf3_elements(f3):
        closed = closed_form(f3, u)
        brute = ness.spectrum_bruteforce(f3, ness.ddt_row(f3, u))
        assert closed == brute


@pytest.mark.parametrize("name, patched", [("gamma3", 12), ("gamma4", 36)])
def test_closed_form_inputs_check_weil_bounds(monkeypatch, f3, name, patched):
    """At q = 27 the triple (eps, gamma3, gamma4) = (0, -4, 4) is realised.
    Moving gamma3 to 12 (144 > 4q) or gamma4 to 36 (1296 > 16q) keeps every
    divisibility of the closed form, so only the bound check can catch it."""
    u = next(u for u in sp.u0_nonf3_elements(f3)
             if sp.closed_form_inputs(cs.ScopedU(f3, u)) == {"epsilon": 0, "gamma3": -4,
                                                             "gamma4": 4})
    bad = {"gamma3": -4, "gamma4": 4, "epsilon": 0, name: patched}
    sp.spectrum_closed_form(f3, **bad)  # divides out exactly
    monkeypatch.setattr(sp, name, lambda su: patched)
    with pytest.raises(InconsistencyError, match=f"u={f3.format_element(u)}: {name} = {patched}"):
        sp.closed_form_inputs(cs.ScopedU(f3, u))


def test_closed_form_frozen_paper_examples(f3, f5):
    by_triple_3 = {}
    for u in sp.u0_nonf3_elements(f3):
        ins = sp.closed_form_inputs(cs.ScopedU(f3, u))
        by_triple_3[tuple(ins.values())] = sp.spectrum_closed_form(f3, **ins)
    assert by_triple_3[(0, -4, 4)] == [286, 208, 156, 26, 26]

    for u in sp.u0_nonf3_elements(f5):
        ins = sp.closed_form_inputs(cs.ScopedU(f5, u))
        if tuple(ins.values()) == (1, -4, 12):
            assert sp.spectrum_closed_form(f5, **ins) == [
                27346, 11616, 14278, 3630, 1936,
            ]
            break
    else:
        pytest.fail("no u at n=5 realises the (1, -4, 12) parameter triple")


def test_closed_form_counting_identities(f3, f5):
    for ctx in (f3, f5):
        for u in sp.u0_nonf3_elements(ctx):
            assert oracles.counting_identities_hold(closed_form(ctx, u), ctx.q)


def test_closed_form_divisibility(f3, f5):
    for ctx in (f3, f5):
        q = ctx.q
        for u in sp.u0_nonf3_elements(ctx):
            ins = sp.closed_form_inputs(cs.ScopedU(ctx, u))
            assert (15 * q - 17 - ins["gamma4"]) % 32 == 0
            assert (3 * q + 3 + 2 * ins["gamma3"] + ins["gamma4"]) % 16 == 0
            assert (q - 7 - ins["gamma3"]) % 4 == 0
            assert (q + 1 + 2 * ins["gamma3"] - ins["gamma4"]) % 16 == 0
            assert (q + 1 + ins["gamma4"]) % 32 == 0


def test_closed_form_last_entry_positive(f3, f5):
    for ctx in (f3, f5):
        for u in sp.u0_nonf3_elements(ctx):
            assert closed_form(ctx, u)[4] > 0


def test_closed_form_rejects_out_of_scope(f3):
    for u in (0, 1, 2):
        with pytest.raises(ValueError):
            closed_form(f3, u)
    outside = next(
        u for u in range(f3.q) if cs.classify_u(f3, u) in ("U10", "U11")
    )
    with pytest.raises(ValueError):
        closed_form(f3, outside)


def test_verify_theorem_record_shape(f3):
    u = sp.u0_nonf3_elements(f3)[0]
    rec = sp.verify_theorem_record(cs.ScopedU(f3, u))
    assert set(rec) == {  # the CLI writes u
        "class", "epsilon", "gamma3", "gamma4",
        "closed_form", "brute_force", "match",
    }
    assert rec["match"] is True
    assert rec["class"] == "U0_nonF3"
