"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every comparison here is exact integer equality.
"""

import random

import pytest

import oracles
from sampling import sample_u0_nonf3
from nhspectrum import charsums as cs
from nhspectrum import ness
from nhspectrum import solution_census as cn
from nhspectrum import spectrum as sp


def _closed_and_brute(ctx, u):
    su = cs.ScopedU(ctx, u)
    closed = sp.spectrum_closed_form(ctx, **sp.closed_form_inputs(su))
    return closed, ness.spectrum_bruteforce(ctx, su.row)


def _criterion(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({len(failures)} failures)" if failures else ""
    print(f"[acceptance] criterion {num} {status}: {description}{suffix}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def scope3(f3):
    return sp.u0_nonf3_elements(f3)


@pytest.fixture(scope="module")
def scope5(f5):
    return sp.u0_nonf3_elements(f5)


@pytest.fixture(scope="module")
def sampled7(f7):
    return sample_u0_nonf3(f7, 20, seed=42)


def test_criterion_1_theorem_equals_bruteforce_exhaustive(f3, f5, scope3, scope5):
    failures = []
    for ctx, scope in ((f3, scope3), (f5, scope5)):
        for u in scope:
            closed, brute = _closed_and_brute(ctx, u)
            if closed != brute:
                failures.append((ctx.n, u, closed, brute))
    _criterion(1, "closed form == brute force for every in-scope u at n=3 and n=5",
               failures)


def test_criterion_2_theorem_equals_bruteforce_sampled_n7(f7, sampled7):
    failures = []
    for u in sampled7:
        closed, brute = _closed_and_brute(f7, u)
        if closed != brute:
            failures.append((u, closed, brute))
    _criterion(2, "closed form == brute force for 20 seeded u at n=7", failures)


def test_criterion_3_paper_example_reproduction(f3, f5, f7, scope3, scope5):
    targets = {
        3: ((0, -4, 4), [286, 208, 156, 26, 26]),
        5: ((1, -4, 12), [27346, 11616, 14278, 3630, 1936]),
        7: ((1, -28, -12), [2240650, 891888, 1204486, 295110, 148648]),
    }
    failures = []
    for ctx, scope in ((f3, scope3), (f5, scope5), (f7, sp.u0_nonf3_elements(f7))):
        triple, expected = targets[ctx.n]
        hits = []
        for u in scope:
            ins = sp.closed_form_inputs(cs.ScopedU(ctx, u))
            if tuple(ins.values()) == triple:
                hits.append((u, ins))
        if not hits:
            failures.append((ctx.n, "triple not realised", triple))
            continue
        for u, ins in hits[:1]:
            if sp.spectrum_closed_form(ctx, **ins) != expected:
                failures.append((ctx.n, u, sp.spectrum_closed_form(ctx, **ins)))
    _criterion(3, "the three published example spectra are reproduced exactly",
               failures)


def test_criterion_4_identity_suite(f3, f5, f7, scope3, scope5, sampled7):
    failures = []
    for ctx, us in ((f3, scope3), (f5, scope5), (f7, sampled7)):
        for u in us:
            for rep in cs.section2_identities(cs.ScopedU(ctx, u)):
                if not rep["pass"]:
                    failures.append((ctx.n, u, rep))
    # degree-2 closed form: exhaustive at n=3, 1000 random triples at n=5
    for a2 in range(1, f3.q):
        for a1 in range(f3.q):
            for a0 in range(f3.q):
                if oracles.quadratic_char_sum(f3, a2, a1, a0) != oracles.char_sum(f3, [a0, a1, a2]):
                    failures.append((3, "quadratic", a2, a1, a0))
    rng = random.Random(1234)
    for _ in range(1000):
        a2 = rng.randrange(1, f5.q)
        a1 = rng.randrange(f5.q)
        a0 = rng.randrange(f5.q)
        if oracles.quadratic_char_sum(f5, a2, a1, a0) != oracles.char_sum(f5, [a0, a1, a2]):
            failures.append((5, "quadratic", a2, a1, a0))
    _criterion(4, "all 18 character-sum identities and the degree-2 closed form",
               failures)


def test_criterion_5_census_correctness(f3, f5, scope3):
    failures = []
    for u in scope3:  # exhaustive per-pair census at n=3
        ddt = oracles.ddt_table(f3, u)
        su = cs.ScopedU(f3, u)
        for a in range(1, f3.q):
            for b in range(f3.q):
                c = cn.census(su, a, b)
                hits = oracles.matching_conditions(su, a, b)
                ok = (
                    c["predicted"] == c["observed"] == int(ddt[a, b])
                    and len(hits) == 1
                    and hits[0][0] == c["observed"]
                    and cn.TABLE_IV_ROWS.get(oracles.table_key(c)) == c["predicted"]
                )
                if not ok:
                    failures.append((3, u, a, b))
    for u in sample_u0_nonf3(f5, 10, seed=77):  # all pairs, vectorised, at n=5
        report = cn.verify_predictions(cs.ScopedU(f5, u))
        if not report["ok"]:
            failures.append((5, u, report["mismatches"][:3]))
    _criterion(5, "predictions match direct counts for every (a, b); patterns admissible",
               failures)


def test_criterion_6_class_conditional_uniformity(f3, f5):
    expected = {"U11": 2, "U10": 3, "U0_nonF3": 4}
    failures = []
    for ctx in (f3, f5):
        for u in range(ctx.q):
            label = cs.classify_u(ctx, u)
            if label in expected:
                got = oracles.uniformity(ness.spectrum_bruteforce(ctx, ness.ddt_row(ctx, u)))
                if got != expected[label]:
                    failures.append((ctx.n, u, label, got))
    _criterion(6, "uniformity is 2 on U11, 3 on U10, 4 on in-scope u at n=3,5",
               failures)


def test_criterion_7_structural_invariants(f3, f5, scope3, scope5):
    failures = []
    for ctx, scope in ((f3, scope3), (f5, scope5)):
        q = ctx.q
        for u in scope:
            su = cs.ScopedU(ctx, u)
            ins = sp.closed_form_inputs(su)
            closed = sp.spectrum_closed_form(ctx, **ins)
            brute = ness.spectrum_bruteforce(ctx, su.row)
            if not all(oracles.counting_identities_hold(spec, q) for spec in (closed, brute)):
                failures.append((ctx.n, u, "counting identities"))
            divisibility = (
                (15 * q - 17 - ins["gamma4"]) % 32 == 0
                and (3 * q + 3 + 2 * ins["gamma3"] + ins["gamma4"]) % 16 == 0
                and (q - 7 - ins["gamma3"]) % 4 == 0
                and (q + 1 + 2 * ins["gamma3"] - ins["gamma4"]) % 16 == 0
                and (q + 1 + ins["gamma4"]) % 32 == 0
            )
            if not divisibility:
                failures.append((ctx.n, u, "divisibility"))
            if oracles.table_a_chi(su) != oracles.table_a_expected(su):
                failures.append((ctx.n, u, "sign table"))
            phi = ctx.add(1, su.r)
            if ctx.chi(ctx.mul(ctx.add(u, 1), phi)) != -1:
                failures.append((ctx.n, u, "chi((u+1) phi)"))
    _criterion(7, "counting identities, divisibility, sign table, chi((u+1)phi) = -1",
               failures)


def test_criterion_8_field_layer_properties(f3, f5, f7):
    failures = []
    for ctx in (f3, f5, f7):
        rng = random.Random(ctx.n)
        if ctx.chi(ctx.sub(0, 1)) != -1:
            failures.append((ctx.n, "chi(-1)"))
        for _ in range(1000):
            a = rng.randrange(1, ctx.q)
            b = rng.randrange(1, ctx.q)
            if ctx.chi(ctx.mul(a, b)) != ctx.chi(a) * ctx.chi(b):
                failures.append((ctx.n, "multiplicativity", a, b))
            s = ctx.mul(a, a)
            r = ctx.sqrt_canonical(s)
            if ctx.mul(r, r) != s or ctx.chi(r) != 1:
                failures.append((ctx.n, "sqrt", a))
            if ctx.mul(a, ctx.inv(a)) != 1 or ctx.inv(a) != ctx.pow(a, ctx.q - 2):
                failures.append((ctx.n, "inverse", a))
            e1 = rng.randrange(2 * ctx.q)
            e2 = rng.randrange(2 * ctx.q)
            if ctx.pow(a, e1 + e2) != ctx.mul(ctx.pow(a, e1), ctx.pow(a, e2)):
                failures.append((ctx.n, "pow additivity", a, e1, e2))
    _criterion(8, "chi, sqrt, inv and pow property suites (3 x 1000 randomized cases)",
               failures)
