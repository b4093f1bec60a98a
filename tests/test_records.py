"""Every record-returning library call returns plain JSON values.

The CLI writes what the checks return, adding only n, modulus and u (and
formatting a, b and z for ``census``).  So a numpy scalar, which
``json.dumps`` rejects, or a tuple, which comes back as a list, must not
reach a record: each one has to survive ``json.loads(json.dumps(x)) == x``.
"""

import json

import pytest

from nhspectrum import charsums, ness, rng, solution_census, spectrum
from nhspectrum.spectrum import u0_nonf3_elements

PAIRS_PER_U = 12


def _records(su: charsums.ScopedU) -> dict:
    """What each call returns for one u; ``census`` on b = 0, z = 1 + u and
    a seeded sample of pairs."""
    ctx, q = su.ctx, su.ctx.q
    ins = spectrum.closed_form_inputs(su)
    sampled = rng.sample_distinct(range((q - 1) * q), PAIRS_PER_U, seed=su.u)
    pairs = [(1, 0), (1, ctx.add(1, su.u))] + [(pid // q + 1, pid % q) for pid in sampled]
    return {
        "verify_theorem_record": spectrum.verify_theorem_record(su),
        "verify_predictions": solution_census.verify_predictions(su),
        "section2_identities": charsums.section2_identities(su),
        "census": [solution_census.census(su, a, b) for a, b in pairs],
        "closed_form_inputs": ins,
        "spectrum_bruteforce": ness.spectrum_bruteforce(ctx, su.row),
        "spectrum_closed_form": spectrum.spectrum_closed_form(ctx, **ins),
    }


@pytest.mark.parametrize("n", [3, 5])
def test_records_round_trip_through_json(f3, f5, n):
    """Every in-scope u at n = 3, a seeded sample of 8 at n = 5."""
    ctx = {3: f3, 5: f5}[n]
    us = u0_nonf3_elements(ctx).tolist() if n == 3 else rng.sample_u0_nonf3(ctx, 8, seed=5)
    for u in us:
        for call, value in _records(charsums.ScopedU(ctx, u)).items():
            assert json.loads(json.dumps(value)) == value, (n, u, call)
