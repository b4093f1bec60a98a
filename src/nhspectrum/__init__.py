"""Differential spectrum of the Ness-Helleseth binomial over GF(3^n).

Three independent routes to the same numbers, cross-checked exactly:
brute-force DDT accumulation, the per-pair solution census, and the
closed form in two character sums.
"""

from .solution_census import (
    case_solutions,
    census,
    prediction_by_z,
    special_point_solutions,
    verify_predictions,
)
from .charsums import (
    ScopedU,
    classify_u,
    section2_identities,
    set_a_points,
)
from .field import FieldCtx, InconsistencyError, ReducibleModulusError, make_context
from .ness import ddt_row, spectrum_bruteforce
from .rng import SplitMix64
from .spectrum import (
    closed_form_inputs,
    epsilon,
    gamma3,
    gamma4,
    spectrum_closed_form,
    u0_nonf3_elements,
    verify_theorem_record,
)

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "InconsistencyError",
    "ReducibleModulusError",
    "ScopedU",
    "SplitMix64",
    "case_solutions",
    "census",
    "classify_u",
    "closed_form_inputs",
    "ddt_row",
    "epsilon",
    "gamma3",
    "gamma4",
    "make_context",
    "prediction_by_z",
    "section2_identities",
    "set_a_points",
    "special_point_solutions",
    "spectrum_bruteforce",
    "spectrum_closed_form",
    "u0_nonf3_elements",
    "verify_predictions",
    "verify_theorem_record",
]
