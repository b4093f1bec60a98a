"""Closed-form differential spectrum of f_u for chi(u+1) != chi(u-1).

The parameter space splits by the character pattern of (u-1, u, u+1):

  * U0:  chi(u+1) != chi(u-1); its members outside GF(3) are the theorem's
    domain and give differential uniformity 4,
  * U10: chi(u+1) == chi(u-1) != chi(u), differentially 3-uniform,
  * U11: chi(u+1) == chi(u-1) == chi(u), almost perfect nonlinear.

For in-scope u the spectrum is a closed function of two character sums,

  gamma3 = sum_z chi(g1 g4) = -chi(u+1) * sum_z chi(z^3 - z^2 + u^2 z),
  gamma4 = sum_z chi(g1 g2 g3 g4)
         = -chi(u+1) * sum_z chi(z^5 - (u^2+1) z^2 + (u^2-u^4) z),

plus an indicator epsilon marking whether z = 1 +- u contributes a row with
three solutions.  All five omega values divide out exactly in integers; any
remainder is raised as an inconsistency rather than rounded away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charsums
from .field import FieldCtx, InconsistencyError
from .ness import DDTRows, Spectrum

CLASS_F3 = "F3"
CLASS_U0 = "U0_nonF3"
CLASS_U10 = "U10"
CLASS_U11 = "U11"


@dataclass(frozen=True)
class UClass:
    """Character pattern of (u-1, u, u+1) and the resulting parameter class."""

    label: str
    chi_u: int
    chi_u_plus_1: int
    chi_u_minus_1: int

    @property
    def in_theorem_scope(self) -> bool:
        return self.label == CLASS_U0


def classify_u(ctx: FieldCtx, u: int) -> UClass:
    """Classify u; members of GF(3) are flagged F3 regardless of pattern."""
    chi_u = ctx.chi(u)
    chi_p = ctx.chi(ctx.add(u, 1))
    chi_m = ctx.chi(ctx.sub(u, 1))
    if u in (0, 1, 2):
        label = CLASS_F3
    elif chi_p != chi_m:
        label = CLASS_U0
    elif chi_u != chi_p:
        label = CLASS_U10
    else:
        label = CLASS_U11
    return UClass(label, chi_u, chi_p, chi_m)


def u0_nonf3_elements(ctx: FieldCtx) -> list[int]:
    """Every in-scope u, in enumeration order (`charsums.in_theorem_scope` over the field)."""
    x = np.arange(ctx.q, dtype=np.int64)
    mask = ctx.chi_vec(ctx.add_vec(x, np.int64(1))) != ctx.chi_vec(ctx.sub_vec(x, np.int64(1)))
    mask[:3] = False  # GF(3)
    return np.flatnonzero(mask).tolist()


# ---------------------------------------------------------------------------
# the two character sums and the epsilon indicator
# ---------------------------------------------------------------------------


def gamma3(ctx: FieldCtx, u: int) -> int:
    """-chi(u+1) * sum_z chi(z^3 - z^2 + u^2 z); the scan-friendly form."""
    charsums.require_scope(ctx, u)
    u2 = ctx.mul(u, u)
    return -ctx.chi(ctx.add(u, 1)) * charsums.char_sum(ctx, [0, u2, ctx.neg(1), 1])


def gamma3_from_products(ctx: FieldCtx, u: int) -> int:
    """sum_z chi(g1 g4); the defining form, kept as the oracle."""
    return charsums.g_product_sum(ctx, u, (1, 4))


def gamma4(ctx: FieldCtx, u: int) -> int:
    """-chi(u+1) * sum_z chi(z^5 - (u^2+1) z^2 + (u^2 - u^4) z)."""
    charsums.require_scope(ctx, u)
    u2 = ctx.mul(u, u)
    u4 = ctx.mul(u2, u2)
    coeffs = [0, ctx.sub(u2, u4), ctx.neg(ctx.add(u2, 1)), 0, 0, 1]
    return -ctx.chi(ctx.add(u, 1)) * charsums.char_sum(ctx, coeffs)


def gamma4_from_products(ctx: FieldCtx, u: int) -> int:
    """sum_z chi(g1 g2 g3 g4); the defining form, kept as the oracle."""
    return charsums.g_product_sum(ctx, u, (1, 2, 3, 4))


def epsilon(ctx: FieldCtx, u: int) -> int:
    """1 when z = 1+u (resp. 1-u) carries three solutions, else 0.

    That happens exactly when chi(u) sides with chi(u+1) and
    chi((u+1) r + (u-1)^2) = -1, or chi(u) sides with chi(u-1) and
    chi((1-u) r + (u+1)^2) = -1, with r the canonical root of 1 - u^2.
    """
    charsums.require_scope(ctx, u)
    r = charsums.sqrt_term(ctx, u)
    chi_u = ctx.chi(u)
    up1 = ctx.add(u, 1)
    um1 = ctx.sub(u, 1)
    if chi_u == ctx.chi(up1):
        probe = ctx.add(ctx.mul(up1, r), ctx.mul(um1, um1))
        return 1 if ctx.chi(probe) == -1 else 0
    probe = ctx.add(ctx.mul(ctx.sub(1, u), r), ctx.mul(up1, up1))
    return 1 if ctx.chi(probe) == -1 else 0


@dataclass(frozen=True)
class ClosedFormInputs:
    """Everything the closed form consumes, for one in-scope u."""

    gamma3: int
    gamma4: int
    epsilon: int
    sqrt_term: int
    phi: int


def closed_form_inputs(ctx: FieldCtx, u: int) -> ClosedFormInputs:
    r = charsums.sqrt_term(ctx, u)
    return ClosedFormInputs(
        gamma3=gamma3(ctx, u),
        gamma4=gamma4(ctx, u),
        epsilon=epsilon(ctx, u),
        sqrt_term=r,
        phi=ctx.add(1, r),
    )


# ---------------------------------------------------------------------------
# the closed form
# ---------------------------------------------------------------------------


def _exact_div(num: int, den: int, what: str) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise InconsistencyError(f"{what}: {num} is not divisible by {den}")
    return quot


def spectrum_closed_form(ctx: FieldCtx, u: int) -> Spectrum:
    """The five-entry spectrum [omega0..omega4] from (epsilon, gamma3, gamma4)."""
    ins = closed_form_inputs(ctx, u)
    q = ctx.q
    e, g3, g4 = ins.epsilon, ins.gamma3, ins.gamma4
    w0 = (q - 1) * (-1 + e + _exact_div(15 * q - 17 - g4, 32, "omega0"))
    w1 = (q - 1) * (3 - e + _exact_div(3 * q + 3 + 2 * g3 + g4, 16, "omega1"))
    w2 = (q - 1) * (-e + _exact_div(q - 7 - g3, 4, "omega2"))
    w3 = (q - 1) * (e + _exact_div(q + 1 + 2 * g3 - g4, 16, "omega3"))
    w4 = (q - 1) * _exact_div(q + 1 + g4, 32, "omega4")
    return Spectrum((w0, w1, w2, w3, w4), source="closed-form")


def verify_theorem_record(ctx: FieldCtx, u: int, rows: DDTRows | None = None) -> dict:
    """Closed form vs brute force for one u, as a JSON-ready record.

    ``rows`` is ``ddt_rows(ctx, u)`` when the caller has already built it.
    """
    from .ness import spectrum_bruteforce  # local import keeps module load light

    cls = classify_u(ctx, u)
    ins = closed_form_inputs(ctx, u)
    closed = spectrum_closed_form(ctx, u)
    brute = spectrum_bruteforce(ctx, u, rows=rows)
    return {
        "u": ctx.format_element(u),
        "class": cls.label,
        "epsilon": ins.epsilon,
        "gamma3": ins.gamma3,
        "gamma4": ins.gamma4,
        "closed_form": list(closed.omegas),
        "brute_force": list(brute.omegas),
        "match": list(closed.omegas) == list(brute.omegas),
    }
