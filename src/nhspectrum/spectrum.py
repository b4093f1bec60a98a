"""Closed-form differential spectrum of f_u for chi(u+1) != chi(u-1).

The parameter space splits by the character pattern of (u-1, u, u+1)
(`charsums.classify_u`):

  * U0:  chi(u+1) != chi(u-1); its members outside GF(3) are the theorem's
    domain and give differential uniformity 4,
  * U10: chi(u+1) == chi(u-1) != chi(u), differentially 3-uniform,
  * U11: chi(u+1) == chi(u-1) == chi(u), almost perfect nonlinear.

For in-scope u the spectrum is a closed function of two character sums,

  gamma3 = sum_z chi(g1 g4) = -chi(u+1) * sum_z chi(z^3 - z^2 + u^2 z),
  gamma4 = sum_z chi(g1 g2 g3 g4)
         = -chi(u+1) * sum_z chi(z^5 - (u^2+1) z^2 + (u^2-u^4) z),

plus an indicator epsilon marking whether z = 1 +- u contributes a row with
three solutions.  Both sums are read off the pattern histogram
(`ScopedU.product_sums`); the tests check them against the g polynomials
multiplied in the field and against the reduced cubic and quintic summed
by Horner's rule.  Each sum must meet its Weil bound, and all five omega
values must divide out exactly in integers; any failure is raised as an
inconsistency naming u rather than rounded away.
"""

from __future__ import annotations

import numpy as np

from . import charsums
from .field import FieldCtx, InconsistencyError
from .ness import spectrum_bruteforce


def u0_nonf3_elements(ctx: FieldCtx) -> np.ndarray:
    """Every u of class `charsums.CLASS_U0`, in enumeration order, as an index
    array: the scope rule of `charsums.classify_u` as one mask over the field,
    chi(u + 1) against chi(u - 1).  u + 1 and u - 1 differ from u in digit 0
    alone: with chi of every element as a (q / 3, 3) grid, column d of the
    mask compares the other two columns, d + 1 and d - 1 (mod 3)."""
    chi = ctx.chi_table.reshape(-1, 3)
    mask = np.empty(chi.shape, dtype=bool)
    for d in range(3):
        np.not_equal(chi[:, (d + 1) % 3], chi[:, (d - 1) % 3], out=mask[:, d])
    mask = mask.ravel()
    mask[:3] = False  # GF(3)
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# the two character sums and the epsilon indicator
# ---------------------------------------------------------------------------


def gamma3(su: charsums.ScopedU) -> int:
    """sum_z chi(g1 g4), from the pattern histogram."""
    return su.product_sum(1, 4)


def gamma4(su: charsums.ScopedU) -> int:
    """sum_z chi(g1 g2 g3 g4), from the pattern histogram."""
    return su.product_sum(1, 2, 3, 4)


def epsilon(su: charsums.ScopedU) -> int:
    """1 when z = 1+u (resp. 1-u) carries three solutions, else 0.

    That happens exactly when chi(u) sides with chi(u+1) and
    chi((1+u) r + (u-1)^2) = -1, or chi(u) sides with chi(u-1) and
    chi((1-u) r + (u+1)^2) = -1, with r the canonical root of 1 - u^2.  As
    (u-1)^2 = (1-u)^2, both tests read only 1 +- u, from `ScopedU.points`.
    """
    ctx, r, (_, one_pu, one_mu, _, _) = su.ctx, su.r, su.points
    lead, square = (one_pu, one_mu) if ctx.chi(su.u) == ctx.chi(one_pu) else (one_mu, one_pu)
    return int(ctx.chi(ctx.add(ctx.mul(lead, r), ctx.mul(square, square))) == -1)


def closed_form_inputs(su: charsums.ScopedU) -> dict:
    """{"epsilon", "gamma3", "gamma4"}: everything the closed form consumes,
    each sum checked against its Weil bound.

    g1 g4 is -(u+1) z (z + 1 - r)(z + 1 + r), three distinct zeros, so
    gamma3^2 <= 4q (Hasse); the quintic of gamma4 has the five distinct zeros
    of A (genus 2), so gamma4^2 <= 16q.  Compared in integers, never rounded.
    """
    q = su.ctx.q
    ins = {"epsilon": epsilon(su), "gamma3": gamma3(su), "gamma4": gamma4(su)}
    for name, bound in (("gamma3", 4 * q), ("gamma4", 16 * q)):
        if ins[name] ** 2 > bound:
            raise InconsistencyError(f"u={su.ctx.format_element(su.u)}: {name} = {ins[name]} "
                                     f"breaks its Weil bound {name}^2 <= {bound}")
    return ins


# ---------------------------------------------------------------------------
# the closed form
# ---------------------------------------------------------------------------


def _exact_div(num: int, den: int, what: str) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise InconsistencyError(f"{what}: {num} is not divisible by {den}")
    return quot


def spectrum_closed_form(ctx: FieldCtx, epsilon: int, gamma3: int, gamma4: int) -> list[int]:
    """The five-entry spectrum [omega0..omega4] from (epsilon, gamma3, gamma4)."""
    q, e, g3, g4 = ctx.q, epsilon, gamma3, gamma4
    w0 = (q - 1) * (-1 + e + _exact_div(15 * q - 17 - g4, 32, "omega0"))
    w1 = (q - 1) * (3 - e + _exact_div(3 * q + 3 + 2 * g3 + g4, 16, "omega1"))
    w2 = (q - 1) * (-e + _exact_div(q - 7 - g3, 4, "omega2"))
    w3 = (q - 1) * (e + _exact_div(q + 1 + 2 * g3 - g4, 16, "omega3"))
    w4 = (q - 1) * _exact_div(q + 1 + g4, 32, "omega4")
    return [w0, w1, w2, w3, w4]


def verify_theorem_record(su: charsums.ScopedU) -> dict:
    """Closed form vs brute force for one u, as a JSON-ready record."""
    ctx = su.ctx
    ins = closed_form_inputs(su)
    try:
        closed = spectrum_closed_form(ctx, **ins)
    except InconsistencyError as exc:
        raise InconsistencyError(f"u={ctx.format_element(su.u)}: {exc}") from exc
    brute = spectrum_bruteforce(ctx, su.row)
    return {"class": charsums.CLASS_U0, **ins,
            "closed_form": closed, "brute_force": brute, "match": closed == brute}
