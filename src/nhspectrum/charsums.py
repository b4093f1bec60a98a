"""Quadratic character sums over GF(3^n) and the five classifier polynomials.

For a parameter u with chi(u+1) != chi(u-1) and u outside GF(3), the element
1 - u^2 is a square; write r for its canonical root (chi(r) = 1) and
phi = 1 + r.  The classifier family in one variable z is

    g1(z) = -(u+1) z
    g2(z) = z (z - 1 - u)
    g3(z) = z (z - 1 + u)
    g4(z) = z^2 - z + u^2        (roots -1 +- r)
    g5(z) = -phi (z + 1 - r)

The signs chi(g_i(z)) at z = a*b classify how many x solve the derivative
equation of the Ness-Helleseth function at (a, b); sums of chi over products
of the g_i reduce the differential spectrum to two character sums.  This
module evaluates all such sums exactly, over every z of the field, and
checks them against their known closed forms.  Since chi is multiplicative
(chi(0) = 0), every such sum is a sum of products of the five sign vectors
chi(g_i(z)) (`ScopedU.signs`); the tests keep the polynomials evaluated one
z at a time and multiplied in the field as the oracle.  `ScopedU` holds
one in-scope u and everything derived from it, each built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import ness
from .field import FieldCtx

G_IDS = (1, 2, 3, 4, 5)


def in_theorem_scope(ctx: FieldCtx, u: int) -> bool:
    """True when u is outside GF(3) and chi(u+1) != chi(u-1)."""
    if u in (0, 1, 2):
        return False
    return ctx.chi(ctx.add(u, 1)) != ctx.chi(ctx.sub(u, 1))


@dataclass(frozen=True)
class ScopedU:
    """One u with `in_theorem_scope(ctx, u)`, else construction raises ValueError.

    The other fields are built on first use and kept: one object per u
    builds each of them at most once.
    """

    ctx: FieldCtx
    u: int

    def __post_init__(self):
        if not in_theorem_scope(self.ctx, self.u):
            raise ValueError(f"u = {self.ctx.format_element(self.u)} needs "
                             "chi(u+1) != chi(u-1) and u outside GF(3)")

    @cached_property
    def r(self) -> int:
        """Canonical root of 1 - u^2 (a square whenever u is in scope)."""
        return self.ctx.sqrt_canonical(self.ctx.sub(1, self.ctx.mul(self.u, self.u)))

    @cached_property
    def signs(self) -> np.ndarray:
        """(5, q) int8 array: row i - 1 is chi(g_i(z)) for every z."""
        return np.stack([self.ctx.chi_vec(g_values(self, gid)).astype(np.int8) for gid in G_IDS])

    @cached_property
    def chi_z2mu2(self) -> np.ndarray:
        """chi(z^2 - u^2) for every z."""
        ctx, z = self.ctx, np.arange(self.ctx.q, dtype=np.int64)
        return ctx.chi_vec(ctx.sub_vec(ctx.mul_vec(z, z), np.int64(ctx.mul(self.u, self.u))))

    @cached_property
    def one_pm_u(self) -> np.ndarray:
        """Boolean mask of z in {1 + u, 1 - u}."""
        z = np.arange(self.ctx.q, dtype=np.int64)
        return (z == self.ctx.add(1, self.u)) | (z == self.ctx.sub(1, self.u))

    @cached_property
    def rows(self) -> ness.DDTRows:
        """`ness.ddt_rows`: delta(1, .) and delta(g, .)."""
        return ness.ddt_rows(self.ctx, self.u)


# ---------------------------------------------------------------------------
# generic character sums
# ---------------------------------------------------------------------------


def char_sum(ctx: FieldCtx, coeffs: Sequence[int]) -> int:
    """Exact sum of chi(poly(z)) over all z; coeffs lowest degree first.

    Horner's rule from the scalar leading coefficient; zero coefficients add nothing.
    """
    if not any(coeffs):
        raise ValueError("character sum of the zero polynomial is not defined")
    zs = np.arange(ctx.q, dtype=np.int64)
    acc = np.int64(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = ctx.mul_vec(acc, zs)
        if c:
            acc = ctx.add_vec(acc, np.int64(c))
    return int(np.broadcast_to(ctx.chi_vec(acc), zs.shape).sum())


def quadratic_char_sum(ctx: FieldCtx, a2: int, a1: int, a0: int) -> int:
    """Closed form for sum of chi(a2 z^2 + a1 z + a0): -chi(a2) when the
    discriminant a1^2 - 4 a0 a2 is nonzero, else (q-1) chi(a2)."""
    if a2 == 0:
        raise ValueError("leading coefficient must be nonzero")
    d = ctx.sub(ctx.mul(a1, a1), ctx.mul(a0, a2))  # 4 == 1 in characteristic 3
    if d != 0:
        return -ctx.chi(a2)
    return (ctx.q - 1) * ctx.chi(a2)


# ---------------------------------------------------------------------------
# the g family
# ---------------------------------------------------------------------------


def g_values(su: ScopedU, gid: int) -> np.ndarray:
    """g_gid(z) for every z in the field, as one index array; the tests
    evaluate each z with the scalar ops as the oracle."""
    ctx, u = su.ctx, su.u
    z = np.arange(ctx.q, dtype=np.int64)
    if gid == 1:
        return ctx.mul_vec(np.int64(ctx.neg(ctx.add(u, 1))), z)
    if gid == 2:
        return ctx.mul_vec(z, ctx.sub_vec(z, np.int64(ctx.add(1, u))))
    if gid == 3:
        return ctx.mul_vec(z, ctx.sub_vec(z, np.int64(ctx.sub(1, u))))
    if gid == 4:
        return ctx.add_vec(ctx.sub_vec(ctx.mul_vec(z, z), z), np.int64(ctx.mul(u, u)))
    if gid == 5:
        return ctx.mul_vec(
            np.int64(ctx.neg(ctx.add(1, su.r))),
            ctx.sub_vec(ctx.add_vec(z, np.int64(1)), np.int64(su.r)),
        )
    raise ValueError(f"gid must be 1..5, got {gid}")


def g_sign_product_sum(signs: np.ndarray, gids: Iterable[int]) -> int:
    """Sum over z of chi(prod of the selected g_i) from the rows of `ScopedU.signs`,
    as chi(x y) = chi(x) chi(y)."""
    rows = signs[np.asarray(tuple(gids)) - 1]
    return int(np.prod(rows, axis=0, dtype=np.int64).sum())


# ---------------------------------------------------------------------------
# the five-point set A and the sign table on it
# ---------------------------------------------------------------------------


def set_a_points(su: ScopedU) -> tuple[int, int, int, int, int]:
    """A = {0, 1+u, 1-u, -1+r, -1-r}: all zeros of the g family."""
    ctx, u, r = su.ctx, su.u, su.r
    return (
        0,
        ctx.add(1, u),
        ctx.sub(1, u),
        ctx.add(ctx.neg(1), r),
        ctx.sub(ctx.neg(1), r),
    )


def table_a_chi(su: ScopedU) -> list[list[int]]:
    """chi(g_i(x)) for x in A (rows) and i = 1..5 (columns), by evaluation."""
    return su.signs[:, list(set_a_points(su))].T.tolist()


def table_a_expected(su: ScopedU) -> list[list[int]]:
    """The same grid from its closed-form entries in terms of u and r."""
    ctx, u, r = su.ctx, su.u, su.r
    chi, mul, add, sub, neg = ctx.chi, ctx.mul, ctx.add, ctx.sub, ctx.neg
    u2 = mul(u, u)
    up1, um1 = add(u, 1), sub(u, 1)
    chi_u2pu = chi(add(u2, u))      # chi(u^2 + u)
    chi_umu2 = chi(sub(u, u2))      # chi(u - u^2)
    row_0 = [0, 0, 0, 1, -1]
    row_1pu = [
        -1,
        0,
        -chi_u2pu,
        chi_umu2,
        -chi(add(mul(up1, r), mul(um1, um1))),
    ]
    row_1mu = [
        -1,
        chi_umu2,
        0,
        -chi_u2pu,
        -chi(add(mul(sub(1, u), r), mul(up1, up1))),
    ]
    row_m1pr = [
        -1,
        -chi(u) * chi(add(sub(u, 1), r)),
        chi(u) * chi(add(neg(add(1, u)), r)),
        0,
        0,
    ]
    row_m1mr = [
        -1,
        chi(u) * chi(add(sub(1, u), r)),
        -chi(u) * chi(add(add(1, u), r)),
        0,
        chi(sub(sub(u2, 1), r)),
    ]
    return [row_0, row_1pu, row_1mu, row_m1pr, row_m1mr]


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """One verified character-sum identity: brute-force lhs vs closed-form rhs."""

    name: str
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {"identity": self.name, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


def section2_identities(su: ScopedU) -> list[IdentityReport]:
    """All 18 closed-form identities for the g-family character sums.

    Single-product sums come first, then the paired sums whose individual
    values depend on u but whose totals do not (or collapse to one chi).
    """
    ctx, u, r = su.ctx, su.u, su.r
    chi_phi = ctx.chi(ctx.add(1, r))
    chi_r1pu = ctx.chi(ctx.add(ctx.add(r, 1), u))  # chi(r + 1 + u)
    chi_r1mu = ctx.chi(ctx.sub(ctx.add(r, 1), u))  # chi(r + 1 - u)

    def s(*gids: int) -> int:
        return g_sign_product_sum(su.signs, gids)

    checks: list[tuple[str, int, int]] = [
        ("g1g2", s(1, 2), -1),
        ("g1g3", s(1, 3), -1),
        ("g1g5", s(1, 5), 1),
        ("g2g3", s(2, 3), -2),
        ("g1g2g5", s(1, 2, 5), 2),
        ("g1g3g5", s(1, 3, 5), 2),
        ("g4g5", s(4, 5), -chi_phi),
        ("g1g4g5", s(1, 4, 5), 1 + chi_phi),
        ("g1g3g4g5", s(1, 3, 4, 5), 2 - chi_r1pu),
        ("g1g2g4g5", s(1, 2, 4, 5), 2 - chi_r1mu),
        ("g2g3g4", s(2, 3, 4), -2),
        ("g1g4+g1g2g3", s(1, 4) + s(1, 2, 3), 0),
        ("g2g4+g1g2g4", s(2, 4) + s(1, 2, 4), -2),
        ("g3g4+g1g3g4", s(3, 4) + s(1, 3, 4), -2),
        ("g2g3g5+g1g2g3g5", s(2, 3, 5) + s(1, 2, 3, 5), 2),
        ("g2g3g4g5+g1g2g3g4g5", s(2, 3, 4, 5) + s(1, 2, 3, 4, 5), 2),
        ("g2g5+g3g4g5", s(2, 5) + s(3, 4, 5), chi_r1pu),
        ("g3g5+g2g4g5", s(3, 5) + s(2, 4, 5), chi_r1mu),
    ]
    return [IdentityReport(name, lhs, rhs) for name, lhs, rhs in checks]
