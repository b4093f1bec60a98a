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
of the g_i reduce the differential spectrum to two character sums.

Every g_i splits over the field, and its zeros lie in the five-point set
A = {0, 1+u, 1-u, -1+r, -1-r} (`ScopedU.points`, the one writer of 1 +- u,
which `spectrum.epsilon` and the census read too).  Since chi is
multiplicative (chi(0) = 0), chi(g_i(z)) is chi of the leading coefficient
times the product of chi(z - a) over the zeros a of g_i.  So every sign
depends on z only through the five characters chi(z - a), and
`ScopedU.pattern` stores them as one byte per z, one of 243 patterns packed
by `FieldCtx.chi_pattern` from slices of one table per field, with no
field addition per u.  Only g1 and g5 have a leading coefficient other than 1,
and their signs are -chi(u+1) and chi(u+1), so one bit of u
(`ScopedU.lead`) and the pattern of z give every sign: `PATTERN_SIGNS`
holds (s0, ..., s5) for each lead and pattern, a sixth sign chi(g0(z))
with g0(z) = z riding along, and `PATTERN_PRODUCTS`, compiled from it at
import, chi of each product of the g_i.  Every character sum of a product
of the g_i is a dot product of the pattern histogram with one of the 32
vectors of the lead row of u, so one matrix-vector product gives all 32
(`ScopedU.product_sums`, kept as 32 ints).  The pattern stays in the log order of the
columns (slot `FieldCtx.slot(z)` for z), as does the DDT row `ScopedU.row`,
so they are compared slot by slot and nothing per u is gathered back to
element order.  The tests keep the polynomials evaluated over the field as
the oracle.  `ScopedU` holds one in-scope u (`classify_u` is the scope
rule) and everything derived from it, the DDT row a = 1 among them, each
built once; the scope rule reads the characters of u and u +- 1 off the
character table, with no field addition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ness
from .field import FieldCtx, built_once

G_IDS = (1, 2, 3, 4, 5)

# The zeros of g0(z) = z and g1..g5 as positions in `ScopedU.points`; each
# g_i is its leading coefficient times the product of (z - a) over them.
G_ZEROS = ((0,), (0,), (0, 1), (0, 2), (3, 4), (3,))


def _pattern_signs() -> np.ndarray:
    """2 x 243 x 6 int8: lead l, pattern p holds the signs (s0, ..., s5),
    s_i = chi(g_i(z)), at a z with `ScopedU.pattern` p for a u with
    `ScopedU.lead` l.  s_i is the lead of g_i times the product of chi(z - a)
    over its zeros a (`G_ZEROS`), each digit of p minus 1.  g0 and g2..g4
    lead with 1, and g1 and g5 with -chi(u+1) and chi(u+1): -1 is a
    nonsquare, and chi(1+r) = -chi(1+u), as (1+u)(1+r) = -(1+u+r)^2 in
    characteristic 3 and 1+u+r != 0 for u outside GF(3)."""
    chars = np.array(list(itertools.product((-1, 0, 1), repeat=5)), dtype=np.int8)[:, ::-1]
    signs = np.stack([chars[:, zeros].prod(axis=1, dtype=np.int8) for zeros in G_ZEROS], axis=1)
    leads = np.ones((2, 1, len(G_ZEROS)), dtype=np.int8)
    leads[:, 0, [1, 5]] = ((-1, 1), (1, -1))
    signs = leads * signs
    signs.flags.writeable = False
    return signs


def _pattern_products(signs: np.ndarray) -> np.ndarray:
    """2 x 32 x 243 int8: lead l, column m, pattern p is chi of the product of
    the g_i over the set bits i - 1 of m (column 0 is all ones), as chi(x y) =
    chi(x) chi(y).  Each g_i doubles the columns: the old ones, then the old
    ones times s_i."""
    products = np.ones((*signs.shape[:2], 1), dtype=np.int8)
    for gid in G_IDS:
        products = np.concatenate([products, products * signs[..., [gid]]], axis=2)
    products = np.ascontiguousarray(products.transpose(0, 2, 1))
    products.flags.writeable = False
    return products


PATTERN_SIGNS = _pattern_signs()
PATTERN_PRODUCTS = _pattern_products(PATTERN_SIGNS)

# The column of `PATTERN_PRODUCTS` of each product, by its g_i in increasing order.
_COLUMN = {tuple(gid for gid in G_IDS if m >> (gid - 1) & 1): m
           for m in range(PATTERN_PRODUCTS.shape[1])}

CLASS_F3 = "F3"
CLASS_U0 = "U0_nonF3"
CLASS_U10 = "U10"
CLASS_U11 = "U11"


def classify_u(ctx: FieldCtx, u: int) -> str:
    """The class label of u in range(q), from chi of (u-1, u, u+1); members
    of GF(3) are labelled F3 regardless.  The theorem's scope is `CLASS_U0`:
    u outside GF(3) and chi(u+1) != chi(u-1).  As u +- 1 differ from u in
    digit 0 alone, the three are the row of u in the (q / 3, 3) grid of chi
    that `spectrum.u0_nonf3_elements` compares column by column."""
    if not 0 <= u < ctx.q:
        raise ValueError(f"element index out of range: {u}")
    if u < 3:
        return CLASS_F3
    row, d = divmod(u, 3)
    chi = ctx.chi_table.reshape(-1, 3)[row]
    chi_p = chi.item((d + 1) % 3)
    if chi_p != chi.item((d - 1) % 3):
        return CLASS_U0
    return CLASS_U10 if chi.item(d) != chi_p else CLASS_U11


class OutOfScopeError(ValueError):
    """A u outside the theorem's scope; the message names u and its class,
    which `label` holds."""

    def __init__(self, message: str, label: str):
        super().__init__(message)
        self.label = label


@dataclass(frozen=True)
class ScopedU:
    """One u of class `CLASS_U0`, else construction raises `OutOfScopeError`.

    The other fields (r, points, lead, pattern, product_sums and the DDT
    row) are built on first use and kept: one object per u builds each of
    them at most once.
    """

    ctx: FieldCtx
    u: int

    def __post_init__(self):
        if (label := classify_u(self.ctx, self.u)) != CLASS_U0:
            raise OutOfScopeError("needs u with chi(u+1) != chi(u-1) outside GF(3); "
                                  f"u={self.ctx.format_element(self.u)} is in class {label}", label)

    @built_once
    def r(self) -> int:
        """Canonical root of 1 - u^2 (a square whenever u is in scope)."""
        return self.ctx.sqrt_canonical(self.ctx.sub(1, self.ctx.mul(self.u, self.u)))

    @built_once
    def points(self) -> tuple[int, int, int, int, int]:
        """A = (0, 1+u, 1-u, -1+r, -1-r): all zeros of the g family (`G_ZEROS`)."""
        ctx, u, r = self.ctx, self.u, self.r
        return 0, ctx.add(1, u), ctx.sub(1, u), ctx.add(2, r), ctx.sub(2, r)  # 2 is -1

    @built_once
    def lead(self) -> int:
        """The lead row of this u in `PATTERN_SIGNS` and `PATTERN_PRODUCTS`: 0
        where chi(1+u) = 1, else 1."""
        return int(self.ctx.chi(self.points[1]) == -1)

    @built_once
    def pattern(self) -> np.ndarray:
        """uint8 per z, in log order (slot `FieldCtx.slot(z)`, z = 0 last): the
        sum over i of 3^i (chi(z - a_i) + 1), a_i the i-th of `points`, one of
        243 patterns (`FieldCtx.chi_pattern`)."""
        return self.ctx.chi_pattern(self.points)

    @built_once
    def product_sums(self) -> list[int]:
        """Sum over z of chi of the product of the g_i selected by m, for each
        column m of `PATTERN_PRODUCTS`: the lead row of u there times the
        pattern histogram (how many z carry each of the 243 patterns), exact
        in int64, as 32 ints."""
        products = PATTERN_PRODUCTS[self.lead]
        return (products @ np.bincount(self.pattern, minlength=products.shape[1])).tolist()

    def product_sum(self, *gids: int) -> int:
        """Sum over z of chi(prod of the selected g_i), gids in increasing order."""
        return self.product_sums[_COLUMN[gids]]

    @built_once
    def row(self) -> np.ndarray:
        """`ness.ddt_row`: delta(1, z) for every z in log order, as `pattern`,
        so delta(a, b) = row[ctx.slot(a b)]."""
        return ness.ddt_row(self.ctx, self.u)


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


def section2_identities(su: ScopedU) -> list[dict]:
    """All 18 closed-form identities for the g-family character sums, one
    record {"identity", "lhs", "rhs", "pass"} each: the sum read off the
    pattern histogram (lhs) against its closed form (rhs).

    Single-product sums come first, then the paired sums whose individual
    values depend on u but whose totals do not (or collapse to one chi).
    """
    ctx, r, (_, one_pu, one_mu, _, _) = su.ctx, su.r, su.points
    chi_phi = ctx.chi(ctx.add(r, 1))
    chi_r1pu = ctx.chi(ctx.add(r, one_pu))  # chi(r + 1 + u)
    chi_r1mu = ctx.chi(ctx.add(r, one_mu))  # chi(r + 1 - u)
    s = su.product_sum

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
    return [{"identity": name, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}
            for name, lhs, rhs in checks]
