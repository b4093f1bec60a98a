"""The Ness-Helleseth binomial over GF(3^n) and its difference distribution.

With q = 3^n, the function is f_u(x) = u x^d1 + x^d2 for d1 = (q-1)/2 - 1
and d2 = q - 2.  For nonzero x, x^d2 = 1/x and x^d1 = chi(x)/x, so
f_u(x) = (1 + u chi(x))/x: (1 + u)/x at squares and (1 - u)/x at
nonsquares.  `ddt_row` counts f_u(x + 1) - f_u(x) in that shape with
`FieldCtx.difference_row`, from Zech logarithms, and returns it in log
order; the tests count the row from f_u evaluated by polynomial arithmetic
on digit arrays, x^d1 as the product of the conjugates x^(3^i), as its
oracle (`oracles.row_by_polynomials`).

Also f_u(c x) = f_u(x)/c for every nonzero square c.  Substituting x -> c x
in f_u(x + c a) - f_u(x) = b gives delta(c a, b) = delta(a, c b).  Any
function has delta(-a, b) = delta(a, -b) (substitute x -> x - a), and -1
is a nonsquare for odd n, so delta(a, b) = delta(1, a b) for every a != 0
and every u: the row a = 1 determines the whole DDT.  The tests count every
row into the full q x q table as the oracle for that lemma.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx


def ddt_row(ctx: FieldCtx, u: int) -> np.ndarray:
    """delta(1, z) for every z, in log order (slot `FieldCtx.slot(z)`, z = 0
    last): the differences f_u(x + 1) - f_u(x) counted from Zech logarithms
    by `FieldCtx.difference_row`.  delta(a, b) is its entry at the slot of a b.
    It takes any u, for the out-of-scope `spectrum` records too, so it forms
    1 + u and 1 - u itself rather than read `ScopedU.points`."""
    return ctx.difference_row(ctx.add(1, u), ctx.sub(1, u))


def spectrum_bruteforce(ctx: FieldCtx, row: np.ndarray) -> list[int]:
    """Differential spectrum from the DDT row a = 1 (`ddt_row`); any u.

    omega_i, for i up to the largest DDT value, counts the (a, b) in F* x F
    with delta(a, b) = i.  Every row a is the permutation b -> a b of the
    row a = 1, so each of the q - 1 rows has its histogram, whatever the
    order of the row's entries.
    """
    return ((ctx.q - 1) * np.bincount(row)).tolist()
