"""The Ness-Helleseth binomial over GF(3^n) and its difference distribution.

With q = 3^n, the function is f_u(x) = u x^d1 + x^d2 for d1 = (q-1)/2 - 1
and d2 = q - 2.  For nonzero x, x^d2 = 1/x and x^d1 = chi(x)/x, so
f_u(x) = (1 + u chi(x))/x.  `f_table` evaluates that shape over the whole
field with `FieldCtx.scaled_inverse`; the tests keep f_u by plain
exponentiation as its oracle.

Also f_u(c x) = f_u(x)/c for every nonzero square c.  Substituting x -> c x
in f_u(x + c a) - f_u(x) = b gives delta(c a, b) = delta(a, c b).  Any
function has delta(-a, b) = delta(a, -b) (substitute x -> x - a), and -1
is a nonsquare for odd n, so delta(a, b) = delta(1, a b) for every a != 0
and every u: the row a = 1 determines the whole DDT.  `ddt_row` counts
it; the tests count every row into the full q x q table as the oracle for
that lemma.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx


def f_table(ctx: FieldCtx, u: int) -> np.ndarray:
    """f_u over the whole field: (1 + u)/x at squares, (1 - u)/x at nonsquares, 0 at 0."""
    return ctx.scaled_inverse(ctx.add(1, u), ctx.sub(1, u))


def ddt_row(ctx: FieldCtx, u: int) -> np.ndarray:
    """delta(1, z) for every z, one histogram pass over x; delta(a, b) is its entry a b."""
    ftab = f_table(ctx, u)
    return np.bincount(ctx.sub_vec(ftab[ctx.translate(1)], ftab), minlength=ctx.q)


def spectrum_bruteforce(ctx: FieldCtx, row: np.ndarray) -> list[int]:
    """Differential spectrum from the DDT row a = 1 (`ddt_row`); any u.

    omega_i, for i up to the largest DDT value, counts the (a, b) in F* x F
    with delta(a, b) = i.  Every row a is the permutation b -> a b of the
    row a = 1, so each of the q - 1 rows has its histogram.
    """
    return ((ctx.q - 1) * np.bincount(row)).tolist()
