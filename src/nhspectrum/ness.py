"""The Ness-Helleseth binomial over GF(3^n) and its difference distribution.

With q = 3^n, the function is f_u(x) = u x^d1 + x^d2 for d1 = (q-1)/2 - 1
and d2 = q - 2.  For nonzero x, x^d2 = 1/x and x^d1 = chi(x)/x, so
f_u(x) = (1 + u chi(x))/x.  `f_table` evaluates that shape over the whole
field with one gather from the antilog table; the tests keep f_u by plain
exponentiation as its oracle.

Also f_u(c x) = f_u(x)/c for every nonzero square c.  Substituting x -> c x
in f_u(x + c a) - f_u(x) = b gives delta(c a, b) = delta(a, c b), so the
rows a = 1 and a = g (the generator, a nonsquare) determine the whole
DDT.  `ddt_rows` counts those two with the row kernel `ddt_row`; the tests
count every row into the full q x q table as the oracle for that lemma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldCtx

DDTRows = tuple[np.ndarray, np.ndarray]  # (delta(1, .), delta(g, .)), see ddt_rows


def f_table(ctx: FieldCtx, u: int) -> np.ndarray:
    """f_u over the whole field, alog[log(1/x) + log(1 + u chi(x))]: squares have even
    logs, and the zero sentinel (x = 0, or 1 +- u = 0 for u in GF(3)) reads f = 0."""
    log, alog = ctx._log_tables
    neglog = -log % (ctx.q - 1)
    neglog[0] = 2 * ctx.q - 3
    lead = log[[ctx.add(1, u), ctx.sub(1, u)]]
    return alog[neglog + lead[log & 1]]


def ddt_row(ctx: FieldCtx, ftab: np.ndarray, a: int) -> np.ndarray:
    """delta(a, b) for every b, as one histogram pass over x; ftab is `f_table`."""
    if a == 0:
        raise ValueError("DDT rows are indexed by nonzero a")
    diffs = ctx.sub_vec(ftab[ctx.translate(a)], ftab)
    return np.bincount(diffs, minlength=ctx.q)


def ddt_rows(ctx: FieldCtx, u: int) -> DDTRows:
    """delta(1, .) and delta(g, .), the two rows that determine the DDT.

    Scaling lemma: a square a reads row 1 at a b, a nonsquare a reads row g at (a/g) b.
    """
    ftab = f_table(ctx, u)
    return ddt_row(ctx, ftab, 1), ddt_row(ctx, ftab, ctx.generator)


@dataclass(frozen=True)
class Spectrum:
    """Histogram of DDT values over (a, b) in F* x F, up to the largest hit."""

    omegas: tuple[int, ...]
    source: str

    @property
    def uniformity(self) -> int:
        return len(self.omegas) - 1



def spectrum_bruteforce(ctx: FieldCtx, rows: DDTRows) -> Spectrum:
    """Differential spectrum from the DDT rows a = 1 and a = g (`ddt_rows`); any u.

    Each of the two rows stands for the (q-1)/2 rows of its square class,
    each a permutation of it.
    """
    width = max(int(row.max()) for row in rows) + 1
    counts = (ctx.q - 1) // 2 * sum(np.bincount(row, minlength=width) for row in rows)
    return Spectrum(tuple(int(c) for c in counts), source="brute-force")
