"""The Ness-Helleseth binomial over GF(3^n) and its difference distribution.

With q = 3^n, the function is f_u(x) = u x^d1 + x^d2 for d1 = (q-1)/2 - 1
and d2 = q - 2.  For nonzero x both exponents collapse to cheap forms:
x^d2 is 1/x and x^d1 is x^((q-1)/2) / x, so f_u(x) = (u s + 1) / x where
s = x^((q-1)/2) is the quadratic character of x read as the field element
1 or -1.  Scans use that shape through the discrete-log tables; the generic
power path stays available as the slow oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldCtx


def exponents(ctx: FieldCtx) -> tuple[int, int]:
    """(d1, d2) = ((q-1)/2 - 1, q - 2)."""
    return (ctx.q - 1) // 2 - 1, ctx.q - 2


def f_eval(ctx: FieldCtx, u: int, x: int) -> int:
    """u * x^d1 + x^d2 by plain exponentiation (f(0) = 0)."""
    d1, d2 = exponents(ctx)
    return ctx.add(ctx.mul(u, ctx.pow(x, d1)), ctx.pow(x, d2))


def f_table(ctx: FieldCtx, u: int) -> np.ndarray:
    """f_u over the whole field as one index array."""
    d1, d2 = exponents(ctx)
    x = np.arange(ctx.q, dtype=np.int64)
    return ctx.add_vec(ctx.mul_vec(np.int64(u), ctx.pow_vec(x, d1)), ctx.pow_vec(x, d2))


def derivative(ctx: FieldCtx, u: int, a: int, x: int) -> int:
    """f_u(x + a) - f_u(x)."""
    if a == 0:
        raise ValueError("derivative direction a must be nonzero")
    return ctx.sub(f_eval(ctx, u, ctx.add(x, a)), f_eval(ctx, u, x))


def ddt_entry(ctx: FieldCtx, u: int, a: int, b: int) -> int:
    """Number of x with f_u(x + a) - f_u(x) = b, counted over the field."""
    if a == 0:
        raise ValueError("DDT rows are indexed by nonzero a")
    ftab = f_table(ctx, u)
    x = np.arange(ctx.q, dtype=np.int64)
    diffs = ctx.sub_vec(ftab[ctx.add_vec(x, np.int64(a))], ftab)
    return int((diffs == b).sum())


def ddt_entry_naive(ctx: FieldCtx, u: int, a: int, b: int) -> int:
    """Scalar per-x count; the oracle for the vectorised accumulation."""
    if a == 0:
        raise ValueError("DDT rows are indexed by nonzero a")
    return sum(1 for x in ctx.elements() if derivative(ctx, u, a, x) == b)


def ddt_row(ctx: FieldCtx, u: int, a: int, ftab: np.ndarray | None = None) -> np.ndarray:
    """delta(a, b) for every b, as one histogram pass over x."""
    if a == 0:
        raise ValueError("DDT rows are indexed by nonzero a")
    if ftab is None:
        ftab = f_table(ctx, u)
    x = np.arange(ctx.q, dtype=np.int64)
    diffs = ctx.sub_vec(ftab[ctx.add_vec(x, np.int64(a))], ftab)
    return np.bincount(diffs, minlength=ctx.q)


def ddt_table(ctx: FieldCtx, u: int) -> np.ndarray:
    """(q, q) array of delta(a, b); row a = 0 is filled but not part of the DDT."""
    ftab = f_table(ctx, u)
    pair = ctx.pair_add_table()
    if pair is not None:
        fxa = ftab[pair]                       # [a, x] -> f(a + x)
        neg_f = ctx.sub_vec(0, ftab)
        diffs = pair[fxa, np.broadcast_to(neg_f, fxa.shape)]
        offsets = (np.arange(ctx.q, dtype=np.int64) * ctx.q)[:, None]
        flat = np.bincount((diffs + offsets).ravel(), minlength=ctx.q * ctx.q)
        return flat.reshape(ctx.q, ctx.q)
    out = np.zeros((ctx.q, ctx.q), dtype=np.int64)
    out[0, 0] = ctx.q
    for a in range(1, ctx.q):
        out[a] = ddt_row(ctx, u, a, ftab)
    return out


@dataclass(frozen=True)
class Spectrum:
    """Histogram of DDT values over (a, b) in F* x F, up to the largest hit."""

    omegas: tuple[int, ...]
    source: str

    @property
    def uniformity(self) -> int:
        return len(self.omegas) - 1

    def counting_identities_hold(self, q: int) -> bool:
        total = (q - 1) * q
        return (
            sum(self.omegas) == total
            and sum(i * w for i, w in enumerate(self.omegas)) == total
        )

    def to_record(self, ctx: FieldCtx, u: int) -> dict:
        return {
            "n": ctx.n,
            "modulus": ctx.modulus_str,
            "u": ctx.format_element(u),
            "source": self.source,
            "omegas": list(self.omegas),
        }


def spectrum_bruteforce(ctx: FieldCtx, u: int, ddt: np.ndarray | None = None) -> Spectrum:
    """Differential spectrum by exhaustive DDT accumulation; any u.

    ``ddt`` is ``ddt_table(ctx, u)`` when the caller has already built it.
    """
    if ddt is None:
        ddt = ddt_table(ctx, u)
    table = ddt[1:, :]
    counts = np.bincount(table.ravel())
    last = int(np.flatnonzero(counts)[-1])
    return Spectrum(tuple(int(c) for c in counts[: last + 1]), source="brute-force")


def differential_uniformity(ctx: FieldCtx, u: int) -> int:
    """Largest DDT entry over a != 0."""
    return spectrum_bruteforce(ctx, u).uniformity
