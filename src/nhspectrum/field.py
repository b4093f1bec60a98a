"""Arithmetic in GF(3^n) for odd n, with quadratic character and canonical roots.

Field elements are plain ints in ``range(3**n)``: the base-3 digits of the
index, least significant first, are the coefficients of the residue
polynomial modulo the defining irreducible.  Every int in range is one
canonical element, so no normalisation state exists anywhere.  The small
constants behave as expected: ``0`` is zero, ``1`` is one and ``2`` is
minus one.

A :class:`FieldCtx` is immutable after construction and safe to share
between threads.  Its tables are each built once on first use and are
read-only afterwards.  A table is a pure function of the modulus, so two
threads that race to build one build equal arrays and either may be kept;
that is why `built_once` takes no lock.
Scalar multiplication, powers, inverses and the quadratic character read the
discrete-log tables; scalar addition works digit by digit.  The scalar ops
are the reference the vector kernels are tested against.  Polynomial
multiplication only finds the generator and the matrix of g that the
log-table build starts from.

The vector kernels (``translate``, ``sub_vec``, ``mul_vec``, ``chi_vec``)
are gathers from small tables:

* Addition works on bit planes (Boothby & Bradshaw, "Bitslicing and the
  Method of Four Russians over larger finite fields", 2009).  Bit i of
  ``ones[a]`` (``twos[a]``) is set when digit i of a is 1 (2), so a sum is a
  few bitwise operations on uint16 masks, and ``value[m]`` (2^n entries)
  turns the planes of the result back into an index.  ``translate(c)``
  adds c to every element and reads ``ones`` and ``twos`` themselves as
  the planes of z.  Subtraction swaps the planes of b, because negation
  swaps them.
* Multiplication reads ``alog[log[a] + log[b]]``.  Zero has the sentinel
  log 2q - 3 and the antilog table runs on to 4q - 5 entries, periodic up
  to index 2q - 4 and zero beyond, so no zero mask and no reduction mod
  q - 1 is needed.
* The quadratic character is one int8 table.

The log tables are built by doubling.  Multiplication by g^m is a GF(3)-linear
map on digit vectors, so once the digit rows of g^0 .. g^(m-1) are known, one
matrix product with the n x n matrix of g^m gives g^m .. g^(2m-1), and
squaring that matrix gives the matrix of g^(2m).  That is ceil(log2 q) numpy
steps instead of q - 1 scalar multiplications.  No op reads the (q, n) digit
table or the q x q pair-add table; they are built only on request
(``digit_table``, ``pair_add_table``), for inspection and benchmarking.

Text format for elements and moduli: a compact string of base-3 digits,
lowest degree first.  ``"120"`` is ``1 + 2x`` in a degree-3 field, and the
default degree-3 modulus ``x^3 + 2x + 1`` prints as ``"1201"``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

P = 3

# Table ceiling.  Pairwise sum tables need q*q ints and stay cheap up to this
# size.  Every other table is O(q) and has no ceiling: at n = 13 the int32
# log pair takes about 32 MB, the uint16 bit planes 6.4 MB, the int8
# character 1.6 MB and the int8 digit table 20 MB.
PAIR_TABLE_MAX_Q = P**7

PolyLike = Union[str, Sequence[int]]


class ReducibleModulusError(ValueError):
    """A supplied modulus has a nontrivial factor over GF(3)."""

    def __init__(self, modulus_str: str, factor_str: str):
        super().__init__(
            f"modulus {modulus_str!r} is reducible: divisible by {factor_str!r}"
            " (digit strings, lowest degree first)"
        )
        self.modulus_str = modulus_str
        self.factor_str = factor_str


class InconsistencyError(RuntimeError):
    """An internal cross-check failed; this always indicates a bug."""


class built_once:
    """A lazy attribute: the method runs on first access and its value is
    stored in the instance ``__dict__``, where later reads find it first.

    Unlike the standard ``cached_property``, which before Python 3.12 holds
    one lock per attribute across all instances, it takes no lock, so
    threads building the same attribute on different instances run at
    once.  Two threads that race on one instance both build it; the values
    are equal and the last one stored is kept.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


# ---------------------------------------------------------------------------
# polynomials over GF(3), as little-endian digit tuples (modulus handling only)
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Remainder of num / den over GF(3); den must be nonzero."""
    rem = list(num)
    dd = len(den) - 1
    inv_lead = 1 if den[-1] == 1 else 2
    while len(rem) - 1 >= dd and _poly_trim(rem):
        shift = len(rem) - 1 - dd
        factor = (rem[-1] * inv_lead) % P
        for i, d in enumerate(den):
            rem[shift + i] = (rem[shift + i] - factor * d) % P
        _poly_trim(rem)
    return rem


def _poly_str(c: Sequence[int]) -> str:
    return "".join(str(d) for d in c) if c else "0"


def _idx_digits(idx: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(idx % P)
        idx //= P
    return out


def irreducible_witness(poly: Sequence[int]) -> Optional[list[int]]:
    """Smallest monic factor of degree 1..deg/2, or None if irreducible.

    Trial division; degree-1 factors double as root witnesses.
    """
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for idx in range(P**d):
            cand = _idx_digits(idx, d) + [1]
            if not _poly_trim(_poly_mod(poly, cand)):
                return cand
    return None


def smallest_irreducible(n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n in base-3 counter order."""
    for idx in range(P**n):
        cand = _idx_digits(idx, n) + [1]
        if irreducible_witness(cand) is None:
            return tuple(cand)
    raise InconsistencyError(f"no irreducible of degree {n} found")  # unreachable


def _factorize(m: int) -> list[int]:
    """Prime factors of m (distinct), trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------


class FieldCtx:
    """GF(3^n) with a verified irreducible modulus and primitive element.

    All scalar operations accept and return element indices (ints).  The
    vector kernels operate on numpy index arrays (or scalars, broadcast)
    and exist for full-field scans; they give bit-identical results to the
    scalar path.  Sums come back as int64, products as int32 and characters
    as int8.
    """

    def __init__(self, n: int, modulus: Optional[PolyLike] = None):
        if n % 2 == 0:
            raise ValueError(f"n must be odd, got {n}")
        if not 3 <= n <= 13:
            raise ValueError(f"n must be in 3..13, got {n}")
        self.n = n
        self.q = P**n

        if modulus is None:
            mod = smallest_irreducible(n)
        else:
            mod = self._coerce_modulus(modulus)
            witness = irreducible_witness(mod)
            if witness is not None:
                raise ReducibleModulusError(_poly_str(mod), _poly_str(witness))
        self.modulus: tuple[int, ...] = tuple(mod)

        # x^(n+k) mod modulus for k = 0..n-2, as digit tuples; lets _mul_poly fold
        # a degree-(2n-2) product back into range without long division.
        self._reduction_rows = self._build_reduction_rows()
        self.generator = self._find_generator()

    # -- construction helpers ------------------------------------------------

    def _coerce_modulus(self, modulus: PolyLike) -> list[int]:
        if isinstance(modulus, str):
            digits = [int(ch) for ch in modulus]
        else:
            digits = [int(d) for d in modulus]
        if any(d not in (0, 1, 2) for d in digits):
            raise ValueError(f"modulus digits must be 0/1/2, got {modulus!r}")
        if len(digits) != self.n + 1 or digits[-1] != 1:
            raise ValueError(
                f"modulus must be monic of degree {self.n}"
                f" ({self.n + 1} digits ending in 1), got {modulus!r}"
            )
        return digits

    def _build_reduction_rows(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        base = tuple((-d) % P for d in self.modulus[:n])  # x^n mod modulus
        rows = [base]
        for _ in range(n - 2):
            prev = rows[-1]
            shifted = [0] + list(prev[: n - 1])
            carry = prev[n - 1]
            if carry:
                shifted = [(s + carry * b) % P for s, b in zip(shifted, base)]
            rows.append(tuple(shifted))
        return tuple(rows)

    def _mul_poly(self, a: int, b: int) -> int:
        n = self.n
        da = _idx_digits(a, n)
        db = _idx_digits(b, n)
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] += ai * bj
        res = prod[:n]
        for k in range(n, 2 * n - 1):
            c = prod[k] % P
            if c:
                row = self._reduction_rows[k - n]
                for j in range(n):
                    res[j] += c * row[j]
        out = 0
        m = 1
        for j in range(n):
            out += (res[j] % P) * m
            m *= P
        return out

    def _pow_poly(self, a: int, e: int) -> int:
        """Square-and-multiply over _mul_poly, for the generator search."""
        result = 1
        while e:
            if e & 1:
                result = self._mul_poly(result, a)
            a = self._mul_poly(a, a)
            e >>= 1
        return result

    def _find_generator(self) -> int:
        cofactors = [(self.q - 1) // p for p in _factorize(self.q - 1)]
        for g in range(2, self.q):
            if all(self._pow_poly(g, c) != 1 for c in cofactors):
                return g
        raise InconsistencyError("no primitive element found")  # unreachable

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        out = 0
        m = 1
        for _ in range(self.n):
            out += ((a + b) % P) * m
            a //= P
            b //= P
            m *= P
        return out

    def neg(self, a: int) -> int:
        out = 0
        m = 1
        for _ in range(self.n):
            out += (-a % P) * m
            a //= P
            m *= P
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log, alog = self._log_tables
        return int(alog[(int(log[a]) + int(log[b])) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        """a**e through the discrete logs; 0**0 == 1 by convention."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if a == 0:
            return 1 if e == 0 else 0
        log, alog = self._log_tables
        return int(alog[(int(log[a]) * e) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        log, alog = self._log_tables
        return int(alog[-int(log[a]) % (self.q - 1)])

    def chi(self, a: int) -> int:
        """Quadratic character: +1 on nonzero squares, -1 on nonsquares, 0 at 0.

        The generator is a nonsquare, so a is a square exactly when its
        discrete log is even.
        """
        if a == 0:
            return 0
        return 1 - 2 * (int(self._log_tables[0][a]) & 1)

    def sqrt_canonical(self, a: int) -> int:
        """The square root r of a with chi(r) == +1.

        Unique because chi(-1) == -1 for odd n.  Since q = 3 (mod 4),
        a**((q+1)/4) is a root whenever a is a square.
        """
        if self.chi(a) != 1:
            raise ValueError(f"sqrt_canonical needs a nonzero square, got chi={self.chi(a)}")
        r = self.pow(a, (self.q + 1) // 4)
        return r if self.chi(r) == 1 else self.neg(r)

    def elements(self) -> range:
        """All q elements, base-3 counter order: 0, 1, 2, x, x+1, ..."""
        return range(self.q)

    # -- text / coefficient views ---------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(_idx_digits(a, self.n))

    def element_from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.n:
            raise ValueError(f"at most {self.n} coefficients, got {len(coeffs)}")
        out = 0
        m = 1
        for d in coeffs:
            if d not in (0, 1, 2):
                raise ValueError(f"coefficients must be 0/1/2, got {d}")
            out += d * m
            m *= P
        return out

    def parse_element(self, text: str) -> int:
        if not text or not text.isdigit():
            raise ValueError(f"element string must be base-3 digits, got {text!r}")
        return self.element_from_coeffs([int(ch) for ch in text])

    def format_element(self, a: int) -> str:
        if not 0 <= a < self.q:
            raise ValueError(f"element index out of range: {a}")
        return "".join(str(d) for d in _idx_digits(a, self.n))

    @property
    def modulus_str(self) -> str:
        return _poly_str(self.modulus)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCtx(n={self.n}, modulus={self.modulus_str!r})"

    # -- tables ------------------------------------------------------------------

    @built_once
    def _digits(self) -> np.ndarray:
        idx = np.arange(self.q, dtype=np.int64)
        cols = [((idx // P**i) % P).astype(np.int8) for i in range(self.n)]
        return _frozen(np.stack(cols, axis=1))

    @built_once
    def _planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ones, twos, value): the bit planes of every element and their inverse.

        ``value[m]`` is the sum of 3**i over the set bits of m, so an element
        is ``value[ones] + 2 * value[twos]``.  Built by tripling: the elements
        below 3**(i+1) are those below 3**i with digit i equal to 0, 1 and 2.
        """
        ones = np.zeros(1, dtype=np.uint16)
        twos = np.zeros(1, dtype=np.uint16)
        value = np.zeros(1, dtype=np.int64)
        for i in range(self.n):
            bit = np.uint16(1 << i)
            ones = np.concatenate([ones, ones | bit, ones])
            twos = np.concatenate([twos, twos, twos | bit])
            value = np.concatenate([value, value + P**i])
        return _frozen(ones), _frozen(twos), _frozen(value)

    @built_once
    def _log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, alog): log[g**k] == k for nonzero elements, alog[k] == g**k.

        Zero has the sentinel log 2q - 3, and alog has 4q - 5 entries: g**(k
        mod (q - 1)) up to k = 2q - 4 and 0 beyond, so alog[log[a] + log[b]]
        is a * b for every pair, zero included.  Built by doubling (see the
        module docstring).
        """
        q, n = self.q, self.n
        powers = np.zeros((q - 1, n), dtype=np.int8)
        powers[0, 0] = 1
        # row j: the digits of g**m * x**j; its square is the matrix of g**(2m).
        # Entries of an int8 digit-row product are at most 4n = 52 before the mod.
        mat = np.array([_idx_digits(self._mul_poly(self.generator, P**j), n) for j in range(n)],
                       dtype=np.int8)
        m = 1
        while m < q - 1:
            step = min(m, q - 1 - m)
            block = powers[m:m + step]
            np.matmul(powers[:step], mat, out=block)
            block %= P
            mat = np.matmul(mat, mat) % P
            m += step
        # element index of every digit row, by Horner's rule one column at a time
        cycle = powers[:, -1].astype(np.int32)
        for i in range(n - 2, -1, -1):
            cycle *= P
            cycle += powers[:, i]
        if self._mul_poly(int(cycle[-1]), self.generator) != 1:
            raise InconsistencyError("generator order check failed")
        log = np.empty(q, dtype=np.int32)
        log[cycle] = np.arange(q - 1, dtype=np.int32)
        log[0] = 2 * q - 3
        alog = np.zeros(4 * q - 5, dtype=np.int32)
        alog[:q - 1] = cycle
        alog[q - 1:2 * q - 3] = cycle[:q - 2]
        return _frozen(log), _frozen(alog)

    @built_once
    def _chi_table(self) -> np.ndarray:
        """int8 quadratic character of every element (see `chi`)."""
        chi = (1 - 2 * (self._log_tables[0] & 1)).astype(np.int8)
        chi[0] = 0
        return _frozen(chi)

    @built_once
    def _pair_add(self) -> np.ndarray:
        dg = self._digits
        acc = np.zeros((self.q, self.q), dtype=np.int32)
        for i in range(self.n):
            col = dg[:, i].astype(np.int32)
            acc += ((col[:, None] + col[None, :]) % P) * (P**i)
        return _frozen(acc)

    def digit_table(self) -> np.ndarray:
        """(q, n) int8 array: base-3 digits of every element index."""
        return self._digits

    def pair_add_table(self) -> Optional[np.ndarray]:
        """(q, q) table of element sums, or None above the size ceiling."""
        return self._pair_add if self.q <= PAIR_TABLE_MAX_Q else None

    # -- vectorised arithmetic on index arrays ----------------------------------

    def translate(self, c: int) -> np.ndarray:
        """z + c for every element z: the plane tables are the planes of z."""
        ones, twos, _ = self._planes
        return self._plane_sum(ones, twos, ones[c], twos[c])

    def sub_vec(self, a, b) -> np.ndarray:
        """a + (-b): negation swaps the two planes of b."""
        ones, twos, _ = self._planes
        a, b = np.asarray(a), np.asarray(b)
        return self._plane_sum(ones[a], twos[a], twos[b], ones[b])

    def _plane_sum(self, a1, a2, b1, b2) -> np.ndarray:
        """Element index of the digit-wise sum mod 3 of two plane pairs.

        Boothby & Bradshaw (2009): with t = (a1 | b2) ^ (a2 | b1), the sum has
        ones plane (a2 | b2) ^ t and twos plane (a1 | b1) ^ t.
        """
        value = self._planes[2]
        t = (a1 | b2) ^ (a2 | b1)
        out = value[(a1 | b1) ^ t]
        out *= 2
        out += value[(a2 | b2) ^ t]
        return out

    def mul_vec(self, a, b) -> np.ndarray:
        log, alog = self._log_tables
        return alog[log[np.asarray(a)] + log[np.asarray(b)]]

    def chi_vec(self, a) -> np.ndarray:
        """Quadratic character of every entry, values in {-1, 0, +1}."""
        return self._chi_table[np.asarray(a)]


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def make_context(n: int, modulus: Optional[PolyLike] = None) -> FieldCtx:
    """Build GF(3^n); default modulus is the smallest monic irreducible."""
    return FieldCtx(n, modulus)
