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
Each operation has one implementation, and the scalar ops read the same
tables as the vector kernels: ``add``, ``sub`` and ``neg`` the bit planes,
``mul``, ``inv`` and ``pow`` the discrete logs, ``chi`` the character
table.  The tests check both against independent oracles, digit-wise
addition and polynomial multiplication.  Polynomial multiplication here
only builds the matrices the log-table build starts from and finds the
generator of a supplied modulus, which trial division checks first.  The
default field of each n is tabled (`DEFAULT_FIELDS`), so its set-up does
no search.

The scalar ops, the vector kernels (``translate``, ``sub_vec``,
``chi_vec``) and vector products are gathers from small tables:

* Addition works on bit planes (Boothby & Bradshaw, "Bitslicing and the
  Method of Four Russians over larger finite fields", 2009).  Bit i of
  ``ones[a]`` (``twos[a]``) is set when digit i of a is 1 (2), so a sum is a
  few bitwise operations on uint16 masks, and ``value[m]`` (2^n entries)
  turns the planes of the result back into an index.  ``translate(c)``
  adds c to every element and reads ``ones`` and ``twos`` themselves as
  the planes of z.  Negation swaps the two planes, so subtraction swaps
  the planes of b.
* A product reads ``alog[log[a] + log[b]]``, as `ness.f_table` does.  Zero
  has the sentinel log 2q - 3 and the antilog table runs on to 4q - 5
  entries, periodic up to index 2q - 4 and zero beyond, so no zero mask and
  no reduction mod q - 1 is needed.
* The quadratic character is one int8 table.
* Two more tables follow from the logs: ``_neg_log``, log(1/x) with the
  zero sentinel, for `ness.f_table`, and ``_chi_rotations``, C[m] =
  chi(g^m - 1).  As g^k - g^j = g^j (g^(k-j) - 1), chi(z - a) over every
  z = g^k is chi(a) times a rotation of C (Huber, "Some comments on Zech's
  logarithms", 1990), so the sign key and the scope mask need no field
  addition per u.

The log tables are built in two stages, baby steps and giant steps, with
R = 3^max(0, (n - 5) // 2) giant rows (1 for n <= 5, 81 at n = 13) of
S = ceil((q - 1) / R) powers each:

* Baby steps, by doubling.  Multiplication by g^m is a GF(3)-linear map on
  digit vectors, so once the digit rows of g^0 .. g^(m-1) are known, one
  matrix product with the n x n matrix of g^m gives g^m .. g^(2m-1), and
  squaring that matrix gives the matrix of g^(2m).  That is ceil(log2 S)
  numpy steps for g^0 .. g^(S-1).
* Giant steps, Four Russians style.  Row i is c = g^S times row i - 1, and
  with h = ceil(n / 2), c z = c (z mod 3^h) + c x^h (z div 3^h): two index
  tables of 3^h and 3^(n-h) entries, built once from the matrix of c, and
  one plane sum per element.

The build certifies the field: g^0 .. g^(q-2) must be q - 1 distinct nonzero
elements, else it raises `InconsistencyError`.  That is enough: if the
powers of g cover every nonzero residue of GF(3)[x]/(f), then -1 = g^k with
k >= 1, so g is a unit, every nonzero residue is a unit, f is irreducible
and g is primitive.  No op reads the (q, n) digit table or the q x q
pair-add table; ``digit_table`` and ``pair_add_table`` build a fresh one on
each call, for the benchmark's probes, and keep nothing.

Text format for elements and moduli: a compact string of base-3 digits,
lowest degree first.  ``"120"`` is ``1 + 2x`` in a degree-3 field, and the
default degree-3 modulus ``x^3 + 2x + 1`` prints as ``"1201"``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

P = 3

# Table ceiling.  The pairwise sum table needs q*q ints and stays cheap up to
# this size.  Every resident table is O(q) and has no ceiling: at n = 13 the
# int32 log pair takes about 32 MB, `_neg_log` 6.4 MB, the uint16 bit planes
# 6.4 MB, C 3.2 MB and the int8 character 1.6 MB.
PAIR_TABLE_MAX_Q = P**7

# The default field per n: (modulus digits, generator).  The modulus is the
# first monic irreducible of degree n in base-3 counter order and the
# generator the smallest primitive element modulo it.  Nothing is trusted:
# the log-table build certifies both on every fresh context.
DEFAULT_FIELDS: dict[int, tuple[str, int]] = {
    3: ("1201", 3),
    5: ("120001", 3),
    7: ("20100001", 5),
    9: ("1012000001", 3),
    11: ("201000000001", 5),
    13: ("12000000000001", 3),
}

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
    and exist for full-field scans; they read the same tables as the
    scalar ops.  Sums and products come back as int32 and characters as
    int8: a sum kernel allocates and writes half the bytes of an int64 one.
    """

    def __init__(self, n: int, modulus: Optional[PolyLike] = None):
        if n % 2 == 0:
            raise ValueError(f"n must be odd, got {n}")
        if not 3 <= n <= 13:
            raise ValueError(f"n must be in 3..13, got {n}")
        self.n = n
        self.q = P**n

        tabled, generator = DEFAULT_FIELDS[n]
        mod = self._coerce_modulus(tabled if modulus is None else modulus)
        if modulus is not None:
            witness = irreducible_witness(mod)
            if witness is not None:
                raise ReducibleModulusError(_poly_str(mod), _poly_str(witness))
        self.modulus: tuple[int, ...] = tuple(mod)
        self.modulus_str = _poly_str(mod)

        self._shifts = self._build_shifts()
        self.generator = generator if modulus is None else self._find_generator()

    # -- construction helpers ------------------------------------------------

    def _coerce_modulus(self, modulus: PolyLike) -> list[int]:
        if isinstance(modulus, str):
            digits = ["012".find(ch) for ch in modulus]  # -1 for any other character
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

    def _build_shifts(self) -> np.ndarray:
        """(2n - 1, n) int8: the digits of x**0 .. x**(2n - 2) mod the modulus."""
        n = self.n
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        top = [(-d) % P for d in self.modulus[:n]]  # x**n
        for _ in range(n - 1):
            prev = rows[-1]  # times x: shift up, fold the carry back in as x**n
            rows.append([(s + prev[-1] * t) % P for s, t in zip([0] + prev[:-1], top)])
        return np.array(rows, dtype=np.int8)

    def _mul_matrix(self, a: int) -> np.ndarray:
        """(n, n) int8: row j holds the digits of a * x**j, the digits of a
        times the rows of x**j .. x**(j + n - 1) in `_shifts`."""
        # windows[j, col, k] = _shifts[j + k, col]
        windows = np.lib.stride_tricks.sliding_window_view(self._shifts, self.n, axis=0)
        return windows @ np.array(_idx_digits(a, self.n), dtype=np.int8) % P

    def _mul_poly(self, a: int, b: int) -> int:
        """a * b: the product polynomial, reduced through the rows of `_shifts`."""
        product = np.convolve(_idx_digits(a, self.n), _idx_digits(b, self.n))
        return int(product @ self._shifts % P @ P**np.arange(self.n))

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
        ones, twos, _ = self._planes
        return int(self._plane_sum(ones[a], twos[a], ones[b], twos[b]))

    def neg(self, a: int) -> int:
        """Negation swaps the digits 1 and 2, so it swaps the two planes of a."""
        ones, twos, value = self._planes
        return int(value[twos[a]] + 2 * value[ones[a]])

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_vec(a, b))

    def mul(self, a: int, b: int) -> int:
        log, alog = self._log_tables
        return int(alog[log[a] + log[b]])

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
        return int(alog[self.q - 1 - log[a]])

    def chi(self, a: int) -> int:
        """Quadratic character: +1 on nonzero squares, -1 on nonsquares, 0 at 0.

        The generator is a nonsquare, so a is a square exactly when its
        discrete log is even (`_chi_table`).
        """
        return int(self._chi_table[a])

    def sqrt_canonical(self, a: int) -> int:
        """The square root r of a with chi(r) == +1.

        Unique because chi(-1) == -1 for odd n.  Since q = 3 (mod 4),
        a**((q+1)/4) is a root whenever a is a square.
        """
        if self.chi(a) != 1:
            raise ValueError(f"sqrt_canonical needs a nonzero square, got chi={self.chi(a)}")
        r = self.pow(a, (self.q + 1) // 4)
        return r if self.chi(r) == 1 else self.neg(r)

    # -- text / coefficient views ---------------------------------------------

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

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCtx(n={self.n}, modulus={self.modulus_str!r})"

    # -- tables ------------------------------------------------------------------

    @built_once
    def _planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ones, twos, value): the bit planes of every element and their inverse.

        ``value[m]`` is the sum of 3**i over the set bits of m, so an element
        is ``value[ones] + 2 * value[twos]``.  Built by tripling: the elements
        below 3**(i+1) are those below 3**i with digit i equal to 0, 1 and 2.
        """
        ones = np.zeros(1, dtype=np.uint16)
        twos = np.zeros(1, dtype=np.uint16)
        value = np.zeros(1, dtype=np.int32)
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
        is a * b for every pair, zero included.  Built by baby and giant
        steps and certified (see the module docstring).
        """
        q, n = self.q, self.n
        giant = P**max(0, (n - 5) // 2)
        baby = -(-(q - 1) // giant)
        powers = np.zeros((baby, n), dtype=np.int8)
        powers[0, 0] = 1
        # row j: the digits of g**m * x**j; its square is the matrix of g**(2m).
        # Entries of an int8 digit-row product are at most 4n = 52 before the mod.
        mat = self._mul_matrix(self.generator)
        m = 1
        while m < baby:
            step = min(m, baby - m)
            block = powers[m:m + step]
            np.matmul(powers[:step], mat, out=block)
            block %= P
            mat = np.matmul(mat, mat) % P
            m += step
        blocks = np.empty((giant, baby), dtype=np.int64)
        blocks[0] = _row_index(powers)
        if giant > 1:
            # c z = c (z mod 3^h) + c x^h (z div 3^h) for c = g**baby: the planes
            # of both terms come from two small index tables
            ones, twos, _ = self._planes
            c_mat = self._mul_matrix(self._mul_poly(int(blocks[0, -1]), self.generator))
            h = (n + 1) // 2
            digits = _digit_rows(h)  # n - h <= h: its head holds the high digits too
            low = _row_index(digits @ c_mat[:h] % P)
            high = _row_index(digits[:P**(n - h), :n - h] @ c_mat[h:] % P)
            # int64 planes: their sums index `value` with no conversion
            low1, low2, high1, high2 = (plane[table].astype(np.int64)
                                        for table in (low, high) for plane in (ones, twos))
            for i in range(1, giant):
                z_high = blocks[i - 1] // P**h
                z_low = blocks[i - 1] - z_high * P**h
                blocks[i] = self._plane_sum(low1[z_low], low2[z_low], high1[z_high], high2[z_high])
        cycle = blocks.ravel()[:q - 1]
        log = np.full(q, -1, dtype=np.int32)
        log[cycle] = np.arange(q - 1, dtype=np.int32)
        if (log[1:] < 0).any():
            generator = self.format_element(self.generator)
            raise InconsistencyError(f"modulus {self.modulus_str!r} with generator {generator!r}:"
                                     " the powers of the generator miss a nonzero element")
        log[0] = 2 * q - 3
        alog = np.zeros(4 * q - 5, dtype=np.int32)
        alog[:q - 1] = cycle
        alog[q - 1:2 * q - 3] = cycle[:q - 2]
        return _frozen(log), _frozen(alog)

    @built_once
    def _neg_log(self) -> np.ndarray:
        """int32 log(1/x) for every x, with the zero sentinel 2q - 3 at x = 0."""
        neglog = -self._log_tables[0] % (self.q - 1)
        neglog[0] = 2 * self.q - 3
        return _frozen(neglog)

    @built_once
    def _chi_table(self) -> np.ndarray:
        """int8 quadratic character of every element (see `chi`)."""
        chi = (1 - 2 * (self._log_tables[0] & 1)).astype(np.int8)
        chi[0] = 0
        return _frozen(chi)

    @built_once
    def _chi_rotations(self) -> np.ndarray:
        """int8 C[m] = chi(g**m - 1) for m in 0 .. q - 2, stored twice over
        (2q - 2 entries), so each rotation of C is a slice: no copy, no mod."""
        chi_minus_one = self._chi_table[self.translate(2)]
        table = chi_minus_one[self._log_tables[1][:self.q - 1]]
        return _frozen(np.concatenate([table, table]))

    def digit_table(self) -> np.ndarray:
        """(q, n) int8 array: base-3 digits of every element index, built per call."""
        return _frozen(_digit_rows(self.n))

    def pair_add_table(self) -> Optional[np.ndarray]:
        """(q, q) int32 table of element sums, built per call, or None above the
        size ceiling."""
        if self.q > PAIR_TABLE_MAX_Q:
            return None
        ones, twos, _ = self._planes
        return _frozen(self._plane_sum(ones[:, None], twos[:, None], ones, twos))

    # -- vectorised arithmetic on index arrays ----------------------------------

    def translate(self, c: int) -> np.ndarray:
        """z + c for every element z: the plane tables are the planes of z."""
        ones, twos, _ = self._planes
        return self._plane_sum(ones, twos, ones[c], twos[c])

    def sub_vec(self, a, b) -> np.ndarray:
        """a + (-b): negation swaps the two planes of b."""
        ones, twos, _ = self._planes
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

    def chi_vec(self, a) -> np.ndarray:
        """Quadratic character of every entry, values in {-1, 0, +1}."""
        return self._chi_table[np.asarray(a)]


def _digit_rows(k: int) -> np.ndarray:
    """(3**k, k) int8: the base-3 digits of 0 .. 3**k - 1, least significant first."""
    return (np.arange(P**k)[:, None] // P**np.arange(k) % P).astype(np.int8)


def _row_index(rows: np.ndarray) -> np.ndarray:
    """int32 element index of each digit row, by Horner's rule one column at a time."""
    out = rows[:, -1].astype(np.int32)
    for i in range(rows.shape[1] - 2, -1, -1):
        out *= P
        out += rows[:, i]
    return out


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def make_context(n: int, modulus: Optional[PolyLike] = None) -> FieldCtx:
    """Build GF(3^n); the default modulus and generator come from `DEFAULT_FIELDS`."""
    return FieldCtx(n, modulus)
