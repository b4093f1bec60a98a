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
Each operation has one implementation: ``add`` and ``sub`` read the Zech
table, ``mul``, ``inv`` and ``pow`` the discrete logs, ``chi``
and ``chi_vec`` the character table.  The tests check them against
independent oracles, digit-wise addition and polynomial multiplication.
Before the log tables exist, the one product is the n x n multiplication
matrix of a, whose row j, a x^j, is row j - 1 shifted up with its top
digit folded back in through the modulus: the log build squares the matrix
of g, and the generator search of a supplied modulus, which trial division
checks first, raises the matrix of each candidate to the powers (q - 1) / p.
The default field of each n is tabled (`DEFAULT_FIELDS`), so its set-up
does no search.

The scalar ops and the vector kernels are gathers from small tables:

* The log order is one permutation of the field: ``alog[k]`` is g^k for
  k < q - 1 and zero sits in the last slot, ``alog[q - 1] = 0`` and
  ``log[0] = q - 1``, so ``log`` and ``alog`` are inverse tables of q
  entries.  A product of nonzero factors reads ``alog`` at (log a + log b)
  mod (q - 1), and a zero factor gives zero.
* Addition reads Zech logarithms (Huber, "Some comments on Zech's
  logarithms", 1990).  With N = q - 1 and h = N / 2, -1 = g^h and the one
  table Z-(m) = log(g^m - 1) (``_minus``) gives a - b = -a (g^k - 1) =
  g^(log a + h + Z-(k)) for k = log b - log a, and a + b = a - (-b) takes
  log b + h in place of log b.  e - 1 differs from e in digit 0 alone, so
  a table T in element order read at e - 1 is T as a (q / 3, 3) grid with
  its columns turned one place (``_neighbour``), and Z- is one gather of
  the turned ``log`` at the antilogs, with no field addition.
* The quadratic character is one int8 table, and C[m] = chi(g^m - 1) =
  (-1)^Z-(m) is read off the parities of Z-, kept as the uint8 D+ = C + 1
  and D- = 1 - C (``_chi_columns``).  The x with chi(x) = chi(x + 1) add
  one int8 row, the same for every u, read off the same parities
  (``_zech``).
* The per-u vectors live in log order, where slot k holds g^k and zero the
  last slot (``slot`` and ``element_at`` read ``log`` and ``alog``), and
  two kernels fill them with no field addition per u: ``chi_pattern``
  (the characters chi(z - a) of up to five points packed in base 3, each
  column a slice of D+ or D-, for the pattern) and ``difference_row`` (the
  DDT row from the Zech tables, for `ness.ddt_row`).

The log tables are built in two stages, baby steps and giant steps, with S
baby steps, the largest power of two not above 3^(ceil(n/2) + 1), and R =
ceil((q - 1) / S) giant rows.  S x R is 16 x 2, 64 x 4, 128 x 18, 512 x 39,
2048 x 87 and 4096 x 390 for n = 3 .. 13, so every n runs both stages:

* Baby steps, by doubling.  Multiplication by g^m is a GF(3)-linear map on
  digit vectors, so once the digit rows of g^0 .. g^(m-1) are known, one
  matrix product with the n x n matrix of g^m gives g^m .. g^(2m-1), and
  squaring that matrix gives the matrix of g^(2m).  That is log2 S numpy
  steps for g^0 .. g^(S-1), each a full doubling, and the last squaring
  leaves the matrix of g^S.  A digit row costs n^2 int8 multiply-adds
  (about 1.1 ns each) and a giant row one call of a few microseconds, and
  this S balances the two near their least sum.
* Giant steps through one table.  Row i is c = g^S times row i - 1, one
  ``take`` from the table of c z for every z (``_times_table``, from the
  matrix of c).  With h = ceil(n / 2), c z = c (z mod 3^h) + c x^h (z div
  3^h): two index tables of 3^h and 3^(n-h) entries and one digit-wise
  sum over their grid, on bit planes (Boothby & Bradshaw, "Bitslicing and
  the Method of Four Russians over larger finite fields", 2009).  Bit i of
  the ones (twos) plane of z is set when digit i of z is 1 (2), so the sum
  is a few bitwise operations on uint16 masks (``_plane_sum``), and a
  table of 2^n entries (``_plane_value``) turns the planes of the result
  back into an element.

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

from typing import Optional, Sequence

import numpy as np

P = 3

# Table ceiling.  The pairwise sum table needs q*q ints and stays cheap up to
# this size.  Every resident table is O(q) and has no ceiling: at n = 13 the
# int32 log pair takes about 12 MiB, the Zech tables 13.7 MiB (Z- alone 6.1
# MiB), D+ and D- 6.1 MiB and the int8 character 1.5 MiB.
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

    Scalar operations take element indices (ints, numpy ints or 0-d arrays)
    and return Python ints.  ``chi_table`` and the vector kernels (``chi_vec``
    and the log-order kernels) serve full-field scans from the same tables.
    """

    def __init__(self, n: int, modulus: Optional[str] = None):
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
        self.generator = generator if modulus is None else self._find_generator()

    # -- construction helpers ------------------------------------------------

    def _coerce_modulus(self, modulus: str) -> list[int]:
        """The digits of a monic modulus of degree n, given as a string of
        base-3 digits, lowest degree first (the text format of the CLI)."""
        digits = ["012".find(ch) for ch in modulus]  # -1 for any other character
        if -1 in digits:
            raise ValueError(f"modulus digits must be 0/1/2, got {modulus!r}")
        if len(digits) != self.n + 1 or digits[-1] != 1:
            raise ValueError(
                f"modulus must be monic of degree {self.n}"
                f" ({self.n + 1} digits ending in 1), got {modulus!r}"
            )
        return digits

    def _mul_matrix(self, digits: Sequence[int]) -> np.ndarray:
        """(n, n) int8: row j holds the digits of a * x**j, for a given by its
        digits, row j - 1 shifted up with its top digit folded back in as x**n =
        -(the modulus less x**n).  The matrix of a b is the product of those of a and b."""
        top = [(-d) % P for d in self.modulus[:-1]]
        rows = [list(digits)]
        for _ in range(self.n - 1):
            prev = rows[-1]
            rows.append([(s + prev[-1] * t) % P for s, t in zip([0] + prev[:-1], top)])
        return np.array(rows, dtype=np.int8)

    def _find_generator(self) -> int:
        """The smallest primitive element: g with g**((q - 1) / p) != 1 for every
        prime p dividing q - 1 (Lidl & Niederreiter, Finite Fields), tested on
        the matrix of g, whose e-th power is the matrix of g**e."""
        identity = np.eye(self.n, dtype=np.int8)
        cofactors = [(self.q - 1) // p for p in _factorize(self.q - 1)]
        for g in range(2, self.q):
            g_mat = self._mul_matrix(_idx_digits(g, self.n))
            if all(not np.array_equal(_matrix_power(g_mat, c), identity) for c in cofactors):
                return g
        raise InconsistencyError("no primitive element found")  # unreachable

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a - (-b): -b = g**(log b + h), h = (q - 1) / 2 (see `_sub_turned`)."""
        return self._sub_turned(a, b, (self.q - 1) // 2)

    def sub(self, a: int, b: int) -> int:
        return self._sub_turned(a, b, 0)

    def _sub_turned(self, a: int, b: int, turn: int) -> int:
        """a - g**turn b by Zech logarithms, N = q - 1 and h = N / 2: b = 0
        gives a and a = 0 gives g**(log b + turn + h), as -1 = g**h.  Else
        a - g**turn b = -a (g**k - 1) for k = log b + turn - log a (mod N),
        which is 0 at k = 0 and g**(log a + h + Z-(k)) otherwise."""
        log, alog = self._log_tables
        n_logs = self.q - 1
        h = n_logs // 2
        j, k = log.item(a), log.item(b)
        if k == n_logs:
            return alog.item(j)
        k += turn
        if j == n_logs:
            return alog.item((k + h) % n_logs)
        k = (k - j) % n_logs
        if not k:
            return 0
        return alog.item((j + h + self._minus.item(k)) % n_logs)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log, alog = self._log_tables
        return alog.item((log.item(a) + log.item(b)) % (self.q - 1))

    def pow(self, a: int, e: int) -> int:
        """a**e through the discrete logs; 0**0 == 1 by convention."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if a == 0:
            return 1 if e == 0 else 0
        log, alog = self._log_tables
        return alog.item(log.item(a) * e % (self.q - 1))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        log, alog = self._log_tables
        return alog.item(-log.item(a) % (self.q - 1))

    def chi(self, a: int) -> int:
        """Quadratic character: +1 on nonzero squares, -1 on nonsquares, 0 at 0.

        The generator is a nonsquare, so a is a square exactly when its
        discrete log is even (`chi_table`).
        """
        return self.chi_table.item(a)

    def sqrt_canonical(self, a: int) -> Optional[int]:
        """r = a**((q + 1) / 4), the square root of a with chi(r) == +1 (0 at
        0), or None where a is a nonsquare.

        As q = 3 (mod 4), r**2 = a a**((q - 1) / 2) = a chi(a) = a and chi(r)
        = chi(a)**((q + 1) / 4) = 1 at every nonzero square a; the root is
        unique, as the other one, -r, has chi(-1) = -1 for odd n.
        """
        return None if self.chi(a) == -1 else self.pow(a, (self.q + 1) // 4)

    # -- text / coefficient views ---------------------------------------------

    def parse_element(self, text: str) -> int:
        digits = ["012".find(ch) for ch in text]  # -1 for any other character
        if not digits or -1 in digits:
            raise ValueError(f"element string must be base-3 digits, got {text!r}")
        if len(digits) > self.n:
            raise ValueError(f"at most {self.n} coefficients, got {len(digits)}")
        return int(text[::-1], P)

    def format_element(self, a: int) -> str:
        if not 0 <= a < self.q:
            raise ValueError(f"element index out of range: {a}")
        return "".join(str(d) for d in _idx_digits(a, self.n))

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCtx(n={self.n}, modulus={self.modulus_str!r})"

    # -- tables ------------------------------------------------------------------

    @built_once
    def _log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, alog): inverse int32 tables of q entries, alog[k] == g**k and
        log[g**k] == k for k < q - 1, and zero in the last slot: alog[q - 1]
        == 0 and log[0] == q - 1.  Built by S baby steps, whose doubling
        leaves the matrix of the giant multiplier c = g**S, and R >= 2 giant
        rows, and certified (see the module docstring).
        """
        q, n = self.q, self.n
        baby = 1 << (P**((n + 1) // 2 + 1)).bit_length() - 1
        giant = -(-(q - 1) // baby)
        weights = P**np.arange(n, dtype=np.int32)
        powers = np.zeros((baby, n), dtype=np.int8)
        powers[0, 0] = 1
        # row j: the digits of g**m * x**j; its square is the matrix of g**(2m).
        # Entries of an int8 digit-row product are at most 4n = 52 before the mod.
        mat = self._mul_matrix(_idx_digits(self.generator, n))
        m = 1
        while m < baby:
            powers[m:2 * m] = powers[:m] @ mat % P
            mat = mat @ mat % P
            m *= 2
        # mat is the matrix of c = g**baby; the last giant row runs on past
        # q - 1 (R S > q - 1, as 4 divides S but not q - 1), and alog keeps
        # the first q entries.  Every index is an element, below q, so no take
        # clips; the default mode, "raise", would write through a buffer.
        blocks = np.empty((giant, baby), dtype=np.int32)
        np.matmul(powers, weights, out=blocks[0])
        times_c = self._times_table(mat, weights)
        for i in range(1, giant):
            times_c.take(blocks[i - 1], out=blocks[i], mode="clip")
        alog = blocks.reshape(-1)[:q]
        alog[-1] = 0
        log = np.full(q, -1, dtype=np.int32)
        log[alog.astype(np.intp)] = np.arange(q, dtype=np.int32)  # intp: no buffered cast
        if log.min() < 0:
            generator = self.format_element(self.generator)
            raise InconsistencyError(f"modulus {self.modulus_str!r} with generator {generator!r}:"
                                     " the powers of the generator miss a nonzero element")
        return _frozen(log), _frozen(alog)

    def _times_table(self, c_mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """int32 c z for every z, c given by its (n, n) matrix and weights the
        int32 powers 3**i: c z = c (z mod 3^h) + c x^h (z div 3^h) as one plane
        sum over the grid of both indices, from the planes of two small tables,
        a block of rows at a time (the uint16 and int32 temporaries of a block
        stay in cache).  A plane is below 2**n, so no take clips (see
        `_log_tables`)."""
        n, h = self.n, (self.n + 1) // 2
        low_digits = _digit_rows(h)  # n - h <= h: its head holds the high digits too
        low1, low2 = _digit_planes(low_digits @ c_mat[:h] % P)
        high1, high2 = _digit_planes(low_digits[:P**(n - h), :n - h] @ c_mat[h:] % P)
        high1, high2 = high1[:, None], high2[:, None]
        value = self._plane_value
        twice = 2 * value
        out = np.empty((len(high1), len(low1)), dtype=np.int32)
        rows = max(1, 2**15 // len(low1))
        for i in range(0, len(high1), rows):
            sum1, sum2 = self._plane_sum(high1[i:i + rows], high2[i:i + rows], low1, low2)
            block = out[i:i + rows]
            value.take(sum1, out=block, mode="clip")
            block += twice.take(sum2, mode="clip")
        return out.ravel()

    @built_once
    def _plane_value(self) -> np.ndarray:
        """int32 value[m], the sum of 3**i over the set bits i of m < 2**n: the
        element with ones plane m and no digit 2 (see `_plane_sum`).  Built by
        doubling: value[2**i + m] = value[m] + 3**i for m < 2**i."""
        value = np.zeros(2**self.n, dtype=np.int32)
        for i in range(self.n):
            np.add(value[:1 << i], P**i, out=value[1 << i:2 << i])
        return _frozen(value)

    @built_once
    def chi_table(self) -> np.ndarray:
        """int8 quadratic character of every element, indexed by the element
        (see `chi`); read-only."""
        chi = (1 - 2 * (self._log_tables[0] & 1)).astype(np.int8)
        chi[0] = 0
        return _frozen(chi)

    @built_once
    def _chi_columns(self) -> np.ndarray:
        """(2, 2q - 2) uint8: the rows D+ = C + 1 and D- = 1 - C, C[m] =
        chi(g**m - 1) for m < q - 1, each twice over, so that a rotation of C
        is a slice (see `chi_pattern`)."""
        q = self.q
        c = (1 - 2 * (self._minus & 1)).astype(np.int8)  # chi(g**m - 1) = (-1)**Z-(m)
        c[0] = 0
        columns = np.empty((2, 2, q - 1), dtype=np.int8)
        np.add(c, 1, out=columns[0, 0])
        np.subtract(1, c, out=columns[1, 0])
        columns[:, 1] = columns[:, 0]
        return _frozen(columns.view(np.uint8).reshape(2, 2 * q - 2))

    def digit_table(self) -> np.ndarray:
        """(q, n) int8 array: base-3 digits of every element index, built per call."""
        return _frozen(_digit_rows(self.n))

    def pair_add_table(self) -> Optional[np.ndarray]:
        """(q, q) int32 table of element sums, built per call, or None above the
        size ceiling."""
        if self.q > PAIR_TABLE_MAX_Q:
            return None
        ones, twos = _digit_planes(_digit_rows(self.n))
        sum1, sum2 = self._plane_sum(ones[:, None], twos[:, None], ones, twos)
        value = self._plane_value
        return _frozen(value[sum1] + 2 * value[sum2])

    # -- vectorised arithmetic on index arrays ----------------------------------

    def _plane_sum(self, a1, a2, b1, b2):
        """(ones, twos): the planes of the digit-wise sum mod 3 of two plane
        pairs, ints or arrays; the element is value[ones] + 2 value[twos].

        Boothby & Bradshaw (2009): with t = (a1 | b2) ^ (a2 | b1), the sum has
        ones plane (a2 | b2) ^ t and twos plane (a1 | b1) ^ t.
        """
        t = (a1 | b2) ^ (a2 | b1)
        return (a2 | b2) ^ t, (a1 | b1) ^ t

    def chi_vec(self, a) -> np.ndarray:
        """Quadratic character of every entry, values in {-1, 0, +1}."""
        return self.chi_table[np.asarray(a)]

    # -- log order: slot k holds g**k for k < q - 1, and zero the last slot ------

    def chi_pattern(self, points: Sequence[int]) -> np.ndarray:
        """uint8 sum over i of 3**i (chi(z - a_i) + 1) for every z, in log
        order, for at most five points a_i.  As g**k - g**j = g**j (g**(k-j) -
        1) and chi(g**j) = (-1)**j, for a = g**j the column chi(z - a) + 1 is
        D+ (j even) or D- (j odd) rotated by -j, a slice of `_chi_columns`;
        for a = 0 it alternates 2, 0.  At z = 0 it is 1 - chi(a).  Horner's
        rule runs in place in uint8, exact as every partial sum is below 243."""
        q, log, columns = self.q, self._log_tables[0], self._chi_columns
        out = np.zeros(q, dtype=np.uint8)
        body, zero_slot = out[:-1], 0
        pairs = body.view(np.uint16)
        for i, a in enumerate(reversed(points)):
            if i:
                body *= 3
            if a:
                j = log.item(a)
                body += columns[j & 1, q - 1 - j:2 * q - 2 - j]
                zero_slot = 3 * zero_slot + 2 * (j & 1)
            else:  # one uint16 add of the byte pair (2, 0) beats a strided add
                pairs += _TWO_ZERO
                zero_slot = 3 * zero_slot + 1
        out[-1] = zero_slot
        return out

    def slot(self, z: int) -> int:
        """The log-order slot of z: log z, and q - 1 for z = 0."""
        return self._log_tables[0].item(_checked_index(z))

    def element_at(self, slot: int) -> int:
        """The element in a log-order slot: g**slot, and 0 in the last slot."""
        return self._log_tables[1].item(_checked_index(slot))

    @built_once
    def _minus(self) -> np.ndarray:
        """int32 Z-(m) = log(g**m - 1) for 0 < m < N, N = q - 1, and the
        sentinel Z-(0) = 2N: the turned ``log`` read at g**m (see the module
        docstring).  The scalar ops, `_chi_columns` and `_zech` share it."""
        n_logs = self.q - 1
        log, alog = self._log_tables
        minus = _neighbour(log).take(alog[:n_logs])
        minus[0] = 2 * n_logs
        return _frozen(minus)

    @built_once
    def _zech(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(minus, cross_m, cross_e, same): the tables of `difference_row`.

        With N = q - 1 and h = N / 2, minus is `_minus`: Z-(m) = log(g**m -
        1) for m != 0, and 2N at m = 0.  Z+(k) = log(g**k + 1) = h + Z-(k -
        h), as -1 = g**h, and D(k) = k - Z+(k).  For each k whose parity differs from that
        of Z+(k), cross_m and cross_e hold (D(k), -k) if k is even and (-D(k),
        h - Z+(k)) if k is odd, cross_m in [-N, 0): a gather at cross_m + c, c
        in [0, N), reads minus through a negative index in place of a modulo.

        same[v] (int8) counts the x of either parity p with chi(x) = chi(x +
        1) and f(x + 1) - f(x) = g**(L[p] + v), L[p] = log c_p.  At x, x + 1
        != 0 that is -c_p / w for w = x (x + 1), so v = h - log w; chi(w) =
        chi(x) chi(x + 1) = 1 and chi(1 + w) = chi((x - 1)**2) = 1 (x = 1 has
        chi(2) = -1).  Each such w gives one x per parity: the roots x and -1
        - x of x**2 + x = w, as chi(-1) = -1 flips both characters.  h is odd,
        so v is odd exactly when chi(w) = 1, and then g**v (1 + w) = g**v - 1
        with chi(g**v) = -1: chi(1 + w) = 1 exactly when Z-(v) is odd.  So
        same[v] = Z-(v) mod 2 at odd v, 0 at even v != 0, and same[0] = 1 for
        x = 0 (a square) or x = -1 (a nonsquare), where the difference is c_p.
        It sums to (q + 1) / 4.
        """
        q = self.q
        n_logs, h = q - 1, (q - 1) // 2
        minus = self._minus
        same = np.zeros(n_logs, dtype=np.int8)
        same[0] = 1
        same[1::2] = minus[1::2] & 1
        diff = np.concatenate([minus[h:], minus[:h]])
        diff += h
        _wrap_down(diff, n_logs)  # Z+(k); k = h, x = -1, read the sentinel
        diff[h] = h
        np.subtract(np.arange(n_logs, dtype=np.int32), diff, out=diff)  # D(k), in (-N, N)
        is_cross = (diff & 1).astype(bool)  # k - Z+(k) odd: the parities differ
        k = np.flatnonzero(is_cross).astype(np.int32)  # bool: 4x faster than on int32
        d, odd = diff[k], k & 1
        cross_m = odd * d  # D(k) at even k, -D(k) at odd k
        cross_m *= -2
        cross_m += d
        _wrap_up(cross_m, n_logs)
        cross_m -= n_logs
        cross_e = d + h  # -k at even k, h - Z+(k) = h - k + D(k) at odd k
        cross_e *= odd
        cross_e -= k
        _wrap_up(cross_e, n_logs)
        return _frozen(minus), _frozen(cross_m), _frozen(cross_e), _frozen(same)

    def difference_row(self, c_square: int, c_nonsquare: int) -> np.ndarray:
        """int32 count of x with f(x + 1) - f(x) = z for every z, in log order,
        for f(x) = c_square / x at squares, c_nonsquare / x at nonsquares, f(0) = 0,
        c_square and c_nonsquare not both 0.  With one c zero the entry at
        z = 0 is (q + 1) / 4, too large for int16 from n = 11 on.

        For x = g**k, write L = (log c_square, log c_nonsquare) and p0, p1
        for the parities of k and Z+(k) (see `_zech`).  Then f(x + 1) - f(x) =
        g**B (g**(A - B) - 1) with B = L[p0] - k and A - B = D(k) + L[p1] -
        L[p0], so its log is B + Z-(A - B).  Where p0 = p1 that is L[p0] +
        Z-(D(k)) - k, and the x of parity p0 add the one row same turned by
        L[p0], which `_zech` reads off Z- in closed form.  Where they
        differ, Z-(-m) = Z-(m) - m + h makes both groups Z-(cross_m + c) +
        cross_e + L[0] with c = L[1] - L[0]: one gather and one bincount, a
        zero difference (Z-(0) = 2N) landing past the N bins.  The row is
        symmetric in the two c, as the f with them swapped is x -> -f(-x)
        (chi(-1) = -1; f_{-u}(-x) = -f_u(x)), whose difference at x is that
        of f at -1 - x, so a zero c_square is swapped into c_nonsquare.
        Then f vanishes on the nonsquares: their same-parity x, (q + 1) / 4
        of them, differ by 0, and each cross x by -f(x) or f(x + 1), the
        one at a square, at the log cross_e + L[0] + h.
        """
        q = self.q
        n_logs, h = q - 1, (q - 1) // 2
        minus, cross_m, cross_e, same = self._zech
        if not c_square:
            c_square, c_nonsquare = c_nonsquare, c_square
        logs = [self.slot(c_square), self.slot(c_nonsquare)]
        if c_nonsquare:
            values = minus[cross_m + (logs[1] - logs[0]) % n_logs]
            values += cross_e
            _wrap_down(values, n_logs)
            turn = logs[0]
        else:
            values, turn = cross_e, (logs[0] + h) % n_logs
        counts = np.bincount(values, minlength=n_logs)
        row = np.empty(q, dtype=np.int32)
        row[turn:-1], row[:turn] = counts[:n_logs - turn], counts[n_logs - turn:n_logs]
        row[-1] = counts[n_logs:].sum()
        for turn, c in zip(logs, (c_square, c_nonsquare)):
            if c:
                row[turn:-1] += same[:n_logs - turn]
                row[:turn] += same[n_logs - turn:]
            else:  # every x of this class differs by 0; same sums to (q + 1) / 4
                row[-1] += (q + 1) // 4
        return row


def _digit_rows(k: int) -> np.ndarray:
    """(3**k, k) int8: the base-3 digits of 0 .. 3**k - 1, least significant first."""
    return (np.arange(P**k)[:, None] // P**np.arange(k) % P).astype(np.int8)


def _digit_planes(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ones, twos): uint16 bit planes of digit rows, bit i of a row's ones
    (twos) set when its digit i is 1 (2)."""
    bits = (1 << np.arange(digits.shape[1])).astype(np.uint16)
    return (digits == 1) @ bits, (digits == 2) @ bits


def _checked_index(i: int) -> int:
    """i itself, which must not be negative: a table read at -1 would give its
    last entry."""
    if i < 0:
        raise IndexError(f"index {i} is negative")
    return i


def _matrix_power(mat: np.ndarray, e: int) -> np.ndarray:
    """mat**e mod 3 by square-and-multiply: int8, as in the log build, with
    entries at most 4n = 52 before each mod."""
    result = np.eye(len(mat), dtype=np.int8)
    while e:
        if e & 1:
            result = result @ mat % P
        mat = mat @ mat % P
        e >>= 1
    return result


def _neighbour(table: np.ndarray) -> np.ndarray:
    """table[e - 1] for every element e of a table in element order: e - 1
    differs from e in digit 0 alone, so as a (q / 3, 3) grid column d moves to
    column d + 1 (mod 3), one shift by one place and a copy of column 2 (a
    fancy index of the grid took 10 to 20 times as long at n = 9)."""
    out = np.empty_like(table)
    out[1:] = table[:-1]
    out[::P] = table[P - 1::P]
    return out


# The byte pair (2, 0) as one uint16, in the byte order of the machine.
_TWO_ZERO = np.frombuffer(bytes([2, 0]), dtype=np.uint16)[0]


# A ufunc's `where=` runs its inner loop once per run of True, which is slow
# on a scattered mask; these two add the bool mask times n instead.

def _wrap_up(values: np.ndarray, n: int) -> None:
    """In place: values in [-n, n) to [0, n)."""
    values += (values < 0) * np.int32(n)


def _wrap_down(values: np.ndarray, n: int) -> None:
    """In place: n less on every value from n up, so [0, 2n) goes to [0, n)."""
    values -= (values >= n) * np.int32(n)


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def make_context(n: int, modulus: Optional[str] = None) -> FieldCtx:
    """Build GF(3^n) on a modulus given as a digit string, lowest degree first;
    the default modulus and generator come from `DEFAULT_FIELDS`."""
    return FieldCtx(n, modulus)
