"""Exact linear algebra over GF(2) on int-packed bit vectors.

Vectors are immutable wrappers around Python ints (bit i = coordinate i),
matrices pack each column into one int.  One left-to-right column reducer
(`relations`) gives ranks, kernels and particular solutions; it keeps the
first maximal independent set of columns, so kernel bases and solutions
are those of the reduced row echelon form and reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence


class EnumerationLimitError(RuntimeError):
    """A coset enumeration would exceed the configured cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"enumeration requires {required} vectors but the cap is {cap}"
            f" (rerun with --max-enum {required} or higher)"
        )
        self.required = required
        self.cap = cap


@dataclass(frozen=True)
class BitVec:
    """GF(2) vector of fixed length; addition is bitwise XOR."""

    bits: int
    length: int

    def __post_init__(self):
        if self.length < 0 or self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits do not fit the declared length")

    @staticmethod
    def zero(length: int) -> "BitVec":
        return BitVec(0, length)

    @staticmethod
    def unit(length: int, index: int) -> "BitVec":
        return BitVec(1 << index, length)

    @staticmethod
    def from_indices(length: int, indices: Iterable[int]) -> "BitVec":
        bits = 0
        for i in indices:
            bits |= 1 << i
        return BitVec(bits, length)

    def __add__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVec(self.bits ^ other.bits, self.length)

    __xor__ = __add__

    def get(self, index: int) -> int:
        return (self.bits >> index) & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0


@dataclass(frozen=True)
class BitMatrix:
    """GF(2) matrix, one int per column (bit r of col_words[c] = entry (r, c))."""

    rows: int
    cols: int
    col_words: tuple[int, ...]

    def __post_init__(self):
        if len(self.col_words) != self.cols:
            raise ValueError("column count mismatch")
        if any(w < 0 or w >> self.rows for w in self.col_words):
            raise ValueError("column word out of range")

    @staticmethod
    def from_columns(columns: Sequence[int], rows: int) -> "BitMatrix":
        """Build from column bitmasks (bit r of columns[c] = entry (r, c))."""
        return BitMatrix(rows, len(columns), tuple(columns))

    def mul_vec(self, x: BitVec) -> BitVec:
        if x.length != self.cols:
            raise ValueError("dimension mismatch")
        out = 0
        bits = x.bits
        while bits:
            low = bits & -bits
            out ^= self.col_words[low.bit_length() - 1]
            bits ^= low
        return BitVec(out, self.rows)


class Span:
    """Incrementally reduced span of GF(2) vectors (membership oracle)."""

    def __init__(self, length: int, vectors: Iterable[BitVec] = ()):
        self.length = length
        self._pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def reduce(self, bits: int) -> int:
        """Remainder of bits modulo the span; 0 iff bits lies in it."""
        while bits:
            low = (bits & -bits).bit_length() - 1
            row = self._pivots.get(low)
            if row is None:
                return bits
            bits ^= row
        return 0

    def add(self, v: BitVec) -> bool:
        """Add a vector; True if the dimension grew."""
        if v.length != self.length:
            raise ValueError("length mismatch")
        rem = self.reduce(v.bits)
        if rem == 0:
            return False
        self._pivots[(rem & -rem).bit_length() - 1] = rem
        return True

    def contains(self, v: BitVec) -> bool:
        if v.length != self.length:
            raise ValueError("length mismatch")
        return self.reduce(v.bits) == 0


def relations(columns: Iterable[tuple[int, int]]) -> Iterator[int]:
    """Left-to-right column elimination that tracks combinations.

    Takes (column, tag) pairs; each tag (usually 1 << column index) is
    added along with its column.  Pivots are keyed by the lowest set bit of
    the reduced column, as in Span.reduce.  Yields, in column order, the
    tag sum of the relation each column has with the earlier ones, for
    every column that depends on them.  A column's relation involves only
    itself and earlier pivot columns, so with unit tags these are the
    reduced-row-echelon kernel vectors, one per free column.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for col, tag in columns:
        while col:
            low = (col & -col).bit_length() - 1
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = (col, tag)
                break
            col ^= hit[0]
            tag ^= hit[1]
        else:
            yield tag


def _unit_tagged(m: BitMatrix) -> Iterator[tuple[int, int]]:
    return ((col, 1 << c) for c, col in enumerate(m.col_words))


def rank(m: BitMatrix) -> int:
    """Dimension of the column space (= row space) over GF(2)."""
    return m.cols - sum(1 for _ in relations((col, 0) for col in m.col_words))


def solve(m: BitMatrix, b: BitVec) -> Optional[BitVec]:
    """Some x with m·x = b, or None if b is outside the column space.

    Free variables are set to zero, so the particular solution is unique
    for a given matrix.
    """
    if b.length != m.rows:
        raise ValueError("right-hand side length must equal the row count")
    last = 1 << m.cols
    for tag in relations(chain(_unit_tagged(m), ((b.bits, last),))):
        if tag & last:
            return BitVec(tag ^ last, m.cols)
    return None


def kernel_basis(m: BitMatrix) -> list[BitVec]:
    """Basis of {x : m·x = 0}, one vector per free column, ascending."""
    return [BitVec(tag, m.cols) for tag in relations(_unit_tagged(m))]


def column_space_basis(m: BitMatrix) -> list[BitVec]:
    """First maximal independent subset of the columns, in column order."""
    span = Span(m.rows)
    basis = []
    for col in m.col_words:
        v = BitVec(col, m.rows)
        if span.add(v):
            basis.append(v)
    return basis


def enumerate_coset(x0: BitVec, basis: Sequence[BitVec], cap: int) -> Iterator[BitVec]:
    """Yield all 2^len(basis) vectors of x0 + span(basis), each exactly once.

    Gray-code order: consecutive vectors differ by one basis element.
    Raises EnumerationLimitError (naming the required budget) when the
    coset is larger than cap.  Callers must ensure basis independence for
    the "exactly once" guarantee.
    """
    for v in basis:
        if v.length != x0.length:
            raise ValueError("length mismatch")
    k = len(basis)
    required = 1 << k
    if required > cap:
        raise EnumerationLimitError(required, cap)
    bits = x0.bits
    yield BitVec(bits, x0.length)
    prev_gray = 0
    for i in range(1, required):
        gray = i ^ (i >> 1)
        flip = (gray ^ prev_gray).bit_length() - 1
        prev_gray = gray
        bits ^= basis[flip].bits
        yield BitVec(bits, x0.length)
