"""Exact linear algebra over GF(2) on int-packed bit vectors.

Inside the package a vector is a plain int (bit i = coordinate i) and a
matrix is a tuple of column ints (bit r of column c = entry (r, c)).
BitVec, which adds the length, is built only where a vector leaves the
library, in the results of the invariants; an affine space of vectors
leaves it as a Coset, which yields its BitVecs lazily and ascending, at
any dimension.  One left-to-right column reducer (`relations`) gives ranks
and, through the tags it carries, the kernel vectors and preimages the
invariants need; it keeps the first maximal independent set of columns, so
those are the reduced-row-echelon ones and reproducible across runs.
`affine_kernel` puts the solutions of one inhomogeneous system through it
as a Coset, and `Coset.restrict`, the one region cut, keeps a coset's
vectors on a coordinate set with one such pass.  `check_cap` is the budget
test of a caller that wants every vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import xor
from typing import Iterable, Iterator, Optional, Sequence


def _count(n: int) -> str:
    """n in decimal below 2^64, else by its power of two (str() refuses ints
    of more than 4,300 digits)."""
    e = n.bit_length() - 1
    return str(n) if n < 1 << 64 else f"2^{e}" if n == 1 << e else f"over 2^{e}"


class EnumerationLimitError(RuntimeError):
    """A coset enumeration would exceed the configured cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"enumeration requires {_count(required)} vectors but the cap is {_count(cap)}"
            f" (rerun with --max-enum {_count(required)} or higher)"
        )
        self.required = required
        self.cap = cap


def set_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative int, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class BitVec:
    """GF(2) vector of fixed length, as returned in results."""

    bits: int
    length: int

    def __post_init__(self):
        if self.length < 0 or self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits do not fit the declared length")


class Span:
    """Incrementally reduced span of GF(2) vectors (membership oracle)."""

    def __init__(self, vectors: Iterable[int] = ()):
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

    def add(self, v: int) -> bool:
        """Add a vector; True if the dimension grew."""
        rem = self.reduce(v)
        if rem == 0:
            return False
        self._pivots[(rem & -rem).bit_length() - 1] = rem
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


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


def affine_kernel(
    point: tuple[int, int], dirs: Sequence[tuple[int, int]], length: int
) -> Optional["Coset"]:
    """The Coset of tag sums tag(point) + sum(c_k tag(dirs[k])), vectors of
    the given length, over the solutions c of col(point) + sum(c_k
    col(dirs[k])) = 0, for (column, tag) pairs; None when there is no
    solution.

    Bit 0 of the shifted tags marks the point's column, which comes last,
    so its relation (if any) is the last one; the basis keeps the first
    independent tag sums of the others.
    """
    rels = list(relations([(col, tag << 1) for col, tag in dirs] + [(point[0], point[1] << 1 | 1)]))
    if not rels or not rels[-1] & 1:
        return None
    span = Span()
    return Coset(rels[-1] >> 1, tuple(tag >> 1 for tag in rels[:-1] if span.add(tag >> 1)), length)


def rank(columns: Sequence[int]) -> int:
    """Dimension of the span of the column words (= row rank) over GF(2)."""
    return len(columns) - sum(1 for _ in relations((col, 0) for col in columns))


def check_cap(basis: Sequence[int], cap: int) -> None:
    """EnumerationLimitError (naming the required budget) when the
    2^len(basis) vectors of a coset with this basis exceed cap."""
    if 1 << len(basis) > cap:
        raise EnumerationLimitError(1 << len(basis), cap)


@dataclass(frozen=True)
class Coset:
    """The affine space point + span(basis) of GF(2) vectors of a fixed
    length, basis independent; it iterates as BitVecs, lazily and
    ascending, with no cap.  Two Cosets compare equal only when their
    point and basis are equal."""

    point: int
    basis: tuple[int, ...]
    length: int

    def __iter__(self) -> Iterator[BitVec]:
        # Echelon form keyed by the highest bit: XOR with r flips r's pivot
        # and lower bits only, so min(v, v ^ r) clears r's pivot in v.  Each
        # pivot is then set in exactly one row, and never in the point.
        rows: list[int] = []
        for b in self.basis:
            for r in rows:
                b = min(b, b ^ r)
            rows = [min(r, r ^ b) for r in rows] + [b]
        rows.sort()
        v = self.point
        for r in rows:
            v = min(v, v ^ r)
        # Count in binary over the pivots, ascending.  Where the counter's
        # highest changed bit goes 0 -> 1, that row's pivot does too, and
        # bits above the pivot that flips come only from rows whose
        # coefficient does not change.  Step i flips the rows of i ^ (i - 1).
        flips = list(accumulate(rows, xor))
        yield BitVec(v, self.length)
        for i in range(1, 1 << len(rows)):
            v ^= flips[(i & -i).bit_length() - 1]
            yield BitVec(v, self.length)

    def restrict(self, inside: int) -> Optional["Coset"]:
        """The vectors of the coset supported on the coordinates set in
        inside, from one affine_kernel pass; None when there are none."""
        return affine_kernel(
            (self.point & ~inside, self.point), [(b & ~inside, b) for b in self.basis], self.length
        )
