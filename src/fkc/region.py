"""Finitely generated closed (downward-closed) regions of the poset Z x Z.

A region is stored as the antichain of its maximal corner points: the set it
represents is the union of the quadrants below the corners.  Corners are kept
sorted with i strictly ascending (hence j strictly descending), which doubles
as the canonical form used for equality, ordering and text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, order=True)
class Point:
    i: int
    j: int

    def leq(self, other: "Point") -> bool:
        """Product partial order: (i,j) <= (k,l) iff i <= k and j <= l."""
        return self.i <= other.i and self.j <= other.j

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


@dataclass(frozen=True, order=True)
class ClosedRegion:
    corners: tuple[Point, ...]

    def __post_init__(self):
        if not self.corners:
            raise ValueError("a closed region needs at least one corner")
        for a, b in zip(self.corners, self.corners[1:]):
            if not (a.i < b.i and a.j > b.j):
                raise ValueError("corners must be an antichain sorted by i ascending")

    @property
    def max_i(self) -> int:
        return self.corners[-1].i

    @property
    def max_j(self) -> int:
        return self.corners[0].j

    def contains_point(self, p: Point) -> bool:
        return any(p.leq(c) for c in self.corners)

    def render(self) -> str:
        return "{" + ",".join(str(c) for c in self.corners) + "}"

    def __str__(self) -> str:
        return self.render()


def quadrant(k: int, l: int) -> ClosedRegion:
    """The quadrant R_(k,l) = {(i,j) : i <= k and j <= l}."""
    return ClosedRegion((Point(k, l),))


def closure(points: Iterable[Point]) -> ClosedRegion:
    """Smallest closed region containing the points: union of their quadrants.

    The corners are the maximal elements of the input set.
    """
    pts = set(points)
    if not pts:
        raise ValueError("closure of the empty set is not a chain region")
    # Sweep by descending i (j descending as tiebreak): a point is maximal
    # iff its j exceeds every j seen at strictly larger (or equal) i.
    best_j = None
    corners = []
    for p in sorted(pts, key=lambda p: (-p.i, -p.j)):
        if best_j is None or p.j > best_j:
            corners.append(p)
            best_j = p.j
    corners.reverse()
    return ClosedRegion(tuple(corners))


def render_region_set(regions: Iterable[ClosedRegion]) -> str:
    """Canonical text form of a set of regions: `{ {(i,j),...}, ... }`."""
    parts = [r.render() for r in sorted(regions)]
    if not parts:
        return "{ }"
    return "{ " + ", ".join(parts) + " }"
