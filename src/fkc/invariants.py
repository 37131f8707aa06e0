"""Concordance-type invariants of formal knot complexes.

Two computation routes coexist on purpose:

* nu_plus / v_k / tau / upsilon_at decide "does this closed region's
  subcomplex contain a homological generator" by a GF(2) rank test (a
  grading-0 cycle supported in the region that is not a boundary), then
  scan the finitely many candidate regions.  No generator enumeration, so
  they stay cheap on tensor products.  The test runs on the complex's
  cached probe (FormalComplex.h0_probe), so every query on one complex
  shares one elimination of d_0.
* g0 / g_next / g_tower / hom_generators / upsilon2 enumerate the full
  coset of homological generators (or connecting chains) with a hard cap,
  because the region invariants need the actual chains.

The *_from_g0 functions evaluate the same invariants from a G0 region set
alone; the test suite checks all routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .complexes import (
    FormalComplex,
    genus,
    quadrant_thresholds,
    region_thresholds,
    slanted_halfplane_thresholds,
    staircase_region_thresholds,
    tau_region_thresholds,
    tensor,
    dual,
)
from .gf2 import (
    BitVec,
    EnumerationLimitError,
    Span,
    enumerate_coset,
    kernel_basis,
    set_bits,
    solve,
)
from .region import ClosedRegion, Point, minimalize

DEFAULT_ENUM_CAP = 1 << 22

INFINITY = float("inf")

Rational = Union[Fraction, int, str]


@dataclass(frozen=True)
class HomGenerator:
    """A grading-0 cycle with nonzero class, plus its chain region."""

    vector: BitVec
    region: ClosedRegion


# ---------------------------------------------------------------------------
# Support sweeps: region of a chain


def _sweep_order(c: FormalComplex, n: int) -> tuple[list[Point], list[int]]:
    """Support points of the grading-n basis and an index order for the
    maximal-point sweep (i descending, j descending)."""
    pts = [c.support(el) for el in c.graded_basis(n)]
    order = sorted(range(len(pts)), key=lambda i: (-pts[i].i, -pts[i].j))
    return pts, order


def _region_of_bits(bits: int, pts: list[Point], order: list[int]) -> ClosedRegion:
    corners = []
    best_j = None
    for i in order:
        if (bits >> i) & 1:
            p = pts[i]
            if best_j is None or p.j > best_j:
                corners.append(p)
                best_j = p.j
    corners.reverse()
    return ClosedRegion(tuple(corners))


def _minimal_realizers(
    c: FormalComplex, n: int, chains: Iterable[int]
) -> dict[ClosedRegion, tuple[BitVec, ...]]:
    """Group distinct grading-n chains by region: each subset-minimal
    region with its realizers, ascending."""
    pts, order = _sweep_order(c, n)
    by_region: dict[ClosedRegion, list[int]] = {}
    for bits in chains:
        by_region.setdefault(_region_of_bits(bits, pts, order), []).append(bits)
    return {
        r: tuple(BitVec(b, len(pts)) for b in sorted(by_region[r]))
        for r in minimalize(by_region)
    }


# ---------------------------------------------------------------------------
# Homological generator machinery


def contains_hom_generator(c: FormalComplex, region: ClosedRegion) -> bool:
    """True iff the subcomplex over the region contains a homological generator."""
    return c.h0_probe.test(region_thresholds(c, region))


def hom_generators(c: FormalComplex, cap: int = DEFAULT_ENUM_CAP) -> tuple[HomGenerator, ...]:
    """The full finite set of homological generators with their regions.

    These are exactly z0 + b for b in the image of the grading-1 boundary,
    so the count is 2^dim(boundaries).
    """
    probe = c.h0_probe
    pts, order = _sweep_order(c, 0)
    return tuple(
        HomGenerator(BitVec(v, len(pts)), _region_of_bits(v, pts, order))
        for v in enumerate_coset(probe.z0, probe.boundary_basis, cap)
    )


# ---------------------------------------------------------------------------
# nu+, V_k, tau, Upsilon (region-scan route)


def nu_plus(c: FormalComplex) -> int:
    """Least m >= 0 such that the quadrant {i <= 0, j <= m} holds a generator."""
    probe = c.h0_probe
    g = genus(c)
    for m in range(0, g + 1):
        if probe.test(quadrant_thresholds(c, 0, m)):
            return m
    raise ValueError("no homological generator in {i <= 0}; the complex violates the axioms")


def v_k(c: FormalComplex, k: int) -> int:
    """Least m >= 0 such that R_(m, k+m) holds a homological generator."""
    if k < 0:
        raise ValueError("k must be non-negative")
    probe = c.h0_probe
    g = genus(c)
    for m in range(0, g + 1):
        if probe.test(quadrant_thresholds(c, m, k + m)):
            return m
    raise ValueError("no homological generator in {i <= 0}; the complex violates the axioms")


def tau(c: FormalComplex) -> int:
    """Least m with a homological generator in {i <= -1} union R_(0,m)."""
    probe = c.h0_probe
    g = genus(c)
    for m in range(-g, g + 1):
        if probe.test(tau_region_thresholds(c, m)):
            return m
    raise ValueError("tau exceeds the genus bound; the complex violates the axioms")


def _line_value(p: Point, t: Fraction) -> Fraction:
    return (1 - t / 2) * p.i + (t / 2) * p.j


def upsilon_at(c: FormalComplex, t: Rational) -> Fraction:
    """Exact value of Upsilon at one rational t in [0, 2]."""
    t = Fraction(t)
    if not 0 <= t <= 2:
        raise ValueError("t must lie in [0, 2]")
    probe = c.h0_probe
    cands = sorted({_line_value(c.support(el), t) for el in c.graded_basis(0)})
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if probe.test(slanted_halfplane_thresholds(c, t, cands[mid])):
            hi = mid
        else:
            lo = mid + 1
    if not probe.test(slanted_halfplane_thresholds(c, t, cands[lo])):
        raise ValueError("no homological generator found; the complex violates the axioms")
    return -2 * cands[lo]


# ---------------------------------------------------------------------------
# G0 and the higher tower


def g0(c: FormalComplex, cap: int = DEFAULT_ENUM_CAP) -> tuple[ClosedRegion, ...]:
    """Minimal chain regions of the homological generators, canonically sorted."""
    return tuple(level0_realizers(c, cap))


def level0_realizers(
    c: FormalComplex, cap: int = DEFAULT_ENUM_CAP
) -> dict[ClosedRegion, tuple[BitVec, ...]]:
    """Realizer sets gen_0(C; R) for every R in G0(C), in G0 order."""
    probe = c.h0_probe
    return _minimal_realizers(c, 0, enumerate_coset(probe.z0, probe.boundary_basis, cap))


def g_next(
    c: FormalComplex,
    realizers: Mapping[ClosedRegion, Sequence[BitVec]],
    pair: tuple[ClosedRegion, ClosedRegion],
    level: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[tuple[ClosedRegion, ...], dict[ClosedRegion, tuple[BitVec, ...]]]:
    """One induction step of the region tower.

    Level n solutions are grading-n chains x with boundary z1 + z2, where
    z1, z2 are realizers of the two chosen regions of level n-1.  For
    n >= 2 only realizer pairs with equal boundary are admissible (at
    level 1 the realizers are cycles, so the constraint is vacuous).
    Returns the minimalized region set, which may be empty for n >= 2,
    together with all realizers of each surviving region.
    """
    r1, r2 = pair
    if r1 == r2:
        raise ValueError("the chosen regions must be distinct")
    if r1 not in realizers or r2 not in realizers:
        raise ValueError("chosen regions must come from the previous level")
    d_here = c.boundary_matrix(level)
    d_prev = c.boundary_matrix(level - 1)

    def by_boundary(chains: Sequence[BitVec]) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for z in chains:
            groups.setdefault(d_prev.mul_vec(z.bits), []).append(z.bits)
        return groups

    groups1 = by_boundary(realizers[r1])
    groups2 = by_boundary(realizers[r2])
    rhs = set()
    for bd, bucket1 in groups1.items():
        bucket2 = groups2.get(bd)
        if not bucket2:
            continue
        for b1 in bucket1:
            for b2 in bucket2:
                rhs.add(b1 ^ b2)
    kernel = kernel_basis(d_here)
    total = len(rhs) << len(kernel)
    if total > cap:
        raise EnumerationLimitError(total, cap)
    solutions = (solve(d_here, b) for b in sorted(rhs))
    chains = (x for x0 in solutions if x0 is not None for x in enumerate_coset(x0, kernel, cap))
    found = _minimal_realizers(c, level, chains)
    return tuple(found), found


@dataclass(frozen=True)
class GLevel:
    regions: tuple[ClosedRegion, ...]
    chosen_pair: Optional[tuple[ClosedRegion, ClosedRegion]]
    realizers: Mapping[ClosedRegion, tuple[BitVec, ...]]


@dataclass(frozen=True)
class GTower:
    levels: tuple[GLevel, ...]
    stop_reason: str  # depth | singleton | empty | branching

    def region_sets(self) -> list[tuple[ClosedRegion, ...]]:
        return [lvl.regions for lvl in self.levels]


def g_tower(c: FormalComplex, depth: int, cap: int = DEFAULT_ENUM_CAP) -> GTower:
    """Run the tower, pairing the two regions whenever a level has exactly two.

    Stops at the depth bound, at a singleton or empty level, or when a
    level has more than two regions (no canonical pair).
    """
    realizers0 = level0_realizers(c, cap)
    levels = [GLevel(tuple(sorted(realizers0)), None, realizers0)]
    reason = "depth"
    while len(levels) - 1 < depth:
        prev = levels[-1]
        if len(prev.regions) == 0:
            reason = "empty"
            break
        if len(prev.regions) == 1:
            reason = "singleton"
            break
        if len(prev.regions) > 2:
            reason = "branching"
            break
        pair = (prev.regions[0], prev.regions[1])
        regions, realizers = g_next(c, prev.realizers, pair, len(levels), cap)
        levels.append(GLevel(regions, pair, realizers))
    return GTower(tuple(levels), reason)


# ---------------------------------------------------------------------------
# Formulas from a G0 region set


def nu_plus_from_g0(regions: Iterable[ClosedRegion]) -> int:
    best = None
    for r in regions:
        if r.max_i <= 0:
            m = max(0, r.max_j)
            best = m if best is None else min(best, m)
    if best is None:
        raise ValueError("no region fits in {i <= 0}; not a G0 set of a valid complex")
    return best


def nu_plus_dual_from_g0(regions: Iterable[ClosedRegion]) -> int:
    """nu+ of the dual complex: least m >= 0 with R_(0,-m) inside every region."""
    worst = 0
    for r in regions:
        js = [p.j for p in r.corners if p.i >= 0]
        if not js:
            raise ValueError("a region misses {i >= 0}; not a G0 set of a valid complex")
        worst = max(worst, -max(js))
    return worst


def v_k_from_g0(regions: Iterable[ClosedRegion], k: int) -> int:
    return min(max(0, r.max_i, r.max_j - k) for r in regions)


def tau_from_g0(regions: Iterable[ClosedRegion]) -> int:
    best = None
    for r in regions:
        if r.max_i > 0:
            continue
        if r.max_i < 0:
            raise ValueError("a region lies in {i <= -1}; not a G0 set of a valid complex")
        m = r.corners[-1].j  # the unique corner at i = 0
        best = m if best is None else min(best, m)
    if best is None:
        raise ValueError("no region fits in {i <= 0}; not a G0 set of a valid complex")
    return best


def upsilon_from_g0(regions: Iterable[ClosedRegion]) -> "PLFunction":
    """Exact PL Upsilon: -2 times the lower envelope of the region support maxima."""
    corner_lines = [
        [(Fraction(p.i), Fraction(p.j - p.i, 2)) for p in r.corners] for r in regions
    ]
    lines = sorted({ln for lns in corner_lines for ln in lns})
    ts = {Fraction(0), Fraction(2)}
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            (v1, s1), (v2, s2) = lines[a], lines[b]
            if s1 == s2:
                continue
            t = (v2 - v1) / (s1 - s2)
            if 0 < t < 2:
                ts.add(t)
    samples = []
    for t in sorted(ts):
        v = min(max(v0 + sl * t for v0, sl in lns) for lns in corner_lines)
        samples.append((t, -2 * v))
    return PLFunction.from_samples(samples)


def upsilon(c: FormalComplex, cap: int = DEFAULT_ENUM_CAP) -> "PLFunction":
    """The full Upsilon function, assembled from G0 with exact rationals."""
    return upsilon_from_g0(g0(c, cap))


# ---------------------------------------------------------------------------
# Upsilon^2


def upsilon2(
    c: FormalComplex, t: Rational, s: Rational, cap: int = DEFAULT_ENUM_CAP
) -> Union[Fraction, float]:
    """The secondary invariant at (t, s); infinity when the one-sided
    Upsilon-minimizing generator families overlap.

    The one-sided families are computed lexicographically: among the
    generators attaining upsilon(t), the right family minimizes the
    maximal active support slope (the right derivative), the left family
    maximizes the minimal active slope (the left derivative).  The exact
    one-sided derivatives stand in for a small positive offset of t.
    """
    t = Fraction(t)
    s = Fraction(s)
    if not 0 < t < 2:
        raise ValueError("t must lie strictly between 0 and 2")
    if not 0 <= s <= 2:
        raise ValueError("s must lie in [0, 2]")
    probe = c.h0_probe
    pts0 = [c.support(el) for el in c.graded_basis(0)]
    # (value on the t-line, support slope) of each grading-0 point
    marks = [(_line_value(p, t), Fraction(p.j - p.i, 2)) for p in pts0]
    stats = []
    for v in enumerate_coset(probe.z0, probe.boundary_basis, cap):
        vals = [marks[i] for i in set_bits(v)]
        fz, steepest = max(vals)
        stats.append((v, fz, steepest, min(sl for val, sl in vals if val == fz)))
    v_min = min(fz for _, fz, _, _ in stats)
    at_min = [entry for entry in stats if entry[1] == v_min]
    right_slope = min(entry[2] for entry in at_min)
    left_slope = max(entry[3] for entry in at_min)
    z_plus = {entry[0] for entry in at_min if entry[2] == right_slope}
    z_minus = [entry[0] for entry in at_min if entry[3] == left_slope]
    if any(v in z_plus for v in z_minus):
        return INFINITY

    sums = sorted({a ^ b for a in z_minus for b in z_plus})
    pts1 = [c.support(el) for el in c.graded_basis(1)]
    cols = c.boundary_matrix(1).col_words
    span = Span()
    pending = []
    for p, col in zip(pts1, cols):
        if _line_value(p, t) <= v_min:
            span.add(col)
        else:
            pending.append((_line_value(p, s), col))
    if any(span.contains(b) for b in sums):
        raise AssertionError(
            "connecting chain lies in the t-halfplane alone; upsilon^2 would be -infinity"
        )
    pending.sort()
    cands = sorted({_line_value(p, s) for p in pts1 + pts0})
    idx = 0
    for r in cands:
        while idx < len(pending) and pending[idx][0] <= r:
            span.add(pending[idx][1])
            idx += 1
        if any(span.contains(b) for b in sums):
            return -2 * (r - v_min)
    raise AssertionError("families never merge; H_0 classes must agree in the full complex")


# ---------------------------------------------------------------------------
# Comparison and surgery correction terms


def compare(c: FormalComplex, d: FormalComplex) -> str:
    """Order of the stable equivalence classes: equal/less/greater/incomparable."""
    a = nu_plus(tensor(c, dual(d)))
    b = nu_plus(tensor(dual(c), d))
    if a == 0 and b == 0:
        return "equal"
    if a == 0:
        return "less"
    if b == 0:
        return "greater"
    return "incomparable"


def d_surgery_delta(c: FormalComplex, p: int, q: int, i: int) -> int:
    """Correction-term difference d(S^3_{p/q}) - d(unknot surgery) at spin-c index i."""
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime positive integers")
    if not 0 <= i <= p - 1:
        raise ValueError(f"spin-c index must lie in [0, {p - 1}]")
    return -2 * max(v_k(c, i // q), v_k(c, (p + q - 1 - i) // q))


# ---------------------------------------------------------------------------
# Exact piecewise-linear functions on [0, 2]


@dataclass(frozen=True)
class PLFunction:
    """Continuous piecewise-linear function on [0,2] with rational breakpoints.

    Canonical form: t strictly increasing from 0 to 2, no three consecutive
    collinear breakpoints.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bps = self.breakpoints
        if len(bps) < 2 or bps[0][0] != 0 or bps[-1][0] != 2:
            raise ValueError("breakpoints must span [0, 2]")
        for (t1, _), (t2, _) in zip(bps, bps[1:]):
            if not t1 < t2:
                raise ValueError("breakpoint abscissae must strictly increase")

    @staticmethod
    def from_samples(samples: Iterable[tuple[Rational, Rational]]) -> "PLFunction":
        pts = sorted((Fraction(t), Fraction(v)) for t, v in set(samples))
        dedup: list[tuple[Fraction, Fraction]] = []
        for t, v in pts:
            if dedup and dedup[-1][0] == t:
                if dedup[-1][1] != v:
                    raise ValueError(f"conflicting samples at t = {t}")
                continue
            dedup.append((t, v))
        out: list[tuple[Fraction, Fraction]] = []
        for t, v in dedup:
            while len(out) >= 2:
                (t0, v0), (t1, v1) = out[-2], out[-1]
                if (v1 - v0) * (t - t1) == (v - v1) * (t1 - t0):
                    out.pop()
                else:
                    break
            out.append((t, v))
        return PLFunction(tuple(out))

    def value(self, t: Rational) -> Fraction:
        t = Fraction(t)
        bps = self.breakpoints
        if not bps[0][0] <= t <= bps[-1][0]:
            raise ValueError("argument outside [0, 2]")
        for (t1, v1), (t2, v2) in zip(bps, bps[1:]):
            if t <= t2:
                return v1 + (v2 - v1) * (t - t1) / (t2 - t1)
        raise AssertionError("unreachable")

    def slope_at_zero(self) -> Fraction:
        (t1, v1), (t2, v2) = self.breakpoints[0], self.breakpoints[1]
        return (v2 - v1) / (t2 - t1)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        ts = {t for t, _ in self.breakpoints} | {t for t, _ in other.breakpoints}
        return PLFunction.from_samples((t, self.value(t) + other.value(t)) for t in ts)

    def __neg__(self) -> "PLFunction":
        return PLFunction(tuple((t, -v) for t, v in self.breakpoints))

    def scale(self, factor: Rational) -> "PLFunction":
        factor = Fraction(factor)
        if factor == 0:
            return PLFunction(((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))))
        return PLFunction(tuple((t, factor * v) for t, v in self.breakpoints))

    def render(self) -> str:
        return " ".join(f"({t},{v})" for t, v in self.breakpoints)

    def __str__(self) -> str:
        return self.render()


def staircase_slice_has_hom_generator(c: FormalComplex, g: int) -> bool:
    """Does the subcomplex over R^g (union of the staircase quadrants) hold
    a homological generator?"""
    return c.h0_probe.test(staircase_region_thresholds(c, g))
