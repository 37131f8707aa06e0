"""Concordance-type invariants of formal knot complexes.

Two computation routes coexist on purpose:

* nu_plus / v_k / tau / upsilon_at decide "does this closed region's
  subcomplex contain a homological generator" by a GF(2) rank test (a
  grading-0 cycle supported in the region that is not a boundary), then
  scan the finitely many candidate regions.  No generator enumeration, so
  they stay cheap on tensor products.  The test runs on the complex's
  cached probe (FormalComplex.h0_probe), so every query on one complex
  shares one elimination of d_0, and it takes the region as the bitmask
  of the grading-0 positions inside it, the argument Coset.restrict takes.
* g0 / g_next / g_tower / upsilon / upsilon2 run the same test on a
  gf2.Coset of chains (the homological generators h0_probe.generators, or
  a tower level's preimages): the minimal regions come from one monotone
  search over downsets of the support points, and the two one-sided
  statistics of upsilon2 from two bisections of the probe, on
  (value, slope) and (value, -slope), as upsilon_at bisects the values.
  Only hom_generators enumerates, since it returns every chain, but all of
  them keep the 2^k cap of that enumeration (gf2.check_cap).
  Every realizer set of the tower and each one-sided family of upsilon2
  is that coset cut down to the chains on a set of basis coordinates,
  F ∩ coord(R) = x + span(L), by Coset.restrict, and pairs of them are
  handled by linear algebra instead of forming every pair.

Every cut is built by _mask from the support points, and the t-line
values of Upsilon and Upsilon^2 are the exact ints of _t_marks.

The *_from_g0 functions evaluate the same invariants from a G0 region set
alone; the test suite checks all routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import xor
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from .complexes import FormalComplex, H0Probe, genus, tensor, dual
from .gf2 import BitVec, Coset, Span, affine_kernel, check_cap, set_bits
from .region import ClosedRegion, Point, closure

DEFAULT_ENUM_CAP = 1 << 22

INFINITY = float("inf")

Rational = Union[Fraction, int, str]


def _mask(points: Iterable, member: Callable[..., bool]) -> int:
    """Bitmask of the positions whose entry satisfies the predicate: the
    argument of H0Probe.test and Coset.restrict."""
    return sum(1 << k for k, p in enumerate(points) if member(p))


def _t_marks(points: Iterable[Point], t: Fraction) -> list[int]:
    """The t-line values (1 - t/2) i + (t/2) j of the points (Livingston),
    times 2 * t.denominator, as ints."""
    a, b = t.numerator, t.denominator
    return [(2 * b - a) * p.i + a * p.j for p in points]


@dataclass(frozen=True)
class HomGenerator:
    """A grading-0 cycle with nonzero class, plus its chain region."""

    vector: BitVec
    region: ClosedRegion


# ---------------------------------------------------------------------------
# Region search: the minimal regions of a coset of chains


def _minimal_realizers(
    c: FormalComplex, n: int, chains: Coset, cap: int
) -> dict[ClosedRegion, Coset]:
    """Each subset-minimal region of the grading-n chains of the coset with
    its realizers, in region order.

    The minimal true sets of a monotone test (Gunopulos, Khardon, Mannila,
    Toivonen 1997): a node is a downset of the support points, given as the
    mask of the basis positions at its points, and it passes iff the coset
    has a chain supported there (the H_0 probe at level 0, a cut above).
    A passing node U loses its points from the top down while the test
    holds, which leaves a minimal passing downset D, the points of one
    minimal region.  Any other one misses a corner p of D, so it lies in
    U minus the points above p, and those nodes are searched next.  The
    whole slice passes untested.  No chain region lies strictly inside a
    minimal R, so the realizers of R are all the chains supported in R.
    """
    check_cap(chains.basis, cap)
    test = c.h0_probe.test if n == 0 else lambda inside: chains.restrict(inside) is not None
    points = c.points(n)
    at: dict[Point, int] = {}  # the positions at each support point
    for k, p in enumerate(points):
        at[p] = at.get(p, 0) | 1 << k
    top_down = sorted(at, reverse=True)
    full = (1 << len(points)) - 1
    found: dict[ClosedRegion, int] = {}
    work, seen = [full], {full}
    while work:
        u = work.pop()
        if u != full and not test(u):
            continue
        d, corners = u, []
        for p in top_down:
            if at[p] & d and not any(p.leq(q) for q in corners):
                if test(d & ~at[p]):
                    d &= ~at[p]
                else:
                    corners.append(p)
        found[ClosedRegion(tuple(sorted(corners)))] = d
        for p in corners:
            rest = u & ~sum(m for q, m in at.items() if p.leq(q))
            if rest not in seen:
                seen.add(rest)
                work.append(rest)
    return {r: chains.restrict(found[r]) for r in sorted(found)}


# ---------------------------------------------------------------------------
# Homological generator machinery


def contains_hom_generator(c: FormalComplex, region: ClosedRegion) -> bool:
    """True iff the subcomplex over the region contains a homological generator."""
    probe = c.h0_probe
    return probe.test(_mask(probe.points, region.contains_point))


def hom_generators(c: FormalComplex, cap: int = DEFAULT_ENUM_CAP) -> tuple[HomGenerator, ...]:
    """The full finite set of homological generators with their regions.

    These are exactly z0 + b for b in the image of the grading-1 boundary,
    so the count is 2^dim(boundaries), checked against cap before any
    vector.  They come out ascending in vector.bits; equal regions are one
    object.
    """
    probe = c.h0_probe
    gens = probe.generators
    check_cap(gens.basis, cap)
    shared: dict[ClosedRegion, ClosedRegion] = {}
    out = []
    for v in gens:
        r = closure(map(probe.points.__getitem__, set_bits(v.bits)))
        out.append(HomGenerator(v, shared.setdefault(r, r)))
    return tuple(out)


# ---------------------------------------------------------------------------
# nu+, V_k, tau, Upsilon (region-scan route)


def nu_plus(c: FormalComplex) -> int:
    """Least m >= 0 such that the quadrant {i <= 0, j <= m} holds a generator."""
    probe = c.h0_probe
    g = genus(c)
    for m in range(0, g + 1):
        if probe.test(_mask(probe.points, lambda p: p.i <= 0 and p.j <= m)):
            return m
    raise ValueError("no homological generator in {i <= 0}; the complex violates the axioms")


def v_k(c: FormalComplex, k: int) -> int:
    """Least m >= 0 such that R_(m, k+m) holds a homological generator."""
    if k < 0:
        raise ValueError("k must be non-negative")
    probe = c.h0_probe
    g = genus(c)
    for m in range(0, g + 1):
        if probe.test(_mask(probe.points, lambda p: p.i <= m and p.j <= k + m)):
            return m
    raise ValueError(
        f"no homological generator in R_(m, {k} + m) for 0 <= m <= {g};"
        " the complex violates the axioms"
    )


def tau(c: FormalComplex) -> int:
    """Least m with a homological generator in {i <= -1} union R_(0,m)."""
    probe = c.h0_probe
    g = genus(c)
    for m in range(-g, g + 1):
        if probe.test(_mask(probe.points, lambda p: p.i <= -1 or (p.i <= 0 and p.j <= m))):
            return m
    raise ValueError("tau exceeds the genus bound; the complex violates the axioms")


def _least(probe: H0Probe, keys: list) -> Optional[Any]:
    """The least key k whose cut, the positions with key <= k, passes the
    probe; None when none does.  Bisection over the distinct keys."""
    cands = sorted(set(keys))
    lo, hi = 0, len(cands)
    while lo < hi:
        mid = (lo + hi) // 2
        if probe.test(_mask(keys, cands[mid].__ge__)):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo] if lo < len(cands) else None


def upsilon_at(c: FormalComplex, t: Rational) -> Fraction:
    """Exact value of Upsilon at one rational t in [0, 2]."""
    t = Fraction(t)
    if not 0 <= t <= 2:
        raise ValueError("t must lie in [0, 2]")
    probe = c.h0_probe
    least = _least(probe, _t_marks(probe.points, t))
    if least is None:
        raise ValueError("no homological generator found; the complex violates the axioms")
    return Fraction(-least, t.denominator)


# ---------------------------------------------------------------------------
# G0 and the higher tower


def g0(c: FormalComplex, cap: int = DEFAULT_ENUM_CAP) -> tuple[ClosedRegion, ...]:
    """Minimal chain regions of the homological generators, canonically sorted."""
    return tuple(level0_realizers(c, cap))


def level0_realizers(c: FormalComplex, cap: int = DEFAULT_ENUM_CAP) -> dict[ClosedRegion, Coset]:
    """Realizer sets gen_0(C; R) for every R in G0(C), in G0 order."""
    return _minimal_realizers(c, 0, c.h0_probe.generators, cap)


def _image(columns: Sequence[int], x: int) -> int:
    """The image of the chain x under the matrix with these column words."""
    return reduce(xor, map(columns.__getitem__, set_bits(x)), 0)


def g_next(
    c: FormalComplex,
    realizers: Mapping[ClosedRegion, Coset],
    pair: tuple[ClosedRegion, ClosedRegion],
    level: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[tuple[ClosedRegion, ...], dict[ClosedRegion, Coset]]:
    """One induction step of the region tower.

    Level n solutions are grading-n chains x with boundary z1 + z2, where
    z1, z2 are realizers of the two chosen regions of level n-1.  For
    n >= 2 only realizer pairs with equal boundary are admissible (at
    level 1 the realizers are cycles, so the constraint is vacuous).
    Returns the minimal region set, which may be empty for n >= 2,
    together with all realizers of each surviving region.

    With the realizer sets x1 + span(L1) and x2 + span(L2), the admissible
    sums z1 + z2 are the cycles of x1 + x2 + span(L1 u L2), again an affine
    space, and the solutions are its preimage, cut as one coset.
    """
    r1, r2 = pair
    if r1 == r2:
        raise ValueError("the chosen regions must be distinct")
    if r1 not in realizers or r2 not in realizers:
        raise ValueError("chosen regions must come from the previous level")
    d_here = c.boundary_matrix(level)
    d_prev = c.boundary_matrix(level - 1)
    z1, z2 = realizers[r1], realizers[r2]
    y = z1.point ^ z2.point
    # the cycles of y + span(L1 u L2), then their preimage under d_here,
    # with the cycles' directions tagged 0
    cycles = affine_kernel(
        (_image(d_prev, y), y), [(_image(d_prev, v), v) for v in z1.basis + z2.basis], z1.length
    )
    if cycles is None:
        return (), {}
    chains = affine_kernel(
        (cycles.point, 0),
        [(col, 1 << k) for k, col in enumerate(d_here)] + [(v, 0) for v in cycles.basis],
        len(d_here),
    )
    if chains is None:
        return (), {}
    found = _minimal_realizers(c, level, chains, cap)
    return tuple(found), found


@dataclass(frozen=True)
class GLevel:
    regions: tuple[ClosedRegion, ...]
    chosen_pair: Optional[tuple[ClosedRegion, ClosedRegion]]
    realizers: Mapping[ClosedRegion, Coset]


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

    Among the generators attaining upsilon(t), the right family z+
    minimizes the steepest active support slope (the right derivative) and
    the left family z- maximizes the shallowest (the left derivative); the
    exact one-sided derivatives stand in for a small offset of t.  For
    0 < t < 2 the t-line value rises in i and in j, so the active points
    are corners, and each family's statistic is the least passing cut of
    one bisection, on (value, slope) and on (value, -slope).  Each family
    is z0 + im d_1 cut down to a coordinate set, an affine space x + L, so
    a connecting chain exists iff x+ + x- lies in the span of L+, L- and
    the allowed grading-1 boundaries.  ValueError if upsilon^2 would be
    -infinity, which the axioms rule out.
    """
    t, s = Fraction(t), Fraction(s)
    if not 0 < t < 2:
        raise ValueError("t must lie strictly between 0 and 2")
    if not 0 <= s <= 2:
        raise ValueError("s must lie in [0, 2]")
    probe = c.h0_probe
    gens = probe.generators
    check_cap(gens.basis, cap)
    # (t-line value, support slope) per basis element, times 2 * t.denominator
    # and 2; z+ minimizes the largest (value, slope) on its support, z- the
    # largest (value, -slope), so a chain is in z+ (z-) iff each of its keys
    # is at most the least key whose cut passes the probe
    keys = [(v, p.j - p.i) for v, p in zip(_t_marks(probe.points, t), probe.points)]
    flipped = [(v, -slope) for v, slope in keys]
    right, left = _least(probe, keys), _least(probe, flipped)
    plus = gens.restrict(_mask(keys, right.__ge__))
    minus = gens.restrict(_mask(flipped, left.__ge__))
    # the families overlap iff x+ + x- is in L+ + L-
    span = Span(plus.basis + minus.basis)
    target = plus.point ^ minus.point
    if span.contains(target):
        return INFINITY

    # add the boundaries of the grading-1 points in the t-halfplane
    pts1 = c.points(1)
    pending = []
    for v, r, col in zip(_t_marks(pts1, t), _t_marks(pts1, s), c.boundary_matrix(1)):
        if v <= right[0]:
            span.add(col)
        else:
            pending.append((r, col))
    if span.contains(target):
        raise ValueError("upsilon^2 would be -infinity; the complex violates the axioms")
    # the span changes only when a column joins, so r is a column's s-value;
    # -2 (r - v_min), with both marks scaled back
    for r, col in sorted(pending):
        span.add(col)
        if span.contains(target):
            return Fraction(right[0], t.denominator) - Fraction(r, s.denominator)
    raise AssertionError("unreachable: x+ + x- lies in im d_1, and every d_1 column is in the span")


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

    def render(self) -> str:
        return " ".join(f"({t},{v})" for t, v in self.breakpoints)

    def __str__(self) -> str:
        return self.render()

