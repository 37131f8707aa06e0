"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately naive and self-contained: dense list
linear algebra, exhaustive enumeration of chains, pairwise-domination
region computations, and explicit small-delta one-sided values.  None of
it shares code paths with the package beyond reading the raw generator
data of a complex, except the test-only helpers and the enumerative
Upsilon^2 referee at the end, which are built on the package's own
primitives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, Union

# used only by the test-only helpers and the referee at the end, and for
# the error type coset_vectors shares with the package
from fkc.complexes import FormalComplex
from fkc.gf2 import EnumerationLimitError, Span, relations, set_bits
from fkc.invariants import DEFAULT_ENUM_CAP, INFINITY, Rational

MAX_EXHAUSTIVE = 1 << 20


def slice_basis(c, n):
    """[(gen_index, upower)] of the grading-n slice, derived from scratch."""
    out = []
    for k, g in enumerate(c.gens):
        if (g.gr - n) % 2 == 0:
            out.append((k, (g.gr - n) // 2))
    return out


def slice_points(c, n):
    return [
        (c.gens[k].alg - l, c.gens[k].alex - l) for k, l in slice_basis(c, n)
    ]


def boundary_images(c, n):
    """For each grading-n slice element, the bitmask of its boundary in
    the grading-(n-1) slice."""
    target_pos = {ke: i for i, ke in enumerate(slice_basis(c, n - 1))}
    images = []
    for k, l in slice_basis(c, n):
        bits = 0
        for t in range(len(c.gens)):
            if (c.d_cols[k] >> t) & 1:
                m = (c.gens[t].gr - c.gens[k].gr + 1) // 2
                bits ^= 1 << target_pos[(t, l + m)]
        images.append(bits)
    return images


def chain_boundary(images, bits):
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out ^= images[i]
        bits >>= 1
        i += 1
    return out


def all_chains(n_elements):
    if (1 << n_elements) > MAX_EXHAUSTIVE:
        raise RuntimeError("slice too large for exhaustive oracle")
    return range(1 << n_elements)


def coset_vectors(point, basis, cap=MAX_EXHAUSTIVE):
    """Every point + sum(c_k basis[k]) over all 0/1 coefficient tuples c,
    one sum per tuple (each basis vector doubles the list), with the
    package's EnumerationLimitError when the 2^len(basis) tuples exceed
    cap."""
    if 1 << len(basis) > cap:
        raise EnumerationLimitError(1 << len(basis), cap)
    out = [point]
    for b in basis:
        out += [v ^ b for v in out]
    return out


def hom_generator_bits(c):
    """All grading-0 cycles with nonzero class, by full enumeration."""
    d0 = boundary_images(c, 0)
    d1 = boundary_images(c, 1)
    boundaries = {chain_boundary(d1, w) for w in all_chains(len(d1))}
    gens = []
    for v in all_chains(len(d0)):
        if v and chain_boundary(d0, v) == 0 and v not in boundaries:
            gens.append(v)
    return gens


def support_of(c, n, bits):
    pts = slice_points(c, n)
    return [p for i, p in enumerate(pts) if (bits >> i) & 1]


def maximal_points(points):
    out = []
    for p in set(points):
        if not any(
            q != p and p[0] <= q[0] and p[1] <= q[1] for q in set(points)
        ):
            out.append(p)
    return sorted(out)


def region_subset(r, s):
    return all(
        any(p[0] <= q[0] and p[1] <= q[1] for q in s) for p in r
    )


def minimal_regions(regions):
    distinct = {tuple(r) for r in regions}
    return sorted(
        r for r in distinct
        if not any(s != r and region_subset(s, r) for s in distinct)
    )


def oracle_g0(c):
    """Minimal generator regions as sorted corner tuples."""
    regions = [maximal_points(support_of(c, 0, v)) for v in hom_generator_bits(c)]
    return minimal_regions(regions)


def oracle_g_next(c, realizer_bits, pair, level):
    """One tower step by exhaustive search over grading-`level` chains.

    realizer_bits maps the previous level's regions (corner tuples) to
    their realizers.  A chain qualifies when its boundary is z1 + z2 for
    realizers z1, z2 of the pair's two regions that have equal boundaries
    (at level 1 they are cycles).  Returns the minimal regions, sorted, and
    {region: realizers ascending}.
    """
    prev = boundary_images(c, level - 1)
    here = boundary_images(c, level)
    r1, r2 = pair
    targets = {
        z1 ^ z2
        for z1 in realizer_bits[r1]
        for z2 in realizer_bits[r2]
        if chain_boundary(prev, z1) == chain_boundary(prev, z2)
    }
    by_region = {}
    for x in all_chains(len(here)):
        if chain_boundary(here, x) in targets:
            by_region.setdefault(tuple(maximal_points(support_of(c, level, x))), []).append(x)
    mins = minimal_regions(by_region)
    return mins, {r: sorted(by_region[r]) for r in mins}


def oracle_tensor_cols(a, b):
    """Boundary columns of a (x) b as the Kronecker sum d_a (x) 1 + 1 (x) d_b
    of dense 0/1 matrices; generator (k, l) has index k * len(b.gens) + l."""

    def dense(c):  # entry [l][k] = 1 iff x_l occurs in the boundary of x_k
        return [[(col >> l) & 1 for col in c.d_cols] for l in range(len(c.gens))]

    def eye(n):
        return [[int(r == k) for k in range(n)] for r in range(n)]

    def kron(x, y):
        return [[p * q for p in xr for q in yr] for xr in x for yr in y]

    left = kron(dense(a), eye(len(b.gens)))
    right = kron(eye(len(a.gens)), dense(b))
    n = len(left)
    return [sum((left[r][k] ^ right[r][k]) << r for r in range(n)) for k in range(n)]


def oracle_nu_plus(c):
    best = None
    for v in hom_generator_bits(c):
        supp = support_of(c, 0, v)
        if max(p[0] for p in supp) <= 0:
            m = max(0, max(p[1] for p in supp))
            best = m if best is None else min(best, m)
    return best


def oracle_v_k(c, k):
    best = None
    for v in hom_generator_bits(c):
        supp = support_of(c, 0, v)
        m = max(0, max(p[0] for p in supp), max(p[1] for p in supp) - k)
        best = m if best is None else min(best, m)
    return best


def oracle_tau(c):
    best = None
    for v in hom_generator_bits(c):
        supp = support_of(c, 0, v)
        if max(p[0] for p in supp) > 0:
            continue
        wall = [p[1] for p in supp if p[0] == 0]
        assert wall, "generator confined to {i <= -1}"
        m = max(wall)
        best = m if best is None else min(best, m)
    return best


def line_value(p, t):
    """(1 - t/2) i + (t/2) j at the point p = (i, j), as a Fraction."""
    return (1 - Fraction(t) / 2) * p[0] + (Fraction(t) / 2) * p[1]


def oracle_upsilon_at(c, t):
    values = []
    for v in hom_generator_bits(c):
        values.append(max(line_value(p, t) for p in support_of(c, 0, v)))
    return -2 * min(values)


def oracle_upsilon2(c, t, s, delta=Fraction(1, 1 << 20)):
    """Upsilon^2 by explicit small-delta one-sided minimization and
    exhaustive search over grading-1 connecting chains."""
    t = Fraction(t)
    s = Fraction(s)
    gens = hom_generator_bits(c)

    def f(v, tt):
        return max(line_value(p, tt) for p in support_of(c, 0, v))

    up_min = min(f(v, t - delta) for v in gens)
    z_minus = [v for v in gens if f(v, t - delta) == up_min]
    up_plus = min(f(v, t + delta) for v in gens)
    z_plus = [v for v in gens if f(v, t + delta) == up_plus]
    if set(z_minus) & set(z_plus):
        return None
    upsilon_t = min(f(v, t) for v in gens)

    d1 = boundary_images(c, 1)
    pts1 = slice_points(c, 1)
    candidates = sorted(
        {line_value(p, s) for p in pts1}
        | {line_value(p, s) for p in slice_points(c, 0)}
    )
    sums = {a ^ b for a in z_minus for b in z_plus}
    for r in candidates:
        for x in all_chains(len(d1)):
            if chain_boundary(d1, x) not in sums:
                continue
            ok = all(
                line_value(p, t) <= upsilon_t or line_value(p, s) <= r
                for p in support_of(c, 1, x)
            )
            if ok:
                return -2 * (r - upsilon_t)
    raise AssertionError("families never merge")


def dense_rref(rows, cols):
    """Reduced row echelon form of a dense 0/1 matrix given as lists:
    (reduced rows, pivot columns in ascending order)."""
    work = [row[:] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [a ^ b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def dense_rank(rows):
    """Row-echelon rank of a dense 0/1 matrix given as lists."""
    return len(dense_rref(rows, len(rows[0]) if rows else 0)[1])


def dense_kernel(rows, cols):
    """Kernel basis read off the reduced row echelon form, as bitmasks: one
    vector per free column, ascending, each the free column plus the pivot
    columns whose row has a 1 there."""
    work, pivots = dense_rref(rows, cols)
    return [
        (1 << f) | sum(1 << c for r, c in enumerate(pivots) if work[r][f])
        for f in range(cols) if f not in pivots
    ]


def dense_z0(c):
    """The first reduced-row-echelon kernel vector of d_0 outside the image
    of d_1, or None when H_0 vanishes."""
    d0, d1 = boundary_images(c, 0), boundary_images(c, 1)
    width = len(d0)
    rows0 = [[(w >> r) & 1 for w in d0] for r in range(len(slice_basis(c, -1)))]
    rank1 = _bits_rank(d1, width)
    for z in dense_kernel(rows0, width):
        if _bits_rank(d1 + [z], width) > rank1:
            return z
    return None


# -- validation, check by check ------------------------------------------------


def _bits_rank(vectors, length):
    return dense_rank([[(v >> i) & 1 for i in range(length)] for v in vectors]) if vectors else 0


def sub_homology_dim(c, thresholds, n):
    """dim H_n of the threshold subcomplex {U^l x_k : l >= thresholds[k]}."""

    def member_images(m):
        images = boundary_images(c, m)
        return [images[i] for i, (k, l) in enumerate(slice_basis(c, m)) if l >= thresholds[k]]

    out = member_images(n)
    return (
        len(out)
        - _bits_rank(out, len(slice_basis(c, n - 1)))
        - _bits_rank(member_images(n + 1), len(slice_basis(c, n)))
    )


def sub_window(c, thresholds):
    tops = [g.gr - 2 * t for g, t in zip(c.gens, thresholds)]
    return min(tops), max(tops)


def quadrant_thresholds(c, a, b):
    return [max(g.alg - a, g.alex - b) for g in c.gens]


def _lambda_pattern_ok(c, thresholds, level):
    n_low, n_high = sub_window(c, thresholds)
    for n in range(min(n_low - 1, 2 * level - 1), max(n_high, 2 * level) + 1):
        want = 1 if (n % 2 == 0 and n <= 2 * level) else 0
        if sub_homology_dim(c, thresholds, n) != want:
            return False
    return True


def _structural_checks(c):
    parity_bad, filtered_bad, square_bad = [], [], []
    for k, gk in enumerate(c.gens):
        acc = 0
        for l, gl in enumerate(c.gens):
            if not (c.d_cols[k] >> l) & 1:
                continue
            acc ^= c.d_cols[l]
            if (gl.gr - gk.gr) % 2 == 0:
                parity_bad.append((gl.name, gk.name))
                continue
            m = (gl.gr - gk.gr + 1) // 2
            if gl.alg - m > gk.alg or gl.alex - m > gk.alex:
                filtered_bad.append((gl.name, gk.name))
        if acc:
            square_bad.append(gk.name)
    checks = [
        ("parity", not parity_bad, f"even grading drop at {parity_bad[:3]}" if parity_bad else ""),
        ("filtered-boundary", not filtered_bad,
         f"filtration raised at {filtered_bad[:3]}" if filtered_bad else ""),
    ]
    if parity_bad:
        checks.append(("d-squared", False, "not evaluated (parity failed)"))
    else:
        checks.append(("d-squared", not square_bad,
                       f"d^2 nonzero on {square_bad[:3]}" if square_bad else ""))
    return checks


def oracle_validate(c):
    """[(name, passed, detail)] of every axiom check, by exhaustive loops.

    Symmetry tests every quadrant pair (a, b) with a < b in the support box
    and the filtration checks walk every level up to the first failure, as
    the package did before it took one case per U-translation class.
    """
    checks = _structural_checks(c)
    rank = len(c.gens)
    checks.append(("odd-rank", rank % 2 == 1, "" if rank % 2 == 1 else f"rank {rank} is even"))
    homological = ("global-homology", "symmetry", "alexander-filtration", "algebraic-filtration")
    if not all(passed for _, passed, _ in checks[:3]):
        return checks + [(name, False, "not evaluated (structural checks failed)")
                         for name in homological]

    full = [-math.inf] * len(c.gens)
    h_even, h_odd = sub_homology_dim(c, full, 0), sub_homology_dim(c, full, 1)
    vals = [g.alg for g in c.gens] + [g.alex for g in c.gens]
    box_lo, box_hi = min(vals, default=0), max(vals, default=0)
    span = 2 * max(box_hi - box_lo, 1)
    grs = [g.gr for g in c.gens] or [0]
    bad = [
        n for n in range(min(grs) - 2 * span, max(grs) + 2 * span + 1)
        if (h_even if n % 2 == 0 else h_odd) != (1 if n % 2 == 0 else 0)
    ]
    checks.append(("global-homology", not bad,
                   f"H_even={h_even}, H_odd={h_odd} (want 1, 0)" if bad else ""))

    sym_bad = []
    for a in range(box_lo, box_hi + 1):
        for b in range(a + 1, box_hi + 1):
            t1, t2 = quadrant_thresholds(c, a, b), quadrant_thresholds(c, b, a)
            (lo1, hi1), (lo2, hi2) = sub_window(c, t1), sub_window(c, t2)
            grades = range(min(lo1, lo2) - 1, max(hi1, hi2) + 1)
            if [sub_homology_dim(c, t1, n) for n in grades] != [
                sub_homology_dim(c, t2, n) for n in grades
            ]:
                sym_bad.append((a, b))
    checks.append(("symmetry", not sym_bad,
                   f"asymmetric quadrants {sym_bad[:3]}" if sym_bad else ""))

    euler = sum(1 if g.gr % 2 == 0 else -1 for g in c.gens)
    for name, attr in (("alexander-filtration", "alex"), ("algebraic-filtration", "alg")):
        detail = ""
        if euler != 1:
            detail = f"subquotient Euler characteristic {euler}"
        else:
            levels = [getattr(g, attr) for g in c.gens]
            for j in range(min(levels) - 1, max(levels) + 2):
                if not _lambda_pattern_ok(c, [lv - j for lv in levels], j):
                    detail = f"level {j}"
                    break
        checks.append((name, not detail, detail))
    return checks


def oracle_is_stabilizer(c):
    """Are both level-0 filtration subcomplexes acyclic?  Checked grading by
    grading from two periods below the lowest top to two above the highest
    (below the lowest top the slices are full and H_* is 2-periodic, above
    the highest they are empty).  Raises ValueError naming the failed
    structural checks, in the package's wording."""
    failed = [name for name, passed, _ in _structural_checks(c) if not passed]
    if failed:
        raise ValueError(f"structural conditions fail: {', '.join(failed)}")
    for thresholds in ([g.alex for g in c.gens], [g.alg for g in c.gens]):
        lo, hi = sub_window(c, thresholds) if c.gens else (0, 0)
        if any(sub_homology_dim(c, thresholds, n) for n in range(lo - 4, hi + 5)):
            return False
    return True


# ---------------------------------------------------------------------------
# Test-only helpers on the package's primitives (not independent oracles)


def region_slice(c, member, n):
    """Grading-n positions whose support point satisfies the predicate."""
    return tuple(k for k, p in enumerate(c.points(n)) if member(p))


def image(columns, x):
    """The image of the chain x under the matrix with these column words."""
    out = 0
    for c in set_bits(x):
        out ^= columns[c]
    return out


def column_space_basis(columns):
    """First maximal independent subset of the columns, in column order."""
    span = Span()
    return [col for col in columns if span.add(col)]


def _unit_tagged(columns) -> Iterator[tuple[int, int]]:
    return ((col, 1 << c) for c, col in enumerate(columns))


def solve(columns, rows: int, b: int) -> Optional[int]:
    """Some x with m·x = b for the matrix m with these column words and
    row count, or None if b is outside the column space.

    Free variables are set to zero, so the particular solution is unique
    for a given matrix.
    """
    if b < 0 or b >> rows:
        raise ValueError("right-hand side must fit the row count")
    last = 1 << len(columns)
    for tag in relations(chain(_unit_tagged(columns), ((b, last),))):
        if tag & last:
            return tag ^ last
    return None


def kernel_basis(columns) -> list[int]:
    """Basis of {x : m·x = 0}, one vector per free column, ascending."""
    return list(relations(_unit_tagged(columns)))


def staircase_slice_has_hom_generator(c, g):
    """Does the subcomplex over R^g, the union of the quadrants R_(-g+n,-n)
    for 0 <= n <= g, hold a homological generator?"""
    probe = c.h0_probe
    inside = sum(
        1 << k for k, p in enumerate(slice_points(c, 0))
        if any(p[0] <= -g + n and p[1] <= -n for n in range(g + 1))
    )
    return probe.test(inside)


# ---------------------------------------------------------------------------
# The enumerative Upsilon^2 route: every generator of z0 + im d_1 is scored,
# and each connecting candidate tests every pair sum of the two families.


def oracle_upsilon2_enum(
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
    pts0 = slice_points(c, 0)
    # (value on the t-line, support slope) of each grading-0 point
    marks = [(line_value(p, t), Fraction(p[1] - p[0], 2)) for p in pts0]
    stats = []
    for v in coset_vectors(probe.generators.point, probe.generators.basis, cap):
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
    pts1 = slice_points(c, 1)
    cols = c.boundary_matrix(1)
    span = Span()
    pending = []
    for p, col in zip(pts1, cols):
        if line_value(p, t) <= v_min:
            span.add(col)
        else:
            pending.append((line_value(p, s), col))
    if any(span.contains(b) for b in sums):
        raise AssertionError(
            "connecting chain lies in the t-halfplane alone; upsilon^2 would be -infinity"
        )
    pending.sort()
    cands = sorted({line_value(p, s) for p in pts1 + pts0})
    idx = 0
    for r in cands:
        while idx < len(pending) and pending[idx][0] <= r:
            span.add(pending[idx][1])
            idx += 1
        if any(span.contains(b) for b in sums):
            return -2 * (r - v_min)
    raise AssertionError("families never merge; H_0 classes must agree in the full complex")


# ---------------------------------------------------------------------------
# Filtered changes of basis: a move that must leave every invariant unchanged


def filtered_basis_change(c: FormalComplex, k: int, l: int, m: int) -> FormalComplex:
    """c with x_k replaced by x_k + U^m x_l.

    Legal iff k != l, gr_l - 2m = gr_k and (alg_l - m, alex_l - m) <=
    (alg_k, alex_k): the new generator keeps x_k's grading and filtration
    levels, and the change is filtered both ways.  ValueError otherwise.
    A chain's new coordinates become old ones under A, which flips bit l
    wherever bit k is set; A is an involution, so the new differential on
    generator bitmasks is A d A.
    """
    gk, gl = c.gens[k], c.gens[l]
    if k == l or gl.gr - 2 * m != gk.gr or gl.alg - m > gk.alg or gl.alex - m > gk.alex:
        raise ValueError(f"x_{k} -> x_{k} + U^{m} x_{l} is not a filtered change of basis")

    def flip(bits):
        return bits ^ (1 << l) if bits >> k & 1 else bits

    cols = list(c.d_cols)
    cols[k] ^= cols[l]
    return FormalComplex(c.name, c.gens, tuple(flip(col) for col in cols))


def legal_basis_changes(c: FormalComplex) -> list[tuple[int, int, int]]:
    """Every (k, l, m) that filtered_basis_change accepts on c."""
    out = []
    for k, gk in enumerate(c.gens):
        for l, gl in enumerate(c.gens):
            m, odd = divmod(gl.gr - gk.gr, 2)
            if k != l and not odd and gl.alg - m <= gk.alg and gl.alex - m <= gk.alex:
                out.append((k, l, m))
    return out
