"""Formal knot complexes over F2[U, U^-1], presented by a filtered basis.

A complex is a finite list of generators, each carrying a Maslov grading and
two filtration levels (algebraic i, Alexander j), plus a GF(2) boundary
matrix between generators.  U-powers in the boundary are never stored: the
entry x_l -> x_k forces U^m with m = (gr(x_l) - gr(x_k) + 1) / 2, so the
grading data determines the full differential over the Laurent ring.

The grading-n slice has one basis element U^l x_k per generator of matching
parity (l = (gr(x_k) - n) / 2), with support point (alg - l, alex - l).
Subcomplexes cut out by closed regions are "threshold" complexes: U^l x_k
belongs iff l >= t_k for a per-generator threshold, so each grading slice
is a prefix of one parity's generators in descending order of gr_k - 2 t_k,
and one rank pass per parity gives the homology in every grading.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice, takewhile
from typing import Iterable, Iterator

from .gf2 import Coset, Span, rank, relations, set_bits
from .region import Point

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


class FkcParseError(ValueError):
    """Syntax or reference error in `.fkc` input, with a line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Generator:
    name: str
    gr: int
    alg: int
    alex: int


@dataclass(frozen=True)
class FormalComplex:
    """Finite filtered basis plus the GF(2) boundary matrix.

    d_cols[k] is the bitmask of generator indices appearing in the boundary
    of x_k (bit l set means x_l occurs, with its grading-forced U-power).
    """

    name: str
    gens: tuple[Generator, ...]
    d_cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.d_cols) != len(self.gens):
            raise ValueError("one boundary column per generator required")
        mask = (1 << len(self.gens)) - 1
        if any(c < 0 or c & ~mask for c in self.d_cols):
            raise ValueError("boundary column references out of range")

    @property
    def rank(self) -> int:
        return len(self.gens)

    def boundary_targets(self, k: int) -> tuple[int, ...]:
        return tuple(set_bits(self.d_cols[k]))

    def u_power(self, l: int, k: int) -> int:
        """U-exponent forced on the x_l term of the boundary of x_k."""
        return (self.gens[l].gr - self.gens[k].gr + 1) // 2

    @cached_property
    def _parity_indices(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        even = tuple(k for k, g in enumerate(self.gens) if g.gr % 2 == 0)
        odd = tuple(k for k, g in enumerate(self.gens) if g.gr % 2 != 0)
        return even, odd

    def points(self, n: int) -> tuple[Point, ...]:
        """Support points of the grading-n basis, in generator order."""
        gens = [self.gens[k] for k in self._parity_indices[n & 1]]
        return tuple(Point(g.alg - (g.gr - n) // 2, g.alex - (g.gr - n) // 2) for g in gens)

    @cached_property
    def _boundary_by_parity(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(from even, from odd): the differential from the even-graded
        slices lands in the odd-graded ones and vice versa.  ValueError
        naming the first boundary entry that keeps the grading parity."""
        even, odd = self._parity_indices
        same = [sum(1 << k for k in idx) for idx in (even, odd)]
        for k, g in enumerate(self.gens):
            bad = self.d_cols[k] & same[g.gr & 1]
            if bad:
                l = (bad & -bad).bit_length() - 1
                raise ValueError(
                    f"the complex fails the parity check: the boundary of {g.name}"
                    f" has {self.gens[l].name}, of the same grading parity"
                )
        pos = [0] * len(self.gens)
        for idx in (even, odd):
            for i, k in enumerate(idx):
                pos[k] = i
        return tuple(
            tuple(sum(1 << pos[l] for l in set_bits(self.d_cols[k])) for k in cols)
            for cols in (even, odd)
        )

    def boundary_matrix(self, n: int) -> tuple[int, ...]:
        """Column words of the differential from the grading-n slice to
        grading n-1: bit r of entry c is the entry (r, c).

        Columns follow points(n), rows follow points(n-1); the matrix only
        depends on the parity of n because U is a chain iso.
        """
        return self._boundary_by_parity[n & 1]

    def homology_dim(self, n: int) -> int:
        """dim H_n of the full complex (depends only on the parity of n)."""
        d = self.boundary_matrix(n)
        return len(d) - rank(d) - rank(self.boundary_matrix(n + 1))

    @cached_property
    def h0_probe(self) -> "H0Probe":
        """The homological-generator probe, built once per complex."""
        return H0Probe(self)


# ---------------------------------------------------------------------------
# .fkc parsing and serialization


def parse(text: str) -> FormalComplex:
    """Parse the line-oriented `.fkc` format (no validation is performed)."""
    name = ""
    gens: list[Generator] = []
    index: dict[str, int] = {}
    d_lines: list[tuple[int, str, list[str]]] = []
    seen_d: set[str] = set()
    header_allowed = True

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "complex":
            if not header_allowed:
                raise FkcParseError(lineno, "'complex' header must be the first entry")
            if len(tokens) != 2:
                raise FkcParseError(lineno, "expected: complex <name>")
            name = tokens[1]
            header_allowed = False
            continue
        header_allowed = False
        if kind == "gen":
            if len(tokens) != 5:
                raise FkcParseError(lineno, "expected: gen <id> <gr> <alg> <alex>")
            ident = tokens[1]
            if not IDENT_RE.match(ident):
                raise FkcParseError(lineno, f"invalid generator name {ident!r}")
            if ident in index:
                raise FkcParseError(lineno, f"duplicate generator {ident!r}")
            try:
                gr, alg, alex = (int(t) for t in tokens[2:5])
            except ValueError:
                raise FkcParseError(lineno, "gradings and filtration levels must be integers")
            index[ident] = len(gens)
            gens.append(Generator(ident, gr, alg, alex))
        elif kind == "d":
            if len(tokens) < 4 or tokens[2] != ":":
                raise FkcParseError(lineno, "expected: d <id> : <id> [<id> ...]")
            src = tokens[1]
            if src in seen_d:
                raise FkcParseError(lineno, f"duplicate boundary line for {src!r}")
            seen_d.add(src)
            d_lines.append((lineno, src, tokens[3:]))
        else:
            raise FkcParseError(lineno, f"unknown directive {kind!r}")

    d_cols = [0] * len(gens)
    for lineno, src, targets in d_lines:
        if src not in index:
            raise FkcParseError(lineno, f"unknown generator {src!r}")
        col = 0
        for t in targets:
            if t not in index:
                raise FkcParseError(lineno, f"unknown generator {t!r}")
            col ^= 1 << index[t]
        d_cols[index[src]] = col
    return FormalComplex(name, tuple(gens), tuple(d_cols))


def serialize(c: FormalComplex) -> str:
    """Normalized text form; parse(serialize(c)) reproduces c exactly."""
    lines = []
    if c.name:
        lines.append(f"complex {c.name}")
    for g in c.gens:
        lines.append(f"gen {g.name} {g.gr} {g.alg} {g.alex}")
    for k, g in enumerate(c.gens):
        targets = c.boundary_targets(k)
        if targets:
            lines.append(f"d {g.name} : " + " ".join(c.gens[l].name for l in targets))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constructions


def _uniquify(names: list[str]) -> list[str]:
    if len(set(names)) == len(names):
        return names
    return [f"g{i}" for i in range(len(names))]


def tensor(a: FormalComplex, b: FormalComplex) -> FormalComplex:
    """Tensor product over the Laurent ring, boundary by the Leibniz rule.

    Generators are ordered lexicographically in (left index, right index),
    gradings and both filtration levels add.
    """
    s = len(b.gens)
    names = [f"{ga.name}__{gb.name}" for ga in a.gens for gb in b.gens]
    names = _uniquify(names)
    gens = []
    for k, ga in enumerate(a.gens):
        for l, gb in enumerate(b.gens):
            gens.append(
                Generator(names[k * s + l], ga.gr + gb.gr, ga.alg + gb.alg, ga.alex + gb.alex)
            )
    # a's targets of x_k, placed at stride s: the left Leibniz term of x_k x_l
    # is spread[k] << l
    spread = [sum(1 << (ka * s) for ka in set_bits(col)) for col in a.d_cols]
    cols = [(spread[k] << l) ^ (b.d_cols[l] << k * s) for k in range(len(a.gens)) for l in range(s)]
    name = f"{a.name}_ot_{b.name}" if a.name and b.name else ""
    return FormalComplex(name, tuple(gens), tuple(cols))


def dual(c: FormalComplex) -> FormalComplex:
    """Dual complex: negate grading and both filtrations, transpose the boundary."""
    gens = tuple(Generator(g.name + "'", -g.gr, -g.alg, -g.alex) for g in c.gens)
    cols = [0] * len(c.gens)
    for k, col in enumerate(c.d_cols):
        for l in set_bits(col):
            cols[l] |= 1 << k
    name = f"{c.name}_dual" if c.name else ""
    return FormalComplex(name, gens, tuple(cols))


def direct_sum(a: FormalComplex, b: FormalComplex) -> FormalComplex:
    """Disjoint union of generators with block-diagonal boundary."""
    taken = {g.name for g in a.gens}
    right_names = []
    for g in b.gens:
        n = g.name
        while n in taken:
            n += "_b"
        taken.add(n)
        right_names.append(n)
    gens = list(a.gens) + [
        replace(g, name=right_names[i]) for i, g in enumerate(b.gens)
    ]
    offset = len(a.gens)
    cols = list(a.d_cols) + [col << offset for col in b.d_cols]
    name = f"{a.name}_plus_{b.name}" if a.name and b.name else ""
    return FormalComplex(name, tuple(gens), tuple(cols))


def reverse(c: FormalComplex) -> FormalComplex:
    """Swap the algebraic and Alexander filtrations on every generator."""
    gens = tuple(replace(g, alg=g.alex, alex=g.alg) for g in c.gens)
    name = f"{c.name}_rev" if c.name else ""
    return FormalComplex(name, gens, c.d_cols)


# ---------------------------------------------------------------------------
# Degrees and genus


def degrees(c: FormalComplex) -> tuple[int, int, int]:
    """(Mdeg, mdeg, genus): extremes of alex - alg and their genus bound."""
    diffs = [g.alex - g.alg for g in c.gens]
    mdeg_max = max(diffs, default=0)
    mdeg_min = min(diffs, default=0)
    return mdeg_max, mdeg_min, max(mdeg_max, -mdeg_min)


def genus(c: FormalComplex) -> int:
    return degrees(c)[2]


# ---------------------------------------------------------------------------
# Threshold subcomplexes


@dataclass(frozen=True)
class Subcomplex:
    """Threshold subcomplex: U^l x_k belongs iff l >= thresholds[k].

    Every subcomplex cut out by a closed region has this shape, with
    t_k = min over corners (a, b) of max(alg_k - a, alex_k - b).  Its
    homology in every grading comes from one cached rank pass per parity.
    """

    parent: FormalComplex
    thresholds: tuple[int, ...]

    def __post_init__(self):
        c = self.parent
        if len(self.thresholds) != len(c.gens):
            raise ValueError("one threshold per generator required")
        for k in range(len(c.gens)):
            for l in c.boundary_targets(k):
                if self.thresholds[l] > self.thresholds[k] + c.u_power(l, k):
                    raise ValueError("thresholds do not cut out a subcomplex")

    @cached_property
    def _rank_steps(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Per parity: the negated tops gr_k - 2 t_k of the columns, ascending,
        and the rank after the first m columns for each m; x_k is in the
        slices at and below its top."""
        c = self.parent
        steps = []
        for parity, d in zip(c._parity_indices, c._boundary_by_parity):
            tops = [c.gens[k].gr - 2 * self.thresholds[k] for k in parity]
            order = sorted(range(len(parity)), key=tops.__getitem__, reverse=True)
            span = Span()
            ranks = [0]
            for i in order:
                span.add(d[i])
                ranks.append(span.dim)
            steps.append(([-tops[i] for i in order], ranks))
        return tuple(steps)

    def _size_rank(self, n: int) -> tuple[int, int]:
        """Size of the grading-n slice and rank of the differential out of it."""
        neg_tops, ranks = self._rank_steps[n & 1]
        size = bisect_right(neg_tops, -n)
        return size, ranks[size]

    def homology_dim(self, n: int) -> int:
        size, r_out = self._size_rank(n)
        return size - r_out - self._size_rank(n + 1)[1]

    def homology(self) -> tuple[tuple[int, int], ...]:
        """H_* as the descending pairs (n, dim H_n) with dim H_n != dim H_{n+2}.

        H_n vanishes above every top and can change only at a top or one
        below it, so dim H_n is the entry of the nearest listed n' >= n with
        n' = n (mod 2), or 0 if there is none.
        """
        tops = {-t for neg_tops, _ in self._rank_steps for t in neg_tops}
        out = []
        for n in sorted(tops | {t - 1 for t in tops}, reverse=True):
            h = self.homology_dim(n)
            if h != self.homology_dim(n + 2):
                out.append((n, h))
        return tuple(out)


class H0Probe:
    """Tests whether a set of grading-0 basis positions holds a homological
    generator, a cycle supported there that is not a boundary.

    Built once per complex (FormalComplex.h0_probe) and never changed
    afterwards, so concurrent queries may share it.  points are the
    support points of the grading-0 basis, and generators is the Coset
    z0 + im d_1 of all homological generators, with z0 the first
    reduced-row-echelon kernel vector of d_0 outside the boundaries.
    test(inside) takes the bitmask of positions that Coset.restrict takes
    and is true iff generators.restrict(inside) is not None (H_0 = F, so
    every such cycle lies in z0 + im d_1); the rank test is the faster
    route.
    """

    def __init__(self, c: FormalComplex):
        self.points = c.points(0)
        self._slice = tuple((col, 1 << i) for i, col in enumerate(c.boundary_matrix(0)))
        self.boundaries = Span()
        basis = tuple(col for col in c.boundary_matrix(1) if self.boundaries.add(col))
        z0 = next(self._generators(self._slice), 0)
        if not z0:
            raise ValueError("H_0 vanishes; the complex violates the axioms")
        self.generators = Coset(z0, basis, len(self._slice))

    def _generators(self, columns: Iterable[tuple[int, int]]) -> Iterator[int]:
        """Cycles among the tagged d_0 columns that are not boundaries."""
        return (z for z in relations(columns) if self.boundaries.reduce(z))

    def test(self, inside: int) -> bool:
        """True iff the positions set in inside hold a cycle outside the boundaries."""
        return next(self._generators(pair for pair in self._slice if pair[1] & inside), 0) != 0


def quadrant_thresholds(c: FormalComplex, a: int, b: int) -> tuple[int, ...]:
    return tuple(max(g.alg - a, g.alex - b) for g in c.gens)


def alg_halfplane_thresholds(c: FormalComplex, k: int) -> tuple[int, ...]:
    """Thresholds of the subcomplex over {i <= k}."""
    return tuple(g.alg - k for g in c.gens)


def alex_halfplane_thresholds(c: FormalComplex, l: int) -> tuple[int, ...]:
    """Thresholds of the subcomplex over {j <= l}."""
    return tuple(g.alex - l for g in c.gens)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def structural_ok(self) -> bool:
        names = {"parity", "filtered-boundary", "d-squared"}
        return all(c.passed for c in self.checks if c.name in names)

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _structural_checks(c: FormalComplex) -> list[CheckResult]:
    parity_bad = []
    filtered_bad = []
    for k in range(len(c.gens)):
        for l in c.boundary_targets(k):
            gk, gl = c.gens[k], c.gens[l]
            if (gl.gr - gk.gr) % 2 == 0:
                parity_bad.append((gl.name, gk.name))
                continue
            m = c.u_power(l, k)
            if gl.alg - m > gk.alg or gl.alex - m > gk.alex:
                filtered_bad.append((gl.name, gk.name))
    checks = [
        CheckResult(
            "parity",
            not parity_bad,
            "" if not parity_bad else f"even grading drop at {parity_bad[:3]}",
        ),
        CheckResult(
            "filtered-boundary",
            not filtered_bad,
            "" if not filtered_bad else f"filtration raised at {filtered_bad[:3]}",
        ),
    ]
    if parity_bad:
        checks.append(CheckResult("d-squared", False, "not evaluated (parity failed)"))
        return checks
    square_bad = []
    for k in range(len(c.gens)):
        acc = 0
        for l in c.boundary_targets(k):
            acc ^= c.d_cols[l]
        if acc:
            square_bad.append(c.gens[k].name)
    checks.append(
        CheckResult(
            "d-squared",
            not square_bad,
            "" if not square_bad else f"d^2 nonzero on {square_bad[:3]}",
        )
    )
    return checks


def _support_box(c: FormalComplex) -> tuple[int, int]:
    vals = [g.alg for g in c.gens] + [g.alex for g in c.gens]
    return min(vals, default=0), max(vals, default=0)


def validate(c: FormalComplex) -> ValidationReport:
    """Run all axiom checks and return a per-check report (never raises).

    Lowering every threshold by one gives the U^-1-translate of a threshold
    subcomplex, so the checks below test one case per U-translation class.
    """
    checks = _structural_checks(c)
    structural = all(ch.passed for ch in checks)
    checks.append(CheckResult("odd-rank", len(c.gens) % 2 == 1,
                              "" if len(c.gens) % 2 == 1 else f"rank {len(c.gens)} is even"))
    if not structural:
        skipped = "not evaluated (structural checks failed)"
        for name in ("global-homology", "symmetry", "alexander-filtration", "algebraic-filtration"):
            checks.append(CheckResult(name, False, skipped))
        return ValidationReport(tuple(checks))

    # Global homology: one F in every even grading, nothing in odd ones.
    # U is a chain isomorphism of degree -2, so gradings 0 and 1 decide it.
    h = (c.homology_dim(0), c.homology_dim(1))
    checks.append(CheckResult("global-homology", h == (1, 0),
                              "" if h == (1, 0) else "H_even={}, H_odd={} (want 1, 0)".format(*h)))

    # Filtration-swap symmetry (necessary condition): the quadrant
    # subcomplexes of C and of C with swapped filtrations must have equal
    # graded homology; the swap sends R_(a,b) to R_(b,a).
    # The pair (a, b) matters only through d = b - a, and every d >= genus
    # pairs the algebraic half-plane {i <= a} with the Alexander one {j <= a}.
    box_lo, box_hi = _support_box(c)
    top = max(genus(c), 1)
    bad_offsets = set()
    for d in range(1, min(box_hi - box_lo, top) + 1):
        s1 = Subcomplex(c, quadrant_thresholds(c, box_lo, box_lo + d))
        s2 = Subcomplex(c, quadrant_thresholds(c, box_lo + d, box_lo))
        if s1.homology() != s2.homology():
            bad_offsets.add(d)
    # Failing pairs in (a, b) order: row a holds (a, a + d) for each failing
    # d that fits, and rows shrink as a grows.  Every d > top fails with
    # top, so the first three pairs use the first three failing d, all at
    # most top + 2, and lie in the first three rows.
    failing = [d for d in range(1, box_hi - box_lo + 1)[:top + 2] if min(d, top) in bad_offsets]
    pairs = ((a, a + d) for a in range(box_lo, box_hi + 1)[:3]
             for d in takewhile(lambda d: a + d <= box_hi, failing))
    sym_bad = list(islice(pairs, 3))
    checks.append(CheckResult("symmetry", not sym_bad,
                              "" if not sym_bad else f"asymmetric quadrants {sym_bad}"))

    # Filtration conditions (necessary): each level of either filtration
    # must look homologically like the Laurent-ring model, and each level
    # subquotient must have Euler characteristic 1.
    # Level j + 1 is the U^-1-translate of level j, so the lowest level
    # decides for all of them.
    euler = sum(1 if g.gr % 2 == 0 else -1 for g in c.gens)
    for check_name, level_of, thresholds_of in (
        ("alexander-filtration", lambda g: g.alex, alex_halfplane_thresholds),
        ("algebraic-filtration", lambda g: g.alg, alg_halfplane_thresholds),
    ):
        if euler != 1:
            detail = f"subquotient Euler characteristic {euler}"
        else:
            j = min(level_of(g) for g in c.gens) - 1
            # the model, F in even gradings <= 2j, has the one step (2j, 1)
            model = Subcomplex(c, thresholds_of(c, j)).homology() == ((2 * j, 1),)
            detail = "" if model else f"level {j}"
        checks.append(CheckResult(check_name, not detail, detail))
    return ValidationReport(tuple(checks))


def is_stabilizer(a: FormalComplex) -> bool:
    """Acyclicity test for summands invisible to the homological invariants.

    True iff both level-0 filtration subcomplexes are acyclic, that is,
    iff their step profiles (Subcomplex.homology) are empty.
    """
    report = ValidationReport(tuple(_structural_checks(a)))
    if not report.ok:
        raise ValueError(f"structural conditions fail: {', '.join(report.failed())}")
    return all(
        Subcomplex(a, thresholds_of(a, 0)).homology() == ()
        for thresholds_of in (alex_halfplane_thresholds, alg_halfplane_thresholds)
    )
