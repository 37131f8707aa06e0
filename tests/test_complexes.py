import re
import time
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import pytest

from fkc import catalog, complexes, gf2
from fkc.complexes import (
    FkcParseError,
    FormalComplex,
    Generator,
    degrees,
    direct_sum,
    dual,
    genus,
    is_stabilizer,
    parse,
    reverse,
    serialize,
    tensor,
    validate,
)
from fkc.region import Point, quadrant
from fkc import invariants

import oracles

UNKNOT_TEXT = """\
# the simplest complex
complex unknot
gen e 0 0 0
"""

STAIRCASE_TEXT = """\
complex t2_3_mirror
gen a0 0 -1 0
gen a1 0 0 -1
gen b0 -1 -1 -1
d a0 : b0
d a1 : b0
"""


def invariant_tuple(c):
    return (
        invariants.nu_plus(c),
        invariants.nu_plus(dual(c)),
        invariants.tau(c),
        genus(c),
        tuple(invariants.v_k(c, k) for k in range(3)),
        invariants.g0(c),
    )


# -- parse ------------------------------------------------------------------


def test_parse_unknot():
    c = parse(UNKNOT_TEXT)
    assert c.rank == 1
    assert c.gens[0] == Generator("e", 0, 0, 0)
    assert c.d_cols == (0,)


def test_parse_staircase():
    c = parse(STAIRCASE_TEXT)
    assert c.rank == 3
    assert c == catalog.torus_staircase(1, mirror=True)


def test_parse_unknown_generator():
    with pytest.raises(FkcParseError, match="unknown generator 'zz'"):
        parse("gen a 0 0 0\nd a : zz\n")


def test_parse_duplicate_generator():
    with pytest.raises(FkcParseError, match="duplicate generator"):
        parse("gen a 0 0 0\ngen a 0 0 0\n")


def test_parse_reports_line_numbers():
    with pytest.raises(FkcParseError) as exc:
        parse("gen a 0 0 0\n\n# comment\nd a b\n")
    assert exc.value.line == 4


def test_parse_duplicate_d_line():
    with pytest.raises(FkcParseError, match="duplicate boundary line"):
        parse("gen a 0 0 0\ngen b 1 0 0\nd b : a\nd b : a\n")


def test_parse_bad_integer():
    with pytest.raises(FkcParseError, match="integers"):
        parse("gen a zero 0 0\n")


# -- serialize --------------------------------------------------------------


def test_serialize_round_trip_unknot():
    text = serialize(parse(UNKNOT_TEXT))
    assert text == "complex unknot\ngen e 0 0 0\n"
    assert serialize(parse(text)) == text


def test_serialize_round_trip_c3():
    c = catalog.cn(3)
    assert parse(serialize(c)) == c


def test_serialize_round_trip_tensor_square():
    t = tensor(catalog.torus_staircase(1, False), catalog.torus_staircase(1, False))
    assert parse(serialize(t)) == t


# -- validate ---------------------------------------------------------------


def test_validate_unknot_all_pass():
    report = validate(catalog.unknot())
    assert report.ok
    assert all(c.passed for c in report.checks)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_validate_cn(n):
    assert validate(catalog.cn(n)).ok


def test_validate_acyclic_two_generator():
    c = FormalComplex(
        "acyclic",
        (Generator("x", 0, 0, 0), Generator("y", 1, 0, 0)),
        (0, 0b01),
    )
    report = validate(c)
    assert report.structural_ok
    assert not report["odd-rank"].passed
    assert not report["global-homology"].passed


def test_validate_catches_parity():
    c = FormalComplex("bad", (Generator("x", 0, 0, 0), Generator("y", 2, 1, 1)), (0, 0b01))
    report = validate(c)
    assert not report["parity"].passed


def test_validate_catches_filtration_raise():
    # dy = x with x strictly above y in the Alexander direction
    c = FormalComplex("bad", (Generator("x", 0, 0, 2), Generator("y", 1, 1, 1)), (0, 0b01))
    report = validate(c)
    assert not report["filtered-boundary"].passed


def test_validate_catches_broken_square():
    c = FormalComplex(
        "bad",
        (Generator("x", 0, 0, 0), Generator("y", 1, 0, 0), Generator("z", 2, 0, 0)),
        (0, 0b001, 0b010),
    )
    report = validate(c)
    assert not report["d-squared"].passed


def test_validate_catches_asymmetry():
    # one free generator off the diagonal: fine structurally, fails condition (6)
    c = FormalComplex("bad", (Generator("x", 0, 1, 0),), (0,))
    report = validate(c)
    assert not report["symmetry"].passed


@pytest.mark.parametrize(
    "gr,alg,alex",
    [(0, 1, 1), (0, -2, -2), (2, 0, 0)],
)
def test_validate_catches_origin_shifts(gr, alg, alex):
    # the filtration axioms pin the absolute levels: a diagonal offset or a
    # bare grading shift is not a formal knot complex even though all
    # structural, homology and symmetry checks pass
    c = FormalComplex("shifted", (Generator("e", gr, alg, alex),), (0,))
    report = validate(c)
    assert report["global-homology"].passed
    assert report["symmetry"].passed
    assert report.failed() == ("alexander-filtration", "algebraic-filtration")


def test_validate_allows_u_translated_basis():
    # U^-1 times the generator is still a filtered basis of the same complex
    c = FormalComplex("translated", (Generator("e", 2, 1, 1),), (0,))
    assert validate(c).ok


# -- tensor -----------------------------------------------------------------


def test_tensor_unit():
    t23 = catalog.torus_staircase(1, False)
    assert invariant_tuple(tensor(t23, catalog.unknot())) == invariant_tuple(t23)


def test_tensor_trefoil_square():
    t23 = catalog.torus_staircase(1, False)
    sq = tensor(t23, t23)
    assert sq.rank == 9
    assert invariants.tau(sq) == 2
    assert oracles.oracle_tau(sq) == 2


def test_tensor_commutative_on_invariants():
    a = catalog.cn(2)
    b = catalog.torus_staircase(1, True)
    assert invariant_tuple(tensor(a, b)) == invariant_tuple(tensor(b, a))


# -- dual -------------------------------------------------------------------


def test_dual_involution_invariants():
    c = catalog.cn(2)
    assert invariant_tuple(dual(dual(c))) == invariant_tuple(c)


def test_dual_staircase_tau_flips():
    m = catalog.torus_staircase(1, mirror=True)
    assert invariants.tau(m) == -1
    assert invariants.tau(dual(m)) == 1


def test_dual_unknot():
    d = dual(catalog.unknot())
    assert d.gens[0].gr == 0 and d.gens[0].alg == 0 and d.gens[0].alex == 0
    assert invariant_tuple(d) == invariant_tuple(catalog.unknot())


# -- direct sum -------------------------------------------------------------


def test_sum_with_stabilizer_is_invisible():
    s = direct_sum(catalog.unknot(), catalog.square_stabilizer())
    assert validate(s).ok
    assert invariants.nu_plus(s) == invariants.nu_plus(catalog.unknot())


def test_sum_of_stabilizers_is_stabilizer():
    sq = catalog.square_stabilizer()
    assert is_stabilizer(direct_sum(sq, sq))


def test_sum_unknot_unknot_fails_homology():
    report = validate(direct_sum(catalog.unknot(), catalog.unknot()))
    assert not report["global-homology"].passed


def test_sum_with_asymmetric_square_fails_only_symmetry():
    # an off-diagonal square is acyclic but not swap-symmetric: it has an
    # extra homology class over R_(2,1) that the transposed quadrant lacks
    sq = catalog.square_stabilizer(Point(2, 1))
    assert is_stabilizer(sq)
    report = validate(direct_sum(catalog.unknot(), sq))
    assert report.failed() == ("symmetry",)
    diagonal = catalog.square_stabilizer(Point(3, 3))
    assert validate(direct_sum(catalog.unknot(), diagonal)).ok


# -- reverse ----------------------------------------------------------------


def test_reverse_involution():
    c = catalog.cn(3)
    assert reverse(reverse(c)).gens == c.gens


def test_reverse_cn_invariants():
    c = catalog.cn(3)
    assert invariant_tuple(reverse(c)) == invariant_tuple(c)


def test_reverse_unknot():
    assert reverse(catalog.unknot()).gens == catalog.unknot().gens


# -- slice points and boundary matrices -------------------------------------


def test_points_unknot():
    u = catalog.unknot()
    assert u.points(0) == (Point(0, 0),)
    assert u.points(1) == ()
    # U^-1 x in grading 2 sits one step up the diagonal
    assert u.points(2) == (Point(1, 1),)


def test_points_c2_grading_zero():
    c = catalog.cn(2)
    # x0, x'0 and U y, in generator order
    named = [(c.gens[k].name, l) for k, l in oracles.slice_basis(c, 0)]
    assert named == [("x0", 0), ("x'0", 0), ("y", 1)]
    assert c.points(0) == tuple(Point(*p) for p in oracles.slice_points(c, 0))
    assert c.points(-2) == tuple(Point(p.i - 1, p.j - 1) for p in c.points(0))


def test_boundary_matrix_unknot_zero():
    u = catalog.unknot()
    assert u.boundary_matrix(0) == u.boundary_matrix(-2) == (0,)
    assert u.boundary_matrix(1) == u.boundary_matrix(-1) == ()


def test_boundary_matrix_staircase():
    m = catalog.torus_staircase(1, mirror=True)
    # columns a0, a1 each hit the single row b0
    assert m.boundary_matrix(0) == (0b1, 0b1)
    assert len(m.points(-1)) == 1


def test_boundary_matrix_square():
    sq = catalog.square_stabilizer()
    # columns: s11 then U^-1 s00; rows: s01, s10
    assert sq.boundary_matrix(1) == (0b11, 0)
    assert len(sq.points(0)) == 2


PARITY_BROKEN = (
    # the boundary targets have no index in the other parity's slice
    ("gen a 0 0 0\ngen b 0 0 0\ngen c 0 0 0\nd a : b\n", "boundary of a has b"),
    # both even generators would take the odd ones' indices, silently
    ("gen a 0 0 0\ngen b 0 0 0\ngen x 1 0 0\ngen y 1 0 0\nd x : y\n", "boundary of x has y"),
)


@pytest.mark.parametrize("text, pair", PARITY_BROKEN)
def test_parity_broken_complex_has_no_boundary_matrix(text, pair):
    c = parse(text)
    assert validate(c).failed()[0] == "parity"
    message = f"fails the parity check: the {pair}"
    for build in (
        lambda: c.boundary_matrix(0),
        lambda: c.boundary_matrix(1),
        lambda: c.homology_dim(0),
        lambda: c.h0_probe,
    ):
        with pytest.raises(ValueError, match=message):
            build()


def test_boundary_matrix_matches_dense_oracle():
    for c in (catalog.cn(3), catalog.figure_eight_model()):
        for n in (0, 1):
            images = oracles.boundary_images(c, n)
            assert list(c.boundary_matrix(n)) == images


# -- region slices: the positions of points(n), through oracles.region_slice -


def test_region_slice_unknot_origin():
    u = catalog.unknot()
    assert oracles.region_slice(u, quadrant(0, 0).contains_point, 0) == (0,)


def test_region_slice_trefoil_origin_empty():
    t23 = catalog.torus_staircase(1, False)
    assert oracles.region_slice(t23, quadrant(0, 0).contains_point, 0) == ()


def test_region_slice_trefoil_halfplane():
    t23 = catalog.torus_staircase(1, False)
    half = lambda p: Fraction(p.i + p.j, 2) <= Fraction(1, 2)
    sl = oracles.region_slice(t23, half, 0)
    basis = oracles.slice_basis(t23, 0)
    assert [t23.gens[basis[k][0]].name for k in sl] == ["a0'", "a1'"]


# -- degrees ----------------------------------------------------------------


def test_degrees_unknot():
    assert degrees(catalog.unknot()) == (0, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degrees_cn(n):
    assert degrees(catalog.cn(n)) == (1, -1, 1)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_degrees_dual_staircase(g):
    m = catalog.torus_staircase(g, mirror=True)
    mdeg_max, mdeg_min, _ = degrees(m)
    dmax, dmin, _ = degrees(dual(m))
    assert dmax == -mdeg_min and dmin == -mdeg_max


# -- stabilizer detection ---------------------------------------------------


def test_square_is_stabilizer():
    assert is_stabilizer(catalog.square_stabilizer())


def test_unknot_is_not_stabilizer():
    assert not is_stabilizer(catalog.unknot())


def test_staircase_is_not_stabilizer():
    assert not is_stabilizer(catalog.torus_staircase(1, mirror=True))


def test_is_stabilizer_rejects_broken_structure():
    c = FormalComplex("bad", (Generator("x", 0, 0, 0), Generator("y", 2, 1, 1)), (0, 0b01))
    with pytest.raises(ValueError):
        is_stabilizer(c)


def assert_is_stabilizer_matches_oracle(c):
    try:
        want = oracles.oracle_is_stabilizer(c)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            is_stabilizer(c)
    else:
        assert is_stabilizer(c) == want


# -- randomized structural complexes -----------------------------------------


@st.composite
def structural_complexes(draw):
    """Random complexes with parity- and filtration-legal boundaries.

    d^2 = 0 is not enforced, so validate may report failures; it must
    never raise, and serialization must round-trip regardless.
    """
    n = draw(st.integers(0, 6))
    gens = []
    for i in range(n):
        gr = draw(st.integers(-3, 3))
        alg = draw(st.integers(-3, 3))
        alex = draw(st.integers(-3, 3))
        gens.append(Generator(f"v{i}", gr, alg, alex))
    cols = []
    for k in range(n):
        col = 0
        for l in range(n):
            if (gens[l].gr - gens[k].gr) % 2 == 0:
                continue
            m = (gens[l].gr - gens[k].gr + 1) // 2
            if gens[l].alg - m > gens[k].alg or gens[l].alex - m > gens[k].alex:
                continue
            if draw(st.booleans()):
                col |= 1 << l
        cols.append(col)
    name = draw(st.sampled_from(["", "rnd", "a'b_c"]))
    return FormalComplex(name, tuple(gens), tuple(cols))


# x -> y, acyclic at Alexander level 0 but not at algebraic level 0
ARROW = FormalComplex("", (Generator("x", 0, 0, 0), Generator("y", -1, -1, 0)), (0b10, 0))


@given(structural_complexes())
@example(ARROW)
@example(reverse(ARROW))
def test_is_stabilizer_matches_oracle(c):
    assert_is_stabilizer_matches_oracle(c)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([None] + sorted(catalog.builders())),
    st.integers(-3, 6),
    st.integers(-3, 6),
    st.integers(0, 8),
)
@example(None, 2, 1, 5)
@example("unknot", 0, 0, 0)
@example("c2", 5, 0, 3)
def test_is_stabilizer_matches_oracle_with_far_squares(atom, a, b, k):
    """An optional catalog atom plus a square at (a, b) and one at (k, -k)."""
    c = direct_sum(catalog.square_stabilizer(Point(a, b)), catalog.square_stabilizer(Point(k, -k)))
    if atom is not None:
        c = direct_sum(catalog.builders()[atom], c)
    assert_is_stabilizer_matches_oracle(c)


@given(structural_complexes(), structural_complexes())
def test_tensor_columns_match_kronecker_oracle(a, b):
    assert list(tensor(a, b).d_cols) == oracles.oracle_tensor_cols(a, b)


@given(structural_complexes())
def test_random_complexes_round_trip(c):
    assert parse(serialize(c)) == c


@given(structural_complexes())
def test_validate_never_raises_and_structure_holds(c):
    report = validate(c)
    assert report["parity"].passed
    assert report["filtered-boundary"].passed
    assert isinstance(report.ok, bool)


@given(structural_complexes())
def test_dual_and_reverse_preserve_structure(c):
    for image in (dual(c), reverse(c), dual(dual(c))):
        report = validate(image)
        assert report["parity"].passed
        assert report["filtered-boundary"].passed
    assert validate(dual(c))["d-squared"].passed == validate(c)["d-squared"].passed


def report_tuples(c):
    return [(ch.name, ch.passed, ch.detail) for ch in validate(c).checks]


def test_validate_empty_complex_reports():
    empty = FormalComplex("", (), ())
    assert validate(empty).failed() == (
        "odd-rank", "global-homology", "alexander-filtration", "algebraic-filtration"
    )
    assert report_tuples(empty) == oracles.oracle_validate(empty)


@given(structural_complexes())
def test_validate_matches_exhaustive_oracle(c):
    assert report_tuples(c) == oracles.oracle_validate(c)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(catalog.builders())),
    st.integers(-3, 6),
    st.integers(-3, 6),
)
@example("unknot", 2, 1)
@example("c2", 5, 0)
@example("t2_5", 4, 4)
@example("unknot", 4, -4)
def test_validate_matches_oracle_with_far_square(atom, a, b):
    c = direct_sum(catalog.builders()[atom], catalog.square_stabilizer(Point(a, b)))
    assert report_tuples(c) == oracles.oracle_validate(c)


def test_validate_subcomplex_count_ignores_coordinate_size(monkeypatch):
    built = []
    homology = complexes._homology

    def counting(c, thresholds):
        built.append(thresholds)
        return homology(c, thresholds)

    monkeypatch.setattr(complexes, "_homology", counting)
    counts = []
    for s in (3, 3000):
        built.clear()
        assert validate(direct_sum(catalog.unknot(), catalog.square_stabilizer(Point(s, s)))).ok
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_validate_time_ignores_far_diagonal_offset():
    # the symmetry report scans at most genus + 2 offsets and 3 rows, whatever the box width
    c = direct_sum(catalog.unknot(), catalog.square_stabilizer(Point(10**7, 10**7)))
    start = time.perf_counter()
    assert validate(c).ok
    assert time.perf_counter() - start < 0.5


def test_validate_work_is_linear_in_anti_diagonal_offset(monkeypatch):
    # work = vectors added to spans + columns reduced by gf2.relations
    work = [0]
    add, relations = gf2.Span.add, gf2.relations

    def counting_add(self, v):
        work[0] += 1
        return add(self, v)

    def counting_relations(columns):
        def counted():
            for col in columns:
                work[0] += 1
                yield col

        return relations(counted())

    monkeypatch.setattr(gf2.Span, "add", counting_add)
    monkeypatch.setattr(gf2, "relations", counting_relations)
    monkeypatch.setattr(complexes, "relations", counting_relations)
    counts = {}
    for k in (50, 200):
        work[0] = 0
        c = direct_sum(catalog.unknot(), catalog.square_stabilizer())
        report = validate(direct_sum(c, catalog.square_stabilizer(Point(k, -k))))
        assert report.failed() == ("symmetry",)
        counts[k] = work[0]
    assert counts[200] <= 5 * counts[50]


# -- threshold subcomplexes -------------------------------------------------


THRESHOLDS = {
    "quadrant": oracles.quadrant_thresholds,
    "alg": lambda c, a, b: [g.alg - a for g in c.gens],
    "alex": lambda c, a, b: [g.alex - b for g in c.gens],
}


@given(structural_complexes(), st.integers(-4, 4), st.integers(-4, 4))
def test_closed_region_thresholds_cut_subcomplexes(c, a, b):
    # the assumption complexes._homology documents, on every cut it is given
    assert all(oracles.cuts_subcomplex(c, cut(c, a, b)) for cut in THRESHOLDS.values())
    # the referee can fail: keep a0 from upower 0 but b0 only from upower 5
    assert not oracles.cuts_subcomplex(catalog.torus_staircase(1, mirror=True), (0, 0, 5))


@given(structural_complexes(), st.sampled_from(sorted(THRESHOLDS)),
       st.integers(-4, 4), st.integers(-4, 4))
@example(catalog.cn(2), "quadrant", 0, 1)
def test_subcomplex_homology_against_dense_rank(c, kind, a, b):
    thresholds = THRESHOLDS[kind](c, a, b)
    steps = complexes._homology(c, thresholds)
    # strictly descending, and each listed grading is a change from n + 2
    assert [n for n, _ in steps] == sorted({n for n, _ in steps}, reverse=True)
    assert all(d != oracles.sub_homology_dim(c, thresholds, n + 2) for n, d in steps)
    tops = [g.gr - 2 * t for g, t in zip(c.gens, thresholds)] or [0]
    for n in range(min(tops) - 4, max(tops) + 5):
        h = oracles.sub_homology_dim(c, thresholds, n)
        # dim H_n is the step at the nearest listed grading n' >= n of n's parity
        assert next((d for m, d in reversed(steps) if m >= n and (m - n) % 2 == 0), 0) == h
