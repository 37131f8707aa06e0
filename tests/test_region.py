from hypothesis import given, strategies as st
import pytest

from fkc import catalog, region
from fkc.invariants import g0, hom_generators
from fkc.region import (
    ClosedRegion,
    Point,
    closure,
    minimalize,
    quadrant,
    render_region_set,
    subset,
    transpose,
)

import oracles


def test_closure_drops_dominated():
    r = closure([Point(0, 1), Point(1, 0), Point(0, 0)])
    assert r.corners == (Point(0, 1), Point(1, 0))


def test_closure_singleton():
    assert closure([Point(0, 0)]).corners == (Point(0, 0),)


def test_closure_staircase_generator_support():
    r = closure([Point(-1, 0), Point(0, -1)])
    assert r.corners == (Point(-1, 0), Point(0, -1))


def test_closure_empty_rejected():
    with pytest.raises(ValueError):
        closure([])


def test_subset_nested_quadrants():
    assert subset(quadrant(0, 0), quadrant(0, 1))


def test_subset_incomparable_quadrants():
    assert not subset(quadrant(0, 1), quadrant(1, 0))
    assert not subset(quadrant(1, 0), quadrant(0, 1))


def test_subset_two_corner_region():
    assert subset(closure([Point(-1, 0), Point(0, -1)]), quadrant(0, 0))


def test_minimalize_keeps_antichain():
    out = minimalize([quadrant(0, 1), quadrant(1, 0)])
    assert out == (quadrant(0, 1), quadrant(1, 0))


def test_minimalize_drops_superset():
    assert minimalize([quadrant(0, 0), quadrant(1, 1)]) == (quadrant(0, 0),)


def test_minimalize_empty():
    assert minimalize([]) == ()


def test_transpose_quadrant():
    assert transpose(quadrant(0, 1)) == quadrant(1, 0)


def test_transpose_diagonal_fixed():
    assert transpose(quadrant(3, 3)) == quadrant(3, 3)


def test_transpose_symmetric_antichain():
    r = closure([Point(-1, 0), Point(0, -1)])
    assert transpose(r) == r


def test_render():
    r = closure([Point(0, 1), Point(1, 0)])
    assert r.render() == "{(0,1),(1,0)}"
    assert render_region_set([quadrant(1, 0), quadrant(0, 1)]) == "{ {(0,1)}, {(1,0)} }"


def test_invalid_corner_order_rejected():
    with pytest.raises(ValueError):
        ClosedRegion((Point(1, 0), Point(0, 1)))
    with pytest.raises(ValueError):
        ClosedRegion((Point(0, 0), Point(1, 1)))


points = st.builds(Point, st.integers(-4, 4), st.integers(-4, 4))
point_sets = st.lists(points, min_size=1, max_size=8)
regions = st.builds(lambda ps: closure(ps), point_sets)


@given(point_sets)
def test_closure_idempotent(ps):
    r = closure(ps)
    assert closure(r.corners) == r


@given(point_sets)
def test_closure_contains_inputs(ps):
    r = closure(ps)
    assert all(r.contains_point(p) for p in ps)


@given(regions, regions)
def test_subset_matches_pointwise_containment(r, s):
    # On the corner grid, corner containment and set containment agree.
    assert subset(r, s) == all(s.contains_point(p) for p in r.corners)


@given(regions)
def test_subset_reflexive(r):
    assert subset(r, r)


@given(regions, regions)
def test_subset_antisymmetric(r, s):
    if subset(r, s) and subset(s, r):
        assert r == s


@given(regions, regions, regions)
def test_subset_transitive(r, s, t):
    if subset(r, s) and subset(s, t):
        assert subset(r, t)


@given(st.lists(regions, max_size=6))
def test_minimalize_output_antichain_and_covering(rs):
    out = minimalize(rs)
    for a in out:
        for b in out:
            if a != b:
                assert not subset(a, b)
    for r in rs:
        assert any(subset(m, r) for m in out)


@given(st.lists(regions, max_size=20))
def test_minimalize_matches_pairwise_oracle(rs):
    # with duplicates, and unions that contain two of the drawn regions
    rs = rs + rs[::2] + [closure(a.corners + b.corners) for a, b in zip(rs, rs[1:])]
    want = oracles.minimal_regions([[(p.i, p.j) for p in r.corners] for r in rs])
    assert [tuple((p.i, p.j) for p in r.corners) for r in minimalize(rs)] == want


def test_minimalize_compares_only_with_kept_regions(monkeypatch):
    # each input is compared only with the regions kept before it, so a
    # call makes at most inputs x kept subset tests (the generator regions
    # of t2_21: 1,024 distinct, 11 minimal; comparing all pairs makes about 10^6)
    c = catalog.torus_staircase(10, False)
    regions = {h.region for h in hom_generators(c)}
    calls = []
    real_subset = region.subset
    monkeypatch.setattr(region, "subset", lambda r, s: calls.append(1) or real_subset(r, s))
    kept = len(minimalize(regions))
    assert kept == len(g0(c))
    assert 0 < len(calls) <= len(regions) * kept


@given(regions)
def test_transpose_involution(r):
    assert transpose(transpose(r)) == r
