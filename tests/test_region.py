from hypothesis import given, strategies as st
import pytest

from fkc.region import ClosedRegion, Point, closure, quadrant, render_region_set

import oracles


# The package keeps no region order or minimalization of its own: G0 comes
# from a search.  The tests below check the referees of that search,
# oracles.region_subset and oracles.minimal_regions, on corner tuples.


def key(r: ClosedRegion):
    return tuple((p.i, p.j) for p in r.corners)


def subset(r: ClosedRegion, s: ClosedRegion) -> bool:
    return oracles.region_subset(key(r), key(s))


def minimal(regions):
    return oracles.minimal_regions(key(r) for r in regions)


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
    assert minimal([quadrant(0, 1), quadrant(1, 0)]) == [((0, 1),), ((1, 0),)]


def test_minimalize_drops_superset():
    assert minimal([quadrant(0, 0), quadrant(1, 1)]) == [((0, 0),)]


def test_minimalize_empty():
    assert minimal([]) == []


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
    out = [closure(Point(*p) for p in corners) for corners in minimal(rs)]
    for a in out:
        for b in out:
            if a != b:
                assert not subset(a, b)
    for r in rs:
        assert any(subset(m, r) for m in out)
