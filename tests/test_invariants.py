import sys
import threading
from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import given, settings, strategies as st

from fkc import catalog, complexes
from fkc.complexes import FormalComplex, dual, genus, tensor
from fkc.gf2 import EnumerationLimitError
from fkc.invariants import (
    INFINITY,
    PLFunction,
    compare,
    contains_hom_generator,
    d_surgery_delta,
    g0,
    g_next,
    g_tower,
    hom_generators,
    level0_realizers,
    nu_plus,
    nu_plus_dual_from_g0,
    nu_plus_from_g0,
    tau,
    tau_from_g0,
    upsilon,
    upsilon2,
    upsilon_at,
    upsilon_from_g0,
    v_k,
    v_k_from_g0,
)
from fkc.region import ClosedRegion, Point, closure, quadrant

import oracles

SAMPLED_T = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2))


def region_key(r: ClosedRegion):
    return tuple((p.i, p.j) for p in r.corners)


# -- homological generators ---------------------------------------------------


def test_hom_generators_unknot():
    gens = hom_generators(catalog.unknot())
    assert len(gens) == 1
    assert gens[0].region == quadrant(0, 0)


def test_hom_generators_trefoil():
    t23 = catalog.torus_staircase(1, False)
    gens = hom_generators(t23)
    regions = sorted(hg.region for hg in gens)
    assert [region_key(r) for r in regions] == [((0, 1),), ((1, 0),)]
    # each generator is a single dual staircase corner
    assert sorted(hg.vector.bits.bit_count() for hg in gens) == [1, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hom_generators_cn(n):
    # For n >= 3 extra generators appear (e.g. x0 + U x2 + U x'2), but their
    # regions strictly contain the two minimal quadrants, whose realizers
    # stay the singletons {x0} and {x'0}.
    c = catalog.cn(n)
    gens = hom_generators(c)
    assert len(gens) == len(oracles.hom_generator_bits(c))
    minimal = level0_realizers(c)
    assert sorted(region_key(r) for r in minimal) == [((0, 1),), ((1, 0),)]
    for chains in minimal.values():
        assert chains.basis == () and next(iter(chains)).bits.bit_count() == 1


def test_hom_generators_match_oracle():
    for c in (
        catalog.torus_staircase(1, False),
        catalog.torus_staircase(2, True),
        catalog.cn(2),
        catalog.figure_eight_model(),
        tensor(catalog.torus_staircase(1, False), catalog.torus_staircase(1, True)),
    ):
        ours = sorted(hg.vector.bits for hg in hom_generators(c))
        assert ours == sorted(oracles.hom_generator_bits(c))


def test_hom_generator_regions_match_oracle():
    c = tensor(catalog.torus_staircase(1, False), catalog.torus_staircase(1, False))
    ours = sorted(region_key(hg.region) for hg in hom_generators(c))
    theirs = sorted(
        tuple(oracles.maximal_points(oracles.support_of(c, 0, v)))
        for v in oracles.hom_generator_bits(c)
    )
    assert ours == theirs


# -- the shared H_0 probe ------------------------------------------------------


def test_probe_z0_matches_dense_rref(atoms):
    pool = list(atoms.values())
    pool += [tensor(a, b) for a, b in combinations_with_replacement(pool, 2)]
    for c in pool:
        assert c.h0_probe.generators.point == oracles.dense_z0(c), c.name


def _probe_queries(c):
    ts = (Fraction(1, 3), Fraction(1), Fraction(7, 5))
    return (nu_plus(c), tau(c), [v_k(c, k) for k in range(genus(c) + 1)],
            [upsilon_at(c, t) for t in ts])


def test_probe_reduces_full_d0_once(monkeypatch):
    c = tensor(catalog.cn(3), catalog.torus_staircase(2, mirror=True))
    full_d0 = list(c.boundary_matrix(0))
    reductions = []
    original = complexes.relations

    def counting(columns):
        columns = list(columns)
        reductions.append([col for col, _ in columns] == full_d0)
        return original(columns)

    monkeypatch.setattr(complexes, "relations", counting)
    _probe_queries(c)
    hom_generators(c)
    g0(c)
    level0_realizers(c)
    assert reductions.count(True) == 1 and len(reductions) > 1


def test_probe_stays_read_only():
    c = tensor(catalog.cn(2), catalog.torus_staircase(1, mirror=False))
    probe = c.h0_probe
    state = dict(vars(probe))
    pivots = dict(probe.boundaries._pivots)
    _probe_queries(c)
    assert c.h0_probe is probe
    assert vars(probe) == state and probe.boundaries._pivots == pivots


def test_probe_shared_across_threads():
    c = tensor(catalog.cn(3), catalog.torus_staircase(2, mirror=True))
    want = _probe_queries(FormalComplex(c.name, c.gens, c.d_cols))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.append(_probe_queries(c)))
            for _ in range(8)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * 8


def _positions(values, member):
    """Bitmask of the positions whose value satisfies member."""
    return sum(1 << k for k, v in enumerate(values) if member(v))


def test_probe_test_agrees_with_generators_restrict(atoms):
    """Two routes to "the region holds a homological generator": the probe's
    rank test, and a Coset.restrict of z0 + im d_1 that is not None, on the
    masks of quadrants, tau regions and slanted half-planes."""
    pool = list(atoms.values())
    pool += [tensor(a, b) for a, b in combinations_with_replacement(pool, 2)]
    for c in pool:
        probe, g = c.h0_probe, genus(c)
        pts = oracles.slice_points(c, 0)
        masks = [_positions(pts, lambda p: p[0] <= a and p[1] <= b)
                 for a in range(-g - 1, g + 2) for b in range(-g - 1, g + 2)]
        masks += [_positions(pts, lambda p: p[0] <= -1 or (p[0] <= 0 and p[1] <= m))
                  for m in range(-g - 1, g + 2)]
        for t in SAMPLED_T:
            doubled = [2 * oracles.line_value(p, t) for p in pts]
            masks += [_positions(doubled, lambda v: v <= s) for s in range(-2 * g - 2, 2 * g + 3)]
        for inside in masks:
            assert probe.test(inside) == (probe.generators.restrict(inside) is not None), (
                c.name, bin(inside))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_probe_test_agrees_with_generators_restrict_on_any_mask(atoms, data):
    """H_0 = F, so every grading-0 cycle outside im d_1 lies in z0 + im d_1:
    the two routes agree on every bitmask, not only on regions.  A mask is
    a chain of the coset (or none), plus random positions, minus a few."""
    names = st.sampled_from(sorted(atoms))
    c = atoms[data.draw(names)]
    if data.draw(st.booleans()):
        c = tensor(c, atoms[data.draw(names)])
    probe = c.h0_probe
    gens, top = probe.generators, (1 << len(probe.points)) - 1
    inside = 0
    if data.draw(st.booleans()):
        inside = gens.point
        for b in gens.basis:
            if data.draw(st.booleans()):
                inside ^= b
    inside |= data.draw(st.integers(0, top)) & data.draw(st.integers(0, top))
    inside &= ~(data.draw(st.integers(0, top)) & data.draw(st.integers(0, top))
                & data.draw(st.integers(0, top)))
    assert probe.test(inside) == (gens.restrict(inside) is not None)


# -- filtered changes of basis --------------------------------------------------

UPSILON2_POINTS = ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 2)),
                   (Fraction(3, 2), Fraction(0)))


def _basis_change_pool():
    """Atoms with a legal move, a few pairwise tensors, and sums with a
    square at a small offset (some of which fail the symmetry check)."""
    b = catalog.builders()
    pool = {n: b[n] for n in ("c2", "c3", "c4", "fig8")}
    for x, y in (("t2_3", "c2"), ("c2", "fig8"), ("t2_3", "t2_3_mirror"), ("t2_3", "t2_5")):
        pool[f"{x}*{y}"] = tensor(b[x], b[y])
    pool["c2*c2'"] = tensor(b["c2"], dual(b["c2"]))
    for x, (i, j) in (("t2_3", (1, 1)), ("c2", (0, 1)), ("fig8", (-1, 0)), ("t2_5", (2, -2))):
        square = catalog.square_stabilizer(Point(i, j))
        pool[f"{x}+sq({i},{j})"] = complexes.direct_sum(b[x], square)
    return pool


BASIS_CHANGE_POOL = _basis_change_pool()


def _invariants_of(c):
    return (
        complexes.validate(c).failed(),
        nu_plus(c),
        tau(c),
        [v_k(c, k) for k in range(genus(c) + 1)],
        [upsilon_at(c, t) for t in (0, Fraction(1, 2), 1, Fraction(3, 2), 2)],
        g0(c),
        g_tower(c, 4).region_sets(),
        len(hom_generators(c)),
        [upsilon2(c, t, s) for t, s in UPSILON2_POINTS],
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invariants_survive_filtered_basis_changes(data):
    name = data.draw(st.sampled_from(sorted(BASIS_CHANGE_POOL)))
    c = BASIS_CHANGE_POOL[name]
    want = _invariants_of(c)
    for _ in range(data.draw(st.integers(1, 4))):
        c = oracles.filtered_basis_change(
            c, *data.draw(st.sampled_from(oracles.legal_basis_changes(c)))
        )
    assert _invariants_of(c) == want


def test_filtered_basis_changes_move_the_differential():
    """Most single moves change d, and each keeps the structural axioms."""
    changed = total = 0
    for name, c in BASIS_CHANGE_POOL.items():
        for move in oracles.legal_basis_changes(c):
            d = oracles.filtered_basis_change(c, *move)
            assert complexes.validate(d).structural_ok, (name, move)
            changed += d.d_cols != c.d_cols
            total += 1
    assert 2 * changed > total
    c2 = BASIS_CHANGE_POOL["c2"]
    k, l, m = oracles.legal_basis_changes(c2)[0]
    with pytest.raises(ValueError):
        oracles.filtered_basis_change(c2, l, l, m)
    with pytest.raises(ValueError):
        oracles.filtered_basis_change(c2, k, l, m + 1)


# -- nu+ ----------------------------------------------------------------------


def test_nu_plus_unknot():
    assert nu_plus(catalog.unknot()) == 0


def test_nu_plus_trefoil():
    assert nu_plus(catalog.torus_staircase(1, False)) == 1


def test_nu_plus_duality_catalog():
    for name, c in catalog.builders().items():
        if name == "square":
            continue
        assert nu_plus(tensor(c, dual(c))) == 0, name


def test_nu_plus_matches_oracle():
    for c in (
        catalog.torus_staircase(1, False),
        catalog.torus_staircase(2, False),
        catalog.cn(2),
        catalog.cn(3),
        catalog.figure_eight_model(),
        tensor(catalog.cn(2), catalog.torus_staircase(1, True)),
    ):
        assert nu_plus(c) == oracles.oracle_nu_plus(c)


# -- V_k ----------------------------------------------------------------------


def test_v_k_unknot():
    for k in range(4):
        assert v_k(catalog.unknot(), k) == 0


def test_v_k_trefoil():
    t23 = catalog.torus_staircase(1, False)
    assert v_k(t23, 0) == 1
    assert v_k(t23, 1) == 0


def test_v_k_ladder_catalog():
    for name, c in catalog.builders().items():
        if name == "square":
            continue
        vs = [v_k(c, k) for k in range(5)]
        for k in range(4):
            assert vs[k] - 1 <= vs[k + 1] <= vs[k], name


def test_v_k_matches_oracle():
    for c in (
        catalog.torus_staircase(2, False),
        catalog.cn(3),
        tensor(catalog.torus_staircase(1, False), catalog.torus_staircase(1, False)),
    ):
        for k in range(3):
            assert v_k(c, k) == oracles.oracle_v_k(c, k)


def test_v_k_rejects_negative():
    with pytest.raises(ValueError):
        v_k(catalog.unknot(), -1)


# -- tau ----------------------------------------------------------------------


def test_tau_unknot():
    assert tau(catalog.unknot()) == 0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_tau_staircases(g):
    m = catalog.torus_staircase(g, mirror=True)
    assert tau(m) == -g
    assert tau(dual(m)) == g


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tau_cn(n):
    assert tau(catalog.cn(n)) == 1


def test_tau_matches_oracle():
    for c in (
        catalog.torus_staircase(1, True),
        catalog.torus_staircase(2, False),
        catalog.cn(2),
        catalog.figure_eight_model(),
        tensor(catalog.cn(2), catalog.torus_staircase(1, True)),
    ):
        assert tau(c) == oracles.oracle_tau(c)


# -- the scan bounds of nu+, V_k and tau ----------------------------------------
# Each scans m over a range set by the genus g: nu+ and V_k over 0..g, tau
# over -g..g.  One-generator complexes put the answer at the ends.


def test_scans_raise_when_no_cut_in_range_passes():
    # genus 0, and the one generator at (1, 1) lies outside every scanned cut
    c = complexes.parse("gen x 0 1 1\n")
    with pytest.raises(ValueError, match=r"no homological generator in \{i <= 0\}"):
        nu_plus(c)
    with pytest.raises(ValueError, match=r"in R_\(m, 0 \+ m\) for 0 <= m <= 0;"):
        v_k(c, 0)
    with pytest.raises(ValueError, match="tau exceeds the genus bound"):
        tau(c)


def test_scans_reach_both_ends_of_their_range():
    low = complexes.parse("gen x 0 -2 1\n")  # genus 3
    assert (tau(low), nu_plus(low), v_k(low, 1)) == (-3, 1, 0)
    high = complexes.parse("gen x 0 0 3\n")  # genus 3
    assert (tau(high), nu_plus(high), v_k(high, 0)) == (3, 3, 3)


# -- Upsilon ------------------------------------------------------------------


def test_upsilon_unknot_zero():
    fn = upsilon(catalog.unknot())
    assert fn.breakpoints == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)))


def test_upsilon_trefoil_breakpoints():
    fn = upsilon(catalog.torus_staircase(1, False))
    assert fn.breakpoints == (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(-1)),
        (Fraction(2), Fraction(0)),
    )


def test_upsilon_slope_is_minus_tau():
    for name, c in catalog.builders().items():
        if name == "square":
            continue
        assert upsilon(c).slope_at_zero() == -tau(c), name


def test_upsilon_at_matches_full_function(atoms):
    """The probe route's int t-line is exact, also at large coprime denominators."""
    pool = list(atoms.values())
    pool += [tensor(a, b) for a, b in combinations_with_replacement(pool, 2)]
    ts = SAMPLED_T + (Fraction(1, 7), Fraction(5, 13), Fraction(199, 100))
    for c in pool:
        fn = upsilon(c)
        for t in ts:
            assert upsilon_at(c, t) == fn.value(t), (c.name, t)


def test_upsilon_at_matches_oracle():
    for c in (
        catalog.torus_staircase(2, False),
        catalog.cn(2),
        tensor(catalog.torus_staircase(1, False), catalog.cn(2)),
    ):
        for t in SAMPLED_T:
            assert upsilon_at(c, t) == oracles.oracle_upsilon_at(c, t)


def test_upsilon_endpoints_vanish():
    for name, c in catalog.builders().items():
        if name == "square":
            continue
        fn = upsilon(c)
        assert fn.value(0) == 0 and fn.value(2) == 0


# -- Upsilon^2 ---------------------------------------------------------------


def test_upsilon2_trefoil():
    t23 = catalog.torus_staircase(1, False)
    assert upsilon2(t23, 1, 1) == -1


def test_upsilon2_matches_oracle(atoms):
    # the oracle scans 2^|grading-1 slice| chains per candidate line, so
    # only tensors with small slices are compared
    pool = list(atoms.values())
    pool += [tensor(a, b) for a, b in combinations_with_replacement(pool, 2)]
    cases = finite = 0
    for c in pool:
        if len(c.points(1)) > 10:
            continue
        for t, s in ((1, 1), (1, Fraction(1, 2)), (Fraction(2, 3), Fraction(3, 2)),
                     (Fraction(4, 3), 0)):
            want = oracles.oracle_upsilon2(c, t, s)
            assert upsilon2(c, t, s) == (INFINITY if want is None else want), (c.name, t, s)
            cases += 1
            finite += want is not None
    assert cases >= 150 and finite >= 40
    # the connecting chains of c2 sit on the line value 3/2, one step
    # further out than the trefoil's, so upsilon^2 drops to -2
    c2 = catalog.cn(2)
    assert oracles.oracle_upsilon2(c2, 1, 1) == -2
    assert upsilon2(c2, 1, 1) == -2


def test_upsilon2_matches_enumerative_referee():
    # the enumerative pair-sum search is the referee; c3 (x) c3, c3 (x) c4,
    # c4 (x) c4 and t2_5 (x) c4 are left out, where it takes seconds
    atoms = [catalog.unknot()]
    atoms += [catalog.torus_staircase(g, m) for g in (1, 2) for m in (False, True)]
    atoms += [catalog.cn(2), catalog.cn(3), catalog.cn(4), catalog.figure_eight_model()]
    slow = {("c3", "c3"), ("c3", "c4"), ("c4", "c4"), ("t2_5", "c4")}
    pool = atoms + [tensor(c, dual(c)) for c in (catalog.cn(2), catalog.cn(3))]
    pool += [tensor(a, b) for a, b in combinations_with_replacement(atoms, 2)
             if (a.name, b.name) not in slow]
    cases = finite = 0
    for c in pool:
        # every finite value of this pool sits at the breakpoint t = 1
        for t, s in ((1, 0), (1, Fraction(1, 2)), (1, Fraction(3, 2)), (1, 2),
                     (Fraction(1, 2), Fraction(3, 2)), (Fraction(4, 3), 2)):
            want = oracles.oracle_upsilon2_enum(c, t, s)
            assert upsilon2(c, t, s) == want, (c.name, t, s)
            cases += 1
            finite += want != INFINITY
    assert len(pool) == 52 and cases == 312 and finite == 132


def test_upsilon2_minus_infinity_is_value_error():
    # fails filtered-boundary: x lies below both a and b in the t-halfplane
    # at t = 1, so the connecting chain a + b = d x costs nothing
    c = complexes.parse("gen a 0 1 -1\ngen b 0 -1 1\ngen x 1 -5 -5\nd x : a b\n")
    assert not complexes.validate(c).structural_ok
    with pytest.raises(ValueError, match="-infinity"):
        upsilon2(c, 1, 1)


def test_upsilon2_unique_generator_is_infinite():
    m = catalog.torus_staircase(1, mirror=True)
    for t in SAMPLED_T:
        if 0 < t < 2:
            assert upsilon2(m, t, 1) == INFINITY


def test_upsilon2_unknot_infinite():
    assert upsilon2(catalog.unknot(), 1, 1) == INFINITY


def test_upsilon2_domain_checks():
    t23 = catalog.torus_staircase(1, False)
    with pytest.raises(ValueError):
        upsilon2(t23, 0, 1)
    with pytest.raises(ValueError):
        upsilon2(t23, 1, 3)


# -- G0 -----------------------------------------------------------------------


def test_g0_unknot():
    assert g0(catalog.unknot()) == (quadrant(0, 0),)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_g0_cn(n):
    assert g0(catalog.cn(n)) == (quadrant(0, 1), quadrant(1, 0))


def test_g0_fig8():
    assert g0(catalog.figure_eight_model()) == (quadrant(0, 0),)


def test_g0_matches_oracle():
    for c in (
        catalog.torus_staircase(2, False),
        catalog.figure_eight_model(),
        tensor(catalog.torus_staircase(1, False), catalog.torus_staircase(1, True)),
        tensor(catalog.cn(2), catalog.cn(2)),
    ):
        ours = [region_key(r) for r in g0(c)]
        assert ours == [tuple(r) for r in oracles.oracle_g0(c)]


def test_g0_minimality():
    # every homological generator's region contains a member of G0
    for c in (catalog.torus_staircase(2, False), catalog.cn(3)):
        mins = [region_key(m) for m in g0(c)]
        for hg in hom_generators(c):
            assert any(oracles.region_subset(m, region_key(hg.region)) for m in mins)


@pytest.fixture(scope="module")
def search_pool(atoms):
    """The atoms, their pairwise tensors with and without a dual factor,
    and c1-c12, as far as k = dim im d_1 <= 12."""
    pool = list(atoms.values())
    for a, b in combinations_with_replacement(atoms.values(), 2):
        pool += [tensor(a, b), tensor(a, dual(b))]
    pool += [catalog.cn(n) for n in range(1, 13)]
    return [c for c in pool if len(c.h0_probe.generators.basis) <= 12]


@pytest.fixture(scope="module")
def big_rungs():
    """Two products with k = 90 and 102, far beyond any enumeration cap,
    each with its factors."""
    t25, t27 = (catalog.torus_staircase(g, False) for g in (2, 3))
    c4 = catalog.cn(4)
    rungs = {"t2_7^3": [t27, t27, t27], "c4 c4* t2_5": [c4, dual(c4), t25]}
    return {name: (fs, tensor(tensor(fs[0], fs[1]), fs[2])) for name, fs in rungs.items()}


BIG_CAP = 1 << 128


def test_g0_search_matches_enumeration(search_pool):
    for c in search_pool:
        gens = hom_generators(c)
        assert [h.vector.bits for h in gens] == sorted({h.vector.bits for h in gens})
        by_region: dict[ClosedRegion, list[int]] = {}
        for h in gens:
            by_region.setdefault(h.region, []).append(h.vector.bits)
        realizers = level0_realizers(c)
        regions = g0(c)
        assert regions == tuple(realizers)
        assert list(map(region_key, regions)) == oracles.minimal_regions(map(region_key, by_region))
        for r, coset in realizers.items():
            assert [z.bits for z in coset] == sorted(by_region[r])


def test_generators_iterate_lazily_on_big_rungs(big_rungs):
    # 2^90 generators, far beyond any cap: the first few come out at once, ascending
    _, c = big_rungs["t2_7^3"]
    first = [v.bits for v in islice(c.h0_probe.generators, 5)]
    assert len(first) == 5 and all(a < b for a, b in zip(first, first[1:]))


def test_big_coset_is_truthy(big_rungs):
    # a coset is never empty; its truth value must not go through a 2^90 length
    _, c = big_rungs["t2_7^3"]
    assert bool(c.h0_probe.generators) is True


def _lowered(r: ClosedRegion, corner: Point) -> ClosedRegion:
    """The largest region inside r that misses the corner."""
    rest = [p for p in r.corners if p != corner]
    return closure(rest + [Point(corner.i - 1, corner.j), Point(corner.i, corner.j - 1)])


def test_g0_on_big_rungs(big_rungs):
    for factors, c in big_rungs.values():
        regions = g0(c, cap=BIG_CAP)
        assert tau_from_g0(regions) == tau(c) == sum(map(tau, factors))
        assert nu_plus_from_g0(regions) == nu_plus(c)
        assert upsilon_from_g0(regions) == sum(map(upsilon, factors[1:]), upsilon(factors[0]))
        for r in regions:
            assert contains_hom_generator(c, r)
            assert not any(contains_hom_generator(c, _lowered(r, p)) for p in r.corners)


def test_default_cap_binds_on_big_rungs(big_rungs):
    # the cap counts the 2^k chains of the coset, searched or not
    _, c = big_rungs["t2_7^3"]
    for call in (g0, upsilon, lambda c: upsilon2(c, 1, 1), lambda c: g_tower(c, 3), hom_generators):
        with pytest.raises(EnumerationLimitError) as exc:
            call(c)
        assert exc.value.required == 2**90


def test_g0_search_probe_tests_are_bounded(search_pool, big_rungs, monkeypatch):
    # at most (|G0| + 1)(|P| + 1) probe tests, P the grading-0 support points
    calls = []
    real_test = complexes.H0Probe.test
    monkeypatch.setattr(
        complexes.H0Probe, "test", lambda probe, inside: calls.append(1) or real_test(probe, inside)
    )
    for c in search_pool + [c for _, c in big_rungs.values()]:
        calls.clear()
        regions = g0(c, cap=BIG_CAP)
        assert 0 < len(calls) <= (len(regions) + 1) * (len(set(c.h0_probe.points)) + 1)


def test_contains_hom_generator_formula():
    c = catalog.torus_staircase(1, False)
    assert contains_hom_generator(c, quadrant(0, 1))
    assert not contains_hom_generator(c, quadrant(0, 0))
    assert contains_hom_generator(c, closure([Point(0, 1), Point(1, 0)]))


# -- the G tower --------------------------------------------------------------


def test_g_next_trefoil():
    c1 = catalog.cn(1)
    reals = level0_realizers(c1)
    regions, next_reals = g_next(c1, reals, (quadrant(0, 1), quadrant(1, 0)), 1)
    assert regions == (quadrant(1, 1),)
    assert next_reals[quadrant(1, 1)].basis == ()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_g_next_cn_intermediate_levels(n):
    c = catalog.cn(n)
    reals = level0_realizers(c)
    regions = (quadrant(0, 1), quadrant(1, 0))
    for k in range(1, n):
        regions, reals = g_next(c, reals, (regions[0], regions[1]), k)
        assert regions == (quadrant(k, k + 1), quadrant(k + 1, k))
    regions, _ = g_next(c, reals, (regions[0], regions[1]), n)
    assert regions == (quadrant(n, n),)


def _realizer_bits(by_region):
    return {region_key(r): [v.bits for v in vs] for r, vs in by_region.items()}


def test_level0_realizers_match_oracle(atoms):
    # Tensor products have generators with equal support points, so several
    # corner choices give one region; none of its realizers may be lost.
    # 29 of the 51 complexes checked (grading-0/1 slices of at most 14
    # elements) have such points.
    pool = list(atoms.values())
    pool += [tensor(a, b) for a, b in combinations_with_replacement(atoms.values(), 2)]
    checked = 0
    for c in pool:
        if any(len(c.points(n)) > 14 for n in (0, 1)):
            continue
        by_region = {}
        for v in oracles.hom_generator_bits(c):
            corners = tuple(oracles.maximal_points(oracles.support_of(c, 0, v)))
            by_region.setdefault(corners, []).append(v)
        want = {r: sorted(by_region[r]) for r in oracles.minimal_regions(by_region)}
        assert _realizer_bits(level0_realizers(c)) == want, c.name
        checked += 1
    assert checked >= 50


def test_g_next_matches_oracle(atoms):
    # levels 1-3, each step pairing the first two regions of the previous
    # level; from level 2 on the oracle is fed its own previous level
    pool = [atoms[name] for name in ("c2", "c3", "c4", "t2_5")]
    pool += [tensor(a, b) for a, b in combinations_with_replacement(atoms.values(), 2)]
    steps = 0
    for c in pool:
        if any(1 << len(c.points(n)) > oracles.MAX_EXHAUSTIVE for n in (0, 1)):
            continue
        ours = level0_realizers(c)
        theirs = _realizer_bits(ours)
        for level in (1, 2, 3):
            if len(ours) < 2:
                break
            r1, r2 = list(ours)[:2]
            regions, ours = g_next(c, ours, (r1, r2), level)
            want, theirs = oracles.oracle_g_next(
                c, theirs, (region_key(r1), region_key(r2)), level
            )
            assert [region_key(r) for r in regions] == want, (c.name, level)
            assert _realizer_bits(ours) == theirs, (c.name, level)
            steps += 1
    assert steps >= 50


def test_g_tower_unknot_stops_immediately():
    tower = g_tower(catalog.unknot(), depth=5)
    assert tower.region_sets() == [(quadrant(0, 0),)]
    assert tower.stop_reason == "singleton"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 24, 40])
def test_g_tower_cn(n):
    tower = g_tower(catalog.cn(n), depth=n + 3, cap=1 << 64)
    expected = [(quadrant(0, 1), quadrant(1, 0))]
    expected += [(quadrant(k, k + 1), quadrant(k + 1, k)) for k in range(1, n)]
    expected += [(quadrant(n, n),)]
    assert tower.region_sets() == expected
    assert tower.stop_reason == "singleton"


def test_g_tower_depth_zero():
    tower = g_tower(catalog.cn(2), depth=0)
    assert len(tower.levels) == 1
    assert tower.stop_reason == "depth"


def test_g_tower_stops_on_branching():
    # three minimal regions leave no canonical pair
    tower = g_tower(catalog.torus_staircase(2, False), depth=3)
    assert len(tower.levels) == 1
    assert tower.stop_reason == "branching"


def test_g_towers_distinguish_c2_c3():
    t2 = g_tower(catalog.cn(2), depth=4).region_sets()
    t3 = g_tower(catalog.cn(3), depth=4).region_sets()
    assert t2[:2] == t3[:2]
    assert t2[2] != t3[2]


def test_g_next_rejects_equal_pair():
    c = catalog.cn(2)
    reals = level0_realizers(c)
    with pytest.raises(ValueError):
        g_next(c, reals, (quadrant(0, 1), quadrant(0, 1)), 1)


def test_g_next_keeps_all_realizers():
    # at level 2 of the n=3 family each region is realized by four chains
    # (the particular solution plus the grading-2 kernel directions)
    c3 = catalog.cn(3)
    regions, reals = g_next(
        c3, level0_realizers(c3), (quadrant(0, 1), quadrant(1, 0)), 1
    )
    assert [1 << len(reals[r].basis) for r in regions] == [1, 1]
    regions2, reals2 = g_next(c3, reals, (regions[0], regions[1]), 2)
    assert regions2 == (quadrant(2, 3), quadrant(3, 2))
    assert [1 << len(reals2[r].basis) for r in regions2] == [4, 4]
    regions3, reals3 = g_next(c3, reals2, (regions2[0], regions2[1]), 3)
    assert regions3 == (quadrant(3, 3),)
    assert 1 << len(reals3[quadrant(3, 3)].basis) == 4


def test_g_next_arbitrary_branch_choices():
    # with three minimal regions every distinct pair is a legal branch
    t25 = catalog.torus_staircase(2, False)
    assert g0(t25) == (quadrant(0, 2), quadrant(1, 1), quadrant(2, 0))
    reals = level0_realizers(t25)
    out = {}
    for pair in (
        (quadrant(0, 2), quadrant(1, 1)),
        (quadrant(1, 1), quadrant(2, 0)),
        (quadrant(0, 2), quadrant(2, 0)),
    ):
        regions, _ = g_next(t25, reals, pair, 1)
        out[pair] = regions
    assert out[(quadrant(0, 2), quadrant(1, 1))] == (quadrant(1, 2),)
    assert out[(quadrant(1, 1), quadrant(2, 0))] == (quadrant(2, 1),)
    assert out[(quadrant(0, 2), quadrant(2, 0))] == (
        closure([Point(1, 2), Point(2, 1)]),
    )


# -- formulas from G0 ---------------------------------------------------------


def test_formulas_from_g0_trefoil():
    regions = g0(catalog.torus_staircase(1, False))
    assert nu_plus_from_g0(regions) == 1
    assert nu_plus_dual_from_g0(regions) == 0
    assert v_k_from_g0(regions, 0) == 1
    assert v_k_from_g0(regions, 1) == 0
    assert tau_from_g0(regions) == 1
    assert upsilon_from_g0(regions) == upsilon(catalog.torus_staircase(1, False))


# -- tensor-level laws ----------------------------------------------------------


def test_tensor_associative_on_invariants():
    a = catalog.torus_staircase(1, False)
    b = catalog.torus_staircase(1, True)
    c = catalog.cn(2)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert nu_plus(left) == nu_plus(right)
    assert tau(left) == tau(right)
    assert g0(left) == g0(right)


def test_v_k_tensor_inequality():
    pool = (
        catalog.torus_staircase(1, False),
        catalog.torus_staircase(2, False),
        catalog.cn(2),
        catalog.figure_eight_model(),
    )
    for a in pool:
        for b in pool:
            t = tensor(a, b)
            for k1 in range(3):
                for k2 in range(3):
                    assert v_k(t, k1 + k2) <= v_k(a, k1) + v_k(b, k2)


def test_g1_bounds_upsilon2():
    # the connecting-chain regions give an upper bound for little-upsilon2
    # at (t, s) = (1, 1); equality is not asserted
    from oracles import line_value

    t = s = Fraction(1)
    for name in ("t2_3", "c2", "c3", "c4"):
        c = catalog.builders()[name]
        value = upsilon2(c, t, s)
        assert value != INFINITY
        little_u2 = -upsilon_at(c, t) / 2 - value / 2
        regions = g0(c)
        assert len(regions) == 2
        ups_t = -upsilon_at(c, t) / 2
        stats = []
        for r in regions:
            vals = [(line_value((p.i, p.j), t), Fraction(p.j - p.i, 2)) for p in r.corners]
            f = max(v for v, _ in vals)
            act = [sl for v, sl in vals if v == f]
            stats.append((r, f, max(act), min(act)))
        vmin = min(st[1] for st in stats)
        att = [st for st in stats if st[1] == vmin]
        r_plus = {st[0] for st in att if st[2] == min(x[2] for x in att)}
        r_minus = {st[0] for st in att if st[3] == max(x[3] for x in att)}
        reals = level0_realizers(c)
        bound = None
        for rm in r_minus:
            for rp in r_plus:
                if rm == rp:
                    continue
                g1_regions, _ = g_next(c, reals, (rm, rp), 1)
                for reg in g1_regions:
                    outside = [p for p in reg.corners if line_value((p.i, p.j), t) > ups_t]
                    if not outside:
                        continue
                    r_val = max(line_value((p.i, p.j), s) for p in outside)
                    bound = r_val if bound is None else min(bound, r_val)
        assert bound is not None
        assert little_u2 <= bound, name


# -- compare ------------------------------------------------------------------


def test_compare_reflexive():
    for name, c in catalog.builders().items():
        if name == "square":
            continue
        assert compare(c, c) == "equal", name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compare_trefoil_below_cn(n):
    t23 = catalog.torus_staircase(1, False)
    assert compare(t23, catalog.cn(n)) == "less"
    assert compare(catalog.cn(n), t23) == "greater"


def test_compare_fig8_unknot():
    assert compare(catalog.figure_eight_model(), catalog.unknot()) == "equal"


def test_compare_incomparable():
    # T(2,5) vs 2x mirror trefoil: tau 2 vs -2 in one order is enough for
    # neither inequality via the connected sum with its own mirror classes
    a = catalog.torus_staircase(1, False)
    b = catalog.torus_staircase(1, True)
    s = tensor(a, tensor(a, b))  # class of the trefoil
    assert compare(s, catalog.unknot()) == "greater"
    assert compare(tensor(a, b), catalog.unknot()) == "equal"


# -- surgery correction terms -------------------------------------------------


def test_d_surgery_unknot():
    u = catalog.unknot()
    for (p, q, i) in ((1, 1, 0), (3, 2, 1), (5, 3, 4)):
        assert d_surgery_delta(u, p, q, i) == 0


def test_d_surgery_trefoil():
    t23 = catalog.torus_staircase(1, False)
    assert d_surgery_delta(t23, 1, 1, 0) == -2
    assert d_surgery_delta(t23, 3, 1, 1) == 0


def test_d_surgery_validation():
    t23 = catalog.torus_staircase(1, False)
    with pytest.raises(ValueError, match="coprime"):
        d_surgery_delta(t23, 4, 2, 1)
    with pytest.raises(ValueError, match="index"):
        d_surgery_delta(t23, 3, 1, 3)


# -- enumeration limits --------------------------------------------------------


def test_g0_respects_cap():
    t23 = catalog.torus_staircase(1, False)
    with pytest.raises(EnumerationLimitError) as exc:
        g0(t23, cap=1)
    assert exc.value.required == 2


def test_g_next_cap_counts_pair_sums_times_kernel():
    # required = (number of admissible pair sums with a preimage) << dim
    # ker d_n, the size of the coset g_next enumerates: on c8, levels 1-8
    # enumerate 16, 32, 32, 64, 64, 128, 128 and 256 chains
    c8 = catalog.cn(8)
    tower = g_tower(c8, 12)
    for level, size in enumerate((16, 32, 32, 64, 64, 128, 128, 256), start=1):
        step, prev = tower.levels[level], tower.levels[level - 1]
        with pytest.raises(EnumerationLimitError) as exc:
            g_next(c8, prev.realizers, step.chosen_pair, level, cap=size - 1)
        assert exc.value.required == size
        assert g_next(c8, prev.realizers, step.chosen_pair, level, cap=size)[0] == step.regions
    for cap, required in ((255, 256), (127, 128), (63, 64), (15, 16)):
        with pytest.raises(EnumerationLimitError) as exc:
            g_tower(c8, 12, cap=cap)
        assert exc.value.required == required


def test_hom_generators_respect_cap():
    c = tensor(catalog.cn(2), catalog.cn(2))
    with pytest.raises(EnumerationLimitError):
        hom_generators(c, cap=8)


# -- PLFunction ----------------------------------------------------------------


def test_pl_from_samples_merges_collinear():
    fn = PLFunction.from_samples([(0, 0), (1, 1), (Fraction(1, 2), Fraction(1, 2)), (2, 2)])
    assert fn.breakpoints == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)))


def test_pl_value_interpolates():
    fn = PLFunction.from_samples([(0, 0), (1, -1), (2, 0)])
    assert fn.value(Fraction(1, 2)) == Fraction(-1, 2)
    assert fn.value(Fraction(3, 2)) == Fraction(-1, 2)


def test_pl_addition_and_negation():
    a = PLFunction.from_samples([(0, 0), (1, -1), (2, 0)])
    b = PLFunction.from_samples([(0, 0), (2, 2)])
    s = a + b
    assert s.value(1) == 0
    assert (-a).value(1) == 1
    assert a + (-a) == PLFunction.from_samples([(0, 0), (2, 0)])


def test_pl_rejects_conflicting_samples():
    with pytest.raises(ValueError):
        PLFunction.from_samples([(0, 0), (0, 1), (2, 0)])


def test_pl_requires_full_domain():
    with pytest.raises(ValueError):
        PLFunction(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))
