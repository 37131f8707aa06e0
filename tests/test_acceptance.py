"""Acceptance suite: one test per criterion, exact values, pinned budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Every numeric assertion is exact (integers and
Fractions); the timing assertions use the stated wall-clock budgets.
"""

import itertools
import time
from fractions import Fraction

import pytest

from fkc import catalog
from fkc.complexes import direct_sum, dual, genus, reverse, tensor
from fkc.invariants import (
    compare,
    d_surgery_delta,
    g0,
    g_tower,
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
from fkc.region import Point, quadrant

import oracles
from oracles import column_space_basis, staircase_slice_has_hom_generator

SAMPLED_T = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2))

_suite7_seconds = []


def _report(label, ok):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}")


class Checker:
    """Counts exact assertions so the suites can prove their quota."""

    def __init__(self):
        self.count = 0

    def ok(self, condition, context=""):
        assert condition, context
        self.count += 1


@pytest.fixture(scope="module")
def pool(atoms):
    """Atoms plus all pairwise tensor products (66 unordered pairs)."""
    tensors = {}
    for (na, a), (nb, b) in itertools.combinations_with_replacement(
        sorted(atoms.items()), 2
    ):
        tensors[f"{na}*{nb}"] = tensor(a, b)
    return {"atoms": atoms, "tensors": tensors}


# -- criterion 1: the region tower of the genus-one family --------------------


def test_criterion_1_g_tower_of_cn():
    ok = False
    try:
        start = time.monotonic()
        for n in (1, 2, 3, 4):
            tower = g_tower(catalog.cn(n), depth=n + 1)
            expected = [(quadrant(0, 1), quadrant(1, 0))]
            expected += [
                (quadrant(k, k + 1), quadrant(k + 1, k)) for k in range(1, n)
            ]
            expected += [(quadrant(n, n),)]
            assert tower.region_sets() == expected, n
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"tower computations took {elapsed:.2f}s"
        ok = True
    finally:
        _report(1, ok)


# -- criterion 2: distinctness of the family ----------------------------------


def test_criterion_2_distinct_towers_and_strict_order():
    ok = False
    try:
        start = time.monotonic()
        towers = {n: g_tower(catalog.cn(n), depth=5).region_sets() for n in (1, 2, 3, 4)}
        for a, b in itertools.combinations((1, 2, 3, 4), 2):
            assert towers[a] != towers[b], (a, b)
        for n in (1, 2, 3, 4):
            assert tau(catalog.cn(n)) == 1, n
        c1 = catalog.cn(1)
        for n in (2, 3, 4):
            cn = catalog.cn(n)
            left = tensor(c1, dual(cn))
            right = tensor(dual(c1), cn)
            assert left.rank <= 9 * (2 * n + 1)
            assert right.rank <= 9 * (2 * n + 1)
            assert nu_plus(left) == 0 and nu_plus(right) > 0
            assert compare(c1, cn) == "less", n
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"comparisons took {elapsed:.2f}s"
        ok = True
    finally:
        _report(2, ok)


# -- criterion 3: zero detection ----------------------------------------------


def test_criterion_3_zero_detection():
    ok = False
    try:
        assert g0(catalog.unknot()) == (quadrant(0, 0),)
        assert g0(catalog.figure_eight_model()) == (quadrant(0, 0),)
        assert compare(catalog.figure_eight_model(), catalog.unknot()) == "equal"
        ok = True
    finally:
        _report(3, ok)


# -- criterion 4: duality vanishing -------------------------------------------


def test_criterion_4_nu_plus_duality_suite():
    ok = False
    try:
        named = (
            catalog.unknot(),
            catalog.torus_staircase(1, False),
            catalog.torus_staircase(2, False),
            catalog.torus_staircase(1, True),
            catalog.torus_staircase(2, True),
            catalog.cn(2),
            catalog.cn(3),
            catalog.figure_eight_model(),
        )
        for c in named:
            assert nu_plus(tensor(c, dual(c))) == 0, c.name
        ok = True
    finally:
        _report(4, ok)


# -- criterion 5: staircase invariants ----------------------------------------


def test_criterion_5_staircase_invariants():
    ok = False
    try:
        for g in (1, 2, 3):
            mirror = catalog.torus_staircase(g, mirror=True)
            assert tau(mirror) == -g
            assert tau(dual(mirror)) == g
            fn = upsilon(mirror)
            assert fn.value(Fraction(1)) == g
            assert fn.slope_at_zero() == -tau(mirror) == g
            assert genus(mirror) == g
        ok = True
    finally:
        _report(5, ok)


# -- criterion 6: trefoil numbers against the brute-force oracle --------------


def test_criterion_6_trefoil_numbers():
    ok = False
    try:
        t23 = catalog.torus_staircase(1, mirror=False)
        # frozen values, each confirmed by the independent oracle
        assert nu_plus(t23) == 1 == oracles.oracle_nu_plus(t23)
        assert v_k(t23, 0) == 1 == oracles.oracle_v_k(t23, 0)
        assert v_k(t23, 1) == 0 == oracles.oracle_v_k(t23, 1)
        assert tau(t23) == 1 == oracles.oracle_tau(t23)
        fn = upsilon(t23)
        assert fn.breakpoints == (
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(-1)),
            (Fraction(2), Fraction(0)),
        )
        for t in SAMPLED_T:
            assert fn.value(t) == oracles.oracle_upsilon_at(t23, t)
        assert upsilon2(t23, 1, 1) == -1 == oracles.oracle_upsilon2(t23, 1, 1)
        assert d_surgery_delta(t23, 1, 1, 0) == -2
        assert -2 == -2 * max(
            oracles.oracle_v_k(t23, 0), oracles.oracle_v_k(t23, 1)
        )
        ok = True
    finally:
        _report(6, ok)


# -- criterion 7: property suites (each >= 200 exact assertions) --------------


def _timed(check_fn):
    start = time.monotonic()
    chk = Checker()
    check_fn(chk)
    _suite7_seconds.append(time.monotonic() - start)
    assert chk.count >= 200, f"only {chk.count} assertions"
    return chk.count


def test_criterion_7a_nu_plus_subadditivity(pool):
    ok = False
    try:
        atoms = pool["atoms"]
        np_atom = {name: nu_plus(c) for name, c in atoms.items()}

        def suite(chk):
            for na, nb in itertools.product(sorted(atoms), repeat=2):
                t = tensor(atoms[na], atoms[nb])
                chk.ok(nu_plus(t) <= np_atom[na] + np_atom[nb], (na, nb))
            small = ("t2_3", "t2_3m", "c2", "fig8", "t2_5m")
            for na, nb, nc in itertools.product(small, repeat=3):
                inner = tensor(atoms[nb], atoms[nc])
                t = tensor(atoms[na], inner)
                chk.ok(nu_plus(t) <= np_atom[na] + nu_plus(inner), (na, nb, nc))

        count = _timed(suite)
        print(f"criterion 7a assertions: {count}")
        ok = True
    finally:
        _report("7a", ok)


def test_criterion_7b_tau_upsilon_additivity(pool):
    ok = False
    try:
        atoms = pool["atoms"]
        tau_atom = {name: tau(c) for name, c in atoms.items()}
        ups_atom = {
            name: {t: upsilon_at(c, t) for t in SAMPLED_T} for name, c in atoms.items()
        }

        def suite(chk):
            for key, t_cx in pool["tensors"].items():
                na, nb = key.split("*")
                chk.ok(tau(t_cx) == tau_atom[na] + tau_atom[nb], key)
                for t in SAMPLED_T:
                    chk.ok(
                        upsilon_at(t_cx, t) == ups_atom[na][t] + ups_atom[nb][t],
                        (key, t),
                    )

        count = _timed(suite)
        print(f"criterion 7b assertions: {count}")
        ok = True
    finally:
        _report("7b", ok)


def test_criterion_7c_v_k_ladder(pool):
    ok = False
    try:

        def suite(chk):
            instances = list(pool["atoms"].values()) + list(pool["tensors"].values())
            for c in instances:
                np_val = nu_plus(c)
                vs = [v_k(c, k) for k in range(4)]
                for k in range(3):
                    chk.ok(vs[k] - 1 <= vs[k + 1], (c.name, k))
                    chk.ok(vs[k + 1] <= vs[k], (c.name, k))
                for k in range(min(np_val, 3) + 1):
                    chk.ok(vs[k] + k <= np_val, (c.name, k))

        count = _timed(suite)
        print(f"criterion 7c assertions: {count}")
        ok = True
    finally:
        _report("7c", ok)


def test_criterion_7d_tau_below_nu_plus(pool):
    ok = False
    try:

        def suite(chk):
            base = list(pool["atoms"].values()) + list(pool["tensors"].values())
            instances = base + [dual(c) for c in base] + [reverse(c) for c in base]
            for c in instances:
                chk.ok(tau(c) <= nu_plus(c), c.name)

        count = _timed(suite)
        print(f"criterion 7d assertions: {count}")
        ok = True
    finally:
        _report("7d", ok)


def test_criterion_7e_g0_formula_agreement(pool):
    ok = False
    try:

        def suite(chk):
            instances = list(pool["atoms"].values())
            for t_cx in pool["tensors"].values():
                dim = len(column_space_basis(t_cx.boundary_matrix(1)))
                if dim <= 10:
                    instances.append(t_cx)
            for c in instances:
                regions = g0(c)
                chk.ok(nu_plus_from_g0(regions) == nu_plus(c), c.name)
                chk.ok(nu_plus_dual_from_g0(regions) == nu_plus(dual(c)), c.name)
                chk.ok(tau_from_g0(regions) == tau(c), c.name)
                for k in range(4):
                    chk.ok(v_k_from_g0(regions, k) == v_k(c, k), (c.name, k))
                fn = upsilon_from_g0(regions)
                for t in SAMPLED_T:
                    chk.ok(fn.value(t) == upsilon_at(c, t), (c.name, t))

        count = _timed(suite)
        print(f"criterion 7e assertions: {count}")
        ok = True
    finally:
        _report("7e", ok)


def test_criterion_7f_stabilizer_invisibility(pool):
    ok = False
    try:
        shifts = (Point(0, 0), Point(2, 1), Point(-1, 3))

        def suite(chk):
            for c in pool["atoms"].values():
                base = (
                    nu_plus(c),
                    [v_k(c, k) for k in range(4)],
                    tau(c),
                    [upsilon_at(c, t) for t in SAMPLED_T],
                    g0(c),
                )
                for shift in shifts:
                    padded = direct_sum(c, catalog.square_stabilizer(shift))
                    chk.ok(nu_plus(padded) == base[0], (c.name, shift))
                    for k in range(4):
                        chk.ok(v_k(padded, k) == base[1][k], (c.name, shift, k))
                    chk.ok(tau(padded) == base[2], (c.name, shift))
                    for i, t in enumerate(SAMPLED_T):
                        chk.ok(upsilon_at(padded, t) == base[3][i], (c.name, shift, t))
                    chk.ok(g0(padded) == base[4], (c.name, shift))

        count = _timed(suite)
        print(f"criterion 7f assertions: {count}")
        ok = True
    finally:
        _report("7f", ok)


def test_criterion_7g_duality_sign_flips(pool):
    ok = False
    try:

        def suite(chk):
            instances = list(pool["atoms"].values()) + list(pool["tensors"].values())
            for c in instances:
                d = dual(c)
                chk.ok(tau(d) == -tau(c), c.name)
                chk.ok(genus(d) == genus(c), c.name)
                for t in SAMPLED_T:
                    chk.ok(upsilon_at(d, t) == -upsilon_at(c, t), (c.name, t))
            for c in pool["atoms"].values():
                chk.ok(nu_plus(tensor(c, dual(c))) == 0, c.name)

        count = _timed(suite)
        print(f"criterion 7g assertions: {count}")
        ok = True
    finally:
        _report("7g", ok)


def test_criterion_7h_slice_identities(pool):
    ok = False
    try:
        pairs = (
            (quadrant(0, 0), quadrant(1, -1)),
            (quadrant(-1, 2), quadrant(1, 0)),
            (quadrant(0, 1), quadrant(1, 0)),
            (quadrant(-2, 1), quadrant(0, 0)),
            (quadrant(2, -1), quadrant(-1, 2)),
            (quadrant(1, 1), quadrant(-1, -1)),
        )
        gradings = range(-2, 3)

        def suite(chk):
            for c in pool["atoms"].values():
                for r1, r2 in pairs:
                    union = lambda p: r1.contains_point(p) or r2.contains_point(p)
                    for n in gradings:
                        lhs = set(oracles.region_slice(c, union, n))
                        rhs = set(oracles.region_slice(c, r1.contains_point, n)) | set(
                            oracles.region_slice(c, r2.contains_point, n)
                        )
                        chk.ok(lhs == rhs, (c.name, r1, r2, n))
                g = genus(c)
                for k in range(-2, 3):
                    for n in gradings:
                        alg_half = set(oracles.region_slice(c, lambda p: p.i <= k, n))
                        quad = set(
                            oracles.region_slice(c, quadrant(k, g + k).contains_point, n)
                        )
                        chk.ok(alg_half == quad, (c.name, "i", k, n))
                        alex_half = set(oracles.region_slice(c, lambda p: p.j <= k, n))
                        quad2 = set(
                            oracles.region_slice(c, quadrant(g + k, k).contains_point, n)
                        )
                        chk.ok(alex_half == quad2, (c.name, "j", k, n))

        count = _timed(suite)
        print(f"criterion 7h assertions: {count}")
        ok = True
    finally:
        _report("7h", ok)


def test_criterion_7_total_runtime():
    ok = False
    try:
        assert len(_suite7_seconds) == 8, "all eight sub-suites must have run"
        total = sum(_suite7_seconds)
        assert total < 60.0, f"property suites took {total:.1f}s"
        print(f"criterion 7 total runtime: {total:.1f}s")
        ok = True
    finally:
        _report(7, ok)


# -- criterion 8: comparison-bound spot check ----------------------------------


def test_criterion_8_staircase_as_stated():
    ok = False
    try:
        mirror = catalog.torus_staircase(1, mirror=True)
        assert staircase_slice_has_hom_generator(mirror, 1)
        assert compare(mirror, mirror) in ("equal", "less")
        ok = True
    finally:
        _report("8 (staircase)", ok)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the homological generators of c2 sit at (0,1) and (1,0), so the"
        " R^1 slice holds no generator and c2 compares strictly above the"
        " mirror staircase; the stated conjunction cannot hold"
    ),
)
def test_criterion_8_c2_as_stated():
    ok = False
    try:
        c2 = catalog.cn(2)
        mirror = catalog.torus_staircase(1, mirror=True)
        assert staircase_slice_has_hom_generator(c2, 1)
        assert compare(c2, mirror) in ("equal", "less")
        ok = True
    finally:
        _report("8 (c2, as stated)", ok)


def test_criterion_8_comparison_bound_implication():
    # the bound itself: a generator inside R^g forces <= the mirror class
    ok = False
    try:
        mirror = catalog.torus_staircase(1, mirror=True)
        nonvacuous = 0
        for c in (mirror, catalog.cn(2), dual(catalog.cn(2))):
            if staircase_slice_has_hom_generator(c, 1):
                nonvacuous += 1
                assert compare(c, mirror) in ("equal", "less"), c.name
        assert nonvacuous >= 2
        ok = True
    finally:
        _report("8 (implication)", ok)
