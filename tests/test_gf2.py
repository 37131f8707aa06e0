from hypothesis import given, strategies as st
import pytest

from fkc.gf2 import (
    BitVec,
    Coset,
    EnumerationLimitError,
    Span,
    affine_kernel,
    check_cap,
    rank,
    set_bits,
)

import oracles
from oracles import column_space_basis, image, kernel_basis, solve


def mat(rows):
    """The column words of the matrix with the given 0/1 rows."""
    ncols = len(rows[0]) if rows else 0
    return tuple(sum(row[c] << r for r, row in enumerate(rows)) for c in range(ncols))


def identity(n):
    return tuple(1 << i for i in range(n))


def zero(cols):
    return (0,) * cols


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_zero():
    assert rank(zero(5)) == 0


def test_rank_equal_columns():
    assert rank(mat([[1, 1], [1, 1]])) == 1


def test_solve_identity():
    b = 0b0101
    assert solve(identity(4), 4, b) == b


def test_solve_zero_inconsistent():
    assert solve(zero(3), 3, 0b010) is None


def test_solve_parity_row():
    m = mat([[1, 1]])
    b = 0
    x = solve(m, 1, b)
    assert x is not None and x in (0b00, 0b11)
    assert image(m, x) == b


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(2), 2, 0b100)


def test_kernel_identity_empty():
    assert kernel_basis(identity(4)) == []


def test_kernel_zero_full():
    basis = kernel_basis(zero(3))
    assert sorted(basis) == [1, 2, 4]


def test_kernel_parity():
    basis = kernel_basis(mat([[1, 1]]))
    assert basis == [0b11]


def test_enumerate_coset_empty_basis():
    x0 = 0b010
    assert [v.bits for v in Coset(x0, (), 3)] == [x0]


def test_enumerate_coset_single():
    out = {v.bits for v in Coset(0, (0b01,), 2)}
    assert out == {0b00, 0b01}


def test_enumerate_coset_pairwise_distinct():
    out = [v.bits for v in Coset(0b001, (0b010, 0b100), 3)]
    assert len(out) == 4 and len(set(out)) == 4
    assert all(v & 1 for v in out)


def test_enumerate_coset_cap():
    basis = [1 << i for i in range(5)]
    with pytest.raises(EnumerationLimitError) as exc:
        check_cap(basis, cap=16)
    assert exc.value.required == 32
    assert "32" in str(exc.value)


def test_coset_iterates_ascending():
    coset = Coset(0b0110, (0b0011, 0b1001), 4)
    assert tuple(coset) == tuple(BitVec(b, 4) for b in (0b0101, 0b0110, 0b1100, 0b1111))
    assert tuple(Coset(0b101, (), 3)) == (BitVec(0b101, 3),)


def test_column_space_basis_keeps_first_independent():
    m = mat([[1, 1, 0], [0, 0, 1]])
    basis = column_space_basis(m)
    assert basis == [0b01, 0b10]


def test_span_membership():
    sp = Span([0b011])
    assert sp.contains(0)
    assert sp.contains(0b011)
    assert not sp.contains(0b001)
    assert sp.add(0b001)
    assert sp.contains(0b010)
    assert sp.dim == 2


@st.composite
def matrices(draw):
    """(column words, row count) of a matrix up to 6 x 6."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    words = draw(st.lists(st.integers(0, (1 << rows) - 1), min_size=cols, max_size=cols))
    return tuple(words), rows


@given(matrices())
def test_rank_nullity(m):
    cols, _ = m
    assert rank(cols) + len(kernel_basis(cols)) == len(cols)


@given(matrices(), st.integers(0, (1 << 6) - 1))
def test_solve_reverifies(m, xbits):
    cols, rows = m
    x = xbits & ((1 << len(cols)) - 1)
    b = image(cols, x)
    sol = solve(cols, rows, b)
    assert sol is not None
    assert image(cols, sol) == b


@given(matrices())
def test_kernel_vectors_annihilate(m):
    cols, _ = m
    for v in kernel_basis(cols):
        assert image(cols, v) == 0


@given(matrices())
def test_coset_count_over_kernel(m):
    basis = kernel_basis(m[0])
    out = set(oracles.coset_vectors(0, basis))
    assert len(out) == 1 << len(basis)


@given(matrices(), st.integers(0, (1 << 6) - 1))
def test_reducer_matches_dense_rref(m, bbits):
    cols, nrows = m
    rows = [[(w >> r) & 1 for w in cols] for r in range(nrows)]
    _, pivots = oracles.dense_rref(rows, len(cols))
    assert rank(cols) == oracles.dense_rank(rows) == len(pivots)
    # one kernel vector per free column, ascending, supported on that
    # column plus earlier pivot columns
    kernel = kernel_basis(cols)
    assert kernel == oracles.dense_kernel(rows, len(cols))
    free = [c for c in range(len(cols)) if c not in pivots]
    for f, bits in zip(free, kernel):
        rest = bits ^ (1 << f)
        assert bits >> f & 1 and rest >> f == 0
        assert all(c in pivots for c in range(f) if rest >> c & 1)
    # particular solutions live on the pivot columns
    b = bbits & ((1 << nrows) - 1)
    augmented = [row + [b >> r & 1] for r, row in enumerate(rows)]
    sol = solve(cols, nrows, b)
    assert (sol is None) == (oracles.dense_rank(augmented) > len(pivots))
    if sol is not None:
        assert image(cols, sol) == b
        assert all(c in pivots for c in range(len(cols)) if sol >> c & 1)


@given(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 31)), max_size=6),
    st.tuples(st.integers(0, 15), st.integers(0, 31)),
)
def test_affine_kernel_matches_brute_force(dirs, point):
    want = set()
    for c in range(1 << len(dirs)):
        col, tag = point
        for k in set_bits(c):
            col ^= dirs[k][0]
            tag ^= dirs[k][1]
        if col == 0:
            want.add(tag)
    got = affine_kernel(point, dirs, 5)
    if not want:
        assert got is None
        return
    x, basis = got.point, got.basis
    assert set(oracles.coset_vectors(x, basis)) == want
    assert len(want) == 1 << len(basis)


@given(
    st.lists(st.integers(0, 63), max_size=5),
    st.integers(0, 63),
    st.integers(0, 63),
)
def test_coset_restrict_matches_brute_force(dirs, point, inside):
    span = Span()
    basis = tuple(v for v in dirs if span.add(v))
    coset = Coset(point, basis, 6)
    want = {v for v in oracles.coset_vectors(point, basis) if not v & ~inside}
    got = coset.restrict(inside)
    if not want:
        assert got is None
        return
    assert got.length == 6
    assert 1 << len(got.basis) == len(want)
    assert {v.bits for v in got} == want


@st.composite
def cosets(draw):
    """A point and an independent basis of vectors of length up to 10."""
    length = draw(st.integers(0, 10))
    vectors = st.integers(0, (1 << length) - 1)
    span = Span()
    basis = tuple(v for v in draw(st.lists(vectors, max_size=8)) if span.add(v))
    return draw(vectors), basis, length


@given(cosets())
def test_coset_iterates_as_sorted_brute_force(coset):
    point, basis, length = coset
    got = [v.bits for v in Coset(point, basis, length)]
    assert got == sorted(oracles.coset_vectors(point, basis))
