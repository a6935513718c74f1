"""Canonical exact linear algebra: RREF, spans, subspace lattice walks."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.enumeration import iter_subspaces
from nonassoc.errors import UsageError
from nonassoc.fields import GF, QQ
from nonassoc.linalg import (
    Echelon,
    Matrix,
    full_subspace,
    kernel,
    rref,
    span,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_known_example():
    m = Matrix(QQ, frac_rows([[2, 4, -2], [1, 2, 0], [3, 6, -1]]))
    r = rref(m)
    assert r.rows == (
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_rref_is_idempotent_on_example():
    m = Matrix(GF(5), [[2, 1, 0], [4, 2, 3], [1, 3, 1]])
    r = rref(m)
    assert rref(r) == r


def test_matrix_shape_validation():
    with pytest.raises(UsageError):
        Matrix(QQ, frac_rows([[1, 2], [3]]))
    with pytest.raises(UsageError):
        Matrix(QQ, [])
    empty = Matrix(QQ, [], ncols=3)
    assert empty.nrows == 0 and empty.ncols == 3


def test_matrix_apply_and_compose():
    m = Matrix(GF(7), [[1, 2], [3, 4]])
    n = Matrix(GF(7), [[0, 1], [1, 0]])
    assert (m @ n).rows == ((2, 1), (4, 3))
    assert m.apply((1, 1)) == (3, 0)
    with pytest.raises(UsageError):
        m @ Matrix(GF(7), [[1, 2, 3]])


def test_matrix_is_hashable():
    m1 = Matrix(GF(3), [[1, 2], [0, 1]])
    m2 = Matrix(GF(3), [[1, 2], [0, 1]])
    assert m1 == m2
    assert len({m1, m2}) == 1


def test_span_produces_canonical_basis():
    u = span(QQ, 3, frac_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    v = span(QQ, 3, frac_rows([[1, 2, 0], [0, 0, 2]]))
    assert u == v
    assert u.dim == 2
    assert u.basis == ((Fraction(1), Fraction(2), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)))
    assert u.pivots == (0, 2)


def test_subspace_membership_and_containment():
    u = span(GF(2), 3, [(1, 1, 0), (0, 0, 1)])
    assert u.contains((1, 1, 1))
    assert not u.contains((1, 0, 0))
    assert u.contains(span(GF(2), 3, [(1, 1, 1)]))
    assert full_subspace(GF(2), 3).contains(u)
    assert u.contains(zero_subspace(GF(2), 3))


def test_subspace_is_hashable_and_usable_as_key():
    a = span(GF(3), 2, [(1, 2)])
    b = span(GF(3), 2, [(0, 1)])
    table = {a: "first"}
    # (2, 1) is the scalar double of (1, 2) over F_3, so it spans the same line.
    assert table[span(GF(3), 2, [(2, 1)])] == "first"
    assert a != b


def test_sum_and_intersection():
    u = span(QQ, 3, frac_rows([[1, 0, 0], [0, 1, 0]]))
    v = span(QQ, 3, frac_rows([[0, 1, 0], [0, 0, 1]]))
    assert subspace_sum(u, v) == full_subspace(QQ, 3)
    assert subspace_intersect(u, v) == span(QQ, 3, frac_rows([[0, 1, 0]]))


def test_kernel_is_annihilated():
    m = Matrix(GF(5), [[1, 2, 3], [2, 4, 1]])
    k = kernel(m)
    assert k.dim == 2
    for row in k.basis:
        assert all(x == 0 for x in m.apply(row))
    assert kernel(Matrix(GF(5), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])).is_zero()


def test_echelon_accumulator_matches_span():
    vectors = [(1, 2, 0), (2, 4, 1), (0, 0, 3)]
    ech = Echelon(GF(5), 3)
    grew = [ech.add(v) for v in vectors]
    assert grew == [True, True, False]
    assert ech.subspace() == span(GF(5), 3, vectors)
    assert ech.contains((1, 2, 0))
    assert not ech.contains((0, 1, 0))


def test_iter_subspaces_counts_match_gaussian_binomials():
    # F_2^3: 1 + 7 + 7 + 1 subspaces; F_3^2: 1 + 4 + 1.
    all_f2 = list(iter_subspaces(GF(2), 3))
    assert len(all_f2) == 16
    dims = [s.dim for s in all_f2]
    assert dims == sorted(dims)
    assert all_f2[0].is_zero()
    assert all_f2[-1] == full_subspace(GF(2), 3)
    assert len(set(all_f2)) == 16

    all_f3 = list(iter_subspaces(GF(3), 2))
    assert len(all_f3) == 6
    assert [s.dim for s in all_f3].count(1) == 4


def test_iter_subspaces_ordering_is_deterministic():
    first = [s.basis for s in iter_subspaces(GF(2), 3)]
    second = [s.basis for s in iter_subspaces(GF(2), 3)]
    assert first == second
    one_dim = [s.basis for s in iter_subspaces(GF(2), 3) if s.dim == 1]
    assert one_dim == sorted(one_dim)


small_gf5_vectors = st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=4)] * 3), min_size=0, max_size=4
)


@settings(max_examples=60)
@given(small_gf5_vectors)
def test_span_is_idempotent(vectors):
    u = span(GF(5), 3, vectors)
    assert span(GF(5), 3, u.basis) == u
    for row, p in zip(u.basis, u.pivots):
        assert row[p] == 1


@settings(max_examples=60)
@given(small_gf5_vectors, small_gf5_vectors)
def test_dimension_formula(vs, ws):
    u = span(GF(5), 3, vs)
    v = span(GF(5), 3, ws)
    s = subspace_sum(u, v)
    i = subspace_intersect(u, v)
    assert s.dim + i.dim == u.dim + v.dim
    assert s.contains(u) and s.contains(v)
    assert u.contains(i) and v.contains(i)


@settings(max_examples=60)
@given(small_gf5_vectors)
def test_reduce_kills_members_only(vectors):
    u = span(GF(5), 3, vectors)
    for row in u.basis:
        assert u.reduce(row) == (0, 0, 0)
    if u.dim < 3:
        outside = next(
            vec
            for s in iter_subspaces(GF(5), 3)
            if s.dim == 3
            for vec in s.basis
            if not u.contains(vec)
        )
        assert any(x != 0 for x in u.reduce(outside))
