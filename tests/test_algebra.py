"""Structure-constant algebras: products, identities, subspace operations."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.algebra import (
    Algebra,
    IdentityKind,
    annihilator,
    check_identity,
    direct_sum,
    first_identity_failure,
    fitting_component,
    idealizer,
    ideal_closure,
    is_ideal,
    is_left_ideal,
    is_right_nil,
    is_subalgebra,
    opposite,
    quotient,
    restrict,
    subalgebra_closure,
    subspace_product,
)
from nonassoc.corpus import fixture_by_name
from nonassoc.errors import PreconditionError, UsageError
from nonassoc.fields import GF
from nonassoc.linalg import span

from conftest import make


def a_ex(field):
    # x*x = x, x*y = x, y*x = 0, y*y = 0.
    return make(field, 2, {(0, 0): {0: 1}, (0, 1): {0: 1}}, labels=("x", "y"))


def test_table_validation():
    with pytest.raises(UsageError):
        Algebra(GF(2), 2, [[(1, 0)]])
    with pytest.raises(UsageError):
        Algebra(GF(2), 1, [[(1, 1)]])
    with pytest.raises(UsageError):
        Algebra(GF(2), 2, [[(0, 0), (0, 0)], [(0, 0), (0, 0)]], labels=("a",))
    with pytest.raises(UsageError):
        Algebra(GF(2), 2, [[(0, 0), (0, 0)], [(0, 0), (0, 0)]], labels=("a", "a"))


def test_from_products_and_multiply():
    A = a_ex(GF(3))
    x, y = A.basis_vector(0), A.basis_vector(1)
    assert A.multiply(x, x) == (1, 0)
    assert A.multiply(x, y) == (1, 0)
    assert A.multiply(y, x) == (0, 0)
    assert A.multiply((1, 2), (1, 1)) == (2, 0)


def test_from_products_rejects_bad_indices():
    with pytest.raises(UsageError):
        make(GF(2), 2, {(0, 2): {0: 1}})
    with pytest.raises(UsageError):
        make(GF(2), 2, {(0, 0): {5: 1}})


def test_identities_on_known_tables():
    A = a_ex(GF(2))
    assert check_identity(A, IdentityKind.BICOMMUTATIVE)
    assert check_identity(A, IdentityKind.RIGHT_COMMUTATIVE)
    assert check_identity(A, IdentityKind.LEFT_COMMUTATIVE)
    assert not check_identity(A, IdentityKind.COMMUTATIVE)
    assert not check_identity(A, IdentityKind.ASSOCIATIVE)
    assert not check_identity(A, IdentityKind.ASSOSYMMETRIC)
    assert not check_identity(A, IdentityKind.NOVIKOV_LEFT)

    tp3 = fixture_by_name("tpoly3_f2").algebra
    for kind in IdentityKind:
        assert check_identity(tp3, kind)

    a_nov = fixture_by_name("a_nov_f2").algebra
    assert check_identity(a_nov, IdentityKind.NOVIKOV_LEFT)
    assert not check_identity(a_nov, IdentityKind.LEFT_COMMUTATIVE)


def test_identity_accepts_string_kind():
    A = a_ex(GF(2))
    assert check_identity(A, "bicommutative")
    with pytest.raises(ValueError):
        check_identity(A, "no-such-identity")


def test_first_identity_failure_is_a_real_witness():
    A = a_ex(GF(3))
    failure = first_identity_failure(A, IdentityKind.COMMUTATIVE)
    assert failure is not None
    component, indices, lhs, rhs = failure
    assert component is IdentityKind.COMMUTATIVE
    assert lhs != rhs
    a, b = indices
    assert A.multiply(A.basis_vector(a), A.basis_vector(b)) == lhs
    assert A.multiply(A.basis_vector(b), A.basis_vector(a)) == rhs
    assert first_identity_failure(A, IdentityKind.BICOMMUTATIVE) is None


def test_opposite_swaps_one_sided_identities():
    for name in ["a_ex_f2", "a_nov_f2", "shift_f3", "tpoly3_f2"]:
        A = fixture_by_name(name).algebra
        op = opposite(A)
        assert check_identity(A, IdentityKind.RIGHT_COMMUTATIVE) == check_identity(
            op, IdentityKind.LEFT_COMMUTATIVE
        )
        assert check_identity(A, IdentityKind.NOVIKOV_LEFT) == check_identity(
            op, IdentityKind.NOVIKOV_RIGHT
        )
        assert opposite(op) == A


def test_subspace_product_and_predicates():
    A = a_ex(GF(2))
    full = A.full_space()
    sq = subspace_product(A, full, full)
    assert sq == span(GF(2), 2, [(1, 0)])
    assert is_subalgebra(A, sq)
    assert is_ideal(A, sq)
    line_y = span(GF(2), 2, [(0, 1)])
    assert is_subalgebra(A, line_y)
    assert not is_ideal(A, line_y)
    assert is_left_ideal(A, line_y) == subspace_product(A, full, line_y).is_zero()


def test_closures():
    tp3 = fixture_by_name("tpoly3_f2").algebra
    t = tp3.basis_vector(0)
    assert subalgebra_closure(tp3, [t]) == tp3.full_space()
    # t^2 * t^2 = t^4 = 0 in the length-3 truncation, so t^2 closes on itself.
    t2 = tp3.basis_vector(1)
    assert subalgebra_closure(tp3, [t2]) == span(GF(2), 3, [(0, 1, 0)])
    A = a_ex(GF(2))
    assert ideal_closure(A, [A.basis_vector(1)]) == A.full_space()
    assert ideal_closure(A, [A.basis_vector(0)]) == span(GF(2), 2, [(1, 0)])
    # seeded with the ideal span{t^3}, which the closure contains and does not spin
    cube = span(GF(2), 3, [(0, 0, 1)])
    assert ideal_closure(tp3, [], ideal=cube) == cube
    assert ideal_closure(tp3, [t2], ideal=cube) == span(GF(2), 3, [(0, 1, 0), (0, 0, 1)])
    assert ideal_closure(tp3, [t], ideal=cube) == tp3.full_space()


def test_idealizer_and_annihilator():
    A = a_ex(GF(2))
    line_x = span(GF(2), 2, [(1, 0)])
    assert idealizer(A, line_x) == A.full_space()
    assert annihilator(A, line_x).is_zero()
    assert annihilator(A, A.zero_space()) == A.full_space()
    a_nov = fixture_by_name("a_nov_f2").algebra
    line_a = span(GF(2), 2, [(1, 0)])
    assert annihilator(a_nov, line_a) == line_a


def test_quotient_of_truncated_polynomials():
    tp3 = fixture_by_name("tpoly3_f2").algebra
    cube = span(GF(2), 3, [(0, 0, 1)])
    Q, proj = quotient(tp3, cube)
    assert Q.dim == 2
    # t * t = t^2 survives, t * t^2 dies: the quotient is the length-2 truncation.
    assert Q.multiply(Q.basis_vector(0), Q.basis_vector(0)) == (0, 1)
    assert Q.multiply(Q.basis_vector(0), Q.basis_vector(1)) == (0, 0)
    assert proj.apply((0, 0, 1)) == (0, 0)
    assert proj.apply((1, 0, 0)) == (1, 0)
    with pytest.raises(PreconditionError):
        quotient(tp3, span(GF(2), 3, [(1, 0, 0)]))


def test_restrict_to_subalgebra():
    tp3 = fixture_by_name("tpoly3_f2").algebra
    tail = span(GF(2), 3, [(0, 1, 0), (0, 0, 1)])
    B, rows = restrict(tp3, tail)
    assert B.dim == 2
    assert rows == tail.basis
    # t^2 * t^2 = t^4 = 0 in the length-3 truncation.
    assert B.multiply(B.basis_vector(0), B.basis_vector(0)) == (0, 0)
    with pytest.raises(PreconditionError):
        restrict(tp3, span(GF(2), 3, [(1, 0, 0)]))


def test_fitting_component():
    A = make(GF(2), 3, {(0, 0): {1: 1}, (2, 0): {2: 1}, (0, 1): {2: 1}})
    e1 = A.basis_vector(0)
    comp = fitting_component(A, e1, "right")
    assert comp == span(GF(2), 3, [(1, 0, 0), (0, 1, 0)])
    assert not is_subalgebra(A, comp)
    with pytest.raises(UsageError):
        fitting_component(A, e1, "sideways")


def test_nil_elements():
    shift = fixture_by_name("shift_f3").algebra
    u, v = shift.basis_vector(0), shift.basis_vector(1)
    assert is_right_nil(shift, u)
    assert is_right_nil(shift, v)
    A = a_ex(GF(2))
    assert not is_right_nil(A, A.basis_vector(0))


def test_nested_direct_sums_keep_labels_distinct():
    A = fixture_by_name("a_ex_f2").algebra
    assert direct_sum(A, A).labels == ("x'", "y'", "x''", "y''")
    for nested in (direct_sum(direct_sum(A, A), A), direct_sum(A, direct_sum(A, A))):
        assert nested.dim == 6 and len(set(nested.labels)) == 6
    fourfold = direct_sum(direct_sum(A, A), direct_sum(A, A))
    assert len(set(fourfold.labels)) == 8


def test_algebra_equality_and_hash():
    A = a_ex(GF(2))
    B = make(GF(2), 2, {(0, 0): {0: 1}, (0, 1): {0: 1}}, labels=("x", "y"))
    unlabeled = make(GF(2), 2, {(0, 0): {0: 1}, (0, 1): {0: 1}})
    assert A == B
    assert A != unlabeled
    assert hash(A) == hash(unlabeled)


coeff3 = st.integers(min_value=0, max_value=2)
vec3 = st.tuples(coeff3, coeff3, coeff3)
table3 = st.lists(st.lists(vec3, min_size=3, max_size=3), min_size=3, max_size=3)


@settings(max_examples=40)
@given(table3, vec3, vec3, vec3)
def test_multiply_is_bilinear(table, u, v, w):
    A = Algebra(GF(3), 3, table)
    f = GF(3)
    plus = lambda a, b: tuple(f.add(x, y) for x, y in zip(a, b))
    assert A.multiply(plus(u, v), w) == plus(A.multiply(u, w), A.multiply(v, w))
    assert A.multiply(u, plus(v, w)) == plus(A.multiply(u, v), A.multiply(u, w))
    doubled = tuple(f.mul(2, x) for x in u)
    assert A.multiply(doubled, w) == tuple(f.mul(2, x) for x in A.multiply(u, w))


@settings(max_examples=30)
@given(table3)
def test_identity_check_agrees_with_failure_witness(table):
    A = Algebra(GF(3), 3, table)
    for kind in [IdentityKind.RIGHT_COMMUTATIVE, IdentityKind.ASSOCIATIVE]:
        holds = check_identity(A, kind)
        witness = first_identity_failure(A, kind)
        assert holds == (witness is None)
        if witness is not None:
            assert witness[2] != witness[3]
