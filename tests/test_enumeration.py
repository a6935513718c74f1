"""Exhaustive lattice walks: subalgebras, ideals, radicals, Frattini data."""
from __future__ import annotations

import pytest

from nonassoc.corpus import fixture_by_name
from nonassoc.enumeration import (
    EnumerationBudget,
    RadicalKind,
    count_subspaces,
    count_vectors,
    find_complement_subalgebra,
    frattini,
    gaussian_binomial,
    ideal_core,
    ideals,
    is_semisimple,
    iter_projective_vectors,
    iter_subspaces,
    maximal_subalgebras,
    minimal_ideals,
    radical,
    socle,
    subalgebras,
    zero_socle,
)
from nonassoc.errors import BudgetExceededError, UnsupportedOperationError
from nonassoc.fields import GF, QQ
from nonassoc.linalg import span

from conftest import make


def bases(subspaces):
    return sorted(s.basis for s in subspaces)


def test_counting_helpers():
    assert count_vectors(GF(2), 4) == 16
    assert count_vectors(GF(3), 3) == 27
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert count_subspaces(GF(2), 3) == 16
    assert count_subspaces(GF(2), 3, dim=1) == 7
    with pytest.raises(UnsupportedOperationError):
        count_vectors(QQ, 2)


def test_iter_projective_vectors():
    proj = list(iter_projective_vectors(GF(3), 2))
    assert len(proj) == 4
    assert all(v[next(i for i, x in enumerate(v) if x)] == 1 for v in proj)


def test_budget_enforcement():
    small = EnumerationBudget(max_vectors=5, max_subspaces=3)
    with pytest.raises(BudgetExceededError) as err:
        list(iter_projective_vectors(GF(2), 3, budget=small))
    assert "exceed" in str(err.value)
    with pytest.raises(BudgetExceededError):
        list(iter_subspaces(GF(2), 3, budget=small))
    with pytest.raises(ValueError):
        EnumerationBudget(max_vectors=0)


def test_finite_field_required():
    tp3q = fixture_by_name("tpoly3_q").algebra
    cases = [
        (minimal_ideals, "minimal ideal enumeration"),
        (maximal_subalgebras, "subalgebra enumeration"),
        (subalgebras, "subalgebra enumeration"),
        (ideals, "ideal enumeration"),
        (frattini, "subalgebra enumeration"),
        (lambda A: find_complement_subalgebra(A, A.zero_space()), "subspace enumeration"),
    ]
    for op, what in cases:
        with pytest.raises(UnsupportedOperationError) as err:
            op(tp3q)
        assert str(err.value) == f"{what} requires a finite field, not {QQ!r}"
    with pytest.raises(UnsupportedOperationError):
        radical(tp3q, RadicalKind.SOLVABLE)


def test_subalgebras_and_ideals_of_a_ex():
    A = fixture_by_name("a_ex_f2").algebra
    subs = list(subalgebras(A))
    assert bases(subs) == [
        (),
        ((0, 1),),
        ((1, 0),),
        ((1, 0), (0, 1)),
        ((1, 1),),
    ]
    assert bases(s for s in subs if s.dim < A.dim) == bases(subs)[:3] + [((1, 1),)]
    ids = list(ideals(A))
    assert bases(ids) == [(), ((1, 0),), ((1, 0), (0, 1))]


def test_minimal_ideals_and_socles():
    A = fixture_by_name("a_ex_f2").algebra
    assert bases(minimal_ideals(A)) == [((1, 0),)]
    assert socle(A) == span(GF(2), 2, [(1, 0)])
    assert zero_socle(A).is_zero()

    a_nov = fixture_by_name("a_nov_f2").algebra
    assert bases(minimal_ideals(a_nov)) == [((1, 0),)]
    assert zero_socle(a_nov) == span(GF(2), 2, [(1, 0)])

    zero3 = fixture_by_name("zero3_f2").algebra
    assert len(minimal_ideals(zero3)) == 7
    assert zero_socle(zero3) == zero3.full_space()


def test_maximal_subalgebras_and_frattini():
    tp3 = fixture_by_name("tpoly3_f2").algebra
    maxes = maximal_subalgebras(tp3)
    assert bases(maxes) == [((0, 1, 0), (0, 0, 1))]
    data = frattini(tp3)
    assert data.subalgebra == span(GF(2), 3, [(0, 1, 0), (0, 0, 1)])
    assert data.ideal == data.subalgebra

    A = fixture_by_name("a_ex_f2").algebra
    assert bases(maximal_subalgebras(A)) == [((0, 1),), ((1, 0),), ((1, 1),)]
    data2 = frattini(A)
    assert data2.subalgebra.is_zero() and data2.ideal.is_zero()


def test_frattini_ideal_can_be_smaller_than_subalgebra():
    # Frattini subalgebra span{w} of this table is already an ideal; contrast
    # with ideal_core trimming a non-ideal input.
    A = make(GF(2), 3, {(0, 1): {0: 1}, (2, 2): {0: 1}})
    data = frattini(A)
    assert data.subalgebra == span(GF(2), 3, [(1, 0, 0)])
    assert data.ideal == data.subalgebra
    line_t = span(GF(2), 3, [(0, 0, 1)])
    assert ideal_core(A, line_t).is_zero()


def test_radicals_on_fixtures():
    A = fixture_by_name("a_ex_f2").algebra
    for kind in RadicalKind:
        assert radical(A, kind).is_zero()

    tp3 = fixture_by_name("tpoly3_f2").algebra
    for kind in RadicalKind:
        assert radical(tp3, kind) == tp3.full_space()

    shift = fixture_by_name("shift_f3").algebra
    line_u = span(GF(3), 2, [(1, 0)])
    assert radical(shift, RadicalKind.SOLVABLE) == shift.full_space()
    assert radical(shift, RadicalKind.NIL) == line_u
    assert radical(shift, RadicalKind.RIGHT_NIL) == line_u
    assert radical(shift, RadicalKind.LEFT_NIL) == shift.full_space()

    a_nov = fixture_by_name("a_nov_f2").algebra
    line_a = span(GF(2), 2, [(1, 0)])
    for kind in RadicalKind:
        assert radical(a_nov, kind) == line_a


def test_radical_accepts_string_kind():
    A = fixture_by_name("a_ex_f2").algebra
    assert radical(A, "solvable").is_zero()
    with pytest.raises(ValueError):
        radical(A, "left-handed")


def test_radical_is_an_ideal_containing_all_qualifying_ideals():
    shift = fixture_by_name("shift_f3").algebra
    from nonassoc.algebra import is_ideal
    from nonassoc.series import nilpotency_profile

    nil_rad = radical(shift, RadicalKind.NIL)
    assert is_ideal(shift, nil_rad)
    assert nilpotency_profile(shift, start=nil_rad).nilpotent
    for ideal in ideals(shift):
        if nilpotency_profile(shift, start=ideal).nilpotent:
            assert nil_rad.contains(ideal)


def test_is_semisimple():
    assert is_semisimple(fixture_by_name("a_ex_f2").algebra)
    assert is_semisimple(fixture_by_name("a_ex_f5").algebra)
    assert not is_semisimple(fixture_by_name("tpoly3_f2").algebra)
    assert not is_semisimple(fixture_by_name("a_nov_f2").algebra)
    assert not is_semisimple(fixture_by_name("zero2_f2").algebra)


def test_iter_subspaces_respects_dim_argument():
    lines = list(iter_subspaces(GF(2), 3, dim=1))
    assert len(lines) == 7
    assert all(s.dim == 1 for s in lines)
    planes = list(iter_subspaces(GF(2), 3, dim=2))
    assert [s.dim for s in planes] == [2] * 7
