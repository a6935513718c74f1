"""Descending series, nilpotency profiles, chief series."""
from __future__ import annotations

import pytest

from nonassoc.corpus import fixture_by_name
from nonassoc.errors import UnsupportedOperationError
from nonassoc.fields import GF
from nonassoc.linalg import span
from nonassoc.series import (
    SeriesKind,
    chief_series,
    compute_series,
    nilpotency_profile,
    term_at,
)
from nonassoc.verify import bracket_power_oracle

from conftest import make


def dims(result):
    return [t.dim for t in result.terms]


def test_truncated_polynomial_series():
    tp4 = fixture_by_name("tpoly4_f2").algebra
    derived = compute_series(tp4, SeriesKind.DERIVED)
    assert dims(derived) == [4, 3, 1, 0]
    assert derived.terminated and derived.index == 4

    for kind in [SeriesKind.RIGHT_POWER, SeriesKind.LEFT_POWER, SeriesKind.BRACKET_POWER]:
        result = compute_series(tp4, kind)
        assert dims(result) == [4, 3, 2, 1, 0]
        assert result.terminated and result.index == 5
        assert result.stabilized_at is None


def test_shift_series_split_behavior():
    # u*v = u: left powers die, right powers stabilize on span{u}.
    shift = fixture_by_name("shift_f3").algebra
    right = compute_series(shift, SeriesKind.RIGHT_POWER)
    assert dims(right) == [2, 1, 1]
    assert not right.terminated
    assert right.stabilized_at == 2
    assert right.index is None

    left = compute_series(shift, SeriesKind.LEFT_POWER)
    assert dims(left) == [2, 1, 0]
    assert left.terminated

    assert dims(compute_series(shift, SeriesKind.DERIVED)) == [2, 1, 0]
    bracket = compute_series(shift, SeriesKind.BRACKET_POWER)
    assert dims(bracket) == [2, 1, 1]


def test_series_accepts_string_kind():
    tp2 = fixture_by_name("tpoly2_f2").algebra
    assert dims(compute_series(tp2, "derived")) == [2, 1, 0]
    with pytest.raises(ValueError):
        compute_series(tp2, "sideways-power")


def test_term_at_extends_past_stabilization():
    shift = fixture_by_name("shift_f3").algebra
    right = compute_series(shift, SeriesKind.RIGHT_POWER)
    line_u = span(GF(3), 2, [(1, 0)])
    assert term_at(shift, right, 2) == line_u
    assert term_at(shift, right, 9) == line_u
    tp4 = fixture_by_name("tpoly4_f2").algebra
    rp = compute_series(tp4, SeriesKind.RIGHT_POWER)
    assert term_at(tp4, rp, 40).is_zero()
    assert term_at(tp4, rp, 1) == tp4.full_space()


def test_profiles_on_fixtures():
    prof_tp = nilpotency_profile(fixture_by_name("tpoly4_f2").algebra)
    assert prof_tp.nilpotent and prof_tp.weakly_nilpotent and prof_tp.solvable
    assert prof_tp.nilpotent_index == 5
    assert prof_tp.right_index == 5 and prof_tp.left_index == 5

    prof_aex = nilpotency_profile(fixture_by_name("a_ex_f2").algebra)
    assert not prof_aex.solvable
    assert not prof_aex.right_nilpotent
    assert not prof_aex.nilpotent

    prof_shift = nilpotency_profile(fixture_by_name("shift_f3").algebra)
    assert prof_shift.solvable and prof_shift.left_nilpotent
    assert not prof_shift.right_nilpotent
    assert not prof_shift.weakly_nilpotent
    assert not prof_shift.nilpotent
    assert prof_shift.solvable_index == 3 and prof_shift.left_index == 3


def test_weakly_nilpotent_need_not_be_nilpotent():
    # Both one-sided power series die but the bracket series stabilizes
    # on a nonzero subspace: weak nilpotency is strictly weaker in general.
    A = make(GF(2), 4, {(2, 2): {1: 1}, (0, 1): {3: 1}, (3, 2): {1: 1}})
    prof = nilpotency_profile(A)
    assert prof.right_nilpotent and prof.left_nilpotent
    assert prof.weakly_nilpotent
    assert not prof.nilpotent
    bracket = compute_series(A, SeriesKind.BRACKET_POWER)
    assert not bracket.terminated
    assert bracket.terms[-1] == span(GF(2), 4, [(0, 1, 0, 0), (0, 0, 0, 1)])


def test_profile_of_a_subspace():
    # The square of this solvable algebra is not nilpotent as a sub-series start.
    A = make(GF(2), 3, {(2, 2): {1: 1}, (0, 1): {0: 1}})
    prof = nilpotency_profile(A)
    assert prof.solvable
    square = span(GF(2), 3, [(1, 0, 0), (0, 1, 0)])
    sub_prof = nilpotency_profile(A, start=square)
    assert not sub_prof.nilpotent
    assert sub_prof.solvable


def test_chief_series_values():
    tp3 = fixture_by_name("tpoly3_f2").algebra
    cs = chief_series(tp3)
    assert [i.dim for i in cs.ideals] == [0, 1, 2, 3]
    assert cs.factor_dims == (1, 1, 1)
    assert cs.ideals[1] == span(GF(2), 3, [(0, 0, 1)])

    a_ex = fixture_by_name("a_ex_f2").algebra
    cs2 = chief_series(a_ex)
    assert [i.dim for i in cs2.ideals] == [0, 1, 2]
    assert cs2.ideals[1] == span(GF(2), 2, [(1, 0)])


def test_chief_series_window():
    tp3 = fixture_by_name("tpoly3_f2").algebra
    cube = span(GF(2), 3, [(0, 0, 1)])
    cs = chief_series(tp3, frm=cube)
    assert cs.ideals[0] == cube
    assert [i.dim for i in cs.ideals] == [1, 2, 3]


def test_chief_series_needs_finite_field():
    tp3q = fixture_by_name("tpoly3_q").algebra
    with pytest.raises(UnsupportedOperationError):
        chief_series(tp3q)


def test_bracket_power_oracle_matches_series():
    for name in ["tpoly4_f2", "a_ex_f3", "shift_f3", "a_nov_f2"]:
        A = fixture_by_name(name).algebra
        result = compute_series(A, SeriesKind.BRACKET_POWER)
        for n in range(1, 7):
            assert bracket_power_oracle(A, n) == term_at(A, result, n), (name, n)
