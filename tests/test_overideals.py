"""The quotient sweep of `minimal_overideals` against the full sweep it replaced.

`minimal_overideals(A, base, inside)` walks only the projective points of
inside/base and spins each on top of `base`.  The full sweep below walks
every projective vector of A, skips those outside `inside` or inside `base`,
and closes base + v from scratch.  Both must return the same list, order
included, on every window tried here.
"""
from __future__ import annotations

import functools
import random

import pytest

from nonassoc.algebra import Algebra, check_identity, direct_sum, ideal_closure, is_ideal
from nonassoc.corpus import builtin_fixtures, fixture_by_name, truncated_polynomial
from nonassoc.enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    iter_projective_vectors,
    minimal_overideals,
)
from nonassoc.errors import BudgetExceededError
from nonassoc.fields import GF
from nonassoc.series import SeriesKind, chief_series, series_terms


def full_sweep_overideals(A, base, inside, budget=DEFAULT_BUDGET):
    """The sweep over all of F_q^n, kept as the oracle."""
    candidates = {}
    for v in iter_projective_vectors(A.field, A.dim, budget):
        if not inside.contains_vector(v) or base.contains_vector(v):
            continue
        c = ideal_closure(A, list(base.basis) + [v])
        if inside.contains_subspace(c):
            candidates[c.basis] = c
    items = sorted(candidates.values(), key=lambda s: s.sort_key())
    minimal = []
    for c in items:
        if not any(c.contains_subspace(m) for m in minimal):
            minimal.append(c)
    return minimal


def _nilpotent(field, n, seed):
    """Seeded strictly upper-triangular table: e_i e_j in the span of e_k, k > max(i, j)."""
    rng = random.Random(seed)
    p = field.order
    return Algebra(field, n, [
        [[rng.randrange(1, p) if k > max(i, j) and rng.random() < 0.4 else 0 for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ])


def _direct_sum(field, n, seed):
    """A sum of bicommutative fixtures and copies of tpoly1, of dimension n."""
    rng = random.Random(seed)
    pieces = [truncated_polynomial(field, 1)] + [
        Algebra(field, fx.algebra.dim, fx.algebra.table)
        for fx in builtin_fixtures(validate=False)
        if fx.algebra.field == field and check_identity(fx.algebra, "bicommutative")
    ]
    out = []
    while sum(a.dim for a in out) < n:
        room = n - sum(a.dim for a in out)
        out.append(rng.choice([a for a in pieces if a.dim <= room]))
    return functools.reduce(direct_sum, out)


def _families():
    out = []
    for p, n in ((2, 5), (2, 6), (3, 5)):
        field = GF(p)
        out.append((f"tpoly{n}/F_{p}", truncated_polynomial(field, n)))
        out += [(f"nil{n}/F_{p} seed {s}", _nilpotent(field, n, s)) for s in (1, 2)]
        out.append((f"sum{n}/F_{p}", _direct_sum(field, n, n)))
    return out


def _windows(A):
    """(0, A), each consecutive pair of chief-series terms, (0, A^2) and (A^3, A^2)."""
    zero, full = A.zero_space(), A.full_space()
    terms = chief_series(A).ideals
    out = [(zero, full)] + list(zip(terms, terms[1:]))
    _, square, cube = series_terms(A, SeriesKind.BRACKET_POWER, 3)
    out += [(zero, square), (cube, square)]
    return out


def _check(name, A):
    for base, inside in _windows(A):
        assert is_ideal(A, base) and inside.contains_subspace(base)
        assert minimal_overideals(A, base, inside) == full_sweep_overideals(A, base, inside), (
            name, base, inside)


@pytest.mark.parametrize("fx", [
    fx for fx in builtin_fixtures(validate=False) if fx.algebra.field.is_finite
], ids=lambda fx: fx.name)
def test_quotient_sweep_matches_full_sweep_on_fixtures(fx):
    _check(fx.name, fx.algebra)


def test_quotient_sweep_matches_full_sweep_on_larger_families():
    for name, A in _families():
        _check(name, A)


def test_chief_series_budget_is_charged_for_the_whole_space():
    A = fixture_by_name("tpoly3_f2").algebra
    _, square = series_terms(A, SeriesKind.BRACKET_POWER, 2)
    assert square.dim == 2  # one quotient point, yet all 8 vectors are charged
    with pytest.raises(BudgetExceededError) as info:
        chief_series(A, frm=square, budget=EnumerationBudget(max_vectors=7))
    assert str(info.value) == "8 vectors exceed the budget of 7"
