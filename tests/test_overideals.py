"""`minimal_overideals` against the full sweep it replaced.

`minimal_overideals(A, base, inside)` takes as candidates the lines base + <v>
for the points v of (Ann(A/base) & inside)/base, which need no closure, and
the ideal closures of the points of (D & inside)/base, where D is the last
term of D_1 = A, D_{t+1} = A*D_t + D_t*A + base.  The full sweep below walks
every projective vector of A, skips those outside `inside` or inside `base`,
and closes base + v from scratch.  Both must return the same list, order
included, on every window tried here, and `minimal_overideals` must close
exactly the points of (D & inside)/base, with D computed here independently.
The structured families are mostly nilpotent, where D = base and only the
annihilator lines count; the seeded dense tables have D != base on almost
every window, so they exercise the closures.
"""
from __future__ import annotations

import functools
import random

import pytest

import nonassoc.enumeration
from nonassoc.algebra import (
    Algebra,
    check_identity,
    direct_sum,
    ideal_closure,
    is_ideal,
    subspace_product,
)
from nonassoc.corpus import builtin_fixtures, fixture_by_name, truncated_polynomial
from nonassoc.enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    iter_projective_vectors,
    minimal_overideals,
)
from nonassoc.errors import BudgetExceededError
from nonassoc.fields import GF
from nonassoc.linalg import subspace_intersect, subspace_sum
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


def _residual(A, base):
    """D_{t+1} = A*D_t + D_t*A + base from D_1 = A, until it repeats."""
    full, term = A.full_space(), A.full_space()
    while True:
        nxt = subspace_sum(
            subspace_sum(subspace_product(A, full, term), subspace_product(A, term, full)), base)
        if nxt == term:
            return term
        term = nxt


def _check(name, A, monkeypatch, windows=None):
    """Same list as the full sweep on each window, and one closure per point
    of (D & inside)/base; returns how many windows have D & inside > base."""
    closures = []

    def counted(*args, **kwargs):
        closures.append(args)
        return ideal_closure(*args, **kwargs)

    monkeypatch.setattr(nonassoc.enumeration, "ideal_closure", counted)
    q = A.field.order
    nonzero_residual = 0
    for base, inside in windows or _windows(A):
        assert is_ideal(A, base) and inside.contains_subspace(base)
        closures.clear()
        assert minimal_overideals(A, base, inside) == full_sweep_overideals(A, base, inside), (
            name, base, inside)
        k = subspace_intersect(_residual(A, base), inside).dim - base.dim
        assert len(closures) == (q**k - 1) // (q - 1), (name, base, inside)
        nonzero_residual += k > 0
    return nonzero_residual


@pytest.mark.parametrize("fx", [
    fx for fx in builtin_fixtures(validate=False) if fx.algebra.field.is_finite
], ids=lambda fx: fx.name)
def test_quotient_sweep_matches_full_sweep_on_fixtures(fx, monkeypatch):
    _check(fx.name, fx.algebra, monkeypatch)


def test_quotient_sweep_matches_full_sweep_on_larger_families(monkeypatch):
    for name, A in _families():
        _check(name, A, monkeypatch)


def _dense(seed):
    """A seeded table over F_2 or F_3 of dim 3 or 4, every constant uniform."""
    rng = random.Random(seed)
    p, n = rng.choice((2, 3)), rng.choice((3, 4))
    return Algebra(GF(p), n, [
        [[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(n)
    ])


def test_dense_tables_reach_the_residual_ideal(monkeypatch):
    """Windows (0, A), (0, A^2) and (A^3, A^2) of 600 dense tables, repeats
    and empty windows dropped; almost all of these tables are simple."""
    windows = nonzero_residual = 0
    for seed in range(600):
        A = _dense(seed)
        zero, full = A.zero_space(), A.full_space()
        _, square, cube = series_terms(A, SeriesKind.BRACKET_POWER, 3)
        found = []
        for w in ((zero, full), (zero, square), (cube, square)):
            if w[0] != w[1] and w not in found:
                found.append(w)
        windows += len(found)
        nonzero_residual += _check(f"dense seed {seed}", A, monkeypatch, found)
    assert windows >= 600 and nonzero_residual > 0.9 * windows, (windows, nonzero_residual)


def test_dense_sums_reach_the_residual_above_a_nonzero_base(monkeypatch):
    """Chief-series windows of a dense table summed with a line that squares
    to 0 or to itself, so that the base of some windows is nonzero."""
    windows = nonzero_residual = 0
    for seed in range(120):
        A = _dense(seed)
        line = Algebra(A.field, 1, [[[seed % 2]]])
        B = direct_sum(A, line) if seed % 4 < 2 else direct_sum(line, A)
        terms = chief_series(B).ideals
        found = list(zip(terms, terms[1:]))
        windows += len(found)
        nonzero_residual += _check(f"dense sum seed {seed}", B, monkeypatch, found)
    assert windows >= 240 and nonzero_residual > 0.6 * windows, (windows, nonzero_residual)


def test_chief_series_budget_is_charged_for_the_whole_space():
    A = fixture_by_name("tpoly3_f2").algebra
    _, square = series_terms(A, SeriesKind.BRACKET_POWER, 2)
    assert square.dim == 2  # one quotient point, yet all 8 vectors are charged
    with pytest.raises(BudgetExceededError) as info:
        chief_series(A, frm=square, budget=EnumerationBudget(max_vectors=7))
    assert str(info.value) == "8 vectors exceed the budget of 7"
