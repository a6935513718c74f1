"""The subspace lattice against the per-fact enumerators it stands in for.

`verify_all` reads ideals, subalgebras, minimal ideals, chief series, maximal
subalgebras, Frattini data and first complements off one `SubspaceLattice`
for algebras over F_p within the enumeration budget.  The enumerators in
`enumeration` and `series` stay the oracle: on both F_2 pools of the
soundness gate, on every finite fixture and on seeded F_3 pool members,
every fact must be equal, order included.  Under tiny budgets, where the lattice is taken only at the
edge of what the budget allows, reports must equal those with it turned off.

The comparison over the whole F_3 pool (59,847 members) is too slow for the
default run; run it with
    PYTHONPATH=src python tests/test_lattice.py
"""
from __future__ import annotations

import functools
import random
import sys

import pytest

from nonassoc import analyzer
from nonassoc.algebra import Algebra, classify, subspace_product
from nonassoc.corpus import builtin_fixtures, exhaustive_algebras
from nonassoc.enumeration import (
    EnumerationBudget,
    SubspaceLattice,
    find_complement_subalgebra,
    frattini,
    ideals,
    maximal_subalgebras,
    minimal_ideals,
    subalgebras,
)
from nonassoc.fields import GF
from nonassoc.linalg import Echelon, subspace_intersect
from nonassoc.series import chief_series
from nonassoc.verify import verify_all

F3_SAMPLE = 300
F3_SEED = 20261019
TINY_BUDGETS = [
    EnumerationBudget(max_subspaces=s, max_vectors=v) for s in (2, 16) for v in (3, 8)
]


@functools.lru_cache(maxsize=None)
def _pool(prime, dim, sparsity):
    """Every table of the spec that satisfies at least one identity class."""
    return tuple(A for A in exhaustive_algebras(GF(prime), dim, sparsity) if classify(A))


def _f3_members(count, seed):
    """Seeded F_3 dimension-3 pool members: at most four nonzero constants."""
    rng = random.Random(seed)
    field = GF(3)
    slots = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    members = []
    while len(members) < count:
        table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for i, j, k in rng.sample(slots, rng.randint(0, 4)):
            table[i][j][k] = rng.randint(1, 2)
        A = Algebra(field, 3, table)
        if classify(A):
            members.append(A)
    return members


def lattice_mismatches(A):
    """Names of the facts where the lattice and the enumerators disagree."""
    lattice = SubspaceLattice(A)
    minimal = minimal_ideals(A)
    maximal = maximal_subalgebras(A)
    bad = [
        name
        for name, fast, slow in (
            ("ideals", lattice.ideals(), ideals(A)),
            ("subalgebras", lattice.subalgebras(), subalgebras(A)),
            ("minimal_ideals", lattice.minimal_ideals(), minimal),
            ("chief_series", lattice.chief_series(), list(chief_series(A).ideals)),
            ("maximal_subalgebras", lattice.maximal_subalgebras(), maximal),
            ("frattini", lattice.frattini(), frattini(A)),
        )
        if fast != slow
    ]
    zero_socle = Echelon(A.field, A.dim)
    for b in minimal:
        if subspace_product(A, b, b).is_zero():
            zero_socle.add_subspace(b)
    zero_socle = zero_socle.subspace()
    full = A.full_space()
    pairs = [(zero_socle, None), (subspace_product(A, full, full), None)]
    pairs += [(subspace_intersect(m, zero_socle), m) for m in maximal]
    for sub, inside in pairs:
        if lattice.first_complement(sub, inside) != find_complement_subalgebra(A, sub, inside):
            bad.append(f"complement of {sub} inside {inside}")
    return bad


def _finite_fixtures():
    return [fx for fx in builtin_fixtures(validate=False) if fx.algebra.field.is_finite]


@pytest.mark.parametrize("spec", [(2, 2, None), (2, 3, 4)])
def test_lattice_matches_enumerators_on_f2_pools(spec):
    members = _pool(*spec)
    assert len(members) == {(2, 2, None): 178, (2, 3, 4): 5654}[spec]
    for A in members:
        assert lattice_mismatches(A) == [], A.table


def test_lattice_matches_enumerators_on_fixtures_and_f3_members():
    for fx in _finite_fixtures():
        assert lattice_mismatches(fx.algebra) == [], fx.name
    for A in _f3_members(F3_SAMPLE, F3_SEED):
        assert lattice_mismatches(A) == [], A.table


def test_tiny_budgets_report_as_without_the_lattice(monkeypatch):
    cases = [(fx.algebra, fx.certified) for fx in builtin_fixtures(validate=False)]
    cases += [(A, None) for A in _pool(2, 2, None)[::6]]
    cases += [(A, None) for A in _pool(2, 3, 4)[::190]]
    cases += [(A, None) for A in _f3_members(30, F3_SEED + 1)]
    used = 0
    for budget in TINY_BUDGETS:
        for A, cert in cases:
            with_lattice = verify_all(A, certified=cert, budget=budget)
            if A.field.is_finite:
                used += isinstance(analyzer._fp_facts(A, budget), SubspaceLattice)
            monkeypatch.setattr(
                analyzer, "_fp_facts", lambda A, budget: analyzer._Enumerated(A, budget)
            )
            assert verify_all(A, certified=cert, budget=budget) == with_lattice, (A.table, budget)
            monkeypatch.undo()
    # the lattice is taken in some of these cases, at the edge of the budget
    assert used > 0


def test_lattice_is_built_once_and_shared_with_the_mirror():
    A = _f3_members(1, F3_SEED)[0]
    z = analyzer.Analyzer(A)
    assert isinstance(z.fp_facts(), SubspaceLattice)
    assert z.mirrored().fp_facts() is z.fp_facts()


def _full_f3_pool_comparison():
    members = _pool(3, 3, 4)
    bad = [(A.table, lattice_mismatches(A)) for A in members]
    bad = [entry for entry in bad if entry[1]]
    print(f"F_3 pool: {len(members)} members, {len(bad)} with a mismatch")
    for table, names in bad[:10]:
        print(table, names)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_full_f3_pool_comparison())
