"""The subspace lattice against oracles that do not share its code.

`SubspaceLattice` is the one source of the facts over F_p that rest on
subspaces: ideals, subalgebras, minimal ideals, chief series, maximal
subalgebras and Frattini data.  The oracles here compute each fact another
way:
- ideals by testing every subspace for being an ideal, with no subalgebra
  pass first;
- subalgebras as the subspaces equal to their subalgebra closure;
- maximal subalgebras by filtering the oracle's subalgebras from the top;
- the Frattini subalgebra as the largest oracle subalgebra inside every
  maximal one, and the Frattini ideal as the largest oracle ideal inside it;
- minimal ideals and the chief series by the vector sweeps of
  `minimal_ideals` and `series.chief_series`, which the lattice reads off
  its ideal list instead when the budget allows;
- the first complement by scanning the oracle's subalgebras, against the
  lattice's search on both routes: over its subalgebra list, and, under a
  budget no vector sweep fits, over the subspaces of the complement's
  dimension.

On both F_2 pools of the soundness gate, on every finite fixture and on
seeded F_3 pool members every fact must be equal, order included.

The comparison over the whole F_3 pool (59,847 members) is too slow for the
default run; run it with
    PYTHONPATH=src python tests/test_lattice.py
"""
from __future__ import annotations

import sys

import pytest

from nonassoc import analyzer
from nonassoc.algebra import is_ideal, subalgebra_closure, subspace_product
from nonassoc.corpus import builtin_fixtures
from nonassoc.enumeration import (
    EnumerationBudget,
    FrattiniData,
    SubspaceLattice,
    iter_subspaces,
    minimal_ideals,
)
from nonassoc.linalg import Echelon, Subspace, subspace_intersect
from nonassoc.series import chief_series

from conftest import f3_members, pool_members

F3_SAMPLE = 300
F3_SEED = 20261019


def _oracle_lists(A):
    """Subalgebras and ideals of A, each from its own test of every subspace."""
    subspaces = list(iter_subspaces(A.field, A.dim))
    subs = [s for s in subspaces if subalgebra_closure(A, s.basis) == s]
    return subs, [s for s in subspaces if is_ideal(A, s)]


def _oracle_maximal(A, subs):
    proper = sorted((s for s in subs if s.dim < A.dim), key=lambda s: (-s.dim, s.basis))
    maximal = []
    for s in proper:
        if not any(m.contains_subspace(s) for m in maximal):
            maximal.append(s)
    return sorted(maximal, key=Subspace.sort_key)


def _oracle_frattini(subs, ideal_list, maximal):
    """The largest listed subalgebra inside every maximal one, and the largest
    listed ideal inside that: each is unique, so the first from the top."""
    sub = next(s for s in reversed(subs) if all(m.contains_subspace(s) for m in maximal))
    ideal = next(b for b in reversed(ideal_list) if sub.contains_subspace(b))
    return FrattiniData(sub, ideal)


def _oracle_complement(A, subs, sub, inside):
    """First listed subalgebra W with W & sub = 0 and W + sub = inside."""
    target = inside if inside is not None else A.full_space()
    k = target.dim - sub.dim
    for w in subs:
        if w.dim == k and target.contains_subspace(w) and subspace_intersect(w, sub).is_zero():
            return w
    return None


def lattice_mismatches(A):
    """Names of the facts where the lattice and the oracles disagree."""
    lattice = SubspaceLattice(A)
    subs, ideal_list = _oracle_lists(A)
    minimal = minimal_ideals(A)
    maximal = _oracle_maximal(A, subs)
    bad = [
        name
        for name, fast, slow in (
            ("ideals", lattice.ideals(), ideal_list),
            ("subalgebras", lattice.subalgebras(), subs),
            ("minimal_ideals", lattice.minimal_ideals(), minimal),
            ("chief_series", lattice.chief_series(), list(chief_series(A).ideals)),
            ("maximal_subalgebras", lattice.maximal_subalgebras(), maximal),
            ("frattini", lattice.frattini(), _oracle_frattini(subs, ideal_list, maximal)),
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
    searched = SubspaceLattice(A, EnumerationBudget(max_vectors=1))
    for sub, inside in pairs:
        expected = _oracle_complement(A, subs, sub, inside)
        if lattice.complement(sub, inside) != expected:
            bad.append(f"complement of {sub} inside {inside}")
        if searched.complement(sub, inside) != expected:
            bad.append(f"searched complement of {sub} inside {inside}")
    return bad


def _finite_fixtures():
    return [fx for fx in builtin_fixtures(validate=False) if fx.algebra.field.is_finite]


@pytest.mark.parametrize("spec", [(2, 2, None), (2, 3, 4)])
def test_lattice_matches_enumerators_on_f2_pools(spec):
    members = pool_members(*spec)
    assert len(members) == {(2, 2, None): 178, (2, 3, 4): 5654}[spec]
    for A in members:
        assert lattice_mismatches(A) == [], A.table


def test_lattice_matches_enumerators_on_fixtures_and_f3_members():
    for fx in _finite_fixtures():
        assert lattice_mismatches(fx.algebra) == [], fx.name
    for A in f3_members(F3_SAMPLE, F3_SEED):
        assert lattice_mismatches(A) == [], A.table


def test_lattice_is_built_once_and_shared_with_the_mirror():
    A = f3_members(1, F3_SEED)[0]
    z = analyzer.Analyzer(A)
    assert isinstance(z.fp_facts(), SubspaceLattice)
    assert z.mirrored().fp_facts() is z.fp_facts()


def _full_f3_pool_comparison():
    members = pool_members(3, 3, 4)
    bad = [(A.table, lattice_mismatches(A)) for A in members]
    bad = [entry for entry in bad if entry[1]]
    print(f"F_3 pool: {len(members)} members, {len(bad)} with a mismatch")
    for table, names in bad[:10]:
        print(table, names)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_full_f3_pool_comparison())
