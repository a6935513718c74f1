"""Exhaustive enumeration over finite fields: vectors, subspaces, ideals,
maximal subalgebras, Frattini data, and enumeration-based radicals.

Everything here requires a finite field and respects explicit budgets;
operations that would blow past a budget fail loudly instead of degrading.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

from .algebra import (
    Algebra,
    annihilator,
    check_identity,
    ideal_closure,
    is_ideal,
    is_subalgebra,
    IdentityKind,
    subspace_product,
)
from .errors import BudgetExceededError, PreconditionError, UnsupportedOperationError
from .linalg import Echelon, Matrix, Subspace, kernel, span, subspace_intersect, zero_subspace
from .series import SeriesKind, bracket_terminates, chief_series, compute_series


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for exhaustive sweeps; exceeding one raises BudgetExceededError."""

    max_vectors: int = 10**7
    max_subspaces: int = 10**6

    def __post_init__(self):
        if self.max_vectors < 1 or self.max_subspaces < 1:
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = EnumerationBudget()


class RadicalKind(str, Enum):
    SOLVABLE = "solvable"
    NIL = "nil"
    RIGHT_NIL = "right-nil"
    LEFT_NIL = "left-nil"


# Identity classes for which sums of (one-sided) nilpotent ideals are again
# such ideals, making the nil-kind radicals well defined.
NATURAL_CLASSES = (
    IdentityKind.BICOMMUTATIVE,
    IdentityKind.ASSOSYMMETRIC,
    IdentityKind.NOVIKOV_LEFT,
    IdentityKind.NOVIKOV_RIGHT,
)


def _require_finite(field, what):
    if not field.is_finite:
        raise UnsupportedOperationError(f"{what} requires a finite field, not {field!r}")


def count_vectors(field, n: int) -> int:
    _require_finite(field, "vector enumeration")
    return field.order**n


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_subspaces(field, n: int, dim: int | None = None) -> int:
    _require_finite(field, "subspace enumeration")
    q = field.order
    if dim is not None:
        return gaussian_binomial(n, dim, q)
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _check_vector_budget(field, n, budget):
    total = count_vectors(field, n)
    if total > budget.max_vectors:
        raise BudgetExceededError(
            f"{total} vectors exceed the budget of {budget.max_vectors}"
        )
    return total


def iter_projective_vectors(field, n: int, budget: EnumerationBudget = DEFAULT_BUDGET):
    """One representative per line: first nonzero coordinate normalized to 1."""
    _check_vector_budget(field, n, budget)
    elements = tuple(field.elements())
    zero, one = field.zero, field.one
    for lead in range(n):
        head = (zero,) * lead + (one,)
        for tail in itertools.product(elements, repeat=n - lead - 1):
            yield head + tail


def iter_subspaces(
    field,
    n: int,
    dim: int | None = None,
    budget: EnumerationBudget = DEFAULT_BUDGET,
):
    """Canonical enumeration of subspaces of F_q^n via RREF pivot patterns.

    Ordered by dimension, then lexicographically by the RREF basis matrix;
    each basis comes out already in reduced row echelon form.
    """
    total = count_subspaces(field, n, dim)
    if total > budget.max_subspaces:
        raise BudgetExceededError(
            f"{total} subspaces exceed the budget of {budget.max_subspaces}"
        )
    elements = tuple(field.elements())
    zero, one = field.zero, field.one
    dims = range(n + 1) if dim is None else (dim,)
    for k in dims:
        if k == 0:
            yield zero_subspace(field, n)
            continue
        level = []
        for pivots in itertools.combinations(range(n), k):
            pivot_set = set(pivots)
            free = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivot_set
            ]
            for values in itertools.product(elements, repeat=len(free)):
                rows = [[zero] * n for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = one
                for (r, c), val in zip(free, values):
                    rows[r][c] = val
                level.append(
                    Subspace(field, n, tuple(tuple(r) for r in rows), tuple(pivots))
                )
        level.sort(key=lambda s: s.basis)
        yield from level


def _quotient_points(A: Algebra, base: Subspace, sub: Subspace, budget):
    """Projective points of sub/base (base <= sub), from the rows of sub off base."""
    field = A.field
    seeded = Echelon(field, A.dim)
    seeded.add_subspace(base)
    rows = [row for row in sub.basis if seeded.add(row)]
    zero, add, mul = field.zero, field.add, field.mul
    for point in iter_projective_vectors(field, len(rows), budget):
        v = [zero] * A.dim
        for coeff, row in zip(point, rows):
            if coeff != zero:
                v = [add(x, mul(coeff, r)) for x, r in zip(v, row)]
        yield v


def _residual_ideal(A: Algebra, base: Subspace) -> Subspace:
    """The last term of D_1 = A, D_{t+1} = A*D_t + D_t*A + base (descending)."""
    term = A.full_space()
    while True:
        ech = Echelon(A.field, A.dim)
        ech.add_subspace(base)
        for w in term.basis:
            for j in range(A.dim):
                ech.add(A.left_mul_basis(j, w))
                ech.add(A.right_mul_basis(w, j))
        if ech.dim == term.dim:
            return term
        term = ech.subspace()


def minimal_overideals(A: Algebra, base: Subspace, inside: Subspace, budget=DEFAULT_BUDGET):
    """Ideals C with base < C <= inside whose image in A/base is a minimal ideal.

    `base` must be an ideal (`minimal_ideals` passes 0, and `chief_series`
    starts from an ideal and adds only ideals).  Let B = A/base.  For an ideal
    I of B, BI + IB is an ideal inside I, so a minimal I has BI + IB = 0, and
    is a line of Ann(B), or BI + IB = I, and lies in the residual ideal D/base
    (`_residual_ideal`).  So the candidates are the lines base + <v> for the
    points v of (Ann & inside)/base, ideals already that take no closure, and
    the ideal closures of the points of (D & inside)/base.  Every minimal
    overideal is one of them, and every other candidate contains one of
    smaller dimension, which sorts first, so the filter keeps exactly the
    minimal ones.  Ann is one kernel.  The budget is still charged for all
    of F_q^n up front, whatever the window.  Returned in ascending (dim,
    basis) order; the first entry is the tie-break used by chief series.
    """
    _check_vector_budget(A.field, A.dim, budget)
    ann = subspace_intersect(annihilator(A, A.full_space(), modulo=base), inside)
    candidates = {}
    for v in _quotient_points(A, base, ann, budget):
        c = span(A.field, A.dim, [*base.basis, v])
        candidates[c.basis] = c
    for v in _quotient_points(A, base, subspace_intersect(_residual_ideal(A, base), inside), budget):
        c = ideal_closure(A, [v], ideal=base)
        if inside.contains_subspace(c):
            candidates[c.basis] = c
    items = sorted(candidates.values(), key=lambda s: s.sort_key())
    minimal = []
    for c in items:
        if not any(c.contains_subspace(m) for m in minimal):
            minimal.append(c)
    return minimal


def minimal_ideals(A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET):
    """All minimal nonzero ideals, canonically ordered."""
    _require_finite(A.field, "minimal ideal enumeration")
    if A.dim == 0:
        return []
    return minimal_overideals(A, A.zero_space(), A.full_space(), budget)


def socle(A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET) -> Subspace:
    """Sum of all minimal ideals."""
    return span(A.field, A.dim, [v for b in minimal_ideals(A, budget) for v in b.basis])


def zero_socle(A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET) -> Subspace:
    """Sum of the minimal ideals that square to zero."""
    zero = [b for b in minimal_ideals(A, budget) if subspace_product(A, b, b).is_zero()]
    return span(A.field, A.dim, [v for b in zero for v in b.basis])


def subalgebras(A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET):
    """All subalgebras, in canonical enumeration order."""
    return SubspaceLattice(A, budget).subalgebras()


def ideals(A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET):
    """All ideals, in canonical enumeration order."""
    return SubspaceLattice(A, budget).ideals()


def maximal_subalgebras(A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET):
    """Proper subalgebras maximal under inclusion, canonically ordered."""
    return SubspaceLattice(A, budget).maximal_subalgebras()


def ideal_core(A: Algebra, sub: Subspace) -> Subspace:
    """Largest ideal of A contained in the subspace `sub`."""
    current = sub
    while True:
        if current.is_zero():
            return current
        k = current.dim
        nonpivots = [c for c in range(A.dim) if c not in set(current.pivots)]
        rows = []
        for i in range(A.dim):
            left = [current.reduce(A.left_mul_basis(i, b)) for b in current.basis]
            right = [current.reduce(A.right_mul_basis(b, i)) for b in current.basis]
            for images in (left, right):
                for c in nonpivots:
                    rows.append([img[c] for img in images])
        coeffs = kernel(Matrix(A.field, rows, ncols=k))
        if coeffs.dim == k:
            return current
        # the columns of `combine` are the basis of `current`
        combine = Matrix(A.field, list(zip(*current.basis)))
        current = span(A.field, A.dim, [combine.apply(t) for t in coeffs.basis])


@dataclass(frozen=True)
class FrattiniData:
    """F(A): intersection of maximal subalgebras; phi(A): its ideal core."""

    subalgebra: Subspace
    ideal: Subspace


def frattini(A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET) -> FrattiniData:
    """Frattini subalgebra and Frattini ideal (the whole space when dim 0)."""
    return SubspaceLattice(A, budget).frattini()


def find_complement_subalgebra(A, sub, inside=None, budget=DEFAULT_BUDGET):
    """First subalgebra W in canonical order with W & sub = 0 and W + sub = inside.

    `inside` defaults to the whole algebra.  Returns None when the exhaustive
    search finds nothing.
    """
    return SubspaceLattice(A, budget).complement(sub, inside)


class SubspaceLattice:
    """The facts about an algebra over F_p that rest on its subspaces: the
    subalgebras, ideals, maximal subalgebras, Frattini data, minimal ideals
    and chief series.  `Analyzer`, fixture validation and the public
    functions above all take them from here.

    Each fact is computed on first need and kept.  One pass over the
    subspaces tests each for being a subalgebra.  The ideals are the
    subalgebras that are ideals (every ideal is a subalgebra), filtered only
    when asked for, so the maximal subalgebras and the Frattini data take no
    ideal test.  Every list keeps the canonical (dim, basis) order of
    `iter_subspaces`.

    Minimal ideals and the chief series have two routes.  When every
    subspace and every vector of F_q^n fits the budget, they are read off the
    ideal list.  Otherwise `minimal_ideals` and `series.chief_series` sweep
    vectors, which reaches algebras with too many subspaces to list.  Both
    routes give the same subspaces in the same order, and the list route is
    taken only where the sweep could not have been refused, so the choice
    never changes whether BudgetExceededError is raised.  The complement
    search takes its candidates by the same rule.
    """

    def __init__(self, A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET):
        self.algebra = A
        self.budget = budget

    @functools.cached_property
    def _subalgebras(self):
        A = self.algebra
        _require_finite(A.field, "subalgebra enumeration")
        subspaces = iter_subspaces(A.field, A.dim, budget=self.budget)
        return [s for s in subspaces if is_subalgebra(A, s)]

    @functools.cached_property
    def _ideals(self):
        _require_finite(self.algebra.field, "ideal enumeration")
        return [s for s in self._subalgebras if is_ideal(self.algebra, s)]

    def subalgebras(self):
        return list(self._subalgebras)

    def ideals(self):
        return list(self._ideals)

    @functools.cached_property
    def _listed(self):
        """Whether the lists serve minimal ideals, the chief series and the
        complement search."""
        A, budget = self.algebra, self.budget
        return (
            count_subspaces(A.field, A.dim) <= budget.max_subspaces
            and count_vectors(A.field, A.dim) <= budget.max_vectors
        )

    def minimal_ideals(self):
        """Nonzero ideals containing no smaller nonzero ideal."""
        if not self._listed:
            return minimal_ideals(self.algebra, self.budget)  # the module's sweep
        minimal = []
        for b in self._ideals:
            if b.dim and not any(b.contains_subspace(m) for m in minimal):
                minimal.append(b)
        return minimal

    def chief_series(self):
        """From 0 to A, each term the first ideal in canonical order strictly
        above the previous one, which is the first minimal such ideal."""
        if not self._listed:
            return list(chief_series(self.algebra, budget=self.budget).ideals)
        chain = [self._ideals[0]]
        for b in self._ideals:
            if b.dim > chain[-1].dim and b.contains_subspace(chain[-1]):
                chain.append(b)
        return chain

    @functools.cached_property
    def _maximal(self):
        proper = [s for s in self._subalgebras if s.dim < self.algebra.dim]
        maximal = []
        for s in sorted(proper, key=lambda s: -s.dim):
            if not any(m.contains_subspace(s) for m in maximal):
                maximal.append(s)
        maximal.sort(key=Subspace.sort_key)
        return maximal

    def maximal_subalgebras(self):
        return list(self._maximal)

    @functools.cached_property
    def _frattini(self):
        f = self.algebra.full_space()
        for m in self._maximal:
            if not m.contains_subspace(f):
                # the first intersection, with A itself, is m
                f = subspace_intersect(f, m) if f.dim < self.algebra.dim else m
        return FrattiniData(f, ideal_core(self.algebra, f))

    def frattini(self) -> FrattiniData:
        """The intersection of the maximal subalgebras and its ideal core."""
        return self._frattini

    def complement(self, sub: Subspace, inside: Subspace | None = None):
        """First subalgebra W in canonical order with W & sub = 0 and
        W + sub = inside (default the whole algebra), or None.  The search
        takes its candidates from the subalgebra list on the list route, and
        otherwise walks the subspaces of W's dimension, so that the budget
        counts only those."""
        A = self.algebra
        target = inside if inside is not None else A.full_space()
        if not target.contains_subspace(sub):
            raise PreconditionError("containment", "complement target must contain the subspace")
        k = target.dim - sub.dim
        if self._listed:
            candidates = (w for w in self._subalgebras if w.dim == k)
        else:
            candidates = iter_subspaces(A.field, A.dim, dim=k, budget=self.budget)
        for w in candidates:
            if (
                (inside is None or target.contains_subspace(w))
                and subspace_intersect(w, sub).is_zero()
                and (self._listed or is_subalgebra(A, w))  # listed ones are subalgebras
            ):
                return w
        return None


def _qualifies(A, closure, kind):
    if kind is RadicalKind.SOLVABLE:
        return compute_series(A, SeriesKind.DERIVED, start=closure).terminated
    if kind is RadicalKind.RIGHT_NIL:
        return compute_series(A, SeriesKind.RIGHT_POWER, start=closure).terminated
    if kind is RadicalKind.LEFT_NIL:
        return compute_series(A, SeriesKind.LEFT_POWER, start=closure).terminated
    return bracket_terminates(A, start=closure)[0]


def radical(A: Algebra, kind, budget: EnumerationBudget = DEFAULT_BUDGET) -> Subspace:
    """Largest solvable / nilpotent / one-sided-nilpotent ideal, by enumeration.

    Sums every single-generator ideal closure with the requested property;
    the accumulated sum of qualifying ideals keeps the property (standard sum
    arguments; the nil kinds additionally require a natural identity class,
    where products of ideals are ideals).
    """
    kind = RadicalKind(kind)
    _require_finite(A.field, "radical enumeration")
    if kind is not RadicalKind.SOLVABLE and not any(
        check_identity(A, c) for c in NATURAL_CLASSES
    ):
        raise PreconditionError(
            "natural identity class",
            f"the {kind.value} radical is only defined here for bicommutative, "
            "assosymmetric, or Novikov algebras (either orientation): sums of "
            "one-sided nilpotent ideals need products of ideals to be ideals",
        )
    _check_vector_budget(A.field, A.dim, budget)
    acc = Echelon(A.field, A.dim)
    for v in iter_projective_vectors(A.field, A.dim, budget):
        if acc.contains(v):
            continue
        closure = ideal_closure(A, [v])
        if _qualifies(A, closure, kind):
            acc.add_subspace(closure)
    return acc.subspace()


def is_semisimple(A: Algebra, budget: EnumerationBudget = DEFAULT_BUDGET) -> bool:
    """No nonzero solvable ideal."""
    return radical(A, RadicalKind.SOLVABLE, budget).is_zero()
