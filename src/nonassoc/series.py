"""Descending series: derived, one-sided powers, bracket powers, chief series."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import Algebra, is_ideal, subspace_product
from .errors import PreconditionError, ToolkitError, UnsupportedOperationError, UsageError
from .linalg import Echelon, Subspace


class SeriesKind(str, Enum):
    DERIVED = "derived"
    RIGHT_POWER = "right-power"
    LEFT_POWER = "left-power"
    BRACKET_POWER = "bracket-power"


@dataclass(frozen=True)
class SeriesResult:
    kind: SeriesKind
    terms: tuple
    terminated: bool  # reached 0
    stabilized_at: int | None  # 1-based power index where a repeat first appeared
    index: int | None  # smallest k with k-th term (1-based) equal to 0


def _next_term(A, kind, terms):
    if kind is SeriesKind.DERIVED:
        prev = terms[-1]
        return subspace_product(A, prev, prev)
    if kind is SeriesKind.RIGHT_POWER:
        return subspace_product(A, terms[-1], terms[0])
    if kind is SeriesKind.LEFT_POWER:
        return subspace_product(A, terms[0], terms[-1])
    # bracket power: sum of all products of earlier terms with total weight n+1
    ech = Echelon(A.field, A.dim)
    n = len(terms)  # building power n+1, terms[i] = power i+1
    for i in range(n):
        ech.add_subspace(subspace_product(A, terms[i], terms[n - 1 - i]))
    return ech.subspace()


def series_terms(A: Algebra, kind, count: int, start: Subspace | None = None):
    """First `count` terms (1-based powers) with no stopping rule applied."""
    kind = SeriesKind(kind)
    first = start if start is not None else A.full_space()
    terms = [first]
    while len(terms) < count:
        terms.append(_next_term(A, kind, terms))
    return terms


def compute_series(A: Algebra, kind, start: Subspace | None = None) -> SeriesResult:
    """Descending series from A (or `start`); stops at 0 or at the first repeat."""
    kind = SeriesKind(kind)
    first = start if start is not None else A.full_space()
    terms = [first]
    terminated = first.is_zero()
    stabilized_at = None
    while not terminated:
        nxt = _next_term(A, kind, terms)
        terms.append(nxt)
        if nxt == terms[-2]:
            stabilized_at = len(terms) - 1
            break
        if nxt.is_zero():
            terminated = True
    index = len(terms) if terminated else None
    return SeriesResult(kind, tuple(terms), terminated, stabilized_at, index)


# Iteration guard for the bracket plateau argument; mathematically the loop
# ends after at most ~2^(dim+1) powers and in practice within a handful.
_BRACKET_CAP_FACTOR = 8


def bracket_terminates(A: Algebra, start: Subspace | None = None):
    """Sound test whether the bracket filtration reaches 0, with its terms.

    A repeat of consecutive terms does not by itself prove the filtration is
    constant (the recurrence uses all earlier terms), but constancy from power
    P through power 2P does: beyond 2P every summand collapses into
    A*W + W*A = W.  Returns (reaches_zero, terms_until_decided).
    """
    first = start if start is not None else A.full_space()
    terms = [first]
    if first.is_zero():
        return True, terms
    plateau_start = None  # 1-based power where the current plateau began
    cap = _BRACKET_CAP_FACTOR * (2 ** (A.dim + 1))
    while True:
        nxt = _next_term(A, SeriesKind.BRACKET_POWER, terms)
        terms.append(nxt)
        power = len(terms)
        if nxt.is_zero():
            return True, terms
        if nxt == terms[-2]:
            if plateau_start is None:
                plateau_start = power - 1
            if power >= 2 * plateau_start:
                return False, terms
        else:
            plateau_start = None
        if power > cap:
            raise ToolkitError("bracket filtration failed to settle; this should be unreachable")


@dataclass(frozen=True)
class NilpotencyProfile:
    solvable: bool
    right_nilpotent: bool
    left_nilpotent: bool
    weakly_nilpotent: bool
    nilpotent: bool
    solvable_index: int | None
    right_index: int | None
    left_index: int | None
    nilpotent_index: int | None


def nilpotency_profile(A: Algebra, start: Subspace | None = None) -> NilpotencyProfile:
    """Solvability/nilpotency flags of A (or of the subspace `start`, with products in A)."""
    derived = compute_series(A, SeriesKind.DERIVED, start)
    right = compute_series(A, SeriesKind.RIGHT_POWER, start)
    left = compute_series(A, SeriesKind.LEFT_POWER, start)
    reaches_zero, bracket_terms = bracket_terminates(A, start)
    nil_index = None
    if reaches_zero:
        nil_index = next(i + 1 for i, t in enumerate(bracket_terms) if t.is_zero())
    return NilpotencyProfile(
        solvable=derived.terminated,
        right_nilpotent=right.terminated,
        left_nilpotent=left.terminated,
        weakly_nilpotent=right.terminated and left.terminated,
        nilpotent=reaches_zero,
        solvable_index=derived.index,
        right_index=right.index,
        left_index=left.index,
        nilpotent_index=nil_index,
    )


@dataclass(frozen=True)
class ChiefSeries:
    """Ideals frm = B_0 < B_1 < ... < B_r = to with each B_{i+1}/B_i a minimal ideal of A/B_i."""

    ideals: tuple

    @property
    def factor_dims(self):
        return tuple(
            self.ideals[i + 1].dim - self.ideals[i].dim for i in range(len(self.ideals) - 1)
        )


def chief_series(
    A: Algebra, frm: Subspace | None = None, to: Subspace | None = None, budget=None
) -> ChiefSeries:
    """Deterministic chief series between two ideals (defaults: 0 up to A),
    each step a sweep of vectors within `budget` (default DEFAULT_BUDGET)."""
    from .enumeration import DEFAULT_BUDGET, minimal_overideals  # local import to avoid a cycle

    if not A.field.is_finite:
        raise UnsupportedOperationError("chief series requires a finite field")
    frm = frm if frm is not None else A.zero_space()
    to = to if to is not None else A.full_space()
    if not is_ideal(A, frm) or not is_ideal(A, to):
        raise PreconditionError("ideal", "chief series endpoints must be ideals")
    if not to.contains_subspace(frm):
        raise UsageError("series start must lie inside its end")
    chain = [frm]
    while chain[-1] != to:
        step = minimal_overideals(A, chain[-1], to, budget or DEFAULT_BUDGET)
        if not step:
            raise ToolkitError("no minimal overideal found; this should be unreachable")
        chain.append(step[0])
    return ChiefSeries(tuple(chain))


def term_at(A: Algebra, result: SeriesResult, power: int) -> Subspace:
    """The series value at a 1-based power, extrapolating past the stopping point."""
    if power < 1:
        raise UsageError("powers are 1-based")
    if power <= len(result.terms):
        return result.terms[power - 1]
    if result.terminated:
        return A.zero_space()
    if result.kind is SeriesKind.BRACKET_POWER:
        return series_terms(A, result.kind, power)[power - 1]
    return result.terms[-1]
