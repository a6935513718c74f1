"""One provider of facts about an algebra, for the verifier and the builders.

An `Analyzer` caches what the structure checks and the decomposition
builders ask about one algebra: identity verdicts, products, nilpotency
profiles and the certifiable facts of `CERTIFIED_FACTS` (radicals, Frattini
data, ideal and subalgebra lists, chief series, complements).  Over F_p every
fact is computed: radicals by `radical`, and the rest by one
`SubspaceLattice` per algebra, shared with the mirrored view.  Over Q it is
read from a certificate, and every use is recorded in the current `assumed`
list.  A fact that cannot be had raises BudgetExceededError or
UnsupportedOperationError, whose message says why.
"""

import functools
import random
from dataclasses import dataclass

from .errors import BudgetExceededError, UnsupportedOperationError, UsageError
from .linalg import Subspace, span
from .algebra import IdentityKind, check_identity, opposite, subspace_product
from .series import nilpotency_profile
from .enumeration import (
    DEFAULT_BUDGET,
    RadicalKind,
    SubspaceLattice,
    iter_projective_vectors,
    radical as enumerate_radical,
)


_MIRROR_KIND = {
    IdentityKind.RIGHT_COMMUTATIVE: IdentityKind.LEFT_COMMUTATIVE,
    IdentityKind.LEFT_COMMUTATIVE: IdentityKind.RIGHT_COMMUTATIVE,
    IdentityKind.LEFT_SYMMETRIC: IdentityKind.RIGHT_SYMMETRIC,
    IdentityKind.RIGHT_SYMMETRIC: IdentityKind.LEFT_SYMMETRIC,
    IdentityKind.NOVIKOV_LEFT: IdentityKind.NOVIKOV_RIGHT,
    IdentityKind.NOVIKOV_RIGHT: IdentityKind.NOVIKOV_LEFT,
    IdentityKind.BICOMMUTATIVE: IdentityKind.BICOMMUTATIVE,
    IdentityKind.ASSOSYMMETRIC: IdentityKind.ASSOSYMMETRIC,
    IdentityKind.ASSOCIATIVE: IdentityKind.ASSOCIATIVE,
    IdentityKind.COMMUTATIVE: IdentityKind.COMMUTATIVE,
}

_SAMPLE_SEED = 0x5EED
_SAMPLE_COUNT = 24

# reversing all products swaps the two one-sided nilpotency notions
_MIRROR_RADICAL = {
    RadicalKind.SOLVABLE: RadicalKind.SOLVABLE,
    RadicalKind.NIL: RadicalKind.NIL,
    RadicalKind.RIGHT_NIL: RadicalKind.LEFT_NIL,
    RadicalKind.LEFT_NIL: RadicalKind.RIGHT_NIL,
}


def _radical_key(kind):
    """The certificate key of a radical, e.g. `radical_right_nil`."""
    return f"radical_{kind.name.lower()}"


@dataclass(frozen=True)
class _Fact:
    """A certifiable fact: one subspace or a list of them, the words reports
    use for it, and `compute(facts)` over F_p from a SubspaceLattice (None
    for facts that are only ever read from a certificate)."""

    single: bool
    what: str
    compute: object = None


# Every certifiable fact, by certificate key.  The verifier, fixture validation
# and the file format all read this table.  The radical lambdas look their
# enumerator up when called, so a module-level name rebound by a profiler or
# a test wrapper is the one that runs.
CERTIFIED_FACTS = {
    **{
        _radical_key(kind): _Fact(
            True,
            f"{kind.value} radical",
            lambda facts, kind=kind: enumerate_radical(facts.algebra, kind, facts.budget),
        )
        for kind in RadicalKind
    },
    "phi": _Fact(True, "Frattini ideal", lambda facts: facts.frattini().ideal),
    "frattini_subalgebra": _Fact(
        True, "Frattini subalgebra", lambda facts: facts.frattini().subalgebra
    ),
    "zero_socle_complement": _Fact(True, "complement to the zero socle"),
    "square_complement": _Fact(True, "complement to the square"),
    "semisimple_part": _Fact(True, "semisimple part of the complement"),
    "radical_complement": _Fact(True, "complement to the radical"),
    "maximal_subalgebras": _Fact(
        False, "maximal subalgebra list", lambda facts: facts.maximal_subalgebras()
    ),
    "minimal_ideals": _Fact(False, "minimal ideal list", lambda facts: facts.minimal_ideals()),
    "ideals": _Fact(False, "ideal list", lambda facts: facts.ideals()),
    "subalgebras": _Fact(False, "subalgebra list", lambda facts: facts.subalgebras()),
    "chief_series": _Fact(False, "chief series", lambda facts: facts.chief_series()),
    "simple_summands": _Fact(False, "simple summands"),
}
CERTIFIED_SUBSPACE_KEYS = tuple(key for key, fact in CERTIFIED_FACTS.items() if fact.single)
CERTIFIED_SUBSPACE_LIST_KEYS = tuple(
    key for key, fact in CERTIFIED_FACTS.items() if not fact.single
)
CERTIFIED_KEYS = ("identities",) + CERTIFIED_SUBSPACE_KEYS + CERTIFIED_SUBSPACE_LIST_KEYS


def _coerce_subspace(field, ambient, value):
    if isinstance(value, Subspace):
        if value.field != field or value.ambient != ambient:
            raise UsageError("certified subspace does not match the algebra")
        return value
    vectors = [tuple(field.coerce(c) for c in row) for row in value]
    return span(field, ambient, vectors)


def _coerce_certified(field, ambient, key, value):
    """A certificate's entry for `key`, read as the fact's declared shape."""
    if CERTIFIED_FACTS[key].single:
        return _coerce_subspace(field, ambient, value)
    return [_coerce_subspace(field, ambient, v) for v in value]


class Analyzer:
    """Cached computations over one algebra, with certified-data fallback over Q.

    Every use of a certified value appends a note to the current check's
    `assumed` list, so reports always show what was trusted versus computed.
    """

    def __init__(self, algebra, certified=None, budget=DEFAULT_BUDGET, _parent=None):
        self.algebra = algebra
        self.certified = dict(certified) if certified else {}
        for key in self.certified:
            if key not in CERTIFIED_KEYS:
                raise UsageError(f"unknown certified key: {key!r}")
        self.budget = budget
        self._cache = {}
        self._mirror_of = _parent
        if _parent is None:
            self._assumed = []
            self._notes = []
            # two-sided facts (ideals, radicals, Frattini data, products)
            # are shared with the mirrored view through the base analyzer
            self._shared_cache = {}
        else:
            self._assumed = _parent._assumed
            self._notes = _parent._notes
            self._shared_cache = _parent._shared_cache
        self._mirror = None

    # -- per-check bookkeeping ------------------------------------------------

    def begin_check(self):
        self._assumed.clear()
        self._notes.clear()

    def assume(self, text):
        if text not in self._assumed:
            self._assumed.append(text)

    def note(self, text):
        if text not in self._notes:
            self._notes.append(text)

    def snapshot(self):
        return tuple(self._assumed), tuple(self._notes)

    # -- mirrored view --------------------------------------------------------

    @property
    def is_mirror(self):
        return self._mirror_of is not None

    def mirrored(self):
        """The same algebra with all products reversed, sharing certificates.

        Two-sided notions (ideals, radicals, Frattini data, socles, chief
        series) are identical for an algebra and its opposite, so certified
        subspaces carry over; identity claims swap left/right kinds.
        """
        if self._mirror_of is not None:
            return self._mirror_of
        if self._mirror is None:
            cert = dict(self.certified)
            if "identities" in cert:
                cert["identities"] = {
                    _MIRROR_KIND[IdentityKind(k)].value: v
                    for k, v in cert["identities"].items()
                }
            self._mirror = Analyzer(
                opposite(self.algebra),
                cert,
                self.budget,
                _parent=self,
            )
        return self._mirror

    # -- computed facts -------------------------------------------------------

    def identity(self, kind):
        kind = IdentityKind(kind)
        cert = self.certified.get("identities")
        if cert is not None and kind.value in cert:
            self.assume(f"identity '{kind.value}' taken from certificate")
            return bool(cert[kind.value])
        key = ("identity", kind)
        if key not in self._cache:
            self._cache[key] = check_identity(self.algebra, kind)
        return self._cache[key]

    def profile(self, start=None):
        key = ("profile", start)
        if key not in self._cache:
            self._cache[key] = nilpotency_profile(self.algebra, start)
        return self._cache[key]

    def square(self):
        full = self.algebra.full_space()
        return self.prod(full, full)

    def prod(self, x, y):
        # the span of pairwise products does not depend on orientation once
        # the factors are swapped, so cache under the base orientation
        key = ("prod", y, x) if self._mirror_of is not None else ("prod", x, y)
        cache = self._shared_cache
        if key not in cache:
            cache[key] = subspace_product(self.algebra, x, y)
        return cache[key]

    # -- ingredients: enumerated over finite fields, certified over Q ---------

    def _ingredient(self, cache_key, coerce=None):
        """Look up a fact about the algebra, computing or trusting as needed.

        `cache_key` names the fact in CERTIFIED_FACTS and in a certificate,
        whose entry is read as the fact's declared shape and then passed
        through `coerce`, if given.  Facts handled here are two-sided
        (unchanged by reversing products), so they are computed on the base
        orientation's algebra, and its cache and certificate dictionary serve
        the mirrored view as well; callers translate orientation-sensitive
        keys (the one-sided radicals) before calling.
        """
        base = self._mirror_of if self._mirror_of is not None else self
        cache = base._shared_cache
        if cache_key in cache:
            value, certified, notes = cache[cache_key]
            if certified:
                self._trust(cache_key)
            for text in notes:
                self.note(text)
            return value
        fact = CERTIFIED_FACTS[cache_key]
        if self.algebra.field.is_finite:
            try:
                value = fact.compute(self.fp_facts())
            except BudgetExceededError as e:
                raise BudgetExceededError(f"budget exceeded while computing {fact.what}: {e}")
            cache[cache_key] = (value, False, ())
            return value
        if cache_key not in base.certified:
            raise UnsupportedOperationError(f"requires a finite field (no certified {fact.what})")
        mark = len(self._notes)
        value = self.certified_subspace(cache_key)
        if coerce is not None:
            value = coerce(value)
        cache[cache_key] = (value, True, tuple(self._notes[mark:]))
        return value

    def fp_facts(self):
        """The SubspaceLattice of the base orientation's algebra, made on
        first need and shared with the mirrored view: ideals and subalgebras
        are two-sided."""
        cache = self._shared_cache
        if "fp_facts" not in cache:
            base = self._mirror_of if self._mirror_of is not None else self
            cache["fp_facts"] = SubspaceLattice(base.algebra, self.budget)
        return cache["fp_facts"]

    def radical(self, kind):
        kind = RadicalKind(kind)
        if self._mirror_of is not None:
            kind = _MIRROR_RADICAL[kind]
        return self._ingredient(_radical_key(kind))

    def phi(self):
        return self._ingredient("phi")

    def frattini_subalgebra(self):
        return self._ingredient("frattini_subalgebra")

    def ideals(self):
        A = self.algebra

        def coerce(out):
            for extra in (A.zero_space(), A.full_space()):
                if extra not in out:
                    out.append(extra)
            out.sort(key=Subspace.sort_key)
            return out

        return self._ingredient("ideals", coerce)

    def minimal_ideals(self):
        return self._ingredient("minimal_ideals")

    def subalgebras(self):
        def coerce(out):
            self.note("subalgebra quantification sampled from certificate")
            return out

        return self._ingredient("subalgebras", coerce)

    def maximal_subalgebras(self):
        return self._ingredient("maximal_subalgebras")

    def chief_series_ideals(self):
        return self._ingredient("chief_series")

    def socle(self):
        return self._sum(self.minimal_ideals())

    def zero_socle(self):
        return self._sum(b for b in self.minimal_ideals() if self.prod(b, b).is_zero())

    def _sum(self, subspaces):
        return span(self.algebra.field, self.algebra.dim, [v for b in subspaces for v in b.basis])

    def complement(self, sub, key, inside=None):
        """A subalgebra complement to `sub` (within `inside`, default the
        whole algebra): over F_p the first in canonical order, None if there
        is none; over Q the certificate's `key`."""
        if self.algebra.field.is_finite:
            return self.fp_facts().complement(sub, inside)
        return self.certified_subspace(key)

    def certified_subspace(self, key):
        """The certificate's entry for `key`, read as the fact's declared shape."""
        if key not in self.certified:
            raise UnsupportedOperationError(f"requires a certified {CERTIFIED_FACTS[key].what}")
        value = _coerce_certified(self.algebra.field, self.algebra.dim, key, self.certified[key])
        self._trust(key)
        return value

    def _trust(self, key):
        self.assume(f"{CERTIFIED_FACTS[key].what} taken from certificate")

    # -- element streams ------------------------------------------------------

    def element_stream(self, sub=None):
        """Vectors to quantify over: exhaustive up to scalar (finite) or sampled (Q)."""
        A = self.algebra
        field = A.field
        if sub is None:
            sub = A.full_space()
        if sub.is_zero():
            return []
        if field.is_finite:
            try:
                coeff_tuples = list(iter_projective_vectors(field, sub.dim, self.budget))
            except BudgetExceededError as e:
                raise BudgetExceededError(f"budget exceeded while enumerating elements: {e}")
        else:
            self.note("element quantification sampled over the rationals")
            rng = random.Random(_SAMPLE_SEED + sub.dim)
            pool = [field.parse(s) for s in ("-2", "-1", "1", "2", "3")]
            coeff_tuples = [
                tuple(field.one if i == j else field.zero for j in range(sub.dim))
                for i in range(sub.dim)
            ]
            for _ in range(_SAMPLE_COUNT):
                coeff_tuples.append(tuple(rng.choice(pool) for _ in range(sub.dim)))
        out = []
        for coeffs in coeff_tuples:
            vec = [field.zero] * A.dim
            for c, row in zip(coeffs, sub.basis):
                if c != field.zero:
                    for i, r in enumerate(row):
                        if r != field.zero:
                            vec[i] = field.add(vec[i], field.mul(c, r))
            out.append(tuple(vec))
        return out

