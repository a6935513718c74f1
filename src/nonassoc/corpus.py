"""Fixture algebras and structure-constant search.

Fixtures carry certified properties (identity classes, radicals, Frattini
data, ideal lists) that downstream verification may trust; every claim
that is mechanically checkable is re-verified by validate_fixture, which
builtin_fixtures runs on construction.  Over finite fields certificates
are recomputed exactly; over Q they are validated structurally (ideals
really are ideals, complements really complement, and so on).
"""

import itertools
import math
import random
from dataclasses import dataclass, field as dataclass_field

from .errors import BudgetExceededError, UsageError
from .fields import GF, QQ
from .linalg import Echelon, span, subspace_intersect, subspace_sum
from .algebra import (
    Algebra,
    IdentityKind,
    check_identity,
    direct_sum,
    is_ideal,
    is_subalgebra,
    quotient,
    subspace_product,
)
from .enumeration import DEFAULT_BUDGET, RadicalKind, SubspaceLattice, _qualifies
from .analyzer import CERTIFIED_FACTS, CERTIFIED_KEYS, _coerce_certified, _radical_key


@dataclass(frozen=True)
class Fixture:
    name: str
    algebra: Algebra
    note: str
    certified: dict = dataclass_field(default_factory=dict)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def zero_algebra(field, n):
    """n-dimensional algebra with all products zero."""
    return Algebra.from_products(field, n, {})


def truncated_polynomial(field, k):
    """Nonunital F[t]/(t^(k+1)): basis t, t^2, ..., t^k."""
    if k < 1:
        raise UsageError("need at least one basis element")
    products = {}
    for i in range(k):
        for j in range(k):
            if i + j + 2 <= k:
                products[(i, j)] = {i + j + 1: 1}
    labels = tuple(f"t{p}" if p > 1 else "t" for p in range(1, k + 1))
    return Algebra.from_products(field, k, products, labels=labels)


def a_ex(field):
    """Two-dimensional fixture: x*x = x, x*y = x, other products zero."""
    return Algebra.from_products(
        field, 2, {(0, 0): {0: 1}, (0, 1): {0: 1}}, labels=("x", "y")
    )


def a_nov(field):
    """Two-dimensional fixture: b*b = b, a*b = a, other products zero."""
    return Algebra.from_products(
        field, 2, {(1, 1): {1: 1}, (0, 1): {0: 1}}, labels=("a", "b")
    )


def single_square(field):
    """Two-dimensional fixture: e1*e1 = e2, other products zero."""
    return Algebra.from_products(field, 2, {(0, 0): {1: 1}})


def field_pair(field):
    """F x F: two orthogonal idempotents."""
    return Algebra.from_products(field, 2, {(0, 0): {0: 1}, (1, 1): {1: 1}})


def one_sided_shift(field):
    """Two-dimensional fixture: u*v = u, other products zero."""
    return Algebra.from_products(field, 2, {(0, 1): {0: 1}}, labels=("u", "v"))


_ALL_KINDS = tuple(IdentityKind)

_ALL_TRUE = {k.value: True for k in _ALL_KINDS}


def _ids(**by_value):
    out = {}
    for key, val in by_value.items():
        out[IdentityKind(key.replace("_", "-")).value] = val
    return out


def _rows(field, *rows):
    return [tuple(field.coerce(c) for c in row) for row in rows]


def builtin_fixtures(validate=True):
    """The shipped fixture list, validated on construction."""
    F2, F3, F5 = GF(2), GF(3), GF(5)
    fixtures = []

    def add(name, algebra, note, certified=None):
        fixtures.append(Fixture(name, algebra, note, dict(certified or {})))

    ex_ids = _ids(bicommutative=True, commutative=False, associative=False)
    ex_note = "semisimple two-dimensional algebra with x*x = x and x*y = x"
    add("a_ex_f2", a_ex(F2), ex_note, {"identities": ex_ids})
    add("a_ex_f3", a_ex(F3), ex_note, {"identities": ex_ids})
    add("a_ex_f5", a_ex(F5), ex_note, {"identities": ex_ids})
    one = QQ.one
    zero = QQ.zero
    add(
        "a_ex_q",
        a_ex(QQ),
        ex_note + " (rational variant with certified enumeration data)",
        {
            "identities": ex_ids,
            "radical_solvable": [],
            "radical_nil": [],
            "radical_right_nil": [],
            "radical_left_nil": [],
            "phi": [],
            "frattini_subalgebra": [],
            "maximal_subalgebras": [
                _rows(QQ, (1, 0)),
                _rows(QQ, (0, 1)),
                _rows(QQ, (1, -1)),
            ],
            "minimal_ideals": [_rows(QQ, (1, 0))],
            "ideals": [[], _rows(QQ, (1, 0)), _rows(QQ, (1, 0), (0, 1))],
            "subalgebras": [
                [],
                _rows(QQ, (1, 0)),
                _rows(QQ, (0, 1)),
                _rows(QQ, (1, -1)),
                _rows(QQ, (1, 0), (0, 1)),
            ],
            "chief_series": [[], _rows(QQ, (1, 0)), _rows(QQ, (1, 0), (0, 1))],
            "square_complement": _rows(QQ, (0, 1)),
            "zero_socle_complement": _rows(QQ, (1, 0), (0, 1)),
        },
    )

    for n in range(1, 5):
        add(
            f"zero{n}_f2",
            zero_algebra(F2, n),
            f"{n}-dimensional algebra with all products zero",
            {"identities": dict(_ALL_TRUE)},
        )

    for k in range(1, 5):
        add(
            f"tpoly{k}_f2",
            truncated_polynomial(F2, k),
            f"nonunital truncated polynomial algebra of dimension {k}",
            {"identities": dict(_ALL_TRUE)},
        )
    add(
        "tpoly2_f3",
        truncated_polynomial(F3, 2),
        "nonunital truncated polynomial algebra of dimension 2",
        {"identities": dict(_ALL_TRUE)},
    )
    add(
        "tpoly3_f5",
        truncated_polynomial(F5, 3),
        "nonunital truncated polynomial algebra of dimension 3",
        {"identities": dict(_ALL_TRUE)},
    )
    add(
        "tpoly3_q",
        truncated_polynomial(QQ, 3),
        "nonunital truncated polynomial algebra of dimension 3 "
        "(rational variant with certified enumeration data)",
        {
            "identities": dict(_ALL_TRUE),
            "radical_solvable": [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
            "radical_nil": [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
            "radical_right_nil": [
                (one, zero, zero),
                (zero, one, zero),
                (zero, zero, one),
            ],
            "radical_left_nil": [
                (one, zero, zero),
                (zero, one, zero),
                (zero, zero, one),
            ],
            "phi": [(zero, one, zero), (zero, zero, one)],
            "frattini_subalgebra": [(zero, one, zero), (zero, zero, one)],
            "maximal_subalgebras": [[(zero, one, zero), (zero, zero, one)]],
            "minimal_ideals": [[(zero, zero, one)]],
            "ideals": [
                [],
                [(zero, zero, one)],
                [(zero, one, zero), (zero, zero, one)],
                [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
            ],
            "chief_series": [
                [],
                [(zero, zero, one)],
                [(zero, one, zero), (zero, zero, one)],
                [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
            ],
        },
    )

    add(
        "n1_f2",
        single_square(F2),
        "two-dimensional algebra with e1*e1 = e2",
        {"identities": dict(_ALL_TRUE)},
    )

    nov_ids = _ids(
        novikov_left=True,
        bicommutative=False,
        right_commutative=True,
        left_symmetric=True,
    )
    nov_note = "two-dimensional algebra with b*b = b and a*b = a"
    add("a_nov_f2", a_nov(F2), nov_note, {"identities": nov_ids})
    add(
        "a_nov_q",
        a_nov(QQ),
        nov_note + " (rational variant with certified enumeration data)",
        {
            "identities": nov_ids,
            "radical_solvable": [(one, zero)],
            "radical_nil": [(one, zero)],
            "radical_right_nil": [(one, zero)],
            "radical_left_nil": [(one, zero)],
            "phi": [],
            "frattini_subalgebra": [],
            "maximal_subalgebras": [_rows(QQ, (1, 0)), _rows(QQ, (0, 1))],
            "minimal_ideals": [_rows(QQ, (1, 0))],
            "ideals": [[], _rows(QQ, (1, 0)), _rows(QQ, (1, 0), (0, 1))],
            "chief_series": [[], _rows(QQ, (1, 0)), _rows(QQ, (1, 0), (0, 1))],
            "zero_socle_complement": _rows(QQ, (0, 1)),
            "radical_complement": _rows(QQ, (0, 1)),
            "simple_summands": [_rows(QQ, (0, 1))],
        },
    )

    pair_ids = dict(_ALL_TRUE)
    pair_note = "direct sum of two copies of the base field"
    add("ff_f2", field_pair(F2), pair_note, {"identities": pair_ids})
    add("ff_f5", field_pair(F5), pair_note, {"identities": pair_ids})

    add(
        "shift_f3",
        one_sided_shift(F3),
        "two-dimensional algebra with u*v = u",
        {
            "identities": _ids(
                bicommutative=True,
                novikov_right=True,
                novikov_left=False,
                right_symmetric=True,
                left_symmetric=False,
            )
        },
    )

    add(
        "dsum_a_ex_zero2_f2",
        direct_sum(a_ex(F2), zero_algebra(F2, 2)),
        "direct sum of the a_ex fixture and a two-dimensional zero algebra",
        {"identities": _ids(bicommutative=True, associative=False)},
    )
    add(
        "dsum_n1_ff_f2",
        direct_sum(single_square(F2), field_pair(F2)),
        "direct sum of the single-square fixture and a pair of fields",
        {"identities": _ids(commutative=True, associative=True, bicommutative=True)},
    )
    add(
        "dsum_a_nov_tpoly2_f2",
        direct_sum(a_nov(F2), truncated_polynomial(F2, 2)),
        "direct sum of the a_nov fixture and a truncated polynomial algebra",
        {"identities": _ids(novikov_left=True, right_commutative=True)},
    )

    t3 = truncated_polynomial(F2, 3)
    top = span(F2, 3, [(0, 0, 1)])
    quot_t3, _ = quotient(t3, top)
    add(
        "quot_tpoly3_f2",
        quot_t3,
        "truncated polynomial algebra modulo its one-dimensional top ideal",
        {"identities": dict(_ALL_TRUE)},
    )
    ex2 = a_ex(F2)
    quot_ex, _ = quotient(ex2, span(F2, 2, [(1, 0)]))
    add(
        "quot_a_ex_f2",
        quot_ex,
        "a_ex fixture modulo its minimal ideal",
        {"identities": dict(_ALL_TRUE)},
    )

    if validate:
        for f in fixtures:
            _require_valid(f)
    return fixtures


def _require_valid(fixture):
    problems = validate_fixture(fixture)
    if problems:
        raise UsageError(
            f"fixture {fixture.name} failed validation: " + "; ".join(problems)
        )


def fixture_by_name(name, validate=True):
    """The shipped fixture called `name`; only that one is validated."""
    for f in builtin_fixtures(validate=False):
        if f.name == name:
            if validate:
                _require_valid(f)
            return f
    raise UsageError(f"no fixture named {name!r}")


# ---------------------------------------------------------------------------
# fixture validation
# ---------------------------------------------------------------------------


def validate_fixture(fixture, budget=DEFAULT_BUDGET):
    """Return a list of discrepancy strings; empty means the fixture is sound.

    Over F_p each computable fact is recomputed and compared with its claim,
    lists as sets.  A chief series is checked to be one, since any chief
    series is valid.  Over Q, and for facts only ever read from a certificate,
    the checks are structural.
    """
    A = fixture.algebra
    cert = fixture.certified
    problems = []
    for key in cert:
        if key not in CERTIFIED_KEYS:
            problems.append(f"unknown certified key {key!r}")
    for kind_value, claimed in cert.get("identities", {}).items():
        actual = check_identity(A, IdentityKind(kind_value))
        if actual != bool(claimed):
            problems.append(
                f"identity {kind_value}: claimed {claimed}, computed {actual}"
            )
    claims = {
        key: _coerce_certified(A.field, A.dim, key, value)
        for key, value in cert.items()
        if key in CERTIFIED_FACTS
    }
    facts = SubspaceLattice(A, budget) if A.field.is_finite else None
    if facts is not None:
        for key, claimed in claims.items():
            fact = CERTIFIED_FACTS[key]
            if fact.compute is None or key == "chief_series":
                continue
            actual = fact.compute(facts)
            if not fact.single:
                claimed = {s.basis for s in claimed}
                actual = {s.basis for s in actual}
            if claimed != actual:
                problems.append(f"{key}: does not match the computed {fact.what}")
    else:
        problems += _structural_problems(A, claims)
    if "chief_series" in claims:
        chain = claims["chief_series"]
        ok = (
            len(chain) >= 1
            and chain[0].is_zero()
            and chain[-1] == A.full_space()
            and all(b.dim < c.dim and c.contains_subspace(b) for b, c in zip(chain, chain[1:]))
            and all(is_ideal(A, term) for term in chain)
        )
        if not ok:
            problems.append("chief_series: not an ascending chain of ideals from 0 to A")
        else:
            known = facts.ideals() if facts is not None else claims.get("ideals", [])
            for below, above in zip(chain, chain[1:]):
                if any(
                    w.contains_subspace(below)
                    and above.contains_subspace(w)
                    and w != below
                    and w != above
                    for w in known
                ):
                    problems.append("chief_series: a factor is not chief")
    full = A.full_space()

    def check_complement(key, part):
        comp = claims[key]
        if not is_subalgebra(A, comp):
            problems.append(f"{key}: not a subalgebra")
        elif not subspace_intersect(comp, part).is_zero():
            problems.append(f"{key}: meets the subspace it should complement")
        elif subspace_sum(comp, part) != full:
            problems.append(f"{key}: does not span together with its partner")

    if "zero_socle_complement" in claims and "minimal_ideals" in claims:
        zsoc = Echelon(A.field, A.dim)
        for m in claims["minimal_ideals"]:
            if subspace_product(A, m, m).is_zero():
                zsoc.add_subspace(m)
        check_complement("zero_socle_complement", zsoc.subspace())
    if "square_complement" in claims:
        check_complement("square_complement", subspace_product(A, full, full))
    if "radical_complement" in claims and "radical_solvable" in claims:
        check_complement("radical_complement", claims["radical_solvable"])
    if "semisimple_part" in claims and not is_subalgebra(A, claims["semisimple_part"]):
        problems.append("semisimple_part: not a subalgebra")
    if any(subspace_product(A, s, s) != s for s in claims.get("simple_summands", [])):
        problems.append("simple_summands: entry does not square to itself")
    return problems


def _structural_problems(A, claims):
    """What is wrong with claimed radicals, Frattini data and subspace lists
    that cannot be recomputed (over Q): each claim is tested against the
    properties that define it."""
    problems = []
    for kind in RadicalKind:
        key = _radical_key(kind)
        if key not in claims:
            continue
        if not is_ideal(A, claims[key]):
            problems.append(f"{key}: claimed subspace is not an ideal")
        elif not _qualifies(A, claims[key], kind):
            problems.append(f"{key}: claimed ideal lacks the defining property")
    maximals = claims.get("maximal_subalgebras", [])
    ideal_list = claims.get("ideals", [])
    phi = claims.get("phi")
    if phi is not None:
        if not is_ideal(A, phi):
            problems.append("phi: claimed subspace is not an ideal")
        if not all(m.contains_subspace(phi) for m in maximals):
            problems.append("phi: not inside a listed maximal subalgebra")
    if "frattini_subalgebra" in claims:
        frat = claims["frattini_subalgebra"]
        if not is_subalgebra(A, frat):
            problems.append("frattini_subalgebra: not a subalgebra")
        if phi is not None and not frat.contains_subspace(phi):
            problems.append("frattini_subalgebra: does not contain phi")
    if not all(is_subalgebra(A, m) and m.dim < A.dim for m in maximals):
        problems.append("maximal_subalgebras: entry is not a proper subalgebra")
    minimals = claims.get("minimal_ideals", [])
    if not all(is_ideal(A, m) and not m.is_zero() for m in minimals):
        problems.append("minimal_ideals: entry is not a nonzero ideal")
    elif any(
        m.contains_subspace(w) and w != m and not w.is_zero()
        for m in minimals
        for w in ideal_list
    ):
        problems.append("minimal_ideals: entry contains a smaller ideal")
    if not all(is_ideal(A, b) for b in ideal_list):
        problems.append("ideals: entry is not an ideal")
    if not all(is_subalgebra(A, b) for b in claims.get("subalgebras", [])):
        problems.append("subalgebras: entry is not a subalgebra")
    return problems


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _search_space_size(q, slots, max_nonzero):
    total = 0
    for s in range(max_nonzero + 1):
        total += math.comb(slots, s) * (q - 1) ** s
    return total


def _table_from_entries(field, n, entries):
    rows = [[None] * n for _ in range(n)]
    for (i, j, k), value in entries:
        if rows[i][j] is None:
            rows[i][j] = [field.zero] * n
        rows[i][j][k] = value
    zero_row = tuple(field.zero for _ in range(n))
    return tuple(
        tuple(tuple(cell) if cell is not None else zero_row for cell in row)
        for row in rows
    )


def search(
    field,
    dim,
    kind,
    mode="exhaustive",
    samples=None,
    seed=None,
    sparsity=None,
    budget=DEFAULT_BUDGET,
):
    """Yield algebras of the given dimension satisfying the identity class.

    Exhaustive mode filters `exhaustive_algebras`, so results are
    deterministic; `sparsity` bounds the number of nonzero constants.  Random
    mode draws `samples` tables from a seeded generator where `sparsity` is
    the probability that a constant is zero (default 0.75); tables failing
    the identity are skipped.
    """
    kind = IdentityKind(kind)
    if mode == "exhaustive":
        algebras = exhaustive_algebras(field, dim, sparsity, budget)
        return (A for A in algebras if check_identity(A, kind))
    if mode == "random":
        _require_search_space(field, dim)
        if samples is None or seed is None:
            raise UsageError("random mode needs samples and seed")
        zero_probability = 0.75 if sparsity is None else float(sparsity)
        if not 0 <= zero_probability <= 1:
            raise UsageError("sparsity in random mode is a probability in [0, 1]")
        slots, nonzero_values = _slots(field, dim)
        return _search_random(
            field, dim, kind, slots, nonzero_values, samples, seed, zero_probability
        )
    raise UsageError(f"unknown search mode {mode!r}")


def _require_search_space(field, dim):
    if not field.is_finite:
        raise UsageError("search requires a finite field")
    if dim < 1:
        raise UsageError("dimension must be at least 1")


def _slots(field, dim):
    """The (i, j, k) positions of a structure table and the nonzero scalars."""
    slots = [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]
    return slots, [x for x in field.elements() if x != field.zero]


def exhaustive_algebras(field, dim, sparsity=None, budget=DEFAULT_BUDGET):
    """Every structure-constant table of dimension `dim` over a finite field
    with at most `sparsity` nonzero constants (default: any number), as an
    algebra, in a fixed order: number of nonzero constants ascending, then
    positions, then values.  Refuses up front when the count of tables
    exceeds `budget.max_vectors`."""
    _require_search_space(field, dim)
    slots, nonzero_values = _slots(field, dim)
    max_nonzero = len(slots) if sparsity is None else int(sparsity)
    if max_nonzero < 0:
        raise UsageError("sparsity bound must be nonnegative")
    size = _search_space_size(field.order, len(slots), max_nonzero)
    if size > budget.max_vectors:
        raise BudgetExceededError(
            f"exhaustive search space has {size} tables, over the budget of "
            f"{budget.max_vectors}; pass a sparsity bound (max nonzero "
            "structure constants) to shrink it"
        )
    return _exhaustive_algebras(field, dim, slots, nonzero_values, max_nonzero)


def _exhaustive_algebras(field, dim, slots, nonzero_values, max_nonzero):
    for count in range(max_nonzero + 1):
        for positions in itertools.combinations(slots, count):
            for values in itertools.product(nonzero_values, repeat=count):
                table = _table_from_entries(field, dim, zip(positions, values))
                yield Algebra(field, dim, table)


def _search_random(field, dim, kind, slots, nonzero_values, samples, seed, zero_probability):
    rng = random.Random(seed)
    for _ in range(samples):
        entries = []
        for slot in slots:
            if rng.random() >= zero_probability:
                entries.append((slot, rng.choice(nonzero_values)))
        table = _table_from_entries(field, dim, entries)
        A = Algebra(field, dim, table)
        if check_identity(A, kind):
            yield A
