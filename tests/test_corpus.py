"""Built-in fixtures and the identity-class table search."""
from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from nonassoc.algebra import (
    Algebra,
    IdentityKind,
    check_identity,
    is_ideal,
    is_subalgebra,
    subspace_product,
)
from nonassoc.corpus import (
    a_ex,
    builtin_fixtures,
    exhaustive_algebras,
    fixture_by_name,
    one_sided_shift,
    search,
    truncated_polynomial,
    validate_fixture,
    zero_algebra,
)
from nonassoc.enumeration import (
    RadicalKind,
    frattini,
    ideals,
    maximal_subalgebras,
    minimal_ideals,
    radical,
    subalgebras,
)
from nonassoc.errors import BudgetExceededError, UsageError
from nonassoc.fields import GF, QQ
from nonassoc.linalg import span
from nonassoc.series import chief_series


def test_fixture_names_are_unique_and_lookup_works():
    fixtures = builtin_fixtures()
    names = [fx.name for fx in fixtures]
    assert len(names) == len(set(names))
    assert len(fixtures) >= 20
    one = fixture_by_name("a_ex_f2")
    assert one.algebra.dim == 2
    assert one.note
    with pytest.raises(UsageError):
        fixture_by_name("no_such_fixture")


def test_fixture_by_name_validates_only_the_fixture_it_returns(monkeypatch):
    import nonassoc.corpus as corpus

    seen = []

    def record(fixture, budget=None):
        seen.append(fixture.name)
        return ["claimed radical is wrong"] if fixture.name == "tpoly3_f2" else []

    monkeypatch.setattr(corpus, "validate_fixture", record)
    assert fixture_by_name("a_ex_f2").name == "a_ex_f2"
    assert seen == ["a_ex_f2"]
    with pytest.raises(UsageError, match="^fixture tpoly3_f2 failed validation: claimed radical is wrong$"):
        fixture_by_name("tpoly3_f2")
    with pytest.raises(UsageError, match="^fixture tpoly3_f2 failed validation: claimed radical is wrong$"):
        builtin_fixtures()
    assert fixture_by_name("tpoly3_f2", validate=False).name == "tpoly3_f2"


def test_exhaustive_algebras_is_what_search_filters():
    tables = [A.table for A in exhaustive_algebras(GF(2), 2, 2)]
    assert len(tables) == 1 + 8 + 28
    for kind in IdentityKind:
        expected = [t for t in tables if check_identity(Algebra(GF(2), 2, t), kind)]
        assert [A.table for A in search(GF(2), 2, kind, sparsity=2)] == expected
    with pytest.raises(BudgetExceededError):
        exhaustive_algebras(GF(3), 3)
    with pytest.raises(UsageError):
        exhaustive_algebras(QQ, 2)


def test_every_fixture_validates():
    for fx in builtin_fixtures(validate=False):
        validate_fixture(fx)


def test_builders_match_fixture_tables():
    assert fixture_by_name("a_ex_f3").algebra == a_ex(GF(3))
    assert fixture_by_name("tpoly3_f2").algebra == truncated_polynomial(GF(2), 3)
    assert fixture_by_name("zero2_f2").algebra == zero_algebra(GF(2), 2)
    assert fixture_by_name("shift_f3").algebra == one_sided_shift(GF(3))


def test_truncated_polynomial_products():
    tp = truncated_polynomial(QQ, 4)
    # t^2 * t^2 = t^4, t^2 * t^3 = 0.
    assert tp.multiply(tp.basis_vector(1), tp.basis_vector(1)) == tp.basis_vector(3)
    assert tp.is_zero_vector(tp.multiply(tp.basis_vector(1), tp.basis_vector(2)))


def test_direct_sum_fixtures_have_block_products():
    fx = fixture_by_name("dsum_a_ex_zero2_f2")
    A = fx.algebra
    assert A.dim == 4
    # Cross-block products vanish.
    for i, j in itertools.product(range(2), range(2, 4)):
        assert A.is_zero_vector(A.multiply(A.basis_vector(i), A.basis_vector(j)))
        assert A.is_zero_vector(A.multiply(A.basis_vector(j), A.basis_vector(i)))
    # The first block is still the x, y table.
    assert A.multiply(A.basis_vector(0), A.basis_vector(1)) == A.basis_vector(0)


def test_quotient_fixtures_inherit_identities():
    fx = fixture_by_name("quot_tpoly3_f2")
    assert fx.algebra.dim == 2
    assert check_identity(fx.algebra, IdentityKind.ASSOCIATIVE)


def test_search_requires_finite_field_and_kind():
    with pytest.raises(UsageError):
        search(QQ, 2, IdentityKind.BICOMMUTATIVE)
    with pytest.raises(ValueError):
        list(search(GF(2), 2, "nonsense-kind"))
    with pytest.raises(UsageError):
        list(search(GF(2), 0, IdentityKind.BICOMMUTATIVE))


def test_search_exhaustive_counts_frozen():
    assert sum(1 for _ in search(GF(2), 1, IdentityKind.BICOMMUTATIVE)) == 2
    assert sum(1 for _ in search(GF(2), 2, IdentityKind.COMMUTATIVE, sparsity=2)) == 13
    assert sum(1 for _ in search(GF(2), 2, IdentityKind.ASSOCIATIVE, sparsity=2)) == 12


def test_search_results_satisfy_the_identity():
    for A in itertools.islice(search(GF(3), 2, IdentityKind.NOVIKOV_LEFT, sparsity=2), 25):
        assert check_identity(A, IdentityKind.NOVIKOV_LEFT)


def test_search_exhaustive_order_is_sparsest_first_and_deterministic():
    run1 = [A.table for A in search(GF(2), 2, IdentityKind.BICOMMUTATIVE, sparsity=2)]
    run2 = [A.table for A in search(GF(2), 2, IdentityKind.BICOMMUTATIVE, sparsity=2)]
    assert run1 == run2
    counts = [
        sum(1 for row in table for cell in row for x in cell if x != 0)
        for table in run1
    ]
    assert counts == sorted(counts)
    assert counts[0] == 0


def test_search_random_is_seeded():
    draw = lambda seed: [
        A.table
        for A in search(
            GF(3), 2, IdentityKind.NOVIKOV_LEFT, mode="random", samples=200, seed=seed
        )
    ]
    first = draw(7)
    assert len(first) == 74
    assert first == draw(7)
    assert first != draw(8)
    for table in first[:10]:
        from nonassoc.algebra import Algebra

        assert check_identity(Algebra(GF(3), 2, table), IdentityKind.NOVIKOV_LEFT)


def test_search_random_needs_samples():
    with pytest.raises(UsageError):
        list(search(GF(2), 2, IdentityKind.BICOMMUTATIVE, mode="random"))
    with pytest.raises(UsageError):
        list(search(GF(2), 2, IdentityKind.BICOMMUTATIVE, mode="sideways"))


def test_search_budget_guard():
    from nonassoc.enumeration import EnumerationBudget

    tiny = EnumerationBudget(max_vectors=10, max_subspaces=10)
    with pytest.raises(BudgetExceededError) as err:
        search(GF(2), 2, IdentityKind.BICOMMUTATIVE, budget=tiny)
    assert "sparsity" in str(err.value)


def test_search_is_lazy():
    gen = search(GF(3), 3, IdentityKind.RIGHT_COMMUTATIVE, sparsity=2)
    first_three = list(itertools.islice(gen, 3))
    assert len(first_three) == 3


def test_certified_q_fixtures_carry_subspace_data():
    for name in ["a_ex_q", "tpoly3_q", "a_nov_q"]:
        fx = fixture_by_name(name)
        assert "radical_solvable" in fx.certified
        assert "phi" in fx.certified
        assert "maximal_subalgebras" in fx.certified


def _computed_certificate(A):
    """Every subspace fact the verifier computes over F_p, as a certificate."""
    data = frattini(A)
    return {
        "radical_solvable": radical(A, RadicalKind.SOLVABLE),
        "radical_nil": radical(A, RadicalKind.NIL),
        "radical_right_nil": radical(A, RadicalKind.RIGHT_NIL),
        "radical_left_nil": radical(A, RadicalKind.LEFT_NIL),
        "phi": data.ideal,
        "frattini_subalgebra": data.subalgebra,
        "maximal_subalgebras": maximal_subalgebras(A),
        "minimal_ideals": minimal_ideals(A),
        "ideals": ideals(A),
        "subalgebras": subalgebras(A),
        "chief_series": list(chief_series(A).ideals),
    }


@pytest.mark.parametrize("name", ["tpoly3_f2", "a_ex_f2", "a_nov_f2"])
def test_validate_fixture_recomputes_finite_field_certificates(name):
    fx = fixture_by_name(name)
    A = fx.algebra
    full = {**fx.certified, **_computed_certificate(A)}
    assert validate_fixture(replace(fx, certified=full)) == []
    for key, value in _computed_certificate(A).items():
        if key == "chief_series":
            wrong = value[:1] + value[2:]  # skips a term, so a factor is not chief
        elif isinstance(value, list):
            wrong = value[:-1]
        else:
            wrong = A.zero_space() if value.dim else A.full_space()
        problems = validate_fixture(replace(fx, certified={**full, key: wrong}))
        assert any(p.startswith(f"{key}:") for p in problems), (key, problems)


def _q_corruptions(A, key, value):
    """Values for `key` that its structural check must reject on A."""
    lines = [
        span(A.field, A.dim, [tuple(A.field.coerce(c) for c in v)])
        for v in itertools.product((0, 1, -1), repeat=A.dim)
        if any(v)
    ]
    non_ideal = next((s for s in lines if not is_ideal(A, s)), None)
    non_sub = next((s for s in lines if not is_subalgebra(A, s)), None)
    not_idempotent = next(s for s in lines if subspace_product(A, s, s) != s)
    if key.startswith("radical_") and not key.endswith("complement"):
        # A is an ideal, and has the radical's defining property only if it is the radical
        is_all = span(A.field, A.dim, value) == A.full_space()
        wrong = [non_ideal, None if is_all else A.full_space()]
    elif key == "phi":
        wrong = [non_ideal]
    elif key in ("frattini_subalgebra", "semisimple_part"):
        wrong = [non_sub]
    elif key.endswith("complement"):
        # a nonzero complement has a proper partner, which 0 cannot complement
        swap = A.full_space() if span(A.field, A.dim, value).is_zero() else A.zero_space()
        wrong = [non_sub, swap]
    elif key in ("ideals", "minimal_ideals"):
        wrong = [None if non_ideal is None else value + [non_ideal]]
    elif key == "subalgebras":
        wrong = [None if non_sub is None else value + [non_sub]]
    elif key == "maximal_subalgebras":
        wrong = [None if non_sub is None else value + [non_sub], value + [A.full_space()]]
    elif key == "simple_summands":
        wrong = [value + [not_idempotent]]
    else:
        assert key == "chief_series"
        wrong = [value[:-1]]
    return [w for w in wrong if w is not None]


@pytest.mark.parametrize("name", ["a_ex_q", "tpoly3_q", "a_nov_q"])
def test_validate_fixture_rejects_structurally_wrong_q_certificates(name):
    fx = fixture_by_name(name)
    A = fx.algebra
    assert validate_fixture(fx) == []
    tested = set()
    for key, value in fx.certified.items():
        if key == "identities":
            continue
        for wrong in _q_corruptions(A, key, value):
            problems = validate_fixture(replace(fx, certified={**fx.certified, key: wrong}))
            assert any(p.startswith(f"{key}:") for p in problems), (key, problems)
            tested.add(key)
    # only a_nov_q's Frattini subalgebra escapes: every line of it is a subalgebra
    assert set(fx.certified) - tested <= {"identities", "frattini_subalgebra"}
