"""Top-level acceptance gate: one test per shipped guarantee.

Each test here states one externally visible promise of the package and
checks it end to end, so `pytest -v tests/test_acceptance.py` reads as a
checklist. The searched-table pools are shared across gates through a
module-scoped fixture; everything is exact arithmetic, so every comparison
is equality, never a tolerance.
"""
from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from nonassoc.algebra import (
    Algebra,
    IdentityKind,
    annihilator,
    check_identity,
    classify,
    opposite,
    subspace_product,
)
from nonassoc.cli import main
from nonassoc.corpus import (
    builtin_fixtures,
    exhaustive_algebras,
    fixture_by_name,
    truncated_polynomial,
)
from nonassoc.enumeration import (
    DEFAULT_BUDGET,
    RadicalKind,
    frattini,
    maximal_subalgebras,
    radical,
    socle,
)
from nonassoc.errors import PreconditionError
from nonassoc.fields import GF
from nonassoc.fileformat import parse_document, serialize_document
from nonassoc.linalg import full_subspace, span
from nonassoc.series import SeriesKind, chief_series, compute_series, nilpotency_profile, term_at
from nonassoc.structure import (
    decompose_semisimple_bicommutative,
    novikov_radical_report,
    phi_free_split,
)
from nonassoc.verify import bracket_power_oracle, verify, verify_all

from test_mutations import MUTATIONS

F2 = GF(2)
F3 = GF(3)

# (prime, dim, sparsity bound) for the exhaustive searched-table pools.
POOL_SPECS = ((2, 2, None), (2, 3, 4), (3, 3, 4))
POOL_SIZES = {(2, 2): 178, (2, 3): 5654, (3, 3): 59847}

NATURAL_KINDS = (
    IdentityKind.BICOMMUTATIVE,
    IdentityKind.ASSOSYMMETRIC,
    IdentityKind.NOVIKOV_LEFT,
    IdentityKind.NOVIKOV_RIGHT,
)


@pytest.fixture(scope="module")
def pools():
    """For each pool spec, every table satisfying at least one identity class.

    Maps (prime, dim) to {algebra: frozenset of satisfied IdentityKind} plus
    the wall-clock seconds the build took (charged to the soundness sweep).
    """
    built = {}
    t0 = time.perf_counter()
    for prime, dim, sparsity in POOL_SPECS:
        members = {}
        for A in exhaustive_algebras(GF(prime), dim, sparsity):
            kinds = classify(A)
            if kinds:
                members[A] = kinds
        built[(prime, dim)] = members
    return built, time.perf_counter() - t0


def test_gate_1_reference_algebra_reproduction():
    start = time.perf_counter()
    for name in ("a_ex_f2", "a_ex_f3"):
        fx = fixture_by_name(name)
        A = parse_document(serialize_document(fx.algebra, name=fx.name)).algebra
        assert check_identity(A, IdentityKind.BICOMMUTATIVE) is True
        assert check_identity(A, IdentityKind.COMMUTATIVE) is False
        assert check_identity(A, IdentityKind.ASSOCIATIVE) is False
        assert radical(A, RadicalKind.SOLVABLE).is_zero()
        dec = decompose_semisimple_bicommutative(A)
        x_line = span(A.field, 2, [(1, 0)])
        y_line = span(A.field, 2, [(0, 1)])
        assert list(dec.simples) == [x_line]
        assert dec.complement == y_line
        assert subspace_product(A, dec.complement, dec.simples[0]).is_zero()
    assert time.perf_counter() - start < 1.0


def test_gate_2_theorem_soundness_sweep(pools):
    pool_map, build_seconds = pools
    start = time.perf_counter()
    for key, expected in POOL_SIZES.items():
        assert len(pool_map[key]) == expected, key
    failures = []
    count = 0
    for fx in builtin_fixtures(validate=False):
        count += 1
        for r in verify_all(fx.algebra, certified=fx.certified):
            if r.applicable and not r.holds:
                failures.append((fx.name, r.check.value, r.reason))
    for members in pool_map.values():
        for A in members:
            count += 1
            for r in verify_all(A):
                if r.applicable and not r.holds:
                    failures.append((A.table, r.check.value, r.reason))
    assert failures == []
    assert count == 26 + sum(POOL_SIZES.values())
    sweep_seconds = time.perf_counter() - start
    assert build_seconds + sweep_seconds < 600.0, (
        f"pool build {build_seconds:.1f} s + sweep {sweep_seconds:.1f} s "
        f"= {build_seconds + sweep_seconds:.1f} s, over the 600 s bound"
    )


def _mul_mod(A, xv, yv, p):
    out = [0] * A.dim
    for i, xi in enumerate(xv):
        if not xi:
            continue
        for j, yj in enumerate(yv):
            if not yj:
                continue
            c = xi * yj
            row = A.table[i][j]
            for k in range(A.dim):
                out[k] = (out[k] + c * row[k]) % p
    return tuple(out)


def _brute_identity(A, kind, p):
    """Quantify an identity over every element tuple, not just basis tuples."""
    vecs = list(itertools.product(range(p), repeat=A.dim))
    m = lambda u, v: _mul_mod(A, u, v, p)

    def assoc(u, v, w):
        lhs, rhs = m(m(u, v), w), m(u, m(v, w))
        return tuple((a - b) % p for a, b in zip(lhs, rhs))

    if kind is IdentityKind.COMMUTATIVE:
        return all(m(u, v) == m(v, u) for u in vecs for v in vecs)
    checks = {
        IdentityKind.ASSOCIATIVE: lambda u, v, w: m(m(u, v), w) == m(u, m(v, w)),
        IdentityKind.RIGHT_COMMUTATIVE: lambda u, v, w: m(m(u, v), w) == m(m(u, w), v),
        IdentityKind.LEFT_COMMUTATIVE: lambda u, v, w: m(u, m(v, w)) == m(v, m(u, w)),
        IdentityKind.LEFT_SYMMETRIC: lambda u, v, w: assoc(u, v, w) == assoc(v, u, w),
        IdentityKind.RIGHT_SYMMETRIC: lambda u, v, w: assoc(u, v, w) == assoc(u, w, v),
    }
    composite = {
        IdentityKind.BICOMMUTATIVE: ("right-commutative", "left-commutative"),
        IdentityKind.ASSOSYMMETRIC: ("left-symmetric", "right-symmetric"),
        IdentityKind.NOVIKOV_LEFT: ("left-symmetric", "right-commutative"),
        IdentityKind.NOVIKOV_RIGHT: ("right-symmetric", "left-commutative"),
    }
    if kind in composite:
        return all(_brute_identity(A, IdentityKind(part), p) for part in composite[kind])
    test = checks[kind]
    return all(test(u, v, w) for u in vecs for v in vecs for w in vecs)


def _random_table(rng, field, dim):
    p = field.order
    table = [
        [
            [rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(dim)]
            for _ in range(dim)
        ]
        for _ in range(dim)
    ]
    return Algebra(field, dim, table)


def test_gate_3_oracle_equivalences():
    # (a) Independent bracket-power oracle agrees with the series engine.
    for fx in builtin_fixtures(validate=False):
        A = fx.algebra
        result = compute_series(A, SeriesKind.BRACKET_POWER)
        for n in range(1, 7):
            assert bracket_power_oracle(A, n) == term_at(A, result, n), (fx.name, n)
    # (b) For nilpotent algebras the Frattini subalgebra and ideal are A^2.
    checked = 0
    for fx in builtin_fixtures(validate=False):
        A = fx.algebra
        if A.field != F2 or A.dim > 5 or not nilpotency_profile(A).nilpotent:
            continue
        square = subspace_product(A, full_subspace(A.field, A.dim), full_subspace(A.field, A.dim))
        data = frattini(A)
        assert data.subalgebra == square, fx.name
        assert data.ideal == square, fx.name
        checked += 1
    assert checked >= 8
    # (c) Basis-tuple identity checking agrees with all-element quantification.
    for A in _identity_cases():
        p = A.field.order
        for kind in IdentityKind:
            assert check_identity(A, kind) == _brute_identity(A, kind, p), (A.table, kind)


def _identity_cases():
    """Small fixtures, every F_2 table of dimension 2 and seeded random tables."""
    cases = []
    for fx in builtin_fixtures(validate=False):
        if fx.algebra.field.is_finite and fx.algebra.field.order <= 3 and fx.algebra.dim <= 3:
            cases.append(fx.algebra)
    for bits in range(256):
        table = [[[(bits >> (4 * i + 2 * j + k)) & 1 for k in range(2)] for j in range(2)] for i in range(2)]
        cases.append(Algebra(F2, 2, table))
    rng = random.Random(20260814)
    cases.extend(_random_table(rng, F2, 3) for _ in range(40))
    cases.extend(_random_table(rng, F3, 2) for _ in range(40))
    cases.extend(_random_table(rng, F3, 3) for _ in range(12))
    return cases


def test_classify_agrees_with_check_identity():
    cases = _identity_cases() + [fx.algebra for fx in builtin_fixtures(validate=False)]
    for A in cases:
        assert classify(A) == {kind for kind in IdentityKind if check_identity(A, kind)}, A.table


def test_gate_4_weak_nilpotency_in_natural_classes(pools):
    pool_map, _ = pools
    candidates = {}
    for members in pool_map.values():
        for A, kinds in members.items():
            if kinds.intersection(NATURAL_KINDS):
                candidates[A] = True
    for fx in builtin_fixtures(validate=False):
        if any(check_identity(fx.algebra, kind) for kind in NATURAL_KINDS):
            candidates[fx.algebra] = True
    weakly = 0
    for A in candidates:
        profile = nilpotency_profile(A)
        if not profile.weakly_nilpotent:
            continue
        weakly += 1
        assert profile.nilpotent, A.table
        if A.field.is_finite:
            assert all(d == 1 for d in chief_series(A).factor_dims), A.table
    assert weakly == 670


def test_gate_5_novikov_equivalences(pools):
    pool_map, _ = pools
    oriented = {}
    for members in pool_map.values():
        for A, kinds in members.items():
            if IdentityKind.NOVIKOV_LEFT in kinds:
                oriented[A] = True
            elif IdentityKind.NOVIKOV_RIGHT in kinds:
                oriented[opposite(A)] = True
    for fx in builtin_fixtures(validate=False):
        if check_identity(fx.algebra, IdentityKind.NOVIKOV_LEFT):
            oriented[fx.algebra] = True
        elif check_identity(fx.algebra, IdentityKind.NOVIKOV_RIGHT):
            oriented[opposite(fx.algebra)] = True
    assert len(oriented) > 500
    for A in oriented:
        profile = nilpotency_profile(A)
        square = subspace_product(A, full_subspace(A.field, A.dim), full_subspace(A.field, A.dim))
        square_nilpotent = nilpotency_profile(A, start=square).nilpotent
        assert profile.right_nilpotent == square_nilpotent == profile.solvable, A.table
        if not A.field.is_finite:
            continue
        report = novikov_radical_report(A)
        assert report.product_is_ideal, A.table
        assert report.product_nilpotent, A.table
        assert report.arr_in_phi, A.table
        assert report.phi_in_square, A.table


def test_gate_6_phi_free_splitting():
    split_count = refusal_count = 0
    for fx in builtin_fixtures(validate=False):
        A = fx.algebra
        if not A.field.is_finite:
            continue
        if not any(check_identity(A, kind) for kind in NATURAL_KINDS):
            continue
        if frattini(A).ideal.is_zero():
            result = phi_free_split(A)
            nil_rad = radical(A, RadicalKind.NIL)
            assert result.zero_socle == nil_rad, fx.name
            assert result.zero_socle == annihilator(A, socle(A)), fx.name
            split_count += 1
        else:
            with pytest.raises(PreconditionError):
                phi_free_split(A)
            refusal_count += 1
    assert split_count >= 10
    assert refusal_count >= 4


def test_gate_7_mutation_sensitivity(tmp_path):
    from nonassoc.verify import CheckId

    assert set(MUTATIONS) == set(CheckId)
    for check, (algebra, cert) in MUTATIONS.items():
        report = verify(algebra, check, certified=cert)
        assert report.applicable, check
        assert report.holds is False, check
        assert report.counterexample is not None, check
    # Shipped, uncorrupted fixtures never yield a failing exit through the CLI.
    for fx in builtin_fixtures(validate=False):
        path = tmp_path / f"{fx.name}.json"
        path.write_bytes(
            serialize_document(fx.algebra, name=fx.name, note=fx.note, certified=fx.certified)
        )
        assert main(["verify", str(path), "--all", "--output", "json"]) == 0, fx.name


def test_gate_8_performance_and_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    maximals = maximal_subalgebras(truncated_polynomial(F2, 5))
    assert time.perf_counter() - t0 < 10.0
    assert [m.dim for m in maximals] == [4]

    t0 = time.perf_counter()
    big = radical(truncated_polynomial(F2, 16), RadicalKind.SOLVABLE, DEFAULT_BUDGET)
    assert time.perf_counter() - t0 < 60.0
    assert big == full_subspace(F2, 16)
    assert big == radical(truncated_polynomial(F2, 16), RadicalKind.SOLVABLE, DEFAULT_BUDGET)

    # Byte-identical JSON across repeated runs in one process...
    fx = fixture_by_name("a_nov_f2")
    path = tmp_path / "a_nov_f2.json"
    path.write_bytes(serialize_document(fx.algebra, name=fx.name, certified=fx.certified))
    outputs = []
    for _ in range(2):
        assert main(["verify", str(path), "--all", "--output", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # ...and across separate interpreters with different hash seeds.
    script = (
        "import sys; from nonassoc.cli import main; "
        "sys.exit(main(['search', '--field', '3', '--dim', '2', "
        "'--identity', 'novikov-left', '--sparsity', '2', '--output', 'json']))"
    )
    runs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, check=True
        )
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
