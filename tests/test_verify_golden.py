"""Golden reports: `verify_all` output pinned byte for byte.

For each algebra the 41 reports (check id, description, verdict, reason,
witness, counterexample, assumed and notes, with subspaces encoded as the
CLI encodes them) are serialized as key-sorted JSON and pinned by sha256 in
`tests/data/verify_golden.json`.  The algebras are the shipped fixtures with
their certificates, every fixture over Q again without its certificate, and
seeded dimension-3 tables over F_2 and F_3 with at most four nonzero
constants that satisfy at least one identity class.

Refusals are pinned too.  The budget cases (the fixtures, slices of the two
F_2 pools and seeded F_3 pool members) are reported under twelve small
budgets around their subspace and vector counts, where some facts are
refused and the others come from either route that `SubspaceLattice`
chooses between.  The truncated polynomials tpoly9 and tpoly10 over F_2 are
reported at the default budget, which their subspaces exceed.

Re-record (only when a report is meant to change) with
    PYTHONPATH=src python tests/test_verify_golden.py
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from nonassoc.algebra import Algebra, IdentityKind, check_identity
from nonassoc.cli import _jsonable
from nonassoc.corpus import builtin_fixtures, truncated_polynomial
from nonassoc.enumeration import DEFAULT_BUDGET, EnumerationBudget
from nonassoc.fields import GF
from nonassoc.verify import describe, verify_all

from conftest import f3_members, pool_members

DATA = Path(__file__).parent / "data" / "verify_golden.json"
SEED = 20231213
TABLES_PER_FIELD = 150
DIM = 3
MAX_NONZERO = 4
# F_2^2 has 5 subspaces and 4 vectors, F_2^3 16 and 8, F_3^3 28 and 27,
# F_2^4 67 and 16: each count is met, exceeded or cleared by some budget.
EDGE_BUDGETS = [
    EnumerationBudget(max_subspaces=s, max_vectors=v) for s in (2, 16, 67, 100) for v in (3, 8, 27)
]


def report_digest(algebra, certified=None, budget=DEFAULT_BUDGET):
    reports = [
        {
            "check": r.check.value,
            "description": describe(r.check),
            "applicable": r.applicable,
            "holds": r.holds,
            "reason": r.reason,
            "witness": _jsonable(r.witness),
            "counterexample": _jsonable(r.counterexample),
            "assumed": list(r.assumed),
            "notes": list(r.notes),
        }
        for r in verify_all(algebra, certified=certified, budget=budget)
    ]
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _random_table(rng, p):
    """A table drawn uniformly among those with at most MAX_NONZERO constants."""
    slots = DIM ** 3
    weights = [math.comb(slots, s) * (p - 1) ** s for s in range(MAX_NONZERO + 1)]
    count = rng.choices(range(MAX_NONZERO + 1), weights=weights)[0]
    flat = [0] * slots
    for pos in rng.sample(range(slots), count):
        flat[pos] = rng.randrange(1, p)
    return tuple(
        tuple(tuple(flat[(i * DIM + j) * DIM:(i * DIM + j + 1) * DIM]) for j in range(DIM))
        for i in range(DIM)
    )


def fixture_cases():
    return [(fx.name, fx.algebra, fx.certified) for fx in builtin_fixtures()]


def uncertified_cases():
    return [
        (fx.name + " uncertified", fx.algebra, None)
        for fx in builtin_fixtures()
        if not fx.algebra.field.is_finite
    ]


def random_cases():
    cases = []
    for p in (2, 3):
        rng = random.Random(f"{SEED}/F_{p}")
        field = GF(p)
        drawn = 0
        while drawn < TABLES_PER_FIELD:
            algebra = Algebra(field, DIM, _random_table(rng, p))
            if any(check_identity(algebra, kind) for kind in IdentityKind):
                cases.append((f"F_{p} #{drawn:03d}", algebra, None))
                drawn += 1
    return cases


def budget_cases():
    """Each case under each of EDGE_BUDGETS."""
    cases = [(fx.name, fx.algebra, fx.certified) for fx in builtin_fixtures(validate=False)]
    for spec, step in (((2, 2, None), 6), ((2, 3, 4), 190)):
        members = pool_members(*spec)
        cases += [
            (f"F_2 dim-{spec[1]} pool #{i}", members[i], None) for i in range(0, len(members), step)
        ]
    cases += [(f"F_3 member #{i:02d}", A, None) for i, A in enumerate(f3_members(30, 20261020))]
    return [
        (f"{name} @ subspaces={b.max_subspaces} vectors={b.max_vectors}", algebra, certified, b)
        for b in EDGE_BUDGETS
        for name, algebra, certified in cases
    ]


def over_budget_cases():
    return [(f"tpoly{k} over F_2", truncated_polynomial(GF(2), k), None) for k in (9, 10)]


def _digests(cases):
    return {
        name: report_digest(algebra, certified, *budget)
        for name, algebra, certified, *budget in cases
    }


def _mismatches(cases):
    recorded = json.loads(DATA.read_text())
    got = _digests(cases)
    assert set(got) <= set(recorded), sorted(set(got) - set(recorded))
    return sorted(name for name in got if got[name] != recorded[name])


def test_fixture_reports_are_unchanged():
    assert _mismatches(fixture_cases()) == []


def test_uncertified_rational_fixture_reports_are_unchanged():
    cases = uncertified_cases()
    assert len(cases) == 3
    assert _mismatches(cases) == []


def test_random_table_reports_are_unchanged():
    cases = random_cases()
    assert len(cases) == 2 * TABLES_PER_FIELD
    assert _mismatches(cases) == []


def test_reports_under_small_budgets_are_unchanged():
    cases = budget_cases()
    assert len(cases) == len(EDGE_BUDGETS) * 116
    assert _mismatches(cases) == []


def test_reports_past_the_subspace_budget_are_unchanged():
    assert _mismatches(over_budget_cases()) == []


if __name__ == "__main__":
    digests = _digests(
        fixture_cases() + uncertified_cases() + random_cases() + budget_cases()
        + over_budget_cases()
    )
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} report digests written to {DATA}")
