"""Golden reports: `verify_all` output pinned byte for byte.

For each algebra the 41 reports (check id, description, verdict, reason,
witness, counterexample, assumed and notes, with subspaces encoded as the
CLI encodes them) are serialized as key-sorted JSON and pinned by sha256 in
`tests/data/verify_golden.json`.  The algebras are the shipped fixtures with
their certificates, every fixture over Q again without its certificate, and
seeded dimension-3 tables over F_2 and F_3 with at most four nonzero
constants that satisfy at least one identity class.

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
from nonassoc.corpus import builtin_fixtures
from nonassoc.fields import GF
from nonassoc.verify import describe, verify_all

DATA = Path(__file__).parent / "data" / "verify_golden.json"
SEED = 20231213
TABLES_PER_FIELD = 150
DIM = 3
MAX_NONZERO = 4


def report_digest(algebra, certified=None):
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
        for r in verify_all(algebra, certified=certified)
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


def _digests(cases):
    return {name: report_digest(algebra, certified) for name, algebra, certified in cases}


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


if __name__ == "__main__":
    digests = _digests(fixture_cases() + uncertified_cases() + random_cases())
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} report digests written to {DATA}")
