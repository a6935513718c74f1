"""`sweep`: the theorem-soundness sweep in miniature.

`verify_all` over the 26 shipped fixtures with their certificates and over a
seeded sample of searched-table pool members over F_2 and F_3 (dimension 3,
at most four nonzero constants).  Members are drawn uniformly from each spec's
table space, rejecting tables that satisfy no identity class, so the pool is
never built.  Fields alternate and the fixtures are spread evenly through the
stream, so every stretch of it, and every repeat, has the same mix.
"""

from __future__ import annotations

import importlib

from nonassoc import corpus
from nonassoc.algebra import Algebra
from nonassoc.fields import GF

import oracle
from harness import Workload, seeded, uniform_table

SPECS = ((2, 3, 4), (3, 3, 4))
# the package attribute `nonassoc.verify` is the function, not the module
verify = importlib.import_module("nonassoc.verify")


class Sweep(Workload):
    name = "sweep"
    # Pool members drawn per spec; a run repeats the stream if it outlasts it.
    MEMBERS = 800

    def setup(self):
        fixtures = [(fx.name, fx.algebra, fx.certified) for fx in corpus.builtin_fixtures(validate=False)]
        drawn = []
        for p, n, sparsity in SPECS:
            rng = seeded(self.seed, "sweep", p)
            field = GF(p)
            members = []
            while len(members) < self.MEMBERS:
                table = uniform_table(rng, p, n, sparsity)
                if oracle.any_primitive(table, p):
                    members.append((f"F_{p} {table}", Algebra(field, n, table), None))
            drawn.append(members)
        members = [m for pair in zip(*drawn) for m in pair]
        step = len(members) // len(fixtures)
        self.stream = []
        for k, fixture in enumerate(fixtures):
            self.stream += [fixture] + members[k * step: (k + 1) * step]
        self.stream += members[len(fixtures) * step:]
        self.trace_requests = len(self.stream)  # every fixture, every member once

    def request(self, i):
        name, algebra, certified = self.stream[i % len(self.stream)]
        return name, lambda: verify.verify_all(algebra, certified=certified)

    def compact(self, i, output):
        """The number of reports and the applicable checks that fail."""
        return len(output), [rep.check.value for rep in output if rep.applicable and not rep.holds]

    def check(self, records):
        bad = {}
        expected = len(verify.CheckId)
        for r in records:
            count, failed = r.output
            if count != expected:
                bad[r.index] = f"{r.key}: {count} reports, expected {expected}"
            elif failed:
                bad[r.index] = f"{r.key}: applicable checks fail: {failed}"
        return bad
