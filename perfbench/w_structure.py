"""`structure`: the library calls behind the CLI's structure subcommands.

Each pass holds one algebra of each family per (field, dimension) slot: the
truncated polynomial, a direct sum of shipped bicommutative fixture tables,
and a seeded random strictly upper-triangular (so nilpotent) table.  The
sums are fixed per slot, since sums of different summands differ in cost by
orders of magnitude; the seed enters through the random tables.
Each algebra gets `minimal_ideals`, `chief_series` and the solvable `radical`;
the nil radicals when it lies in a natural identity class; and
`maximal_subalgebras` and `frattini` when its subspaces number at most
`SUBSPACE_CAP`.  Each pass ends with the two performance-gate probes.  Every
pass has the same mix of fields, dimensions, families and queries, so runs
on different seeds measure the same kind of work.  At ambient dimension n the
q^n projective sweeps and the subspace lists dominate the time.
"""

from __future__ import annotations

import functools
import itertools
import random

from nonassoc import corpus, enumeration, series
from nonassoc.algebra import Algebra, direct_sum
from nonassoc.corpus import truncated_polynomial
from nonassoc.enumeration import RadicalKind, count_subspaces
from nonassoc.fields import GF

import oracle
from harness import Workload, seeded

SLOTS = ((2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6))
FAMILIES = ("tpoly", "dsum", "nil")
# Far below the default enumeration budget of 10**6, to keep a pass near ten
# seconds: frattini(tpoly8 over F_2) alone, over 417,199 subspaces, takes
# about 8 s.  This admits F_2 up to dimension 7 and F_3 up to dimension 5.
SUBSPACE_CAP = 30_000
NIL_KINDS = (RadicalKind.NIL, RadicalKind.RIGHT_NIL, RadicalKind.LEFT_NIL)


def _strip(algebra):
    """The same table without basis labels.

    Sums are built from unlabelled tables because `direct_sum` primes the
    labels of each side, so a labelled sum of three summands repeats a label
    (x'' twice) and is refused with "basis labels must be distinct".
    """
    return Algebra(algebra.field, algebra.dim, algebra.table)


def _summands(pieces, n):
    """Pieces, drawn by a fixed generator, whose dimensions add up to n."""
    rng = random.Random(n)
    out = []
    while sum(a.dim for a in out) < n:
        room = n - sum(a.dim for a in out)
        out.append(rng.choice([a for a in pieces if a.dim <= room]))
    return out


def nilpotent_table(rng, p, n, density=0.4):
    """e_i e_j lies in the span of the e_k with k > max(i, j)."""
    return tuple(
        tuple(
            tuple(
                rng.randrange(1, p) if k > max(i, j) and rng.random() < density else 0
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


class Structure(Workload):
    name = "structure"
    PASSES = 2  # generated; a run repeats them if it outlasts them

    def setup(self):
        fields = {p: GF(p) for p in (2, 3)}
        # bicommutative summands, so that every sum is bicommutative too
        pieces = {p: [truncated_polynomial(f, 1)] for p, f in fields.items()}
        for fx in corpus.builtin_fixtures(validate=False):
            A = fx.algebra
            p = A.field.order if A.field.is_finite else None
            if p in pieces and oracle.holds(A.table, p, "bicommutative"):
                pieces[p].append(_strip(A))
        sums = {slot: functools.reduce(direct_sum, _summands(pieces[slot[0]], slot[1])) for slot in SLOTS}
        self.items = []  # (family, p, n, algebra), indexed by the queries
        self.passes = []
        for number in range(self.PASSES):
            rng = seeded(self.seed, "structure", number)
            queries = []
            for (p, n), family in itertools.product(SLOTS, FAMILIES):
                field = fields[p]
                if family == "tpoly":
                    algebra = truncated_polynomial(field, n)
                elif family == "nil":
                    algebra = Algebra(field, n, nilpotent_table(rng, p, n))
                else:
                    algebra = sums[(p, n)]
                item = len(self.items)
                self.items.append((family, p, n, algebra))
                queries += [(item, "minimal_ideals", None), (item, "chief_series", None),
                            (item, "radical", RadicalKind.SOLVABLE)]
                if any(oracle.holds(algebra.table, p, k) for k in oracle.NATURAL):
                    queries += [(item, "radical", kind) for kind in NIL_KINDS]
                if count_subspaces(field, n) <= SUBSPACE_CAP:
                    queries += [(item, "maximal_subalgebras", None), (item, "frattini", None)]
            queries += [(None, "probe_maximal", None), (None, "probe_radical", None)]
            self.passes.append(queries)
        self.stream = [q for queries in self.passes for q in queries]
        self.trace_requests = len(self.passes[0])
        self.probe_maximal = truncated_polynomial(fields[2], 5)
        self.probe_radical = truncated_polynomial(fields[2], 16)

    def at_boundary(self, count):
        """Whether `count` requests end a whole number of passes."""
        count %= len(self.stream)
        total = 0
        for queries in self.passes:
            if count == total:
                return True
            total += len(queries)
        return count == total

    def request(self, i):
        item, what, kind = self.stream[i % len(self.stream)]
        if what == "probe_maximal":
            A = self.probe_maximal
            return (item, what, kind), lambda: enumeration.maximal_subalgebras(A)
        if what == "probe_radical":
            A = self.probe_radical
            return (item, what, kind), lambda: enumeration.radical(A, RadicalKind.SOLVABLE)
        A = self.items[item][3]
        call = {
            "minimal_ideals": lambda: enumeration.minimal_ideals(A),
            "chief_series": lambda: series.chief_series(A).ideals,
            "radical": lambda: enumeration.radical(A, kind),
            "maximal_subalgebras": lambda: enumeration.maximal_subalgebras(A),
            "frattini": lambda: enumeration.frattini(A),
        }[what]
        return (item, what, kind), call

    def check(self, records):
        bad = {}
        for r in records:
            problem = self._problem(r.key, r.output)
            if problem:
                bad[r.index] = f"{r.key[1]} on item {r.key[0]}: {problem}"
        return bad

    def _problem(self, key, out):
        item, what, kind = key
        if what == "probe_maximal":
            return None if [m.dim for m in out] == [4] else f"dims {[m.dim for m in out]}, expected [4]"
        if what == "probe_radical":
            return None if out.dim == 16 else f"dim {out.dim}, expected the full 16"
        family, p, n, A = self.items[item]
        table = A.table
        nilpotent = family in ("tpoly", "nil")  # closed forms hold for these

        def ideal(sub):
            return oracle.is_ideal(table, [list(b) for b in sub.basis], p)

        if what == "chief_series":
            if out[0].dim != 0 or out[-1].dim != n:
                return "does not run from 0 to A"
            for low, high in zip(out, out[1:]):
                if high.dim <= low.dim or not oracle.contains_all(high.basis, low.basis, p):
                    return "not an ascending chain"
            if not all(ideal(b) for b in out):
                return "a term is not an ideal"
            if nilpotent and any(high.dim - low.dim != 1 for low, high in zip(out, out[1:])):
                return "a chief factor of a nilpotent algebra is not 1-dimensional"
        elif what == "radical":
            if not ideal(out):
                return "not an ideal"
            if nilpotent and out.dim != n:
                return "the radical of a nilpotent algebra is not the whole algebra"
        elif what == "minimal_ideals":
            if not out or not all(ideal(b) and b.dim > 0 for b in out):
                return "a minimal ideal is not a nonzero ideal"
        elif what == "maximal_subalgebras":
            if not all(oracle.is_subalgebra(table, [list(b) for b in m.basis], p) for m in out):
                return "a maximal subalgebra is not a subalgebra"
        elif what == "frattini":
            if not ideal(out.ideal) or not oracle.contains_all(out.subalgebra.basis, out.ideal.basis, p):
                return "the Frattini ideal is not an ideal inside the Frattini subalgebra"
            if nilpotent:
                square = oracle.square(table, p)
                for part in (out.subalgebra, out.ideal):
                    if not oracle.same_space([list(b) for b in part.basis], square, p):
                        return "Frattini data of a nilpotent algebra differ from A^2"
        return None
