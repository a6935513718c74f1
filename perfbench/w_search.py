"""`pool` and `search`: identity classification over generated tables.

`pool` rebuilds the F_2 searched-table pools of the theorem-soundness gate:
one exhaustive `search` call per identity class and spec, on sparse tables that
often pass.  `search` asks for one class at a time on dense random F_3
tables, which usually fail on an early basis triple.
"""

from __future__ import annotations

import hashlib
import math
import random

from nonassoc import corpus
from nonassoc.algebra import IdentityKind
from nonassoc.fields import GF

import oracle
from harness import Workload, nest, seeded, uniform_table

# (prime, dim, max nonzero constants) of the F_2 pools, and their sizes.
POOL_SPECS = ((2, 2, None), (2, 3, 4))
POOL_SIZES = {(2, 2): 178, (2, 3): 5654}
KINDS = tuple(IdentityKind)
# Tables each exhaustive call yields, in the order of KINDS.
KIND_COUNTS = {
    (2, 2): (88, 88, 40, 58, 58, 34, 52, 52, 28, 64),
    (2, 3): (2662, 2662, 776, 1070, 1070, 392, 557, 557, 254, 706),
}


def space_size(p, n, max_nonzero):
    slots = n ** 3
    if max_nonzero is None:
        return p ** slots
    return sum(math.comb(slots, s) * (p - 1) ** s for s in range(max_nonzero + 1))


class Pool(Workload):
    """One request is one whole build of both pools: an exhaustive `search`
    call per identity class and spec, as the soundness gate builds them."""

    name = "pool"
    trace_requests = 1
    # Pool members and random tables per spec whose kind sets the oracle re-decides.
    ORACLE_SAMPLE = 40

    def setup(self):
        self.calls = [(spec, kind) for spec in POOL_SPECS for kind in KINDS]
        self.fields = {p: GF(p) for p, _, _ in POOL_SPECS}

    def warm_up(self):
        list(corpus.search(self.fields[2], 2, KINDS[0], mode="exhaustive"))

    def request(self, i):
        calls, fields = self.calls, self.fields

        def thunk():
            return {
                (spec, kind): [
                    A.table
                    for A in corpus.search(fields[spec[0]], spec[1], kind, mode="exhaustive", sparsity=spec[2])
                ]
                for spec, kind in calls
            }

        return i, thunk

    def units(self, key, output):
        # distinct tables, each classified against all ten kinds
        return sum(space_size(*spec) for spec in POOL_SPECS)

    def compact(self, i, output):
        # later builds are kept as a digest, so memory does not grow with their number
        return output if i == 0 else _digest(output)

    def check(self, records):
        bad = {}
        first = next((r.output for r in records if r.index == 0), None)
        for r in records:
            if r.index == 0:
                problem = self._problem(r.output)
            elif first is None:
                problem = "the first build, needed to check this one, is missing"
            else:
                problem = None if r.output == _digest(first) else "differs from the first build"
            if problem:
                bad[r.index] = problem
        return bad

    def _problem(self, output):
        for spec in POOL_SPECS:
            members = {}
            for kind, expected in zip(KINDS, KIND_COUNTS[spec[:2]]):
                tables = output[(spec, kind)]
                if len(tables) != expected:
                    return f"{spec} {kind.value}: {len(tables)} tables, expected {expected}"
                for table in tables:
                    members.setdefault(table, set()).add(kind.value)
            if len(members) != POOL_SIZES[spec[:2]]:
                return f"pool {spec}: {len(members)} members, expected {POOL_SIZES[spec[:2]]}"
            # the oracle re-decides all ten kinds on sampled members and on
            # tables drawn uniformly from the spec's space (members or not)
            p, n, sparsity = spec
            rng = seeded(self.seed, "pool-oracle", spec)
            tables = rng.sample(sorted(members), min(self.ORACLE_SAMPLE, len(members)))
            tables += [uniform_table(rng, p, n, sparsity) for _ in range(self.ORACLE_SAMPLE)]
            for table in tables:
                if oracle.kinds_holding(table, p) != members.get(table, set()):
                    return f"{spec}: wrong kinds for {table}"
        return None


def _digest(output):
    return hashlib.sha256(repr(sorted(output.items())).encode()).hexdigest()


class Search(Workload):
    name = "search"
    stop_every = len(KINDS)  # every kind equally often
    trace_requests = 2 * len(KINDS)
    PRIME, DIM, SAMPLES = 3, 3, 400
    STREAM = 3000  # requests generated; a run repeats the stream if it outlasts it
    # Requests whose stream the benchmark regenerates to re-decide misses, and
    # misses re-decided in each.
    MISS_REQUESTS, MISSES_EACH = 12, 15

    def setup(self):
        rng = seeded(self.seed, "search-stream")
        self.stream = []
        while len(self.stream) < self.STREAM:
            block = list(KINDS)
            rng.shuffle(block)
            self.stream.extend((kind, rng.getrandbits(32)) for kind in block)
        self.field = GF(self.PRIME)

    def request(self, i):
        kind, seed = self.stream[i % len(self.stream)]
        field, dim, samples = self.field, self.DIM, self.SAMPLES

        def thunk():
            return [A.table for A in corpus.search(field, dim, kind, mode="random", samples=samples, seed=seed)]

        return (kind, seed), thunk

    def compact(self, i, output):
        return [encode(table, self.PRIME) for table in output]

    def units(self, key, output):
        return self.SAMPLES

    def check(self, records):
        bad = {}
        p = self.PRIME
        for r in records:
            kind, _ = r.key
            for table in (decode(code, p, self.DIM) for code in r.output):
                if not oracle.holds(table, p, kind.value):
                    bad[r.index] = f"{kind.value}: hit {table} fails the identity"
                    break
        rng = seeded(self.seed, "search-misses")
        for r in rng.sample(records, min(self.MISS_REQUESTS, len(records))):
            if r.index in bad:
                continue
            kind, seed = r.key
            drawn = random_stream(seed, p, self.DIM, self.SAMPLES)
            hits = (decode(code, p, self.DIM) for code in r.output)
            want = next(hits, None)
            misses = []
            for table in drawn:
                if table == want:
                    want = next(hits, None)
                else:
                    misses.append(table)
            if want is not None:
                bad[r.index] = f"{kind.value}: hits are not a subsequence of the seeded draws"
                continue
            for table in rng.sample(misses, min(self.MISSES_EACH, len(misses))):
                if oracle.holds(table, p, kind.value):
                    bad[r.index] = f"{kind.value}: missed {table}, which satisfies it"
                    break
        return bad


def encode(table, p):
    """A table as one integer, its constants read as base-p digits."""
    code = 0
    for row in table:
        for vec in row:
            for x in vec:
                code = code * p + x
    return code


def decode(code, p, n):
    flat = []
    for _ in range(n ** 3):
        code, x = divmod(code, p)
        flat.append(x)
    flat.reverse()
    return nest(flat, n)


def random_stream(seed, p, n, samples, zero_probability=0.75):
    """The tables random-mode `search` draws for a seed: each constant, slot by
    slot, is zero with the given probability and else a uniform nonzero residue.
    This mirrors the documented generator so that misses can be re-decided."""
    rng = random.Random(seed)
    nonzero = list(range(1, p))
    out = []
    for _ in range(samples):
        flat = []
        for _ in range(n ** 3):
            flat.append(rng.choice(nonzero) if rng.random() >= zero_probability else 0)
        out.append(nest(flat, n))
    return out
