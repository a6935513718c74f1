"""The closed loop shared by every workload, and its statistics.

One client sends one request at a time: the next request starts only after
the previous one has returned, on one thread.  A workload supplies a seeded,
repeatable request stream; the loop times each request and keeps its output
so that the workload can check every output after the timed region.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass


@dataclass
class Record:
    index: int
    key: object
    output: object
    error: str | None
    seconds: float


class Workload:
    """A seeded request stream plus the checks for its outputs.

    Subclasses set `name`, build their inputs in `setup()` from `self.seed`,
    and implement `request(i)`, returning ``(key, thunk)`` for the i-th request
    of the stream; the stream repeats when a run outlasts it.
    """

    name = ""
    # The timed loop may stop only after a multiple of this many requests,
    # so every run measures the same mix of request types.
    stop_every = 1
    # Fixed number of requests in a traced run, so counts repeat exactly.
    trace_requests = 1

    def __init__(self, root, workdir, seed):
        self.root = root
        self.workdir = workdir
        self.seed = seed

    def setup(self):
        """Build every input from the seed (imports, generation, emission)."""

    def at_boundary(self, count):
        """Whether the timed loop may stop after `count` requests."""
        return count % self.stop_every == 0

    def warm_up(self):
        """Run the first request once, untimed and unchecked."""
        self.request(0)[1]()

    def request(self, i):
        raise NotImplementedError

    def request_in_process(self, i):
        """The request as the traced run replays it; in process by default."""
        return self.request(i)

    def compact(self, i, output):
        """What the run keeps of request i's output for the check; outputs
        kept whole must not make peak memory grow with the request count."""
        return output

    def units(self, key, output):
        """Operations a request completed, for the throughput metric."""
        return 1

    def check(self, records):
        """Failure messages by record index, for outputs that are wrong."""
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_requests(workload, seconds=None, count=None, in_process=False, on_request=None):
    """Closed loop: stop after `count` requests, or once `seconds` have passed
    at a point where `workload.at_boundary` allows it."""
    make = workload.request_in_process if in_process else workload.request
    records = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        key, thunk = make(i)
        if on_request is not None:
            on_request(i)
        began = clock()
        try:
            output, error = thunk(), None
        except Exception:  # a request that raises is one failed operation
            output, error = None, traceback.format_exc(limit=4)
        took = clock() - began
        if error is None:
            output = workload.compact(i, output)
        records.append(Record(i, key, output, error, took))
        i += 1
        if count is not None:
            if i >= count:
                break
        elif workload.at_boundary(i) and clock() - start >= seconds:
            break
    return records, clock() - start


def failures(workload, records):
    """Every failed request: raised, or gave an output its check rejects."""
    out = {r.index: "raised: " + r.error for r in records if r.error is not None}
    for index, message in workload.check([r for r in records if r.error is None]).items():
        out.setdefault(index, message)
    return out


def percentile(values, q):
    """Linear-interpolated q-th percentile (the 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def uniform_table(rng, p, n, max_nonzero=None):
    """A structure-constant table drawn uniformly from the tables over F_p of
    dimension n with at most `max_nonzero` nonzero constants (any if None)."""
    slots = n ** 3
    if max_nonzero is None:
        flat = [rng.randrange(p) for _ in range(slots)]
    else:
        weights = [math.comb(slots, s) * (p - 1) ** s for s in range(max_nonzero + 1)]
        count = rng.choices(range(max_nonzero + 1), weights=weights)[0]
        flat = [0] * slots
        for pos in rng.sample(range(slots), count):
            flat[pos] = rng.randrange(1, p)
    return nest(flat, n)


def nest(flat, n):
    """The table whose constants, slot (i, j, k) in row-major order, are `flat`."""
    return tuple(
        tuple(tuple(flat[(i * n + j) * n: (i * n + j + 1) * n]) for j in range(n)) for i in range(n)
    )


def seeded(seed, *salt):
    """An RNG for one purpose, independent of the others drawn from the seed."""
    return random.Random(repr((seed,) + salt))
