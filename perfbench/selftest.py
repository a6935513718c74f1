"""Negative self-test: every workload's output check can fail.

For each workload, run a few requests, confirm that their outputs pass the
check, then feed the checker one deliberately wrong result and confirm that
the failed fraction becomes greater than zero.  Exits 1 if a check misses its
wrong result or rejects a right one.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 11


def _wrong_pool(records):
    # one class of the F_2 dim-2 pool loses a member
    tables = next(iter(records[0].output.values()))
    del tables[0]


def _wrong_search(records):
    # report as a hit a seeded draw that the program rejected
    import w_search

    r = records[0]
    kind, seed = r.key
    drawn = [w_search.encode(t, 3) for t in w_search.random_stream(seed, 3, 3, w_search.Search.SAMPLES)]
    r.output = [code for code in drawn if code not in r.output][:1] + r.output


def _wrong_sweep(records):
    # one applicable check reported as failing
    count, failed = records[0].output
    records[0].output = (count, failed + ["fitting_subalgebra"])


def _wrong_structure(records):
    # a solvable radical of tpoly16 that misses t^16
    from nonassoc.linalg import span

    r = next(r for r in records if r.key[1] == "probe_radical")
    field = r.output.field
    r.output = span(field, 16, [[int(i == j) for j in range(16)] for i in range(15)])


def _wrong_cli(records):
    # a corrupted stdout digest
    r = records[0]
    code, digest = r.output
    r.output = (code, "0" * len(digest))


CASES = {
    "pool": (range(1), _wrong_pool),
    "search": (range(10), _wrong_search),
    "sweep": (range(3), _wrong_sweep),
    "structure": (None, _wrong_structure),
    "cli": (range(2), _wrong_cli),
}


def main():
    run.locate_program()
    from harness import Record, failures

    ok = True
    for name, (indices, corrupt) in CASES.items():
        args = run.parse_args(["--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "0"])
        module, cls = run.WORKLOADS[name]
        workload = getattr(__import__(module), cls)(run.ROOT, run.WORKDIR, args.seed)
        run.WORKDIR.mkdir(exist_ok=True)
        workload.setup()
        if indices is None:  # the gate probes that end the first structure pass
            indices = range(workload.trace_requests - 2, workload.trace_requests)
        records = []
        for i in indices:
            key, thunk = workload.request_in_process(i)
            records.append(Record(i, key, workload.compact(i, thunk()), None, 0.0))
        clean = len(failures(workload, records))
        corrupt(records)
        wrong = len(failures(workload, records))
        verdict = "ok" if clean == 0 and wrong > 0 else "BROKEN"
        ok = ok and verdict == "ok"
        print(f"{name:<10} right results: failed_frac {clean / len(records):.3f}   "
              f"one wrong result: failed_frac {wrong / len(records):.3f}   {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
