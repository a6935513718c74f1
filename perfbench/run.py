"""Benchmark for the nonassoc toolkit: one workload per run, closed loop, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen): pool, search, sweep,
structure, cli; `all` runs each in turn in a fresh interpreter and prefixes its
metrics with the workload name.  Every input comes from --seed; the program
receives only the generated algebras and files.  Outputs are checked after the
timed region.

--trace 0 measures the end-to-end metrics: requests run for S seconds (to the
next whole mix of request types) and the run reports set-up time (median of
three set-ups, two of them in fresh interpreters), operations per second,
the geometric mean and the 90th percentile of request latency, and peak RSS.
The geometric mean stands in for the median because the structure workload
mixes queries whose costs differ by three orders of magnitude, and there the
median falls in a gap between clusters and jumps from seed to seed.

--trace 1 runs a fixed number of requests twice, in process: untraced, then
with spans and counters installed around nonassoc's layers, and reports the
per-layer metrics and the tracing overhead.  Spans are written to
perfbench/.work/trace-<workload>.tsv.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
WORKLOADS = {
    "pool": ("w_search", "Pool"),
    "search": ("w_search", "Search"),
    "sweep": ("w_sweep", "Sweep"),
    "structure": ("w_structure", "Structure"),
    "cli": ("w_cli", "Cli"),
}
SETUPS = 3  # set-ups per run; the median is reported
IMPORT_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def locate_program():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "nonassoc" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no nonassoc sources under {src}")
    sys.path.insert(0, str(src))
    import nonassoc

    if src.resolve() not in Path(nonassoc.__file__).resolve().parents:
        raise SystemExit(f"run.py: nonassoc was imported from {nonassoc.__file__}, not {src}")
    return src


def set_up(args):
    """Imports, input generation, emission and warm-up; returns the workload
    and the seconds since this interpreter started running this file."""
    module, cls = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    workload = getattr(importlib.import_module(module), cls)(ROOT, WORKDIR, args.seed)
    workload.setup()
    workload.warm_up()
    return workload, time.perf_counter() - _START


def child_seconds(command, env=None):
    """Run a fresh interpreter that prints a number as its last line."""
    proc = subprocess.run(
        command, capture_output=True, text=True, env=env, cwd=ROOT, timeout=150, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup_probe(args):
    return child_seconds(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    )


def cold_import_seconds(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import time; t = time.perf_counter(); import nonassoc.cli; print(time.perf_counter() - t)"
    return statistics.median(child_seconds([sys.executable, "-c", code], env) for _ in range(IMPORT_PROBES))


def end_to_end(args, workload, setup_seconds):
    from harness import failures, percentile, run_requests

    records, wall = run_requests(workload, seconds=args.seconds)
    rss = workload.peak_rss_mb()
    bad = failures(workload, records)
    setups = [setup_seconds] + [setup_probe(args) for _ in range(SETUPS - 1)]
    latencies = [r.seconds * 1000.0 for r in records]
    done = sum(workload.units(r.key, r.output) for r in records if r.error is None)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (done / wall, "1/s"),
        "gmean_ms": (statistics.geometric_mean(latencies), "ms"),
        "p90_ms": (percentile(latencies, 90), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return records, bad, metrics


def traced(args, workload, src):
    from harness import failures, run_requests
    from tracer import Tracer, layer_metrics

    count = workload.trace_requests
    plain, plain_wall = run_requests(workload, count=count, in_process=True)
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()  # set-up replayed under the tracer, as request -1
        records, wall = run_requests(
            workload, count=count, in_process=True,
            on_request=lambda i: setattr(tracer, "request", i),
        )
    finally:
        tracer.uninstall()
    bad = failures(workload, plain)
    for index, message in failures(workload, records).items():
        bad.setdefault(index, message)
    tracer.write(WORKDIR / f"trace-{args.workload}.tsv")
    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = (cold_import_seconds(src), "s")
    metrics["trace.overhead_ratio"] = (wall / plain_wall, "ratio")
    return records, bad, metrics


def run_all(args):
    """Every workload in a fresh interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    src = locate_program()
    sys.path.insert(0, str(HERE))
    workload, setup_seconds = set_up(args)
    if args.setup_probe:
        print(setup_seconds)
        return 0
    if args.trace:
        records, bad, metrics = traced(args, workload, src)
    else:
        records, bad, metrics = end_to_end(args, workload, setup_seconds)
    for index in sorted(bad)[:10]:
        print(f"FAILED request {index}: {bad[index]}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  requests {len(records)}  "
          f"failed {len(bad)}  failed_frac {len(bad) / len(records):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:>16.6g} {unit}")
    result = {
        "correct": not bad,
        "attempted": len(records),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
