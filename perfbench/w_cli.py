"""`cli`: one fresh interpreter per command, run one at a time.

The commands are `verify FILE --all --output json` on each of the 26 shipped
fixtures, emitted as files, interleaved with a seeded mix of `check
--identity`, `chief-series` and `radical` on the same files.  Every command's
exit code and the sha256 of its stdout must match `digests.json`, recorded
by `record_digests.py`.  Commands alternate between two PYTHONHASHSEED values,
so output that depends on string hashing shows as a digest mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from nonassoc import cli, corpus, fileformat
from nonassoc.algebra import IdentityKind
from nonassoc.enumeration import RadicalKind

from harness import Workload, seeded

DIGESTS = Path(__file__).with_name("digests.json")
HASH_SEEDS = ("0", "4242")
VERIFY_ARGS = ["verify", "--all", "--output", "json"]


def emit_fixtures(directory):
    """Write each shipped fixture, with its certificate, as DIRECTORY/<name>.json."""
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for fx in corpus.builtin_fixtures(validate=False):
        data = fileformat.serialize_document(fx.algebra, name=fx.name, note=fx.note, certified=fx.certified)
        (directory / f"{fx.name}.json").write_bytes(data)
        names.append((fx.name, fx.algebra.field.is_finite))
    return names


def candidate_commands(names):
    """Every command the workload may run, as (fixture, args) pairs; the
    recorder keeps those that exit 0 or 1."""
    verify = [(name, VERIFY_ARGS) for name, _ in names]
    mix = []
    for name, finite in names:
        mix += [(name, ["check", "--identity", kind.value]) for kind in IdentityKind]
        if finite:
            mix.append((name, ["chief-series"]))
            mix += [(name, ["radical", "--which", kind.value]) for kind in RadicalKind]
    return verify, mix


def argv(entry, directory):
    """The command line: subcommand, file, then the remaining arguments."""
    args = entry["args"]
    return [args[0], str(directory / f"{entry['fixture']}.json")] + args[1:]


def run_in_process(args):
    """Exit code and stdout digest of `nonassoc.cli.main(args)` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


class Cli(Workload):
    name = "cli"
    stop_every = 2  # one verify command and one mixed command
    trace_requests = 26
    PASSES = 10  # generated; a run repeats them if it outlasts them

    def setup(self):
        self.directory = self.workdir / "cli-fixtures"
        emit_fixtures(self.directory)
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.stream = []
        for number in range(self.PASSES):
            rng = seeded(self.seed, "cli", number)
            verify = list(recorded["verify"])
            rng.shuffle(verify)
            mix = rng.sample(recorded["mix"], len(verify))
            self.stream += [e for pair in zip(verify, mix) for e in pair]
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # the bytecode cache stays warm
        self.child_rss_kb = 0

    def request(self, i):
        entry = self.stream[i % len(self.stream)]
        command = [sys.executable, "-m", "nonassoc.cli"] + argv(entry, self.directory)
        env = dict(self.env, PYTHONHASHSEED=HASH_SEEDS[(i // 2) % 2])

        def thunk():
            proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=self.root
            )
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            return proc.returncode, hashlib.sha256(out).hexdigest()

        return entry, thunk

    def request_in_process(self, i):
        entry = self.stream[i % len(self.stream)]
        args = argv(entry, self.directory)
        return entry, lambda: run_in_process(args)

    def check(self, records):
        bad = {}
        for r in records:
            code, digest = r.output
            if code != r.key["code"]:
                bad[r.index] = f"{r.key['args']} on {r.key['fixture']}: exit {code}, expected {r.key['code']}"
            elif digest != r.key["sha256"]:
                bad[r.index] = f"{r.key['args']} on {r.key['fixture']}: stdout digest differs"
        return bad

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024.0
