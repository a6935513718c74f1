"""Record the exit code and stdout sha256 of every command the `cli` workload
may run, into digests.json next to this file.

Run from the repository root, after a change that is meant to alter CLI
output:  python3 perfbench/record_digests.py
Commands that exit with neither 0 nor 1 (refused or unsupported inputs) are
left out, so the workload runs only commands that succeed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from w_cli import DIGESTS, argv, candidate_commands, emit_fixtures, run_in_process  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        verify, mix = candidate_commands(emit_fixtures(directory))
        recorded = {}
        for group, commands in (("verify", verify), ("mix", mix)):
            entries = []
            for fixture, args in commands:
                entry = {"fixture": fixture, "args": args}
                code, digest = run_in_process(argv(entry, directory))
                if code in (0, 1):
                    entries.append(dict(entry, code=code, sha256=digest))
            recorded[group] = entries
    if len(recorded["verify"]) != len(verify):
        raise SystemExit("a verify command failed; not recording")
    lines = ["{"]
    for n, group in enumerate(("verify", "mix")):
        lines.append(f' "{group}": [')
        lines += [" " + json.dumps(e) + "," for e in recorded[group]]
        lines[-1] = lines[-1].rstrip(",")
        lines.append(" ]," if n == 0 else " ]")
    lines.append("}")
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(recorded['verify'])} verify and {len(recorded['mix'])} mixed commands recorded")


if __name__ == "__main__":
    main()
