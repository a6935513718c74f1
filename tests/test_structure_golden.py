"""Golden decompositions: `phi_free_split` and `decompose_semisimple_bicommutative`
pinned byte for byte, and so are the `split` and `decompose` commands.

Each builder runs on the shipped fixtures and on the seeded tables of
`test_verify_golden.py`.  A result is serialized as key-sorted JSON (every
dataclass field, subspaces encoded as the CLI encodes them); a refusal as the
exception type and its precondition name.  The CLI cases pin the exit code
and stdout of `nonassoc split FILE` and `nonassoc decompose FILE --output
json` on every emitted fixture.  All are pinned by sha256 in
`tests/data/structure_golden.json`.

Re-record (only when a result is meant to change) with
    PYTHONPATH=src:tests python tests/test_structure_golden.py
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

from nonassoc.cli import _jsonable, main
from nonassoc.errors import ToolkitError
from nonassoc.fileformat import serialize_document
from nonassoc.linalg import Subspace
from nonassoc.structure import decompose_semisimple_bicommutative, phi_free_split

from test_verify_golden import fixture_cases, random_cases

DATA = Path(__file__).parent / "data" / "structure_golden.json"
BUILDERS = {"split": phi_free_split, "decompose": decompose_semisimple_bicommutative}


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, Subspace):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return _jsonable(value)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def builder_digest(build, algebra):
    try:
        outcome = {"result": _plain(build(algebra))}
    except ToolkitError as e:
        outcome = {"refused": type(e).__name__, "precondition": getattr(e, "precondition", None)}
    return _sha(json.dumps(outcome, sort_keys=True, separators=(",", ":")))


def builder_digests():
    cases = fixture_cases() + random_cases()
    return {
        f"{kind} {name}": builder_digest(build, algebra)
        for kind, build in BUILDERS.items()
        for name, algebra, _ in cases
    }


def cli_digests(directory):
    out = {}
    for name, algebra, certified in fixture_cases():
        path = Path(directory) / f"{name}.json"
        path.write_bytes(serialize_document(algebra, name=name, certified=certified))
        for argv in (["split", str(path)], ["decompose", str(path), "--output", "json"]):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            out[f"cli {argv[0]} {name}"] = _sha(f"{code}\n{stdout.getvalue()}")
    return out


def _mismatches(got):
    recorded = json.loads(DATA.read_text())
    assert set(got) <= set(recorded), sorted(set(got) - set(recorded))
    return sorted(name for name in got if got[name] != recorded[name])


def test_builder_results_are_unchanged():
    got = builder_digests()
    assert len(got) == 2 * (26 + 300)
    assert _mismatches(got) == []


def test_split_and_decompose_commands_are_unchanged(tmp_path):
    got = cli_digests(tmp_path)
    assert len(got) == 2 * 26
    assert _mismatches(got) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {**builder_digests(), **cli_digests(tmp)}
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DATA}")
