"""End-to-end tests of the command-line interface via main(argv)."""
from __future__ import annotations

import json
import os

import pytest

from nonassoc.cli import main
from nonassoc.corpus import fixture_by_name
from nonassoc.fileformat import serialize_document
from nonassoc.verify import CheckId


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def emit(tmp_path):
    def write(name, **overrides):
        fx = fixture_by_name(name)
        certified = overrides.pop("certified", fx.certified)
        path = tmp_path / f"{name}.json"
        path.write_bytes(
            serialize_document(fx.algebra, name=fx.name, note=fx.note, certified=certified)
        )
        return str(path)

    return write


def test_info_text(run, emit):
    code, out, err = run("info", emit("a_ex_f2"))
    assert code == 0 and err == ""
    assert "field: F_2" in out
    assert "dim: 2" in out
    assert "basis: x, y" in out
    assert "x*x = x" in out
    assert "bicommutative: True" in out
    assert "commutative: False" in out
    assert "nilpotent: False" in out


def test_info_json(run, emit):
    code, out, err = run("info", emit("a_ex_f2"), "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "a_ex_f2"
    assert payload["dim"] == 2
    assert payload["identities"]["bicommutative"] is True
    assert payload["identities"]["associative"] is False
    assert payload["nilpotency"]["solvable"] is False


def test_info_zero_algebra(run, emit):
    code, out, _ = run("info", emit("zero3_f2"))
    assert code == 0
    assert "(all zero)" in out


def test_check_pass_and_fail(run, emit):
    path = emit("a_ex_f2")
    code, out, _ = run("check", path, "--identity", "bicommutative")
    assert code == 0
    assert "bicommutative: holds" in out
    code, out, _ = run("check", path, "--identity", "commutative")
    assert code == 1
    assert "commutative: fails" in out
    assert "fails commutative on (x, y)" in out
    assert "lhs = x" in out
    assert "rhs = 0" in out


def test_check_json_witness(run, emit):
    code, out, _ = run(
        "check", emit("a_ex_f2"), "--identity", "associative", "--output", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"]["basis_indices"] is not None
    assert payload["witness"]["lhs"] != payload["witness"]["rhs"]


def test_series_text(run, emit):
    code, out, _ = run("series", emit("tpoly3_f2"), "--kind", "derived")
    assert code == 0
    assert out.splitlines() == [
        "derived series:",
        "  term 1: dim 3  span{t, t2, t3}",
        "  term 2: dim 2  span{t2, t3}",
        "  term 3: dim 0  0",
        "reaches 0 at index 3",
    ]


def test_series_stabilizes_without_zero(run, emit):
    code, out, _ = run("series", emit("shift_f3"), "--kind", "right-power")
    assert code == 0
    assert "stabilizes without reaching 0" in out


def test_radical(run, emit):
    code, out, _ = run("radical", emit("shift_f3"), "--which", "solvable")
    assert code == 0
    assert "solvable radical: dim 2" in out
    code, out, err = run("radical", emit("a_ex_q"), "--which", "solvable")
    assert code == 3
    assert out == ""
    assert "unsupported:" in err and "finite field" in err


def test_frattini_text_frozen(run, emit):
    code, out, _ = run("frattini", emit("tpoly3_f2"))
    assert code == 0
    assert out.splitlines() == [
        "frattini subalgebra: dim 2  span{t2, t3}",
        "frattini ideal: dim 2  span{t2, t3}",
    ]


def test_minimal_ideals(run, emit):
    code, out, _ = run("minimal-ideals", emit("a_ex_f2"))
    assert code == 0
    assert "minimal ideals: 1" in out
    assert "dim 1  span{x}" in out


def test_chief_series_text(run, emit):
    code, out, _ = run("chief-series", emit("tpoly3_f2"))
    assert code == 0
    assert out.splitlines() == [
        "chief series:",
        "  dim 0  0",
        "  dim 1  span{t3}",
        "  dim 2  span{t2, t3}",
        "  dim 3  span{t, t2, t3}",
        "factor dims: 1, 1, 1",
    ]


def test_decompose(run, emit):
    code, out, _ = run("decompose", emit("a_ex_f3"))
    assert code == 0
    assert "square: dim 1  span{x}" in out
    assert "dim 1  span{x}  (U*S = 0)" in out
    assert "square-zero complement U: dim 1  span{y}" in out
    code, _, err = run("decompose", emit("tpoly3_f2"))
    assert code == 3
    assert "refused:" in err


def test_split(run, emit):
    code, out, _ = run("split", emit("a_ex_f2"))
    assert code == 0
    assert "zero socle: dim 0  0" in out
    assert "bicommutative refinement:" in out
    assert "semisimple part: span{x, y}" in out
    code, _, err = run("split", emit("tpoly3_f2"))
    assert code == 3
    assert "refused: not phi-free" in err


def test_split_json_shapes(run, emit):
    code, out, _ = run("split", emit("a_nov_f2"), "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bicommutative"] is None  # a_nov is not left-commutative
    assert payload["novikov"]["orientation"] in ("left", "right", "both")


def test_verify_all_fixture_passes(run, emit):
    code, out, _ = run("verify", emit("a_ex_f2"), "--all")
    assert code == 0
    assert "PASS " in out
    assert "0 failed" in out
    summary = out.strip().splitlines()[-1]
    assert "passed" in summary and "not applicable" in summary


def test_verify_all_json(run, emit):
    code, out, _ = run("verify", emit("a_ex_f2"), "--all", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["checks"]) == len(list(CheckId))
    assert payload["failed"] == 0
    assert payload["passed"] + payload["skipped"] == len(list(CheckId))
    by_id = {c["check"]: c for c in payload["checks"]}
    assert by_id["natural_product_bicommutative"]["applicable"] is True


def test_verify_single_check(run, emit):
    code, out, _ = run(
        "verify", emit("a_ex_f2"), "--check", "min1_minimal_ideal_sides"
    )
    assert code == 0
    assert out.startswith("PASS min1_minimal_ideal_sides")
    code, _, err = run("verify", emit("a_ex_f2"), "--check", "nope")
    assert code == 2
    assert "unknown check id" in err


def test_verify_trusted_certificate_lie_fails(run, emit):
    # A certificate claiming a false identity must surface as FAIL, exit 1.
    path = emit("shift_f3", certified={"identities": {"novikov-left": True}})
    code, out, _ = run("verify", path, "--all")
    assert code == 1
    assert "FAIL " in out


def test_verify_q_records_assumptions(run, emit):
    code, out, _ = run("verify", emit("a_ex_q"), "--all")
    assert code == 0
    assert "assumed:" in out
    assert "certificate" in out


def test_search_exhaustive_deterministic(run):
    args = (
        "search",
        "--field",
        "2",
        "--dim",
        "2",
        "--identity",
        "commutative",
        "--sparsity",
        "2",
        "--output",
        "json",
    )
    code1, out1, _ = run(*args)
    code2, out2, _ = run(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 13
    assert len(payload["algebras"]) == 13


def test_search_random_seeded(run):
    args = (
        "search",
        "--field",
        "3",
        "--dim",
        "2",
        "--identity",
        "novikov-left",
        "--samples",
        "50",
        "--seed",
        "7",
        "--output",
        "json",
    )
    _, out1, _ = run(*args)
    _, out2, _ = run(*args)
    assert out1 == out2
    payload = json.loads(out1)
    assert 0 < payload["count"] <= 50


def test_search_rejects_infinite_field(run):
    code, _, err = run("search", "--field", "Q", "--dim", "2", "--identity", "commutative")
    assert code == 2
    assert "error:" in err


def test_fixtures_list(run):
    code, out, _ = run("fixtures")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 26
    assert any(line.startswith("a_ex_f2:") for line in lines)


def test_fixtures_emit(run, tmp_path):
    target = tmp_path / "corpus"
    code, out, _ = run("fixtures", "--emit", str(target), "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 26
    files = sorted(os.listdir(target))
    assert len(files) == 26
    assert "a_ex_q.json" in files
    # Emitted files run clean through verify.
    code, out, _ = run("verify", str(target / "tpoly3_q.json"), "--all")
    assert code == 0


def test_budget_flags(run, emit):
    path = emit("shift_f3")
    code, _, err = run("radical", path, "--which", "solvable", "--budget-vectors", "1")
    assert code == 3
    assert "unsupported:" in err and "budget" in err
    code, _, err = run("radical", path, "--which", "solvable", "--budget-vectors", "0")
    assert code == 2


def test_chief_series_honours_the_vector_budget(run, emit):
    path = emit("tpoly3_f2")
    code, _, err = run("chief-series", path, "--budget-vectors", "2")
    assert code == 3
    assert "unsupported: 8 vectors exceed the budget of 2" in err
    code, out, _ = run("chief-series", path, "--budget-vectors", "8")
    assert code == 0 and "factor dims: 1, 1, 1" in out


def test_file_errors(run, tmp_path):
    code, _, err = run("info", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run("info", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_exponent_coefficient_exits_2_without_expanding(run, tmp_path):
    # Fraction("1e999999999") alone would run for minutes
    path = tmp_path / "huge.json"
    path.write_text(
        '{"field": "Q", "dim": 1, "products": [{"i": 0, "j": 0, "terms": [{"k": 0, "c": "1e999999999"}]}]}'
    )
    code, out, err = run("info", str(path))
    assert code == 2
    assert out == ""
    assert "exponent" in err
