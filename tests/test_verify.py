"""The theorem verifier: gating, trust rules, cache orientation."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from nonassoc.corpus import builtin_fixtures, fixture_by_name
from nonassoc.enumeration import EnumerationBudget
from nonassoc.errors import BudgetExceededError
from nonassoc.fields import GF
from nonassoc.linalg import span
from nonassoc.analyzer import (
    CERTIFIED_FACTS,
    CERTIFIED_KEYS,
    CERTIFIED_SUBSPACE_KEYS,
    CERTIFIED_SUBSPACE_LIST_KEYS,
)
from nonassoc.verify import (
    _CHECK_FUNCS,
    CheckId,
    bracket_power_oracle,
    describe,
    verify,
    verify_all,
)

from conftest import make


def test_every_check_has_a_description():
    for check in CheckId:
        text = describe(check)
        assert isinstance(text, str) and len(text) > 20
    assert list(_CHECK_FUNCS) == list(CheckId)


def test_docs_catalogue_matches_the_registry():
    doc = Path(__file__).parent.parent / "docs" / "checks.md"
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", doc.read_text(), re.MULTILINE)
    table = [(check, text.replace("\\*", "*")) for check, text in rows]
    assert table == [(c.value, describe(c)) for c in CheckId]


def test_docs_certified_keys_match_the_table():
    doc = (Path(__file__).parent.parent / "docs" / "checks.md").read_text()
    section = doc.split("## Certified facts")[1].split("\n## ")[0]
    bullets = {}
    for bullet in section.split("\n- ")[1:]:
        head, _, rest = bullet.partition(":")
        bullets[head] = set(re.findall(r"`([^`]+)`", rest.split("(")[0]))
    computed = {key for key, fact in CERTIFIED_FACTS.items() if fact.compute}
    assert bullets["computed over a finite field"] == computed
    assert bullets["only ever read from a certificate"] == set(CERTIFIED_FACTS) - computed
    assert bullets["single subspaces (list of basis rows)"] == set(CERTIFIED_SUBSPACE_KEYS)
    assert bullets["subspace lists"] == set(CERTIFIED_SUBSPACE_LIST_KEYS)


def test_certified_key_constants_are_consistent():
    assert "identities" in CERTIFIED_KEYS
    assert set(CERTIFIED_SUBSPACE_KEYS) <= set(CERTIFIED_KEYS)
    assert set(CERTIFIED_SUBSPACE_LIST_KEYS) <= set(CERTIFIED_KEYS)
    assert not set(CERTIFIED_SUBSPACE_KEYS) & set(CERTIFIED_SUBSPACE_LIST_KEYS)


def test_verify_accepts_string_check_id():
    A = fixture_by_name("a_ex_f2").algebra
    report = verify(A, "dt1_Asq_comm_assoc")
    assert report.check is CheckId.DT1_ASQ_COMM_ASSOC
    assert report.applicable and report.holds
    with pytest.raises(ValueError):
        verify(A, "no_such_check")


def test_fixture_sweep_has_no_failures():
    failures = []
    for fx in builtin_fixtures():
        for report in verify_all(fx.algebra, certified=fx.certified):
            if report.applicable and not report.holds:
                failures.append((fx.name, report.check.value, report.reason))
    assert failures == []


def test_inapplicable_checks_say_why():
    A = fixture_by_name("a_ex_f2").algebra
    gated = verify(A, CheckId.KLEINFELD_SEMISIMPLE_ASSOCIATIVE)
    assert not gated.applicable
    assert gated.holds is None
    assert "assosymmetric" in gated.reason

    char_gated = verify(
        fixture_by_name("tpoly3_f2").algebra, CheckId.KLEINFELD_SEMISIMPLE_ASSOCIATIVE
    )
    assert not char_gated.applicable
    assert "characteristic" in char_gated.reason

    not_novikov = verify(A, CheckId.NOVIKOV_EQUIVALENCES)
    assert not not_novikov.applicable

    char0_only = verify(A, CheckId.CHAR0_PHI_IN_RSQ)
    assert not char0_only.applicable


def test_natural_gate_requires_ideal_products():
    # Both one-sided series die yet the bracket series survives; the check
    # must refuse rather than report a counterexample, because the algebra
    # is outside every natural class (products of ideals go non-ideal).
    A = make(GF(2), 4, {(2, 2): {1: 1}, (0, 1): {3: 1}, (3, 2): {1: 1}})
    report = verify(A, CheckId.WEAKLY_NILPOTENT_IMPLIES_NILPOTENT)
    assert not report.applicable
    assert "ideal" in report.reason


def test_mirrored_orientation_is_noted():
    shift = fixture_by_name("shift_f3")
    report = verify(shift.algebra, CheckId.NOVIKOV_EQUIVALENCES, certified=shift.certified)
    assert report.applicable and report.holds
    assert any("mirror" in note for note in report.notes)


def test_trusted_certificates_are_recorded_over_q():
    fx = fixture_by_name("a_ex_q")
    report = verify(fx.algebra, CheckId.MIN1_MINIMAL_IDEAL_SIDES, certified=fx.certified)
    assert report.applicable and report.holds
    assert report.assumed
    assert any("certificate" in line for line in report.assumed)


def test_finite_fields_recompute_instead_of_trusting_subspaces():
    # Hand the verifier a wrong radical over F_2: the check must ignore it.
    fx = fixture_by_name("a_ex_f2")
    lied = dict(fx.certified)
    lied["radical_solvable"] = span(GF(2), 2, [(1, 0), (0, 1)])
    report = verify(fx.algebra, CheckId.MIN1_MINIMAL_IDEAL_SIDES, certified=lied)
    assert report.applicable and report.holds
    assert not any("radical" in line for line in report.assumed)


def test_identity_certificates_are_trusted_on_any_field():
    # shift is not left Novikov; a lying certificate flips the check outcome.
    shift = fixture_by_name("shift_f3").algebra
    report = verify(shift, CheckId.NOVIKOV_EQUIVALENCES, certified={"identities": {"novikov-left": True}})
    assert report.applicable
    assert report.holds is False
    assert report.counterexample is not None
    assert any("certificate" in line for line in report.assumed)


def test_budget_makes_checks_inapplicable_not_wrong():
    A = fixture_by_name("tpoly4_f2").algebra
    tiny = EnumerationBudget(max_vectors=3, max_subspaces=2)
    report = verify(A, CheckId.NILPOTENT_MAX_SUBALG_IDEAL, budget=tiny)
    assert not report.applicable
    assert "budget" in report.reason


def test_verify_all_covers_every_check_once():
    A = fixture_by_name("a_nov_f2").algebra
    reports = verify_all(A)
    assert [r.check for r in reports] == list(CheckId)
    by_id = {r.check: r for r in reports}
    assert by_id[CheckId.NOVIKOV_EQUIVALENCES].applicable
    assert by_id[CheckId.NATURAL_PRODUCT_BICOMMUTATIVE].applicable is False


def test_report_witness_content():
    A = fixture_by_name("tpoly3_f2").algebra
    report = verify(A, CheckId.PHI_EQ_ASQ_NILPOTENT)
    assert report.applicable and report.holds
    assert report.witness is not None

    report2 = verify(A, CheckId.NILPOTENT_MAX_SUBALG_IDEAL)
    assert report2.applicable and report2.holds


def test_bracket_power_oracle_guards():
    A = fixture_by_name("tpoly2_f2").algebra
    with pytest.raises(BudgetExceededError):
        bracket_power_oracle(A, 7)
    from nonassoc.errors import UsageError

    with pytest.raises(UsageError):
        bracket_power_oracle(A, 0)
