"""Exact scalar arithmetic over Q and prime fields."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonassoc.errors import UsageError
from nonassoc.fields import GF, QQ


def test_qq_basics():
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.sub(Fraction(1), Fraction(1, 4)) == Fraction(3, 4)
    assert QQ.neg(Fraction(2, 5)) == Fraction(-2, 5)
    assert QQ.inv(Fraction(-4, 7)) == Fraction(-7, 4)


def test_qq_parse_render_roundtrip():
    for text in ["0", "1", "-3", "3/4", "-22/7", " 5/6 "]:
        value = QQ.parse(text)
        assert QQ.parse(QQ.render(value)) == value
    assert QQ.render(QQ.parse("4/6")) == "2/3"


def test_qq_parse_rejects_garbage():
    # exponents are refused: Fraction would expand "1e999999999" digit by digit
    for bad in ["", "x", "1.5.2", "3//4", "1/0", "1e999999999", "2E3", "1.5e-2"]:
        with pytest.raises(UsageError):
            QQ.parse(bad)
    assert QQ.parse("1.5") == Fraction(3, 2)


def test_qq_is_infinite():
    assert QQ.order is None
    assert not QQ.is_finite
    assert QQ.characteristic == 0
    with pytest.raises(UsageError):
        QQ.elements()


def test_qq_coerce_and_validate():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce("2/5") == Fraction(2, 5)
    with pytest.raises(UsageError):
        QQ.coerce(object())
    with pytest.raises(UsageError):
        QQ.validate(0.5)
    QQ.validate(Fraction(1, 2))
    QQ.validate(7)


def test_qq_coerce_reads_strings_as_parse_does():
    # exponent notation is refused before Fraction expands it, which for
    # "1e300000" would build a 300,001-digit integer
    for bad in ("1e300000", "2E5", "1/0"):
        with pytest.raises(UsageError):
            QQ.coerce(bad)
    assert QQ.coerce(" 5/6 ") == Fraction(5, 6)
    assert QQ.coerce("1.5") == Fraction(3, 2)


def test_gf_basics():
    f5 = GF(5)
    assert f5.order == 5
    assert f5.characteristic == 5
    assert f5.is_finite
    assert list(f5.elements()) == [0, 1, 2, 3, 4]
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.sub(1, 3) == 3
    assert f5.neg(2) == 3
    assert f5.inv(3) == 2


def test_gf_requires_prime_order():
    for bad in [0, 1, 4, 6, 9, -3]:
        with pytest.raises(UsageError):
            GF(bad)


def test_gf_is_cached_and_comparable():
    assert GF(7) is GF(7)
    assert GF(7) == GF(7)
    assert GF(7) != GF(11)
    assert GF(2) != QQ


def test_gf_parse_normalizes_residues():
    f3 = GF(3)
    assert f3.parse("4") == 1
    assert f3.parse("-1") == 2
    assert f3.parse(" 0 ") == 0
    with pytest.raises(UsageError):
        f3.parse("4/2")
    with pytest.raises(UsageError):
        f3.parse("x")


def test_gf_validate_rejects_noncanonical():
    f3 = GF(3)
    f3.validate(2)
    with pytest.raises(UsageError):
        f3.validate(3)
    with pytest.raises(UsageError):
        f3.validate(-1)
    with pytest.raises(UsageError):
        f3.validate(Fraction(1, 2))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
residues7 = st.integers(min_value=0, max_value=6)


@given(rationals, rationals, rationals)
def test_qq_field_axioms(a, b, c):
    assert QQ.add(a, b) == QQ.add(b, a)
    assert QQ.mul(a, b) == QQ.mul(b, a)
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@given(residues7, residues7, residues7)
def test_gf7_field_axioms(a, b, c):
    f = GF(7)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if a != 0:
        assert f.mul(a, f.inv(a)) == f.one


@given(residues7)
def test_gf7_parse_render_roundtrip(a):
    f = GF(7)
    assert f.parse(f.render(a)) == a
