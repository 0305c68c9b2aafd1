from fractions import Fraction

import pytest

from tcsurf.errors import UnsupportedModelError
from tcsurf.fields import GF2, QQ, field_from_name


def test_rational_arithmetic_is_exact():
    a = QQ.parse("1/3")
    b = QQ.parse("1/6")
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, QQ.div(QQ.one, a)) == QQ.one
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    assert QQ.fmt(Fraction(-7, 2)) == "-7/2"
    with pytest.raises(ValueError, match="zero denominator"):
        QQ.parse("1/0")


def test_rational_coerce_rejects_floats():
    assert QQ.coerce(5) == Fraction(5)
    with pytest.raises(TypeError):
        QQ.coerce(0.5)


def test_integral_rationals_are_ints():
    for value in (QQ.zero, QQ.one, QQ.coerce(Fraction(6, 3)), QQ.parse("-6/3"),
                  QQ.parse("4"), QQ.div(6, 3), QQ.div(Fraction(1, 2), Fraction(1, 4))):
        assert type(value) is int
    assert QQ.parse("-6/3") == -2
    assert QQ.coerce(Fraction(1, 3)) == QQ.div(1, 3) == Fraction(1, 3)
    assert isinstance(QQ.div(1, 3), Fraction)  # a quotient, never a float


def test_coerce_refuses_booleans():
    for field in (QQ, GF2):
        for flag in (True, False):
            with pytest.raises(TypeError, match="boolean"):
                field.coerce(flag)


def test_gf2_arithmetic():
    assert GF2.add(1, 1) == 0
    assert GF2.mul(1, 3) == 1
    assert GF2.neg(1) == 1
    assert GF2.parse("5") == 1
    assert GF2.fmt(3) == "1"
    assert GF2.coerce(Fraction(1, 3)) == 1
    with pytest.raises(ZeroDivisionError):
        GF2.coerce(Fraction(1, 2))


def test_field_lookup():
    assert field_from_name("Q") is QQ
    assert field_from_name("GF2") is GF2
    for name in ("GF3", "GF4", "GF7", "R"):
        with pytest.raises(UnsupportedModelError):
            field_from_name(name)


def test_field_equality_and_hash():
    assert QQ == field_from_name("Q")
    assert GF2 != QQ
    assert hash(GF2) == hash(field_from_name("GF2"))
