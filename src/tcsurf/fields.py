"""Exact coefficient fields: the rationals and GF(2), and no others.

QQ and GF2 are the only fields.  Q scalars are fractions.Fraction, always in
lowest terms with positive denominator; GF(2) scalars are the ints 0 and 1.
Nothing in this package ever touches a float; every linear-algebra routine
receives one of the two field objects and calls its methods for arithmetic.
field_from_name is the one reader of field names, so a presentation over
any other field is refused when it is read.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedModelError


def _exact(text):
    """text itself if it is a str or an int; floats and bools are refused."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise TypeError(f"scalar {text!r} is not a string or an integer")
    return text


class Field:
    """The type of QQ and GF2; fields compare by identity."""

    char: int
    name: str

    def __repr__(self):
        return self.name


class Rationals(Field):
    char = 0
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def parse(self, text):
        try:
            return Fraction(_exact(text))
        except ZeroDivisionError as e:
            raise ValueError(f"zero denominator in {text!r}") from e

    def fmt(self, value):
        return str(value)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        return a / b


class Gf2(Field):
    char = 2
    name = "GF2"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, int):
            return value % 2
        if isinstance(value, Fraction):
            if value.denominator % 2 == 0:
                raise ZeroDivisionError("denominator divisible by 2")
            return value.numerator % 2
        raise TypeError(f"cannot coerce {value!r} into GF2")

    def parse(self, text):
        return int(_exact(text)) % 2

    def fmt(self, value):
        return str(value % 2)

    def add(self, a, b):
        return (a + b) % 2

    def mul(self, a, b):
        return (a * b) % 2

    def neg(self, a):
        return a % 2  # -a = a in characteristic 2


QQ = Rationals()
GF2 = Gf2()


def field_from_name(name: str) -> Field:
    """The field named "Q" or "GF2"; every other name is refused."""
    if name == "Q":
        return QQ
    if name == "GF2":
        return GF2
    raise UnsupportedModelError(
        f"unsupported field {name!r}: only 'Q' and 'GF2' are supported")
