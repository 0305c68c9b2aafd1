"""Exact coefficient fields: the rationals and GF(2), and no others.

QQ and GF2 are the only fields.  A Q scalar is an int or a
fractions.Fraction: coerce and parse give an int for every integral value
and a Fraction only for the others, so integral data stays int through
+, - and *, the hot loops run on plain ints, and only a true quotient makes
a Fraction.  An integral value may still arrive as either type (a product
of Fractions can be integral), so code compares values, never types.
GF(2) scalars are the ints 0 and 1.  Neither field accepts a bool.
Nothing in this package ever touches a float; every linear-algebra routine
receives one of the two field objects and calls its methods for arithmetic.
field_from_name is the one reader of field names, so a presentation over
any other field is refused when it is read.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedModelError


def _not_bool(value):
    """value itself unless it is a bool, which is refused."""
    if isinstance(value, bool):
        raise TypeError(f"scalar {value!r} is a boolean, not a number")
    return value


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
    """Q: scalars are ints, and Fractions for the values that are not integers.

    coerce and parse return the int for an integral value; add, neg and mul
    keep ints as ints, and div makes a Fraction only when the quotient is
    not an integer.  A Fraction with denominator 1 is a valid scalar too.
    """

    char = 0
    name = "Q"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(_not_bool(value), int):
            return value
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise TypeError(f"cannot coerce {value!r} into Q")

    def parse(self, text):
        try:
            return self.coerce(Fraction(_exact(text)))
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
        """a / b: an int when b divides a, else a Fraction."""
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q


class Gf2(Field):
    char = 2
    name = "GF2"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(_not_bool(value), int):
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
