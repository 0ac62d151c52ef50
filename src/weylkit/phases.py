"""Exact circle arithmetic: elements of Q/Z standing for e^{2*pi*i*q}.

All cocycle and character values in this package are phases.  A phase is
a reduced pair of ints ``num/den`` with 0 <= num < den, so every identity
check is exact integer arithmetic; floats only appear at the
matrix-algebra boundary via :meth:`Phase.to_complex`.
"""

from __future__ import annotations

import cmath
import functools
import sys
from fractions import Fraction
from math import gcd

from .errors import SchemaError

_MODULUS = sys.hash_info.modulus


@functools.total_ordering
class Phase:
    """A reduced rational num/den in [0, 1), meaning the circle element e^{2*pi*i*num/den}.

    Addition is the circle product, negation is complex conjugation.
    ``Phase(q)`` takes a Fraction or an int, ``Phase(num, den)`` a pair of
    ints; either is reduced mod 1.  Instances are immutable, and every one
    is made through ``__init__``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if type(num) is not int or type(den) is not int:
            q = Fraction(num, den)
            num, den = q.numerator, q.denominator
        elif den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"Phase is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Phase is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Phase, (self.num, self.den)

    @staticmethod
    def of(num: int, den: int = 1) -> "Phase":
        return Phase(num, den)

    @staticmethod
    def parse(text: str) -> "Phase":
        """Parse a serialized phase "a/b" (b >= 1) or a bare integer."""
        try:
            if "/" in text:
                a, b = text.split("/")
                num, den = int(a), int(b)
            else:
                num, den = int(text), 1
        except ValueError as exc:
            raise SchemaError(f"bad phase string {text!r}") from exc
        if den < 1:
            raise SchemaError(f"bad phase string {text!r}: denominator must be >= 1")
        return Phase(num, den)

    @property
    def q(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "Phase") -> "Phase":
        a, b = self.den, other.den
        if a == b:
            return Phase(self.num + other.num, a)
        return Phase(self.num * b + other.num * a, a * b)

    def __sub__(self, other: "Phase") -> "Phase":
        a, b = self.den, other.den
        if a == b:
            return Phase(self.num - other.num, a)
        return Phase(self.num * b - other.num * a, a * b)

    def __neg__(self) -> "Phase":
        return Phase(-self.num, self.den)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def to_complex(self) -> complex:
        # num / den is float(Fraction(num, den)): the correctly rounded quotient
        return cmath.exp(2j * cmath.pi * (self.num / self.den))

    def __eq__(self, other):
        if other.__class__ is not Phase:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
        if other.__class__ is not Phase:
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __hash__(self):
        # hash((Fraction(num, den),)), computed as Fraction.__hash__ does
        try:
            h = hash(hash(self.num) * pow(self.den, -1, _MODULUS))
        except ValueError:
            h = sys.hash_info.inf
        return hash((h,))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Phase({self})"


_set_num = Phase.num.__set__
_set_den = Phase.den.__set__

ZERO = Phase(0)
HALF = Phase(1, 2)
