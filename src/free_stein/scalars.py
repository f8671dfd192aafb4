"""Exact complex scalars with rational real and imaginary parts.

The symbolic layer keeps every coefficient exact so that algebraic
identities (Leibniz rule, kernel transforms, cancellation) hold with
equality rather than within a tolerance.  Conversion to floating point
happens only when a trace model evaluates a word.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class QQi:
    """A complex number ``re + im*i`` with ``Fraction`` components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("QQi is immutable")

    def __reduce__(self):
        # pickle rebuilds through __init__, since __setattr__ refuses
        return (QQi, (self.re, self.im))

    @staticmethod
    def of(value) -> "QQi":
        """Coerce ints, Fractions, floats, complex or QQi to QQi, exactly."""
        if isinstance(value, QQi):
            return value
        if isinstance(value, complex):
            return QQi(Fraction(value.real), Fraction(value.imag))
        return QQi(_frac(value))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = QQi.of(other)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = QQi.of(other)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QQi.of(other).__sub__(self)

    def __mul__(self, other):
        o = QQi.of(other)
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QQi.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QQi")
        return QQi((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    # -- predicates and conversions ------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        try:
            o = QQi.of(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


ZERO = QQi(0)
ONE = QQi(1)
