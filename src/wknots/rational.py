"""Exact rational arithmetic: ``Rat`` is the stdlib ``Fraction``.

Coefficients the library builds stay Python ints until a division makes
them rational; a ``Rat`` is built only there, or from outside input."""

from fractions import Fraction as Rat

BACKEND = "fractions"

# one shared zero for defaults and padding: a Rat is immutable
ZERO = Rat(0)
