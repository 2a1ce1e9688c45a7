"""Exact rational arithmetic: ``Rat`` is the stdlib ``Fraction``."""

from fractions import Fraction as Rat

BACKEND = "fractions"

# one shared zero for defaults and padding: a Rat is immutable
ZERO = Rat(0)


def rat(p, q=1):
    """Build a rational number p/q."""
    return Rat(p, q)
