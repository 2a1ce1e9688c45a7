"""Exact rational arithmetic: ``Rat`` is the stdlib ``Fraction``."""

from fractions import Fraction as Rat

BACKEND = "fractions"


def rat(p, q=1):
    """Build a rational number p/q."""
    return Rat(p, q)
