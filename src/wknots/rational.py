"""Exact rational arithmetic backend.

Every computation in this package is exact.  The hot loops (echelon
reduction, series products) spend most of their time in rational
arithmetic, so we use gmpy2's mpq when it is installed and fall back to
the stdlib Fraction otherwise.  Both backends are drop-in compatible for
the operations used here.
"""

try:
    from gmpy2 import mpq as Rat

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

    BACKEND = "fractions"


def rat(p, q=1):
    """Build a rational number p/q."""
    return Rat(p, q)
