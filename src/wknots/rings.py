"""Laurent polynomials over Z and degree-truncated power series over Q.

LaurentPoly is the value ring of the Alexander polynomial; TruncSeries
carries the formal variable x of the substitution X = e^x used by the
expansion bridge.  Both are immutable values.
"""

from __future__ import annotations

import math

from .rational import ZERO, Rat, rat


class LaurentPoly:
    """A univariate Laurent polynomial with integer coefficients.

    Stored as a map exponent -> nonzero coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in dict(coeffs).items():
                v = int(v)
                if v:
                    c[int(e)] = v
        self.coeffs = c

    @classmethod
    def x(cls, exponent=1, coefficient=1):
        return cls({exponent: coefficient})

    @classmethod
    def const(cls, value):
        return cls({0: value})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # a constant, equal to its value
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other, sign=1):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        c = dict(self.coeffs)
        for e, v in other.coeffs.items():
            w = c.get(e, 0) + sign * v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: -v for e, v in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                else:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = c
        return out

    __rmul__ = __mul__

    def min_exp(self):
        return min(self.coeffs)

    def __call__(self, value):
        """Evaluate at an integer or rational value (value != 0)."""
        return sum((rat(v) * rat(value) ** e for e, v in self.coeffs.items()), ZERO)

    def mirror(self):
        """Substitute X -> X^{-1}."""
        return LaurentPoly({-e: v for e, v in self.coeffs.items()})

    def is_palindromic(self):
        """A(X) equals A(X^{-1}) up to a unit +-X^k."""
        if self.is_zero():
            return True
        return laurent_normalize(self) == laurent_normalize(self.mirror())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            v = self.coeffs[e]
            if e == 0:
                parts.append(f"{v}")
            elif e == 1:
                parts.append(f"{v}*X")
            else:
                parts.append(f"{v}*X^{e}")
        return " + ".join(parts).replace("+ -", "- ")


def laurent_normalize(p: LaurentPoly) -> LaurentPoly:
    """Scale by the unique unit +-X^k so the lowest exponent is 0 and the
    lowest coefficient is positive."""
    if p.is_zero():
        raise ValueError("cannot normalize zero")
    lo = p.min_exp()
    sign = 1 if p.coeffs[lo] > 0 else -1
    return LaurentPoly({e - lo: sign * v for e, v in p.coeffs.items()})


class TruncSeries:
    """A power series over Q truncated at a fixed degree cap.

    coeffs[k] is the coefficient of x^k, 0 <= k <= cap.  Arithmetic
    between two series requires equal caps.
    """

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap, coeffs=None):
        if cap < 0:
            raise ValueError("degree cap must be >= 0")
        self.cap = cap
        cs = [ZERO] * (cap + 1)
        if coeffs is not None:
            if isinstance(coeffs, dict):
                items = coeffs.items()
            else:
                items = enumerate(coeffs)
            for k, v in items:
                if 0 <= k <= cap:
                    cs[k] = Rat(v)
        self.coeffs = cs

    @classmethod
    def const(cls, cap, value):
        return cls(cap, {0: value})

    @classmethod
    def x(cls, cap):
        return cls(cap, {1: 1})

    def _check(self, other):
        if self.cap != other.cap:
            raise ValueError("degree caps differ")

    def __eq__(self, other):
        if isinstance(other, int):
            other = TruncSeries.const(self.cap, other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        if not any(self.coeffs[1:]):  # a constant, equal to its value
            return hash(self.coeffs[0])
        return hash((self.cap, tuple(self.coeffs)))

    def __add__(self, other):
        if isinstance(other, int):
            other = TruncSeries.const(self.cap, other)
        self._check(other)
        return TruncSeries(self.cap, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.cap, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = TruncSeries.const(self.cap, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            return TruncSeries(self.cap, [a * Rat(other) for a in self.coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        d = self.cap
        out = [ZERO] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(0, d - i + 1):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(d, out)

    __rmul__ = __mul__

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def __repr__(self):
        parts = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def laurent_at_exp(p: LaurentPoly, d: int) -> TruncSeries:
    """p(e^x) truncated at degree d: the x^k coefficient is
    sum_e c_e e^k / k!."""
    return TruncSeries(d, [rat(sum(c * e ** k for e, c in p.coeffs.items()),
                               math.factorial(k)) for k in range(d + 1)])


def series_log(s: TruncSeries) -> TruncSeries:
    """log(s) for s with constant term 1, from s·L' = s': the recurrence
    n·L_n = n·s_n − Σ_{k=1}^{n−1} k·L_k·s_{n−k}, O(d²) in all."""
    c = s.coeffs
    if c[0] != 1:
        raise ValueError("series_log requires constant term 1")
    out = [ZERO]
    for n in range(1, s.cap + 1):
        out.append((n * c[n] - sum(k * out[k] * c[n - k]
                                   for k in range(1, n))) / n)
    return TruncSeries(s.cap, out)
