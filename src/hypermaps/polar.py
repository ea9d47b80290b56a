"""Exact polar values q * (N-1)^e1 * N^e2 * exp(2*pi*i*ang).

Every quantity appearing in the frame data at the evaluation point is of
this shape: a positive rational modulus carrying rational exponents of
N-1 and of N, times a root of unity with rational angle.  Since N-1 and
N are coprime, the representation with q > 0, the integer parts of e1
and e2 folded into q, and ang reduced mod 1 is unique, which makes
equality an honest structural comparison.

For N = 2 the base N-1 = 1 is degenerate and e1 is forced to 0.
"""
from __future__ import annotations

import math

from .rational import Q, QZERO, need_order, rat_str


class ExactPolar:
    """Immutable normalized polar value for a fixed N >= 2."""

    __slots__ = ("N", "q", "e1", "e2", "ang")

    def __init__(self, N: int, q, e1=0, e2=0, ang=0):
        need_order(N)
        q = Q(q)
        e1, e2, ang = Q(e1), Q(e2), Q(ang)
        if q == 0:
            q, e1, e2, ang = QZERO, QZERO, QZERO, QZERO
        else:
            if q < 0:
                q = -q
                ang = ang + Q(1, 2)
            # base^e = base^floor(e) * base^(e mod 1)
            if N == 2:
                e1 = QZERO  # (N-1)^e1 = 1
            else:
                f1 = math.floor(e1)
                q, e1 = q * Q(N - 1) ** f1, e1 - f1
            f2 = math.floor(e2)
            q, e2 = q * Q(N) ** f2, e2 - f2
            ang = ang - math.floor(ang)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "ang", ang)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPolar is immutable")

    @classmethod
    def zero(cls, N):
        return cls(N, 0)

    def __mul__(self, other):
        if isinstance(other, ExactPolar):
            if other.N != self.N:
                raise ValueError("polar values for different N")
            return ExactPolar(self.N, self.q * other.q, self.e1 + other.e1,
                              self.e2 + other.e2, self.ang + other.ang)
        return ExactPolar(self.N, self.q * Q(other), self.e1, self.e2,
                          self.ang)

    __rmul__ = __mul__

    def pow(self, e: int):
        """Raise to an integer power; any other exponent raises
        ValueError, and so does zero to a non-positive power."""
        if not isinstance(e, int):
            raise ValueError(f"only integer powers are exact, got {e!r}")
        if self.q == 0:
            if e <= 0:
                raise ValueError("non-positive power of zero")
            return self
        return ExactPolar(self.N, self.q ** e, self.e1 * e, self.e2 * e,
                          self.ang * e)

    def __add__(self, other):
        """Addition only for values sharing (e1, e2, ang): the structured
        parts must match, so the sum stays in the class."""
        if not isinstance(other, ExactPolar):
            return NotImplemented
        if other.N != self.N:
            raise ValueError("polar values for different N")
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        if (self.e1, self.e2) == (other.e1, other.e2):
            if self.ang == other.ang:
                return ExactPolar(self.N, self.q + other.q, self.e1,
                                  self.e2, self.ang)
            # both angles lie in [0, 1)
            if abs(self.ang - other.ang) == Q(1, 2):
                return ExactPolar(self.N, self.q - other.q, self.e1,
                                  self.e2, self.ang)
        raise ValueError("sum leaves the exact polar class")

    def __eq__(self, other):
        if not isinstance(other, ExactPolar):
            return NotImplemented
        return (self.N == other.N and self.q == other.q
                and self.e1 == other.e1 and self.e2 == other.e2
                and self.ang == other.ang)

    def __repr__(self):
        if self.q == 0:
            return "ExactPolar(0)"
        return (f"ExactPolar({self.N}; {self.q} * {self.N - 1}^({self.e1})"
                f" * {self.N}^({self.e2}) * e(2pi i * {self.ang}))")

    def to_json(self):
        return {"q": rat_str(self.q), "e1": rat_str(self.e1),
                "e2": rat_str(self.e2), "ang": rat_str(self.ang)}


def roots_of_unity_sum(N: int, step):
    """sum_{i=1..N} e(i*step) as an ExactPolar, with e(t) = exp(2 pi i t).

    It is N when step is an integer (every term is 1), and 0 when N*step
    is an integer but step is not (a full turn of a nontrivial N-th root
    of unity); any other step raises ValueError.
    """
    step = Q(step)
    if step.denominator == 1:
        return ExactPolar(N, N)
    # geometric sum of a nontrivial N-th root of unity: zero provided
    # N*step is an integer (the progression closes up)
    if (Q(N) * step).denominator != 1:
        raise ValueError("progression must run over N-th roots of unity")
    return ExactPolar.zero(N)
