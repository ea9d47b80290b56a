"""Exact rational scalars and small arithmetic helpers.

Everything exact in this package is built on one rational type ``Q``,
the standard library's fractions.Fraction.  It prints as "n/d" (or "n"
when the denominator is 1), which is also the serialization format.
``as_count`` is the one place where an exact rational becomes a count.
"""
from __future__ import annotations

from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)


def need_order(N: int) -> None:
    """The one rule on the order N of the black faces: N >= 2."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")


def is_rational(x) -> bool:
    return isinstance(x, (Q, int))


def as_count(value, what: str) -> int:
    """The count an exact rational stands for; ArithmeticError(what)
    unless it is a non-negative integer."""
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(what)
    return int(value)


def rat_str(q) -> str:
    """Serialize as "num/den", or just "num" for integers."""
    return str(Q(q))


def binomial_q(s, k: int):
    """Generalized binomial coefficient (s choose k) for rational s."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = QONE
    for j in range(k):
        out = out * (s - j) / (j + 1)
    return out


def harmonic(m: int):
    """m-th harmonic number 1 + 1/2 + ... + 1/m, with harmonic(0) = 0.

    This is the integration constant appearing in the calibration of the
    logarithmic column of the S-matrix; the normalization is pinned by the
    telescoping property harmonic(m) - harmonic(m-1) = 1/m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return sum((Q(1, k) for k in range(1, m + 1)), QZERO)
