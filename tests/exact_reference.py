"""Operations on the package's exact values that only the tests read.

The package never negates or inverts an `ExactPolar` (integer powers
cover its frame data) and never reads a field element's coordinates as
rationals (the cache stores its integers), so these live here, beside
the tests that check against them.  `dot_reference` is the op-by-op sum
of products that a coefficient ring's `dot` computes with one
normalization.
"""
from hypermaps.polar import ExactPolar
from hypermaps.rational import Q, QONE


def polar_neg(v):
    """-v: the same modulus, half a turn further round."""
    return ExactPolar(v.N, v.q, v.e1, v.e2, v.ang + Q(1, 2))


def polar_inv(v):
    """1/v for a nonzero polar value."""
    if v.q == 0:
        raise ZeroDivisionError("inverse of zero polar value")
    return ExactPolar(v.N, QONE / v.q, -v.e1, -v.e2, -v.ang)


def field_coords(x):
    """The rational coordinates of a field element in the power basis."""
    return [Q(c, x.den) for c in x.num]


def dot_reference(ring, pairs):
    """sum a * b over the pairs, op by op: one product and one sum per
    pair, each normalized, folded from ring.zero."""
    total = ring.zero
    for a, b in pairs:
        total = total + a * b
    return total
