"""Operations on the package's exact values that only the tests read.

The package never negates or inverts an `ExactPolar` (integer powers
cover its frame data), never builds a field element from rationals or
reads its coordinates as rationals (an element is built from integer
coordinates, and the cache stores its integers), and never raises one
to a power (the powers of zeta are `NumberField.roots`), so these live
here, beside the tests that check against them.  `dot_reference` is the
op-by-op sum of products that a coefficient ring's `dot` computes with
one normalization, and `rhm_from_tr_reference` the count read that
`Recursion.rhm_from_tr` sums in one `dot`, op by op with each rational
built into the field and multiplied as an element.
"""
from itertools import permutations
from math import lcm

from hypermaps.numfield import NFElem
from hypermaps.oracle import Profile
from hypermaps.polar import ExactPolar
from hypermaps.rational import Q, QONE, QZERO, as_count, is_rational
from hypermaps.recursion import eta_coeff


def polar_neg(v):
    """-v: the same modulus, half a turn further round."""
    return ExactPolar(v.N, v.q, v.e1, v.e2, v.ang + Q(1, 2))


def polar_inv(v):
    """1/v for a nonzero polar value."""
    if v.q == 0:
        raise ZeroDivisionError("inverse of zero polar value")
    return ExactPolar(v.N, QONE / v.q, -v.e1, -v.e2, -v.ang)


def field_element(field, v):
    """An element of the field, a rational, or deg rational coordinates,
    as an element of the field."""
    if isinstance(v, NFElem):
        if v.field is not field:
            raise ValueError("element of another number field")
        return v
    if is_rational(v):
        v = [v] + [0] * (field.deg - 1)
    v = [Q(c) for c in v]
    if len(v) != field.deg:
        raise ValueError(f"need {field.deg} coordinates, got {len(v)}")
    # over the lcm of lowest-terms denominators the gcd is already 1
    den = lcm(*(int(c.denominator) for c in v))
    return NFElem(field, [int(c.numerator) * (den // int(c.denominator))
                          for c in v], den)


def field_coords(x):
    """The rational coordinates of a field element in the power basis."""
    return [Q(c, x.den) for c in x.num]


def field_pow(x, e):
    """x^e for an integer e, by repeated squaring; e < 0 inverts x."""
    if e < 0:
        return field_pow(x.inv(), -e)
    acc, base = x.field.one, x
    while e:
        if e & 1:
            acc = acc * base
        e >>= 1
        if e:
            base = base * base
    return acc


def dot_reference(ring, pairs):
    """sum a * b over the pairs, op by op: one product and one sum per
    pair, each normalized, folded from ring.zero."""
    total = ring.zero
    for a, b in pairs:
        total = total + a * b
    return total


def rhm_from_tr_reference(rec, g, degrees):
    """The count `rec.rhm_from_tr(g, degrees)` reads, for a stable
    profile divisible by N, summed op by op: per power p of zeta, the
    running sum over keys of the key's signed coefficient times the
    rational of its orderings at p built into the field, then sum_p
    zeta^p times that sum."""
    prof = Profile(rec.N, g, degrees)
    assert prof.stable and prof.divisible
    tensor = rec.omega(g, len(prof.degrees))
    exps = tuple(d - 1 for d in prof.degrees)
    N, ram, field = rec.N, rec.curve.ram, rec.curve.ring
    by_power = [field.zero] * N
    for K, c in tensor.items():
        buckets = [QZERO] * N
        for order in set(permutations(K)):
            q, p = QONE, 0
            for (a_idx, k), e in zip(order, exps):
                q = q * eta_coeff(N, k, e)
                p -= (a_idx + 1) * (k + e)
            buckets[p % N] += q
        if sum(k for _, k in K) % 2:
            c = -c
        for p, q in enumerate(buckets):
            if q:
                by_power[p] = by_power[p] + c * field_element(field, q)
    acc = field.zero
    for p, c in enumerate(by_power):
        acc = acc + ram[p - 1] * c  # ram[p - 1] = zeta^p
    value = acc.rational_part() * Q(N - 1) ** (prof.darts // N)
    return as_count(value, "field descent failure")
