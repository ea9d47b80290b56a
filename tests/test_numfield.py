"""Q(zeta_n) arithmetic against an exact reference: rational coordinate
lists in the power basis, reduced by the monic minimal polynomial, with
the inverse solved by Gaussian elimination over Q."""
import random
from fractions import Fraction
from math import gcd

import pytest

from exact_reference import dot_reference, field_coords
from hypermaps.numfield import NFElem, NumberField, cyclotomic
from hypermaps.rational import Q

PHI = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    7: [1, 1, 1, 1, 1, 1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    11: [1] * 11,
    12: [1, 0, -1, 0, 1],
}


# -- the reference ------------------------------------------------------


def ref_reduce(long_vec, minpoly):
    """Remainder of a rational coefficient list mod a monic polynomial."""
    d = len(minpoly) - 1
    vec = [Fraction(c) for c in long_vec]
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if c:
            for j, m in enumerate(minpoly):
                vec[i - d + j] -= c * m
    return (vec + [Fraction(0)] * d)[:d]


def ref_mul(a, b, minpoly):
    long_vec = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            long_vec[i + j] += x * y
    return ref_reduce(long_vec, minpoly)


def ref_inv(a, minpoly):
    """Solve a * y = 1 by Gaussian elimination over Q."""
    d = len(a)
    unit = [[Fraction(int(i == j)) for i in range(d)] for j in range(d)]
    cols = [ref_mul(a, unit[j], minpoly) for j in range(d)]
    rows = [[cols[j][i] for j in range(d)] + [unit[0][i]] for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [c / p for c in rows[col]]
        for r in range(d):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [c - f * pc for c, pc in zip(rows[r], rows[col])]
    return [row[d] for row in rows]


def ref_pow(a, k, minpoly):
    if k < 0:
        a, k = ref_inv(a, minpoly), -k
    acc = [Fraction(int(i == 0)) for i in range(len(a))]
    for _ in range(k):
        acc = ref_mul(acc, a, minpoly)
    return acc


def coords(x):
    """Rational coordinates of a field element, as Fractions."""
    return [Fraction(int(c.numerator), int(c.denominator))
            for c in field_coords(x)]


def check_lowest(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1


def random_coords(rng, d):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            if rng.random() < 0.8 else Fraction(0) for _ in range(d)]


# -- the tests ------------------------------------------------------------


def test_cyclotomic_polynomials():
    for n, coeffs in PHI.items():
        assert cyclotomic(n) == coeffs, n


def test_field_needs_n_at_least_2():
    with pytest.raises(ValueError):
        NumberField(1)


@pytest.mark.parametrize("n", range(2, 13))
def test_generator_order(n):
    field = NumberField.cyclotomic_field(n)
    assert field.deg == len(PHI[n]) - 1
    assert field.gen.pow(n) == field.one
    for k in range(1, n):
        assert field.gen.pow(k) != field.one


@pytest.mark.parametrize("n", range(2, 13))
def test_against_reference(n):
    field = NumberField.cyclotomic_field(n)
    mp = [Fraction(c) for c in PHI[n]]
    d = field.deg
    rng = random.Random(n)
    for _ in range(20):
        a, b = random_coords(rng, d), random_coords(rng, d)
        x, y = field.coerce(a), field.coerce(b)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert coords(x) == a and coords(y) == b
        cases = [
            (x + y, [s + t for s, t in zip(a, b)]),
            (x - y, [s - t for s, t in zip(a, b)]),
            (-x, [-s for s in a]),
            (x * y, ref_mul(a, b, mp)),
            (x + field.coerce(Q(q)), [a[0] + q] + a[1:]),
            (Q(q) * x, [q * s for s in a]),
        ]
        k = rng.randint(0, 4)
        cases.append((x.pow(k), ref_pow(a, k, mp)))
        if any(a):
            cases.append((x.inv(), ref_inv(a, mp)))
            cases.append((x.pow(-k), ref_pow(a, -k, mp)))
        for got, want in cases:
            check_lowest(got)
            assert coords(got) == want
        assert (x == y) == (a == b)
        assert (x + y) - y == x
        if any(a):
            assert x * x.inv() == field.one
        assert (x == field.coerce(Q(a[0]))) == (not any(a[1:]))
        if not any(a[1:]):
            assert x.rational_part() == Q(a[0])


@pytest.mark.parametrize("n", range(2, 13))
def test_rational_part(n):
    field = NumberField.cyclotomic_field(n)
    r = field.coerce(Q(-7, 6))
    assert r.is_rational() and r.rational_part() == Q(-7, 6)
    assert r == field.coerce(Q(-7, 6))
    assert (field.gen * field.gen.inv()).rational_part() == 1
    if field.deg > 1:
        with pytest.raises(ValueError):
            field.gen.rational_part()


@pytest.mark.parametrize("n", range(2, 13))
def test_zero_has_no_inverse(n):
    field = NumberField.cyclotomic_field(n)
    with pytest.raises(ZeroDivisionError):
        field.zero.inv()
    with pytest.raises(ZeroDivisionError):
        (field.gen - field.gen).inv()


@pytest.mark.parametrize("n", range(2, 8))
def test_dot_against_the_op_by_op_sum(n):
    """dot, normalized once, is the sum of its products folded op by op:
    random pairs over mixed and large denominators, with zero, integer
    and rational elements, sums that cancel, and the empty sum."""
    field = NumberField.cyclotomic_field(n)
    rng = random.Random(100 + n)

    def operand():
        roll = rng.random()
        if roll < 0.1:
            return field.zero
        if roll < 0.2:
            return field.coerce(rng.randint(-5, 5))
        if roll < 0.3:
            return field.coerce(Q(rng.randint(-9, 9),
                                  rng.randint(1, 10 ** 6)))
        return field.coerce(random_coords(rng, field.deg))

    sums = [[]]
    for _ in range(30):
        pairs = [(operand(), operand()) for _ in range(rng.randint(1, 8))]
        cut = rng.randint(0, len(pairs))
        sums += [
            pairs,
            pairs + [(-a, b) for a, b in pairs],        # cancels to zero
            pairs + [(-a, b) for a, b in pairs[:cut]],  # cancels in part
        ]
    for pairs in sums:
        got = field.dot(pairs)
        check_lowest(got)
        assert got.field is field
        assert got == dot_reference(field, pairs)
    assert field.dot([]) == field.zero
    assert field.dot(iter([(field.gen, field.gen)])) == field.gen * field.gen


@pytest.mark.parametrize("n", (3, 5))
def test_dot_with_rational_right_operands(n):
    """A rational right operand of dot scales its element's integer
    coordinates: the sum equals the op-by-op sum with the rationals
    coerced, for zero, signed int and signed Fraction operands, mixed
    with element pairs, cancelling and all zero."""
    field = NumberField.cyclotomic_field(n)
    rng = random.Random(300 + n)

    def scalar():
        roll = rng.random()
        if roll < 0.15:
            return rng.choice((0, Fraction(0)))
        if roll < 0.4:
            return rng.randint(-10 ** 6, 10 ** 6)
        return Fraction(rng.randint(-10 ** 6, 10 ** 6),
                        rng.randint(1, 10 ** 4))

    for _ in range(40):
        pairs = [(field.coerce(random_coords(rng, field.deg)), scalar())
                 for _ in range(rng.randint(1, 8))]
        elements = [(field.coerce(random_coords(rng, field.deg)),
                     field.coerce(random_coords(rng, field.deg)))
                    for _ in range(rng.randint(0, 3))]
        for mixed in (pairs, pairs + elements,
                      pairs + [(-a, q) for a, q in pairs],
                      [(a, 0) for a, _ in pairs]):
            got = field.dot(mixed)
            check_lowest(got)
            assert got == dot_reference(
                field, [(a, b if isinstance(b, NFElem) else field.coerce(b))
                        for a, b in mixed])


@pytest.mark.parametrize("n", range(2, 13))
def test_scale_is_the_rational_product(n):
    """A rational multiplies a field element only by scaling its integer
    coordinates: x.scale(q), x * q and q * x all equal the product with
    the coerced q, in lowest terms, for q zero, a signed int or a signed
    Fraction."""
    field = NumberField.cyclotomic_field(n)
    rng = random.Random(200 + n)
    for _ in range(10):
        x = field.coerce(random_coords(rng, field.deg))
        m = rng.randint(1, 10 ** 6)
        scalars = [0, m, -m, Fraction(m, rng.randint(2, 40)),
                   Fraction(-m, rng.randint(2, 40)), Fraction(0, 7)]
        for q in scalars:
            got = x.scale(q)
            check_lowest(got)
            assert got == x * field.coerce(q)
            assert x * q == got and q * x == got
        assert x.scale(0) == field.zero and x.scale(0).den == 1


@pytest.mark.parametrize("n", range(2, 13))
def test_sums_and_equality_take_field_elements_only(n):
    """+, - and == take field elements only: a rational operand is a
    TypeError (== is False), and an element of another field raises
    ValueError from every operator."""
    field = NumberField.cyclotomic_field(n)
    x = field.gen + field.one
    for q in (0, 3, -3, Fraction(2, 3), Fraction(-2, 3)):
        with pytest.raises(TypeError):
            x + q
        with pytest.raises(TypeError):
            q + x
        with pytest.raises(TypeError):
            x - q
        with pytest.raises(TypeError):
            q - x
        assert not (x == q) and x != q
    assert not (field.zero == 0) and not (field.one == 1)
    other = NumberField.cyclotomic_field(n + 1)
    y = other.gen + other.one
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a == b):
        with pytest.raises(ValueError, match="another number field"):
            op(x, y)
        with pytest.raises(ValueError, match="another number field"):
            op(y, x)
