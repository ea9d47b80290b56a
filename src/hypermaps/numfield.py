"""Exact arithmetic in the cyclotomic field Q(zeta_n), n >= 2.

An element is a vector of integer coordinates in the power basis
1, zeta, ..., zeta^(deg-1), deg = phi(n), over one positive denominator,
in lowest terms (Cohen, *A Course in Computational Algebraic Number
Theory*, sec. 4.2).  The cyclotomic polynomial Phi_n is monic with
integer coefficients, so reducing an integer vector mod Phi_n keeps it
integral: every operation is integer arithmetic followed by one gcd, and
``dot`` sums many products before its one gcd.

The inverse of x is the product of its other Galois conjugates
(zeta -> zeta^k, gcd(k, n) = 1) divided by the rational norm; Phi_n is
irreducible, so every nonzero element is invertible.

``NumberField`` is also the coefficient ring of a ``UniSeries`` over the
field (``zero``, ``one``, ``coerce``, ``inv``, ``is_zero``, ``dot``).

The operand rule: a rational enters the field in exactly two ways.
``NumberField.coerce`` builds an element from rationals, for the series
ring interface alone (the tensor cache loader builds an element from
its stored integers), and ``NFElem.scale`` multiplies an element by an
``int`` or ``Fraction`` by scaling its integer coordinates, one gcd and
no convolution; ``*`` with a rational operand is ``scale``, and ``dot``
scales the same way for a rational right operand, within the sum's one
gcd (a correlator's integer term scalars enter it so).  ``+``, ``-``
and ``==`` take field elements only: a rational operand is a
``TypeError`` (``==`` is False), and an element of another field a
``ValueError``.  The powers zeta^p, p < n, are ``NumberField.roots``.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .rational import Q, is_rational, need_order


def cyclotomic(n: int) -> list:
    """Integer coefficients (ascending, monic) of Phi_n: x^n - 1 divided
    exactly by Phi_d for every proper divisor d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = cyclotomic(d)
        dd = len(den) - 1
        quot = [0] * (len(num) - dd)
        for i in range(len(num) - 1, dd - 1, -1):
            c = quot[i - dd] = num[i]
            if c:
                for j, dc in enumerate(den):
                    num[i - dd + j] -= c * dc
        if any(num):
            raise ArithmeticError("cyclotomic division must be exact")
        num = quot
    return num


class NumberField:
    """Q(zeta_n) = Q[x]/(Phi_n)."""

    def __init__(self, n: int):
        need_order(n)
        self.n = n
        minpoly = cyclotomic(n)
        self.deg = d = len(minpoly) - 1
        self.name = f"zeta{n}"
        # x^k mod Phi_n for k < max(n, 2 deg - 1): every power of zeta
        # below n and every product of two basis elements
        self._pow = []
        cur = [1] + [0] * (d - 1)
        for _ in range(max(n, 2 * d - 1)):
            self._pow.append(cur)
            top = cur[-1]
            cur = [c - top * m for c, m in zip([0] + cur[:-1], minpoly)]
        self.zero = NFElem(self, [0] * d, 1)
        # zeta^p for p < n, read by its power p
        self.roots = tuple(NFElem(self, v, 1) for v in self._pow[:n])
        self.one, self.gen = self.roots[:2]

    @staticmethod
    @lru_cache(maxsize=None)
    def cyclotomic_field(n: int):
        """Q(zeta_n), one object per n, so that elements built for the same
        n by different callers mix."""
        return NumberField(n)

    def coerce(self, v):
        """An element of this field, a rational, or deg rational
        coordinates, as an element of this field."""
        if isinstance(v, NFElem):
            if v.field is not self:
                raise ValueError("element of another number field")
            return v
        if is_rational(v):
            v = [v] + [0] * (self.deg - 1)
        v = [Q(c) for c in v]
        if len(v) != self.deg:
            raise ValueError(f"need {self.deg} coordinates, got {len(v)}")
        # over the lcm of lowest-terms denominators the gcd is already 1
        den = lcm(*(int(c.denominator) for c in v))
        return NFElem(self, [int(c.numerator) * (den // int(c.denominator))
                             for c in v], den)

    @staticmethod
    def inv(v):
        return v.inv()

    @staticmethod
    def is_zero(v):
        return v.is_zero()

    def dot(self, pairs):
        """sum a * b over pairs of an element a of this field and an
        element or rational b, normalized once (delayed reduction): each
        product's integer coordinates are added, unreduced, into one
        vector per denominator a.den * b.den, a rational b scaling a's
        coordinates by its numerator with no convolution; the vectors
        are brought to their lcm, then reduced mod Phi_n and divided by
        one gcd."""
        by_den = {}
        for a, b in pairs:
            rational = not isinstance(b, NFElem)
            den = a.den * (b.denominator if rational else b.den)
            vec = by_den.get(den)
            if vec is None:
                vec = by_den[den] = [0] * (2 * self.deg - 1)
            if rational:
                m = b.numerator
                for i, x in enumerate(a.num):
                    vec[i] += x * m
            else:
                _convolve(a.num, b.num, vec)
        if not by_den:
            return self.zero
        den = lcm(*by_den)
        total = [0] * (2 * self.deg - 1)
        for d, vec in by_den.items():
            scale = den // d
            for i, c in enumerate(vec):
                total[i] += c * scale
        return _lowest(self, self._reduce(total), den)

    def _reduce(self, vec):
        """Coordinates of sum_k vec[k] zeta^k, for len(vec) at most the
        length of the power table."""
        out = vec[:self.deg]
        for k in range(self.deg, len(vec)):
            c = vec[k]
            if c:
                for i, r in enumerate(self._pow[k]):
                    out[i] += c * r
        return out


def _convolve(x, y, out):
    """Add the coordinates of the polynomial product of the integer
    vectors x and y, not reduced mod Phi_n, into out."""
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b


def _lowest(field, num, den):
    """num / den, den > 0, divided by gcd(den, *num)."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return NFElem(field, num, den)


class NFElem:
    """sum_i num[i] zeta^i / den with integers num[i], den > 0 and
    gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_part(self):
        if not self.is_rational():
            raise ValueError("element not in the prime field")
        return Q(self.num[0], self.den)

    def _in_field(self, other):
        """Whether other is an element of this field; False for anything
        that is not a field element, ValueError for another field's."""
        if not isinstance(other, NFElem):
            return False
        if other.field is not self.field:
            raise ValueError("element of another number field")
        return True

    def scale(self, q):
        """self * q for an int or Fraction q: the integer coordinates
        times q's numerator over den times its denominator."""
        a, b = q.numerator, q.denominator
        return _lowest(self.field, [x * a for x in self.num], self.den * b)

    def __add__(self, other):
        if not self._in_field(other):
            return NotImplemented
        a, b = self.den, other.den
        return _lowest(self.field,
                       [x * b + y * a for x, y in zip(self.num, other.num)],
                       a * b)

    def __neg__(self):
        return NFElem(self.field, [-x for x in self.num], self.den)

    def __sub__(self, other):
        if not self._in_field(other):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if is_rational(other):
            return self.scale(other)
        if not self._in_field(other):
            return NotImplemented
        field = self.field
        prod = [0] * (2 * field.deg - 1)
        _convolve(self.num, other.num, prod)
        return _lowest(field, field._reduce(prod), self.den * other.den)

    __rmul__ = __mul__

    def _conjugate(self, k):
        """The image under zeta -> zeta^k, gcd(k, n) = 1.  An automorphism
        of Z[zeta] keeps the coordinates in lowest terms."""
        field = self.field
        vec = [0] * field.n
        for i, x in enumerate(self.num):
            vec[i * k % field.n] += x
        return NFElem(field, field._reduce(vec), self.den)

    def inv(self):
        """The product of the other Galois conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        n = self.field.n
        conj = self.field.one
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = conj * self._conjugate(k)
        return conj * (1 / (self * conj).rational_part())

    def pow(self, e: int):
        if e < 0:
            return self.inv().pow(-e)
        acc, base = self.field.one, self
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def __eq__(self, other):
        if not self._in_field(other):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return f"NFElem({self.field.name}, {self.num}, {self.den})"
