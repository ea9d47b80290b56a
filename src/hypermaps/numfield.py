"""Exact arithmetic in a number field Q[x]/(m(x)).

Elements are dense rational coordinate vectors in the power basis
1, x, ..., x^(deg-1).  The minimal polynomial is monic with rational
coefficients; reduction uses precomputed images of x^k for k up to
2*deg - 2, which covers every product of basis elements.
"""
from __future__ import annotations

from functools import lru_cache

from .rational import Q, QONE, QZERO, is_rational


def _poly_divmod(num, den):
    """Quotient and remainder of rational coefficient lists (ascending)."""
    num = list(num)
    dd = len(den) - 1
    while den and den[-1] == 0:
        den = den[:-1]
        dd -= 1
    lead = den[-1]
    quot = [QZERO] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / lead
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dc in enumerate(den):
            num[i - dd + j] -= c * dc
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def cyclotomic(n: int):
    """Coefficients (ascending, monic) of the n-th cyclotomic polynomial,
    by dividing x^n - 1 by the cyclotomic polynomials of proper divisors."""
    num = [QZERO] * (n + 1)
    num[0] = Q(-1)
    num[n] = QONE
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, cyclotomic(d))
            if rem:
                raise ArithmeticError("cyclotomic division must be exact")
    return num


class NumberField:
    """Q[x]/(minpoly), minpoly monic of degree >= 1; also the coefficient
    ring of a ``UniSeries`` over the field (``zero``, ``one``, ``coerce``,
    ``inv``, ``is_zero``)."""

    def __init__(self, minpoly, name="x"):
        mp = [Q(c) for c in minpoly]
        if not mp or mp[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = mp
        self.deg = len(mp) - 1
        self.name = name
        # light squarefreeness check: gcd(m, m') constant
        self._check_squarefree()
        # reductions of x^k for k = deg .. 2*deg - 2
        self._red = {}
        if self.deg >= 1:
            cur = [-c for c in mp[:-1]]  # x^deg
            self._red[self.deg] = list(cur)
            for k in range(self.deg + 1, 2 * self.deg - 1):
                nxt = [QZERO] + cur[:-1]
                top = cur[-1]
                if top != 0:
                    for i in range(self.deg):
                        nxt[i] -= top * mp[i]
                cur = nxt
                self._red[k] = list(cur)
        self.zero = NFElem(self, [QZERO] * self.deg)
        self.one = NFElem(self, [QONE] + [QZERO] * (self.deg - 1))
        self.gen = (NFElem(self, [QZERO, QONE] + [QZERO] * (self.deg - 2))
                    if self.deg >= 2 else
                    NFElem(self, [-mp[0]]))

    def _check_squarefree(self):
        m = self.minpoly
        dm = [Q(i) * m[i] for i in range(1, len(m))]
        a, b = list(m), dm
        while any(c != 0 for c in b):
            _, r = _poly_divmod(a, b)
            a, b = b, r
        while a and a[-1] == 0:
            a.pop()
        if len(a) > 1:
            raise ValueError("minimal polynomial must be squarefree")

    @staticmethod
    @lru_cache(maxsize=None)
    def cyclotomic_field(n: int):
        """Q(zeta_n), one object per n, so that elements built for the same
        n by different callers mix."""
        return NumberField(cyclotomic(n), name=f"zeta{n}")

    def coerce(self, v):
        if isinstance(v, NFElem):
            if v.field is not self:
                raise ValueError("element of another number field")
            return v
        if is_rational(v) or isinstance(v, int):
            return NFElem(self, [Q(v)] + [QZERO] * (self.deg - 1))
        v = [Q(c) for c in v]
        if len(v) != self.deg:
            raise ValueError(f"need {self.deg} coordinates, got {len(v)}")
        return NFElem(self, v)

    @staticmethod
    def inv(v):
        return v.inv()

    @staticmethod
    def is_zero(v):
        return v.is_zero()

    def _reduce(self, long_vec):
        """Reduce a coefficient list of length <= 2*deg - 1 mod minpoly."""
        out = list(long_vec[:self.deg])
        out += [QZERO] * (self.deg - len(out))
        for k in range(self.deg, len(long_vec)):
            c = long_vec[k]
            if c == 0:
                continue
            red = self._red[k]
            for i in range(self.deg):
                out[i] += c * red[i]
        return out

    def __repr__(self):
        return f"NumberField(deg={self.deg}, gen={self.name})"


class NFElem:
    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def is_zero(self):
        return all(c == 0 for c in self.v)

    def is_rational(self):
        return all(c == 0 for c in self.v[1:])

    def rational_part(self):
        if not self.is_rational():
            raise ValueError("element not in the prime field")
        return self.v[0]

    def _coerce(self, other):
        if isinstance(other, NFElem):
            if other.field is not self.field:
                raise ValueError("element of another number field")
            return other
        if is_rational(other) or isinstance(other, int):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElem(self.field, [a + b for a, b in zip(self.v, other.v)])

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, [-a for a in self.v])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElem(self.field, [a - b for a, b in zip(self.v, other.v)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self.field.deg
        long_vec = [QZERO] * (2 * d - 1)
        for i, a in enumerate(self.v):
            if a == 0:
                continue
            for j, b in enumerate(other.v):
                if b == 0:
                    continue
                long_vec[i + j] += a * b
        return NFElem(self.field, self.field._reduce(long_vec))

    __rmul__ = __mul__

    def inv(self):
        """Inverse by solving self * y = 1 as a linear system over Q."""
        d = self.field.deg
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.is_rational():
            return self.field.coerce(QONE / self.v[0])
        # columns: self * x^j reduced
        cols = []
        for j in range(d):
            long_vec = [QZERO] * (2 * d - 1)
            for i, a in enumerate(self.v):
                long_vec[i + j] = a
            cols.append(self.field._reduce(long_vec))
        # Gaussian elimination on the d x d system
        mat = [[cols[j][i] for j in range(d)] for i in range(d)]
        rhs = [QONE] + [QZERO] * (d - 1)
        for col in range(d):
            piv = next((r for r in range(col, d) if mat[r][col] != 0), None)
            if piv is None:
                raise ZeroDivisionError("element is a zero divisor; "
                                        "minimal polynomial not irreducible "
                                        "over this element")
            if piv != col:
                mat[piv], mat[col] = mat[col], mat[piv]
                rhs[piv], rhs[col] = rhs[col], rhs[piv]
            p = mat[col][col]
            mat[col] = [c / p for c in mat[col]]
            rhs[col] = rhs[col] / p
            for r in range(d):
                if r == col or mat[r][col] == 0:
                    continue
                f = mat[r][col]
                mat[r] = [c - f * pc for c, pc in zip(mat[r], mat[col])]
                rhs[r] = rhs[r] - f * rhs[col]
        return NFElem(self.field, rhs)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def pow(self, n: int):
        if n < 0:
            return self.inv().pow(-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.v == other.v

    __hash__ = None

    def __repr__(self):
        name = self.field.name
        terms = []
        for i, c in enumerate(self.v):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"({c})*{name}")
            else:
                terms.append(f"({c})*{name}^{i}")
        return " + ".join(terms) if terms else "0"
