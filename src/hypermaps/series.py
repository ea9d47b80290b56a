"""Exact series arithmetic.

Provides:

* ``EpsLaurent`` -- Laurent polynomials in the genus parameter eps with
  rational coefficients (the coefficient ring of the tau function).
* ``UniSeries`` -- Laurent series in one variable over a declared
  coefficient ring, with an explicit truncation order.  ``trunc`` is the
  first exponent the series does *not* know; ``trunc is None`` marks an
  exact Laurent polynomial.  Arithmetic never reports coefficients at or
  beyond the truncation order.
* ``MultiSeries`` -- weight-capped series in countably many variables
  v_1, v_2, ... where v_k carries weight k; coefficients are EpsLaurent.
* ``lagrange_invert`` -- exact series reversion.
"""
from __future__ import annotations

from .rational import Q, QONE, QZERO, is_rational, rat_str


class EpsLaurent:
    """Laurent polynomial in eps with rational coefficients.

    Stored sparsely as {exponent: nonzero rational}.  Immutable by
    convention: no method mutates self.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v != 0:
                    c[int(e)] = v
        self.c = c

    @classmethod
    def const(cls, q):
        return cls({0: Q(q)})

    @classmethod
    def term(cls, q, e):
        return cls({e: Q(q)})

    def coeff(self, e):
        return self.c.get(e, QZERO)

    def __bool__(self):
        return bool(self.c)

    def _coerce(self, other):
        if isinstance(other, EpsLaurent):
            return other
        if is_rational(other):
            return EpsLaurent.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, QZERO) + v
            if w == 0:
                c.pop(e, None)
            else:
                c[e] = w
        out = EpsLaurent.__new__(EpsLaurent)
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = EpsLaurent.__new__(EpsLaurent)
        out.c = {e: -v for e, v in self.c.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if is_rational(other):
            if other == 0:
                return EpsLaurent()
            out = EpsLaurent.__new__(EpsLaurent)
            out.c = {e: v * other for e, v in self.c.items()}
            return out
        if not isinstance(other, EpsLaurent):
            return NotImplemented
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = c.get(e, QZERO) + v1 * v2
                if w == 0:
                    c.pop(e, None)
                else:
                    c[e] = w
        out = EpsLaurent.__new__(EpsLaurent)
        out.c = c
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    __hash__ = None

    def __repr__(self):
        if not self.c:
            return "EpsLaurent(0)"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                parts.append(f"{v}")
            elif e == 1:
                parts.append(f"({v})*eps")
            else:
                parts.append(f"({v})*eps^{e}")
        return " + ".join(parts)

    def to_json(self):
        return {str(e): rat_str(self.c[e]) for e in sorted(self.c)}

    def exponents(self):
        return sorted(self.c)


class _RatRing:
    """Coefficient-ring adapter for plain rationals."""

    zero = QZERO
    one = QONE

    @staticmethod
    def coerce(v):
        return Q(v)

    @staticmethod
    def inv(v):
        return QONE / v

    @staticmethod
    def is_zero(v):
        return v == 0


QRING = _RatRing()

_BIG = 1 << 60


class UniSeries:
    """Laurent series with finite principal part and explicit truncation."""

    __slots__ = ("var", "ring", "c", "trunc")

    def __init__(self, var, ring, coeffs=None, trunc=None):
        self.var = var
        self.ring = ring
        self.trunc = trunc
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if trunc is not None and e >= trunc:
                    continue
                if not ring.is_zero(v):
                    c[int(e)] = v
        self.c = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var, ring, trunc=None):
        return cls(var, ring, {}, trunc)

    @classmethod
    def monomial(cls, var, ring, coef=1, exp=0, trunc=None):
        return cls(var, ring, {exp: ring.coerce(coef)}, trunc)

    # -- inspection ----------------------------------------------------

    def coeff(self, e):
        """Coefficient at exponent e; raises if e is beyond truncation."""
        if self.trunc is not None and e >= self.trunc:
            raise ValueError(
                f"coefficient of {self.var}^{e} not represented "
                f"(truncated at {self.trunc})")
        return self.c.get(e, self.ring.zero)

    def val(self):
        """Valuation: lowest stored exponent, or None for a zero series."""
        return min(self.c) if self.c else None

    def _val_or(self, default):
        return min(self.c) if self.c else default

    def is_zero(self):
        return not self.c

    # -- helpers -------------------------------------------------------

    def _check(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
        if self.ring is not other.ring:
            raise ValueError("coefficient ring mismatch")

    def _new(self, coeffs, trunc):
        out = UniSeries.__new__(UniSeries)
        out.var = self.var
        out.ring = self.ring
        out.trunc = trunc
        if trunc is not None:
            coeffs = {e: v for e, v in coeffs.items() if e < trunc}
        out.c = {e: v for e, v in coeffs.items() if not self.ring.is_zero(v)}
        return out

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        self._check(other)
        ta = _BIG if self.trunc is None else self.trunc
        tb = _BIG if other.trunc is None else other.trunc
        t = min(ta, tb)
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, self.ring.zero) + v
            if self.ring.is_zero(w):
                c.pop(e, None)
            else:
                c[e] = w
        return self._new(c, None if t == _BIG else t)

    def __neg__(self):
        return self._new({e: -v for e, v in self.c.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, k):
        """Multiply every coefficient by a scalar or ring element."""
        k = self.ring.coerce(k)
        if self.ring.is_zero(k):
            return self._new({}, self.trunc)
        return self._new({e: v * k for e, v in self.c.items()}, self.trunc)

    def truncated(self, t):
        if self.trunc is not None:
            t = min(t, self.trunc)
        return self._new(self.c, t)

    def __mul__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        self._check(other)
        # truncation of the product: each factor's unknown tail enters at
        # its trunc shifted by the other factor's valuation
        cand = []
        if self.trunc is not None:
            cand.append(self.trunc + other._val_or(0))
        if other.trunc is not None:
            cand.append(other.trunc + self._val_or(0))
        if not self.c or not other.c:
            t = min(cand) if cand else None
            return self._new({}, t)
        t = min(cand) if cand else None
        tt = _BIG if t is None else t
        c = {}
        zero = self.ring.zero
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                if e >= tt:
                    continue
                w = c.get(e, zero) + v1 * v2
                c[e] = w
        c = {e: v for e, v in c.items() if not self.ring.is_zero(v)}
        return self._new(c, t)

    __rmul__ = __mul__

    def inv(self, prec=None):
        """Multiplicative inverse as a truncated series.

        For a series of valuation v known modulo x^T the inverse is known
        modulo x^(T - 2v); ``prec`` can request less.
        """
        v = self.val()
        if v is None:
            raise ZeroDivisionError("inverse of zero series")
        lead = self.c[v]
        try:
            lead_inv = self.ring.inv(lead)
        except ZeroDivisionError:
            raise ZeroDivisionError("non-invertible leading term")
        if self.ring.is_zero(lead_inv) and not self.ring.is_zero(lead):
            raise ZeroDivisionError("non-invertible leading term")
        if self.trunc is None:
            if len(self.c) == 1:
                return self._new({-v: lead_inv}, prec)
            if prec is None:
                raise ValueError("inverse of a non-monomial polynomial "
                                 "requires an explicit precision")
            t_res = prec
        else:
            t_res = self.trunc - 2 * v
            if prec is not None:
                t_res = min(t_res, prec)
        # self = x^v sum_j a_j x^j and self^(-1) = x^(-v) sum_k b_k x^k
        # with b_0 = 1/a_0, b_k = -(1/a_0) sum_{j=1..k} a_j b_(k-j)
        n_prec = t_res + v
        tail = [(e - v, c) for e, c in sorted(self.c.items())
                if v < e < v + n_prec]
        neg_lead_inv = -lead_inv
        b = [lead_inv]
        for k in range(1, n_prec):
            acc = None
            for j, a_j in tail:
                if j > k:
                    break
                if b[k - j] is not None:
                    term = a_j * b[k - j]
                    acc = term if acc is None else acc + term
            b.append(None if acc is None else acc * neg_lead_inv)
        out = {k - v: b_k for k, b_k in enumerate(b) if b_k is not None}
        return self._new(out, t_res)

    def pow(self, n, prec=None):
        if n < 0:
            return self.inv(prec=prec).pow(-n, prec=prec)
        result = UniSeries.monomial(self.var, self.ring, 1, 0, trunc=None)
        base = self if prec is None else self.truncated(prec + max(0, -self._val_or(0)) * n)
        acc = result
        b = base
        m = n
        while m:
            if m & 1:
                acc = acc * b
                if prec is not None:
                    acc = acc.truncated(prec)
            m >>= 1
            if m:
                b = b * b
                if prec is not None:
                    b = b.truncated(prec)
        return acc if prec is None else acc.truncated(prec)

    def deriv(self):
        c = {}
        for e, v in self.c.items():
            if e == 0:
                continue
            c[e - 1] = v * self.ring.coerce(e)
        t = None if self.trunc is None else self.trunc - 1
        return self._new(c, t)

    def compose(self, inner):
        """self(inner) for inner of positive valuation.

        self must have nonnegative valuation (no principal part).
        """
        self._check(inner)
        if self.c and min(self.c) < 0:
            raise ValueError("compose requires nonnegative valuation")
        iv = inner._val_or(1)
        if inner.c and iv < 1:
            raise ValueError("inner series must have positive valuation")
        cand = []
        if inner.trunc is not None:
            cand.append(inner.trunc)
        if self.trunc is not None:
            cand.append(self.trunc * max(iv, 1))
        t = min(cand) if cand else None
        out = UniSeries.zero(self.var, self.ring, t)
        if not self.c:
            return out
        # Horner over descending exponents
        exps = sorted(self.c, reverse=True)
        acc = UniSeries.zero(self.var, self.ring, t)
        prev = exps[0]
        acc = acc + UniSeries.monomial(self.var, self.ring, 1, 0, t).scale(self.c[prev])
        for e in exps[1:]:
            acc = acc * inner.pow(prev - e, prec=t)
            if t is not None:
                acc = acc.truncated(t)
            acc = acc + UniSeries.monomial(self.var, self.ring, 1, 0, t).scale(self.c[e])
            prev = e
        if prev > 0:
            acc = acc * inner.pow(prev, prec=t)
        if t is not None:
            acc = acc.truncated(t)
        return acc

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return (self.var == other.var and self.trunc == other.trunc
                and self.c == other.c)

    __hash__ = None

    def __repr__(self):
        terms = []
        for e in sorted(self.c):
            terms.append(f"({self.c[e]})*{self.var}^{e}")
        body = " + ".join(terms) if terms else "0"
        tail = "" if self.trunc is None else f" + O({self.var}^{self.trunc})"
        return body + tail


def lagrange_invert(phi: UniSeries, trunc: int, out_var: str = "w") -> UniSeries:
    """Solve z = w*phi(z) for z(w) modulo w^trunc.

    phi must have an invertible constant term.  Plain fixpoint iteration:
    each pass gains at least one order.
    """
    ring = phi.ring
    if phi.c.get(0) is None or ring.is_zero(phi.c.get(0, ring.zero)):
        raise ValueError("phi must have a nonzero constant term")
    phi_w = UniSeries(out_var, ring, dict(phi.c), phi.trunc)
    w = UniSeries.monomial(out_var, ring, 1, 1, trunc)
    z = w.scale(phi.c[0])
    for _ in range(trunc + 1):
        znew = (w * phi_w.compose(z)).truncated(trunc)
        if znew == z:
            break
        z = znew
    return z


class MultiSeries:
    """Weight-capped series in variables v_1, v_2, ... with EpsLaurent
    coefficients.  A monomial is stored as the weakly decreasing tuple of
    variable indices with multiplicity, e.g. v_3 * v_2^2 -> (3, 2, 2);
    its weight is the sum of the tuple.  Every stored monomial has weight
    <= cap and a nonzero coefficient.
    """

    __slots__ = ("cap", "c")

    def __init__(self, cap, coeffs=None):
        self.cap = cap
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                k = tuple(sorted(k, reverse=True))
                if sum(k) > cap:
                    continue
                if v:
                    c[k] = v
        self.c = c

    @classmethod
    def const(cls, cap, q):
        v = q if isinstance(q, EpsLaurent) else EpsLaurent.const(q)
        return cls(cap, {(): v})

    def coeff(self, key):
        key = tuple(sorted(key, reverse=True))
        return self.c.get(key, EpsLaurent())

    def _new(self, c):
        out = MultiSeries.__new__(MultiSeries)
        out.cap = self.cap
        out.c = c
        return out

    def __add__(self, other):
        if isinstance(other, (int, EpsLaurent)) or is_rational(other):
            other = MultiSeries.const(self.cap, other)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        cap = min(self.cap, other.cap)
        c = {k: v for k, v in self.c.items() if sum(k) <= cap}
        for k, v in other.c.items():
            if sum(k) > cap:
                continue
            w = c.get(k, EpsLaurent()) + v
            if w:
                c[k] = w
            else:
                c.pop(k, None)
        out = MultiSeries.__new__(MultiSeries)
        out.cap = cap
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        if isinstance(other, (int, EpsLaurent)) or is_rational(other):
            other = MultiSeries.const(self.cap, other)
        return self + (-other)

    def scale(self, q):
        if not isinstance(q, EpsLaurent):
            q = EpsLaurent.const(q)
        if not q:
            return self._new({})
        return self._new({k: v * q for k, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, (int, EpsLaurent)) or is_rational(other):
            return self.scale(other)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        cap = min(self.cap, other.cap)
        c = {}
        for k1, v1 in self.c.items():
            w1 = sum(k1)
            if w1 > cap:
                continue
            for k2, v2 in other.c.items():
                if w1 + sum(k2) > cap:
                    continue
                k = tuple(sorted(k1 + k2, reverse=True))
                w = c.get(k, EpsLaurent()) + v1 * v2
                if w:
                    c[k] = w
                else:
                    c.pop(k, None)
        out = MultiSeries.__new__(MultiSeries)
        out.cap = cap
        out.c = c
        return out

    __rmul__ = __mul__

    def log(self):
        """Formal log; requires constant term exactly 1.

        Taken weight by weight: with E multiplying a weight-n monomial by
        n, E(Z) = Z E(log Z), so the weight-n parts satisfy n L_n = n Z_n
        - sum_{0<j<n} j L_j Z_(n-j), and each L_n costs products of
        homogeneous parts only.  The sums run on the eps-coefficient
        dicts, and L_n = (n L_n) / n becomes EpsLaurent once.
        """
        if self.c.get((), EpsLaurent()) != EpsLaurent.const(1):
            raise ValueError("log requires constant term 1")
        parts = [[] for _ in range(self.cap + 1)]  # Z_n, n >= 1
        for k, v in self.c.items():
            if k:
                parts[sum(k)].append((k, v.c))
        weighted = [[]]  # j L_j
        out = {}
        for n in range(1, self.cap + 1):
            acc = {k: {e: a * n for e, a in c.items()} for k, c in parts[n]}
            for j in range(1, n):
                for k1, c1 in weighted[j]:
                    for k2, c2 in parts[n - j]:
                        d = acc.setdefault(
                            tuple(sorted(k1 + k2, reverse=True)), {})
                        for e1, a in c1.items():
                            for e2, b in c2.items():
                                d[e1 + e2] = d.get(e1 + e2, QZERO) - a * b
            row = []
            inv_n = Q(1, n)
            for k, d in acc.items():
                d = {e: a for e, a in d.items() if a}
                if d:
                    row.append((k, d))
                    out[k] = EpsLaurent({e: a * inv_n for e, a in d.items()})
            weighted.append(row)
        return self._new(out)

    def __repr__(self):
        return f"MultiSeries(cap={self.cap}, {len(self.c)} monomials)"

