"""Exact series arithmetic.

Provides:

* ``UniSeries`` -- Laurent series in one variable over a declared
  coefficient ring, with an explicit truncation order.  ``trunc`` is the
  first exponent the series does *not* know; ``trunc is None`` marks an
  exact Laurent polynomial.  Arithmetic never reports coefficients at or
  beyond the truncation order.  A coefficient ring provides ``zero``,
  ``one``, ``inv``, ``is_zero`` and ``dot``, the sum of a * b over a
  sequence of pairs: each coefficient of a product or an inverse is one
  ``dot``.  A series is built in one way, by the constructor, from
  coefficients that are already ring elements.  Products, powers and
  inverses take the precision their caller reads (``mul``'s, ``pow``'s
  and ``inv``'s ``prec``) and form no coefficient at or beyond it.  A
  series stores no zero coefficient: ``_stored``, which the constructor
  and every operation return through, drops them, and no operation
  checks again.  How far a result is known is decided here alone, from
  one valuation rule (``val``); ``residue`` reads a product's
  coefficient at x^(-1) and raises where the product does not know it.
* ``EpsLaurent`` -- Laurent polynomials in the genus parameter eps with
  rational coefficients (the coefficient ring of the tau function): an
  exact UniSeries over Q in eps, so its sums and products are
  UniSeries arithmetic between two EpsLaurents.
* ``MultiSeries`` -- weight-capped series in countably many variables
  v_1, v_2, ... where v_k carries weight k; coefficients are EpsLaurent.
  It defines no sums: the tau side only builds one, reads it and logs it.
* ``lagrange_invert`` -- exact series reversion.

A rational enters a series only through a constructor, ``const`` or
``scale``: no operator takes a rational operand.
"""
from __future__ import annotations

from .rational import Q, QONE, QZERO, rat_str


class _RatRing:
    """Coefficient-ring adapter for plain rationals."""

    zero = QZERO
    one = QONE

    @staticmethod
    def inv(v):
        return QONE / v

    @staticmethod
    def is_zero(v):
        return v == 0

    @staticmethod
    def dot(pairs):
        return sum((a * b for a, b in pairs), QZERO)


QRING = _RatRing()


def _least(a, b):
    """The one truncation rule: a result is known below the least of its
    known truncation candidates, None standing for an exact operand, and
    is exact when both are.  A truncation of 0 is as real as any other."""
    if a is None:
        return b
    return a if b is None else min(a, b)


def _stored(ring, coeffs, trunc):
    """The one zero rule: the coefficients a series stores, the nonzero
    ones below ``trunc``."""
    is_zero = ring.is_zero
    if trunc is None:
        return {e: v for e, v in coeffs.items() if not is_zero(v)}
    return {e: v for e, v in coeffs.items() if e < trunc and not is_zero(v)}


class UniSeries:
    """Laurent series with finite principal part and explicit truncation."""

    __slots__ = ("var", "ring", "c", "trunc")

    def __init__(self, var, ring, coeffs=None, trunc=None):
        self.var = var
        self.ring = ring
        self.trunc = trunc
        self.c = _stored(ring, coeffs or {}, trunc)

    # -- inspection ----------------------------------------------------

    def coeff(self, e):
        """Coefficient at exponent e; raises if e is beyond truncation."""
        if self.trunc is not None and e >= self.trunc:
            raise ValueError(
                f"coefficient of {self.var}^{e} not represented "
                f"(truncated at {self.trunc})")
        return self.c.get(e, self.ring.zero)

    def val(self):
        """The one valuation rule: the lowest stored exponent, else
        ``trunc`` (a series that stores nothing below x^T vanishes there,
        so its valuation is at least T), else None for the exact zero.
        Products, composites and residues read their precision from it,
        and `inv` refuses a series whose valuation is no stored term."""
        if self.c:
            return min(self.c)
        return self.trunc

    def is_zero(self):
        return not self.c

    # -- helpers -------------------------------------------------------

    def _check(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
        if self.ring is not other.ring:
            raise ValueError("coefficient ring mismatch")

    def _product_trunc(self, other):
        """Where the product with ``other`` stops being known: each
        factor's unknown tail enters at its trunc shifted by the other
        factor's valuation, and an exact zero factor shifts it past every
        exponent."""
        self._check(other)
        ta, tb = self.trunc, other.trunc
        vb = None if ta is None else other.val()
        va = None if tb is None else self.val()
        return _least(None if vb is None else ta + vb,
                      None if va is None else tb + va)

    def _new(self, coeffs, trunc):
        out = object.__new__(type(self))
        out.var = self.var
        out.ring = self.ring
        out.trunc = trunc
        out.c = _stored(self.ring, coeffs, trunc)
        return out

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        self._check(other)
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c[e] + v if e in c else v
        return self._new(c, _least(self.trunc, other.trunc))

    def __neg__(self):
        return self._new({e: -v for e, v in self.c.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, k):
        """Multiply every coefficient by a scalar or ring element."""
        return self._new({e: v * k for e, v in self.c.items()}, self.trunc)

    def truncated(self, t):
        return self._new(self.c, _least(t, self.trunc))

    def mul(self, other, prec=None):
        """The product truncated at ``prec``: the whole product's
        coefficients and ``trunc``, each cut at ``prec``, from only the
        coefficient pairs below that cut."""
        if not isinstance(other, UniSeries):
            return NotImplemented
        t = _least(self._product_trunc(other), prec)
        if not self.c or not other.c:
            return self._new({}, t)
        stop = max(self.c) + max(other.c) + 1 if t is None else t
        pairs = {}  # exponent -> the coefficient pairs it sums
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                if e < stop:
                    pairs.setdefault(e, []).append((v1, v2))
        dot = self.ring.dot
        return self._new({e: dot(p) for e, p in pairs.items()}, t)

    __mul__ = __rmul__ = mul

    def residue(self, other):
        """Res self * other dx, the product's coefficient at x^(-1): one
        ring.dot over the pairs of self's coefficient at x^m with other's
        at x^(-1-m).  A product not known at x^(-1) raises
        ArithmeticError rather than be read truncated."""
        t = self._product_trunc(other)
        if t is not None and t < 0:
            raise ArithmeticError("insufficient local expansion order")
        oc = other.c
        return self.ring.dot([(v, oc[-1 - e]) for e, v in self.c.items()
                              if -1 - e in oc])

    def inv(self, prec=None):
        """Multiplicative inverse as a truncated series.

        For a series of valuation v known modulo x^T the inverse is known
        modulo x^(T - 2v); ``prec`` can request less.
        """
        v = self.val()
        if v not in self.c:  # the exact zero, or no coefficient known
            raise ZeroDivisionError("inverse of zero series")
        lead_inv = self.ring.inv(self.c[v])
        if self.trunc is None and len(self.c) == 1:
            return self._new({-v: lead_inv}, prec)
        t_res = _least(None if self.trunc is None else self.trunc - 2 * v,
                       prec)
        if t_res is None:
            raise ValueError("inverse of a non-monomial polynomial "
                             "requires an explicit precision")
        # self = x^v sum_j a_j x^j and self^(-1) = x^(-v) sum_k b_k x^k
        # with b_0 = 1/a_0, b_k = sum_{j=1..k} (-a_j/a_0) b_(k-j)
        n_prec = t_res + v
        tail = [(e - v, -c * lead_inv) for e, c in sorted(self.c.items())
                if v < e < v + n_prec]
        dot = self.ring.dot
        b = [lead_inv]
        for k in range(1, n_prec):
            b.append(dot([(c_j, b[k - j]) for j, c_j in tail if j <= k]))
        return self._new({k - v: b_k for k, b_k in enumerate(b)}, t_res)

    def pow(self, n, prec=None):
        if n < 0:
            return self.inv(prec=prec).pow(-n, prec=prec)
        acc = UniSeries(self.var, self.ring, {0: self.ring.one})
        b = self
        m = n
        while m:
            if m & 1:
                acc = acc.mul(b, prec)
            m >>= 1
            if m:
                b = b.mul(b, prec)
        # at n = 0 the exact one, known as far as asked
        return acc.truncated(prec)

    def deriv(self):
        t = None if self.trunc is None else self.trunc - 1
        return self._new({e - 1: v * e for e, v in self.c.items()}, t)

    def compose(self, inner):
        """self(inner) for inner of positive valuation.

        self must have nonnegative valuation (no principal part).
        """
        self._check(inner)
        v, iv = self.val(), inner.val()
        if v is not None and v < 0:
            raise ValueError("compose requires nonnegative valuation")
        if iv is None or iv < 1:
            raise ValueError("inner series must have positive valuation")
        t = _least(inner.trunc,
                   None if self.trunc is None else self.trunc * iv)
        # sum of c_e inner^e, one product per exponent
        out = UniSeries(self.var, self.ring, {}, t)
        power = UniSeries(self.var, self.ring, {0: self.ring.one}, t)
        for e in range(max(self.c, default=-1) + 1):
            if e:
                power = power.mul(inner, t)
            if e in self.c:
                out = out + power.scale(self.c[e])
        return out

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


class EpsLaurent(UniSeries):
    """Laurent polynomial in eps with rational coefficients: an exact
    UniSeries (``trunc is None``) in the variable "eps" over QRING.

    +, -, * and == take two EpsLaurents; a rational enters only through
    the constructor, ``const`` or ``scale``.
    Immutable by convention: no method mutates self.
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__("eps", QRING, coeffs)

    @classmethod
    def const(cls, q):
        return cls({0: Q(q)})

    def __bool__(self):
        return bool(self.c)

    # UniSeries.mul under a name of its own, so that the benchmark's
    # tracer counts eps products apart from every other series product
    def __mul__(self, other):
        return UniSeries.mul(self, other)

    def to_json(self):
        return {str(e): rat_str(self.c[e]) for e in sorted(self.c)}


def lagrange_invert(phi: UniSeries, trunc: int, out_var: str = "w") -> UniSeries:
    """Solve z = w*phi(z) for z(w) modulo w^trunc.

    phi must have an invertible constant term.  Plain fixpoint iteration:
    each pass gains at least one order.
    """
    ring = phi.ring
    if 0 not in phi.c:
        raise ValueError("phi must have a nonzero constant term")
    phi_w = UniSeries(out_var, ring, phi.c, phi.trunc)
    w = UniSeries(out_var, ring, {1: ring.one}, trunc)
    z = w.scale(phi.c[0])
    for _ in range(trunc + 1):
        znew = w.mul(phi_w.compose(z), trunc)
        if znew == z:
            break
        z = znew
    return z


def _nonzero(c):
    """The zero rule of MultiSeries: the monomials it stores, those with a
    nonzero coefficient."""
    return {k: v for k, v in c.items() if v}


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
        for k, v in (coeffs or {}).items():
            k = tuple(sorted(k, reverse=True))
            if sum(k) <= cap:
                c[k] = v
        self.c = _nonzero(c)

    def coeff(self, key):
        v = self.c.get(tuple(sorted(key, reverse=True)))
        return EpsLaurent() if v is None else v

    def _new(self, c, cap=None):
        out = MultiSeries.__new__(MultiSeries)
        out.cap = self.cap if cap is None else cap
        out.c = _nonzero(c)
        return out

    # no src path multiplies two MultiSeries: the benchmark's tracer
    # wraps this product, and the tests' Mercator log and exp use it
    def __mul__(self, other):
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
                c[k] = c[k] + v1 * v2 if k in c else v1 * v2
        return self._new(c, cap)

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

