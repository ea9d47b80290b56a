"""Flat metric, canonical frame, and calibration matrices at the special
point of the Frobenius structure attached to x(p) = p^(N-1) + 1/p.

All data is exact: rationals, ExactPolar values, and finite residue
extractions.  The S-matrix entries come from residues of powers of
F = p^(N-1) + 1/p; fractional powers expand at infinity through the
generalized binomial series, and the last column uses the two-chart
logarithm split with harmonic-number constants.  The residue lemma is
checked on series in z known modulo z^(k+2), the order its read needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .polar import ExactPolar, roots_of_unity_sum
from .rational import Q, QONE, QZERO, binomial_q, factorial_q, harmonic
from .series import QRING, UniSeries


# ---------------------------------------------------------------------------
# metric and charges


@dataclass(frozen=True)
class EtaMetric:
    N: int
    entries: tuple  # N x N tuple of tuples of Q

    def __getitem__(self, ab):
        a, b = ab
        return self.entries[a - 1][b - 1]


def _eta_pair(N: int, a: int):
    """eta_{a, N+1-a}: 1 at a = 1 and a = N, 1/(N-1) in between."""
    return QONE if a in (1, N) else Q(1, N - 1)


def eta(N: int) -> EtaMetric:
    """Flat metric in the flat coordinates: eta_{ab} vanishes unless
    a + b = N + 1, where it is `_eta_pair(N, a)`."""
    if N < 2:
        raise ValueError("N must be at least 2")
    return EtaMetric(N, tuple(
        tuple(_eta_pair(N, a) if a + b == N + 1 else QZERO
              for b in range(1, N + 1))
        for a in range(1, N + 1)))


def mu_charge(N: int):
    """Diagonal of mu and the charge d."""
    if N < 2:
        raise ValueError("N must be at least 2")
    mu = [Q(N + 1 - 2 * a, 2 * (N - 1)) for a in range(1, N + 1)]
    d = Q(N - 3, N - 1)
    return mu, d


# ---------------------------------------------------------------------------
# canonical frame at the special point


@dataclass(frozen=True)
class CanonicalFrame:
    N: int
    c: tuple          # critical points, ExactPolar
    u: tuple          # canonical coordinates, ExactPolar
    delta_half: tuple  # square roots of the Hessian values, ExactPolar
    psi: tuple        # psi[i-1][a-1] = Psi^i_a, ExactPolar


def _psi_entry(N: int, i: int, a: int) -> ExactPolar:
    if a == 1:
        return ExactPolar(N, 1, e1=Q(1, 2 * N), e2=Q(-1, 2),
                          ang=Q(-i, 2 * N))
    return ExactPolar(N, 1, e1=Q(-2 * N - 1 + 2 * a, 2 * N), e2=Q(-1, 2),
                      ang=Q(i * (2 * N + 1 - 2 * a), 2 * N))


def canonical_frame(N: int) -> CanonicalFrame:
    if N < 2:
        raise ValueError("N must be at least 2")
    c = tuple(ExactPolar(N, 1, e1=Q(-1, N), ang=Q(i, N))
              for i in range(1, N + 1))
    u = tuple(ExactPolar(N, N, e1=Q(1, N) - 1, ang=Q(-i, N))
              for i in range(1, N + 1))
    delta_half = tuple(ExactPolar(N, 1, e1=Q(3, 2 * N), e2=Q(1, 2),
                                  ang=Q(-3 * i, 2 * N))
                       for i in range(1, N + 1))
    psi = tuple(tuple(_psi_entry(N, i, a) for a in range(1, N + 1))
                for i in range(1, N + 1))
    return CanonicalFrame(N, c, u, delta_half, psi)


def x_at_polar(v: ExactPolar) -> ExactPolar:
    """x(p) = p^(N-1) + 1/p at an exact polar point."""
    return v.pow(v.N - 1) + v.inv()


def psi_orthogonality_defect(N: int):
    """List of (a, b, ok) for the pairing sum_i Psi^i_a Psi^i_b = eta_{ab}.

    Column a of `canonical_frame(N).psi` is read as Psi^i_a = K_a e(i s_a),
    with K_a = Psi^0_a and s_a the angle of Psi^1_a, and a pair fails
    unless both its columns are that progression.  The sum over i then
    only touches the angle through an arithmetic progression of N-th
    roots of unity, so it collapses exactly.
    """
    et, psi = eta(N), canonical_frame(N).psi
    cols = []
    for a in range(1, N + 1):
        ka, sa = _psi_entry(N, 0, a), _psi_entry(N, 1, a).ang
        ok = all(row[a - 1] == ka * ExactPolar(N, 1, ang=i * sa)
                 for i, row in enumerate(psi, 1))
        cols.append((ka, sa, ok))
    return [(a, b, oka and okb and ka * kb * roots_of_unity_sum(N, sa + sb)
             == ExactPolar(N, et[a, b]))
            for a, (ka, sa, oka) in enumerate(cols, 1)
            for b, (kb, sb, okb) in enumerate(cols, 1)]


# ---------------------------------------------------------------------------
# S-matrix entries


def _f_power_coeff(N: int, s, target_exp: int):
    """Coefficient of p^target_exp in F^s = p^((N-1)s) (1 + p^(-N))^s
    expanded at infinity, for rational s with (N-1)s an integer."""
    s = Q(s)
    top = s * (N - 1)
    if top.denominator != 1:
        raise ValueError("exponent (N-1)s must be an integer")
    j = (top - target_exp) / N
    if j.denominator != 1 or j < 0:
        return QZERO
    return binomial_q(s, int(j))


def _g_coeff(N: int, m: int, e: int):
    """Coefficient of p^e in (N-1)/N * A + 1/N * B - h(m), the two-chart
    logarithm combination; A = log(1+p^N) ascending, B = log(1+p^(-N))
    descending."""
    if e == 0:
        return -harmonic(m)
    if e % N != 0:
        return QZERO
    k = e // N
    if k > 0:
        return Q(N - 1, N) * Q((-1) ** (k + 1), k)
    k = -k
    return Q(1, N) * Q((-1) ** (k + 1), k)


def _c_coeff(N: int, e: int):
    """Coefficient of p^e in C = (1+p^N)^(-1), ascending; D =
    (1+p^(-N))^(-1), descending, has C's coefficient at -e."""
    if e < 0 or e % N != 0:
        return QZERO
    return Q((-1) ** (e // N))


def _f_int_power_items(N: int, m: int):
    """Exponent/coefficient pairs of the Laurent polynomial F^m."""
    return [((N - 1) * m - N * j, binomial_q(m, j)) for j in range(m + 1)]


@lru_cache(maxsize=None)
def s_entry(N: int, m: int, alpha: int, beta: int):
    """(S_m)^alpha_beta at the special point, exact rational."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if not (1 <= alpha <= N and 1 <= beta <= N):
        raise ValueError("matrix indices out of range")
    if m < 0:
        raise ValueError("m must be nonnegative")

    if beta == N:
        return _s_entry_last_column(N, m, alpha)

    # power of F and column normalization
    if beta == 1:
        s = Q(m)
        denom = factorial_q(m)
    else:
        s = Q(m) - Q(beta - 1, N - 1)
        denom = QONE
        for k in range(m):
            denom *= Q(k) + Q(N - beta, N - 1)

    # -1/(eta_{alpha,N+1-alpha} (1 or N-1)) times res_{p=inf} p^w F^s dp
    # = -[p^(-1-w)] F^s: the two signs cancel
    w = -2 if alpha == N else alpha - 2
    pref = 1 / (_eta_pair(N, alpha) * (1 if beta == 1 else N - 1))
    return pref / denom * _f_power_coeff(N, s, -1 - w)


def _s_entry_last_column(N: int, m: int, alpha: int):
    """beta = N column: residues at p = 0 against the log and geometric
    series; res_0 = [p^(-1)]."""
    mfact = factorial_q(m)

    def res0_against(items, coeff_fn):
        total = QZERO
        for e, c in items:
            g = coeff_fn(-1 - e)
            if g != 0:
                total += c * g
        return total

    # first piece: m * F^(m-1) * p^w * (log combination)
    t1 = QZERO
    if m >= 1:
        w = -2 if alpha == N else alpha - 2
        items = [(e + w, c * m) for e, c in _f_int_power_items(N, m - 1)]
        t1 = res0_against(items, lambda e: _g_coeff(N, m, e))

    fm = _f_int_power_items(N, m)
    pref = Q(N, N - 1) / _eta_pair(N, alpha) / mfact
    if alpha == N:
        # the logarithmic direction
        def geom(e):
            return (-_c_coeff(N, e - (N - 1)) + _c_coeff(N, -e - 1)
                    + Q(N, N - 1) * _c_coeff(N, -e - N - 1))
        return pref * t1 + res0_against(fm, geom) / mfact

    def geom(e):
        return (Q(N - 1, N) * _c_coeff(N, e - (alpha - 1))
                + Q(1, N) * _c_coeff(N, alpha - 1 - N - e))
    return pref * (t1 + res0_against(fm, geom))


def s_matrix(N: int, m: int):
    """Full matrix (S_m)^alpha_beta as a tuple of rows indexed by alpha."""
    # checked here too: at N <= 0 no entry is evaluated
    if N < 2:
        raise ValueError("N must be at least 2")
    return tuple(tuple(s_entry(N, m, a, b) for b in range(1, N + 1))
                 for a in range(1, N + 1))


# ---------------------------------------------------------------------------
# the xi functions in the flat frame, and the residue reduction lemma


def tilde_xi(N: int, alpha: int, trunc: int) -> UniSeries:
    """Flat-frame xi function as an ascending series in z:
    z^alpha / (eta_{alpha,N+1-alpha} (1-(N-1)z^N)), with numerator z^0
    at alpha = N."""
    if not 1 <= alpha <= N:
        raise ValueError("alpha out of range")
    pref = 1 / _eta_pair(N, alpha)
    shift = 0 if alpha == N else alpha
    c = {}
    k = 0
    while shift + N * k < trunc:
        c[shift + N * k] = pref * Q(N - 1) ** k
        k += 1
    return UniSeries("z", QRING, c, trunc)


@lru_cache(maxsize=None)
def _pole_chart(N: int, k: int):
    """1/x' modulo z^(k+4) and x^(k+1) modulo z^(k+2), expanded in z at
    the simple pole z = 0 of x; every alpha at this (N, k) reads them."""
    x = UniSeries("z", QRING, {-1: QONE, N - 1: QONE}, None)
    xprime = UniSeries("z", QRING, {-2: -QONE, N - 2: Q(N - 1)}, None)
    return xprime.inv(prec=k + 4), x.pow(k + 1, prec=k + 2)


def _residue_lhs(N: int, alpha: int, k: int, a_max: int):
    """Left-hand sides [z^-1] x^(k+1)/(k+1)! g_a' for a = 0..a_max, from
    one derivative chain g_0 = tilde_xi^alpha, g_(a+1) = -g_a'/x'.

    Every series is known modulo z^T, T = k + 2: for the power series
    g_a, [z^-1] x^(k+1) g_a' needs no more.  1/x' starts at z^2 and is
    inverted to T + 2.  A shortfall raises ValueError.
    """
    T = k + 2
    xprime_inv, x_power = _pole_chart(N, k)
    scale = factorial_q(k + 1)
    g = tilde_xi(N, alpha, T)
    out = []
    for a in range(a_max + 1):
        if a:
            g = (-(g.deriv() * xprime_inv)).truncated(T)
        out.append((x_power * g.deriv()).coeff(-1) / scale)
    return out


def s_column_residue_check(N: int, alpha: int, a: int, k: int) -> bool:
    """Check the residue of x^(k+1)/(k+1)! d(-d/dx)^a tilde_xi^alpha at
    the simple pole of x against 0 (a > k >= -1) or (S_{k-a})^alpha_1
    (k >= a >= 0), both sides computed independently.

    At the pole of order N-1 the same residue comes out with the
    opposite sign (the residues at the finite poles of tilde_xi cancel),
    so the identity pins the whole first S column either way; we keep
    the chart where the reduction to the S-column integrals is a direct
    integration by parts.
    """
    if a < 0 or k < -1:
        raise ValueError("need a >= 0 and k >= -1")
    lhs = _residue_lhs(N, alpha, k, a)[a]
    return lhs == (QZERO if a > k else s_entry(N, k - a, alpha, 1))


def residue_lemma_column(N: int, alpha: int, k: int) -> tuple:
    """`s_column_residue_check(N, alpha, a, k)` for a = 0..k, every
    left-hand side read from one derivative chain."""
    if k < 0:
        raise ValueError("need k >= 0")
    return tuple(lhs == s_entry(N, k - a, alpha, 1)
                 for a, lhs in enumerate(_residue_lhs(N, alpha, k, k)))


# ---------------------------------------------------------------------------
# unstable closed formulas


def unstable01(N: int, k: int):
    """(g,n) = (0,1) value: eta pairing of the unit row with the first
    S column at order k+2; equals the count at perimeter k+1 divided by
    (k+1)!."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    # s_entry first: it rejects N < 2 before 1/(N-1) is formed
    return s_entry(N, k + 2, 2, 1) * Q(1, N - 1)


@lru_cache(maxsize=None)
def _unstable02_window(N: int, deg: int):
    """Quotient by w1 + w2 of the double S-column kernel's numerator at
    total degree <= deg, read on its top degree: entry k1 is the
    coefficient of w1^k1 w2^(deg-1-k1).  Raises when the numerator
    window is not divisible."""
    et = eta(N)
    # numerator h at total degree <= deg; only the antidiagonal of eta
    # contributes
    col = {n: [s_entry(N, n, a, 1) for a in range(1, N + 1)]
           for n in range(deg + 1)}
    h = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            v = QZERO
            for a in range(1, N + 1):
                b = N + 1 - a
                v += et[a, b] * col[i][a - 1] * col[j][b - 1]
            h[i, j] = v
    h[0, 0] -= et[1, 1]
    # divide by w1 + w2: q[i-1, j] + q[i, j-1] = h[i, j], q supported on
    # total degree <= deg - 1
    q = {}
    for j in range(deg):
        for i in range(deg - j):
            q[i, j] = h[i + 1, j] - (q[i + 1, j - 1] if j >= 1 else QZERO)
    # the recursion above consumes h along w1; verify the full window,
    # which fails exactly when the numerator is not divisible
    for (i, j), v in h.items():
        left = q.get((i - 1, j), QZERO)
        up = q.get((i, j - 1), QZERO)
        if left + up != v:
            raise ArithmeticError("numerator not divisible by w1+w2")
    return tuple(q[i, deg - 1 - i] for i in range(deg))


def unstable02(N: int, k1: int, k2: int):
    """(g,n) = (0,2) value: coefficient of w1^k1 w2^k2 in the double
    S-column kernel divided by w1 + w2; equals the two-boundary count
    divided by (k1+1)!(k2+1)!.  One quotient window per total degree
    serves every (k1, k2) on it."""
    if k1 < 0 or k2 < 0:
        raise ValueError("orders must be nonnegative")
    return _unstable02_window(N, k1 + k2 + 1)[k1]
