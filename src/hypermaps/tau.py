"""The hypergeometric tau function and coefficient extraction.

The generating function of rooted hypermaps is the Schur-expanded sum

    Z = sum_lambda s_lambda(p) s_lambda(pt) prod_{cells} (1 + eps * content)

restricted to p_i = i t_i / eps and pt_i = delta_{iN} / eps.  At the
second specialization only the cycle types N^m survive, which leaves a
character-weighted finite sum in every t-monomial weight.  The Schur
coefficient A_lambda has one integer form, ``coefficient_row``: a row
chi^lambda_(N^m) times the content polynomial, with A_lambda =
row / (N^m m!) * eps^(-m).  ``tau_Z`` sums those rows against
characters, one column per t-monomial, and divides once per monomial;
the Pluecker check sums products of rows.  ``coefficient_A`` (with
``schur_special`` and ``content_product``) is the same coefficient as an
eps-polynomial: a test reference that no CLI or benchmark path reaches,
kept here only because the benchmark's tracer reads its caches.  Counts
are read off from the eps-grading of log Z.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

from .limits import admit
from .oracle import Profile
from .partitions import character, contents, mult_vector, partitions
from .rational import Q, as_count, need_order
from .series import EpsLaurent, MultiSeries


def content_poly(lam) -> list:
    """Integer coefficients, in increasing powers of eps, of
    prod over cells of (1 + eps * content)."""
    poly = [1]
    for c in contents(lam):
        poly = [a + c * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def content_product(lam) -> EpsLaurent:
    """prod over cells of (1 + eps * content)."""
    return EpsLaurent(dict(enumerate(map(Q, content_poly(lam)))))


@lru_cache(maxsize=None)
def coefficient_row(N: int, lam):
    """A_lambda in integers: (m, row) with row = chi^lambda_(N^m) times
    the content polynomial, so that A_lambda = row / (N^m m!) *
    eps^(-m); None when A_lambda = 0 (N does not divide |lam|, or the
    character vanishes)."""
    n = sum(lam)
    if n % N:
        return None
    m = n // N
    chi = character(lam, (N,) * m)
    if not chi:
        return None
    return m, tuple(chi * a for a in content_poly(lam))


@lru_cache(maxsize=None)
def schur_special(N: int, lam) -> EpsLaurent:
    """s_lambda at pt_i = delta_{iN}/eps: only cycle type N^m survives,
    giving chi^lambda_{N^m} / (N^m m!) * eps^(-m); zero unless N | |lam|."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return EpsLaurent.const(1)
    if n % N != 0:
        return EpsLaurent()
    m = n // N
    chi = character(lam, (N,) * m)
    if chi == 0:
        return EpsLaurent()
    denom = Q(N) ** m * factorial(m)
    return EpsLaurent({-m: Q(chi) / denom})


@lru_cache(maxsize=None)
def coefficient_A(N: int, lam) -> EpsLaurent:
    """A_lambda = s_lambda(pt) * content product: the Schur coefficient
    of the tau function."""
    lam = tuple(lam)
    s = schur_special(N, lam)
    if not s:
        return s
    return s * content_product(lam)


@dataclass
class TauTruncation:
    N: int
    W: int
    series: MultiSeries  # in t-variables, weight(t_k) = k
    _log: MultiSeries = None

    def log(self) -> MultiSeries:
        if self._log is None:
            self._log = self.series.log()
        return self._log


def tau_Z(N: int, W: int) -> TauTruncation:
    """Truncation of Z to total t-weight <= W, for W >= N and W within
    the weight cap of `limits`.

    Exact by weighted homogeneity: the coefficient of a weight-n monomial
    t_mu only receives contributions from |lambda| = n = mN, namely

        sum_lambda chi^lambda_mu chi^lambda_(N^m) prod(1 + eps c)
        / (N^m m! prod_k m_k(mu)!) * eps^(-len(mu) - m).

    Each weight is one integer pass: the row r_lambda of
    ``coefficient_row`` per lambda, then per mu the integer column
    sum_lambda chi^lambda_mu r_lambda, divided once.
    """
    need_order(N)
    if W < N:
        raise ValueError(f"weight cap {W} is below N = {N}")
    admit("weight_cap", W)
    coeffs = {(): EpsLaurent.const(1)}
    for m in range(1, W // N + 1):
        n = m * N
        rows = []
        for lam in partitions(n):
            form = coefficient_row(N, lam)
            if form:
                rows.append((lam, form[1]))
        base = N ** m * factorial(m)
        for mu in partitions(n):
            column = [0] * (n + 1)
            for lam, row in rows:
                chi = character(lam, mu)
                if chi:
                    column = [a + chi * b for a, b in zip(column, row)]
            denom = base
            for k in mult_vector(mu).values():
                denom *= factorial(k)
            shift = -len(mu) - m
            coeffs[mu] = EpsLaurent({e + shift: Q(a, denom)
                                     for e, a in enumerate(column) if a})
    return TauTruncation(N, W, MultiSeries(W, coeffs))


def rhm_from_tau(tau: TauTruncation, g: int, degrees) -> int:
    """Count at genus g and side counts `degrees` from log Z: the eps^(2g-2)
    part of the coefficient of t_degrees, times prod_k m_k! over the
    multiplicities m_k of the degrees."""
    p = Profile(tau.N, g, degrees)
    if not p.divisible:
        return 0
    if p.darts > tau.W:
        raise ValueError("requested weight exceeds the truncation cap")
    c = tau.log().coeff(p.degrees).coeff(2 * g - 2)
    for m in mult_vector(p.degrees).values():
        c *= factorial(m)
    return as_count(c, "tau count is not a count")


def osmh_from_tau(tau: TauTruncation, g: int, degrees):
    """Hurwitz-side normalization: log Z re-expanded in the p-variables
    (t_k = eps p_k / k) and read at eps^(2g-2+n), which is the count
    divided by prod d_i.  Exact rational."""
    degrees = tuple(degrees)
    return Q(rhm_from_tau(tau, g, degrees), prod(degrees))
