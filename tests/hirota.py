"""The first KP equation on F = log Z, checked from any engine's counts.

The paper proves that the hypermap partition function Z is a KP tau
function.  With KP times T_i = t_i / eps the first equation of the
hierarchy, (D_1^4 + 3 D_2^2 - 4 D_1 D_3) tau . tau = 0, reads on
F = log Z

    eps^4 (F_1111 + 6 F_11^2) + eps^2 (3 F_22 - 4 F_13) = 0,

with subscripts d/dt_i, and

    [t^mu eps^(2g-2)] F = RHM_{g;N}(mu) / prod_k m_k(mu)!.

So each monomial t^nu eps^(2h) is one quadratic identity among the
counts of nu + (1,1,1,1) at genus h - 1, of nu + (2,2) and nu + (1,3) at
genus h, and of the pairs alpha + (1,1), beta + (1,1) with alpha + beta
= nu at genera summing to h.  Nothing here reads the tau engine: the
counts come from the `count(g, degrees)` the caller passes.
"""
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, prod

from hypermaps.oracle import Profile
from hypermaps.partitions import partitions

# the equation's coefficients: F_1111, F_11^2, F_22, F_13
KP1 = (1, 6, 3, -4)


def _falling(m, a):
    """(m + a)! / m!: the factor d^a/dt_k^a brings down from t_k^(m+a)."""
    return prod(range(m + 1, m + a + 1))


class _F:
    """The coefficients of F = log Z that the equation reads, from
    `count(g, degrees)`, each read once; a profile the request decides
    (N does not divide its darts, or g is above its genus bound) is 0
    without a count."""

    def __init__(self, N, count):
        self.N, self.count, self.memo = N, count, {}

    def __call__(self, g, degrees):
        key = (g, tuple(sorted(degrees, reverse=True)))
        if key not in self.memo:
            value = 0 if g < 0 or Profile(self.N, g, key[1]).decided \
                is not None else self.count(g, key[1])
            mults = Counter(key[1]).values()
            self.memo[key] = Fraction(value, prod(map(factorial, mults)))
        return self.memo[key]

    def d(self, g, nu, *ks):
        """[t^nu eps^(2g-2)] of d/dt_k1 ... d/dt_kr F."""
        have, add = Counter(nu), Counter(ks)
        factor = prod(_falling(have[k], a) for k, a in add.items())
        return factor * self(g, tuple(nu) + ks)


def kp1_defects(N, W, count, max_faces=None, coefficients=KP1):
    """(checked, defects) of the first KP equation at every monomial
    t^nu whose terms have at most W darts and `max_faces` faces, at
    every power eps^(2h): checked counts the monomials t^nu with a
    nonzero term, and defects lists each (nu, h, value) with a nonzero
    value."""
    c1111, c11, c22, c13 = coefficients
    F = _F(N, count)
    checked, defects = set(), []
    for weight in range(4, W + 1):
        if weight % N:
            continue
        for nu in partitions(weight - 4):
            if max_faces is not None and len(nu) + 4 > max_faces:
                continue
            have = Counter(nu)
            kinds = sorted(have)
            splits = [(tuple(Counter(dict(zip(kinds, picks))).elements()),
                       tuple((have - Counter(dict(zip(kinds, picks))))
                             .elements()))
                      for picks in product(*(range(have[k] + 1)
                                             for k in kinds))]
            # no term has a genus above that of nu + (4,), one face less
            top = Profile(N, 0, nu + (4,)).max_genus + 1
            for h in range(top + 1):
                square = sum(F.d(g1, alpha, 1, 1) * F.d(h - g1, beta, 1, 1)
                             for alpha, beta in splits
                             for g1 in range(h + 1))
                terms = (c1111 * F.d(h - 1, nu, 1, 1, 1, 1), c11 * square,
                         c22 * F.d(h, nu, 2, 2), c13 * F.d(h, nu, 1, 3))
                if not any(terms):
                    continue
                checked.add(nu)
                if sum(terms):
                    defects.append((nu, h, sum(terms)))
    return len(checked), defects
