"""Integer partitions and symmetric-group character values.

Partitions are weakly decreasing tuples of positive integers; () is the
empty partition.  Characters are computed by the Murnaghan-Nakayama rule
on beta-numbers (first-column hook lengths), which keeps the border-strip
removal a constant-time set operation.
"""
from __future__ import annotations

from functools import lru_cache


def partitions(n: int, max_part=None):
    """All partitions of n with parts <= max_part, lexicographically
    decreasing, as tuples."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partitions_upto(cap: int):
    """All partitions of every size 0..cap."""
    for n in range(cap + 1):
        yield from partitions(n)


def mult_vector(mu) -> dict:
    """Part multiplicities m_k(mu)."""
    m = {}
    for p in mu:
        m[p] = m.get(p, 0) + 1
    return m


def contents(lam):
    """Multiset of cell contents j - i for the Young diagram of lam,
    rows and columns counted from 1."""
    out = []
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            out.append(j - i)
    return out


def _beta_set(lam, length):
    """Beta-numbers lam_i + (length - i) for i = 1..length (padding with
    zero parts), as a frozenset of distinct nonnegative integers."""
    padded = list(lam) + [0] * (length - len(lam))
    return frozenset(padded[i] + (length - 1 - i) for i in range(length))


@lru_cache(maxsize=None)
def character(lam, mu) -> int:
    """Irreducible character chi^lam evaluated on cycle type mu.

    Murnaghan-Nakayama on beta-numbers: removing a border strip of size k
    replaces a beta-number b by b - k (if b - k is not already present);
    the sign is (-1)^(number of beta-numbers strictly between b-k and b).
    """
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("character requires |lam| == |mu|")
    if not mu:
        return 1
    length = max(len(lam), 1)
    beta = _beta_set(lam, length)
    return _mn(beta, mu)


def _mn(beta, mu) -> int:
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    blist = sorted(beta)
    for b in blist:
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        between = sum(1 for x in blist if nb < x < b)
        sign = -1 if between % 2 else 1
        total += sign * _mn((beta - {b}) | {nb}, rest)
    return total
