"""Integer partitions and symmetric-group character values.

Partitions are weakly decreasing tuples of positive integers; () is the
empty partition.  This module alone builds beta-sets (Maya diagrams):
lambda padded to L rows has beta-numbers lambda_i + L - i, held as the
set bits of one int (``beta_mask``; ``mask_partition`` inverts it).
Characters are computed by the Murnaghan-Nakayama rule on that mask:
removing a border strip of size k moves a bit from b down to b - k, its
sign is the parity of the bits strictly between, and the recursion is
memoized on (bits, remaining cycle type).
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


def beta_mask(lam, L: int) -> int:
    """The beta-numbers lam_i + L - i of lam padded to L rows, as the set
    bits of an int; the padding rows are the L - len(lam) lowest bits."""
    if len(lam) > L:
        raise ValueError(f"{tuple(lam)} has more than {L} rows")
    mask = (1 << (L - len(lam))) - 1
    for i, part in enumerate(lam, start=1):
        mask |= 1 << (part + L - i)
    return mask


def mask_partition(mask: int):
    """The partition whose beta-numbers are the set bits of mask: the part
    of a set bit is the number of clear bits below it."""
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    parts = [b - i for i, b in enumerate(bits) if b > i]
    return tuple(reversed(parts))


@lru_cache(maxsize=None)
def character(lam, mu) -> int:
    """Irreducible character chi^lam evaluated on cycle type mu."""
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("character requires |lam| == |mu|")
    return _mn(beta_mask(lam, len(lam)), mu)


@lru_cache(maxsize=None)
def _mn(mask: int, mu) -> int:
    """Murnaghan-Nakayama on the beta-set whose elements are the set bits
    of mask: a border strip of size k = mu[0] is a bit b with b - k clear;
    removing it clears b and sets b - k, with sign (-1)^(number of set
    bits strictly between b - k and b)."""
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    movable = mask & ~(mask << k) & ~((1 << k) - 1)
    while movable:
        top = movable & -movable
        movable ^= top
        low = top >> k
        between = (mask & (top - 1)) >> (top.bit_length() - k)
        value = _mn(mask ^ top ^ low, rest)
        total += -value if between.bit_count() & 1 else value
    return total
