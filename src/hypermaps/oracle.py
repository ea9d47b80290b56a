"""Brute-force count of rooted hypermaps via permutation pairs.

A gluing of n white polygons with side counts d_1..d_n and d/N black
N-gons is encoded by two permutations of the d darts: phi_w runs along
the white sides (fixed once and for all as the canonical permutation
with cycles (1..d_1)(d_1+1..d_1+d_2)...) and phi_b, with all cycles of
length N, runs along the black sides.  Rooting every white face and
labeling them kills all automorphisms, so fixing phi_w is a normal form
and counting phi_b counts rooted gluings.  The genus is read off from
the Euler formula: V - E + F = 2 - 2g with E = d, F = n + d/N and V the
number of cycles of phi_w o phi_b (phi_b applied first).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

DEFAULT_DART_CAP = 12


@dataclass(frozen=True)
class Profile:
    N: int
    g: int
    degrees: tuple

    def __post_init__(self):
        if self.N < 2 or self.g < 0:
            raise ValueError(f"need N >= 2 and g >= 0, got {self.N}, "
                             f"{self.g}")
        if not self.degrees or any(d < 1 for d in self.degrees):
            raise ValueError(f"need degrees >= 1, got {self.degrees}")


def _canonical_white(degrees):
    """phi_w with cycles (1..d_1)(d_1+1..)... as a 0-based image array."""
    img = []
    start = 0
    for d in degrees:
        for i in range(d - 1):
            img.append(start + i + 1)
        img.append(start)
        start += d
    return img


def _all_n_cycle_perms(d, N):
    """Every permutation of {0..d-1} whose cycles all have length N,
    each produced once: the first cycle starts at the smallest unplaced
    dart, continues with any (N-1)-arrangement of the rest, recurse."""
    from itertools import permutations

    def rec(remaining):
        if not remaining:
            yield {}
            return
        first = remaining[0]
        rest = remaining[1:]
        for body in permutations(rest, N - 1):
            cycle = (first,) + body
            used = set(cycle)
            tail = [x for x in rest if x not in used]
            for sub in rec(tail):
                m = dict(sub)
                for i in range(N):
                    m[cycle[i]] = cycle[(i + 1) % N]
                yield m
    yield from rec(list(range(d)))


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        p = self.p
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb
            return True
        return False


def _cycle_count(img):
    seen = [False] * len(img)
    count = 0
    for i in range(len(img)):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = img[j]
    return count


def genus_table(N, degrees, dart_cap=DEFAULT_DART_CAP, euler_variant="faces"):
    """Counts by genus: dict g -> number of valid phi_b.

    euler_variant selects how the Euler count is formed; anything other
    than the correct "faces" accounting exists only so that the
    calibration harness can demonstrate that a wrong convention is
    caught by the closed-form anchors.
    """
    degrees = tuple(degrees)
    d = sum(degrees)
    if d > dart_cap:
        raise ValueError("oracle cap exceeded")
    if d % N != 0:
        return {}
    n = len(degrees)
    phi_w = _canonical_white(degrees)
    table = {}
    for phi_b in _all_n_cycle_perms(d, N):
        # transitivity of <phi_w, phi_b>
        uf = _UnionFind(d)
        comps = d
        for i in range(d):
            if uf.union(i, phi_w[i]):
                comps -= 1
            if uf.union(i, phi_b[i]):
                comps -= 1
        if comps != 1:
            continue
        # vertices: cycles of phi_w o phi_b, phi_b applied first
        prod = [phi_w[phi_b[i]] for i in range(d)]
        v = _cycle_count(prod)
        if euler_variant == "faces":
            faces = n + d // N
        elif euler_variant == "noblack":
            # deliberately wrong accounting (black faces forgotten);
            # used by the negative calibration test
            faces = n
        else:
            raise ValueError(f"unknown euler variant {euler_variant!r}")
        two_g = 2 - (v - d + faces)
        if two_g < 0 or two_g % 2:
            continue
        g = two_g // 2
        table[g] = table.get(g, 0) + 1
    return table


def enumerate_rhm(profile: Profile, dart_cap=DEFAULT_DART_CAP,
                  euler_variant="faces") -> int:
    """Number of rooted hypermaps with the given profile."""
    table = genus_table(profile.N, profile.degrees, dart_cap, euler_variant)
    return table.get(profile.g, 0)


def rhm01_closed(N: int, k: int) -> int:
    """Genus-zero one-boundary count at side count k+1, closed form:
    the p^(-1) coefficient of (p^(N-1)+1/p)^(k+2) divided by k+2."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    # [p^-1] of sum_j C(k+2,j) p^{(N-1)(k+2)-Nj}: j = ((N-1)(k+2)+1)/N
    num = (N - 1) * (k + 2) + 1
    if num % N != 0:
        return 0
    j = num // N
    if j < 0 or j > k + 2:
        return 0
    res = comb(k + 2, j)
    if res % (k + 2):
        raise ArithmeticError("closed form must divide exactly")
    return res // (k + 2)
