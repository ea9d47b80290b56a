"""The oracle's transparent definition, kept as the test reference.

Every phi_b with all cycles of length N is built in full, then checked
for transitivity of <phi_w, phi_b> by a union-find over the darts, and
its genus read from the cycle count of phi_w o phi_b (phi_b applied
first).  `oracle.genus_table` counts the same thing incrementally and
must return the same table, and `oracle._completions` must return the
histogram that building every completion gives.
"""
from itertools import permutations

from hypermaps.oracle import _canonical_white


def _all_n_cycle_perms(d, N):
    """Every permutation of {0..d-1} whose cycles all have length N,
    each produced once: the first cycle starts at the smallest unplaced
    dart, continues with any (N-1)-arrangement of the rest, recurse."""

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


def reference_genus_table(N, degrees):
    """Counts by genus, dict g -> number of valid phi_b, by building and
    scanning every phi_b; no dart cap."""
    degrees = tuple(degrees)
    d = sum(degrees)
    if d % N != 0:
        return {}
    faces = len(degrees) + d // N
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
        two_g = 2 - (v - d + faces)
        if two_g < 0 or two_g % 2:
            continue
        g = two_g // 2
        table[g] = table.get(g, 0) + 1
    return table


def reference_completions(N, cycle_type):
    """Histogram ((cycles, count), ...) of the cycle counts of pi o sigma
    over every sigma of pi's darts whose cycles all have length N, each
    sigma built in full; pi has cycles (0..n_1-1)(n_1..)... of the given
    lengths."""
    pi = _canonical_white(cycle_type)
    counts = {}
    for sigma in _all_n_cycle_perms(len(pi), N):
        v = _cycle_count([pi[sigma[i]] for i in range(len(pi))])
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))
