"""Brute-force count of rooted hypermaps via permutation pairs.

A gluing of n white polygons with side counts d_1..d_n and d/N black
N-gons is encoded by two permutations of the d darts: phi_w runs along
the white sides (fixed once and for all as the canonical permutation
with cycles (1..d_1)(d_1+1..d_1+d_2)...) and phi_b, with all cycles of
length N, runs along the black sides.  Rooting every white face and
labeling them kills all automorphisms, so fixing phi_w is a normal form
and counting phi_b counts rooted gluings.  The genus is read off from
the Euler formula: V - E + F = 2 - 2g with E = d, F = n + d/N and V the
number of cycles of phi_w o phi_b (phi_b applied first).  That is the
one Euler accounting; `checks` derives a wrong one from its tables.

`genus_table` never builds a whole phi_b.  It grows phi_b one black
cycle at a time and keeps two counts as it grows: V, from the open paths
of phi_w o phi_b that the placed arcs form, and transitivity, from the
white faces the black cycles have linked so far (bitmask components).
Once every white face is linked, transitivity holds for every way to
place the rest, and what the rest adds to V depends only on the cycle
type of the way the open paths chain: `_completions` holds that
histogram per (N, cycle type), so the enumeration stops there.  The
transparent build-and-scan enumeration and a build-every-completion
histogram stay in the tests as the references they must equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb

DEFAULT_DART_CAP = 12


@dataclass(frozen=True)
class Profile:
    """A count request (N, genus, face degrees), which every count function
    builds from its own arguments: it rejects N < 2, a negative genus and
    empty or non-positive degrees, and holds the degrees as a tuple."""

    N: int
    g: int
    degrees: tuple

    def __post_init__(self):
        if self.N < 2 or self.g < 0:
            raise ValueError(f"need N >= 2 and g >= 0, got {self.N}, "
                             f"{self.g}")
        degrees = tuple(self.degrees)
        if not degrees or any(d < 1 for d in degrees):
            raise ValueError(f"need degrees >= 1, got {degrees}")
        object.__setattr__(self, "degrees", degrees)


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


def _cycle_type(perm, darts):
    """Sorted cycle lengths of the permutation `perm` of `darts`."""
    lengths = []
    seen = set()
    for x in darts:
        if x not in seen:
            n = 0
            while x not in seen:
                seen.add(x)
                x = perm(x)
                n += 1
            lengths.append(n)
    return tuple(sorted(lengths))


@lru_cache(maxsize=None)
def _completions(N, cycle_type):
    """Histogram ((cycles, count), ...) of the cycle counts of pi o sigma
    over every sigma whose cycles all have length N on pi's darts, for
    any pi of the given cycle type.

    Conjugating pi by s conjugates every pi o sigma and permutes the
    sigmas, so the histogram depends only on (N, cycle type): at most
    one entry per partition of a multiple of N below the dart cap,
    whatever the tables asked.  It recurses on the cycle gamma of sigma
    through dart 0.  With rho = pi o gamma (gamma fixing the other
    darts), the cycles of rho on gamma's darts alone are closed, and rho
    read on the other darts (gamma's darts skipped) is the pi of the
    rest.
    """
    pi = _canonical_white(cycle_type)
    if not pi:
        return ((0, 1),)
    counts = {}
    for body in permutations(range(1, len(pi)), N - 1):
        gamma = dict(zip((0,) + body, body + (0,)))

        def rho(x):
            return pi[gamma.get(x, x)]

        def skip(x):
            x = rho(x)
            while x in gamma:
                x = rho(x)
            return x

        rest = [x for x in range(len(pi)) if x not in gamma]
        rest_type = _cycle_type(skip, rest)
        # every cycle of rho that meets the rest is one cycle of skip
        closed = len(_cycle_type(rho, range(len(pi)))) - len(rest_type)
        for cycles, count in _completions(N, rest_type):
            counts[closed + cycles] = counts.get(closed + cycles, 0) + count
    return tuple(sorted(counts.items()))


def genus_table(N, degrees, dart_cap=DEFAULT_DART_CAP):
    """Counts by genus: dict g -> number of valid phi_b.

    phi_b grows one black cycle at a time, each starting at the smallest
    unplaced dart and continuing with any (N-1)-arrangement of the rest,
    so every phi_b is reached once.  The arcs u -> phi_w(phi_b(u)) placed
    so far form open paths of phi_w o phi_b: `head[t]` is the first dart
    of the path that ends at t, `tail[h]` the last dart of the path that
    starts at h.  A new arc from a tail u to a head w closes its own path
    (one vertex more) when w = head[u], and joins two paths otherwise.
    The white faces linked so far are bitmask components, and each black
    cycle merges those its darts lie on.  Joins are undone on backtrack.

    The enumeration stops as soon as every white face is linked, or
    would be by the last cycle (tested once, as its darts are fixed).
    From there every completion sigma of phi_b on the remaining darts
    is transitive, and closes the open paths into the cycles of pi o
    sigma, pi(x) = tail[phi_w(x)] the way the paths chain.  Conjugating
    pi permutes the sigmas, so the vertex histogram over all of them is
    exact from the cycle type of pi alone (`_completions`): a table at
    12 darts enumerates little beyond its first black cycle.

    There is one Euler accounting, F = n + d/N.  The calibration check
    derives a deliberately wrong accounting (black faces left out) from
    this same table rather than enumerating it again.
    """
    degrees = Profile(N, 0, degrees).degrees  # a table answers every g
    d = sum(degrees)
    if d > dart_cap:
        raise ValueError("oracle cap exceeded")
    if d % N != 0:
        return {}
    faces = len(degrees) + d // N
    phi_w = _canonical_white(degrees)
    face = [1 << f for f, side in enumerate(degrees) for _ in range(side)]
    head = list(range(d))
    tail = list(range(d))
    by_v = [0] * (d + 1)

    linked = [(1 << len(degrees)) - 1]

    def grow(remaining, comps, v):
        last = len(remaining) == N
        if last or comps == linked:
            if last:
                mask = 0
                for x in remaining:
                    mask |= face[x]
                if not all(c & mask for c in comps):
                    return
            # every white face is linked, or is by the last cycle: the
            # open path ending at u continues, through the arc u ->
            # phi_w(phi_b(u)), into the path ending at pi(phi_b(u)),
            # pi(x) = tail[phi_w(x)], and only the cycle type of pi
            # matters
            pi_type = _cycle_type(lambda x: tail[phi_w[x]], remaining)
            for cycles, count in _completions(N, pi_type):
                by_v[v + cycles] += count
            return
        first, rest = remaining[0], remaining[1:]
        for body in permutations(rest, N - 1):
            mask = face[first]
            for x in body:
                mask |= face[x]
            merged, apart = mask, []
            for c in comps:
                if c & mask:
                    merged |= c
                else:
                    apart.append(c)
            closed = 0
            joins = []
            u = body[-1]
            for x in (first,) + body:
                # phi_b(u) = x, so the arc u -> phi_w(x)
                w = phi_w[x]
                a = head[u]
                if a == w:
                    closed += 1
                else:
                    b = tail[w]
                    tail[a] = b
                    head[b] = a
                    joins.append((a, b, u, w))
                u = x
            grow([x for x in rest if x not in body], apart + [merged],
                 v + closed)
            for a, b, u, w in reversed(joins):
                tail[a] = u
                head[b] = w

    grow(list(range(d)), [], 0)
    table = {}
    for v in range(d, 0, -1):
        two_g = 2 - (v - d + faces)
        if by_v[v] and two_g >= 0 and two_g % 2 == 0:
            table[two_g // 2] = by_v[v]
    return table


def enumerate_rhm(profile: Profile, dart_cap=DEFAULT_DART_CAP) -> int:
    """Number of rooted hypermaps with the given profile."""
    table = genus_table(profile.N, profile.degrees, dart_cap)
    return table.get(profile.g, 0)


def rhm01_closed(N: int, k: int) -> int:
    """Genus-zero one-boundary count at side count k+1, closed form:
    the p^(-1) coefficient of (p^(N-1)+1/p)^(k+2) divided by k+2."""
    Profile(N, 0, (k + 1,))
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
