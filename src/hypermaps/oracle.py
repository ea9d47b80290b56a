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

Neither memo builds a whole phi_b.  `_completions` holds the histogram
of V over every phi_b, transitive or not, per (N, cycle type of phi_w):
conjugating phi_w permutes the phi_b, and the histogram is built by
recursing on the black cycle gamma through the smallest dart, with one
walk of the cycles of phi_w o gamma per choice of gamma: it gives both
the closed cycles and the cycle type of the rest.  A phi_b that
is not transitive splits the white faces into blocks and glues each
block on its own, with V the sum over the blocks, so `_connected`
subtracts the split ones block by block (the exponential formula) and
leaves the transitive histogram per (N, sorted degrees), from which
`genus_table` reads the genera.  The transparent build-and-scan
enumeration and a build-every-completion histogram stay in the tests
as the references they must equal.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from math import comb, prod

from .limits import DEFAULT_DART_CAP, admit

UNSTABLE_MOMENT = "unstable moment: omega_{g,n} needs 2g - 2 + n > 0"


@dataclass(frozen=True)
class Profile:
    """A count request (N, genus, face degrees), which every count function
    builds from its own arguments: it rejects N < 2, a negative genus and
    empty or non-positive degrees, and holds the degrees as a tuple.  It
    owns the rules a request is read by: no hypermap when N does not
    divide the darts or the genus is above the Euler accounting's bound
    `max_genus` (together `decided`, the count the request alone fixes),
    and no correlator omega_{g,n} unless the moment is stable,
    2g - 2 + n > 0 (`Recursion.omega` refuses it with
    `UNSTABLE_MOMENT`)."""

    N: int
    g: int
    degrees: tuple

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"need N >= 2, got {self.N}")
        if self.g < 0:
            raise ValueError(f"need g >= 0, got {self.g}")
        degrees = tuple(self.degrees)
        if not degrees or any(d < 1 for d in degrees):
            raise ValueError(f"need degrees >= 1, got {degrees}")
        object.__setattr__(self, "degrees", degrees)

    @staticmethod
    def stable_shape(g, n):
        """Whether genus g with n faces is a stable moment."""
        return 2 * g - 2 + n > 0

    @property
    def stable(self):
        return Profile.stable_shape(self.g, len(self.degrees))

    @property
    def darts(self):
        return sum(self.degrees)

    @property
    def divisible(self):
        """Whether N divides the dart count; no hypermap otherwise."""
        return self.darts % self.N == 0

    @property
    def faces(self):
        """F = n + d/N, the white and black faces of a gluing (of a
        divisible profile)."""
        return len(self.degrees) + self.darts // self.N

    @property
    def max_genus(self):
        """The largest genus a gluing can have: by Euler's formula 2g =
        2 - V + d - F, and a transitive gluing has V >= 1 vertex, so 2g
        <= 1 + d - F; no hypermap above it."""
        return (1 + self.darts - self.faces) // 2

    @property
    def decided(self):
        """0 when the profile alone decides the count (N does not divide
        the darts, or the genus is above `max_genus`), else None."""
        if not self.divisible or self.g > self.max_genus:
            return 0
        return None


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


@lru_cache(maxsize=None)
def _completions(N, cycle_type):
    """Histogram ((cycles, count), ...) of the cycle counts of pi o sigma
    over every sigma whose cycles all have length N on pi's darts, for
    any pi of the given cycle type.

    Conjugating pi by s conjugates every pi o sigma and permutes the
    sigmas, so the histogram depends only on (N, cycle type): at most
    one entry per partition of a multiple of N below the dart cap,
    whatever the tables asked.  It recurses on the cycle gamma of sigma
    through dart 0 and walks the cycles of rho = pi o gamma (gamma
    fixing the other darts) once per choice of gamma.  A cycle of rho
    that holds r > 0 darts off gamma is, read on those darts alone, one
    cycle of length r of the pi of the rest; a cycle that holds none is
    closed.
    """
    pi = _canonical_white(cycle_type)
    if not pi:
        return ((0, 1),)
    counts = {}
    for body in permutations(range(1, len(pi)), N - 1):
        gamma = (0,) + body
        rho = list(pi)
        for x, y in zip(gamma, body + (0,)):
            rho[x] = pi[y]
        seen = [False] * len(pi)
        closed, rest = 0, []
        for x in range(len(pi)):
            if seen[x]:
                continue
            r = 0
            while not seen[x]:
                seen[x] = True
                r += x not in gamma
                x = rho[x]
            if r:
                rest.append(r)
            else:
                closed += 1
        for cycles, count in _completions(N, tuple(sorted(rest))):
            counts[closed + cycles] = counts.get(closed + cycles, 0) + count
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def _connected(N, degrees):
    """Histogram ((cycles, count), ...) of the cycle counts of phi_w o
    phi_b over the transitive phi_b only, for white faces of the given
    sorted degrees.

    Every phi_b links the labeled white faces into blocks, and on each
    block it is a transitive gluing of those faces alone; phi_w o phi_b
    maps each block's darts to themselves, so its cycles add over the
    blocks.  Sorting the phi_b that `_completions(N, degrees)` counts by
    the block T of face 0 gives the exponential formula for connected
    against all permutation pairs (Lando & Zvonkin, Graphs on Surfaces
    and Their Applications, ch. 1)

        completions(D) = sum over T of connected(T) * completions(D - T)

    with * the convolution of histograms.  Relabeling faces and darts
    conjugates both permutations, so a term depends only on the degree
    multiset of T, which is chosen prod_k C(m_k, t_k) ways from the m_k
    other faces of degree k.  The term T = D is the histogram sought and
    every other T has fewer faces, so subtracting them is exact; a block
    whose darts N does not divide has no phi_b and is skipped.
    """
    first, others = degrees[0], Counter(degrees[1:])
    kinds = sorted(others)
    by_v = dict(_completions(N, degrees))
    for picks in product(*(range(others[k] + 1) for k in kinds)):
        block = (first,) + tuple(chain.from_iterable(
            (k,) * t for k, t in zip(kinds, picks)))
        if len(block) == len(degrees) or sum(block) % N:
            continue
        rest = tuple(chain.from_iterable(
            (k,) * (others[k] - t) for k, t in zip(kinds, picks)))
        ways = prod(comb(others[k], t) for k, t in zip(kinds, picks))
        for v_block, c_block in _connected(N, block):
            for v_rest, c_rest in _completions(N, rest):
                by_v[v_block + v_rest] -= ways * c_block * c_rest
    return tuple((v, c) for v, c in sorted(by_v.items()) if c)


def admit_table(N, darts, dart_cap=DEFAULT_DART_CAP):
    """The oracle's admission of a table of `darts` darts at order N: the
    request's dart cap, then the oracle's ceiling at N in `limits`,
    whatever the cap says."""
    if darts > dart_cap:
        raise ValueError(f"oracle cap exceeded: {darts} darts, dart_cap = "
                         f"{dart_cap}")
    admit("oracle darts", darts, N)


def genus_table(N, degrees, dart_cap=DEFAULT_DART_CAP):
    """Counts by genus: dict g -> number of transitive phi_b.

    The table is admitted (`admit_table`) before the memo is read, so a
    request under a small cap never sees a table beyond it.  The order
    of the faces only relabels them, so the histogram is read from
    `_connected` at the sorted degrees, and each vertex count V gives
    the genus through the one Euler accounting, F = n + d/N.  The
    calibration check derives a deliberately wrong accounting (black
    faces left out) from this same table rather than building another.
    """
    return _genus_table(Profile(N, 0, degrees), dart_cap)  # every g


def _genus_table(p: Profile, dart_cap):
    """`genus_table` of a profile's N and degrees; its genus is unread."""
    d = p.darts
    admit_table(p.N, d, dart_cap)
    if not p.divisible:
        return {}
    # V from d down, so the genera come out ascending
    histogram = _connected(p.N, tuple(sorted(p.degrees)))
    return {(2 - (v - d + p.faces)) // 2: count
            for v, count in reversed(histogram)}


def enumerate_rhm(profile: Profile, dart_cap=DEFAULT_DART_CAP) -> int:
    """Number of rooted hypermaps with the given profile."""
    return _genus_table(profile, dart_cap).get(profile.g, 0)


def rhm01_closed(N: int, k: int) -> int:
    """Genus-zero one-boundary count at side count k+1, closed form:
    the p^(-1) coefficient of (p^(N-1)+1/p)^(k+2) divided by k+2."""
    Profile(N, 0, (k + 1,))
    # [p^-1] of sum_j C(k+2,j) p^{(N-1)(k+2)-Nj}: j = ((N-1)(k+2)+1)/N
    num = (N - 1) * (k + 2) + 1
    if num % N != 0:
        return 0
    # 1 <= j <= k + 2, as N <= num <= N(k + 2) for k >= 0 and N >= 2
    res = comb(k + 2, num // N)
    if res % (k + 2):
        raise ArithmeticError("closed form must divide exactly")
    return res // (k + 2)
