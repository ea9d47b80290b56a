"""Closed forms for rooted hypermap counts at N = 2, which share no code
with any engine: the references the engines are compared with at depth.

At N = 2 the black faces are 2-gons, that is edges, so a hypermap is a
map, and RHM_{g;2}(d_1, ..., d_n) counts the maps of genus g with n
labeled faces of degrees d_i, each face rooted.

- Harer-Zagier (one face, every genus).  A map with one face of degree
  2n is a gluing of the sides of a 2n-gon, so RHM_{g;2}(2n) = eps_g(n),
  with

      (n+1) eps_g(n) = 2(2n-1) eps_g(n-1)
                       + (n-1)(2n-1)(2n-3) eps_{g-1}(n-2),

  eps_0(0) = 1 (Harer & Zagier, Invent. Math. 85, 1986).
- Tutte's formula of slicings (genus 0, every face degree even).  A
  planar map with faces of degrees 2a_1, ..., 2a_f has e = sum a_j
  edges, and

      RHM_{0;2}(2a_1, ..., 2a_f) = (e-1)! / (e-f+2)!
                                   prod_j (2a_j)! / (a_j! (a_j-1)!)

  (Tutte, Canad. J. Math. 14, 1962).
- Tutte's equation (every genus, every profile).  Removing the root
  edge of a map whose root face has degree d_1, with the other labeled
  faces of degrees D, either merges the root face with another face j,
  or cuts the root face in two (faces of degrees k and d_1 - 2 - k),
  which stay on one surface of genus g - 1 or split it in two:

      F_g(d_1; D) = sum_j d_j F_g(d_1 + d_j - 2; D - d_j)
                    + sum_{k=0..d_1-2} [ F_{g-1}(k; D + (d_1-2-k))
                    + sum_{g_1+g_2=g, D_1 + D_2 = D}
                      F_{g_1}(k; D_1) F_{g_2}(d_1-2-k; D_2) ],

  with F_g(0; D) = 1 if g = 0 and D is empty and 0 otherwise, and 0
  for a non-root face of degree 0 (Tutte, "On the enumeration of planar
  maps", Bull. AMS 74, 1968; Eynard, *Counting Surfaces*, 2016, ch. 3).
  RHM_{g;2}(d_1, ..., d_n) = F_g(d_1; (d_2, ..., d_n)).
"""
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod


@lru_cache(maxsize=None)
def harer_zagier(g: int, n: int) -> int:
    """eps_g(n): the gluings of the sides of a 2n-gon into a surface of
    genus g."""
    if g < 0 or n < 0:
        return 0
    if n == 0:
        return int(g == 0)
    total = (2 * (2 * n - 1) * harer_zagier(g, n - 1)
             + (n - 1) * (2 * n - 1) * (2 * n - 3)
             * harer_zagier(g - 1, n - 2))
    count, rest = divmod(total, n + 1)
    assert rest == 0, (g, n)
    return count


def slicings(degrees) -> int:
    """RHM_{0;2}(degrees) for even face degrees, by Tutte's formula."""
    assert degrees and all(d > 0 and d % 2 == 0 for d in degrees), degrees
    halves = [d // 2 for d in degrees]
    e, f = sum(halves), len(halves)
    num = factorial(e - 1) * prod(factorial(2 * a) for a in halves)
    den = factorial(e - f + 2) * prod(factorial(a) * factorial(a - 1)
                                      for a in halves)
    count, rest = divmod(num, den)
    assert rest == 0, degrees
    return count


def tutte_rhm(g: int, degrees) -> int:
    """RHM_{g;2}(degrees), by Tutte's equation with the first face as
    the root face."""
    degrees = tuple(degrees)
    return _tutte(g, degrees[0], tuple(sorted(degrees[1:])))


@lru_cache(maxsize=None)
def _tutte(g: int, root: int, others: tuple) -> int:
    """F_g(root; others) of Tutte's equation, others sorted."""
    if g < 0:
        return 0
    if root == 0:
        return int(g == 0 and not others)
    if 0 in others:
        return 0
    # merge the root face with each labeled face j
    total = sum(d * _tutte(g, root + d - 2, others[:j] + others[j + 1:])
                for j, d in enumerate(others))
    # every split of the labeled faces into two sides, with its ways
    count = Counter(others)
    kinds = sorted(count)
    splits = []
    for picks in product(*(range(count[k] + 1) for k in kinds)):
        side = tuple(k for k, t in zip(kinds, picks) for _ in range(t))
        other = tuple(k for k, t in zip(kinds, picks)
                      for _ in range(count[k] - t))
        ways = prod(comb(count[k], t) for k, t in zip(kinds, picks))
        splits.append((ways, side, other))
    # cut the root face into faces of degrees k and root - 2 - k
    for k in range(root - 1):
        total += _tutte(g - 1, k, tuple(sorted(others + (root - 2 - k,))))
        for ways, side, other in splits:
            for g1 in range(g + 1):
                total += (ways * _tutte(g1, k, side)
                          * _tutte(g - g1, root - 2 - k, other))
    return total
