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
"""
from functools import lru_cache
from math import factorial, prod


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
