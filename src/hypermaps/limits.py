"""Every bound on a request, in one table, and the one rule that reads it.

An entry of `LIMITS` names a quantity that a request sets or implies and
gives the least and the greatest value admitted, None leaving that side
open.  A greatest value is a cost bound: the slowest request it admits
was measured to finish within a minute, and its comment gives that time
(on a 2-vCPU VM, each request in a fresh interpreter), with the time
one step past it where one was taken.  Where the cost depends on the
order N, the greatest value is a dict: the bound at N is that of the
largest key <= N, each measured at the top of its range of N and at the
largest prime in it.

`admit` is the one check.  Each library function that serves a request
calls it before any work, and `checks.run_crosscheck` calls it through
the engines before any check runs, so a request past a bound exits 2
with one line at once.  This module imports nothing from the package:
the oracle reads it and stays independent of the other engines.
"""
from __future__ import annotations

# the oracle's dart cap when a request names none; reports echo it
DEFAULT_DART_CAP = 12

LIMITS = {
    # the crosscheck's settings (RunConfig).  No profile of at most 24
    # darts has a map above genus 6, so a larger g_max adds only rows
    # that the genus bound decides as 0.
    "g_max": (0, 6),
    "n_max": (1, None),
    "dart_cap": (1, None),
    "threads": (1, None),
    # the crosscheck's grid and tau_Z's truncation, `tau --weight-cap`
    # and the darts of `rhm --engine tau`: tau_Z(2, 24) with its log
    # took 44 s, tau_Z(3, 24) 27 s, and every 2 more about doubles it
    "weight_cap": (1, 24),
    # pluecker_check(N, W): the least window holds the first relation,
    # A_{} A_{(2,2)} - A_{(1)} A_{(2,1)} + A_{(2)} A_{(1,1)} = 0;
    # pluecker_check(2, 18) took 50 s and (3, 16) 6 s
    "Pluecker window": (4, 18),
    # the largest face degree of an unstable moment, which
    # rhm01_from_curve and rhm02_from_curve expand to: (2, 399) took
    # 17 s and (2, 399, 399) 21 s; at degree 500, 38 s and 57 s
    "curve degree": (None, 400),
    # the order of the spectral curve, of its frame and its S-matrices:
    # `curve --N 97` took 12 s (`--N 200` 51 s), `frobenius --N 97`
    # 1.2 s, and omega_{1,1} at N = 97 12 s
    "curve N": (None, 100),
    # s_matrix(N, m): `smatrix --N 100 --m-max 30` took 38 s, and
    # `--N 2 --m-max 30` 0.3 s
    "S-matrix m": (0, 30),
    # a Recursion(N, g_max, n_max) builds omega_{g_max, n_max}, and a
    # read of n faces sums every ordering of their slots: 6 faces at
    # genus 1 took 4 s at N = 2 and 7 faces 31 s
    "tr faces": (None, 6),
    # ... and the size of its recursion, 2g - 2 + n of that correlator,
    # by N; the slowest shape (g, n) of each range, with n <= 6:
    # N = 3: (2,5) 30 s; N = 4: (1,6) 50 s; N = 5: (1,6) 43 s;
    # N = 8: (1,5) 40 s; N = 12: (0,6) 30 s (N = 13: 46 s);
    # N = 23: (0,5) 20 s (N = 31: over 60 s); N = 47: (1,2) 23 s
    # (N = 61: over 60 s); N = 97: (1,1) 12 s.  One more than each
    # value: (2,6) 59 s at N = 2, (2,5) over 60 s at N = 4 and 5,
    # (2,4) 51 s at N = 6, (1,5) 55 s at N = 9
    "tr 2g - 2 + n": (None, {2: 7, 4: 6, 6: 5, 9: 4, 13: 3, 25: 2,
                             51: 1}),
    # the oracle's tables of d darts, whatever the dart cap: the
    # slowest of one, two and three faces took 10 s at (2, 80), 27 s at
    # (3, 42), 22 s at (4, 28), 6 s at (5, 20), 15 s at (6, 18), 7 s at
    # (7, 14) and 13 s at (11, 11); over 60 s at (4, 32), (5, 25),
    # (6, 24), (8, 16) and (12, 12), the next multiples of N
    "oracle darts": (None, {2: 80, 3: 42, 4: 28, 5: 20, 6: 18, 7: 14,
                            8: 11}),
}


def admit(key, value, N=None):
    """The one admission rule: ValueError, in one line, unless `value`
    lies within the entry `key` of LIMITS, at the order N where the
    greatest value depends on it."""
    least, greatest = LIMITS[key]
    at = ""
    if isinstance(greatest, dict):
        greatest = greatest[max(k for k in greatest if k <= N)]
        at = f" at N = {N}"
    if least is not None and value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    if greatest is not None and value > greatest:
        raise ValueError(f"{key} must be <= {greatest}{at}, got {value}")
