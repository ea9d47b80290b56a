"""The Mercator log of a MultiSeries, kept as the test reference.

log Z = sum_k (-1)^(k+1) (Z - 1)^k / k, summed over whole powers of
Z - 1 until their lowest weight passes the cap.  `MultiSeries.log`
takes the same log weight by weight and must return the same series.
"""
from hypermaps.rational import Q
from hypermaps.series import EpsLaurent


def mercator_log(m):
    """Formal log of m, whose constant term must be exactly 1."""
    if m.c.get((), EpsLaurent()) != EpsLaurent.const(1):
        raise ValueError("log requires constant term 1")
    u = m - 1
    if not u.c:
        return m._new({})
    w0 = min(sum(k) for k in u.c)
    acc = m._new({})
    power = u
    k = 1
    while k * w0 <= m.cap:
        acc = acc + power.scale(Q((-1) ** (k + 1), k))
        k += 1
        if k * w0 > m.cap:
            break
        power = power * u
    return acc
