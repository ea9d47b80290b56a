"""Series operations kept as test references.

The Mercator log of a MultiSeries: log Z = sum_k (-1)^(k+1) (Z - 1)^k /
k, summed over whole powers of Z - 1 until their lowest weight passes
the cap.  `MultiSeries.log` takes the same log weight by weight and must
return the same series.

The power of a UniSeries by squaring that forms each whole product and
then truncates it: `UniSeries.pow` forms only the terms below its
precision and must return the same series, truncation included.
"""
from hypermaps.rational import Q
from hypermaps.series import EpsLaurent, UniSeries


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


def truncating_pow(s, n, prec=None):
    """s^n, truncated at prec after every product; the base is cut first
    at prec + max(0, -val(s)) n, beyond any term a product below prec
    reads."""
    if n < 0:
        return truncating_pow(s.inv(prec=prec), -n, prec)
    acc = UniSeries.monomial(s.var, s.ring, 1, 0, trunc=None)
    b = s if prec is None else s.truncated(prec + max(0, -s.val(0)) * n)
    m = n
    while m:
        if m & 1:
            acc = acc * b
            if prec is not None:
                acc = acc.truncated(prec)
        m >>= 1
        if m:
            b = b * b
            if prec is not None:
                b = b.truncated(prec)
    return acc if prec is None else acc.truncated(prec)
