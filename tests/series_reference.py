"""Series operations kept as test references.

The sums of MultiSeries that the package does not define: a constant,
the sum of two and a rational multiple of one.

The Mercator log of a MultiSeries: log Z = sum_k (-1)^(k+1) (Z - 1)^k /
k, summed over whole powers of Z - 1 until their lowest weight passes
the cap.  `MultiSeries.log` takes the same log weight by weight and must
return the same series.

The power of a UniSeries by squaring that forms each whole product and
then truncates it: `UniSeries.pow` forms only the terms below its
precision and must return the same series, truncation included.
"""
from hypermaps.rational import Q
from hypermaps.series import EpsLaurent, MultiSeries, UniSeries


def multi_const(cap, q):
    """The rational q as a constant MultiSeries of weight cap `cap`."""
    return MultiSeries(cap, {(): EpsLaurent.const(q)})


def multi_add(a, b):
    """a + b, capped at the lesser of the two caps."""
    cap = min(a.cap, b.cap)
    c = {k: v for k, v in a.c.items() if sum(k) <= cap}
    for k, v in b.c.items():
        if sum(k) <= cap:
            c[k] = c[k] + v if k in c else v
    return a._new(c, cap)


def multi_scale(m, q):
    """Every coefficient of m times the rational q."""
    return m._new({k: v.scale(q) for k, v in m.c.items()})


def mercator_log(m):
    """Formal log of m, whose constant term must be exactly 1."""
    if m.c.get((), EpsLaurent()) != EpsLaurent.const(1):
        raise ValueError("log requires constant term 1")
    u = multi_add(m, multi_const(m.cap, -1))
    if not u.c:
        return m._new({})
    w0 = min(sum(k) for k in u.c)
    acc = m._new({})
    power = u
    k = 1
    while k * w0 <= m.cap:
        acc = multi_add(acc, multi_scale(power, Q((-1) ** (k + 1), k)))
        k += 1
        if k * w0 > m.cap:
            break
        power = power * u
    return acc


def truncating_pow(s, n, prec=None):
    """s^n, truncated at prec after every whole product.  The base is
    not cut first: a cut below its valuation would forget how far the
    base vanishes, and each product's truncation reads that valuation."""
    if n < 0:
        return truncating_pow(s.inv(prec=prec), -n, prec)
    acc = UniSeries(s.var, s.ring, {0: s.ring.one})
    b = s
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
