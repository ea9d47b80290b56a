import random

import pytest
from exact_reference import dot_reference
from series_reference import mercator_log, truncating_pow

from hypermaps.numfield import NumberField
from hypermaps.rational import Q, QONE
from hypermaps.series import (
    EpsLaurent,
    MultiSeries,
    QRING,
    UniSeries,
    lagrange_invert,
)
from hypermaps.tau import tau_Z


def S(coeffs, trunc=None, var="z"):
    return UniSeries(var, QRING, {e: Q(c) for e, c in coeffs.items()}, trunc)


def test_geometric_inverse():
    inv = S({0: 1, 1: -1}).inv(prec=4)
    assert [inv.coeff(e) for e in range(4)] == [1, 1, 1, 1]


@pytest.mark.parametrize("ring", [QRING, NumberField.cyclotomic_field(3)],
                         ids=["Q", "Q(zeta3)"])
def test_inverse_property(ring):
    rng = random.Random(5)

    def coef():
        c = Q(rng.randint(-4, 4), rng.randint(1, 3))
        return ring.coerce(c) if ring is QRING else ring.coerce(
            [c, Q(rng.randint(-2, 2))])

    checked = 0
    for v in range(-3, 4):
        for _ in range(12):
            length = rng.randint(1, 10)
            coeffs = {v: coef()}
            coeffs.update({v + j: coef() for j in range(1, length)})
            while ring.is_zero(coeffs[v]):
                coeffs[v] = coef()
            if len(coeffs) > 1 and rng.random() < 0.3:
                # an exact polynomial needs an explicit precision
                s = UniSeries("z", ring, coeffs, None)
                prec = expected = rng.randint(1, 12)
            else:
                T = v + length
                s = UniSeries("z", ring, coeffs, T)
                prec = rng.choice([None, rng.randint(1, 12)])
                expected = T - 2 * v if prec is None else min(T - 2 * v,
                                                              prec)
            inv = s.inv(prec=prec)
            assert inv.trunc == expected
            if expected + v <= 0:  # the inverse knows no coefficient
                continue
            prod = s * inv
            assert prod.trunc == expected + v
            one = UniSeries.monomial("z", ring, 1, 0, prod.trunc)
            assert (prod - one).is_zero()
            checked += 1
    assert checked > 40
    with pytest.raises(ZeroDivisionError):
        UniSeries.zero("z", ring).inv(prec=4)
    with pytest.raises(ZeroDivisionError):
        UniSeries.zero("z", ring, 6).inv()
    with pytest.raises(ValueError, match="explicit precision"):
        UniSeries("z", ring, {0: ring.one, 2: ring.one}).inv()


def test_laurent_square():
    sq = S({1: 1, -1: 1}, var="p") * S({1: 1, -1: 1}, var="p")
    assert sq.coeff(2) == 1 and sq.coeff(0) == 2 and sq.coeff(-2) == 1


def test_quadrinomial_power():
    s = S({2: 1, -1: 1}, var="p").pow(4)
    assert s.coeff(-1) == 4


def test_residue_conventions():
    # the residue at zero is the coefficient of p^-1
    cube = S({1: 1, -1: 1}, var="p").pow(3)
    assert cube.coeff(-1) == 3
    assert S({-1: 1}, var="p").coeff(-1) == 1
    assert S({2: 1, -1: 1}, var="p").pow(4).coeff(-1) == 4


def test_residue_of_derivative_vanishes():
    rng = random.Random(7)
    for _ in range(25):
        poly = S({e: rng.randint(-4, 4) for e in range(-5, 6)})
        assert poly.deriv().coeff(-1) == 0


def test_lagrange_invert_cubic():
    phi = S({0: 1, 3: 1})
    z = lagrange_invert(phi, 5)
    assert z.coeff(1) == 1 and z.coeff(4) == 1
    assert z.coeff(2) == 0 and z.coeff(3) == 0


def test_lagrange_round_trip():
    rng = random.Random(3)
    for _ in range(5):
        phi = S({0: 1, **{e: rng.randint(-3, 3) for e in range(1, 5)}})
        z = lagrange_invert(phi, 9)
        w = UniSeries.monomial("w", QRING, 1, 1, 9)
        phi_w = UniSeries("w", QRING, dict(phi.c), phi.trunc)
        diff = w * phi_w.compose(z) - z
        assert diff.is_zero()


def test_ring_axioms_random():
    rng = random.Random(11)

    def rand_series():
        return S({e: rng.randint(-3, 3) for e in range(0, 5)}, trunc=8)

    for _ in range(200):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()


def test_rational_dot_against_the_op_by_op_sum():
    """QRING.dot is the sum of its products folded op by op, over mixed
    denominators, zeros, sums that cancel, and the empty sum."""
    rng = random.Random(17)

    def operand():
        return Q(rng.randint(-9, 9), rng.randint(1, 12))

    for _ in range(60):
        pairs = [(operand(), operand()) for _ in range(rng.randint(0, 8))]
        pairs += [(-a, b) for a, b in pairs[:rng.randint(0, len(pairs))]]
        got = QRING.dot(pairs)
        assert got == dot_reference(QRING, pairs)
        assert type(got) is type(QRING.zero)
    assert QRING.dot([]) == QRING.zero


def test_series_add_and_mul():
    a, b = S({0: 1, 1: 2}), S({0: 3, 1: -1})
    assert (a + b).coeff(1) == 1
    assert (a * b).coeff(0) == 3
    with pytest.raises(TypeError):
        a * "frobnicate"


def test_truncation_zero_is_a_truncation():
    """A truncation of 0 is known, not exact: it bounds every result it
    enters, shifted by the other operand's valuation as any other does."""
    zero_known = S({}, trunc=0)          # O(z^0)
    polar = S({-1: 1}, trunc=0)          # z^-1 + O(z^0)
    exact = S({-2: 1, 0: 3})             # z^-2 + 3, exact
    assert (zero_known * exact).trunc == -2
    assert (exact * zero_known).trunc == -2
    prod = polar * S({0: 1, 1: 1})
    assert prod.trunc == 0 and prod.coeff(-1) == 1
    with pytest.raises(ValueError):
        prod.coeff(0)
    assert (polar + exact).trunc == 0
    assert S({0: 1, 1: 1}).truncated(0).trunc == 0
    inv = S({-1: 2}, trunc=0).inv()
    assert inv.trunc == 2 and inv.coeff(1) == Q(1, 2)
    assert S({0: 1, 2: 1}).inv(prec=0).trunc == 0
    assert S({0: 1, 1: 1}, trunc=0).pow(2).trunc == 0
    t = S({1: 1}, trunc=0)
    assert S({0: 1, 1: 1}).compose(t).trunc == 0


def _outcome(f, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("N", [None, 3, 5], ids=["Q", "Q(zeta3)",
                                                "Q(zeta5)"])
def test_short_product_and_power(N):
    """a.mul(b, p) is (a * b).truncated(p), truncation included, and
    pow(n, prec) is the power truncated after every product, raised
    errors included: over exact and truncated operands, valuations -3..3,
    zero series, and prec None or below, at and above both valuations.
    A cancellation stores no zero coefficient and keeps the truncation:
    a + (-a), a.scale(0), a partial cancellation, and the
    derivative of a constant."""
    ring = QRING if N is None else NumberField.cyclotomic_field(N)
    rng = random.Random(23)

    def coef():
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        if ring is QRING:
            return c
        return ring.coerce([c] + [Q(rng.randint(-2, 2))
                                  for _ in range(ring.deg - 1)])

    def series():
        if rng.random() < 0.1:
            coeffs = {}
        else:
            v = rng.randint(-3, 3)
            coeffs = {v + j: coef() for j in range(rng.randint(1, 4))}
            coeffs[v] = coeffs[v] if not ring.is_zero(coeffs[v]) \
                else ring.one
        low = min(coeffs, default=0)
        trunc = rng.choice([None, low + rng.randint(0, 6)])
        return UniSeries("z", ring, coeffs, trunc)

    shapes = set()
    for _ in range(60):
        a, b = series(), series()
        va, vb = a.val(0), b.val(0)
        precs = {None} | {v + d for v in (va, vb) for d in (-1, 0, 1)}
        for p in sorted(precs, key=lambda p: (p is not None, p)):
            assert a.mul(b, p) == (a * b).truncated(p)
            assert b.mul(a, p) == (b * a).truncated(p)
        for n in range(-3, 6):
            for p in (None, va - 1, va, va + 2, va + 5):
                assert _outcome(a.pow, n, p) == \
                    _outcome(truncating_pow, a, n, p)
        shapes.add((a.trunc is None, a.is_zero(), va < 0))
        for s in (a + (-a), a.scale(0), a.scale(ring.zero)):
            assert s.c == {} and s.trunc == a.trunc
        # cancel every other stored coefficient of a against an exact
        # series
        cancel = dict(list(a.c.items())[::2])
        part = a + UniSeries("z", ring, {e: -v for e, v in cancel.items()})
        assert part.c == {e: v for e, v in a.c.items() if e not in cancel}
        assert part.trunc == a.trunc
        const = UniSeries.monomial("z", ring, coef(), 0, a.trunc)
        d = const.deriv()
        assert d.c == {}
        assert d.trunc == (None if a.trunc is None else a.trunc - 1)
        for s in (a, b, a * b, a + b, a.deriv(), part):
            assert not any(ring.is_zero(v) for v in s.c.values())
    assert len(shapes) >= 6
    assert UniSeries.__mul__ is UniSeries.__rmul__ is UniSeries.mul


def test_truncation_guard():
    s = S({0: 1, 1: 1}, trunc=3)
    with pytest.raises(ValueError):
        s.coeff(3)


def test_eps_laurent_arith():
    a = EpsLaurent({-1: QONE, 1: Q(2)})
    b = EpsLaurent({1: Q(-2), 0: Q(3)})
    assert (a + b).coeff(1) == 0
    assert (a * b).coeff(0) == 3 * 0 + (-2)  # (-1)+(1) cross term
    assert EpsLaurent() == 0 and not EpsLaurent({0: QONE}) == 0


def test_eps_laurent_is_an_exact_unseries():
    """EpsLaurent arithmetic is UniSeries arithmetic: every result, with
    a rational operand too, is again an exact EpsLaurent."""
    a = EpsLaurent({-1: QONE, 1: Q(2)})
    b = EpsLaurent({1: Q(-2), 0: Q(3)})
    q = Q(3, 7)
    results = {"a + b": a + b, "a - b": a - b, "-a": -a, "a * b": a * b,
               "a * q": a * q, "q * a": q * a, "a.scale(q)": a.scale(q),
               "a + 1": a + 1, "1 + a": 1 + a}
    for name, r in results.items():
        assert type(r) is EpsLaurent and r.trunc is None, name
    assert results["a * b"] == EpsLaurent(
        {-1: Q(3), 0: Q(-2), 1: Q(6), 2: Q(-4)})
    assert results["a * q"] == results["q * a"] == results["a.scale(q)"]
    assert results["a + 1"] == results["1 + a"] == EpsLaurent(
        {-1: QONE, 0: QONE, 1: Q(2)})


def test_constructors_reached_through_eps_laurent():
    """zero and monomial build a plain UniSeries whatever class they are
    reached through; EpsLaurent's own constructor takes no var or ring."""
    assert EpsLaurent.zero("eps", QRING) == EpsLaurent()
    assert EpsLaurent.monomial("eps", QRING, 2, -1) == EpsLaurent.term(2, -1)


def test_eps_laurent_rejects_another_variable():
    a = EpsLaurent({0: QONE, 1: Q(2)})
    t = S({0: 1, 1: 1}, var="t")
    for op in (lambda: a + t, lambda: t + a, lambda: a * t,
               lambda: t * a):
        with pytest.raises(ValueError, match="variable mismatch"):
            op()


def multiseries_exp(m):
    """Formal exp of a MultiSeries; requires constant term 0."""
    if () in m.c:
        raise ValueError("exp requires constant term 0")
    acc = MultiSeries.const(m.cap, 1)
    if not m.c:
        return acc
    w0 = min(sum(k) for k in m.c)
    power = m
    k = 1
    fact = QONE
    while k * w0 <= m.cap:
        acc = acc + power.scale(QONE / fact)
        k += 1
        fact = fact * k
        if k * w0 > m.cap:
            break
        power = power * m
    return acc


def test_multiseries_log_exp():
    m = MultiSeries(4, {(): EpsLaurent.const(1),
                        (1,): EpsLaurent.const(2),
                        (2,): EpsLaurent.const(-1)})
    back = multiseries_exp(m.log())
    for key in m.c:
        assert back.coeff(key) == m.coeff(key)


@pytest.mark.parametrize("N, W", [(2, 14), (3, 12), (4, 12), (5, 10)])
def test_multiseries_log_equals_mercator_on_tau(N, W):
    """The weight-by-weight log is the Mercator sum, coefficient for
    coefficient, on tau truncations (lowest nonconstant weight N)."""
    z = tau_Z(N, W).series
    log = z.log()
    assert log.cap == W and log.c
    assert log.c == mercator_log(z).c


def test_multiseries_log_equals_mercator_from_weight_1():
    eps = EpsLaurent.term
    m = MultiSeries(8, {(): EpsLaurent.const(1),
                        (1,): eps(2, -1),
                        (2, 1): eps(3, 0) + eps(Q(1, 3), -2),
                        (3,): eps(Q(-1, 2), 1),
                        (4, 4): eps(5, -3)})
    log = m.log()
    assert min(sum(k) for k in log.c) == 1
    assert log.c == mercator_log(m).c


@pytest.mark.parametrize("const", [0, 2])
def test_multiseries_log_needs_constant_one(const):
    m = MultiSeries(4, {(): EpsLaurent.const(const),
                        (1,): EpsLaurent.const(1)})
    with pytest.raises(ValueError, match="constant term 1"):
        m.log()


def test_multiseries_weight_cap():
    """Nothing above the cap, and nothing zero, is stored: not by
    the constructor, and not after a cancellation, which keeps the
    least cap."""
    m = MultiSeries(3, {(2, 2): EpsLaurent.const(1)})
    assert m.coeff((2, 2)) == 0
    assert m.c == {}
    eps = EpsLaurent.term
    m = MultiSeries(4, {(): EpsLaurent.const(1), (1,): eps(2, -1),
                        (2, 1): eps(3, 0) + eps(Q(1, 3), -2),
                        (3,): EpsLaurent()})
    assert set(m.c) == {(), (1,), (2, 1)}
    for s in (m - m, m.scale(0), m.scale(EpsLaurent()),
              m * MultiSeries.const(4, 0)):
        assert s.c == {} and s.cap == 4
    wide = MultiSeries(6, {(1,): eps(-2, -1), (5,): eps(1, 0)})
    part = m + wide
    assert part.cap == 4
    assert part.c == {(): EpsLaurent.const(1),
                      (2, 1): eps(3, 0) + eps(Q(1, 3), -2)}
    for s in (part, m * m, m.log()):
        assert all(s.c.values())


def test_composition():
    outer = S({0: 1, 1: 1, 2: 1}, trunc=5)
    inner = S({1: 1, 2: -2}, trunc=5)
    direct = S({0: 1}) + inner + (inner * inner).truncated(5)
    assert (outer.compose(inner) - direct.truncated(5)).is_zero()
