import random

import pytest
from series_reference import mercator_log

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


def test_series_add_and_mul():
    a, b = S({0: 1, 1: 2}), S({0: 3, 1: -1})
    assert (a + b).coeff(1) == 1
    assert (a * b).coeff(0) == 3
    with pytest.raises(TypeError):
        a * "frobnicate"


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
    m = MultiSeries(3, {(2, 2): EpsLaurent.const(1)})
    assert m.coeff((2, 2)) == 0


def test_composition():
    outer = S({0: 1, 1: 1, 2: 1}, trunc=5)
    inner = S({1: 1, 2: -2}, trunc=5)
    direct = S({0: 1}) + inner + (inner * inner).truncated(5)
    assert (outer.compose(inner) - direct.truncated(5)).is_zero()
