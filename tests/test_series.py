import random

import pytest
from exact_reference import dot_reference, field_element
from series_reference import (mercator_log, multi_add, multi_const,
                              multi_scale, truncating_pow)

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


def eps(q, e):
    """The monomial q eps^e."""
    return EpsLaurent({e: Q(q)})


def test_geometric_inverse():
    inv = S({0: 1, 1: -1}).inv(prec=4)
    assert [inv.coeff(e) for e in range(4)] == [1, 1, 1, 1]


@pytest.mark.parametrize("ring", [QRING, NumberField.cyclotomic_field(3)],
                         ids=["Q", "Q(zeta3)"])
def test_inverse_property(ring):
    rng = random.Random(5)

    def coef():
        c = Q(rng.randint(-4, 4), rng.randint(1, 3))
        return c if ring is QRING else field_element(
            ring, [c, Q(rng.randint(-2, 2))])

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
            one = UniSeries("z", ring, {0: ring.one}, prod.trunc)
            assert (prod - one).is_zero()
            checked += 1
    assert checked > 40
    with pytest.raises(ZeroDivisionError):
        UniSeries("z", ring).inv(prec=4)
    with pytest.raises(ZeroDivisionError):
        UniSeries("z", ring, {}, 6).inv()
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
        w = UniSeries("w", QRING, {1: QONE}, 9)
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
    assert S({}, trunc=0).compose(S({1: 1})).trunc == 0
    # O(z^0) may hold a constant term: its valuation is only >= 0
    with pytest.raises(ValueError, match="positive valuation"):
        S({0: 1, 1: 1}).compose(S({1: 1}, trunc=0))


def test_one_valuation_rule():
    """val is the lowest stored exponent, else the truncation (a series
    that stores nothing below z^T vanishes there, so its valuation is at
    least T), else None for the exact zero, and every precision reads
    it.  At N = 5 the kernel's t^2 - s^2 is O(t^5): times a series of
    valuation -2 it is known to t^3."""
    assert S({2: 1, 5: 1}, trunc=6).val() == 2
    assert [S({}, trunc=T).val() for T in (5, 0, -2)] == [5, 0, -2]
    assert S({}).val() is None
    polar = S({-2: 1, 0: 1}, trunc=1)
    assert (S({}, trunc=5) * polar).trunc == 3
    assert (polar * S({}, trunc=5)).trunc == 3
    # (c z^-1 + ...)(d z^-1 + ...) has a term at z^-2
    assert (S({}, trunc=-1) * S({}, trunc=-1)).trunc == -2
    # an exact zero factor makes the product the exact zero
    assert (S({1: 1}, trunc=3) * S({})).trunc is None
    # 1 + O(u) at u = O(t^4) is 1 + O(t^4)
    assert S({0: 1}, trunc=1).compose(S({}, trunc=4)) == S({0: 1}, trunc=4)
    with pytest.raises(ValueError, match="positive valuation"):
        S({0: 1, 1: 1}).compose(S({}))
    with pytest.raises(ValueError, match="nonnegative valuation"):
        S({}, trunc=-1).compose(S({1: 1}))
    # Res of U w for U of valuation -1 reads w up to z^0
    u = S({-1: 2, 0: 1}, trunc=2)
    assert u.residue(S({0: 3, 1: 5}, trunc=1)) == 6
    assert u.residue(S({}, trunc=1)) == 0
    with pytest.raises(ArithmeticError,
                       match="insufficient local expansion order"):
        u.residue(S({-1: 1}, trunc=0))


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
    a.residue(b) is the product's coefficient at z^-1, or raises where
    the product does not know it.
    A cancellation stores no zero coefficient and keeps the truncation:
    a + (-a), a.scale(0), a partial cancellation, and the
    derivative of a constant."""
    ring = QRING if N is None else NumberField.cyclotomic_field(N)
    rng = random.Random(23)

    def coef():
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        if ring is QRING:
            return c
        return field_element(ring, [c] + [Q(rng.randint(-2, 2))
                                          for _ in range(ring.deg - 1)])

    def series():
        if rng.random() < 0.1:
            coeffs = {}
        else:
            v = rng.randint(-3, 3)
            coeffs = {v + j: coef() for j in range(rng.randint(1, 4))}
            coeffs[v] = coeffs[v] if not ring.is_zero(coeffs[v]) \
                else ring.one
        # a series that stores nothing is known to vanish below its
        # truncation, which may be negative
        low = min(coeffs) if coeffs else rng.randint(-3, 3)
        trunc = rng.choice([None, low + rng.randint(0, 6)])
        return UniSeries("z", ring, coeffs, trunc)

    shapes, residues = set(), set()
    for _ in range(60):
        a, b = series(), series()
        # precisions around each valuation, 0 standing in for the exact
        # zero's
        va, vb = (0 if s.val() is None else s.val() for s in (a, b))
        precs = {None} | {v + d for v in (va, vb) for d in (-1, 0, 1)}
        for p in sorted(precs, key=lambda p: (p is not None, p)):
            assert a.mul(b, p) == (a * b).truncated(p)
            assert b.mul(a, p) == (b * a).truncated(p)
        for n in range(-3, 6):
            for p in (None, va - 1, va, va + 2, va + 5):
                assert _outcome(a.pow, n, p) == \
                    _outcome(truncating_pow, a, n, p)
        shapes.add((a.trunc is None, a.is_zero(), va < 0))
        # a residue is the product's coefficient at z^-1, where it is known
        prod = a * b
        if prod.trunc is not None and prod.trunc <= -1:
            with pytest.raises(ArithmeticError,
                               match="insufficient local expansion order"):
                a.residue(b)
            residues.add("raised")
        else:
            assert a.residue(b) == prod.coeff(-1)
            residues.add("read")
        for s in (a + (-a), a.scale(0), a.scale(ring.zero)):
            assert s.c == {} and s.trunc == a.trunc
        # cancel every other stored coefficient of a against an exact
        # series
        cancel = dict(list(a.c.items())[::2])
        part = a + UniSeries("z", ring, {e: -v for e, v in cancel.items()})
        assert part.c == {e: v for e, v in a.c.items() if e not in cancel}
        assert part.trunc == a.trunc
        const = UniSeries("z", ring, {0: coef()}, a.trunc)
        d = const.deriv()
        assert d.c == {}
        assert d.trunc == (None if a.trunc is None else a.trunc - 1)
        for s in (a, b, a * b, a + b, a.deriv(), part):
            assert not any(ring.is_zero(v) for v in s.c.values())
    assert len(shapes) >= 6 and residues == {"raised", "read"}
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
    zero = EpsLaurent.const(0)
    assert EpsLaurent() == zero and not EpsLaurent({0: QONE}) == zero
    assert EpsLaurent() != 0


def test_eps_laurent_is_an_exact_unseries():
    """EpsLaurent arithmetic is UniSeries arithmetic between two
    EpsLaurents: every result is again an exact EpsLaurent.  A rational
    enters through `const` or `scale`, never as an operand."""
    a = EpsLaurent({-1: QONE, 1: Q(2)})
    b = EpsLaurent({1: Q(-2), 0: Q(3)})
    q = Q(3, 7)
    one, q_eps = EpsLaurent.const(1), EpsLaurent.const(q)
    results = {"a + b": a + b, "a - b": a - b, "-a": -a, "a * b": a * b,
               "a * const(q)": a * q_eps, "const(q) * a": q_eps * a,
               "a.scale(q)": a.scale(q),
               "a + const(1)": a + one, "const(1) + a": one + a}
    for name, r in results.items():
        assert type(r) is EpsLaurent and r.trunc is None, name
    assert results["a * b"] == EpsLaurent(
        {-1: Q(3), 0: Q(-2), 1: Q(6), 2: Q(-4)})
    assert (results["a * const(q)"] == results["const(q) * a"]
            == results["a.scale(q)"])
    assert results["a + const(1)"] == results["const(1) + a"] == EpsLaurent(
        {-1: QONE, 0: QONE, 1: Q(2)})
    for op in (lambda: a + 1, lambda: 1 + a, lambda: a * q, lambda: q * a,
               lambda: a - q):
        with pytest.raises(TypeError):
            op()


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
    acc = multi_const(m.cap, 1)
    if not m.c:
        return acc
    w0 = min(sum(k) for k in m.c)
    power = m
    k = 1
    fact = QONE
    while k * w0 <= m.cap:
        acc = multi_add(acc, multi_scale(power, QONE / fact))
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
    assert m.coeff((2, 2)) == EpsLaurent()
    assert m.c == {}
    m = MultiSeries(4, {(): EpsLaurent.const(1), (1,): eps(2, -1),
                        (2, 1): eps(3, 0) + eps(Q(1, 3), -2),
                        (3,): EpsLaurent()})
    assert set(m.c) == {(), (1,), (2, 1)}
    for s in (multi_add(m, multi_scale(m, -1)), multi_scale(m, 0),
              m._new({k: v * EpsLaurent() for k, v in m.c.items()}),
              m * multi_const(4, 0)):
        assert s.c == {} and s.cap == 4
    wide = MultiSeries(6, {(1,): eps(-2, -1), (5,): eps(1, 0)})
    part = multi_add(m, wide)
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
