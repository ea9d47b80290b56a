import hashlib
import json
from math import factorial

import pytest

from hypermaps import oracle as O
from hypermaps import recursion as R
from hypermaps.frobenius import unstable02
from hypermaps.rational import Q, rat_str
from hypermaps.recursion import (
    Curve,
    Recursion,
    deck_series,
    eta_coeff,
    rhm01_from_curve,
    rhm02_from_curve,
)
from hypermaps.series import UniSeries, lagrange_invert


@pytest.fixture(scope="module")
def rec2():
    return Recursion(2, 2, 3)


@pytest.fixture(scope="module")
def rec3():
    return Recursion(3, 2, 3)


@pytest.fixture(scope="module")
def rec4():
    return Recursion(4, 1, 2)


def test_curve_ram_points():
    for N in (2, 3, 4):
        curve = Curve(N)
        for i, a in enumerate(curve.ram, start=1):
            assert curve.xprime(a).is_zero()
            assert curve.x_at(a) == curve.zeta.pow(-i) * Q(N, N - 1)


def test_curve_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Curve(1)
    with pytest.raises(ValueError):
        rhm01_from_curve(2, -1)
    with pytest.raises(ValueError):
        rhm02_from_curve(2, 1, -1)


def test_deck_contracts():
    for N in (2, 3, 4, 5):
        curve = Curve(N)
        for a_idx in range(N):
            s = deck_series(curve, a_idx, 12)
            assert s.coeff(1) == curve.ring.coerce(-1)
            # involution and x-invariance to working order
            t = UniSeries.monomial("t", curve.ring, 1, 1, 12)
            assert (s.compose(s) - t).is_zero()
            x_loc = curve.x_series(a_idx, 12)
            assert (x_loc.compose(s) - x_loc).is_zero()


def test_deck_closed_form_N2():
    # xt = v + 1/v, so sigma(v) = 1/v and s(t) = 1/(a+t) - a
    curve = Curve(2)
    ring = curve.ring
    for a_idx, a in enumerate(curve.ram):
        base = UniSeries("t", ring, {0: a, 1: ring.one}, None)
        expected = base.inv(prec=20) - UniSeries.monomial("t", ring, a, 0)
        assert deck_series(curve, a_idx, 20) == expected


def test_deck_rejects_a_perturbed_curve(monkeypatch):
    x_series = Curve.x_series

    def perturbed(self, a_idx, trunc):
        bump = UniSeries.monomial("t", self.ring, 1, 3)
        return x_series(self, a_idx, trunc) + bump

    monkeypatch.setattr(Curve, "x_series", perturbed)
    with pytest.raises(ArithmeticError, match="does not preserve x"):
        deck_series(Curve(3), 0, 12)


def test_omega_pole_bounds(rec2):
    for (g, n), bound in (((0, 3), 2), ((1, 1), 4)):
        tensor = rec2.omega(g, n)
        assert tensor, (g, n)
        for key in tensor:
            assert all(k <= bound for _, k in key), key


def test_omega_unstable_rejected(rec2):
    with pytest.raises(ValueError, match="unstable moment"):
        rec2.omega(0, 2)


def test_omega_order_cap(rec2):
    with pytest.raises(ValueError, match="expansion order"):
        rec2.omega(5, 3)


def test_rhm_tr_anchors(rec2, rec3):
    assert rec2.rhm_from_tr(1, (4,)) == 1
    assert rec2.rhm_from_tr(0, (2, 1, 1)) == 2
    assert rec3.rhm_from_tr(1, (3,)) == 1
    assert rec3.rhm_from_tr(0, (1, 1, 1)) == 2


def test_rhm_tr_divisibility(rec2, rec3):
    assert rec2.rhm_from_tr(1, (3,)) == 0
    assert rec3.rhm_from_tr(1, (4,)) == 0


def test_rhm_tr_vs_oracle(rec2, rec3):
    for rec, N in ((rec2, 2), (rec3, 3)):
        for g, degrees in [(1, (N * 2,)), (0, (N, 1, 1)) if N == 2
                           else (0, (2, 2, 2)), (2, (N * 2,))]:
            assert rec.rhm_from_tr(g, degrees) == \
                O.enumerate_rhm(O.Profile(N, g, degrees)), (N, g, degrees)


def test_zn_covariance(rec2, rec3):
    for rec in (rec2, rec3):
        for g, n in ((0, 3), (1, 1), (1, 2)):
            assert rec.zn_covariance_defects(g, n) == []


def pair_submultisets(K):
    """Distinct unordered 2-submultisets {p, q} of the multiset K, with
    their remainders."""
    vals = sorted(set(K))
    out = []
    for i, p in enumerate(vals):
        cp = K.count(p)
        if cp >= 2:
            rest = list(K)
            rest.remove(p)
            rest.remove(p)
            out.append((p, p, tuple(rest)))
        for q in vals[i + 1:]:
            rest = list(K)
            rest.remove(p)
            rest.remove(q)
            out.append((p, q, tuple(rest)))
    return out


def all_points_omega(rec, g, n):
    """omega_{g,n} with the recursion run at every ramification point and
    no rotation: the reference for Recursion._compute.  The lower
    correlators come from rec.omega.  The term omega_{g-1,n+1}(z, sigma z)
    runs over unordered slot pairs, with the residue vectors of both
    orders of a pair summed, and every term scales its own vector."""
    zero = rec.curve.ring.zero
    n_ext = n - 1
    bound = 6 * g - 4 + 2 * n
    j_max = bound - 1
    result = {}
    for a_idx in range(rec.N):
        acc = {}

        def add(r, vec, scale=None):
            cur = acc.get(r)
            if cur is None:
                cur = [zero] * j_max
                acc[r] = cur
            if scale is None:
                for i in range(j_max):
                    cur[i] = cur[i] + vec[i]
            else:
                for i in range(j_max):
                    cur[i] = cur[i] + vec[i] * scale

        if g >= 1:
            if (g - 1, n + 1) == (0, 2):
                add((), rec._res_vector(a_idx, ("B2",), None, j_max))
            else:
                for K, c in rec.omega(g - 1, n + 1).items():
                    for p, q, rest in pair_submultisets(K):
                        vz = rec._res_vector(
                            a_idx, ("z",) + p, ("s",) + q, j_max)
                        if p != q:
                            vs = rec._res_vector(
                                a_idx, ("z",) + q, ("s",) + p, j_max)
                            vz = tuple(x + y for x, y in zip(vz, vs))
                        add(rest, vz, c)
        for g1 in range(g + 1):
            for j1 in range(n_ext + 1):
                t1, t2 = (g1, 1 + j1), (g - g1, n - j1)
                if t1 == (0, 1) or t2 == (0, 1):
                    continue
                s_legs = rec._legs(a_idx, t2, "s", bound)
                for z_role, r1, c1 in rec._legs(a_idx, t1, "z", bound):
                    for s_role, r2, c2 in s_legs:
                        r, cnt = rec._merge_count(r1, r2)
                        vec = rec._res_vector(a_idx, z_role, s_role, j_max)
                        add(r, vec, cnt * c1 * c2)
        for r, vec in acc.items():
            for j in range(1, j_max + 1):
                c = vec[j - 1]
                if c.is_zero():
                    continue
                full = tuple(sorted(((a_idx, j + 1),) + r))
                assert result.setdefault(full, c) == c, full
    return {k: v for k, v in result.items() if not v.is_zero()}


def test_rotation_matches_all_points(rec2, rec3, rec4):
    # (1, 3) and (2, 1) of N = 2 take their omega_{g-1,n+1}(z, sigma z)
    # term from a stable correlator with repeated slot values
    cases = [(rec2, ((0, 3), (1, 1), (1, 2), (1, 3), (2, 1))),
             (rec3, ((0, 3), (1, 1), (1, 2))),
             (rec4, ((0, 3), (1, 1)))]
    for rec, gns in cases:
        for g, n in gns:
            assert rec.omega(g, n) == all_points_omega(rec, g, n), \
                (rec.N, g, n)


# correlators with a key whose rotation has a slot at point 0 again, with
# a factor zeta^(r sum(k-1)) != 1
@pytest.mark.parametrize("N, g, n", [(3, 0, 4), (3, 1, 2), (4, 0, 4)])
def test_wrong_rotation_factor_raises(monkeypatch, N, g, n):
    rotate = Recursion._rotate
    # the rotated key with factor 1
    monkeypatch.setattr(Recursion, "_rotate", lambda self, K, r: (
        rotate(self, K, r)[0], self.curve.ring.one))
    rec = Recursion(N, 1, 2)
    with pytest.raises(ArithmeticError, match="Z_N covariance violated"):
        rec.omega(g, n)


@pytest.mark.parametrize("g, n", [(0, 3), (1, 1)])
def test_zn_covariance_sees_base_point_1(g, n):
    rec = Recursion(2, 1, 2)
    tensor = rec.omega(g, n)
    res_vector = rec._res_vector

    def doubled_at_1(a_idx, left, right, j_max):
        vec = res_vector(a_idx, left, right, j_max)
        return tuple(x * 2 for x in vec) if a_idx == 1 else vec

    rec._res_vector = doubled_at_1
    assert rec.zn_covariance_defects(g, n) == sorted(tensor)


def test_expansion_order_stability():
    """The same count extracted from recursions configured with
    different expansion orders."""
    exact = Recursion(2, 1, 1)
    small = Recursion(2, 1, 2)
    big = Recursion(2, 2, 3)
    assert (exact.M, small.M, big.M) == (4, 6, 14)
    for g, degrees in ((1, (4,)), (1, (6,)), (0, (2, 1, 1))):
        assert exact.rhm_from_tr(g, degrees) == \
            small.rhm_from_tr(g, degrees) == big.rhm_from_tr(g, degrees)
    # one field object per N, so the tensors compare coefficientwise
    assert exact.omega(1, 1) == small.omega(1, 1) == big.omega(1, 1)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("g, n", [(0, 4), (1, 2), (2, 1)])
def test_expansion_order_is_exact(rec2, rec3, N, g, n):
    """M = 6g - 4 + 2n, the pole order of omega_{g,n}, is the least
    expansion order that reaches every residue of its recursion."""
    exact = Recursion(N, g, n)
    assert exact.M == 6 * g - 4 + 2 * n
    assert exact.omega(g, n) == (rec2 if N == 2 else rec3).omega(g, n)
    short = Recursion(N, g, n)
    short.M -= 1
    with pytest.raises(ArithmeticError,
                       match="insufficient local expansion order"):
        short._compute(g, n)


def eta_series_table(curve, max_exp, max_order):
    """Reference for eta_coeff: the basis forms re-expanded at v = 0 by
    series reversion, eta_{a,k}(X) = (v(X)-a)^(-k) v'(X)."""
    ring, N = curve.ring, curve.N
    trunc = max_exp + 2
    # X = v / (1 + v^N/(N-1)), so v = X * phi(v), phi = 1 + v^N/(N-1)
    phi = UniSeries("X", ring, {0: ring.one, N: ring.coerce(Q(1, N - 1))},
                    None)
    v = lagrange_invert(phi, trunc, out_var="X")
    vp = v.deriv()
    table = {}
    for a_idx, a in enumerate(curve.ram):
        shifted = v - UniSeries.monomial("X", ring, a, 0, v.trunc)
        inv = shifted.inv(prec=trunc)
        cur = UniSeries.monomial("X", ring, 1, 0, trunc)
        for k in range(1, max_order + 1):
            cur = (cur * inv).truncated(trunc)
            series = (cur * vp).truncated(trunc)
            table[(a_idx, k)] = [series.coeff(e) for e in range(max_exp + 1)]
    return table


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_eta_closed_form(N):
    curve = Curve(N)
    table = eta_series_table(curve, 20, 10)
    for (a_idx, k), coeffs in table.items():
        a = curve.ram[a_idx]
        for e, want in enumerate(coeffs):
            got = a.pow(-k - e) * (Q((-1) ** k) * eta_coeff(N, k, e))
            assert got == want, (a_idx, k, e)


def test_tensor_cache_ignores_working_order(tmp_path):
    a = Recursion(2, 1, 2, cache_dir=str(tmp_path))
    t1 = a.omega(1, 1)
    b = Recursion(2, 2, 3, cache_dir=str(tmp_path))
    assert b.M != a.M
    b._compute = lambda g, n: pytest.fail("recomputed a cached tensor")
    assert b.omega(1, 1) == t1


def test_tensor_cache_round_trip(tmp_path):
    a = Recursion(2, 1, 2, cache_dir=str(tmp_path))
    t1 = a.omega(1, 1)
    assert list(tmp_path.iterdir()), "cache file written"
    b = Recursion(2, 1, 2, cache_dir=str(tmp_path))
    t2 = b.omega(1, 1)
    assert set(t1) == set(t2)
    for k in t1:
        assert t1[k].v == t2[k].v


def test_tensor_cache_store_removes_stale_names(tmp_path):
    """Storing a tensor removes the files that carried the working order
    M in their name, for that (N, g, n) only."""
    names = ["tensor_N2_g1_n1_M6_v1.json", "tensor_N2_g1_n1_M10_v1.json",
             "tensor_N2_g2_n1_M10_v1.json", "tensor_N3_g1_n1_M6_v1.json"]
    for name in names:
        (tmp_path / name).write_text("{}")
    Recursion(2, 1, 1, cache_dir=str(tmp_path)).omega(1, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        names[2:] + ["tensor_N2_g1_n1_v1.json"])


@pytest.mark.parametrize("g, n", [(0, 3), (1, 2)])
def test_tensor_cache_round_trip_N3(tmp_path, rec3, g, n):
    """The covariance check on load accepts a tensor whose rotation
    factors are powers of zeta; omega_{0,3}, which `omega` never caches,
    is checked through the load alone."""
    Recursion(3, g, n, cache_dir=str(tmp_path))._store_cached(
        g, n, rec3.omega(g, n))
    b = Recursion(3, g, n, cache_dir=str(tmp_path))
    assert b._load_cached(g, n) == rec3.omega(g, n)
    if (g, n) != (0, 3):
        b._compute = lambda g, n: pytest.fail("recomputed a cached tensor")
        assert b.omega(g, n) == rec3.omega(g, n)


@pytest.mark.parametrize("exc", [OSError, RuntimeError])
def test_tensor_cache_write_is_atomic(tmp_path, monkeypatch, exc):
    def failing_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj)[:20])
        raise exc("write interrupted")

    with monkeypatch.context() as m:
        m.setattr(json, "dump", failing_dump)
        a = Recursion(2, 1, 2, cache_dir=str(tmp_path))
        if exc is OSError:  # an unwritable cache is skipped
            t1 = a.omega(1, 1)
        else:
            with pytest.raises(exc):
                a.omega(1, 1)
            t1 = Recursion(2, 1, 2).omega(1, 1)
    assert list(tmp_path.iterdir()) == []
    b = Recursion(2, 1, 2, cache_dir=str(tmp_path))
    computed = []
    compute = b._compute
    b._compute = lambda g, n: computed.append((g, n)) or compute(g, n)
    t2 = b.omega(1, 1)
    assert {k: c.v for k, c in t2.items()} == {k: c.v for k, c in t1.items()}
    assert computed == [(1, 1)]
    assert [str(p) for p in tmp_path.iterdir()] == [b._cache_path(1, 1)]


# sha256 of the cache-format payload of each tensor
PINNED = {
    (2, 0, 3):
        "81708e79e44c0fa634a39198a9b11accc3ea8585112c4d11cc2cd54867ceb39f",
    (2, 1, 1):
        "310de1abb2e5b938447a19644bcdbf7d53a1e1d7ae543f0730e1c3c366750658",
    (2, 1, 2):
        "cee2e6f29a81aeebd0d9d6b64637d3264c3558d3831ac2c0f21ae3c2621b5f89",
    (3, 0, 3):
        "ed4362f38963a5a34d91d4bd25ce2e554956dbf1000596aba1b4e95fea700a88",
    (3, 1, 1):
        "49701167682ec44e4719103e4d7c661315af0fc5748251ebd812a5f192efbb42",
    (3, 1, 2):
        "8fb47c7b1f960321d30a4166489e037f90a648d08bbd6dc4bff12be42d9b731d",
    (2, 2, 1):
        "e7042cae3258ae7584650586c5ea1e778a091bfd5484dc1727cfe7d119840369",
    (2, 2, 2):
        "7506f37c2bb57d68b98c9174c2af725a13b630a83e11a696eb9a96fbb3e815fb",
    (3, 1, 3):
        "fedc021627153cc2bb33f3c3e36ff81e0c3c7a6b68ce264136d4872ffe7ab13d",
    (3, 2, 1):
        "67d65ba5f0c48d628736f27aa5b195e93eba909ed6114084090baa951c92d5e5",
    (4, 0, 3):
        "04af808dfaaae67cd0ecb39c30f6b8a1cfaaccfdc8b336df1e61312f25838edc",
    (4, 1, 1):
        "3044ffe42af22f462830e15719814a7efaccb138ed1f92777d5522a22249f0e6",
    (4, 0, 4):
        "843bc8ba3c70a61b0be24c0fc13a39de9057a0ef65e87dd1633eb7568ab4e74d",
    (4, 1, 2):
        "50301a2f868b26b060853f5a9b0a504a38fd3310498fa529932ea76f547fe783",
}


def test_omega_tensors_pinned(rec2, rec3, rec4):
    recs = {2: rec2, 3: rec3, 4: rec4}
    for (N, g, n), digest in PINNED.items():
        tensor = recs[N].omega(g, n)
        payload = {";".join(f"{a},{k}" for a, k in key):
                   [rat_str(c) for c in val.v]
                   for key, val in tensor.items()}
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, \
            (N, g, n)


def test_rhm01_from_curve_examples():
    assert rhm01_from_curve(2, 1) == 1
    assert rhm01_from_curve(3, 2) == 1
    for k in (0, 2, 4, 6):
        assert rhm01_from_curve(2, k) == 0
    for N in (2, 3, 4):
        for k in range(9):
            assert rhm01_from_curve(N, k) == O.rhm01_closed(N, k)


def test_rhm01_from_curve_short_series_raises(monkeypatch):
    """A Lagrange inversion that falls short makes the read raise
    instead of returning 0."""
    def short(phi, trunc, out_var="w"):
        return lagrange_invert(phi, trunc, out_var).truncated(1)

    monkeypatch.setattr(R, "lagrange_invert", short)
    for k in (0, 1, 4):
        with pytest.raises(ValueError):
            rhm01_from_curve(3, k)


def test_rhm02_from_curve_examples():
    assert rhm02_from_curve(2, 1, 1) == 2
    for N in (2, 3):
        for k1 in range(4):
            for k2 in range(4):
                if (k1 + k2 + 2) % N:
                    continue
                assert rhm02_from_curve(N, k1, k2) == O.enumerate_rhm(
                    O.Profile(N, 0, (k1 + 1, k2 + 1)))


def test_rhm02_from_curve_matches_smatrix():
    """The curve's two-point residue against the independent S-matrix
    route, which gives the count over (k1+1)! (k2+1)!."""
    for N in range(2, 7):
        for k1 in range(9):
            for k2 in range(9):
                assert rhm02_from_curve(N, k1, k2) == (
                    unstable02(N, k1, k2)
                    * factorial(k1 + 1) * factorial(k2 + 1)), (N, k1, k2)
