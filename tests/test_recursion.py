import hashlib
import json
from itertools import product
from math import factorial, gcd

import pytest

from exact_reference import (field_coords, field_element, field_pow,
                             rhm_from_tr_reference)
from hypermaps import numfield
from hypermaps import oracle as O
from hypermaps import recursion as R
from hypermaps.checks import stable_profiles
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
def rec2(wide_recursions):
    return wide_recursions[2]


@pytest.fixture(scope="module")
def rec3(wide_recursions):
    return wide_recursions[3]


@pytest.fixture(scope="module")
def rec4():
    return Recursion(4, 1, 2)


@pytest.fixture(scope="module")
def rec5():
    return Recursion(5, 1, 2)


@pytest.fixture(scope="module")
def rec6():
    return Recursion(6, 1, 2)


def test_curve_ram_points():
    """x(a_i) = zeta^(-i) N/(N-1) and x'(a_i) = 0, read off x_series."""
    for N in (2, 3, 4):
        curve = Curve(N)
        for i in range(1, N + 1):
            x_loc = curve.x_series(i - 1, 2)
            assert x_loc.coeff(1).is_zero()
            assert x_loc.coeff(0) == \
                field_pow(curve.ring.gen, -i) * Q(N, N - 1)


@pytest.mark.parametrize("N", range(2, 8))
def test_curve_accepts_N(N):
    """Every ramification point is simple, x'' != 0 there, for N = 2..7."""
    curve = Curve(N)
    assert len(curve.ram) == N
    for a_idx in range(N):
        assert not curve.x_series(a_idx, 3).coeff(2).is_zero()


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
            assert s.coeff(1) == -curve.ring.one
            # involution and x-invariance to working order
            t = UniSeries("t", curve.ring, {1: curve.ring.one}, 12)
            assert (s.compose(s) - t).is_zero()
            x_loc = curve.x_series(a_idx, 12)
            assert (x_loc.compose(s) - x_loc).is_zero()


def test_deck_closed_form_N2():
    # xt = v + 1/v, so sigma(v) = 1/v and s(t) = 1/(a+t) - a
    curve = Curve(2)
    ring = curve.ring
    for a_idx, a in enumerate(curve.ram):
        base = UniSeries("t", ring, {0: a, 1: ring.one}, None)
        expected = base.inv(prec=20) - UniSeries("t", ring, {0: a})
        assert deck_series(curve, a_idx, 20) == expected


def test_deck_rejects_a_perturbed_curve(monkeypatch):
    x_series = Curve.x_series

    def perturbed(self, a_idx, trunc):
        bump = UniSeries("t", self.ring, {3: self.ring.one})
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


@pytest.mark.parametrize("g, n, message", [
    (2, 0, "need n >= 1, got 0"), (-1, 5, "need g >= 0, got -1")])
def test_omega_rejects_negative_genus_and_no_faces(tmp_path, g, n, message):
    """2g - 2 + n > 0 holds for both shapes, but neither is a correlator:
    the request is refused before anything is computed or cached."""
    rec = Recursion(2, 2, 1, cache_dir=str(tmp_path))
    with pytest.raises(ValueError) as info:
        rec.omega(g, n)
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("g_max, n_max, message", [
    (-1, 3, "need g >= 0, got -1"), (0, 1, O.UNSTABLE_MOMENT),
    (0, 0, "need n >= 1, got 0")])
def test_recursion_refuses_a_shape_that_is_no_correlator(g_max, n_max,
                                                         message):
    """The shape rule of `admit_recursion` refuses at construction what
    `omega` would refuse on its first read."""
    with pytest.raises(ValueError) as info:
        Recursion(2, g_max, n_max)
    assert str(info.value) == message


@pytest.mark.parametrize("degrees", [(2,), (1,)])
def test_rhm_from_tr_refuses_an_unstable_moment(degrees):
    """Genus 0 with one face has no correlator, whether or not N divides
    its darts."""
    with pytest.raises(ValueError) as info:
        Recursion(2, 1, 3).rhm_from_tr(0, degrees)
    assert str(info.value) == O.UNSTABLE_MOMENT


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


# the rhm_stream workload's grid: (N, weight cap), g <= 1, n <= 3
STREAM_GRID = ((2, 10), (3, 9))


def counting(calls, name, fn):
    """fn, counting each call in calls[name]."""
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def check_warm_reads(monkeypatch, rec, profiles):
    """Every profile reads as the op-by-op reference, and once each
    (g, n) has been read, a read forms no ordering, scales or multiplies
    no field element, adds no two rationals (every ordering is its own
    pair of the sum) and sums in exactly one NumberField.dot."""
    assert profiles
    for g, degrees in profiles:
        assert rec.rhm_from_tr(g, degrees) == \
            rhm_from_tr_reference(rec, g, degrees), (g, degrees)
    calls = {}
    for owner, name in ((R, "permutations"), (numfield.NFElem, "scale"),
                        (numfield.NFElem, "__mul__"),
                        (numfield.NumberField, "dot"),
                        (Q, "__add__"), (Q, "__radd__")):
        monkeypatch.setattr(owner, name,
                            counting(calls, name, getattr(owner, name)))
    for g, degrees in profiles:
        calls.update(permutations=0, scale=0, __mul__=0, dot=0,
                     __add__=0, __radd__=0)
        rec.rhm_from_tr(g, degrees)
        assert calls == {"permutations": 0, "scale": 0, "__mul__": 0,
                         "dot": 1, "__add__": 0, "__radd__": 0}, (g, degrees)


@pytest.mark.parametrize("N, W", STREAM_GRID)
def test_stream_read_is_one_dot_and_no_coercion(monkeypatch, N, W):
    """The stream grid's reads: each correlator's read plan is built on
    its first read, and a warm read pays only for its eta products."""
    check_warm_reads(monkeypatch, Recursion(N, 1, 3),
                     stable_profiles(N, 1, 3, W))


@pytest.mark.parametrize("N", (4, 5, 6))
@pytest.mark.parametrize("g_max, n_max", ((1, 3), (2, 1)))
def test_warm_reads_beyond_N_3(monkeypatch, N, g_max, n_max):
    """The same on the N = 4..6 grids of the crosscheck that compares
    the engines beyond N = 3, weight cap 10."""
    check_warm_reads(monkeypatch, Recursion(N, g_max, n_max),
                     stable_profiles(N, g_max, n_max, 10))


@pytest.mark.parametrize("N, W", [(2, 10), (3, 9)])
def test_read_matches_the_op_by_op_reference(wide_recursions, N, W):
    """Criterion 1's grid, g <= 2, n <= 3: the one-dot read equals the
    op-by-op read with rationals built into the field on every stable
    profile."""
    rec = wide_recursions[N]
    for g, degrees in stable_profiles(N, 2, 3, W):
        assert rec.rhm_from_tr(g, degrees) == \
            rhm_from_tr_reference(rec, g, degrees), (g, degrees)


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
                add((), rec._res_vector(a_idx, ("B2",), None))
            else:
                for K, c in rec.omega(g - 1, n + 1).items():
                    for p, q, rest in pair_submultisets(K):
                        vz = rec._res_vector(
                            a_idx, ("z",) + p, ("s",) + q)
                        if p != q:
                            vs = rec._res_vector(
                                a_idx, ("z",) + q, ("s",) + p)
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
                        vec = rec._res_vector(a_idx, z_role, s_role)
                        add(r, vec, cnt * c1 * c2)
        for r, vec in acc.items():
            for j in range(1, j_max + 1):
                c = vec[j - 1]
                if c.is_zero():
                    continue
                full = tuple(sorted(((a_idx, j + 1),) + r))
                assert result.setdefault(full, c) == c, full
    return {k: v for k, v in result.items() if not v.is_zero()}


@pytest.mark.parametrize("N", [2, 3, 4])
def test_bridge_slot_matches_closed_form(N):
    """The omega_{0,2} bridge to an external xi_{a,k} is the slot
    (a, 2 - k) with weight k - 1: B(a + t, v') expands as sum_k (k-1)
    t^(k-2) xi_{a,k}(v'), so on the z side the weighted slot is the
    monomial (k-1) t^(k-2), and on the sigma(z) side (k-1) s' s^(k-2)."""
    rec = Recursion(N, 1, 2)
    ring, M = rec.curve.ring, rec.M
    for a_idx in range(N):
        s = rec.deck(a_idx)
        for k in range(2, M + 1):
            z = rec._factor_series(a_idx, ("z", a_idx, 2 - k)).scale(k - 1)
            assert z == UniSeries("t", ring, {k - 2: ring.one * (k - 1)}, M)
            sigma = rec._factor_series(a_idx, ("s", a_idx, 2 - k))
            want = (s.deriv() * s.pow(k - 2)).scale(k - 1)
            assert sigma.scale(k - 1) == want.truncated(sigma.trunc)
            assert want.trunc is None or want.trunc >= sigma.trunc


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

    def doubled_at_1(a_idx, left, right):
        vec = res_vector(a_idx, left, right)
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


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("g, n", [(0, 4), (1, 1), (1, 2), (2, 1)])
def test_expansion_order_is_exact(N, g, n):
    """M = 6g - 4 + 2n, the pole order of omega_{g,n}, is the least
    expansion order that reaches every residue of its recursion, at
    every N: the tensor at M is the one a deeper expansion gives."""
    exact = Recursion(N, g, n)
    assert exact.M == 6 * g - 4 + 2 * n
    assert exact.omega(g, n) == Recursion(N, g, n + 1).omega(g, n)
    short = Recursion(N, g, n)
    short.M -= 1
    with pytest.raises(ArithmeticError,
                       match="insufficient local expansion order"):
        short._compute(g, n)


@pytest.mark.parametrize("N, g, n", [(2, 1, 1), (2, 1, 2), (2, 2, 1),
                                     (3, 1, 1), (5, 1, 1), (5, 0, 4)])
def test_short_kernel_raises(monkeypatch, N, g, n):
    """At the exact order M every kernel coefficient a residue reads is
    needed: with each U_j of point 0 one order short, omega_{g,n} raises
    rather than return another tensor."""
    kernel = Recursion._kernel

    def short(self, a_idx):
        table = kernel(self, a_idx)
        if a_idx:
            return table
        return tuple(u.truncated(u.trunc - 1) for u in table)

    monkeypatch.setattr(Recursion, "_kernel", short)
    with pytest.raises(ArithmeticError,
                       match="insufficient local expansion order"):
        Recursion(N, g, n).omega(g, n)


@pytest.mark.parametrize("N, W, vectors", [(2, 10, 738), (3, 9, 1229)])
def test_one_residue_vector_per_role_pair(N, W, vectors):
    """Building criterion 1's grid stores one residue vector per (point,
    z role, sigma(z) role), each over j = 1..M-1, whatever the
    correlators that read it."""
    rec = Recursion(N, 2, 3)
    for g, degrees in stable_profiles(N, 2, 3, W):
        rec.rhm_from_tr(g, degrees)
    assert len(rec._resvec) == vectors
    for key, vec in rec._resvec.items():
        a_idx, left, right = key
        assert a_idx == 0 and left[0] in ("z", "B2")
        assert right is None or right[0] == "s"
        assert len(vec) == rec.M - 1


@pytest.fixture(scope="module")
def n3_build_calls():
    """Calls of numfield._lowest and numfield._convolve while a fresh
    Recursion(3, 2, 3) builds every omega with g <= 2, n <= 3."""
    calls = dict.fromkeys(("_lowest", "_convolve"), 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(numfield, name,
                       counting(calls, name, getattr(numfield, name)))
        rec = Recursion(3, 2, 3)
        for g in range(3):
            for n in range(1, 4):
                if O.Profile.stable_shape(g, n):
                    rec.omega(g, n)
    return calls


def test_one_normalization_per_sum(n3_build_calls):
    """Building every omega with g <= 2, n <= 3 at N = 3 divides by a gcd
    (numfield._lowest) at most a fifth of the 689,269 times that one
    normalization per field product and per partial sum took: every
    multiply-accumulate of the build is one ring.dot, normalized once."""
    assert n3_build_calls["_lowest"] <= 689_269 // 5


def test_products_form_only_the_terms_read(n3_build_calls):
    """The same build convolves field coordinates (numfield._convolve)
    at most 345,000 times; forming each residue integrand whole and
    truncating products after forming them took 362,433: a product forms
    only the terms its caller reads."""
    assert n3_build_calls["_convolve"] <= 345_000


def test_integer_scalars_stay_integers(n3_build_calls):
    """The same build convolves at most 300,000 times: an int or Fraction
    scalar (a term's split count, a bridge coefficient k - 1) scales the
    integer coordinates of a field element rather than being built into
    the field and convolved, which took 325,941."""
    assert n3_build_calls["_convolve"] <= 300_000


def eta_series_table(curve, max_exp, max_order):
    """Reference for eta_coeff: the basis forms re-expanded at v = 0 by
    series reversion, eta_{a,k}(X) = (v(X)-a)^(-k) v'(X)."""
    ring, N = curve.ring, curve.N
    trunc = max_exp + 2
    # X = v / (1 + v^N/(N-1)), so v = X * phi(v), phi = 1 + v^N/(N-1)
    phi = UniSeries("X", ring, {0: ring.one,
                                N: field_element(ring, Q(1, N - 1))}, None)
    v = lagrange_invert(phi, trunc, out_var="X")
    vp = v.deriv()
    table = {}
    for a_idx, a in enumerate(curve.ram):
        shifted = v - UniSeries("X", ring, {0: a}, v.trunc)
        inv = shifted.inv(prec=trunc)
        cur = UniSeries("X", ring, {0: ring.one}, trunc)
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
            got = field_pow(a, -k - e) * (Q((-1) ** k) * eta_coeff(N, k, e))
            assert got == want, (a_idx, k, e)


def test_tensor_cache_ignores_working_order(tmp_path):
    a = Recursion(2, 1, 2, cache_dir=str(tmp_path))
    t1 = a.omega(1, 2)
    b = Recursion(2, 2, 3, cache_dir=str(tmp_path))
    assert b.M != a.M
    b._compute = lambda g, n: pytest.fail("recomputed a cached tensor")
    assert b.omega(1, 2) == t1


def test_tensor_cache_round_trip(tmp_path):
    a = Recursion(2, 1, 2, cache_dir=str(tmp_path))
    t1 = a.omega(1, 2)
    assert list(tmp_path.iterdir()), "cache file written"
    b = Recursion(2, 1, 2, cache_dir=str(tmp_path))
    t2 = b.omega(1, 2)
    assert set(t1) == set(t2)
    for k in t1:
        assert field_coords(t1[k]) == field_coords(t2[k])


def test_tensor_cache_store_removes_stale_names(tmp_path):
    """Storing omega_{g,n} removes every other file of that (N, g, n):
    the older version and the names that carried the working order M.
    Other (N, g, n), temp files and unrelated names stay."""
    stale = ["tensor_N2_g1_n2_v1.json", "tensor_N2_g1_n2_M6_v1.json",
             "tensor_N2_g1_n2_M10_v1.json"]
    kept = ["tensor_N2_g2_n2_M10_v1.json", "tensor_N3_g1_n2_M6_v1.json",
            "tensor_N2_g1_n20_v1.json", "tensor_N2_g1_n2_v2.json.77.tmp",
            "tensor_N2_g1_n2_v1.txt", "notes.json"]
    for name in stale + kept:
        (tmp_path / name).write_text("{}")
    Recursion(2, 1, 2, cache_dir=str(tmp_path)).omega(1, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        kept + ["tensor_N2_g1_n2_v2.json"])


@pytest.mark.parametrize("g, n", [(0, 4), (1, 2)])
def test_tensor_cache_round_trip_N3(tmp_path, rec3, rec4, rec5, rec6, g, n):
    """From N = 3 on, the completion on load rotates by factors that are
    powers of zeta other than +-1.  The file holds exactly the keys with
    a slot at index 0, and loading it gives the whole tensor."""
    for rec in (rec3, rec4, rec5, rec6):
        N, tensor = rec.N, rec.omega(g, n)
        a = Recursion(N, g, n, cache_dir=str(tmp_path))
        a._store_cached(g, n, tensor)
        with open(a._cache_path(g, n)) as fh:
            assert set(json.load(fh)) == {
                R.key_text(K) for K in tensor if any(i == 0 for i, _ in K)}
        b = Recursion(N, g, n, cache_dir=str(tmp_path))
        b._compute = lambda g, n: pytest.fail("recomputed a cached tensor")
        assert b._load_cached(g, n) == tensor, N
        assert b.omega(g, n) == tensor, N


def test_omega_03_has_no_cache_path(tmp_path):
    """omega_{0,3} has no cache file: storing it writes nothing and
    loading it reads nothing."""
    rec = Recursion(3, 0, 3, cache_dir=str(tmp_path))
    assert rec._cache_path(0, 3) is None
    rec._store_cached(0, 3, rec.omega(0, 3))
    assert list(tmp_path.iterdir()) == []
    assert rec._load_cached(0, 3) is None


@pytest.mark.parametrize("exc", [OSError, RuntimeError])
def test_tensor_cache_write_is_atomic(tmp_path, monkeypatch, exc):
    def failing_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj)[:20])
        raise exc("write interrupted")

    with monkeypatch.context() as m:
        m.setattr(json, "dump", failing_dump)
        a = Recursion(2, 1, 2, cache_dir=str(tmp_path))
        if exc is OSError:  # an unwritable cache is skipped
            t1 = a.omega(1, 2)
        else:
            with pytest.raises(exc):
                a.omega(1, 2)
            t1 = Recursion(2, 1, 2).omega(1, 2)
    assert list(tmp_path.iterdir()) == []
    b = Recursion(2, 1, 2, cache_dir=str(tmp_path))
    computed = []
    compute = b._compute
    b._compute = lambda g, n: computed.append((g, n)) or compute(g, n)
    t2 = b.omega(1, 2)
    assert ({k: field_coords(c) for k, c in t2.items()}
            == {k: field_coords(c) for k, c in t1.items()})
    # omega_{1,2} and the uncached tensors below it
    assert sorted(computed) == [(0, 3), (1, 1), (1, 2)]
    assert [str(p) for p in tmp_path.iterdir()] == [b._cache_path(1, 2)]


# sha256 of each whole tensor with its coefficients as rational strings
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
    (2, 1, 3):
        "6b89997c3d3c19b73848faa20e9680ae8c5405cc58e7369c81c8ea98469c9d90",
    (2, 2, 3):
        "57c66e8a29a5a548fef507823f6456d3c9dde1547563a99c2447c51afedbe4a4",
    (3, 2, 2):
        "649221d60aaed9c21cd4dc7da9b9d5e7404b12896cca5379b015ad11d08f9dc6",
    (3, 2, 3):
        "807f98947d0f5c2423b5f92409fd9722f6529606072e4dd2d7e85f4f2e1e6ee2",
    (4, 0, 3):
        "04af808dfaaae67cd0ecb39c30f6b8a1cfaaccfdc8b336df1e61312f25838edc",
    (4, 1, 1):
        "3044ffe42af22f462830e15719814a7efaccb138ed1f92777d5522a22249f0e6",
    (4, 0, 4):
        "843bc8ba3c70a61b0be24c0fc13a39de9057a0ef65e87dd1633eb7568ab4e74d",
    (4, 1, 2):
        "50301a2f868b26b060853f5a9b0a504a38fd3310498fa529932ea76f547fe783",
    (5, 0, 3):
        "e9293c4d93b54950088f4ba46ff9e80e84dec8d880af7bb3a4b97e39ce12a555",
    (5, 1, 1):
        "253caad6118a5b21a1b5635d7054114d41ccbb0f747c9bbcac1aac47741b3d04",
    (5, 1, 2):
        "ddd0ecafb124c90abb9672ab206bfc9a4204cc84e986a60b38e2bd679f505340",
    (5, 0, 4):
        "5ccfb8aeef0f186d5c43f005d17cbfa2cd4d815f503c08d1252b6207f7b11bdf",
    (6, 0, 3):
        "6bf4d859ce30927a84900e17174650d9fbf175cd58499b1284800fc69c023464",
    (6, 1, 1):
        "5f0182398d7950db16020b75569ce8252bd624553fe981ffab8111ac4cd7f672",
    (6, 1, 2):
        "489634855814edfff8686b3a804287ff2d0088e3a80d2ec8d468546e4ef646db",
    (6, 0, 4):
        "9013a723dd6c6b4d089abb93b2ff1f086d80aff98b21fb05be15136ee5456e3e",
}


def test_omega_tensors_pinned(rec2, rec3, rec4, rec5, rec6):
    recs = {2: rec2, 3: rec3, 4: rec4, 5: rec5, 6: rec6}
    for (N, g, n), digest in PINNED.items():
        tensor = recs[N].omega(g, n)
        payload = {";".join(f"{a},{k}" for a, k in key):
                   [rat_str(c) for c in field_coords(val)]
                   for key, val in tensor.items()}
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, \
            (N, g, n)


def charge_basis(rec, tensor):
    """The tensor in the Z_N charge basis: for each sorted tuple ks of
    pole orders that a key holds and each m in Z_N^n, the discrete
    Fourier transform over every slot's ramification index,

        c^[(m_j, k_j)] = sum_i c[sort((i_j, k_j))] zeta^(-sum (i_j+1) m_j),

    taken one slot at a time.  Returns {(ks, m): c^}."""
    N, field, ram = rec.N, rec.curve.ring, rec.curve.ram
    out = {}
    for ks in {tuple(sorted(k for _, k in K)) for K in tensor}:
        grid = {idx: tensor.get(tuple(sorted(zip(idx, ks))), field.zero)
                for idx in product(range(N), repeat=len(ks))}
        for j in range(len(ks)):
            # idx[j] is m_j here, and ram[e - 1] = zeta^e
            grid = {idx: field.dot([(grid[idx[:j] + (i,) + idx[j + 1:]],
                                     ram[(-(i + 1) * idx[j] - 1) % N])
                                    for i in range(N)])
                    for idx in grid}
        out.update(((ks, m), c) for m, c in grid.items())
    return out


def test_pinned_tensors_are_rational_in_the_charge_basis(rec2, rec3, rec4,
                                                          rec5, rec6):
    """Every PINNED tensor has only rational coefficients in the Z_N
    charge basis, and a nonzero one only where sum m = sum (k - 1) mod
    N: the fact that holding the correlators over Q would rest on."""
    recs = {2: rec2, 3: rec3, 4: rec4, 5: rec5, 6: rec6}
    nonzero = 0
    for N, g, n in PINNED:
        rec = recs[N]
        for (ks, m), c in charge_basis(rec, rec.omega(g, n)).items():
            assert c.is_rational(), (N, g, n, ks, m)
            if not c.is_zero():
                assert (sum(m) - sum(k - 1 for k in ks)) % N == 0, \
                    (N, g, n, ks, m)
                nonzero += 1
    assert nonzero == 2834


def test_omega_galois_equivariance(rec3, rec4, rec5, rec6):
    """The Galois group of Q(zeta_N) acts on every correlator: for each
    unit r mod N, c[r.K] = sigma_r(c[K]), where r.K sends every pole
    exponent b = a + 1 of the key K to r b mod N and sigma_r sends zeta
    to zeta^r."""
    compared = 0
    for rec in (rec3, rec4, rec5, rec6):
        N = rec.N
        for g, n in ((0, 3), (1, 1), (1, 2), (0, 4)):
            tensor = rec.omega(g, n)
            for r in range(2, N):
                if gcd(r, N) != 1:
                    continue
                for key, value in tensor.items():
                    image = tuple(sorted(((r * (a + 1) - 1) % N, k)
                                         for a, k in key))
                    assert tensor[image] == value._conjugate(r), \
                        (N, g, n, r, key)
                    compared += 1
    assert compared == 453


def test_rhm01_from_curve_examples():
    assert rhm01_from_curve(2, 1) == 1
    assert rhm01_from_curve(3, 2) == 1
    for k in (0, 2, 4, 6):
        assert rhm01_from_curve(2, k) == 0
    for N in (2, 3, 4):
        for k in range(9):
            assert rhm01_from_curve(N, k) == O.rhm01_closed(N, k)


def test_rhm01_from_curve_short_series_raises(monkeypatch):
    """A Lagrange inversion that falls short makes a read that needs an
    unknown coefficient raise instead of returning 0.  z = X + ... known
    only to vanish below X^1 has valuation 1, so z^3 is known to vanish
    below X^3: the reads of X^1 and X^2 (k = 0, 1) are the true 0, and
    the read of X^5 (k = 4) raises."""
    def short(phi, trunc, out_var="w"):
        return lagrange_invert(phi, trunc, out_var).truncated(1)

    monkeypatch.setattr(R, "lagrange_invert", short)
    assert [rhm01_from_curve(3, k) for k in (0, 1)] == [0, 0]
    with pytest.raises(ValueError, match="not represented"):
        rhm01_from_curve(3, 4)


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


def dilaton_defects(rec, g, n, sign=1):
    """Keys J on which the dilaton equation on the pole-basis tensors,

        sum_(i,k) D[(i,k)] omega_{g,n+1}[sort(J + ((i,k),))]
            = (2g - 2 + n) omega_{g,n}[J],

    fails.  D[(i,k)] = [t^(k-2)] phi(a_i + t)/(k - 1) is the residue at
    a_i of a primitive of phi dv against xi_{a_i,k}, with phi(v) =
    v^(N-1) - 1/v = -yt xt'(v) on the rescaled curve.  J runs over the
    keys of omega_{g,n} and every key of omega_{g,n+1} with one slot
    removed.  Returns (defects, keys read); `sign` flips phi."""
    N, ring = rec.N, rec.curve.ring
    lower, upper = rec.omega(g, n), rec.omega(g, n + 1)
    k_max = max(k for K in upper for _, k in K)
    D = {}
    for i, a in enumerate(rec.curve.ram):
        v = UniSeries("t", ring, {0: a, 1: ring.one})
        phi = v.pow(N - 1) - v.inv(prec=k_max - 1)
        for k in range(2, k_max + 1):
            D[i, k] = phi.coeff(k - 2) * Q(sign, k - 1)
    keys = set(lower) | {K[:j] + K[j + 1:]
                         for K in upper for j in range(len(K))}
    defects = []
    for J in sorted(keys):
        lhs = ring.zero
        for slot, d in D.items():
            c = upper.get(tuple(sorted(J + (slot,))))
            if c is not None:
                lhs = lhs + d * c
        if lhs != lower.get(J, ring.zero) * (2 * g - 2 + n):
            defects.append(J)
    return defects, len(keys)


DILATON_CASES = [(2, 0, 3), (2, 1, 1), (2, 1, 2), (3, 0, 3), (3, 1, 1),
                 (4, 0, 3), (4, 1, 1)]


@pytest.mark.parametrize("N, g, n", DILATON_CASES)
def test_dilaton_equation(rec2, rec3, rec4, N, g, n):
    rec = {2: rec2, 3: rec3, 4: rec4}[N]
    assert dilaton_defects(rec, g, n)[0] == []
    # phi with the opposite sign fails somewhere
    assert dilaton_defects(rec, g, n, sign=-1)[0]


@pytest.mark.parametrize("N, bad, keys", [(2, 6, 10), (3, 9, 15)])
def test_dilaton_sees_a_rescaled_cached_tensor(tmp_path, rec2, rec3, N,
                                               bad, keys):
    """A uniformly rescaled tensor passes every load check of the tensor
    cache, so omega_{1,1} is never cached: a doubled one is not stored
    and not served.  Held in memory beside a cached omega_{1,2}, the
    dilaton equation against omega_{1,2} fails on every key where the
    doubled omega_{1,1} is nonzero."""
    rec = {2: rec2, 3: rec3}[N]
    doubled = {K: c * 2 for K, c in rec.omega(1, 1).items()}
    writer = Recursion(N, 1, 2, cache_dir=str(tmp_path))
    writer._store_cached(1, 2, rec.omega(1, 2))
    writer._store_cached(1, 1, doubled)
    served = Recursion(N, 1, 2, cache_dir=str(tmp_path))
    assert served.omega(1, 1) == rec.omega(1, 1)
    served._memo[(1, 1)] = doubled
    served._compute = lambda g, n: pytest.fail("recomputed a cached tensor")
    defects, read = dilaton_defects(served, 1, 1)
    assert (len(defects), read) == (bad, keys)
