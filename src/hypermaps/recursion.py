"""Topological recursion on the curve x = z^(N-1) + 1/z, y = -z, and
extraction of hypermap counts from the correlator expansions.

The recursion itself runs in a rescaled coordinate.  Substituting
z = r v with r = (N-1)^(-1/N) turns the curve into

    xt(v) = v^(N-1)/(N-1) + 1/v,    yt = -v,

with x = xt / r, y = r yt, and the recursion input omega_{0,1} = y dx =
yt dxt and B unchanged.  The correlators are therefore literally the
same differentials, but the ramification points become the N-th roots
of unity, so all arithmetic happens in the cyclotomic field Q(zeta_N)
instead of a radical tower.  The rescaling resurfaces only in the
expansion variable: dx/x^(d+1) = r^d dxt/xt^(d+1), so the extracted
coefficient has to be multiplied by (N-1)^(D/N) with D the (necessarily
divisible by N) total degree.

omega_{g,n} has poles of order at most 6g - 4 + 2n at the ramification
points (Eynard-Orantin), so a Recursion serving g <= g_max and
n <= n_max builds every local series (deck, kernel, slot) modulo t^M,
M = 6 g_max - 4 + 2 n_max, and no further.  A residue integrand not
known up to its t^0 term raises ArithmeticError("insufficient local
expansion order") rather than read a truncated series; at M - 1 it
fires.

The recursion kernel needs the local deck involution sigma at each
ramification point a, with xt(sigma(v)) = xt(v): it is the root w of the
polynomial P(v, w) = (xt(v) - xt(w))(N-1)vw/(v - w) near v = w = a.

Correlators are stored as coefficient tensors in the global pole basis
xi_{a,k}(v) = dv/(v-a)^k at the ramification points: the tensor maps a
sorted n-tuple of (ramification index, pole order) pairs to the field
coefficient of each distinct ordered monomial.  As xt(zeta v) =
zeta^(-1) xt(v), v -> zeta v moves every index a to a+1 and multiplies a
key's coefficient by zeta^(sum of (k-1)).  So each correlator takes
residues at one ramification point, which gives the keys with a slot
there, and the other keys follow by this rotation.

Every term of the recursion at a is a pair of slot roles, one at z and
one at sigma(z), with the externals that remain and a scalar.  A role
comes from a leg (slot role, remaining externals, coefficient): the
omega_{0,2} bridge to an external xi_{a,k} gives role ("zB"|"sB", k),
externals ((a, k),) and coefficient 1; a stable omega_{g,n} gives role
("z"|"s", b, k) once per distinct slot (b, k) of each tensor key, with
the rest of the key as externals and the key's coefficient.  A product
term omega_{g1,1+j1}(z, I1) omega_{g2,1+j2}(sigma z, I2) is one leg per
factor; omega_{g-1,n+1}(z, sigma z, J) is a z leg and then each distinct
slot it leaves at sigma(z), and omega_{0,2}(z, sigma z) the role ("B2",).
The scalars are summed per (externals, z role, sigma(z) role), and each
sum scales the memoized residue of its role pair once.

Counts are the correlators' coefficients at the pole of x, in X = 1/xt =
v/(1 + v^N/(N-1)).  By Lagrange-Buermann and a^N = 1, a basis form at the
ramification point a = zeta^(i+1) of index i has

    [X^e] (v(X) - a)^(-k) v'(X) = [v^e] (v - a)^(-k) (1 + v^N/(N-1))^(e+1)
                                = (-1)^k a^(-k-e) r_N(k, e),
    r_N(k, e) = sum_{j=0..e//N} C(e+1, j) (N-1)^(-j) C(k+e-Nj-1, e-Nj),

a rational times a power of zeta.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from itertools import permutations
from math import comb

from .numfield import NumberField
from .oracle import Profile
from .rational import Q, QONE, QZERO, as_count, parse_rat, rat_str
from .series import QRING, UniSeries, lagrange_invert

TENSOR_CACHE_VERSION = 1


class Curve:
    """Rescaled spectral-curve data over the cyclotomic field."""

    def __init__(self, N: int):
        if N < 2:
            raise ValueError(f"need N >= 2, got {N}")
        self.N = N
        self.ring = NumberField.cyclotomic_field(N)
        # a_i = zeta^i, i = 1..N (so a_N = 1)
        self.zeta = zeta = self.ring.gen
        self.ram = [zeta.pow(i) for i in range(1, N + 1)]
        for a in self.ram:
            if not self.xprime(a).is_zero() or self.xsecond(a).is_zero():
                raise ArithmeticError("not a simple ramification point")

    def x_at(self, v):
        """xt(v) = v^(N-1)/(N-1) + 1/v for a field element v."""
        return v.pow(self.N - 1) * Q(1, self.N - 1) + v.inv()

    def xprime(self, v):
        return v.pow(self.N - 2) - v.pow(-2)

    def xsecond(self, v):
        return v.pow(self.N - 3) * Q(self.N - 2) + v.pow(-3) * Q(2)

    def x_series(self, a_idx: int, trunc: int) -> UniSeries:
        """xt(a + t) as a series in the local parameter t."""
        a = self.ram[a_idx]
        ring = self.ring
        base = UniSeries("t", ring, {0: a, 1: ring.one}, None)
        pos = base.pow(self.N - 1).scale(Q(1, self.N - 1))
        neg = base.inv(prec=trunc)
        return (pos + neg).truncated(trunc)


def deck_series(curve: Curve, a_idx: int, order: int) -> UniSeries:
    """The local deck transformation sigma as s(t) = sigma(a+t) - a: the
    root of P(a+t, a+s) = 0 with s(0) = 0.  Since a^N = 1, dP/dw(a, a) =
    N(N-1)/(2a) != 0, so each step s <- s - P(a+t, a+s) 2a/(N(N-1)) fixes
    one more coefficient.

    Returns s with s(0) = 0, s'(0) = -1, known modulo t^order.
    """
    N, ring = curve.N, curve.ring
    a = curve.ram[a_idx]
    v = UniSeries("t", ring, {0: a, 1: ring.one}, None)
    v_pows = [v.pow(i) for i in range(N)]
    step = a * Q(2, N * (N - 1))
    w = UniSeries("t", ring, {0: a, 1: -ring.one}, order)  # a + s, s = -t
    for _ in range(order):
        # Horner in w: P = w (v^(N-1) + w (v^(N-2) + ... + w v)) - (N-1)
        acc = v
        for i in range(2, N):
            acc = v_pows[i] + w * acc
        p = w * acc - UniSeries.monomial("t", ring, N - 1, 0)
        if p.is_zero():
            break
        w = w - p.scale(step)
    else:
        raise ArithmeticError("deck series failed to converge")
    s = w - UniSeries.monomial("t", ring, a, 0)
    # defining contracts, to working order
    x_loc = curve.x_series(a_idx, order)
    if not (x_loc.compose(s) - x_loc).is_zero():
        raise ArithmeticError("deck series does not preserve x")
    t = UniSeries.monomial("t", ring, 1, 1, order)
    if not (s.compose(s) - t).is_zero():
        raise ArithmeticError("deck series is not an involution")
    return s


class Recursion:
    """Memoized correlator recursion for a fixed N."""

    def __init__(self, N: int, g_max: int = 2, n_max: int = 3,
                 cache_dir=None):
        self.curve = Curve(N)
        self.N = N
        # the expansion order of every local series: the largest pole
        # order 6g - 4 + 2n of a correlator with g <= g_max, n <= n_max
        self.M = 6 * g_max - 4 + 2 * n_max
        self.cache_dir = cache_dir
        self._memo = {}
        self._decks = {}
        self._xprime_inv = {}
        self._U = {}        # (a_idx, j) -> UniSeries
        self._slots = {}    # (a_idx, slot role) -> UniSeries
        self._resvec = {}   # (a_idx, left key, right key, j_max) -> tuple

    # -- local series ----------------------------------------------------

    def deck(self, a_idx: int) -> UniSeries:
        if a_idx not in self._decks:
            self._decks[a_idx] = deck_series(self.curve, a_idx, self.M)
        return self._decks[a_idx]

    def _kernel_U(self, a_idx: int, j: int) -> UniSeries:
        key = (a_idx, j)
        if key in self._U:
            return self._U[key]
        ring = self.curve.ring
        s = self.deck(a_idx)
        t = UniSeries.monomial("t", ring, 1, 1, self.M)
        if a_idx not in self._xprime_inv:
            xp = self.curve.x_series(a_idx, self.M + 1).deriv()
            self._xprime_inv[a_idx] = ((s - t) * xp).scale(Q(2)).inv()
        num = t.pow(j) - s.pow(j)
        u = num * self._xprime_inv[a_idx]
        self._U[key] = u
        return u

    def _factor_series(self, a_idx: int, role) -> UniSeries:
        """Local series for one slot of the residue integrand, memoized on
        (a_idx, role).

        role is ("z", b_idx, k) / ("s", b_idx, k) for a stable-correlator
        basis form xi_{b,k} on the z or sigma(z) side,

            z: xi_{b,k}(a+t) / dt = (t + (a-b))^(-k)
            s: xi_{b,k}(sigma(a+t)) / dt = s'(t) (s(t) + (a-b))^(-k),

        ("zB", k) / ("sB", k) for the omega_{0,2} bridge whose other leg
        is an external variable (with the k-1 prefactor folded in), or
        ("B2",) for omega_{0,2}(z, sigma z) itself.
        """
        key = (a_idx, role)
        out = self._slots.get(key)
        if out is not None:
            return out
        ring = self.curve.ring
        kind = role[0]
        if kind == "z":
            b_idx, k = role[1:]
            if a_idx == b_idx:
                out = UniSeries.monomial("t", ring, 1, -k, self.M)
            else:
                diff = self.curve.ram[a_idx] - self.curve.ram[b_idx]
                base = UniSeries("t", ring, {0: diff, 1: ring.one}, None)
                out = base.inv(prec=self.M).pow(k, prec=self.M)
        elif kind == "s":
            b_idx, k = role[1:]
            s = self.deck(a_idx)
            if a_idx == b_idx:
                out = s.deriv() * s.pow(k).inv()
            else:
                diff = self.curve.ram[a_idx] - self.curve.ram[b_idx]
                shifted = s + UniSeries.monomial("t", ring, diff, 0, s.trunc)
                out = s.deriv() * shifted.inv().pow(k, prec=s.trunc)
        elif kind == "zB":
            k = role[1]
            out = UniSeries.monomial("t", ring, Q(k - 1), k - 2, self.M)
        elif kind == "sB":
            k = role[1]
            s = self.deck(a_idx)
            out = (s.deriv() * s.pow(k - 2)).scale(Q(k - 1)) \
                if k > 2 else s.deriv().scale(Q(k - 1))
        elif kind == "B2":
            s = self.deck(a_idx)
            t = UniSeries.monomial("t", ring, 1, 1, self.M)
            out = s.deriv() * (t - s).pow(2).inv()
        else:
            raise ValueError(f"unknown role {role!r}")
        self._slots[key] = out
        return out

    def _res_vector(self, a_idx: int, left, right, j_max: int):
        """tuple over j = 1..j_max of Res_t U_j(t) w(t) dt for the
        integrand w built from the two slot roles (right may be None)."""
        key = (a_idx, left, right, j_max)
        if key in self._resvec:
            return self._resvec[key]
        w = self._factor_series(a_idx, left)
        if right is not None:
            w = w * self._factor_series(a_idx, right)
        if w.trunc is not None and w.trunc < 1:
            raise ArithmeticError("insufficient local expansion order")
        w = w.truncated(1)
        zero = self.curve.ring.zero
        out = []
        for j in range(1, j_max + 1):
            u = self._kernel_U(a_idx, j)
            total = zero
            for m, uc in u.c.items():
                wc = w.c.get(-1 - m)
                if wc is not None:
                    total = total + uc * wc
            out.append(total)
        out = tuple(out)
        self._resvec[key] = out
        return out

    # -- the recursion ----------------------------------------------------

    def omega(self, g: int, n: int) -> dict:
        """Coefficient tensor of omega_{g,n} on sorted pole-basis keys."""
        if 2 * g - 2 + n <= 0:
            raise ValueError("unstable moment handled by dedicated "
                             "operations")
        if 6 * g - 4 + 2 * n > self.M:
            raise ValueError("requested correlator exceeds the configured "
                             "expansion order")
        key = (g, n)
        if key in self._memo:
            return self._memo[key]
        # omega_{0,3} is never cached: it takes milliseconds, and a
        # uniformly rescaled copy would pass every load check
        cached = None if key == (0, 3) else self._load_cached(g, n)
        if cached is not None:
            self._memo[key] = cached
            return cached
        tensor = self._compute(g, n)
        self._memo[key] = tensor
        if key != (0, 3):
            self._store_cached(g, n, tensor)
        return tensor

    @staticmethod
    def _merge_count(r1, r2):
        """Merged sorted externals and the number of labeled splits that
        realize a fixed ordered external monomial."""
        merged = tuple(sorted(r1 + r2))
        count = 1
        for v in set(r1):
            count *= comb(merged.count(v), r1.count(v))
        return merged, count

    def _legs(self, a_idx, t, side, bound):
        """Legs (slot role, remaining externals, coefficient) of
        omega_t at the z (side "z") or sigma(z) (side "s") slot of a term
        at a_idx: a factor of a product term, or the z slot of the
        omega_{g-1,n+1}(z, sigma z) term; see the module docstring."""
        if t == (0, 2):
            return [((side + "B", k), ((a_idx, k),), 1)
                    for k in range(2, bound + 1)]
        legs = []
        for K, c in self.omega(*t).items():
            for p in sorted(set(K)):
                rest = list(K)
                rest.remove(p)
                legs.append(((side,) + p, tuple(rest), c))
        return legs

    def _rotate(self, K, r):
        """Key K under v -> zeta^r v, which moves every ramification
        index by r, and the factor zeta^(r sum(k-1)) its coefficient
        gains."""
        rot = tuple(sorted(((a + r) % self.N, k) for a, k in K))
        p = r * sum(k - 1 for _, k in K)
        return rot, self.curve.ram[(p - 1) % self.N]  # zeta^p

    def _compute(self, g: int, n: int, a_idx: int = 0) -> dict:
        """omega_{g,n} from residues at ramification point a_idx alone."""
        ring = self.curve.ring
        n_ext = n - 1
        bound = 6 * g - 4 + 2 * n
        j_max = bound - 1
        zero = ring.zero

        # every term as (externals, z role, sigma(z) role): its scalar
        terms = {}

        def term(r, z_role, s_role, c):
            key = (r, z_role, s_role)
            terms[key] = terms[key] + c if key in terms else c

        # omega_{g-1,n+1}(z, sigma z, externals): each ordered pair of slot
        # values, the z leg's slot then a slot of what it leaves
        if g >= 1:
            if (g - 1, n + 1) == (0, 2):
                term((), ("B2",), None, 1)
            else:
                for z_role, rest, c in self._legs(a_idx, (g - 1, n + 1),
                                                  "z", bound):
                    for q in sorted(set(rest)):
                        r = list(rest)
                        r.remove(q)
                        term(tuple(r), z_role, ("s",) + q, c)

        # product terms omega_{g1,1+j1}(z, ...) omega_{g2,1+j2}(sigma z,
        # ...) over ordered splittings, one factor per leg
        for g1 in range(g + 1):
            for j1 in range(n_ext + 1):
                t1, t2 = (g1, 1 + j1), (g - g1, n - j1)
                if t1 == (0, 1) or t2 == (0, 1):
                    continue
                s_legs = self._legs(a_idx, t2, "s", bound)
                for z_role, r1, c1 in self._legs(a_idx, t1, "z", bound):
                    for s_role, r2, c2 in s_legs:
                        r, cnt = self._merge_count(r1, r2)
                        term(r, z_role, s_role, cnt * c1 * c2)

        # contract each summed scalar with its residue vector, every one
        # formed even where the scalar cancels, so that each integrand
        # passes the expansion-order check
        acc = {}  # external multiset -> vector over j of coefficients
        for (r, z_role, s_role), c in terms.items():
            vec = self._res_vector(a_idx, z_role, s_role, j_max)
            cur = acc.setdefault(r, [zero] * j_max)
            for i in range(j_max):
                cur[i] = cur[i] + vec[i] * c

        # fold the z0 pole basis in: slot (a_idx, j+1) with vec[j-1]
        direct = {}
        for r, vec in acc.items():
            for j in range(1, j_max + 1):
                c = vec[j - 1]
                if c.is_zero():
                    continue
                full = tuple(sorted(((a_idx, j + 1),) + r))
                prev = direct.get(full)
                if prev is None:
                    direct[full] = c
                elif prev != c:
                    # symmetry of omega: every distinguished slot agrees
                    raise ArithmeticError("correlator symmetry violated")
        # the keys without a slot at a_idx follow by rotation; a rotated
        # key with one was computed directly and must agree
        result = dict(direct)
        for K, c in direct.items():
            for step in range(1, self.N):
                rot, factor = self._rotate(K, step)
                if all(b != a_idx for b, _ in rot):
                    result[rot] = c * factor
                elif direct.get(rot, zero) != c * factor:
                    raise ArithmeticError("Z_N covariance violated")
        return result

    # -- tensor cache ------------------------------------------------------

    def _cache_path(self, g, n):
        if not self.cache_dir:
            return None
        # the tensors are exact: the working order M is not in the key
        name = f"tensor_N{self.N}_g{g}_n{n}_v{TENSOR_CACHE_VERSION}.json"
        return os.path.join(self.cache_dir, name)

    def _store_cached(self, g, n, tensor):
        path = self._cache_path(g, n)
        if path is None:
            return
        payload = {
            ";".join(f"{a},{k}" for a, k in key): [rat_str(c) for c in val.v]
            for key, val in sorted(tensor.items())
        }
        # write a temp file and rename it, so that no reader ever sees a
        # partial tensor at the final path
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
            # files named with the working order M, which left the key;
            # nothing reads them
            stale = f"tensor_N{self.N}_g{g}_n{n}_M"
            for name in os.listdir(self.cache_dir):
                if name.startswith(stale) and name.endswith(
                        f"_v{TENSOR_CACHE_VERSION}.json"):
                    os.remove(os.path.join(self.cache_dir, name))
        except OSError:
            pass
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def _load_cached(self, g, n):
        path = self._cache_path(g, n)
        if path is None or not os.path.exists(path):
            return None
        # anything but a dict of sorted n-tuples of slots (a, k), 0 <= a < N
        # and k >= 2, to lists of deg rationals is a miss
        ring = self.curve.ring
        out = {}
        try:
            with open(path) as fh:
                payload = json.load(fh)
            # every stable omega_{g,n} has at least one key
            if not isinstance(payload, dict) or not payload:
                return None
            for skey, vec in payload.items():
                key = tuple(tuple(int(x) for x in part.split(","))
                            for part in skey.split(";")) if skey else ()
                if (len(key) != n or list(key) != sorted(key)
                        or any(len(p) != 2 or not 0 <= p[0] < self.N
                               or p[1] < 2 for p in key)
                        or not isinstance(vec, list)):
                    return None
                out[key] = ring.coerce([parse_rat(x) for x in vec])
        except (OSError, ValueError, TypeError, ZeroDivisionError):
            return None
        # so is one that is not Z_N-covariant: a key whose rotation is
        # missing or has another coefficient than the rotation gives
        for K, c in out.items():
            rot, factor = self._rotate(K, 1)
            if rot not in out or out[rot] != c * factor:
                return None
        return out

    # -- extraction ---------------------------------------------------------

    def rhm_from_tr(self, g: int, degrees) -> int:
        """Hypermap count from the correlator expansion; degrees are the
        side counts d_i = k_i + 1 >= 1."""
        degrees = Profile(self.N, g, degrees).degrees
        n = len(degrees)
        if 2 * g - 2 + n <= 0:
            raise ValueError("unstable moment: count it with the oracle "
                             "engine")
        total = sum(degrees)
        if total % self.N != 0:
            return 0
        tensor = self.omega(g, n)
        exps = tuple(d - 1 for d in degrees)
        N, ram, zero = self.N, self.curve.ram, self.curve.ring.zero
        # an ordering of a key contributes (-1)^(sum of k) zeta^p times a
        # rational: bucket the rationals by p, and collect the
        # coefficient of each zeta^p over all keys
        by_power = [zero] * N
        for K, c in tensor.items():
            buckets = [QZERO] * N
            for order in set(permutations(K)):
                q, p = QONE, 0
                for (a_idx, k), e in zip(order, exps):
                    q = q * eta_coeff(N, k, e)
                    p -= (a_idx + 1) * (k + e)
                buckets[p % N] += q
            if sum(k for _, k in K) % 2:
                c = -c
            for p, q in enumerate(buckets):
                if q:
                    by_power[p] = by_power[p] + c * q
        acc = zero
        for p, c in enumerate(by_power):
            acc = acc + ram[p - 1] * c  # ram[p - 1] = zeta^p
        if not acc.is_rational():
            raise ArithmeticError("field descent failure")
        value = acc.rational_part() * Q(self.N - 1) ** (total // self.N)
        return as_count(value, "field descent failure")

    def zn_covariance_defects(self, g: int, n: int):
        """Keys on which omega_{g,n}, computed at ramification point 0,
        differs from an independent computation at point 1.  Both are
        completed by Z_N rotation, so they agree when the recursion is
        Z_N-covariant.  Returns the sorted list of differing keys."""
        ref, other = self.omega(g, n), self._compute(g, n, 1)
        zero = self.curve.ring.zero
        return sorted(K for K in ref.keys() | other.keys()
                      if ref.get(K, zero) != other.get(K, zero))


@lru_cache(maxsize=None)
def eta_coeff(N: int, k: int, e: int):
    """r_N(k, e) of the module docstring: [X^e] of the basis form
    dv/(v-a)^k at ramification point a is (-1)^k a^(-k-e) r_N(k, e)."""
    return sum((Q(comb(e + 1, j), (N - 1) ** j)
                * comb(k + e - N * j - 1, e - N * j)
                for j in range(e // N + 1)), QZERO)


# ---------------------------------------------------------------------------
# unstable shortcuts from the curve presentation (original coordinates)


def rhm01_from_curve(N: int, k: int) -> int:
    """[X^(k+1)] z(X)^N with X = z/(1+z^N): genus 0, one boundary."""
    Profile(N, 0, (k + 1,))
    phi = UniSeries("z", QRING, {0: QONE, N: QONE}, None)
    # the read [X^(k+1)] needs z^N, hence z, modulo X^(k+2)
    z = lagrange_invert(phi, k + 2, out_var="X")
    return as_count(z.pow(N, prec=k + 2).coeff(k + 1),
                    "rhm01 is not a count")


def rhm02_from_curve(N: int, k1: int, k2: int) -> int:
    """Genus 0, two boundaries: minus the residue at z1 = z2 = 0 of
    x1^(k1+1) x2^(k2+1) against the two-point function
    d_{z1} d_{z2} log(1 - m), with m(z1, z2) = z1 z2 (z1^(N-1) -
    z2^(N-1))/(z1 - z2) = z1 z2 h and h = sum_{i<N-1} z1^i z2^(N-2-i).

    x^(k+1) = sum_j C(k+1, j) z^((N-1)(k+1) - Nj) and Res z^(-A) d(z^A)
    = A, so with A = N j1 - (N-1)(k1+1) and B = N j2 - (N-1)(k2+1) the
    count is

        -sum_{A,B >= 1} C(k1+1, j1) C(k2+1, j2) A B [z1^A z2^B] log(1 - m)

    log(1 - m) = -sum_J m^J / J and m^J is homogeneous of degree NJ, so
    only J = (A + B)/N contributes (none unless N divides A + B), and

        [z1^A z2^B] m^J = [u^(A-J)] (1 + u + ... + u^(N-2))^J
            = sum_i (-1)^i C(J, i) C(A - 1 - i(N-1), J - 1)

    by (1 - u^(N-1))^J (1 - u)^(-J), over i <= (A - 1)/(N - 1); a term
    with A - 1 - i(N-1) < J - 1 is 0, so the sum is 0 for A < J."""
    Profile(N, 0, (k1 + 1, k2 + 1))

    def exponents(k):  # (A, C(k+1, j)) over the poles of x^(k+1)
        return [(N * j - (N - 1) * (k + 1), comb(k + 1, j))
                for j in range(k + 2) if N * j > (N - 1) * (k + 1)]

    total = QZERO
    for A, c1 in exponents(k1):
        for B, c2 in exponents(k2):
            J, r = divmod(A + B, N)
            if r:
                continue
            coeff = sum((-1) ** i * comb(J, i)
                        * comb(A - 1 - i * (N - 1), J - 1)
                        for i in range((A - 1) // (N - 1) + 1))
            total += Q(c1 * c2 * A * B * coeff, J)
    return as_count(total, "rhm02 is not a count")
