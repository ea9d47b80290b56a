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

omega_{g,n} has poles of order at most `pole_order(g, n)` = 6g - 4 + 2n
at the ramification points (Eynard-Orantin), so a Recursion serving
g <= g_max and n <= n_max builds every local series (deck, kernel, slot)
modulo t^M, M = pole_order(g_max, n_max), and no further.  Each point
has one kernel table U_1..U_(M-1), and each pair of slot roles one
residue vector over j = 1..M-1, of which omega_{g,n} reads the first
pole_order(g, n) - 1.  A residue reads its integrand w up to t^0 and
every U_j up to t^(-1 - val(w)), and w is formed only that far: its two
slot series are multiplied at precision t^1.  A series not known that
far raises ArithmeticError("insufficient local expansion order") rather
than be read truncated.  At the exact M neither read has slack: every
U_j one order shorter raises, and at M - 1 the table lacks U_(M-1), so
`_compute` raises.

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
there, and `_complete` fills in the other keys by this rotation.  The
tensor cache holds what `_compute` derives, the keys with a slot at
index 0, each coefficient as the field element's integers [den, num_0,
..., num_(deg-1)]; loading a file completes it the same way.

Every term of the recursion at a is a pair of slot roles, one at z and
one at sigma(z), with the externals that remain and a scalar.  A slot
role ("z"|"s", b, p) is the basis form dv/(v-b)^p on that side, and
("B2",) is omega_{0,2}(z, sigma z).  A role comes from a leg (slot
role, remaining externals, coefficient): a stable omega_{g,n} gives
role ("z"|"s", b, k) once per distinct slot (b, k) of each tensor key,
with the rest of the key as externals and the key's coefficient.  The
omega_{0,2} bridge to an external xi_{a,k} is a slot too: near a,
B(z, z') = sum_k (k-1) (z-a)^(k-2) xi_{a,k}(z') (Eynard-Orantin), so
it gives role ("z"|"s", a, 2 - k), externals ((a, k),) and coefficient
k - 1.  A product term omega_{g1,1+j1}(z, I1) omega_{g2,1+j2}(sigma z,
I2) is one leg per factor; omega_{g-1,n+1}(z, sigma z, J) is a z leg
and then each distinct slot it leaves at sigma(z), and omega_{0,2}(z,
sigma z) the role ("B2",).  The scalars are summed per (externals, z
role, sigma(z) role).  Each coefficient at externals r and slot (a,
j+1) is then one ring.dot, normalized once: the j-th entry of the
memoized residue vector of each role pair with externals r, times that
pair's summed scalar.

Counts are the correlators' coefficients at the pole of x, in X = 1/xt =
v/(1 + v^N/(N-1)).  By Lagrange-Buermann and a^N = 1, a basis form at the
ramification point a = zeta^(i+1) of index i has

    [X^e] (v(X) - a)^(-k) v'(X) = [v^e] (v - a)^(-k) (1 + v^N/(N-1))^(e+1)
                                = (-1)^k a^(-k-e) r_N(k, e),
    r_N(k, e) = sum_{j=0..e//N} C(e+1, j) (N-1)^(-j) C(k+e-Nj-1, e-Nj),

a rational times a power of zeta.  What a read needs of omega_{g,n}
besides the degrees is built once per memoized tensor, its read plan:
per key, the distinct orderings of its slots and the key's coefficient
with the sign (-1)^(sum of k) folded in, times each zeta^p, p < N.  A
read then forms only the rational and the power p of zeta of each
ordering, and sums every ordering's rational against its key's
coefficient times zeta^p in one ring.dot, which scales integer
coordinates by a rational (no rational becomes a field element, no
element is multiplied, no two rationals are added) and normalizes once;
that sum must be rational, and it takes the factor (N-1)^(D/N) as one
integer.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from itertools import permutations
from math import comb, gcd

from .frobenius import curve_x
from .limits import admit
from .numfield import NFElem, NumberField
from .oracle import UNSTABLE_MOMENT, Profile
from .rational import Q, QONE, QZERO, as_count, need_order
from .series import QRING, UniSeries, lagrange_invert

TENSOR_CACHE_VERSION = 2


class Curve:
    """Rescaled spectral-curve data over the cyclotomic field."""

    def __init__(self, N: int):
        need_order(N)
        self.N = N
        self.ring = NumberField.cyclotomic_field(N)
        # a_i = zeta^(i+1), i = 0..N-1 (so a_(N-1) = 1)
        roots = self.ring.roots
        self.ram = roots[1:] + roots[:1]
        # simple ramification: x'(a) = 0 and x''(a) != 0
        for a_idx in range(N):
            x_loc = self.x_series(a_idx, 3)
            if not x_loc.coeff(1).is_zero() or x_loc.coeff(2).is_zero():
                raise ArithmeticError("not a simple ramification point")

    def x_series(self, a_idx: int, trunc: int) -> UniSeries:
        """xt(a + t) as a series in the local parameter t, with xt(v) =
        v^(N-1)/(N-1) + 1/v: the one description of x near a."""
        a = self.ram[a_idx]
        ring = self.ring
        base = UniSeries("t", ring, {0: a, 1: ring.one}, None)
        pos = base.pow(self.N - 1).scale(Q(1, self.N - 1))
        neg = base.inv(prec=trunc)
        return pos + neg


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
    const = UniSeries("t", ring, {0: ring.one * (N - 1)})
    for _ in range(order):
        # Horner in w: P = w (v^(N-1) + w (v^(N-2) + ... + w v)) - (N-1)
        acc = v
        for i in range(2, N):
            acc = v_pows[i] + w * acc
        p = w * acc - const
        if p.is_zero():
            break
        w = w - p.scale(step)
    else:
        raise ArithmeticError("deck series failed to converge")
    s = w - UniSeries("t", ring, {0: a})
    # defining contracts, to working order
    x_loc = curve.x_series(a_idx, order)
    if not (x_loc.compose(s) - x_loc).is_zero():
        raise ArithmeticError("deck series does not preserve x")
    t = UniSeries("t", ring, {1: ring.one}, order)
    if not (s.compose(s) - t).is_zero():
        raise ArithmeticError("deck series is not an involution")
    return s


class Recursion:
    """Memoized correlator recursion for a fixed N."""

    def __init__(self, N: int, g_max: int = 2, n_max: int = 3,
                 cache_dir=None):
        admit_recursion(N, g_max, n_max)
        self.curve = Curve(N)
        self.N = N
        # the expansion order of every local series: the largest pole
        # order of a correlator with g <= g_max, n <= n_max
        self.M = pole_order(g_max, n_max)
        self.cache_dir = cache_dir
        self._memo = {}
        self._decks = {}
        self._kernels = {}  # a_idx -> (U_1, ..., U_{M-1})
        self._slots = {}    # (a_idx, slot role) -> UniSeries
        self._resvec = {}   # (a_idx, left role, right role) -> tuple
        self._plans = {}    # (g, n) -> (its tensor, read plan)

    # -- local series ----------------------------------------------------

    def deck(self, a_idx: int) -> UniSeries:
        if a_idx not in self._decks:
            self._decks[a_idx] = deck_series(self.curve, a_idx, self.M)
        return self._decks[a_idx]

    def _kernel(self, a_idx: int) -> tuple:
        """(U_1, ..., U_{M-1}) at ramification point a_idx, with U_j =
        (t^j - s^j) / (2 (s - t) x'), memoized per point."""
        out = self._kernels.get(a_idx)
        if out is not None:
            return out
        ring = self.curve.ring
        s = self.deck(a_idx)
        t = UniSeries("t", ring, {1: ring.one}, self.M)
        xp = self.curve.x_series(a_idx, self.M + 1).deriv()
        inv = ((s - t) * xp).scale(Q(2)).inv()
        out = tuple((t.pow(j) - s.pow(j)) * inv for j in range(1, self.M))
        self._kernels[a_idx] = out
        return out

    def _factor_series(self, a_idx: int, role) -> UniSeries:
        """Local series for one slot of the residue integrand, memoized on
        (a_idx, role).

        role is ("z", b_idx, p) / ("s", b_idx, p) for the basis form
        dv/(v-b)^p on the z or sigma(z) side,

            z: (t + (a-b))^(-p)
            s: s'(t) (s(t) + (a-b))^(-p),

        with p = k >= 2 for a slot xi_{b,k} of a stable correlator and
        p = 2 - k <= 0 at b = a for the omega_{0,2} bridge to an external
        xi_{a,k}, or ("B2",) for omega_{0,2}(z, sigma z) itself.
        """
        key = (a_idx, role)
        out = self._slots.get(key)
        if out is not None:
            return out
        ring = self.curve.ring
        s = self.deck(a_idx)
        if role == ("B2",):
            t = UniSeries("t", ring, {1: ring.one}, self.M)
            out = s.deriv() * (t - s).pow(2).inv()
        else:
            side, b_idx, p = role
            x = s if side == "s" else UniSeries("t", ring, {1: ring.one})
            if b_idx != a_idx:
                diff = self.curve.ram[a_idx] - self.curve.ram[b_idx]
                x = x + UniSeries("t", ring, {0: diff})
            out = x.pow(-p, prec=self.M)
            if side == "s":
                out = s.deriv() * out
        self._slots[key] = out
        return out

    def _res_vector(self, a_idx: int, left, right):
        """tuple over j = 1..M-1 of Res_t U_j(t) w(t) dt for the integrand
        w built from the two slot roles (right may be None), memoized on
        (a_idx, left, right)."""
        key = (a_idx, left, right)
        out = self._resvec.get(key)
        if out is not None:
            return out
        # the residue pairs t^m of U_j with t^(-1-m) of w: w is read up
        # to t^0, as U_1 = -1/(2x') has valuation -1, so it is formed
        # only that far, and every U_j is read up to t^(-1 - val(w))
        w = self._factor_series(a_idx, left)
        if right is None:
            w = w.truncated(1)
        else:
            w = w.mul(self._factor_series(a_idx, right), 1)
        kernel = self._kernel(a_idx)
        if (w.trunc is not None and w.trunc < 1
                or w.c and any(u.trunc is not None
                               and u.trunc <= -1 - w.val() for u in kernel)):
            raise ArithmeticError("insufficient local expansion order")
        wc = w.c
        dot = self.curve.ring.dot
        out = tuple(dot([(uc, wc[-1 - m]) for m, uc in u.c.items()
                         if -1 - m in wc]) for u in kernel)
        self._resvec[key] = out
        return out

    # -- the recursion ----------------------------------------------------

    def omega(self, g: int, n: int) -> dict:
        """Coefficient tensor of omega_{g,n} on sorted pole-basis keys."""
        if g < 0:
            raise ValueError(f"need g >= 0, got {g}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not Profile.stable_shape(g, n):
            raise ValueError(UNSTABLE_MOMENT)
        if pole_order(g, n) > self.M:
            raise ValueError("requested correlator exceeds the configured "
                             "expansion order")
        key = (g, n)
        if key in self._memo:
            return self._memo[key]
        cached = self._load_cached(g, n)
        if cached is not None:
            self._memo[key] = cached
            return cached
        tensor = self._compute(g, n)
        self._memo[key] = tensor
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
        omega_{g-1,n+1}(z, sigma z) term.  omega_{0,2} bridges to an
        external xi_{a,k}, 2 <= k <= bound, as the slot (a, 2 - k) with
        coefficient k - 1; see the module docstring."""
        if t == (0, 2):
            return [((side, a_idx, 2 - k), ((a_idx, k),), k - 1)
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
        return rot, self.curve.ring.roots[p % self.N]

    def _compute(self, g: int, n: int, a_idx: int = 0) -> dict:
        """omega_{g,n} from residues at ramification point a_idx alone."""
        ring = self.curve.ring
        n_ext = n - 1
        bound = pole_order(g, n)
        # the residue vectors hold j = 1..M-1, and omega_{g,n} reads the
        # first bound - 1 of them
        j_max = bound - 1
        if j_max > self.M - 1:
            raise ArithmeticError("insufficient local expansion order")

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

        # pair each summed scalar, an int or a field element, with its
        # residue vector, every one formed even where the scalar cancels,
        # so that each integrand passes the expansion-order check
        pairs = {}  # external multiset -> [(residue vector, scalar)]
        for (r, z_role, s_role), c in terms.items():
            vec = self._res_vector(a_idx, z_role, s_role)
            pairs.setdefault(r, []).append((vec, c))

        # fold the z0 pole basis in: slot (a_idx, j+1) takes the sum of
        # vec[j-1] times its scalar, one ring.dot per coefficient
        direct = {}
        for r, group in pairs.items():
            for j in range(1, j_max + 1):
                c = ring.dot([(vec[j - 1], sc) for vec, sc in group])
                if c.is_zero():
                    continue
                full = tuple(sorted(((a_idx, j + 1),) + r))
                prev = direct.get(full)
                if prev is None:
                    direct[full] = c
                elif prev != c:
                    # symmetry of omega: every distinguished slot agrees
                    raise ArithmeticError("correlator symmetry violated")
        return self._complete(direct, a_idx)

    def _complete(self, direct: dict, a_idx: int = 0) -> dict:
        """The whole tensor from its keys with a slot at a_idx, by
        rotation; a rotated key with such a slot must agree."""
        zero = self.curve.ring.zero
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
        # omega_{0,3} and omega_{1,1} are never cached: each takes
        # milliseconds, and a uniformly rescaled copy would pass every
        # load check
        if not self.cache_dir or (g, n) in ((0, 3), (1, 1)):
            return None
        # the tensors are exact: the working order M is not in the key
        name = f"tensor_N{self.N}_g{g}_n{n}_v{TENSOR_CACHE_VERSION}.json"
        return os.path.join(self.cache_dir, name)

    def _store_cached(self, g, n, tensor):
        path = self._cache_path(g, n)
        if path is None:
            return
        payload = {key_text(K): [c.den] + c.num for K, c in tensor.items()
                   if any(a == 0 for a, _ in K)}
        # write a temp file and rename it, so that no reader ever sees a
        # partial tensor at the final path
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
            # every other file of this (N, g, n), of an older version or
            # named with the working order M, is one that nothing reads
            stem, own = f"tensor_N{self.N}_g{g}_n{n}_", os.path.basename(path)
            for name in os.listdir(self.cache_dir):
                if name.startswith(stem) and name.endswith(".json") \
                        and name != own:
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
        # and k >= 2, with one at a = 0, each spelled as `key_text` spells
        # it, to a nonzero element's [den >= 1, num_0, ...] in lowest
        # terms, as `_store_cached` writes it, is a miss, and so is one
        # `_complete` refuses or one nested deeper than the decoder
        # recurses
        ring = self.curve.ring
        direct = {}
        try:
            with open(path) as fh:
                payload = json.load(fh)
            # every stable omega_{g,n} has at least one key
            if not isinstance(payload, dict) or not payload:
                return None
            for skey, ints in payload.items():
                key = tuple(tuple(int(x) for x in part.split(","))
                            for part in skey.split(";"))
                if (len(key) != n or list(key) != sorted(key)
                        or any(len(p) != 2 or not 0 <= p[0] < self.N
                               or p[1] < 2 for p in key)
                        or all(p[0] != 0 for p in key)
                        or skey != key_text(key)
                        or list(map(type, ints)) != [int] * (ring.deg + 1)
                        or ints[0] < 1 or not any(ints[1:])
                        or gcd(*ints) != 1):
                    return None
                direct[key] = NFElem(ring, ints[1:], ints[0])
            return self._complete(direct)
        except (OSError, ValueError, TypeError, ArithmeticError,
                RecursionError):
            return None

    # -- extraction ---------------------------------------------------------

    def _read_plan(self, g: int, n: int) -> list:
        """The read plan of omega_{g,n}, built on the first read of the
        memoized tensor: per key, (its distinct orderings, its signed
        coefficient times zeta^p for p = 0..N-1)."""
        tensor = self.omega(g, n)
        held = self._plans.get((g, n))
        if held is not None and held[0] is tensor:
            return held[1]
        roots = self.curve.ring.roots
        plan = []
        for K, c in tensor.items():
            if sum(k for _, k in K) % 2:
                c = -c
            plan.append((tuple(set(permutations(K))),
                         [c * zeta_p for zeta_p in roots]))
        self._plans[(g, n)] = (tensor, plan)
        return plan

    def rhm_from_tr(self, g: int, degrees) -> int:
        """Hypermap count from the correlator expansion; degrees are the
        side counts d_i = k_i + 1 >= 1."""
        prof = Profile(self.N, g, degrees)
        if not prof.stable:
            raise ValueError(UNSTABLE_MOMENT)
        if not prof.divisible:
            return 0
        exps = tuple(d - 1 for d in prof.degrees)
        N = self.N
        # an ordering of a key contributes its phased coefficient at zeta^p
        # times a rational: every ordering is one pair of the one ring.dot
        pairs = []
        for orders, phased in self._read_plan(g, len(exps)):
            for order in orders:
                q, p = QONE, 0
                for (a_idx, k), e in zip(order, exps):
                    q = q * eta_coeff(N, k, e)
                    p -= (a_idx + 1) * (k + e)
                pairs.append((phased[p % N], q))
        acc = self.curve.ring.dot(pairs)
        if not acc.is_rational():
            raise ArithmeticError("field descent failure")
        value = Q(acc.num[0] * (N - 1) ** (prof.darts // N), acc.den)
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


def admit_recursion(N: int, g_max: int, n_max: int) -> None:
    """What a Recursion(N, g_max, n_max) may cost, checked before any
    work: the curve's order, and the faces and 2g - 2 + n of its largest
    correlator, each within `limits`."""
    need_order(N)
    admit("curve N", N)
    admit("tr faces", n_max)
    admit("tr 2g - 2 + n", 2 * g_max - 2 + n_max, N)


def pole_order(g: int, n: int) -> int:
    """The largest pole order of omega_{g,n} at a ramification point
    (Eynard-Orantin): the expansion order its recursion needs."""
    return 6 * g - 4 + 2 * n


def key_text(key) -> str:
    """A tensor key as the text "a,k;a,k;..." of the cache and `curve`."""
    return ";".join(f"{a},{k}" for a, k in key)


def count_rhm(profile: Profile, cache_dir=None) -> int:
    """One count for a profile that `Profile.decided` leaves open.  An
    unstable moment (genus 0 with one or two faces) has no correlator
    and is read from the curve's own paths; a stable one from a
    Recursion sized to the request."""
    if not profile.stable:
        ks = [d - 1 for d in profile.degrees]
        if len(ks) == 1:
            return rhm01_from_curve(profile.N, *ks)
        return rhm02_from_curve(profile.N, *ks)
    rec = Recursion(profile.N, profile.g, len(profile.degrees),
                    cache_dir=cache_dir)
    return rec.rhm_from_tr(profile.g, profile.degrees)


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
    admit("curve degree", k + 1)
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

    Res z^(-A) d(z^A) = A, so with c1 z1^(-A) and c2 z2^(-B) running
    over the poles of x1^(k1+1) and x2^(k2+1) (x = `curve_x`) the count
    is

        -sum_{A,B >= 1} c1 c2 A B [z1^A z2^B] log(1 - m)

    log(1 - m) = -sum_J m^J / J and m^J is homogeneous of degree NJ, so
    only J = (A + B)/N contributes (none unless N divides A + B), and

        [z1^A z2^B] m^J = [u^(A-J)] (1 + u + ... + u^(N-2))^J
            = sum_i (-1)^i C(J, i) C(A - 1 - i(N-1), J - 1)

    by (1 - u^(N-1))^J (1 - u)^(-J), over i <= (A - 1)/(N - 1); a term
    with A - 1 - i(N-1) < J - 1 is 0, so the sum is 0 for A < J."""
    Profile(N, 0, (k1 + 1, k2 + 1))
    admit("curve degree", max(k1, k2) + 1)
    poles1, poles2 = ([(-e, c) for e, c in curve_x(N).pow(k + 1).c.items()
                       if e < 0] for k in (k1, k2))
    total = QZERO
    for A, c1 in poles1:
        for B, c2 in poles2:
            J, r = divmod(A + B, N)
            if r:
                continue
            coeff = sum((-1) ** i * comb(J, i)
                        * comb(A - 1 - i * (N - 1), J - 1)
                        for i in range((A - 1) // (N - 1) + 1))
            total += Q(c1 * c2 * A * B * coeff, J)
    return as_count(total, "rhm02 is not a count")
