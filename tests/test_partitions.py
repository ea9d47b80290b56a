import random

from hypermaps.partitions import (_mn, beta_mask, character, contents,
                                  mask_partition, mult_vector, partitions,
                                  partitions_upto)
from hypermaps.rational import Q
from hypermaps.series import EpsLaurent

# Partition helpers that only the tests use.


def z_mu(mu):
    """Order of the centralizer of a permutation of cycle type mu:
    prod k^{m_k} m_k!."""
    z = 1
    for k, m in mult_vector(mu).items():
        f = 1
        for i in range(2, m + 1):
            f *= i
        z *= (k ** m) * f
    return z


def conjugate(lam):
    """Conjugate partition."""
    if not lam:
        return ()
    out = []
    for j in range(lam[0]):
        out.append(sum(1 for p in lam if p > j))
    return tuple(out)


# Schur-function evaluators that the package does not need (it evaluates
# s_lambda only at the special point, tau.schur_special); they cross-check
# the character table against Jacobi-Trudi.


def hook_products(lam):
    """Product of hook lengths of lam."""
    cols = conjugate(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (cols[j] - i) - 1
    return prod


def _newton_h(p, n):
    """Complete homogeneous h_0..h_n from power sums p (dict k -> value,
    values in any commutative Q-algebra) via Newton's identities."""
    h = [EpsLaurent.const(1)]
    for k in range(1, n + 1):
        acc = EpsLaurent()
        for i in range(1, k + 1):
            pi = p.get(i)
            if pi is None:
                continue
            acc = acc + pi * h[k - i]
        h.append(acc.scale(Q(1, k)))
    return h


def schur_at(lam, p) -> EpsLaurent:
    """s_lambda at a power-sum assignment (dict k -> EpsLaurent), by the
    Jacobi-Trudi determinant det(h_{lam_i - i + j})."""
    lam = tuple(lam)
    if not lam:
        return EpsLaurent.const(1)
    L = len(lam)
    h = _newton_h(p, lam[0] + L - 1)

    def hax(m):
        if m < 0:
            return EpsLaurent()
        return h[m]

    # determinant by column-subset dynamic programming (division-free)
    states = {frozenset(): EpsLaurent.const(1)}
    for i in range(L):
        new = {}
        for used, val in states.items():
            if not val:
                continue
            if len(used) != i:
                continue
            for j in range(L):
                if j in used:
                    continue
                entry = hax(lam[i] - (i + 1) + (j + 1))
                if not entry:
                    continue
                # sign of appending column j: parity of used columns > j
                sgn = -1 if sum(1 for u in used if u > j) % 2 else 1
                term = (val * entry).scale(sgn)
                key = used | {j}
                new[key] = new.get(key, EpsLaurent()) + term
        states = new
    full = frozenset(range(L))
    return states.get(full, EpsLaurent())


def schur_at_mn(lam, p) -> EpsLaurent:
    """Independent evaluation through the character expansion
    s_lambda = sum_mu chi^lambda_mu p_mu / z_mu."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return EpsLaurent.const(1)
    total = EpsLaurent()
    for mu in partitions(n):
        chi = character(lam, mu)
        if chi == 0:
            continue
        pm = EpsLaurent.const(Q(chi, z_mu(mu)))
        ok = True
        for k in mu:
            v = p.get(k)
            if v is None or not v:
                ok = False
                break
            pm = pm * v
        if ok:
            total = total + pm
    return total


def schur_from_powersums(lam, p):
    """Schur polynomial s_lam evaluated at a power-sum assignment.

    p maps k -> value of the k-th power sum (missing keys mean 0).
    Computed by the character expansion s_lam = sum_mu chi^lam_mu p_mu / z_mu.
    Cross-checked against Jacobi-Trudi below.
    """
    n = sum(lam)
    if n == 0:
        return Q(1)
    total = Q(0)
    for mu in partitions(n):
        chi = character(lam, mu)
        if chi == 0:
            continue
        pm = Q(1)
        ok = True
        for k in mu:
            v = p.get(k)
            if v is None or v == 0:
                ok = False
                break
            pm = pm * v
        if not ok:
            continue
        total += Q(chi) * pm / z_mu(mu)
    return total



def test_partition_counts():
    counts = [len(list(partitions(n))) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]


def test_partitions_are_sorted():
    for lam in partitions(7):
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_z_mu_examples():
    assert z_mu((1, 1, 1)) == 6
    assert z_mu((2, 1)) == 2
    assert z_mu((3,)) == 3
    # classes partition the symmetric group: sum of n!/z_mu is n!
    assert sum(Q(720, z_mu(mu)) for mu in partitions(6)) == 720


def test_conjugate_involution():
    for lam in partitions(8):
        assert conjugate(conjugate(lam)) == lam


def test_contents_and_hooks():
    assert sorted(contents((2, 1))) == [-1, 0, 1]
    assert hook_products((2, 1)) == 3
    assert hook_products((3,)) == 6


def test_character_known_values():
    # S_3: trivial, standard, sign
    assert character((3,), (1, 1, 1)) == 1
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((1, 1, 1), (1, 1, 1)) == 1
    assert character((2, 1), (3,)) == -1
    assert character((1, 1, 1), (2, 1)) == -1
    # column orthogonality at n = 4, mu = (2,1,1) vs (4,)
    dot = sum(character(lam, (2, 1, 1)) * character(lam, (4,))
              for lam in partitions(4))
    assert dot == 0


def test_character_sign_partition():
    for lam in partitions(5):
        assert character(lam, (1,) * 5) == character(conjugate(lam),
                                                     (1,) * 5)


def test_mult_vector():
    assert mult_vector((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}


def test_schur_from_powersums_matches_dimension():
    # at p_k = delta_{k1} * n variables... simplest: p_k = x for k=1 only
    # s_lambda(p_1=t, p_k=0) = chi^lambda_{1^n}/n! * t^n
    lam = (2, 1)
    val = schur_from_powersums(lam, {1: Q(3)})
    assert val == Q(2) * Q(27, 6)


def test_schur_powersum_random_consistency():
    rng = random.Random(5)
    for _ in range(5):
        lam = rng.choice([(3, 1), (2, 2), (4,), (2, 1, 1), (3, 2, 1)])
        p = {k: EpsLaurent.const(Q(rng.randint(-5, 5), rng.randint(1, 4)))
             for k in range(1, sum(lam) + 1)}
        assert schur_at(lam, p) == schur_at_mn(lam, p)
        plain = {k: v.coeff(0) for k, v in p.items()}
        assert schur_from_powersums(lam, plain) == schur_at(lam, p).coeff(0)


# The set-based Murnaghan-Nakayama recursion that `character` replaced,
# kept as the reference for its bitmask memo.


def frozenset_character(lam, mu):
    """chi^lam_mu on a frozenset of beta-numbers, unmemoized."""
    length = max(len(lam), 1)
    padded = list(lam) + [0] * (length - len(lam))
    beta = frozenset(padded[i] + (length - 1 - i) for i in range(length))
    return _frozenset_mn(beta, tuple(mu))


def _frozenset_mn(beta, mu):
    if not mu:
        return 1
    k = mu[0]
    total = 0
    blist = sorted(beta)
    for b in blist:
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        between = sum(1 for x in blist if nb < x < b)
        sign = -1 if between % 2 else 1
        total += sign * _frozenset_mn((beta - {b}) | {nb}, mu[1:])
    return total


def test_character_matches_frozenset_recursion():
    for n in range(11):
        for lam in partitions(n):
            for mu in partitions(n):
                assert character(lam, mu) == frozenset_character(lam, mu), \
                    (lam, mu)


def test_beta_mask_round_trip():
    for lam in partitions_upto(9):
        for L in range(len(lam), len(lam) + 4):
            mask = beta_mask(lam, L)
            assert mask.bit_count() == L
            assert mask_partition(mask) == lam, (lam, L)
    assert beta_mask((3, 1), 2) == 1 << 4 | 1 << 1
    assert beta_mask((), 3) == 0b111


def test_character_does_not_depend_on_padding():
    """Adding empty rows shifts every beta-number up and sets the low
    bits; the Murnaghan-Nakayama value on the mask must not change."""
    for lam in partitions_upto(9):
        for L in range(len(lam), len(lam) + 4):
            mask = beta_mask(lam, L)
            for mu in partitions(sum(lam)):
                assert _mn(mask, mu) == character(lam, mu), (lam, L, mu)
