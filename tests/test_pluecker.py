from itertools import combinations

import pytest

from hypermaps import pluecker
from hypermaps.partitions import beta_mask, partitions_upto
from hypermaps.pluecker import pluecker_check
from hypermaps.series import EpsLaurent
from hypermaps.tau import coefficient_A, coefficient_row

# The reference scan's own encoding of beta-sets, independent of the
# int masks of hypermaps.partitions.


def beta_set(lam, L: int):
    """Beta-numbers of lam padded to L rows, as a sorted-descending tuple."""
    padded = list(lam) + [0] * (L - len(lam))
    return tuple(padded[i] + (L - 1 - i) for i in range(L))


def partition_of(beta):
    """Partition recovered from a beta-number set."""
    b = sorted(beta, reverse=True)
    L = len(b)
    return tuple(p for p in (b[i] - (L - 1 - i) for i in range(L)) if p > 0)


def test_beta_set_round_trip():
    for lam in partitions_upto(7):
        for L in range(len(lam), len(lam) + 3):
            beta = beta_set(lam, L)
            assert sum(1 << b for b in beta) == beta_mask(lam, L)
            assert partition_of(beta) == lam


def test_gr24_instance_by_hand():
    """The smallest three-term relation: with S = {0} and
    T = {3, 2, 1} it reads A_() A_(2,2) - A_(1) A_(2,1) + A_(2) A_(1,1)
    = 0; check it directly on the tau coefficients."""
    for N in (2, 3):
        lhs = (coefficient_A(N, ()) * coefficient_A(N, (2, 2))
               - coefficient_A(N, (1,)) * coefficient_A(N, (2, 1))
               + coefficient_A(N, (2,)) * coefficient_A(N, (1, 1)))
        assert lhs == EpsLaurent(), N


def test_window_passes():
    for N in (2, 3):
        rep = pluecker_check(N, 6)
        assert rep.ok
        assert rep.relations_checked > 0


@pytest.mark.parametrize("N, W, checked", [(5, 5, 5), (6, 6, 6)])
def test_first_window_that_checks_a_relation(N, W, checked):
    """For N = 5, 6 the first relations are checked at W = N; the window
    one weight below checks none and raises."""
    assert pluecker_check(N, W).relations_checked == checked
    with pytest.raises(ValueError, match=f"N = {N}, W = {W - 1} "):
        pluecker_check(N, W - 1)


def test_violation_reporting_structure():
    rep = pluecker_check(2, 5)
    assert rep.ok and rep.violations == []


def reference_scan(N, W, coefficient=coefficient_A):
    """The scan pluecker_check replaced: every (S, T) pair and every term
    through frozensets and a frozenset-keyed cache of A, no weight screen.
    Returns (checked, skipped, violations)."""
    L = W
    checked = skipped = 0
    violations = []
    betas = [frozenset(beta_set(lam, L)) for lam in partitions_upto(W)]
    universe = sorted({x for b in betas for x in b} | set(range(W + L)))
    known = {}

    def known_value(bset):
        if bset not in known:
            lam = partition_of(bset)
            w = sum(lam)
            if w % N != 0:
                known[bset] = EpsLaurent()
            elif w > W:
                known[bset] = None
            else:
                known[bset] = coefficient(N, lam)
        return known[bset]

    s_candidates = set()
    for b in betas:
        for s in combinations(sorted(b), L - 1):
            s_candidates.add(frozenset(s))
    t_candidates = set()
    for b in betas:
        for extra in universe:
            if extra not in b:
                t_candidates.add(b | {extra})
    for S in s_candidates:
        for T in t_candidates:
            t_sorted = sorted(T, reverse=True)
            terms = []
            unknown = False
            for j, t in enumerate(t_sorted):
                if t in S:
                    continue
                a_left = known_value(S | {t})
                a_right = known_value(T - {t})
                if a_left is None or a_right is None:
                    if (a_left is None or a_left) and \
                       (a_right is None or a_right):
                        unknown = True
                        break
                    continue
                if not a_left or not a_right:
                    continue
                ins = sum(1 for s in S if s > t)
                sgn = -1 if (j + ins) % 2 else 1
                terms.append((sgn, a_left, a_right))
            if unknown:
                skipped += 1
                continue
            if not terms:
                continue
            total = EpsLaurent()
            for sgn, a, b in terms:
                prod = a * b
                total = total + (prod if sgn > 0 else -prod)
            checked += 1
            if total:
                violations.append(
                    (tuple(sorted(S)), tuple(t_sorted), total.to_json()))
    return checked, skipped, violations


@pytest.mark.parametrize("N, W", [(2, 6), (2, 7), (3, 8), (4, 8)])
def test_screened_scan_matches_reference(N, W):
    rep = pluecker_check(N, W)
    assert (rep.relations_checked, rep.relations_skipped,
            rep.violations) == reference_scan(N, W)


@pytest.mark.parametrize("lam, expected", [
    ((2, 2), 60), ((4, 2), 44), ((3, 3, 2), 26)])
def test_screen_cannot_hide_a_violation(monkeypatch, lam, expected):
    """Doubling one coefficient breaks the relations through it; the
    mask screen must report every one, sorted by (S, T), with the
    reference's eps-form of every violated sum."""
    def doubled_row(N, mu):
        form = coefficient_row(N, mu)
        if form and tuple(mu) == lam:
            m, row = form
            return m, [2 * a for a in row]
        return form

    def doubled(N, mu):
        a = coefficient_A(N, mu)
        return a * 2 if tuple(mu) == lam else a

    monkeypatch.setattr(pluecker, "coefficient_row", doubled_row)
    rep = pluecker_check(2, 8)
    assert len(rep.violations) == expected
    assert rep.violations == sorted(reference_scan(2, 8, doubled)[2])
    keys = [v[:2] for v in rep.violations]
    assert keys == sorted(keys)


def test_wider_window_certified():
    """A window beyond criterion 6's |lambda| <= 8."""
    rep = pluecker_check(2, 10)
    assert (rep.relations_checked, rep.relations_skipped,
            len(rep.violations)) == (1346, 327402, 0)


@pytest.mark.parametrize("N, expected", [
    (2, (4642, 1919172, 0)), (3, (2109, 1046031, 0))])
def test_deep_window_certified(N, expected):
    """Windows of weight 12; the counts were measured on the
    term-by-term scan that the mask screen replaced."""
    rep = pluecker_check(N, 12)
    assert (rep.relations_checked, rep.relations_skipped,
            len(rep.violations)) == expected
