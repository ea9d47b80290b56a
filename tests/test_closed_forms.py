"""The engines against the closed forms of `closed_forms` at N = 2, up
to 16 darts: the oracle at an explicit dart cap, tau_Z(2, 16), and the
TR read at genus up to 4 for one face and at every stable genus 0
profile; Tutte's equation against tau_Z(2, 16) and the oracle."""
from math import prod

import pytest

from closed_forms import harer_zagier, slicings, tutte_rhm
from hypermaps import oracle, tau
from hypermaps.partitions import partitions, partitions_upto
from hypermaps.recursion import Recursion

DARTS = 16
TR_G_MAX = 4


@pytest.fixture(scope="module")
def tz():
    return tau.tau_Z(2, DARTS)


def even_profiles():
    """Every sorted tuple of even face degrees with at most DARTS darts."""
    return [tuple(2 * a for a in lam) for e in range(1, DARTS // 2 + 1)
            for lam in partitions(e)]


def test_the_closed_forms_themselves():
    """The gluings of a 2n-gon over every genus are the (2n-1)!! pairings
    of its sides, and one face of a planar map is a Catalan count."""
    for n in range(DARTS // 2 + 1):
        assert sum(harer_zagier(g, n) for g in range(n // 2 + 1)) \
            == prod(range(1, 2 * n, 2))
        assert harer_zagier(n // 2 + 1, n) == 0
        if n:
            assert slicings((2 * n,)) == harer_zagier(0, n)
    assert harer_zagier(4, 8) == 225225
    assert slicings((2, 2, 2)) == 8  # the theta graph, faces rooted


def test_harer_zagier_against_oracle_and_tau(tz):
    """RHM_{g;2}(2n) = eps_g(n) for every 2n <= 16 and every genus."""
    for n in range(1, DARTS // 2 + 1):
        expected = {g: harer_zagier(g, n) for g in range(n // 2 + 1)}
        assert oracle.genus_table(2, (2 * n,), DARTS) == expected, n
        for g, count in expected.items():
            assert tau.rhm_from_tau(tz, g, (2 * n,)) == count, (g, n)


def test_harer_zagier_against_the_tr_read():
    """The TR read of omega_{g,1}, 1 <= g <= 4, equals eps_g(n) for
    every 2n <= 16, including the zero counts above the genus bound."""
    rec = Recursion(2, TR_G_MAX, 1)
    for g in range(1, TR_G_MAX + 1):
        for n in range(1, DARTS // 2 + 1):
            assert rec.rhm_from_tr(g, (2 * n,)) == harer_zagier(g, n), \
                (g, n)


def test_slicings_against_oracle_and_tau(tz):
    """Tutte's formula of slicings equals the genus 0 count of every
    even profile with at most 16 darts."""
    profiles = even_profiles()
    assert len(profiles) == 66
    for degrees in profiles:
        count = slicings(degrees)
        assert oracle.genus_table(2, degrees, DARTS).get(0, 0) == count, \
            degrees
        assert tau.rhm_from_tau(tz, 0, degrees) == count, degrees


def test_slicings_against_the_tr_read():
    """The TR read equals Tutte's formula on every stable genus 0 even
    profile with at most 16 darts and at most 6 faces."""
    n_max = 6
    rec = Recursion(2, 0, n_max)
    profiles = [d for d in even_profiles() if 3 <= len(d) <= n_max]
    assert len(profiles) == 39
    for degrees in profiles:
        assert rec.rhm_from_tr(0, degrees) == slicings(degrees), degrees


def test_tutte_equation_against_tau(tz):
    """Tutte's equation equals the tau count of every stable profile
    with g <= 4, at most 4 faces and at most 16 darts."""
    profiles = [(g, lam) for lam in partitions_upto(DARTS)
                if lam and len(lam) <= 4 and sum(lam) % 2 == 0
                for g in range(TR_G_MAX + 1)
                if oracle.Profile(2, g, lam).stable]
    assert len(profiles) == 951
    for g, degrees in profiles:
        assert tutte_rhm(g, degrees) == tau.rhm_from_tau(tz, g, degrees), \
            (g, degrees)


def test_tutte_equation_against_oracle():
    """Tutte's equation equals the oracle's genus table, every genus,
    on every profile of at most 12 darts, faces in any order."""
    cap = 12
    for lam in partitions_upto(cap):
        if not lam or sum(lam) % 2:
            continue
        table = oracle.genus_table(2, lam, cap)
        for degrees in {lam, lam[::-1]}:
            for g in range(sum(lam) // 4 + 2):
                assert tutte_rhm(g, degrees) == table.get(g, 0), \
                    (g, degrees)
