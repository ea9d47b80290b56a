from math import factorial, prod

import pytest
from series_reference import multi_add, multi_const

from hypermaps import oracle as O
from hypermaps.checks import stable_profiles
from hypermaps.partitions import (character, mult_vector, partitions,
                                  partitions_upto)
from hypermaps.rational import Q
from hypermaps.series import EpsLaurent, MultiSeries
from hypermaps.tau import (
    coefficient_A,
    coefficient_row,
    content_product,
    osmh_from_tau,
    rhm_from_tau,
    schur_special,
    tau_Z,
)


@pytest.fixture(scope="module")
def tz2():
    return tau_Z(2, 10)


@pytest.fixture(scope="module")
def tz3():
    return tau_Z(3, 9)


def test_content_product_examples():
    assert content_product(()) == EpsLaurent.const(1)
    assert content_product((1,)) == EpsLaurent.const(1)
    # cells of (2,): contents 0, 1
    assert content_product((2,)) == EpsLaurent({0: Q(1), 1: Q(1)})
    # cells of (2,1): contents 0, 1, -1 -> (1+eps)(1-eps)
    assert content_product((2, 1)) == EpsLaurent({0: Q(1), 2: Q(-1)})


def test_schur_special_examples():
    # s_(2) at pt_i = delta_{i2}/eps: chi^(2)_(2)/2 * eps^-1 = 1/(2 eps)
    assert schur_special(2, (2,)) == EpsLaurent({-1: Q(1, 2)})
    assert schur_special(2, (1, 1)) == EpsLaurent({-1: Q(-1, 2)})
    assert schur_special(2, (1,)) == EpsLaurent()
    # chi^(2,1) at the 3-cycle is -1
    assert schur_special(3, (2, 1)) == EpsLaurent({-1: Q(-1, 3)})


def test_coefficient_A_nonzero_only_on_multiples(tz2):
    for lam in ((1,), (2, 1), (3, 1, 1)):
        assert not coefficient_A(2, lam)
    assert coefficient_A(2, (2,))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_coefficient_row_matches_eps_form(N):
    """The integer form row / (N^m m!) * eps^(-m) is the eps-form A, and
    is None exactly where A vanishes."""
    for lam in partitions_upto(10):
        form = coefficient_row(N, lam)
        A = coefficient_A(N, lam)
        if form is None:
            assert not A, lam
            continue
        m, row = form
        denom = N ** m * factorial(m)
        assert A == EpsLaurent({e - m: Q(a, denom)
                                for e, a in enumerate(row)}), lam
        assert A, lam


def test_tau_first_coefficient(tz2):
    # weight-2 coefficient of t_2 in Z for N=2: the two partitions of 2
    # contribute (1/2 eps^-1)(1 +- eps) * chi/ z carried to p = t-vars
    lau = tz2.series.coeff((2,))
    assert lau.coeff(-2) == 1  # the genus-0 one-face count RHM_{0;2}
    assert lau.coeff(0) == 0  # no genus-1 gluing of a single bigon


def test_rhm_anchors(tz2, tz3):
    assert rhm_from_tau(tz2, 0, (2,)) == 1
    assert rhm_from_tau(tz2, 0, (4,)) == 2
    assert rhm_from_tau(tz2, 1, (4,)) == 1
    assert rhm_from_tau(tz3, 0, (3,)) == 1
    assert rhm_from_tau(tz3, 1, (3,)) == 1


def test_rhm_vs_oracle_grid(tz2, tz3):
    for tz, N in ((tz2, 2), (tz3, 3)):
        for g, degrees in ((0, (N, N)), (1, (N, N)), (0, (2, 2, 2))):
            if sum(degrees) % N:
                continue
            assert rhm_from_tau(tz, g, degrees) == O.enumerate_rhm(
                O.Profile(N, g, degrees)), (N, g, degrees)


def test_weight_cap_guard(tz2):
    with pytest.raises(ValueError, match="truncation cap"):
        rhm_from_tau(tz2, 0, (8, 4))


def test_eps_parity(tz2, tz3):
    for tz in (tz2, tz3):
        for key, lau in tz.log().c.items():
            assert all(e % 2 == 0 for e in lau.c), key


def eps_exponent_profile(tau, degrees):
    """Sorted eps-exponents present in the log-Z coefficient of the given
    monomial; the genus grading predicts only values 2g-2 >= -2."""
    return sorted(tau.log().coeff(degrees).c)


def test_eps_exponent_profile(tz2):
    exps = eps_exponent_profile(tz2, (4,))
    assert -2 in exps and all(e >= -2 for e in exps)


def test_weighted_homogeneity():
    """Raising the truncation weight must not change coefficients that
    were already inside the window."""
    for N in (2, 3):
        a = tau_Z(N, 6)
        b = tau_Z(N, 6 + N)
        for key, lau in a.series.c.items():
            assert b.series.coeff(key) == lau
        for key, lau in a.log().c.items():
            assert b.log().coeff(key) == lau


def test_osmh_ratio(tz2, tz3):
    for tz, N in ((tz2, 2), (tz3, 3)):
        for g, degrees in ((0, (N, 1, 1)), (1, (2 * N,))):
            if sum(degrees) % N:
                continue
            rhm = rhm_from_tau(tz, g, degrees)
            osmh = osmh_from_tau(tz, g, degrees)
            prod = 1
            for d in degrees:
                prod *= d
            assert osmh * prod == rhm, (N, g, degrees)


def test_osmh_is_rhm_over_the_degree_product(tz2, tz3):
    """On criterion 1's grid osmh_from_tau is rhm_from_tau / prod d_i,
    which is log Z at eps^(2g-2) times prod m_k! / prod d_i, and it is 0
    wherever N does not divide the darts."""
    for tz, N in ((tz2, 2), (tz3, 3)):
        for g, degrees in stable_profiles(N, 2, 3, tz.W):
            osmh = osmh_from_tau(tz, g, degrees)
            assert osmh == Q(rhm_from_tau(tz, g, degrees), prod(degrees))
            read = tz.log().coeff(degrees).coeff(2 * g - 2)
            for m in mult_vector(degrees).values():
                read *= factorial(m)
            assert osmh == read / prod(degrees), (N, g, degrees)
        for degrees in partitions_upto(tz.W):
            if degrees and len(degrees) <= 3 and sum(degrees) % N:
                for g in range(3):
                    assert osmh_from_tau(tz, g, degrees) == 0


def double_loop_tau_series(N, W):
    """Z by the (lambda, mu) double loop over EpsLaurent products that
    tau_Z replaced: the reference for its integer column sums."""
    acc = multi_const(W, 1)
    for lam in partitions_upto(W):
        n = sum(lam)
        if n == 0 or n % N != 0:
            continue
        a = coefficient_A(N, lam)
        if not a:
            continue
        for mu in partitions(n):
            chi = character(lam, mu)
            if chi == 0:
                continue
            denom = 1
            for m in mult_vector(mu).values():
                for i in range(2, m + 1):
                    denom *= i
            coeff = EpsLaurent({-len(mu): Q(chi, denom)}) * a
            if coeff:
                acc = multi_add(acc, MultiSeries(W, {tuple(mu): coeff}))
    return acc


@pytest.mark.parametrize("N, W", [(2, 10), (3, 9), (4, 8)])
def test_tau_Z_matches_double_loop(N, W):
    assert tau_Z(N, W).series.c == double_loop_tau_series(N, W).c
