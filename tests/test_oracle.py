import pytest
from oracle_reference import reference_completions, reference_genus_table

from hypermaps import oracle
from hypermaps.checks import _noblack_table, run_crosscheck
from hypermaps.config import build_config
from hypermaps.oracle import (
    Profile,
    enumerate_rhm,
    genus_table,
    rhm01_closed,
)
from hypermaps.partitions import partitions, partitions_upto


def _reference_grid():
    """Every weakly decreasing degree tuple with at most 4 faces and at
    most d_max darts, N | d, and the reversed order of each multi-face
    tuple."""
    for N, d_max in ((2, 10), (3, 9), (4, 8), (5, 5), (6, 6)):
        for d in range(N, d_max + 1, N):
            for degrees in partitions(d):
                if len(degrees) > 4:
                    continue
                yield N, degrees
                if len(set(degrees)) > 1:
                    yield N, degrees[::-1]
    # one face, two faces of one degree and a degree-1 face at 12 darts,
    # where the completion memo serves most of the table
    yield from ((2, (12,)), (2, (6, 6)), (2, (11, 1)))


def test_genus_table_equals_reference():
    """The incremental enumeration gives the tables of building and
    scanning every phi_b."""
    grid = list(_reference_grid())
    assert len(grid) == 211
    for N, degrees in grid:
        assert genus_table(N, degrees) == \
            reference_genus_table(N, degrees), (N, degrees)


@pytest.mark.parametrize("N, max_darts", [(2, 8), (3, 9), (4, 8)])
def test_completions_equal_reference(N, max_darts):
    """The completion memo gives the histogram of building every sigma,
    for every cycle type of pi up to max_darts darts."""
    for cycle_type in partitions_upto(max_darts):
        cycle_type = tuple(sorted(cycle_type))
        assert oracle._completions(N, cycle_type) == \
            reference_completions(N, cycle_type), (N, cycle_type)


def test_completions_memo_is_bounded():
    """A crosscheck at the default dart cap (the benchmark's request)
    leaves at most one memo entry per partition of at most 12, however
    many tables it reads."""
    oracle._completions.cache_clear()
    assert run_crosscheck(build_config({}, N=(2, 3), g_max=1, n_max=1)).ok
    bound = len(list(partitions_upto(12)))
    assert bound == 272
    assert oracle._completions.cache_info().currsize <= bound


def test_anchor_values():
    assert enumerate_rhm(Profile(2, 0, (2,))) == 1
    assert enumerate_rhm(Profile(2, 0, (4,))) == 2
    assert enumerate_rhm(Profile(2, 1, (4,))) == 1
    assert enumerate_rhm(Profile(3, 0, (3,))) == 1
    assert enumerate_rhm(Profile(3, 1, (3,))) == 1


def test_closed_form_agreement():
    for N, cap in ((2, 12), (3, 9), (4, 8)):
        for k in range(cap):
            assert enumerate_rhm(Profile(N, 0, (k + 1,))) == \
                rhm01_closed(N, k), (N, k)


def test_closed_form_divisibility_zeros():
    assert rhm01_closed(2, 0) == 0
    assert rhm01_closed(2, 2) == 0
    assert rhm01_closed(3, 0) == 0
    assert rhm01_closed(3, 1) == 0


def test_degree_permutation_invariance():
    for degs in ((3, 2, 1), (1, 2, 3), (2, 3, 1)):
        assert enumerate_rhm(Profile(2, 0, degs)) == 12
    for degs in ((4, 1, 1), (1, 4, 1), (1, 1, 4)):
        assert enumerate_rhm(Profile(3, 0, degs)) == 24


def test_total_count_partition():
    # every transitive gluing lands in exactly one genus class: for
    # N=2, d=4 there are three pairings of the four darts, all
    # transitive against the canonical 4-cycle
    table = genus_table(2, (4,))
    assert sum(table.values()) == 3
    assert table == {0: 2, 1: 1}
    # N=3, d=3: both 3-cycles are transitive and split across genera
    table = genus_table(3, (3,))
    assert sum(table.values()) == 2
    assert table == {0: 1, 1: 1}


def test_indivisible_totals_vanish():
    assert enumerate_rhm(Profile(2, 0, (3,))) == 0
    assert enumerate_rhm(Profile(3, 1, (4,))) == 0


def test_cap_error():
    with pytest.raises(ValueError, match="oracle cap exceeded"):
        enumerate_rhm(Profile(2, 0, (14,)))
    assert enumerate_rhm(Profile(2, 0, (14,)), dart_cap=14) == \
        rhm01_closed(2, 13) == 429


def test_wrong_euler_accounting_is_caught():
    """Dropping the black faces from the Euler count must disagree with
    the closed form somewhere in the calibration window."""
    mismatches = 0
    for N, cap in ((2, 12), (3, 9), (4, 8)):
        for k in range(cap):
            want = rhm01_closed(N, k)
            wrong = _noblack_table(genus_table(N, (k + 1,)), (k + 1) // N)
            if wrong.get(0, 0) != want:
                mismatches += 1
    assert mismatches > 0


@pytest.mark.parametrize("N, degrees, wrong", [
    # enumerated directly with F = n in the Euler count
    (2, (4,), {1: 2, 2: 1}),
    (2, (2,), {}),
    (2, (3, 1), {1: 3}),
    (2, (2, 2, 2), {}),
    (3, (6,), {1: 3, 2: 25, 3: 12}),
    (3, (2, 2, 2), {1: 32, 2: 8}),
    (4, (4,), {}),
    (4, (4, 4), {1: 24, 2: 444, 3: 756}),
])
def test_noblack_table_pinned(N, degrees, wrong):
    table = genus_table(N, degrees)
    assert _noblack_table(table, sum(degrees) // N) == wrong
