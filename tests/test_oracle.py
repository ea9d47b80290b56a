import hashlib

import pytest
from oracle_reference import reference_completions, reference_genus_table

from hypermaps import oracle
from hypermaps.checks import (_noblack_table, run_crosscheck,
                              stable_profiles)
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
    # one face, two faces of one degree and a degree-1 face at 12 darts
    yield from ((2, (12,)), (2, (6, 6)), (2, (11, 1)))
    # five faces or more, where the inclusion-exclusion over blocks of
    # faces runs deepest
    yield from ((2, (1,) * 8), (2, (2, 2, 1, 1, 1, 1)), (2, (1,) * 10),
                (3, (1,) * 9), (3, (2, 2, 1, 1, 1, 1, 1)),
                (4, (1,) * 8), (4, (2, 1, 1, 1, 1, 1, 1)))


@pytest.mark.parametrize("N", range(2, 8))
def test_profile_rules_select_the_stable_grid(N):
    """Profile's two rules, 2g - 2 + n > 0 and N | darts, cut exactly
    stable_profiles' grid out of the box g <= 2, n <= 4, weight <= 12, in
    its order: total degree, then partition, then genus."""
    box = [(g, degrees) for degrees in partitions_upto(12)
           if 0 < len(degrees) <= 4 for g in range(3)]
    picked, by_formula = [], []
    for g, degrees in box:
        p = Profile(N, g, degrees)
        assert p.darts == sum(degrees)
        if p.stable and p.divisible:
            picked.append((g, degrees))
        if 2 * g - 2 + len(degrees) > 0 and sum(degrees) % N == 0:
            by_formula.append((g, degrees))
    assert picked == by_formula == stable_profiles(N, 2, 4, 12)


def test_max_genus_is_attained():
    """Every nonempty table with N = 2..4 and at most 10 darts ends at
    `Profile.max_genus`, (1 + d - F) // 2 with F = n + d/N: Euler's
    formula with V = 1."""
    tables = 0
    for N in (2, 3, 4):
        for d in range(N, 11, N):
            for degrees in partitions(d):
                table = genus_table(N, degrees)
                if table:
                    tables += 1
                    p = Profile(N, 0, degrees)
                    assert p.faces == len(degrees) + d // N
                    assert max(table) == p.max_genus, (N, degrees)
    assert tables == 135


def test_genus_table_equals_reference():
    """Subtracting the split gluings from the completion memo gives the
    tables of building and scanning every phi_b."""
    grid = list(_reference_grid())
    assert len(grid) == 218
    for N, degrees in grid:
        assert genus_table(N, degrees) == \
            reference_genus_table(N, degrees), (N, degrees)


@pytest.mark.parametrize("N, max_darts", [(2, 8), (3, 9), (4, 8), (5, 5), (6, 6)])
def test_completions_equal_reference(N, max_darts):
    """The completion memo gives the histogram of building every sigma,
    for every cycle type of pi up to max_darts darts."""
    for cycle_type in partitions_upto(max_darts):
        cycle_type = tuple(sorted(cycle_type))
        assert oracle._completions(N, cycle_type) == \
            reference_completions(N, cycle_type), (N, cycle_type)


def test_completions_pinned_beyond_N_3():
    """The completion histograms of every cycle type with at most two
    parts, up to 16 darts at N = 4, 15 at N = 5 and 12 at N = 6, hash to
    the sha256 of the enumeration that read each first black cycle
    through two closures and two cycle walks."""
    rows = []
    for N, cap in ((4, 16), (5, 15), (6, 12)):
        for d in range(N, cap + 1, N):
            for cycle_type in [(d,)] + [(a, d - a)
                                        for a in range(1, d // 2 + 1)]:
                rows.append((N, cycle_type,
                             oracle._completions(N, cycle_type)))
    assert len(rows) == 52
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "22051c2eff2180d118c76fdf010e214190c33b656995c9591a8d62091432fd92"


def test_completions_memo_is_bounded():
    """A crosscheck at the default dart cap (the benchmark's request)
    leaves at most one entry per partition of at most 12 in each memo,
    however many tables it reads."""
    oracle._completions.cache_clear()
    oracle._connected.cache_clear()
    assert run_crosscheck(build_config({}, N=(2, 3), g_max=1, n_max=1)).ok
    bound = len(list(partitions_upto(12)))
    assert bound == 272
    assert oracle._completions.cache_info().currsize <= bound
    assert oracle._connected.cache_info().currsize <= bound


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


def test_enumerate_builds_no_profile_of_its_own(monkeypatch):
    """A query reads the table through the caller's Profile: it builds
    and validates no second one, divisible or not, and the cap still
    refuses before the memo is read."""
    profiles = [Profile(2, 1, (4,)), Profile(3, 0, (2, 1, 3)),
                Profile(2, 0, (3,))]
    built = []
    post_init = Profile.__post_init__
    def counting(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(Profile, "__post_init__", counting)
    assert [enumerate_rhm(p) for p in profiles] == [1, 24, 0]
    with pytest.raises(ValueError, match="oracle cap exceeded"):
        enumerate_rhm(profiles[0], dart_cap=3)
    assert built == []


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
