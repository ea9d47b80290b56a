from collections import Counter

import pytest

from hypermaps import checks
from hypermaps.config import build_config
from hypermaps.report import Report


@pytest.fixture
def builds(monkeypatch):
    """Count the Recursion objects the crosscheck builds, per N."""
    counts = Counter()

    class CountingRecursion(checks.Recursion):
        def __init__(self, N, *args, **kwargs):
            counts[N] += 1
            super().__init__(N, *args, **kwargs)

    monkeypatch.setattr(checks, "Recursion", CountingRecursion)
    return counts


def _zn_covariance(report):
    return {r.inputs["N"]: r.verdict for r in report.records
            if r.check_id == "curve.zn_covariance"}


def test_crosscheck_builds_one_recursion_per_N(builds):
    cfg = build_config({}, N=(2, 3), g_max=1, n_max=1, weight_cap=6)
    report = checks.run_crosscheck(cfg)
    assert report.ok
    assert builds == {2: 1, 3: 1}
    assert _zn_covariance(report) == {2: "pass", 3: "pass"}


@pytest.mark.parametrize("overrides, per_N", [
    # no tr engine: the curve check builds the only Recursion
    ({"engines": ("oracle", "tau"), "g_max": 1, "n_max": 1}, 1),
])
def test_curve_check_fallback_recursion(builds, overrides, per_N):
    cfg = build_config({}, N=(2, 3), weight_cap=6, **overrides)
    report = checks.run_crosscheck(cfg)
    assert report.ok
    assert builds == {2: per_N, 3: per_N}
    assert _zn_covariance(report) == {2: "pass", 3: "pass"}


def _counting_genus_table(monkeypatch):
    """Record the arguments of every oracle table the checks read."""
    calls = []
    genus_table = checks.oracle.genus_table

    def counting(*args):
        calls.append(args)
        return genus_table(*args)

    monkeypatch.setattr(checks.oracle, "genus_table", counting)
    return calls


def _grid_and_sweeps(calls):
    """Split recorded table reads: the grid passes the request's dart
    cap, the fixed self-checks read their sweeps under the oracle's
    default."""
    return ([args for args in calls if len(args) == 3],
            [args for args in calls if len(args) == 2])


def _builds_each_multiset_once(check):
    """Run `check` (a function filling a report) twice from an empty
    table memo: every histogram the first run builds is stored, the
    second builds none, and every record of both runs passes."""
    connected = checks.oracle._connected
    connected.cache_clear()
    report = check()
    info = connected.cache_info()
    assert info.misses == info.currsize > 0
    again = check()
    assert connected.cache_info().misses == info.misses
    assert report.records and report.ok
    assert again.records and again.ok


def _filled(check, *args):
    report = Report({})
    check(report, *args)
    return report


def test_calibration_enumerates_each_table_once():
    """One genus table per calibration step serves both the right and the
    deliberately wrong Euler accounting."""
    _builds_each_multiset_once(
        lambda: _filled(checks._check_oracle_calibration))


def test_crosscheck_keeps_the_dart_cap(monkeypatch):
    """The grid reads its oracle tables under the run's cap, while the
    fixed sweeps read their whole tables, up to the oracle's default."""
    calls = _counting_genus_table(monkeypatch)
    cfg = build_config({}, N=(3,), g_max=1, n_max=1, weight_cap=4,
                       dart_cap=3, engines=("oracle", "tau"))
    report = checks.run_crosscheck(cfg)
    assert report.ok
    grid, sweeps = _grid_and_sweeps(calls)
    assert grid == [(3, (3,), 3)]
    assert max(sum(degrees) for _, degrees in sweeps) \
        == checks.oracle.DEFAULT_DART_CAP


def test_unstable_curve_enumerates_each_multiset_once():
    """One genus table per degree multiset serves both orders."""
    _builds_each_multiset_once(
        lambda: _filled(checks._check_unstable_curve, (2, 3)))


@pytest.mark.parametrize("options", [
    # the benchmark's crosscheck request
    dict(N=(2, 3), g_max=1, n_max=1),
    # the three-way check asks for (5, 1), (4, 2) and (3, 3), which the
    # unstable check has read in ascending order
    dict(N=(3,), g_max=1, n_max=2, weight_cap=6, engines=("oracle",)),
])
def test_crosscheck_enumerates_each_multiset_once(options):
    """A crosscheck builds one oracle histogram per (N, sorted degrees),
    and a second identical crosscheck builds none."""
    cfg = build_config({}, **options)
    _builds_each_multiset_once(lambda: checks.run_crosscheck(cfg))


def test_tables_do_not_outlive_the_request(monkeypatch):
    """A small-cap crosscheck after a default-cap one in the same process
    reads its grid under its own cap, and the same whole sweeps."""
    options = dict(N=(3,), g_max=1, n_max=1, weight_cap=4,
                   engines=("oracle", "tau"))
    calls = _counting_genus_table(monkeypatch)
    assert checks.run_crosscheck(build_config({}, **options)).ok
    wide_grid, wide_sweeps = _grid_and_sweeps(calls)
    calls.clear()
    report = checks.run_crosscheck(build_config({}, dart_cap=3, **options))
    assert report.ok
    grid, sweeps = _grid_and_sweeps(calls)
    assert wide_grid == [(3, (3,), 12)]
    assert grid == [(3, (3,), 3)]
    assert sweeps == wide_sweeps


def test_short_dart_cap_keeps_the_unstable_sweeps(monkeypatch):
    """`--weight-cap 4 --dart-cap 2 --engine tr,tau` passes and compares
    every unstable value: all 9 of (0, 1) and all 25 of (0, 2) at each
    of N = 2, 3 and 4."""
    compared = Counter()
    for name in ("unstable01", "unstable02"):
        def recording(N, *ks, name=name, original=getattr(checks.frobenius,
                                                          name)):
            compared[name, N] += 1
            return original(N, *ks)

        monkeypatch.setattr(checks.frobenius, name, recording)
    cfg = build_config({}, N=(2,), g_max=1, n_max=1, weight_cap=4,
                       dart_cap=2, engines=("tr", "tau"))
    report = checks.run_crosscheck(cfg)
    assert report.ok
    assert compared == {(name, N): count for N in (2, 3, 4)
                        for name, count in (("unstable01", 9),
                                            ("unstable02", 25))}


def test_a_raising_check_is_one_error_record(monkeypatch):
    """A check that raises leaves one error record named after it, and
    every record of the other checks is still there."""
    cfg = build_config({}, N=(2, 3), g_max=1, n_max=1)
    whole = checks.run_crosscheck(cfg)

    def broken(N):
        raise RuntimeError("no psi today")

    monkeypatch.setattr(checks.frobenius, "psi_orthogonality_defect",
                        broken)
    report = checks.run_crosscheck(cfg)

    errors = [r for r in report.records if r.verdict == "error"]
    assert [(r.check_id, r.inputs, r.values) for r in errors] == [
        ("frame", {}, {"error": "RuntimeError: no psi today"})]

    def others(records):
        return [(r.check_id, r.inputs, r.verdict) for r in records
                if not r.check_id.startswith("frame")]

    assert others(report.records) == others(whole.records)


@pytest.mark.parametrize("options, profiles, records", [
    (dict(N=(4, 5, 6, 7), g_max=1, n_max=3),
     {4: 20, 5: 29, 6: 10, 7: 12}, 48),
    (dict(N=(4, 5, 6), g_max=2, n_max=1), {4: 4, 5: 4, 6: 2}, 44),
])
def test_engines_agree_beyond_N_3(builds, options, profiles, records):
    """The oracle, TR and tau agree on every profile at N = 4..7, with one
    Recursion per N, and every other check passes too."""
    report = checks.run_crosscheck(build_config({}, **options))
    assert [r.check_id for r in report.records if r.verdict != "pass"] \
        == []
    assert len(report.records) == records
    assert {r.inputs["N"]: r.inputs["profiles"] for r in report.records
            if r.check_id == "rhm.three_way"} == profiles
    assert builds == {N: 1 for N in options["N"]}
