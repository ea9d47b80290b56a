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
        lambda: _filled(checks._check_oracle_calibration, 12))


def test_crosscheck_keeps_the_dart_cap(monkeypatch):
    """No oracle table of a crosscheck is larger than the run's cap."""
    calls = _counting_genus_table(monkeypatch)
    cfg = build_config({}, N=(3,), g_max=1, n_max=1, dart_cap=3,
                       engines=("tau",))
    report = checks.run_crosscheck(cfg)
    assert report.ok
    assert calls
    assert max(sum(degrees) for _, degrees, *_ in calls) <= 3


def test_unstable_curve_enumerates_each_multiset_once():
    """One genus table per degree multiset serves both orders."""
    _builds_each_multiset_once(
        lambda: _filled(checks._check_unstable_curve, (2, 3), 12))


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
    enumerates its own tables under its own cap."""
    options = dict(N=(3,), g_max=1, n_max=1, engines=("tau",))
    assert checks.run_crosscheck(build_config({}, **options)).ok
    calls = _counting_genus_table(monkeypatch)
    report = checks.run_crosscheck(build_config({}, dart_cap=3, **options))
    assert report.ok
    assert calls
    assert max(sum(degrees) for _, degrees, _ in calls) <= 3
