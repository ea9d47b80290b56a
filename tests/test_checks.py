from collections import Counter

import pytest

from hypermaps import checks
from hypermaps.config import build_config


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
    # expansion order below omega_{0,3}: the curve check builds its own
    ({"g_max": 0, "n_max": 1}, 2),
])
def test_curve_check_fallback_recursion(builds, overrides, per_N):
    cfg = build_config({}, N=(2, 3), weight_cap=6, **overrides)
    report = checks.run_crosscheck(cfg)
    assert report.ok
    assert builds == {2: per_N, 3: per_N}
    assert _zn_covariance(report) == {2: "pass", 3: "pass"}
