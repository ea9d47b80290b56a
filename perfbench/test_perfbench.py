"""Tests of the benchmark's own arithmetic: percentiles, self time, hit
ratios, the scaling to the reference speed and the seeded query stream.
None of them runs the package."""
from __future__ import annotations

import json
import os
import sys
import threading
import time
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

import pytest

import measure
import run
import speed
import tracer
import workloads as wl


def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.5], 99) == 7.5
    assert measure.percentile([1, 2], 50) == 1
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.tail_resolved(1000, 99)
    assert measure.samples_beyond(999, 99) == 9
    assert not measure.tail_resolved(999, 99)
    assert not measure.tail_resolved(3, 99)
    # the p99 of 1000 samples has exactly ten larger samples
    values = list(range(1, 1001))
    p99 = measure.percentile(values, 99)
    assert sum(v > p99 for v in values) == 10


def test_spread_matches_statistics_quartiles():
    values = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4, 9.6, 10.0]
    # quartiles by the exclusive method: 9.75 and 10.25, median 10.0
    assert measure.spread(values) == pytest.approx(0.05)


def test_hit_ratios():
    assert measure.hit_ratio(3, 1) == 0.75
    assert measure.hit_ratio(0, 0) == 0.0
    t = tracer.Tracer()
    for key in ("a", "a", "b", "a"):
        t.see("layer.f", key)
    values = t.snapshot()["values"]
    assert (values["layer.f.hits"], values["layer.f.misses"]) == (2, 2)


def span(sid, start, end, parent=None, thread=1, name="checks.x"):
    return (sid, name, start, end, parent, thread)


def test_self_time_with_overlapping_thread_spans():
    spans = [
        span(1, 0.0, 10.0),                                   # root
        span(2, 1.0, 6.0, parent=1, thread=2, name="tau.a"),  # pool task
        span(3, 4.0, 9.0, parent=1, thread=3, name="tau.b"),  # pool task
        span(4, 2.0, 3.0, parent=2, thread=2, name="series.c"),
    ]
    selfs = tracer.self_times(spans)
    # the root is covered by its children from 1 to 9, overlap counted once
    assert selfs == {1: 2.0, 2: 4.0, 3: 5.0, 4: 1.0}
    layers = tracer.layer_self_times(spans)
    assert layers["checks"] == 2.0 and layers["tau"] == 9.0
    # summed self time = root wall + the time the two tasks overlapped
    overlap = (5.0 + 5.0) - tracer.union_length([(1.0, 6.0), (4.0, 9.0)])
    assert sum(selfs.values()) == 10.0 + overlap


def test_child_clipped_to_parent_interval():
    spans = [span(1, 0.0, 4.0), span(2, 3.0, 6.0, parent=1, thread=2)]
    assert tracer.self_times(spans)[1] == 3.0


def test_exclusive_time_counts_nested_spans_once():
    spans = [
        span(1, 0.0, 10.0, name="recursion.omega"),
        span(2, 1.0, 4.0, parent=1, name="series.uni_mul"),
        span(3, 2.0, 3.0, parent=2, name="recursion.omega"),
        span(4, 12.0, 13.0, name="recursion.omega"),
    ]
    assert tracer.exclusive_time(spans, ["recursion.omega"]) == 11.0
    assert tracer.exclusive_time(spans, ["series.uni_mul"]) == 3.0
    assert [s[0] for s in tracer.subtree(spans, "series.uni_mul")] == [2, 3]


def test_tracer_attributes_pool_work_to_the_submitting_span():
    t = tracer.Tracer()
    leaf = t.span("tau.leaf", lambda x: x + 1)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in
                    [pool.submit(leaf, i) for i in range(4)]]

    assert t.span("checks.outer", outer)() == [1, 2, 3, 4]
    spans = t.snapshot()["spans"]
    root = [s for s in spans if s[1] == "checks.outer"][0]
    leaves = [s for s in spans if s[1] == "tau.leaf"]
    assert len(leaves) == 4 and all(s[4] == root[0] for s in leaves)
    assert root[4] is None


def test_counter_loses_no_calls_across_threads():
    t = tracer.Tracer()
    counted = t.count("numfield.mul_calls", lambda: None)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: [counted() for _ in range(5000)])
            for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert t.snapshot()["values"]["numfield.mul_calls"] == 8 * 5000


def test_rebind_reaches_aliases_and_imported_names():
    home = types.ModuleType("pkg.home")

    class Elem:
        def __add__(self, other):
            return 1
        __radd__ = __add__

    Elem.__module__ = home.__name__
    home.Elem = Elem
    user = types.ModuleType("pkg.user")
    user.add = home.add = Elem.__add__
    original = Elem.__dict__["__add__"]
    n = tracer.rebind([home, user], original, lambda self, other: 2)
    assert n == 4
    assert Elem() + Elem() == 2 and Elem().__radd__(0) == 2


def probe_with(samples):
    probe = speed.SpeedProbe()
    for when, cost in samples:
        probe.record(when, cost)
    return probe


def test_scale_uses_the_samples_around_the_interval():
    ref = speed.REFERENCE_S
    # the machine runs at half speed from t = 10 on
    probe = probe_with([(t / 10, ref if t < 100 else 2 * ref)
                        for t in range(200)])
    assert probe.scale(2.0, 6.0) == pytest.approx(4.0)
    assert probe.scale(12.0, 16.0) == pytest.approx(2.0)
    # an interval of one millisecond is scaled by its neighbourhood
    assert probe.scale(15.0, 15.001, 0.002) == pytest.approx(0.001)
    # the samples within PAD_S of an interval straddling the change
    window = [t / 10 for t in range(200)
              if 10 - speed.PAD_S <= t / 10 <= 10 + speed.PAD_S]
    mean = sum(ref if w < 10 else 2 * ref for w in window) / len(window)
    assert probe.factor(10.0, 10.0) == pytest.approx(ref / mean)


def test_scale_falls_back_to_the_nearest_samples():
    ref = speed.REFERENCE_S
    probe = probe_with([(0.0, ref), (1.0, ref), (2.0, 2 * ref),
                        (3.0, 2 * ref), (4.0, 2 * ref)])
    # nothing within PAD_S of t = 30: the last MIN_SAMPLES samples
    assert probe.factor(30.0, 30.1) == pytest.approx(0.5)
    assert probe.factor(-9.0, -8.0) == pytest.approx(3 / 4)
    with pytest.raises(ValueError):
        speed.SpeedProbe().factor(0.0, 1.0)


def test_running_cpu_reads_the_core_of_a_process():
    here = speed.running_cpu([os.getpid()])
    assert here in os.sched_getaffinity(0)
    assert speed.running_cpu([]) is None
    # a pid that names no process
    assert speed.running_cpu([2 ** 22 + 1]) is None


def test_speed_probe_samples_until_stopped():
    probe = speed.SpeedProbe(period=0.01,
                             follow=lambda: [os.getpid()]).start()
    deadline = time.perf_counter() + 10
    while len(probe.times) < 3 and time.perf_counter() < deadline:
        time.sleep(0.01)
    probe.stop()
    taken = len(probe.times)
    assert taken >= 3 and all(c > 0 for c in probe.costs)
    assert probe.times == sorted(probe.times)
    time.sleep(0.05)
    assert len(probe.times) == taken


def grid_points():
    return [(N, g, d) for N, W in wl.STREAM_GRID for g in (0, 1)
            for d in ((W,), (2, 2, W - 4)) if 2 * g - 2 + len(d) > 0]


def test_stream_is_fixed_by_its_seed():
    points = grid_points()
    first = list(islice(wl.query_stream(points, 7), 500))
    assert first == list(islice(wl.query_stream(points, 7), 500))
    assert first != list(islice(wl.query_stream(points, 8), 500))
    # the order of the points handed in does not matter
    assert first == list(islice(wl.query_stream(points[::-1], 7), 500))


def test_stream_rounds_keep_the_engine_mix():
    points = grid_points()
    deck = wl.query_deck(points)
    round_ = list(islice(wl.query_stream(points, 3), len(deck)))
    assert Counter(round_) == Counter(deck)
    weights = dict(wl.ENGINE_WEIGHTS)
    mix = Counter(q[3] for q in deck)
    eligible = sum(sum(d) <= wl.ORACLE_MAX_DARTS for _, _, d in points)
    assert mix["tr"] == weights["tr"] * len(points)
    assert mix["tau"] == weights["tau"] * len(points)
    assert mix["oracle"] == weights["oracle"] * eligible
    assert all(sum(q[2]) <= wl.ORACLE_MAX_DARTS
               for q in deck if q[3] == "oracle")


def test_cold_loop_issues_at_least_the_minimum():
    assert run.cold_loop(0.0, lambda: 1.0) == [1.0]
    assert run.cold_loop(0.0, lambda: 1.0, at_least=3) == [1.0] * 3


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    import compare

    def result(name, backend):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "tau_deep", "trace": 0,
            "env": {"backend": backend}, "metrics": {"wall_s": 5.0}}))
        return str(path)

    mpq = result("a.json", "gmpy2.mpq")
    frac = result("b.json", "fractions.Fraction")
    assert compare.main([mpq, "--against", frac]) == 2
    assert "refusing" in capsys.readouterr().err
    assert compare.main([mpq, "--against", result("c.json", "gmpy2.mpq")]) \
        == 0
