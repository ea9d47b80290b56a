"""Benchmark of the hypermaps package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is run from the src/ directory of the checkout that holds this
file; nothing is installed.  Every request is issued by one client after
the previous one has completed (closed loop), and every answer is checked
against the reference outputs in perfbench/reference/.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print the same metrics with units
and sample counts, the failure ratio and the environment.  The command
exits 1 when any answer is wrong, 2 when the package is not there.

Workloads (the seed orders rhm_stream's queries; the cold jobs are fixed):
  crosscheck_cold  `hypermaps crosscheck` (see workloads.CROSSCHECK_ARGS)
                   in a fresh interpreter with a fresh, empty tensor cache,
                   repeated until --seconds have passed.
  rhm_stream       one server process with warm engines answering a seeded
                   stream of count queries for --seconds.
  tau_deep         tau_Z(2, 12), its log, every stable count of weight <= 12
                   with g <= 3 and n <= 4, pluecker_check(2, 9), in a fresh
                   interpreter, three times and then until --seconds have
                   passed.

End-to-end metrics (--trace 0), the same names on every workload; a
request is one job for the cold workloads and one query for rhm_stream.
Every time is scaled to the reference speed by speed.SpeedProbe, which
samples the machine's speed all through the run:
  wall_s       median time from starting a fresh process to its first
               verified answer (rhm_stream: set-up plus one query)
  setup_s      median time from starting a fresh process to ready for its
               first request, over several cold starts per run
  qps          requests answered per second: the median over the run's
               requests (cold) or rounds of the query stream (rhm_stream)
  p50_ms       median request latency (midpoint of the middle two when
               the count is even)
  p99_ms       99th percentile request latency (nearest rank); below 1000
               requests it is the slowest request, and is printed so
  peak_rss_mb  peak resident memory of the largest process of the run

Per-layer metrics (--trace 1) come from spans recorded around the calls
into each module of the package (tracer.py); PER_LAYER lists them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure
import speed
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".perfbench_work"
WORKER = str(BENCH / "worker.py")

# a run must end within 180 s; children still running at this point are
# killed and counted as failed
RUN_LIMIT_S = 165
# the first rhm_stream run in a checkout also fills the tensor cache
FILL_LIMIT_S = 600

WORKLOADS = ("crosscheck_cold", "rhm_stream", "tau_deep")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("qps", "1/s"),
              ("p50_ms", "ms"), ("p99_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("numfield.mul_calls", "count", "lower"),
    ("numfield.add_calls", "count", "lower"),
    ("numfield.inv_calls", "count", "lower"),
    ("series.uni_mul_s", "s", "lower"),
    ("series.uni_mul_calls", "count", "lower"),
    ("series.uni_inv_s", "s", "lower"),
    ("series.uni_pow_s", "s", "lower"),
    ("series.uni_compose_s", "s", "lower"),
    ("series.lagrange_invert_s", "s", "lower"),
    ("series.multi_mul_s", "s", "lower"),
    ("series.multi_log_s", "s", "lower"),
    ("series.eps_mul_calls", "count", "lower"),
    ("series.self_s", "s", "lower"),
    ("recursion.omega_s", "s", "lower"),
    ("recursion.omega_calls", "count", "lower"),
    ("recursion.omega_hit_ratio", "ratio", "higher"),
    ("recursion.deck_series_s", "s", "lower"),
    ("recursion.rhm_from_tr_s", "s", "lower"),
    ("recursion.rhm_from_tr_calls", "count", "higher"),
    ("recursion.rhm_from_tr_p50_ms", "ms", "lower"),
    ("recursion.tensor_cache_bytes", "bytes", "lower"),
    ("recursion.self_s", "s", "lower"),
    ("tau.tau_Z_s", "s", "lower"),
    ("tau.log_s", "s", "lower"),
    ("tau.rhm_from_tau_s", "s", "lower"),
    ("tau.rhm_from_tau_p50_ms", "ms", "lower"),
    ("tau.coefficient_A_hit_ratio", "ratio", "higher"),
    ("tau.schur_special_hit_ratio", "ratio", "higher"),
    ("tau.self_s", "s", "lower"),
    ("partitions.character_calls", "count", "lower"),
    ("partitions.character_s", "s", "lower"),
    ("partitions.character_hit_ratio", "ratio", "higher"),
    ("partitions.self_s", "s", "lower"),
    ("oracle.genus_table_s", "s", "lower"),
    ("oracle.genus_table_calls", "count", "lower"),
    ("oracle.distinct_table_ratio", "ratio", "higher"),
    ("oracle.perms_enumerated", "count", "lower"),
    ("oracle.enumerate_rhm_p50_ms", "ms", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("pluecker.check_s", "s", "lower"),
    ("pluecker.relations_checked", "count", "higher"),
    ("pluecker.relations_skipped", "count", "lower"),
    ("pluecker.checked_ratio", "ratio", "higher"),
    ("pluecker.self_s", "s", "lower"),
    ("frobenius.gates_s", "s", "lower"),
    ("frobenius.self_s", "s", "lower"),
    ("checks.run_crosscheck_s", "s", "lower"),
    ("checks.self_s", "s", "lower"),
    ("checks.busy_over_wall", "ratio", "higher"),
    ("checks.thread_speedup", "ratio", "higher"),
    ("report.emit_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("report.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class BenchError(Exception):
    """The run cannot produce a result."""


class Child:
    """One process of the package under test, timed from its start."""

    def __init__(self, runner, argv, limit):
        self.runner = runner
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                     env=runner.env, stdout=subprocess.PIPE)
        runner.live.append(self)
        self.timer = threading.Timer(max(limit, 1.0), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def line(self):
        """Next JSON line from the child (None at end of output) and the
        seconds since the child was started, at the reference speed."""
        raw = self.proc.stdout.readline()
        when = self.runner.scaled(self.start, time.perf_counter())
        return (json.loads(raw) if raw.strip() else None), when

    def scaled_wall(self):
        """Start to exit of the finished child at the reference speed."""
        return self.runner.scaled(self.start, self.end)

    def finish(self):
        """Remaining output, exit code and wall seconds; records the
        child's peak resident memory."""
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self.end = self.start + wall
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        self.runner.live.remove(self)
        # ru_maxrss is in kilobytes on Linux
        self.runner.peak_rss_kb = max(self.runner.peak_rss_kb,
                                      usage.ru_maxrss)
        return out, self.proc.returncode, wall


class Runner:
    """Starts, times and stops the processes of one benchmark run."""

    def __init__(self):
        env = dict(os.environ)
        env.pop("HYPERMAPS_CACHE_DIR", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env
        self.live = []
        self.peak_rss_kb = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.env_info = None
        self.notes = []
        self.raw = {}
        self._fresh = 0
        self.speed = speed.SpeedProbe(
            follow=lambda: [child.proc.pid for child in list(self.live)])
        self.measured_s = 0.0
        self.scaled_s = 0.0

    def scaled(self, t0, t1, measured=None):
        """Seconds measured over [t0, t1] (default t1 - t0) at the
        reference speed (speed.py); keeps the totals for the report."""
        if measured is None:
            measured = t1 - t0
        out = self.speed.scale(t0, t1, measured)
        self.measured_s += measured
        self.scaled_s += out
        return out

    def start(self, *argv):
        return Child(self, argv, self.deadline - time.perf_counter())

    def tally(self, ok, n=1):
        self.attempted += n
        self.failed += 0 if ok else n

    def stop_all(self):
        for child in list(self.live):
            child.proc.kill()
            child.finish()
        self.speed.stop()

    def fresh_dir(self, tag):
        self._fresh += 1
        path = WORK / f"{tag}-{os.getpid()}-{self._fresh}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # -- cold starts -------------------------------------------------------

    def probes(self, n):
        """n cold starts that only import the package; returns the
        seconds to ready and records the environment."""
        times = []
        for _ in range(n):
            child = self.start(WORKER, "probe")
            msg, when = child.line()
            _, rc, _ = child.finish()
            if rc != 0 or not msg:
                raise BenchError("the package does not import")
            self.env_info = msg["env"]
            times.append(when)
        return times

    # -- crosscheck_cold ---------------------------------------------------

    def crosscheck(self, threads, trace=None):
        """One cold crosscheck; returns its wall seconds and the bytes it
        left in its tensor cache."""
        cache = self.fresh_dir("cold")
        args = [*wl.CROSSCHECK_ARGS, "--threads", str(threads),
                "--cache-dir", str(cache)]
        if trace is None:
            child = self.start("-m", "hypermaps.cli", *args)
        else:
            child = self.start(WORKER, "crosscheck", "--trace", str(trace),
                               "--", *args)
        out, rc, _ = child.finish()
        wall = child.scaled_wall()
        digest = hashlib.sha256(out).hexdigest()
        want = reference("crosscheck_cold")["sha256"]
        ok = rc == 0 and digest == want
        if not ok:
            self.notes.append(f"crosscheck exit {rc}, report sha256 "
                              f"{digest} (reference {want})")
        self.tally(ok)
        size = dir_bytes(cache)
        shutil.rmtree(cache, ignore_errors=True)
        return wall, size

    # -- tau_deep ----------------------------------------------------------

    def tau_deep(self, trace=None):
        argv = [WORKER, "tau_deep"]
        if trace is not None:
            argv += ["--trace", str(trace)]
        child = self.start(*argv)
        msg, _ = child.line()
        _, rc, _ = child.finish()
        wall = child.scaled_wall()
        want = reference("tau_deep")
        ok = rc == 0 and msg is not None and msg == want
        if not ok:
            self.notes.append(f"tau_deep exit {rc}, output differs from "
                              "the reference")
        self.tally(ok)
        return wall

    # -- rhm_stream --------------------------------------------------------

    def stream_cache(self):
        """Tensor cache for the stream grid, filled once per version of
        the package source and reused by later runs."""
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src" / "hypermaps").glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digest.update(repr((wl.STREAM_GRID, wl.STREAM_G_MAX,
                            wl.STREAM_N_MAX)).encode())
        final = WORK / f"tensors-{digest.hexdigest()[:16]}"
        if (final / "complete").exists():
            return final
        tmp = self.fresh_dir("tensors-fill")
        began, peak = time.perf_counter(), self.peak_rss_kb
        child = Child(self, [WORKER, "fill-cache", str(tmp)], FILL_LIMIT_S)
        _, rc, _ = child.finish()
        self.peak_rss_kb = peak
        if rc != 0:
            raise BenchError("filling the stream's tensor cache failed")
        (tmp / "complete").write_text("")
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
        # filling is a one-off build step, not part of the run's budget
        self.deadline += time.perf_counter() - began
        return final

    def stream(self, cache, seed, seconds, trace=None, probe=False):
        """One server process; returns its seconds to ready, to its first
        answer, and the stream's result."""
        argv = [WORKER, "stream", str(cache),
                str(REFERENCE / "rhm_stream.json"), "--seed", str(seed),
                "--seconds", str(seconds)]
        if probe:
            argv.append("--probe")
        if trace is not None:
            argv += ["--trace", str(trace)]
        child = self.start(*argv)
        ready, setup = child.line()
        result, answered = child.line()
        _, rc, _ = child.finish()
        if rc != 0 or not ready or not result:
            self.tally(False)
            raise BenchError(f"stream server exited with {rc}")
        self.env_info = ready["env"]
        # every query at the reference speed, and the stream's rounds
        starts, measured = result["starts"], result["latencies_ms"]
        result["latencies_ms"] = lat = [
            self.scaled(t, t + ms / 1e3, ms / 1e3) * 1e3
            for t, ms in zip(starts, measured)]
        # queries per second of every whole round, or of the whole
        # stream when it ended within its first round
        size = result["round_size"]
        edges = starts[::size]
        result["rates"] = [size / self.scaled(a, b)
                           for a, b in zip(edges, edges[1:])] or [
            len(lat) / self.scaled(starts[0],
                                   starts[-1] + measured[-1] / 1e3)]
        self.tally(True, len(lat) - result["failed"])
        self.tally(False, result["failed"])
        if result["failed"]:
            self.notes.append(f"{result['failed']} stream answers differ "
                              "from the reference")
        return setup, answered, result


def reference(name):
    with open(REFERENCE / f"{name}.json") as fh:
        return json.load(fh)


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*")
               if p.is_file())


def cold_loop(seconds, request, at_least=1):
    """Issue requests back to back: `at_least` of them, then more while
    the next one, taking as long as the last, would end within `seconds`.
    Returns the latencies `request` reports, in seconds."""
    began = time.perf_counter()
    walls, last = [], 0.0
    while len(walls) < at_least or \
            time.perf_counter() - began + last <= seconds:
        start = time.perf_counter()
        walls.append(request())
        last = time.perf_counter() - start
    return walls


def latency_metrics(lat_ms, block_rates):
    """qps is the median over blocks of the run (one request, or one
    round of the query stream) of the block's requests per second."""
    n = len(lat_ms)
    return {"qps": statistics.median(block_rates),
            "p50_ms": statistics.median(lat_ms),
            "p99_ms": measure.percentile(lat_ms, 99)}, n


# -- workloads, --trace 0 ---------------------------------------------------


def run_cold(runner, seconds, request, at_least=1):
    setups = runner.probes(wl.SETUP_PROBES)
    walls = cold_loop(seconds, request, at_least)
    lat, n = latency_metrics([w * 1e3 for w in walls],
                             [1 / w for w in walls])
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups), **lat,
               "peak_rss_mb": runner.peak_rss_kb / 1024}
    counts = {"wall_s": n, "setup_s": len(setups), "qps": n, "p50_ms": n,
              "p99_ms": n, "peak_rss_mb": n + len(setups)}
    runner.raw.update(request_s=walls, setup_s=setups)
    return metrics, counts, {}


def crosscheck_cold(runner, seed, seconds):
    return run_cold(runner, seconds,
                    lambda: runner.crosscheck(wl.CROSSCHECK_THREADS)[0])


def tau_deep(runner, seed, seconds):
    return run_cold(runner, seconds, runner.tau_deep, wl.TAU_MIN_REQUESTS)


def rhm_stream(runner, seed, seconds):
    cache = runner.stream_cache()
    setups, walls = [], []
    for _ in range(wl.SETUP_PROBES - 1):
        setup, answered, _ = runner.stream(cache, seed, 0, probe=True)
        setups.append(setup)
        walls.append(answered)
    setup, _, result = runner.stream(cache, seed, seconds)
    setups.append(setup)
    lat = result["latencies_ms"]
    runner.raw.update(setup_s=setups, first_answer_s=walls)
    rates = result["rates"]
    stream, n = latency_metrics(lat, rates)
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups), **stream,
               "peak_rss_mb": runner.peak_rss_kb / 1024}
    counts = {"wall_s": len(walls), "setup_s": len(setups),
              "qps": len(rates),
              "p50_ms": n, "p99_ms": n, "peak_rss_mb": len(setups)}
    info = {"repeated_query_share": measure.ratio(result["repeated"], n)}
    return metrics, counts, info


# -- workloads, --trace 1 ---------------------------------------------------


def traced_crosscheck_cold(runner, seed, seconds):
    runner.probes(1)
    t1, _ = runner.crosscheck(1)
    t2, _ = runner.crosscheck(wl.CROSSCHECK_THREADS)
    path = trace_path("crosscheck_cold")
    traced, cache_bytes = runner.crosscheck(wl.CROSSCHECK_THREADS, path)
    metrics, info = layer_metrics(path, {
        "recursion.tensor_cache_bytes": cache_bytes,
        "checks.thread_speedup": t1 / t2,
        "trace.overhead_ratio": traced / t2})
    return metrics, info


def traced_tau_deep(runner, seed, seconds):
    runner.probes(1)
    plain = runner.tau_deep()
    path = trace_path("tau_deep")
    traced = runner.tau_deep(path)
    return layer_metrics(path, {"trace.overhead_ratio": traced / plain})


def traced_rhm_stream(runner, seed, seconds):
    cache = runner.stream_cache()
    half = seconds / 2
    _, _, plain = runner.stream(cache, seed, half)
    path = trace_path("rhm_stream")
    _, _, traced = runner.stream(cache, seed, half, trace=path)

    def mean_ms(result):
        return sum(result["latencies_ms"]) / len(result["latencies_ms"])

    return layer_metrics(path, {
        "recursion.tensor_cache_bytes": dir_bytes(cache),
        "trace.overhead_ratio": mean_ms(traced) / mean_ms(plain)})


def trace_path(workload):
    """Where the traced job writes its spans; emptied first, so a job
    that writes nothing cannot pass off an older trace."""
    path = WORK / "traces" / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    return path


def layer_metrics(path, extra):
    """Per-layer metrics from one traced job, plus lines to print."""
    if not path.exists():
        raise BenchError("the traced job wrote no trace")
    spans, values = tracer.load(path)

    def excl(*names):
        return float(tracer.exclusive_time(spans, names))

    def calls(name):
        return len(tracer.durations(spans, name))

    def p50_ms(name):
        d = tracer.durations(spans, name)
        return statistics.median(d) * 1e3 if d else 0.0

    def hits(name):
        return measure.hit_ratio(values.get(name + ".hits", 0),
                                 values.get(name + ".misses", 0))

    selfs = tracer.layer_self_times(spans)
    checked = values.get("pluecker.relations_checked", 0)
    skipped = values.get("pluecker.relations_skipped", 0)
    table_calls = calls("oracle.genus_table")
    three_way = [(s[2], s[3]) for s in spans if s[1] == "checks.three_way"]
    three_way_busy = sum(e - s for s, e in three_way)
    three_way_wall = tracer.union_length(three_way)
    m = {
        "numfield.mul_calls": values.get("numfield.mul_calls", 0),
        "numfield.add_calls": values.get("numfield.add_calls", 0),
        "numfield.inv_calls": values.get("numfield.inv_calls", 0),
        "series.uni_mul_s": excl("series.uni_mul"),
        "series.uni_mul_calls": calls("series.uni_mul"),
        "series.uni_inv_s": excl("series.uni_inv"),
        "series.uni_pow_s": excl("series.uni_pow"),
        "series.uni_compose_s": excl("series.uni_compose"),
        "series.lagrange_invert_s": excl("series.lagrange_invert"),
        "series.multi_mul_s": excl("series.multi_mul"),
        "series.multi_log_s": excl("series.multi_log"),
        "series.eps_mul_calls": values.get("series.eps_mul_calls", 0),
        "recursion.omega_s": excl("recursion.omega"),
        "recursion.omega_calls": calls("recursion.omega"),
        "recursion.omega_hit_ratio": hits("recursion.omega"),
        "recursion.deck_series_s": excl("recursion.deck_series"),
        "recursion.rhm_from_tr_s": excl("recursion.rhm_from_tr"),
        "recursion.rhm_from_tr_calls": calls("recursion.rhm_from_tr"),
        "recursion.rhm_from_tr_p50_ms": p50_ms("recursion.rhm_from_tr"),
        "recursion.tensor_cache_bytes": 0,
        "tau.tau_Z_s": excl("tau.tau_Z"),
        "tau.log_s": excl("tau.log"),
        "tau.rhm_from_tau_s": excl("tau.rhm_from_tau"),
        "tau.rhm_from_tau_p50_ms": p50_ms("tau.rhm_from_tau"),
        "tau.coefficient_A_hit_ratio": hits("tau.coefficient_A"),
        "tau.schur_special_hit_ratio": hits("tau.schur_special"),
        "partitions.character_calls": calls("partitions.character"),
        "partitions.character_s": excl("partitions.character"),
        "partitions.character_hit_ratio": hits("partitions.character"),
        "oracle.genus_table_s": excl("oracle.genus_table"),
        "oracle.genus_table_calls": table_calls,
        "oracle.distinct_table_ratio": measure.ratio(
            values.get("oracle.genus_table.misses", 0), table_calls),
        "oracle.perms_enumerated": values.get("oracle.perms_enumerated", 0),
        "oracle.enumerate_rhm_p50_ms": p50_ms("oracle.enumerate_rhm"),
        "pluecker.check_s": excl("pluecker.check"),
        "pluecker.relations_checked": checked,
        "pluecker.relations_skipped": skipped,
        "pluecker.checked_ratio": measure.ratio(checked, checked + skipped),
        "frobenius.gates_s": excl(*("frobenius." + g
                                    for g in tracer.FROBENIUS_GATES)),
        "checks.run_crosscheck_s": excl("checks.run_crosscheck"),
        "checks.busy_over_wall": measure.ratio(three_way_busy,
                                               three_way_wall),
        "checks.thread_speedup": 0.0,
        "report.emit_s": excl("report.emit"),
        "report.bytes": values.get("report.bytes", 0),
        "trace.overhead_ratio": 0.0,
    }
    for layer, seconds in selfs.items():
        if layer != "numfield":
            m[f"{layer}.self_s"] = seconds
    m.update(extra)
    info = {"spans": len(spans)}
    inside = tracer.subtree(spans, "checks.run_crosscheck")
    if inside:
        # every layer's self time inside run_crosscheck, summed, is the
        # span's wall time plus the time the pool's tasks overlapped
        info["crosscheck_self_sum_s"] = sum(
            tracer.layer_self_times(inside).values())
        info["crosscheck_wall_plus_overlap_s"] = (
            m["checks.run_crosscheck_s"] + three_way_busy - three_way_wall)
    return m, info


RUNS = {
    ("crosscheck_cold", 0): crosscheck_cold,
    ("rhm_stream", 0): rhm_stream,
    ("tau_deep", 0): tau_deep,
    ("crosscheck_cold", 1): traced_crosscheck_cold,
    ("rhm_stream", 1): traced_rhm_stream,
    ("tau_deep", 1): traced_tau_deep,
}


def report(args, runner, metrics, counts, info):
    units = dict(END_TO_END)
    units.update({name: unit for name, unit, _ in PER_LAYER})
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    env = runner.env_info or {}
    print("env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for name in units:
        if name not in metrics:
            continue
        value, n = metrics[name], counts.get(name)
        extra = f"  (n={n})" if n is not None else ""
        if name == "p99_ms" and n is not None \
                and not measure.tail_resolved(n, 99):
            extra += "  slowest request: too few samples for a p99"
        print(f"{name:34s} {value:>16.6g} {units[name]}{extra}")
    print(f"{'failed_ratio':34s} "
          f"{measure.ratio(runner.failed, runner.attempted):>16.6g}"
          f"  ({runner.failed}/{runner.attempted})")
    for name, value in info.items():
        print(f"{name:34s} {value:>16.6g}")
    for note in runner.notes:
        print("FAILED " + note)


def save(args, runner, metrics, counts, info):
    path = WORK / "results" / (f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}-{os.getpid()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": runner.env_info, "metrics": metrics,
                   "samples": counts, "info": info, "raw": runner.raw,
                   "attempted": runner.attempted, "failed": runner.failed},
                  fh, indent=1, sort_keys=True)


def parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    if not (ROOT / "src" / "hypermaps" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'hypermaps'}", file=sys.stderr)
        return 2
    # a terminated run still stops and reaps its children (finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner()
    try:
        runner.speed.start()
        # a few speed samples before the first child starts
        time.sleep(speed.WARMUP_S)
        out = RUNS[(args.workload, args.trace)](runner, args.seed,
                                                args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.stop_all()
    if args.trace:
        (metrics, info), counts = out, {}
    else:
        metrics, counts, info = out
    info["speed_factor"] = measure.ratio(runner.scaled_s, runner.measured_s)
    report(args, runner, metrics, counts, info)
    save(args, runner, metrics, counts, info)
    correct = runner.failed == 0
    names = (END_TO_END if not args.trace
             else [(name, unit) for name, unit, _ in PER_LAYER])
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
