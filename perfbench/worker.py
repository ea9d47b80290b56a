"""Child process of the benchmark: runs one job against the package under
test and reports on standard output, one JSON object per line.

    worker.py probe
    worker.py stream CACHE_DIR REFERENCE --seed S --seconds T [--probe]
    worker.py tau_deep
    worker.py crosscheck -- CLI_ARGS...
    worker.py fill-cache CACHE_DIR

Every job takes --trace FILE, which wraps the package's
layers (see tracer.py) and writes the spans there when the job ends.
The package is found through PYTHONPATH, which run.py sets.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import workloads as wl


def emit_line(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def environment():
    from hypermaps.rational import Q
    return {"backend": f"{Q.__module__}.{Q.__name__}",
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def stream_correlators(N, W, cache_dir):
    """Recursion for one N of the stream grid with every correlator the
    grid needs loaded (or computed and stored, on an empty cache)."""
    from hypermaps.checks import stable_profiles
    from hypermaps.recursion import Recursion

    rec = Recursion(N, wl.STREAM_G_MAX, wl.STREAM_N_MAX, cache_dir=cache_dir)
    profiles = stable_profiles(N, wl.STREAM_G_MAX, wl.STREAM_N_MAX, W)
    shapes = sorted({(g, len(d)) for g, d in profiles})
    for g, n in shapes:
        rec.omega(g, n)
    return rec, profiles, shapes


class Stream:
    """Engines warm for the stream grid: correlator tensors read from the
    tensor cache, tau truncations with their logarithms, eta tables."""

    def __init__(self, cache_dir):
        from hypermaps import oracle, tau

        self.oracle, self.tau = oracle, tau
        self.recs, self.taus = {}, {}
        for N, W in wl.STREAM_GRID:
            rec, profiles, shapes = stream_correlators(N, W, cache_dir)
            tz = tau.tau_Z(N, W)
            tz.log()
            # the eta table grows to the largest degree and pole order
            # asked so far; one call per correlator with its largest
            # degree leaves nothing for the stream to grow
            for g, n in shapes:
                rec.rhm_from_tr(g, max((d for gg, d in profiles
                                        if (gg, len(d)) == (g, n)), key=max))
            self.recs[N], self.taus[N] = rec, tz

    def answer(self, N, g, degrees, engine):
        if engine == "tr":
            return self.recs[N].rhm_from_tr(g, degrees)
        if engine == "tau":
            return self.tau.rhm_from_tau(self.taus[N], g, degrees)
        return self.oracle.enumerate_rhm(
            self.oracle.Profile(N, g, degrees), wl.ORACLE_MAX_DARTS)


def run_stream(args):
    with open(args.reference) as fh:
        table = json.load(fh)["points"]
    expected = {(N, g, tuple(d)): count for N, g, d, count in table}
    server = Stream(args.cache_dir)
    emit_line({"ready": True, "env": environment()})
    clock = time.perf_counter
    starts, latencies, failed, repeated, seen = [], [], 0, 0, set()
    deadline = clock() + args.seconds
    for query in wl.query_stream(list(expected), args.seed):
        N, g, degrees, engine = query
        start = clock()
        try:
            ok = server.answer(N, g, degrees, engine) == \
                expected[(N, g, degrees)]
        except Exception as exc:  # noqa: BLE001 - counted as a failed answer
            print(f"query {query} raised {exc!r}", file=sys.stderr)
            ok = False
        end = clock()
        starts.append(start)
        latencies.append((end - start) * 1e3)
        failed += not ok
        if query in seen:
            repeated += 1
        seen.add(query)
        if args.probe or end >= deadline:
            break
    # starts are time.perf_counter() readings, so that run.py can scale
    # each query by the machine's speed at the time (speed.py)
    emit_line({"starts": starts, "latencies_ms": latencies,
               "failed": failed, "repeated": repeated,
               "round_size": len(wl.query_deck(list(expected)))})


def run_tau_deep(args):
    from hypermaps import pluecker, tau
    from hypermaps.checks import stable_profiles

    tz = tau.tau_Z(wl.TAU_N, wl.TAU_W)
    tz.log()
    counts = {wl.point_key(wl.TAU_N, g, d): tau.rhm_from_tau(tz, g, d)
              for g, d in stable_profiles(wl.TAU_N, wl.TAU_G_MAX,
                                          wl.TAU_N_MAX, wl.TAU_W)}
    rep = pluecker.pluecker_check(wl.PLUECKER_N, wl.PLUECKER_W)
    emit_line({"counts": counts,
               "pluecker": {"checked": rep.relations_checked,
                            "skipped": rep.relations_skipped,
                            "violations": len(rep.violations)}})


def run_crosscheck(args):
    from hypermaps import cli
    return cli.main(args.cli_args)


def fill_cache(args):
    for N, W in wl.STREAM_GRID:
        stream_correlators(N, W, args.cache_dir)


def run_probe(args):
    import hypermaps  # noqa: F401 - the cold start being measured
    emit_line({"ready": True, "env": environment()})


def parse(argv):
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="job", required=True)
    p = sub.add_parser("probe")
    p.set_defaults(func=run_probe)
    p = sub.add_parser("stream")
    p.add_argument("cache_dir")
    p.add_argument("reference")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--probe", action="store_true",
                   help="answer the first query only")
    p.set_defaults(func=run_stream)
    p = sub.add_parser("tau_deep")
    p.set_defaults(func=run_tau_deep)
    p = sub.add_parser("crosscheck")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=run_crosscheck)
    p = sub.add_parser("fill-cache")
    p.add_argument("cache_dir")
    p.set_defaults(func=fill_cache)
    for p in sub.choices.values():
        p.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.job == "crosscheck" and args.cli_args[:1] == ["--"]:
        args.cli_args = args.cli_args[1:]
    return args


def main(argv=None):
    args = parse(argv)
    if args.trace is None:
        return args.func(args) or 0
    import tracer
    t = tracer.Tracer()
    caches = tracer.instrument(t)
    try:
        rc = args.func(args) or 0
    finally:
        sys.stdout.flush()
        extra = {}
        for name, cache in caches.items():
            info = cache.cache_info()
            extra[name + ".hits"] = info.hits
            extra[name + ".misses"] = info.misses
        t.dump(args.trace, extra)
    return rc


if __name__ == "__main__":
    sys.exit(main())
