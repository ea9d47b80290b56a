"""Summarise and compare saved benchmark results.

    python3 perfbench/compare.py RESULT.json...
    python3 perfbench/compare.py BASE.json... --against NEW.json...

run.py saves one result file per run under .perfbench_work/results/.
For each workload this prints every metric's median over the given runs
and its spread (inter-quartile distance over median); with --against it
also prints the relative change of the median and the metric's bound
from BENCHMARK.json.  Results measured with different rational backends
(gmpy2.mpq or fractions.Fraction) are refused: the backend changes every
timing, so such numbers do not compare.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import measure

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    runs = []
    for path in paths:
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def by_workload(runs):
    groups = {}
    for r in runs:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def summary(runs, name):
    values = [r["metrics"][name] for r in runs if name in r["metrics"]]
    if not values:
        return None, None
    return (statistics.median(values),
            measure.spread(values) if len(values) >= 2 else 0.0)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/compare.py")
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.against)
    backends = {(r.get("env") or {}).get("backend") for r in base + new}
    if len(backends) != 1 or None in backends:
        print(f"refusing to compare: rational backends differ or are "
              f"unknown ({sorted(map(str, backends))})", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"backend {backends.pop()}")
    new_groups = by_workload(new)
    for key, runs in sorted(by_workload(base).items()):
        others = new_groups.get(key, [])
        print(f"{key[0]} trace={key[1]} runs={len(runs)}"
              + (f" against={len(others)}" if others else ""))
        for name in runs[0]["metrics"]:
            med, spr = summary(runs, name)
            line = f"  {name:34s} {med:>14.6g} spread {spr:7.4f}"
            if others:
                med2, spr2 = summary(others, name)
                if med2 is not None:
                    change = measure.ratio(med2 - med, med)
                    bound = bounds.get(name)
                    line += (f"   new {med2:>14.6g} spread {spr2:7.4f} "
                             f"change {change:+.4f}")
                    if bound is not None:
                        line += f" bound {bound}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
