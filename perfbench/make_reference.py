"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Run it only when the package's answers are meant to change.  It takes a
few minutes: every stream point is computed by all three engines and kept
only where they agree, the crosscheck report is produced at one and two
threads and must come out byte-identical, and the tau_deep counts are
compared with the oracle wherever it is cheap.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "reference"
# the oracle cross-validates tau_deep counts up to this many darts
TAU_ORACLE_DARTS = 10


def write(name, data):
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def crosscheck_reference():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HYPERMAPS_CACHE_DIR", None)
    digests = set()
    for threads in (1, wl.CROSSCHECK_THREADS):
        with tempfile.TemporaryDirectory() as cache:
            out = subprocess.run(
                [sys.executable, "-m", "hypermaps.cli", *wl.CROSSCHECK_ARGS,
                 "--threads", str(threads), "--cache-dir", cache],
                env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
        digests.add(hashlib.sha256(out).hexdigest())
    if len(digests) != 1:
        raise SystemExit("crosscheck report depends on the thread budget")
    summary = json.loads(out)["summary"]
    if summary["fail"] or summary["error"]:
        raise SystemExit(f"crosscheck does not pass: {summary}")
    return {"args": list(wl.CROSSCHECK_ARGS), "sha256": digests.pop(),
            "summary": summary}


def stream_reference():
    from hypermaps import oracle, tau
    from hypermaps.checks import stable_profiles
    from hypermaps.recursion import Recursion

    points, dropped = [], []
    for N, W in wl.STREAM_GRID:
        rec = Recursion(N, wl.STREAM_G_MAX, wl.STREAM_N_MAX)
        tz = tau.tau_Z(N, W)
        for g, d in stable_profiles(N, wl.STREAM_G_MAX, wl.STREAM_N_MAX, W):
            values = {rec.rhm_from_tr(g, d), tau.rhm_from_tau(tz, g, d)}
            if sum(d) <= wl.ORACLE_MAX_DARTS:
                values.add(oracle.enumerate_rhm(oracle.Profile(N, g, d),
                                                wl.ORACLE_MAX_DARTS))
            if len(values) == 1:
                points.append([N, g, list(d), values.pop()])
            else:
                dropped.append([N, g, list(d), sorted(values)])
    return {"points": points, "dropped_disagreements": dropped}


def tau_reference():
    from hypermaps import oracle, pluecker, tau
    from hypermaps.checks import stable_profiles

    tz = tau.tau_Z(wl.TAU_N, wl.TAU_W)
    counts = {}
    for g, d in stable_profiles(wl.TAU_N, wl.TAU_G_MAX, wl.TAU_N_MAX,
                                wl.TAU_W):
        value = tau.rhm_from_tau(tz, g, d)
        if sum(d) <= TAU_ORACLE_DARTS:
            check = oracle.enumerate_rhm(oracle.Profile(wl.TAU_N, g, d),
                                         TAU_ORACLE_DARTS)
            if check != value:
                raise SystemExit(f"tau and oracle disagree at {g} {d}")
        counts[wl.point_key(wl.TAU_N, g, d)] = value
    rep = pluecker.pluecker_check(wl.PLUECKER_N, wl.PLUECKER_W)
    return {"counts": counts,
            "pluecker": {"checked": rep.relations_checked,
                         "skipped": rep.relations_skipped,
                         "violations": len(rep.violations)}}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("HYPERMAPS_CACHE_DIR", None)
    write("tau_deep", tau_reference())
    write("rhm_stream", stream_reference())
    write("crosscheck_cold", crosscheck_reference())


if __name__ == "__main__":
    main()
