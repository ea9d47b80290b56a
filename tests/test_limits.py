"""The one admission rule: every bound on a request is an entry of
`limits.LIMITS`, each reader refuses past it before any work, and a
request past a bound exits 2 with one line at once."""
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypermaps import frobenius, oracle, pluecker, recursion, tau
from hypermaps.checks import run_crosscheck
from hypermaps.config import build_config
from hypermaps.limits import LIMITS, admit


def _bounds():
    """(key, least, greatest, N) of every bound of the table, one per N
    where the greatest value depends on it."""
    out = []
    for key, (least, greatest) in sorted(LIMITS.items()):
        if isinstance(greatest, dict):
            out += [(key, least, value, N) for N, value in greatest.items()]
        else:
            out.append((key, least, greatest, None))
    return out


@pytest.mark.parametrize("key, least, greatest, N", _bounds())
def test_each_bound_admits_itself_and_no_more(key, least, greatest, N):
    if least is not None:
        admit(key, least, N)
        with pytest.raises(ValueError,
                           match=re.escape(f"{key} must be >= {least}, ")):
            admit(key, least - 1, N)
    if greatest is not None:
        admit(key, greatest, N)
        at = "" if N is None else f" at N = {N}"
        with pytest.raises(ValueError) as info:
            admit(key, greatest + 1, N)
        assert str(info.value) == \
            f"{key} must be <= {greatest}{at}, got {greatest + 1}"


def test_a_per_N_bound_holds_from_its_key_on():
    """The bound at N is that of the largest key <= N, so the last key's
    covers every larger N."""
    for key, (_, greatest) in LIMITS.items():
        if not isinstance(greatest, dict):
            continue
        keys = sorted(greatest)
        assert keys[0] == 2, key
        last = greatest[keys[-1]]
        admit(key, last, 10 ** 6)
        with pytest.raises(ValueError, match=f"at N = {10 ** 6},"):
            admit(key, last + 1, 10 ** 6)


@pytest.mark.parametrize("key, call", [
    ("weight_cap", lambda: tau.tau_Z(2, 5)),
    ("Pluecker window", lambda: pluecker.pluecker_check(2, 5)),
    ("curve N", lambda: frobenius.canonical_frame(5)),
    ("curve N", lambda: frobenius.eta(5)),
    ("curve N", lambda: frobenius.s_matrix(5, 0)),
    ("curve N", lambda: recursion.Recursion(5, 0, 3)),
    ("S-matrix m", lambda: frobenius.s_matrix(2, 5)),
    ("curve degree", lambda: recursion.rhm01_from_curve(2, 4)),
    ("curve degree", lambda: recursion.rhm02_from_curve(2, 1, 4)),
    ("tr faces", lambda: recursion.Recursion(2, 0, 5)),
    ("tr 2g - 2 + n", lambda: recursion.Recursion(2, 3, 1)),
    ("oracle darts", lambda: oracle.genus_table(2, (6,), 100)),
    ("oracle darts", lambda: oracle.enumerate_rhm(oracle.Profile(2, 0, (6,)),
                                                  100)),
    ("g_max", lambda: build_config({}, g_max=5)),
])
def test_each_reader_reads_its_entry(monkeypatch, key, call):
    """Lowered to 4, an entry's greatest value is the bound its reader
    refuses past, before any work."""
    least, greatest = LIMITS[key]
    lowered = {N: 4 for N in greatest} if isinstance(greatest, dict) else 4
    monkeypatch.setitem(LIMITS, key, (least, lowered))
    with pytest.raises(ValueError, match=re.escape(f"{key} must be <= 4")):
        call()


@pytest.mark.parametrize("options, message", [
    (dict(N=(2,), weight_cap=30, engines=("tau",)),
     f"weight_cap must be <= {LIMITS['weight_cap'][1]}, got 30"),
    (dict(N=(2,), g_max=40, n_max=1),
     f"g_max must be <= {LIMITS['g_max'][1]}, got 40"),
    (dict(N=(2,), g_max=4, n_max=1, engines=("tr", "tau")),
     "tr 2g - 2 + n must be <= 5 at N = 2, got 7"),
    (dict(N=(2,), n_max=10, engines=("tr",)),
     f"tr faces must be <= {LIMITS['tr faces'][1]}, got 10"),
    (dict(N=(2,), engines=("oracle",)),
     "oracle darts must be <= 8 at N = 2, got 10"),
    (dict(N=(3,), weight_cap=3, engines=("tau",)),
     "Pluecker window must be >= 4, got 3"),
])
def test_crosscheck_refuses_what_an_engine_would(monkeypatch, options,
                                                 message):
    """The crosscheck admits its request through every selected engine
    and check before the report exists: no check runs."""
    monkeypatch.setitem(LIMITS, "tr 2g - 2 + n", (None, {2: 5}))
    monkeypatch.setitem(LIMITS, "oracle darts", (None, {2: 8}))

    def refuse(*args):
        raise AssertionError("a check ran")
    monkeypatch.setattr("hypermaps.checks.Report", refuse)
    with pytest.raises(ValueError) as info:
        run_crosscheck(build_config({}, **options))
    assert str(info.value) == message


ROOT = Path(__file__).resolve().parents[1]
BIG = "100000000000000000000"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    "smatrix --N 2 --m-max 3000",
    "curve --N 3000",
    "frobenius --N 100000",
    "pluecker --N 2 --weight-cap 30",
    "tau --N 2 --weight-cap 24 --emit pluecker",
    "crosscheck --N 2 --n-max 10 --weight-cap 10 --engine tr",
    "crosscheck --N 2 --weight-cap 30 --engine tau",
    "crosscheck --N 2 --g-max 40 --n-max 1 --weight-cap 10",
    f"rhm --N 2 --genus 0 --degrees {BIG} --engine tr",
    "rhm --N 2 --genus 0 --degrees 100000,100000 --engine tr",
    "rhm --N 1000000 --genus 1 --degrees 1000000 --engine tr",
    f"rhm --N 2 --genus 0 --degrees {BIG} --engine oracle --dart-cap {BIG}",
    "rhm --N 2 --genus 6 --degrees 24 --engine tr",
])
def test_a_request_past_a_bound_exits_2_at_once(argv):
    """Run in a child interpreter with 1 GB of address space and a
    timeout, so that a request left to run fails the test instead of
    holding the suite: exit 2, one stderr line, no stdout, in 5 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hypermaps.cli",
                           *argv.split()], env=env, capture_output=True,
                          text=True, timeout=30, preexec_fn=_limit_memory)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert elapsed < 5, elapsed
