"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps package
names by reference and raises when one of them no longer exists; this
keeps a rename or deletion in the package from silently breaking
``perfbench/run.py --trace 1``, and a wrapped name that no call path
reaches any more from silently reading 0."""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = r'''
from tracer import Tracer, instrument

instrument(Tracer())
'''

FIRING = r'''
import json

from tracer import Tracer, instrument

tracer = Tracer()
instrument(tracer)
from hypermaps import pluecker, recursion, tau

pluecker.pluecker_check(2, 6)
recursion.deck_series(recursion.Curve(3), 0, 8)
tau.coefficient_A(2, (2, 2))
z = tau.tau_Z(2, 6).series
z * z
snap = tracer.snapshot()
print(json.dumps({"values": snap["values"],
                  "spans": sorted({span[1] for span in snap["spans"]})}))
'''


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_tracer_binds_every_hook():
    _run(SCRIPT)


def test_tracer_hooks_fire():
    """Counters that `count` wraps are read from `snapshot()`: until then
    they are held apart from `Tracer.values`."""
    seen = json.loads(_run(FIRING))
    assert seen["values"]["pluecker.relations_checked"] == 82
    assert seen["values"]["series.eps_mul_calls"] == 62
    assert {"pluecker.check", "recursion.deck_series",
            "series.uni_compose", "series.multi_mul"} <= set(seen["spans"])
