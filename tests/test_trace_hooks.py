"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps package
names by reference and raises when one of them no longer exists; this
keeps a rename or deletion in the package from silently breaking
``perfbench/run.py --trace 1``."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = r'''
from tracer import Tracer, instrument

instrument(Tracer())
'''


def test_tracer_binds_every_hook():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
