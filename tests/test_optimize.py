"""Checks that must survive ``python -O``, which strips ``assert``, and
report bytes that no interpreter flag may change."""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hypermaps

SRC = pathlib.Path(hypermaps.__file__).parent

SCRIPT = r'''
import sys
from fractions import Fraction

from hypermaps import checks, config, frobenius, numfield, oracle
from hypermaps import partitions, pluecker, polar, recursion, series, tau


def raises(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return
    sys.exit(f"{fn.__qualname__}{args} did not raise {exc.__name__}")


if not sys.flags.optimize:
    sys.exit("not running under -O")
F3 = numfield.NumberField.cyclotomic_field(3)
F5 = numfield.NumberField.cyclotomic_field(5)
# bad requests
raises(ValueError, oracle.Profile, 1, 0, (1,))
raises(ValueError, oracle.Profile, 2, 0, (0,))
raises(ValueError, oracle.rhm01_closed, 2, -1)
raises(ValueError, partitions.character, (2,), (1,))
raises(ValueError, partitions.beta_mask, (1, 1, 1), 2)
raises(ValueError, polar.ExactPolar, 1, 1)
raises(ValueError, polar.ExactPolar(3, 1).__mul__, polar.ExactPolar(2, 1))
raises(ValueError, polar.ExactPolar(3, 1).__add__, polar.ExactPolar(2, 1))
raises(ValueError, polar.ExactPolar.zero(3).pow, -1)
raises(ValueError, polar.ExactPolar(3, 1).pow, Fraction(1, 2))
raises(ValueError, polar.roots_of_unity_sum, 3, Fraction(1, 2))
raises(ValueError, F3.gen.__mul__, F5.gen)
raises(ValueError, F3.gen.rational_part)
raises(ValueError, frobenius._f_power_coeff, 3, Fraction(1, 3), 0)
raises(ValueError, tau.tau_Z, 1, 6)
raises(ValueError, series.MultiSeries(
    2, {(1,): series.EpsLaurent.const(1)}).log)
raises(ValueError, pluecker.pluecker_check, 1, 6)
raises(ValueError, frobenius.s_matrix, 0, 0)
raises(ValueError, frobenius.s_matrix, 1, 0)
raises(ValueError, frobenius.unstable01, 1, 0)
raises(ValueError, oracle.genus_table, 1, (2,))
raises(ValueError, oracle.genus_table, 2, (0, 2))
raises(ValueError, oracle.genus_table, 2, ())
raises(ValueError, oracle.rhm01_closed, 1, 0)
raises(ValueError, oracle.rhm01_closed, 0, 3)
raises(ValueError, recursion.rhm01_from_curve, 1, 0)
raises(ValueError, recursion.rhm02_from_curve, 1, 0, 0)
raises(ValueError, checks.run_crosscheck,
       config.build_config({}, N=(2,), g_max=1, n_max=1, weight_cap=3))
raises(ValueError, tau.rhm_from_tau, tau.tau_Z(2, 6), -1, (2,))
raises(ValueError, tau.rhm_from_tau, tau.tau_Z(2, 6), 0, (0, 2))
raises(ValueError, recursion.Recursion(2, 0, 3).rhm_from_tr, 0, (0, 1, 1))
# a failed verification: a count that is not an integer, from a log Z
# scaled by 1/7
TZ = tau.tau_Z(2, 4)
TZ._log = series.MultiSeries(
    TZ.W, {k: v.scale(Fraction(1, 7)) for k, v in TZ.log().c.items()})
raises(ArithmeticError, tau.rhm_from_tau, TZ, 0, (2,))
'''


def _env(**extra):
    """The environment of a child interpreter that imports this package."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _cli(args, flags=(), **extra):
    return subprocess.run(
        [sys.executable, *flags, "-m", "hypermaps.cli", *args],
        env=_env(**extra), capture_output=True, timeout=300)


def test_checks_raise_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# the benchmark's crosscheck request and its report's sha256
CROSSCHECK = ["crosscheck", "--N", "2,3", "--g-max", "1", "--n-max", "1",
              "--out", "json", "--threads", "2"]
CROSSCHECK_SHA256 = \
    "412a473ee8160dc00da2321fd1acb5bb788d7d9843e49b7abd5cedf104212a47"


@pytest.mark.parametrize("flags, hashseed", [
    ((), "0"), ((), "4242"), (("-O",), None)],
    ids=["PYTHONHASHSEED=0", "PYTHONHASHSEED=4242", "-O"])
def test_report_bytes_do_not_depend_on_interpreter_flags(flags, hashseed):
    """Neither the hash seed nor stripped asserts change a byte of the
    crosscheck report."""
    extra = {} if hashseed is None else {"PYTHONHASHSEED": hashseed}
    proc = _cli(CROSSCHECK, flags, **extra)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == CROSSCHECK_SHA256


def test_failed_verification_exits_1_under_python_O(tmp_path):
    """A cached omega_{0,4} with one whole Z_N orbit deleted still loads,
    and the field descent check that refuses its count is no assert."""
    argv = ["rhm", "--N", "2", "--genus", "0", "--degrees", "2,2,2,2",
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    proc = _cli(argv, ("-O",))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rhm"] == 48
    path = tmp_path / "tensor_N2_g0_n4_v2.json"
    payload = json.loads(path.read_text())
    del payload["0,2;0,2;0,2;0,4"]
    path.write_text(json.dumps(payload))
    proc = _cli(argv, ("-O",))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == (
        "ArithmeticError: field descent failure at N = 2, g = 0, degrees "
        f"2,2,2,2: the read of omega_{{0,4}}, loaded from {path}, is not a "
        "count\n")
