import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from hypermaps import checks, oracle, recursion, tau
from hypermaps.cli import _cmd_rhm, main
from hypermaps.config import RunConfig, build_config, parse_config_file
from hypermaps.limits import LIMITS
from hypermaps.partitions import partitions_upto
from hypermaps.recursion import Recursion, key_text
from hypermaps.report import Report, emit

CROSSCHECK_REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench"
                        / "reference" / "crosscheck_cold.json")


def test_rhm_oracle(capsys):
    assert main(["rhm", "--N", "2", "--genus", "1", "--degrees", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"N": 2, "g": 1, "degrees": [4], "rhm": 1}


def test_rhm_tau_engine(capsys):
    assert main(["rhm", "--N", "3", "--genus", "0", "--degrees", "1,1,1",
                 "--engine", "tau"]) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 2


def test_rhm_invalid_inputs(capsys):
    assert main(["rhm", "--N", "1", "--genus", "0", "--degrees", "2"]) == 2
    assert main(["rhm", "--N", "2", "--genus", "0",
                 "--degrees", "0,2"]) == 2
    assert main(["rhm", "--N", "2", "--genus", "0",
                 "--degrees", "14"]) == 2  # over the dart cap
    capsys.readouterr()


def test_rhm_over_the_dart_cap_names_it(capsys):
    """An oracle request past the cap says how many darts it needs."""
    assert main(["rhm", "--N", "2", "--genus", "0", "--degrees", "14",
                 "--engine", "oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "oracle cap exceeded: 14 darts, dart_cap = 12"]


@pytest.mark.parametrize("engine", ["oracle", "tr", "tau"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_rhm_dart_cap_below_1_exits_2(capsys, engine, cap):
    """rhm's cap obeys crosscheck's least-value rule, whichever engine
    serves the request."""
    assert main(["rhm", "--N", "2", "--genus", "0", "--degrees", "2,2",
                 "--engine", engine, "--dart-cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dart_cap must be >= 1, got {cap}\n"


@pytest.mark.parametrize("argv", [
    ["smatrix", "--N", "1"],
    ["frobenius", "--N", "1"],
    ["curve", "--N", "1"],
    ["tau", "--N", "1"],
    ["pluecker", "--N", "1"],
    ["crosscheck", "--N", "1"],
    ["rhm", "--N", "1", "--genus", "0", "--degrees", "2"],
], ids=lambda argv: argv[0])
def test_order_below_2_is_one_message(capsys, argv):
    """Every command refuses N < 2 with the one message of the one rule."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "need N >= 2, got 1\n"


def test_rhm_negative_genus_names_it(capsys):
    assert main(["rhm", "--N", "2", "--genus", "-1", "--degrees", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "need g >= 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ["crosscheck", "--N", "3", "--g-max", "1", "--n-max", "1",
     "--weight-cap", "3"],
    ["tau", "--N", "2", "--weight-cap", "1"],
    ["pluecker", "--N", "2", "--weight-cap", "3"],
    # the library functions that serve a request validate it
    ["rhm", "--N", "1", "--genus", "0", "--degrees", "2"],
    ["rhm", "--N", "2", "--genus", "-1", "--degrees", "2", "--engine", "tr"],
    ["rhm", "--N", "2", "--genus", "0", "--degrees", "0,2",
     "--engine", "tau"],
    ["smatrix", "--N", "0"],
    ["smatrix", "--N", "1"],
    ["tau", "--N", "1"],
    ["tau", "--N", "2", "--weight-cap", "0"],
    ["pluecker", "--N", "1"],
    ["curve", "--N", "1"],
    ["frobenius", "--N", "1"],
    ["smatrix", "--N", "2", "--m-max", "-1"],
    # --degrees reads the grammar of --N: an empty item is malformed
    ["rhm", "--N", "2", "--genus", "0", "--degrees", "2,"],
    ["rhm", "--N", "2", "--genus", "0", "--degrees", "2,,2"],
])
def test_weight_cap_too_small_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["crosscheck", "--g-max", "x"],
    ["rhm", "--N", "2", "--genus", "0"],
    ["rhm", "--N", "2", "--genus", "0", "--degrees", "2", "--engine", "x"],
    [],
], ids=["bad-int", "missing-flag", "bad-choice", "no-subcommand"])
def test_argument_error_is_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("hypermaps")
    assert ": error: " in captured.err


def test_help_keeps_the_usage(capsys):
    assert main(["rhm", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hypermaps rhm")
    assert "--engine {oracle,tr,tau}" in out


@pytest.mark.parametrize("engine", ["oracle", "tr", "tau"])
def test_rhm_degree_below_N(capsys, engine):
    """A valid profile whose total degree is below N has no hypermap, and
    every engine answers it."""
    assert main(["rhm", "--N", "3", "--genus", "0", "--degrees", "1",
                 "--engine", engine]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "N": 3, "g": 0, "degrees": [1], "rhm": 0}


@pytest.mark.parametrize("engine", ["oracle", "tr", "tau"])
@pytest.mark.parametrize("N, g, degrees, count", [
    (5, 1, "5", 15),
    (5, 0, "1,1,1,2", 24),
])
def test_rhm_engines_agree_at_every_N(capsys, engine, N, g, degrees, count):
    """tr builds omega_{1,1} and omega_{0,4} at N = 5 with M =
    pole_order(g, n), as at every other N, and agrees with the other
    engines."""
    assert main(["rhm", "--N", str(N), "--genus", str(g), "--degrees",
                 degrees, "--engine", engine]) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == count


@pytest.mark.parametrize("argv, out", [
    (["--N", "40", "--genus", "0", "--engine", "tau"],
     {"N": 40, "g": 0, "degrees": [1], "rhm": 0}),
    (["--N", "400", "--genus", "0", "--engine", "tr"],
     {"N": 400, "g": 0, "degrees": [1], "rhm": 0}),
    (["--N", "400", "--genus", "1", "--engine", "tr"],
     {"N": 400, "g": 1, "degrees": [1], "rhm": 0}),
    (["--N", "2", "--genus", "5", "--degrees", "2", "--engine", "tr"],
     {"N": 2, "g": 5, "degrees": [2], "rhm": 0}),
    (["--N", "2", "--genus", "5", "--degrees", "2", "--engine", "tau"],
     {"N": 2, "g": 5, "degrees": [2], "rhm": 0}),
    (["--N", "2", "--genus", "9", "--degrees", "14", "--engine", "oracle"],
     {"N": 2, "g": 9, "degrees": [14], "rhm": 0}),
    (["--N", "2", "--genus", "0", "--degrees", "13", "--engine", "oracle"],
     {"N": 2, "g": 0, "degrees": [13], "rhm": 0}),
    (["--N", "2", "--genus", "0", "--degrees", "7,7", "--engine", "tr"],
     {"N": 2, "g": 0, "degrees": [7, 7], "rhm": 2800}),
], ids=["tau-indivisible", "tr-unstable", "tr-indivisible",
        "tr-above-genus-bound", "tau-above-genus-bound",
        "oracle-above-genus-bound", "oracle-indivisible",
        "tr-unstable-from-the-curve"])
def test_rhm_decided_by_the_request_builds_no_engine(
        monkeypatch, capsys, argv, out):
    """A request whose answer its profile decides (N does not divide the
    total degree, or a genus above `Profile.max_genus`) is answered
    before Z, the spectral curve or an oracle table is built, whatever
    the engine and its dart cap; tr reads an unstable moment from the
    curve's own paths, without `Curve`.  A later --degrees replaces the
    default 1."""
    def refuse(*args, **kwargs):
        raise AssertionError("engine state built")
    monkeypatch.setattr(tau, "tau_Z", refuse)
    monkeypatch.setattr(recursion, "Curve", refuse)
    monkeypatch.setattr(oracle, "genus_table", refuse)
    monkeypatch.setattr(oracle, "_genus_table", refuse)
    assert main(["rhm", "--degrees", "1"] + argv) == 0
    assert json.loads(capsys.readouterr().out) == out


def test_engines_agree_on_decided_and_unstable_requests(monkeypatch):
    """Every request for N = 2..6, g <= 9 and at most 16 darts that its
    profile decides, or that is an unstable moment (genus 0 with one or
    two faces), prints one line whatever the engine.  The one difference
    allowed: the oracle alone refuses, on its dart cap, a profile the
    request does not decide.  The cap here is 10 darts, because the
    oracle's 12-dart tables at N = 6 take seconds; the crosscheck's
    sweeps compare the unstable moments with the oracle up to 12 darts.
    `_cmd_rhm` is driven without the parser, and tau reads each N from
    one truncation at 16 darts."""
    truncations = {N: tau.tau_Z(N, 16) for N in range(2, 7)}
    monkeypatch.setattr(tau, "tau_Z", lambda N, W: truncations[N])
    seen = {"decided": 0, "unstable": 0, "refused": 0}
    out = io.StringIO()
    with redirect_stdout(out):
        for N, degrees, g in product(range(2, 7), partitions_upto(16),
                                     range(10)):
            if not degrees:
                continue
            p = oracle.Profile(N, g, degrees)
            if p.decided is None and p.stable:
                continue
            seen["unstable" if p.decided is None else "decided"] += 1
            lines = set()
            args = argparse.Namespace(
                N=N, genus=g, degrees=",".join(map(str, degrees)),
                dart_cap=10, cache_dir=None)
            for engine in ("oracle", "tr", "tau"):
                args.engine = engine
                try:
                    assert _cmd_rhm(args) == 0
                except ValueError as exc:
                    assert engine == "oracle" and p.decided is None, \
                        (N, g, degrees, exc)
                    assert str(exc) == (f"oracle cap exceeded: {p.darts} "
                                        f"darts, dart_cap = 10")
                    seen["refused"] += 1
                    continue
                lines.add(out.getvalue())
                out.seek(0)
                out.truncate()
            assert len(lines) == 1, (N, g, degrees, lines)
    assert seen == {"decided": 41407, "unstable": 122, "refused": 70}


def test_rhm_failed_verification_exits_1(tmp_path, capsys):
    argv = ["rhm", "--N", "2", "--genus", "0", "--degrees", "2,2,2,2",
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 48
    # delete one whole Z_N orbit of the cached omega_{0,4}, so the file
    # still loads: its one key with a slot at index 0
    path = tmp_path / "tensor_N2_g0_n4_v2.json"
    payload = json.loads(path.read_text())
    del payload["0,2;0,2;0,2;0,4"]
    path.write_text(json.dumps(payload))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ArithmeticError: field descent failure at N = 2, g = 0, degrees "
        f"2,2,2,2: the read of omega_{{0,4}}, loaded from {path}, is not a "
        "count\n")


def test_rhm_irrational_read_exits_1(tmp_path, capsys):
    """A cached coefficient multiplied by zeta keeps every load check but
    leaves the read outside Q: the field descent check refuses it before
    any count is formed, and names the file."""
    argv = ["rhm", "--N", "3", "--genus", "1", "--degrees", "4,2",
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 28
    path = tmp_path / "tensor_N3_g1_n2_v2.json"
    payload = json.loads(path.read_text())
    assert payload["0,4;0,4"] == [24, 1, 0]
    payload["0,4;0,4"] = [24, 0, 1]
    path.write_text(json.dumps(payload))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ArithmeticError: field descent failure at N = 3, g = 1, degrees "
        f"4,2: the read of omega_{{1,2}}, loaded from {path}, is not "
        "rational\n")


def test_rhm_omega_03_is_never_cached(tmp_path, capsys):
    """omega_{0,3} is recomputed on every run: no cache file is written
    for it, and none is read, even one that passes the load checks
    (the one stored key of a Z_N orbit tampered, or every coefficient
    doubled)."""
    argv = ["rhm", "--N", "3", "--genus", "0", "--degrees", "3,3,3",
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 216
    path = tmp_path / "tensor_N3_g0_n3_v2.json"
    assert not path.exists()
    # the payload `_store_cached` would write, were omega_{0,3} cached
    payload = {key_text(K): [c.den] + c.num
               for K, c in Recursion(3, 0, 3).omega(0, 3).items()
               if any(a == 0 for a, _ in K)}
    assert payload["0,2;0,2;0,2"] == [3, 1, 0]
    tampered = dict(payload)
    tampered["0,2;0,2;0,2"] = [7, 1, 0]
    doubled = {key: [ints[0]] + [2 * x for x in ints[1:]]
               for key, ints in payload.items()}
    for content in (tampered, doubled):
        path.write_text(json.dumps(content))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rhm"] == 216


def test_rhm_omega_11_is_never_cached(tmp_path, capsys):
    """omega_{1,1} is recomputed on every run: no identity relates it to
    a smaller tensor, so a uniformly doubled copy would pass every load
    check and double every count read from it.  No cache file is
    written for it, and none is read."""
    argv = ["rhm", "--N", "2", "--genus", "1", "--degrees", "4",
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 1
    path = tmp_path / "tensor_N2_g1_n1_v2.json"
    assert not path.exists()
    # the payload `_store_cached` would write, were omega_{1,1} cached
    payload = {key_text(K): [c.den] + c.num
               for K, c in Recursion(2, 1, 1).omega(1, 1).items()
               if any(a == 0 for a, _ in K)}
    assert payload == {"0,2": [32, 1], "0,3": [16, 1], "0,4": [16, -1]}
    path.write_text(json.dumps({
        key: [ints[0]] + [2 * x for x in ints[1:]]
        for key, ints in payload.items()}))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 1


# omega_{1,2} at N = 2 in the v2 cache holds 9 keys, among them
# "0,2;0,4": [128, 15]; each case sets one key of the true file to a
# value, or (key None) replaces the whole payload, or (a str) the file's
# text
@pytest.mark.parametrize("N, degrees, count, key, value", [
    pytest.param(2, "4,2", 4, None, [], id="[]"),
    # well-formed, but a stable tensor has keys
    pytest.param(2, "4,2", 4, None, {}, id="{}"),
    pytest.param(2, "4,2", 4, "0,2;0,4", [128, 15.0], id="non-integer"),
    pytest.param(2, "4,2", 4, "0,2;0,4", [True, 15], id="boolean"),
    pytest.param(2, "4,2", 4, "0,2;0,4", [0, 15], id="zero-denominator"),
    # the true 15/128, but not in the stored form
    pytest.param(2, "4,2", 4, "0,2;0,4", [-128, -15],
                 id="negative-denominator"),
    pytest.param(2, "4,2", 4, "0,2;0,4", [256, 30], id="not-lowest-terms"),
    pytest.param(2, "4,2", 4, "0,2;0,4", [128, 15, 0], id="wrong-length"),
    # a stored key is one `_compute` derives, never a zero coefficient
    pytest.param(2, "4,2", 4, "0,2;0,4", [1, 0], id="zero-coefficient"),
    pytest.param(2, "4,2", 4, "0,2;0,x", [2, 1], id="bad-key"),
    # "0,2; 0,2" parses to the key of the true "0,2;0,2": [128, 1], and
    # would replace it had the loader read it
    pytest.param(2, "4,2", 4, "0,2; 0,2", [128, 129], id="key-spelling"),
    # nested deeper than the decoder recurses; json.dumps cannot write it
    pytest.param(2, "4,2", 4, None, "[" * 200_000 + "]" * 200_000,
                 id="deep-nesting"),
    # well-formed, but a key without a slot at index 0 is not stored
    pytest.param(2, "4,2", 4, "1,2;1,4", [128, 15], id="no-slot-at-0"),
    # omega_{1,2} at N = 3 with "0,2;1,2" tripled from [162, 1, 0]: the
    # rotation of the stored "0,2;2,2" disagrees with it
    pytest.param(3, "4,2", 28, "0,2;1,2", [54, 1, 0], id="zn-covariance"),
])
def test_rhm_malformed_cache_is_a_miss(tmp_path, capsys, monkeypatch,
                                       N, degrees, count, key, value):
    argv = ["rhm", "--N", str(N), "--genus", "1", "--degrees", degrees,
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == count
    path = tmp_path / f"tensor_N{N}_g1_n{degrees.count(',') + 1}_v2.json"
    good = path.read_text()
    if isinstance(value, str):
        path.write_text(value)
    else:
        payload = value if key is None else {**json.loads(good), key: value}
        path.write_text(json.dumps(payload))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == count
    # recomputed and rewritten
    assert path.read_text() == good
    # the rewritten file is a hit
    monkeypatch.setattr(Recursion, "_compute",
                        lambda *args: pytest.fail("recomputed"))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == count


def test_cache_dir_only_from_the_request(tmp_path, capsys, monkeypatch):
    """A run without --cache-dir reads no cache, whatever the environment
    holds."""
    argv = ["rhm", "--N", "2", "--genus", "1", "--degrees", "4,2",
            "--engine", "tr"]
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 4
    # a uniformly doubled tensor still loads from that directory
    path = tmp_path / "tensor_N2_g1_n2_v2.json"
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({
        key: [ints[0]] + [2 * x for x in ints[1:]]
        for key, ints in payload.items()}))
    monkeypatch.setenv("HYPERMAPS_CACHE_DIR", str(tmp_path))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 4


def test_smatrix_output(capsys):
    assert main(["smatrix", "--N", "2", "--m-max", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["S"]["0"] == [["1", "0"], ["0", "1"]]
    assert out["S"]["1"] == [["0", "0"], ["1", "0"]]


def test_frobenius_output(capsys):
    assert main(["frobenius", "--N", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eta"][0][2] == "1" and out["eta"][1][1] == "1/2"
    assert len(out["psi"]) == 3
    assert set(out["c"][0]) == {"q", "e1", "e2", "ang"}


def test_pluecker_subcommand(capsys):
    assert main(["pluecker", "--N", "2", "--weight-cap", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == []
    assert out["relations_checked"] > 0


@pytest.mark.parametrize("N, W", [(5, 4), (6, 5)])
def test_pluecker_window_checking_nothing_exits_2(capsys, N, W):
    """A window below the first relation it can check is refused with
    one line naming N and W, not passed with relations_checked 0."""
    assert main(["pluecker", "--N", str(N), "--weight-cap", str(W)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"the Pluecker window N = {N}, W = {W} holds "
                            f"no checkable relation\n")


def test_pluecker_window_too_large_to_hold_exits_2(capsys):
    """A weight cap whose beta-set masks would overflow is refused on the
    window's bound, exit 2 with one line, not a failed verification."""
    assert main(["pluecker", "--N", "2",
                 "--weight-cap", "100000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"Pluecker window must be <= {LIMITS['Pluecker window'][1]}, "
        f"got 100000000000000000000\n")


@pytest.mark.parametrize("argv", [
    ["tau", "--N", "2", "--weight-cap", "100000000000000000000"],
    ["rhm", "--N", "2", "--genus", "0", "--degrees",
     "100000000000000000000", "--engine", "tau"],
], ids=["tau", "rhm-tau"])
def test_tau_weight_beyond_the_engine_exits_2(argv):
    """A weight cap above the one of `limits`, asked for directly or as
    the darts of a tau count, is refused with one line naming the bound;
    run in a child interpreter, so that a request left to run fails on
    the timeout instead of holding the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "hypermaps.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"weight_cap must be <= {LIMITS['weight_cap'][1]}"
                           ", got 100000000000000000000\n")


def test_curve_subcommand(capsys):
    assert main(["curve", "--N", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rhm01"][1] == 1 and out["rhm01"][3] == 2
    # omega_{0,3} is never cached, so the subcommand takes no cache
    assert main(["curve", "--N", "2", "--cache-dir", "x"]) == 2
    assert capsys.readouterr().out == ""


def test_tau_subcommand(capsys):
    assert main(["tau", "--N", "2", "--weight-cap", "4",
                 "--emit", "log"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["terms"]["2"]["-2"] == "1"


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("N = 2,3\nweight_cap = 6\n# comment line\n\nthreads = 2\n")
    values = parse_config_file(str(p))
    cfg = build_config(values)
    assert cfg.N == (2, 3) and cfg.weight_cap == 6 and cfg.threads == 2


@pytest.mark.parametrize("text", ["2,3", "2 3", " 2 , 3 "])
def test_N_list_grammar(tmp_path, capsys, text):
    """`--N` and the config key `N` read one grammar: integers separated
    by commas or blanks.  The grid has no stable profile, so the request
    stops, naming the first N, right after the list is read."""
    path = tmp_path / "run.conf"
    path.write_text(f"N = {text}\n")
    errors = []
    for argv in (["--N", text], ["--config", str(path)]):
        assert main(["crosscheck", "--g-max", "0", "--n-max", "2"]
                    + argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["no stable profile for N = 2 within g_max = 0, "
                      "n_max = 2, weight_cap = 10\n"] * 2


def test_config_file_bad_line(tmp_path):
    p = tmp_path / "bad.conf"
    p.write_text("just a dangling token\n")
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config_file(str(p))


def test_crosscheck_config_key_set_twice_exits_2(tmp_path, capsys):
    """A repeated key is an error naming the file, the key and both
    lines, not a silent win for the later value."""
    path = tmp_path / "run.conf"
    path.write_text("weight_cap = 6\n# a comment\nweight_cap = 8\n")
    assert main(["crosscheck", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"{path}:3: 'weight_cap' already set on line 1"]


def test_crosscheck_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text("x = 1\n")
    assert main(["crosscheck", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unknown config key 'x'\n"


def test_crosscheck_cache_dir_keeps_the_report(tmp_path, capsysbinary):
    """A crosscheck with --cache-dir writes the report it writes without
    one, and leaves its tr tensors in that directory."""
    argv = ["crosscheck", "--N", "2", "--g-max", "1", "--n-max", "2",
            "--weight-cap", "6", "--out", "json"]
    assert main(argv) == 0
    plain = capsysbinary.readouterr().out
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert capsysbinary.readouterr().out == plain
    assert (tmp_path / "tensor_N2_g1_n2_v2.json").exists()


def test_config_validation():
    with pytest.raises(ValueError, match="no engines selected"):
        RunConfig(engines=())
    with pytest.raises(ValueError, match="unknown engine"):
        RunConfig(engines=("oracle", "quantum"))
    with pytest.raises(ValueError, match="^weight_cap must be >= 1, got 0$"):
        RunConfig(weight_cap=0)
    with pytest.raises(ValueError, match="^threads must be >= 1, got 0$"):
        RunConfig(threads=0)
    with pytest.raises(ValueError, match="unknown output format"):
        RunConfig(out="xml")
    with pytest.raises(ValueError, match="^need N >= 2, got 1$"):
        RunConfig(N=(1,))
    with pytest.raises(ValueError, match=r"need distinct N values, got \[\]"):
        RunConfig(N=())
    with pytest.raises(ValueError, match="need distinct N values"):
        RunConfig(N=(2, 3, 2))
    with pytest.raises(ValueError, match="need distinct engines"):
        RunConfig(engines=("tr", "oracle", "tr"))


def test_crosscheck_duplicate_engine_exits_2(capsys):
    """A repeated engine would run no other check, but its report would
    echo the repeat: the request is rejected like a repeated N."""
    assert main(["crosscheck", "--N", "2", "--engine", "tr,tr"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "need distinct engines, got ['tr', 'tr']"]


@pytest.mark.parametrize("argv, config", [
    (["--N", "2,2"], None),
    ([], "N =\n"),
])
def test_crosscheck_bad_N_list_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "run.conf"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(["crosscheck"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("line, key", [
    ("N = 2,x", "N"),
    ("N = 2,", "N"),
    ("weight_cap = six", "weight_cap"),
    ("threads =", "threads"),
    ("dart_cap = 1.5", "dart_cap"),
])
def test_crosscheck_config_value_names_the_key(tmp_path, capsys, line, key):
    path = tmp_path / "run.conf"
    path.write_text(line + "\n")
    assert main(["crosscheck", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{key} must be")


@pytest.mark.parametrize("orders", [",", "2,x", "2,", ""])
def test_crosscheck_malformed_N_exits_2(capsys, orders):
    assert main(["crosscheck", "--N", orders]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"N must be comma separated integers, got {orders!r}"]


@pytest.mark.parametrize("engines", ["tr,", ",tr", "tr,,tau"])
def test_crosscheck_malformed_engines_exits_2(tmp_path, capsys, engines):
    """`--engine` and the config key `engines` read the list grammar of
    `--N`: an empty item makes the list malformed."""
    path = tmp_path / "run.conf"
    path.write_text(f"engines = {engines}\n")
    for argv in (["--engine", engines], ["--config", str(path)]):
        assert main(["crosscheck", "--N", "2", "--g-max", "1",
                     "--n-max", "1", "--weight-cap", "4"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"engines must be comma separated names, got {engines!r}"]


@pytest.mark.parametrize("flag, value, message", [
    ("--weight-cap", "0", "weight_cap must be >= 1, got 0"),
    ("--n-max", "0", "n_max must be >= 1, got 0"),
    ("--dart-cap", "0", "dart_cap must be >= 1, got 0"),
    ("--threads", "0", "threads must be >= 1, got 0"),
    ("--g-max", "-1", "g_max must be >= 0, got -1"),
])
def test_crosscheck_range_error_names_its_key(capsys, flag, value, message):
    assert main(["crosscheck", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [message]


def test_crosscheck_empty_grid_exits_2(capsys):
    """A grid with no stable profile would check nothing: g_max = 0 and
    n_max = 2 give 2g - 2 + n <= 0 everywhere."""
    assert main(["crosscheck", "--N", "2", "--g-max", "0", "--n-max", "2",
                 "--engine", "oracle,tau"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "no stable profile for N = 2 within g_max = 0, n_max = 2, "
        "weight_cap = 10"]


def test_crosscheck_small_weight_cap_exits_2(capsys):
    """A weight cap below the smallest Pluecker window is an invalid
    request, not a failed verification."""
    assert main(["crosscheck", "--N", "2", "--g-max", "1", "--n-max", "1",
                 "--weight-cap", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "Pluecker window must be >= 4, got 3"]


@pytest.mark.parametrize("argv, message", [
    (["--N", "2,3", "--dart-cap", "1"],
     "oracle cap exceeded: 10 darts, dart_cap = 1"),
    (["--N", "2", "--weight-cap", "4", "--engine", "oracle",
      "--dart-cap", "3"],
     "oracle cap exceeded: 4 darts, dart_cap = 3"),
], ids=["two-orders", "oracle-alone"])
def test_crosscheck_dart_cap_too_small_exits_2(capsys, argv, message):
    """A dart cap below a grid profile that the oracle is named for is an
    invalid request, not a failed verification: the profile would be
    compared with one engine less."""
    assert main(["crosscheck", "--g-max", "1", "--n-max", "1"]
                + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [message]


@pytest.mark.parametrize("name", ["a_directory", "missing.conf"])
def test_crosscheck_unreadable_config_exits_2(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    assert main(["crosscheck", "--config", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_crosscheck_cold_report_bytes(capsysbinary):
    """The benchmark's crosscheck request reproduces its reference
    report byte for byte."""
    ref = json.loads(CROSSCHECK_REFERENCE.read_text())
    assert main(ref["args"] + ["--threads", "2"]) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == ref["sha256"]


# sha256 of the json reports of crosschecks at g <= 2, n <= 3: the wide
# grid at N = 2, 3 and the grids at N = 4, 5 and 6, every engine and
# self-check
CROSSCHECK_PINS = {
    "2,3": "6146a799b678d0bbc667d0c65482c3bfe92da69193bf35d9f15f7739103f8cbb",
    "4": "e7a01efaaa56a7a456f124b0c379988bfdc45ebeb54e1ef93e27d0a67ff548b5",
    "5": "23427b2fe294a1463ba93b486beb01ec1107ffc8aeaf9ea06074500c7bc68444",
    "6": "a4686288750114ba8671db450272c062541f7a3d951cbe54b9307879f682756d",
}


@pytest.mark.parametrize("orders", sorted(CROSSCHECK_PINS))
def test_crosscheck_report_bytes_at_g_2_n_3(capsysbinary, monkeypatch,
                                            wide_recursions, orders):
    """The tr engine reads the shared Recursion(N, 2, 3) where there is
    one, whose tensors are those a fresh one computes."""
    build = checks.Recursion
    monkeypatch.setattr(checks, "Recursion", lambda N, *args: (
        wide_recursions.get(N) or build(N, *args)))
    assert main(["crosscheck", "--N", orders, "--g-max", "2", "--n-max", "3",
                 "--out", "json"]) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == CROSSCHECK_PINS[orders]


# sha256 of the stdout of cheap commands whose bytes a change to the
# engines must keep: the curve, frame and S-matrix summaries at N = 2..6
# and the tau truncation, its log and the Pluecker window at N = 2, 3
OUTPUT_PINS = {
    "curve --N 2":
        "0c143ea27cc9ae3d8572ff405ba666b1ffd86763413cc2931d352fb6da8f1917",
    "frobenius --N 2":
        "49f87899f66ffb58513c5324413888dd57f6b3bfc19d9b909c26d66b8a9b81f8",
    "smatrix --N 2 --m-max 6":
        "3a3b72c34214945c81eb10b06e68e79cc28a4ba12326b9c3c4ad4095ea26189c",
    "curve --N 3":
        "fc070f1450262b46b6b955cfdd4d216b68a4cf00cd443c8a0e3f353733beeace",
    "frobenius --N 3":
        "de3d2d3226cd401b788ebe5b5db3c83a5a7be02a6cbc655eaa8bec87626c294f",
    "smatrix --N 3 --m-max 6":
        "cd2a077e52f8ee37eb73372096cc98b5d84db5816061d31623920b82930b7134",
    "curve --N 4":
        "84a0dc7834c28ed1636438d6033b314e875aab486ff0d81e99c7816ebbc2bfa9",
    "frobenius --N 4":
        "cc49741bb7e908e9c059189784e9f6e0b9efe821b9fb6bf7dfe2c1be3620916b",
    "smatrix --N 4 --m-max 6":
        "684508883b985367a8f86d937a0d93525e21bd7eaa3b5d21905caf9c021d23e2",
    "curve --N 5":
        "97620506360122ff288990d97aa5a8e421fda651e5afb935ae19001b7af96838",
    "frobenius --N 5":
        "665763c4247c4ed1f80ad89fdf5299ed4119a9579fa2506699331faaf96fdb02",
    "smatrix --N 5 --m-max 6":
        "de86c3036e5c9086727d1eefeec5d9193b8a0e3d0c938dad4735e90633575b96",
    "curve --N 6":
        "a211979fbb3a33f9c263dfcb2f962c09567f15f1870054033151321918eb6105",
    "frobenius --N 6":
        "dfb0dd99f431e1eabf992bfcfe778fef8022740eb3d61a8ff8e0d0ec751679c6",
    "smatrix --N 6 --m-max 6":
        "5846ac50aa95a446303f02dce800c5139ab42cdd6bc3c4c651341b61109959fa",
    "tau --N 2 --weight-cap 9 --emit coefficients":
        "3a83b4beac326286bbdf905593469503564310f082e78f520d7076486e23d535",
    "tau --N 2 --weight-cap 9 --emit log":
        "173a48c0524e48ea639d440dd373ad8605c20274289f91562cb79de1a645db15",
    "tau --N 2 --weight-cap 9 --emit pluecker":
        "8994c108e293edfd711275951435a8584650fb2364bf9fb205f4fc3e35187863",
    "tau --N 3 --weight-cap 9 --emit coefficients":
        "8c754f442b73346aa7a5e9f77fb3086de34fdee88b1ded65672e782aee2e7851",
    "tau --N 3 --weight-cap 9 --emit log":
        "06ea2248b73c512ae03c97b81e6076bedf706331ff6ca69005fc30cf91f7d086",
    "tau --N 3 --weight-cap 9 --emit pluecker":
        "cfd23c2c4b4b799813b2617a9b016d762968e7709a0b5cd95e32f4f5c0aa1aae",
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_PINS))
def test_cheap_outputs_are_pinned(capsysbinary, argv):
    assert main(argv.split()) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == OUTPUT_PINS[argv]


def test_emit_determinism_and_formats():
    rep = Report({"N": [2]})
    rep.add("demo", {"x": 1}, {"y": "2"}, True)
    rep.add_error("boom", {}, RuntimeError("nope"))
    j1, j2 = emit(rep, "json"), emit(rep, "json")
    assert j1 == j2 and j1.endswith(b"\n")
    csv_bytes = emit(rep, "csv")
    assert csv_bytes.splitlines()[0] == b"check_id,inputs,values,verdict"
    with pytest.raises(ValueError, match="unknown format"):
        emit(rep, "yaml")
    assert not rep.ok
    assert rep.summary() == {"pass": 1, "fail": 0, "error": 1}
    # error records name the exception, even when its message is empty
    assert rep.records[-1].values == {"error": "RuntimeError: nope"}
    rep.add_error("bare", {}, AssertionError())
    assert rep.records[-1].values["error"].startswith("AssertionError")
