import hashlib
import json
from pathlib import Path

import pytest

from hypermaps.cli import main
from hypermaps.config import RunConfig, build_config, parse_config_file
from hypermaps.rational import parse_rat, rat_str
from hypermaps.recursion import Recursion
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
    ["rhm", "--N", "2", "--genus", "0", "--degrees", "1,1", "--engine", "tr"],
    ["smatrix", "--N", "0"],
    ["smatrix", "--N", "1"],
    ["tau", "--N", "1"],
    ["tau", "--N", "2", "--weight-cap", "0"],
    ["pluecker", "--N", "1"],
    ["curve", "--N", "1"],
    ["frobenius", "--N", "1"],
])
def test_weight_cap_too_small_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    if "1,1" in argv:  # an unstable moment for the tr engine
        assert "oracle" in captured.err


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


@pytest.mark.parametrize("engine", ["oracle", "tau"])
def test_rhm_degree_below_N(capsys, engine):
    """A valid profile whose total degree is below N has no hypermap, and
    every engine answers it."""
    assert main(["rhm", "--N", "3", "--genus", "0", "--degrees", "1",
                 "--engine", engine]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "N": 3, "g": 0, "degrees": [1], "rhm": 0}


def test_rhm_failed_verification_exits_1(tmp_path, capsys):
    argv = ["rhm", "--N", "2", "--genus", "0", "--degrees", "2,2,2,2",
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 48
    # delete one whole Z_N orbit of the cached omega_{0,4}, so the file
    # still loads
    path = tmp_path / "tensor_N2_g0_n4_v1.json"
    payload = json.loads(path.read_text())
    for key in ("0,2;0,2;0,2;0,4", "1,2;1,2;1,2;1,4"):
        del payload[key]
    path.write_text(json.dumps(payload))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ArithmeticError: field descent failure\n"


def test_rhm_omega_03_is_never_cached(tmp_path, capsys):
    """omega_{0,3} is recomputed on every run: no cache file is written
    for it, and none is read, even one that passes the load checks
    (one coefficient tampered on its whole Z_N orbit, rotation factor 1,
    or every coefficient doubled)."""
    argv = ["rhm", "--N", "3", "--genus", "0", "--degrees", "3,3,3",
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 216
    path = tmp_path / "tensor_N3_g0_n3_v1.json"
    assert not path.exists()
    rec = Recursion(3, 0, 3, str(tmp_path))
    rec._store_cached(0, 3, rec.omega(0, 3))
    payload = json.loads(path.read_text())
    tampered = dict(payload)
    for key in ("0,2;0,2;0,2", "1,2;1,2;1,2", "2,2;2,2;2,2"):
        assert payload[key] == ["1/3", "0"]
        tampered[key] = ["1/7", "0"]
    doubled = {key: [rat_str(2 * parse_rat(c)) for c in coords]
               for key, coords in payload.items()}
    for content in (tampered, doubled):
        path.write_text(json.dumps(content))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rhm"] == 216


@pytest.mark.parametrize("content", [
    "[]",
    '{"0,4": ["1/2", "3"]}',
    '{"0,x": ["1/2"]}',
    '{"0,4": ["1/0"]}',
    # well-formed, but the rotation of "0,4" is missing
    '{"0,2": ["1/32"], "0,3": ["1/16"], "0,4": ["-1/16"], '
    '"1,2": ["-1/32"], "1,3": ["1/16"]}',
    # well-formed, but "1,4" is not the rotation of "0,4" (-1/16 times -1)
    '{"0,2": ["1/32"], "0,3": ["1/16"], "0,4": ["-1/16"], '
    '"1,2": ["-1/32"], "1,3": ["1/16"], "1,4": ["17/16"]}',
    # well-formed and trivially covariant, but a stable tensor has keys
    "{}",
])
def test_rhm_malformed_cache_is_a_miss(tmp_path, capsys, monkeypatch,
                                       content):
    argv = ["rhm", "--N", "2", "--genus", "1", "--degrees", "4",
            "--engine", "tr", "--cache-dir", str(tmp_path)]
    path = tmp_path / "tensor_N2_g1_n1_v1.json"
    path.write_text(content)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 1
    assert path.read_text() != content
    # the rewritten file is a hit
    monkeypatch.setattr(Recursion, "_compute",
                        lambda *args: pytest.fail("recomputed"))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 1


def test_cache_dir_only_from_the_request(tmp_path, capsys, monkeypatch):
    """A run without --cache-dir reads no cache, whatever the environment
    holds."""
    argv = ["rhm", "--N", "2", "--genus", "1", "--degrees", "4",
            "--engine", "tr"]
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 1
    # a uniformly doubled tensor still loads from that directory
    path = tmp_path / "tensor_N2_g1_n1_v1.json"
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({
        key: [rat_str(2 * parse_rat(c)) for c in coords]
        for key, coords in payload.items()}))
    monkeypatch.setenv("HYPERMAPS_CACHE_DIR", str(tmp_path))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rhm"] == 1


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


def test_curve_subcommand(capsys):
    assert main(["curve", "--N", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rhm01"][1] == 1 and out["rhm01"][3] == 2


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


def test_config_file_bad_line(tmp_path):
    p = tmp_path / "bad.conf"
    p.write_text("just a dangling token\n")
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config_file(str(p))


def test_config_validation():
    with pytest.raises(ValueError, match="no engines selected"):
        RunConfig(engines=())
    with pytest.raises(ValueError, match="unknown engine"):
        RunConfig(engines=("oracle", "quantum"))
    with pytest.raises(ValueError, match="caps must be positive"):
        RunConfig(weight_cap=0)
    with pytest.raises(ValueError, match="caps must be positive"):
        RunConfig(threads=0)
    with pytest.raises(ValueError, match="unknown output format"):
        RunConfig(out="xml")
    with pytest.raises(ValueError, match="N must be at least 2"):
        RunConfig(N=(1,))
    with pytest.raises(ValueError, match=r"need distinct N values, got \[\]"):
        RunConfig(N=())
    with pytest.raises(ValueError, match="need distinct N values"):
        RunConfig(N=(2, 3, 2))


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
        "--N must be comma separated integers"]


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
        "the Pluecker window for N = 2 needs weight_cap >= 4, got 3"]


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
