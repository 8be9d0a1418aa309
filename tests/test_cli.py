import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bdrelax
from bdrelax import selftest
from bdrelax.cli import (build_parser, main, parse_box, parse_matrix, parse_schedule,
                         parse_vector)
from bdrelax.util import configure_logging, log


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    return main(["--out", str(out), *argv]), out


STAIR_SPEC = {
    "dim": 2,
    "smooth": {"type": "zero"},
    "jumps": [],
    "profile": {"eta": [1.0, 0.0], "xi": [0.0, 1.0], "beta": 0.0,
                "staircase": {"kind": "cantor", "depth": 6, "totalMass": 1.0,
                              "support": [0.0, 1.0]}},
}


def test_parsers():
    assert np.array_equal(parse_matrix("1,0;0,1"), np.eye(2))
    assert np.array_equal(parse_matrix("A0"), np.array([[1.0, -1.0], [1.0, 1.0]]))
    assert np.array_equal(parse_vector("0.5,-1"), np.array([0.5, -1.0]))
    sched = parse_schedule("1,1/3")
    assert float(sched[1]) == pytest.approx(1 / 3)
    b = parse_box("-1,-2;3,4")
    assert b.lo == (-1.0, -2.0) and b.hi == (3.0, 4.0)
    # --jobs is accepted and has no effect: multistarts run in lockstep on one thread
    assert build_parser().parse_args(["sq", "--A", "Id"]).jobs == 1


def test_logging_follows_the_current_stderr():
    # a stderr replaced and closed since the last call (as pytest's capsys
    # does) must not keep the package's log records
    first, second = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stderr(first):
        configure_logging("error")
    first.close()
    with contextlib.redirect_stderr(second):
        configure_logging("error")
        log.error("to the second stream")
    configure_logging("error")
    assert second.getvalue() == "ERROR bdrelax: to the second stream\n"


def test_sq_abs_sym_identity(tmp_path, capsys):
    code, out = run_cli(tmp_path, "sq", "--integrand", "abs-sym", "--A", "1,0;0,1",
                        "--mesh", "8")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["extrapolated"] == pytest.approx(np.sqrt(2.0), abs=1e-5)
    assert payload["command"] == "sq"
    assert {"config-hash", "seed", "version"} <= set(payload)
    assert (out / "sq.csv").exists() and (out / "sq.json").exists()


def test_csv_determinism(tmp_path):
    args = ["recession", "--integrand", "sqrt1plus-sym", "--A", "0.5,0;0,0.25"]
    code1, out1 = run_cli(tmp_path / "a", *args)
    code2, out2 = run_cli(tmp_path / "b", *args)
    assert code1 == code2 == 0
    b1 = (out1 / "recession.csv").read_bytes()
    b2 = (out2 / "recession.csv").read_bytes()
    assert b1 == b2
    assert b1.startswith(b"key,value\n")
    assert b"\r" not in b1
    # the output directory is not part of the computation, nor of config-hash
    assert (out1 / "recession.json").read_bytes() == (out2 / "recession.json").read_bytes()


def test_validation_errors(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "sq", "--A", "garbage")
    assert code == 2
    # one stderr line per failure
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot parse matrix 'garbage' (expect 'a,b;c,d')"]
    code, _ = run_cli(tmp_path, "sq", "--integrand", "nope", "--A", "1,0;0,1")
    assert code == 2
    code = main(["not-a-command"])
    assert code == 2
    capsys.readouterr()
    # a zero denominator in a schedule is a validation error, not a traceback
    for argv in (["jump", "--v-plus", "0,1", "--nu", "1,0", "--eps-schedule", "1/0"],
                 ["recession", "--A", "1,0;0,1", "--t-schedule", "1/0"]):
        code, out = run_cli(tmp_path, *argv)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot parse schedule '1/0' (expect 'a,b/c,...')"]
        assert not out.exists()
    # a nonpositive start count is an error, also where mueller raises it to 8
    for starts in ("-3", "0"):
        for argv in (["sq", "--integrand", "abs-sym", "--A", "1,0;0,1", "--mesh", "4"],
                     ["mueller", "--matrix", "Id", "--mesh", "4"]):
            code, out = run_cli(tmp_path, "--multistarts", starts, *argv)
            assert code == 2
            assert capsys.readouterr().err.splitlines() == ["error: multistarts must be >= 1"]
            assert not out.exists()
    # a nonpositive quadrature count or sampling grid is an error, not an
    # empty result or a traceback
    path = tmp_path / "stair.json"
    path.write_text(json.dumps(STAIR_SPEC))
    for argv, err in ((["represent", "--quad", "0"], "quadrature cells per axis must be >= 1, got 0"),
                      (["korn", "--quad", "0"], "quadrature cells per axis must be >= 1, got 0"),
                      (["blowup", "--grid", "0"], "grid per axis must be >= 1, got 0"),
                      (["blowup", "--grid", "-2"], "grid per axis must be >= 1, got -2")):
        code, out = run_cli(tmp_path, *argv, "--bd-spec", str(path))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {err}"]
        assert not out.exists()


def test_unknown_ids_exit_2_and_other_key_errors_do_not(tmp_path, capsys, monkeypatch):
    # an unknown integrand or SBD surface id is a validation error with one
    # error line, free of KeyError's quotes; a KeyError raised inside a
    # command is a bug and reaches the caller instead of reading as exit 2
    for argv, what in ((["sq", "--integrand", "nope", "--A", "1,0;0,1"], "integrand"),
                       (["jump", "--sbd", "--g1", "nope", "--v-plus", "0,1", "--nu", "1,0"],
                        "surface integrand")):
        code, out = run_cli(tmp_path, *argv)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: unknown {what} id 'nope'; known: [")

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("bdrelax.cli.recession", broken)
    with pytest.raises(KeyError, match="internal"):
        run_cli(tmp_path, "recession", "--A", "1,0;0,1")


@pytest.mark.parametrize("argv,err", [
    (["jump", "--v-plus", "0,1", "--nu", "nan,0", "--mesh", "4", "--eps-schedule", "1"],
     "cannot parse vector 'nan,0' (expect 'a,b')"),
    (["density", "--A", "nan,0;0,0", "--mesh", "4", "--eps-schedule", "1"],
     "cannot parse matrix 'nan,0;0,0' (expect 'a,b;c,d')"),
    (["density", "--A", "1,0;0,0", "--mesh", "4", "--eps-schedule", "nan"],
     "cannot parse schedule 'nan' (expect 'a,b/c,...')"),
    (["recession", "--A", "1,0;0,1", "--t-schedule", "1e2,inf"],
     "cannot parse schedule '1e2,inf' (expect 'a,b/c,...')"),
    (["korn", "--box=-inf,-0.5;0.5,0.5"],
     "cannot parse box '-inf,-0.5;0.5,0.5' (expect 'lo1,lo2;hi1,hi2')"),
], ids=["vector", "matrix", "schedule-nan", "schedule-inf", "box"])
def test_non_finite_flags_exit_2(tmp_path, capsys, argv, err):
    path = tmp_path / "stair.json"
    path.write_text(json.dumps(STAIR_SPEC))
    code, out = run_cli(tmp_path, *argv, *(["--bd-spec", str(path)] if argv[0] == "korn" else []))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {err}"]
    assert not out.exists()


def test_non_finite_rho_exits_2(tmp_path, capsys):
    path = tmp_path / "stair.json"
    path.write_text(json.dumps(STAIR_SPEC))
    for rho in ("inf", "nan"):
        code, out = run_cli(tmp_path, "blowup", "--bd-spec", str(path), "--rho", rho)
        assert code == 2 and not out.exists()
        assert "argument --rho" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("spec,what", [
    ({"jumps": [{"nu": [1, 0], "c": "nan", "dv": [0, 1]}]}, "jump offset c"),
    ({"jumps": [{"nu": [1, 0], "c": 0.1, "dv": [0, "inf"]}]}, "jump dv"),
    ({"smooth": {"type": "affine", "A": [[1, 0], [0, 1]], "v": ["-inf", 0]}}, "affine v"),
], ids=["c-nan", "dv-inf", "affine-v"])
def test_non_finite_json_strings_exit_2(tmp_path, capsys, spec, what):
    # json reads "nan" and "inf" as strings, which float() and numpy still
    # turn into numbers: the field rejects them, as it rejects NaN tokens
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(tmp_path, "represent", "--bd-spec", str(path))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: bad BD spec {path}: {what} must be finite"]
    assert not out.exists()


@pytest.mark.parametrize("text,token", [
    ('{"jumps": [{"nu": [NaN, 0], "c": 0, "dv": [0, 1]}]}', "NaN"),
    ('{"jumps": [{"nu": [1, 0], "c": -Infinity, "dv": [0, 1]}]}', "-Infinity"),
    ('{"jumps": [{"nu": [1, 0], "c": 1e999, "dv": [0, 1]}]}', "1e999"),
    ('{"profile": {"eta": [Infinity, 0], "xi": [0, 1], "staircase": {"depth": 2, '
     '"totalMass": 1, "support": [0, 1]}}}', "Infinity"),
], ids=["nan", "minus-infinity", "overflow", "infinity"])
def test_non_finite_json_exits_2(tmp_path, capsys, text, token):
    # Python's json reads NaN, Infinity and 1e999 as floats unless told not to
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out = run_cli(tmp_path, "represent", "--bd-spec", str(spec))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: bad BD spec {spec}: {token!r} is not a finite number"]
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"rho": {token}}}')
    code, out = run_cli(tmp_path, "--config", str(cfg), "recession", "--A", "1,0;0,1")
    assert code == 2 and not out.exists()


def test_selftest_prints_one_line_per_check(monkeypatch, capsys):
    passing = (1, "stub pass", lambda: (True, "fine"))
    failing = (2, "stub fail", lambda: (False, "off by 1"))
    monkeypatch.setattr(selftest, "CHECKS", [passing, failing])
    assert main(["selftest"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["ACCEPTANCE  1 PASS stub pass: fine",
                                         "ACCEPTANCE  2 FAIL stub fail: off by 1"]
    # each check's wall time goes to stderr, before the one failure line
    err = captured.err.splitlines()
    assert [re.sub(r" \d+\.\d{3} s$", " <t> s", line) for line in err] == [
        "selftest  1 stub pass: <t> s", "selftest  2 stub fail: <t> s",
        "solver failure: acceptance suite failed"]
    monkeypatch.setattr(selftest, "CHECKS", [passing])
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == ["ACCEPTANCE  1 PASS stub pass: fine"]


def test_selftest_reports_the_laminate_stops_and_times_each_check(monkeypatch, capsys):
    # checks 05 and 06 for real: their ACCEPTANCE lines name each jump cell's
    # and each laminate sample's stop reason and relative gap, and stderr
    # holds their wall times alone
    monkeypatch.setattr(selftest, "CHECKS", [c for c in selftest.CHECKS if c[0] in (5, 6)])
    assert main(["selftest"]) == 0
    captured = capsys.readouterr()
    jump, line = captured.out.splitlines()
    assert jump.startswith("ACCEPTANCE  5 PASS jump/recession consistency: jump rel err ")
    cells = re.findall(r"dv=(\w+) nu=(\w+) stopped on (\w+), rel gap (\S+?)[,)]", jump)
    assert [cell[:3] for cell in cells] == [("e2", "e1", "gap"), ("e1", "e1", "gap"),
                                            ("e2", "diag", "gap")]
    assert all(0.0 <= float(gap) <= 1e-5 for *_, gap in cells)
    assert float(re.search(r"jump rel err (\S+)%", jump).group(1)) < 1.2
    assert line.startswith("ACCEPTANCE  6 PASS homogenization cross-formula: laminate periodic ")
    stops = re.findall(r"T=(\d) stopped on (\w+), rel gap (\S+?)[,)]", line)
    assert [(T, reason) for T, reason, _ in stops] == [("1", "gap"), ("2", "gap"), ("4", "gap")]
    assert all(0.0 <= float(gap) <= 1e-5 for _, _, gap in stops)
    assert re.fullmatch(r"selftest  5 jump/recession consistency: \d+\.\d{3} s\n"
                        r"selftest  6 homogenization cross-formula: \d+\.\d{3} s\n", captured.err)


def test_mueller_command(tmp_path, capsys):
    code, out = run_cli(tmp_path, "mueller", "--matrix", "A0", "--mesh", "8")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h"] == 2.0
    assert payload["witness"]["h_values"] == [0.0, 0.0]
    assert payload["witness"]["mean_is_A0"] is True
    assert payload["envelope"]["samples"][0][1] > 0.05


def test_korn_and_blowup_with_bd_spec(tmp_path, capsys):
    path = tmp_path / "stair.json"
    path.write_text(json.dumps(STAIR_SPEC))
    code, out = run_cli(tmp_path, "korn", "--bd-spec", str(path),
                        "--eps-schedule", "1,1/3", "--quad", "81")
    assert code == 0
    csv = (out / "korn.csv").read_text()
    assert csv.splitlines()[0] == "eps,l1_residual,ev_mass,ratio"
    capsys.readouterr()
    code, out = run_cli(tmp_path, "blowup", "--bd-spec", str(path),
                        "--eps-schedule", "1,1/3", "--grid", "12")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(r["emass"] == 1.0 for r in payload["rows"])


def test_represent_command(tmp_path, capsys):
    spec = {
        "dim": 2,
        "smooth": {"type": "zero"},
        "jumps": [{"nu": [1.0, 0.0], "c": 0.0, "dv": [0.0, 1.0]}],
        "profile": None,
    }
    path = tmp_path / "jump.json"
    path.write_text(json.dumps(spec))
    code, _ = run_cli(tmp_path, "represent", "--bd-spec", str(path),
                      "--box=-0.5,-0.5;0.5,0.5", "--integrand", "abs-sym")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert float(payload["total"]) == pytest.approx(2 ** -0.5, rel=1e-9)
    assert float(payload["bulk"]) == pytest.approx(0.0, abs=1e-12)


def _jump_bd_spec(tmp_path):
    path = tmp_path / "jump.json"
    path.write_text(json.dumps({"dim": 2, "smooth": {"type": "zero"}, "profile": None,
                                "jumps": [{"nu": [1.0, 0.0], "c": 0.0, "dv": [0.0, 1.0]}]}))
    return path


def test_represent_table_source(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"f": 1.0, "g": 2.0, "finf": 0.0}))
    code, _ = run_cli(tmp_path, "represent", "--bd-spec", str(_jump_bd_spec(tmp_path)),
                      "--density-source", "table", "--table", str(table))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["bulk"], payload["jump"]) == (pytest.approx(1.0), pytest.approx(2.0))


@pytest.mark.parametrize("content", [None, "absent", "{not json", "[1, 2, 0]",
                                     '{"f": 1, "finf": 0}', '{"f": 1, "g": "x", "finf": 0}',
                                     '{"f": 1, "g": NaN, "finf": 0}',
                                     '{"f": 1, "g": "-inf", "finf": 0}',
                                     '{"f": 1, "g": 1' + 400 * "0" + ', "finf": 0}'],
                         ids=["no-table-flag", "missing-file", "malformed", "not-an-object",
                              "missing-key", "not-a-number", "nan", "infinite-string",
                              "huge-int"])
def test_bad_density_table_exits_2(tmp_path, capsys, content):
    table = tmp_path / "table.json"
    if content not in (None, "absent"):
        table.write_text(content)
    argv = ["represent", "--bd-spec", str(_jump_bd_spec(tmp_path)), "--density-source", "table"]
    code, out = run_cli(tmp_path, *argv, *([] if content is None else ["--table", str(table)]))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": "8"}))
    code, _ = run_cli(tmp_path, "--config", str(cfg), "sq", "--integrand", "abs-sym",
                      "--A", "1,0;0,1")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == [[8, pytest.approx(np.sqrt(2.0), abs=1e-5)]]


def test_explicit_flag_with_equals_beats_config(tmp_path, capsys):
    # laminate-a at x0 = (-1, -1) is 3 |A|_mu; the config's x0 = (0.25, 0.25) would give 2 |A|_mu
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x0": "0.25,0.25"}))
    code, _ = run_cli(tmp_path, "--config", str(cfg), "density", "--integrand", "laminate-a",
                      "--A", "1,0;0,0", "--x0=-1,-1", "--eps-schedule", "1", "--mesh", "8")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["extrapolated"] == pytest.approx(3.0 * np.sqrt(1e-4 + 1.0), rel=1e-12)


def test_density_solver_failure_exits_3(tmp_path):
    code, _ = run_cli(tmp_path, "density", "--integrand", "abs-sym*1e308",
                      "--A", "1e10,0;0,1e10")
    assert code == 3


def test_solver_failure_prints_one_stderr_line(tmp_path):
    # the overflow reaches stderr as the one documented line, with no numpy
    # RuntimeWarning before it
    env = {**os.environ, "PYTHONPATH": str(Path(bdrelax.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "bdrelax.cli", "--out", str(tmp_path),
                           "density", "--integrand", "abs-sym*1e308", "--A", "1e10,0;0,1e10"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "solver failure: integrand overflow\n"


def test_json_identical_across_processes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(bdrelax.__file__).parents[1])}
    for command, files in (
            (["recession", "--A", "0.5,0;0,0.25"], ["recession.json"]),
            (["jump", "--v-plus", "0,1", "--nu", "1,0", "--mesh", "8", "--eps-schedule", "1"],
             ["jump.json", "jump.csv"]),
            (["--multistarts", "2", "homogenize", "--integrand", "laminate-a", "--A", "1,0;0,0",
              "--T-schedule", "1", "--mesh", "8", "--formula", "periodic"],
             ["homogenize.json"]),
            # 8 starts at mesh 4, then those 8 and the prolonged one at mesh 8
            (["mueller", "--matrix", "A0", "--mesh", "4,8"], ["mueller.json", "mueller.csv"])):
        argv = [sys.executable, "-m", "bdrelax.cli", "--out", str(tmp_path), *command]
        outs = []
        for _ in range(2):
            proc = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120)
            outs.append([proc.stdout] + [(tmp_path / name).read_bytes() for name in files])
        assert outs[0] == outs[1]
        assert b'"config-hash"' in outs[0][0] and b'"config-hash"' in outs[0][1]


def test_sbd_jump_identical_across_processes_and_converged(tmp_path):
    # the SBD cell of the jump-bulk-cells benchmark: it ends on a certified
    # gap, so the estimate is converged, and two processes write the same
    # bytes
    env = {**os.environ, "PYTHONPATH": str(Path(bdrelax.__file__).parents[1])}
    argv = [sys.executable, "-m", "bdrelax.cli", "--out", str(tmp_path), "jump",
            "--integrand", "abs-sym*100", "--sbd", "--g1", "odot", "--v-plus", "0,1",
            "--nu", "1,0", "--mesh", "12", "--eps-schedule", "1"]
    outs = []
    for _ in range(2):
        proc = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120)
        outs.append([proc.stdout] + [(tmp_path / name).read_bytes()
                                     for name in ("jump.json", "jump.csv")])
    assert outs[0] == outs[1]
    payload = json.loads(outs[0][0])
    assert payload["converged"] is True
    assert payload["extrapolated"] == pytest.approx(2 ** -0.5, rel=1e-5)
    assert b'"converged": true' in outs[0][1]


def test_abbreviated_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps-schedule": "1,0.5"}))
    code, _ = run_cli(tmp_path, "--config", str(cfg), "density", "--A", "1,0;0,0",
                      "--mesh", "8", "--eps", "1")
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["samples"]) == 1


def _payload_without_hash(capsys):
    payload = json.loads(capsys.readouterr().out)
    del payload["config-hash"]
    return payload


def test_config_value_parsed_like_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"multistarts": "2"}))
    argv = ["density", "--A", "1,0;0,0", "--mesh", "8", "--eps-schedule", "1"]
    code, _ = run_cli(tmp_path / "a", "--config", str(cfg), *argv)
    assert code == 0
    from_config = _payload_without_hash(capsys)
    code, _ = run_cli(tmp_path / "b", "--multistarts", "2", *argv)
    assert code == 0
    assert from_config == _payload_without_hash(capsys)


def test_config_cannot_set_what_is_no_option(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fn": 1, "command": "sq", "config": "elsewhere.json"}))
    code, _ = run_cli(tmp_path, "--config", str(cfg), "recession", "--A", "0.5,0;0,0.25")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["command"] == "recession"


@pytest.mark.parametrize("content", [{"format": "xml"}, {"sbd": "yes"}, [1], None],
                         ids=["bad-choice", "flag-not-bool", "not-an-object", "missing-file"])
def test_bad_config_exits_2(tmp_path, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(json.dumps(content))
    code, out = run_cli(tmp_path, "--config", str(cfg), "jump", "--v-plus", "0,1", "--nu", "1,0",
                        "--mesh", "4", "--eps-schedule", "1")
    assert code == 2
    assert not out.exists()


def test_config_flag_takes_json_bool(tmp_path):
    # --g1 is read only on the SBD path, so an unknown one fails only there
    argv = ["jump", "--v-plus", "0,1", "--nu", "1,0", "--mesh", "4", "--eps-schedule", "1"]
    for sbd, expected in ((True, 2), (False, 0)):
        cfg = tmp_path / f"{sbd}.json"
        cfg.write_text(json.dumps({"sbd": sbd, "g1": "nope"}))
        assert run_cli(tmp_path, "--config", str(cfg), *argv)[0] == expected


def test_density_command(tmp_path, capsys):
    code, out = run_cli(tmp_path, "density", "--integrand", "abs-sym",
                        "--A", "1,0;0,0", "--eps-schedule", "1", "--mesh", "8")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["extrapolated"] == pytest.approx(1.0, abs=1e-5)


def test_homogenize_command(tmp_path, capsys):
    code, out = run_cli(tmp_path, "homogenize", "--integrand", "sqrt1plus-sym",
                        "--A", "0.5,0;0,0", "--T-schedule", "1", "--mesh", "8",
                        "--formula", "both")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    target = np.sqrt(1.0 + 0.25)
    assert payload["periodic"] == pytest.approx(target, abs=1e-6)
    assert payload["dirichlet"]["extrapolated"] == pytest.approx(target, abs=1e-6)
    assert (out / "homogenize.csv").read_text().splitlines()[0] == "T,value"


def test_jump_command_reports_an_unconverged_solver(tmp_path, capsys):
    # mueller-h declares no conjugate, and its diagonal cell stops at
    # max_iters=2000: however small the spread, the estimate is not converged
    code, _ = run_cli(tmp_path, "jump", "--integrand", "mueller-h", "--v-plus", "0,1",
                      "--nu", "0.7071067811865476,0.7071067811865476",
                      "--mesh", "16", "--eps-schedule", "1")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False and payload["spread"] == 0.0


def test_diagonal_jump_command_converges_on_a_certified_gap(tmp_path, capsys):
    # the abs-sym diagonal cell stopped at max_iters=2000, 0.028 above
    # |dv (.) nu|; the primal-dual finish now closes its gap, so `converged`
    # is earned, and the sample lies within 1e-5 of the discrete infimum
    code, _ = run_cli(tmp_path, "jump", "--v-plus", "0,1",
                      "--nu", "0.7071067811865476,0.7071067811865476",
                      "--mesh", "16", "--eps-schedule", "1")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True and payload["spread"] == 0.0
    assert 0.88725 < payload["extrapolated"] < 0.88727


def test_jump_command_sbd(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "jump", "--integrand", "abs-sym*100", "--sbd",
                      "--g1", "odot", "--v-plus", "0,1", "--nu", "1,0",
                      "--eps-schedule", "1", "--mesh", "8")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["extrapolated"] == pytest.approx(2 ** -0.5, rel=0.02)
