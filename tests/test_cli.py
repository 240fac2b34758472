import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import holevo_lab as hl
from holevo_lab.channels import channel_to_dict
from holevo_lab.cli import main

LOG2 = math.log(2.0)


def h2(q):
    return -q * math.log(q) - (1 - q) * math.log(1 - q)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_capacity_noiseless(tmp_path, capsys):
    out_path = tmp_path / "cap.json"
    code, out = run_cli(["capacity", "--channel", '{"kind":"noiseless","d":2}',
                         "--tol", "1e-7", "--out", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["value"] == pytest.approx(0.693147180560, abs=1e-6)
    assert data["gap"] <= 1e-6
    assert data["witness"]["items"]
    assert data["wall_time_s"] is None


def test_capacity_depolarizing_closed_form(tmp_path, capsys):
    code, out = run_cli(["capacity", "--channel",
                         '{"kind":"depolarizing","d":2,"p":0.5}', "--tol", "1e-7"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(LOG2 - h2(0.25), abs=1e-6)


def test_capacity_example2(capsys):
    code, out = run_cli(["capacity", "--channel",
                         '{"kind":"example2","n":7,"q":0.1,"N":16}', "--tol", "1e-5"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(0.207944154168, abs=1e-4)


def test_capacity_channel_file_and_constraint(tmp_path, capsys):
    spec = channel_to_dict(hl.noiseless(2))
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(spec))
    constraint = json.dumps({"kind": "expectation",
                             "H": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                             "h": 0.0})
    code, out = run_cli(["capacity", "--channel", f"@{path}",
                         "--constraint", constraint, "--resolution", "512"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(0.0, abs=1e-7)


def test_capacity_bits_display(capsys):
    code, out = run_cli(["capacity", "--channel", '{"kind":"noiseless","d":2}',
                         "--base", "bits", "--tol", "1e-7"], capsys)
    data = json.loads(out)
    assert data["value"] == pytest.approx(1.0, abs=1e-6)


def test_exit_code_config_error(capsys):
    assert main(["capacity", "--channel", '{"kind":"bogus"}']) == 1
    assert main(["capacity", "--channel", "not json"]) == 1
    assert main(["capacity", "--channel", "@/nonexistent/file.json"]) == 1
    assert main(["capacity", "--channel", '{"kind":"noiseless","d":2}',
                 "--tol", "-1"]) == 1


def test_exit_code_config_error_plain_real_matrices(capsys):
    # real matrices where [re, im] pairs are expected raise TypeError inside
    real = [[0.5, 0], [0, 0.5]]
    assert main(["chi", "--channel", '{"kind":"noiseless","d":2}',
                 "--state", json.dumps(real)]) == 1
    assert main(["capacity", "--channel", '{"kind":"noiseless","d":2}', "--constraint",
                 json.dumps({"kind": "singleton", "state": real})]) == 1
    assert main(["capacity", "--channel", json.dumps({"kraus": [real]})]) == 1
    err = capsys.readouterr().err
    assert err.count("config error: bad ") == 3 and "Traceback" not in err


def test_exit_code_config_error_json_not_an_object(capsys):
    assert main(["capacity", "--channel", "[1]"]) == 1
    assert main(["capacity", "--channel", '{"kind":"noiseless","d":2}',
                 "--constraint", "[1]"]) == 1
    err = capsys.readouterr().err
    assert err.count("config error: bad ") == 2 and "Traceback" not in err


def test_byte_stability(tmp_path, capsys):
    args = ["capacity", "--channel", '{"kind":"depolarizing","d":2,"p":0.3}',
            "--seed", "42"]
    _, out1 = run_cli(args + ["--out", str(tmp_path / "a.json")], capsys)
    _, out2 = run_cli(args + ["--out", str(tmp_path / "b.json")], capsys)
    assert out1 == out2
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_chi_command(capsys):
    state = json.dumps([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])
    code, out = run_cli(["chi", "--channel", '{"kind":"noiseless","d":2}',
                         "--state", state], capsys)
    assert code == 0
    assert json.loads(out)["chi"] == pytest.approx(LOG2, abs=1e-8)


def test_hhat_command(capsys):
    state = json.dumps([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])
    code, out = run_cli(["hhat", "--channel",
                         '{"kind":"completely_depolarizing","d":2}',
                         "--state", state], capsys)
    assert code == 0
    assert json.loads(out)["hhat"] == pytest.approx(LOG2, abs=1e-8)


def test_discontinuity_command(tmp_path, capsys):
    out_path = tmp_path / "disc.csv"
    code, out = run_cli(["discontinuity", "--c-target", "0.3",
                         "--n-list", "1,3,7", "--tol", "1e-5",
                         "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert [r["n"] for r in rows] == ["1", "3", "7"]
    for row in rows:
        q = float(row["q"])
        assert float(row["capacity"]) == pytest.approx(0.3, abs=1e-3)
        assert float(row["norm_distance"]) <= 3 * q + 1e-9
    norms = [float(r["norm_distance"]) for r in rows]
    assert norms == sorted(norms, reverse=True)


def test_discontinuity_bad_n(capsys):
    # n=1 with C=0.8 would need q > 1
    assert main(["discontinuity", "--c-target", "0.8", "--n-list", "1"]) == 1


def test_exit_code_non_convergence(capsys):
    # an unreachable tolerance reports the honest gap and exits 2 (the
    # certificate smoothing floors the gap around 1e-9)
    constraint = json.dumps({"kind": "expectation",
                             "H": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                             "h": 0.25})
    code, out = run_cli(["capacity", "--channel", '{"kind":"noiseless","d":2}',
                         "--constraint", constraint,
                         "--tol", "1e-13", "--resolution", "512"], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["gap"] > 1e-13


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("eigh did not converge"),
                                 RuntimeError("decomposition LP failed")])
def test_exit_code_numerical_error(monkeypatch, capsys, exc):
    # a numerical failure inside a solver is not a config error
    import holevo_lab.cli as cli

    def failing(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "chi_capacity", failing)
    assert main(["capacity", "--channel", '{"kind":"noiseless","d":2}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and str(exc) in err


def test_verify_command(capsys):
    code, out = run_cli(["verify", "donald", "--cases", "25"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["suites"][0]["passes"] == 25


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 1


def test_additivity_command(tmp_path, capsys):
    out_path = tmp_path / "add.csv"
    code, out = run_cli(["additivity",
                         "--left", '{"kind":"noiseless","d":2}',
                         "--right", '{"kind":"depolarizing","d":2,"p":0.3}',
                         "--tol", "1e-5", "--resolution", "1024",
                         "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 1
    assert abs(float(rows[0]["additivity_gap"])) < 1e-3
    assert rows[0]["runtime_s"] == ""
    # stdout is the same CSV: the JSON channel fields, commas and all,
    # are quoted; both have LF line ends
    assert list(csv.DictReader(io.StringIO(out))) == rows
    assert b"\r" not in out_path.read_bytes()


def test_additivity_exit_code_joint_gap(tmp_path, monkeypatch, capsys):
    # a joint bracket wider than --tol is a numerical failure even when
    # both single-channel brackets converged
    import holevo_lab.additivity as addmod
    real = addmod.additivity_report

    def wide_joint(*args, **kwargs):
        rep = real(*args, **kwargs)
        lhs = dataclasses.replace(rep.lhs, upper_bound=rep.lhs.upper_bound + 1e-3)
        return dataclasses.replace(rep, lhs=lhs)
    monkeypatch.setattr(addmod, "additivity_report", wide_joint)
    code, _ = run_cli(["additivity",
                       "--left", '{"kind":"noiseless","d":2}',
                       "--right", '{"kind":"depolarizing","d":2,"p":0.3}',
                       "--tol", "1e-5", "--resolution", "1024",
                       "--out", str(tmp_path / "add.csv")], capsys)
    assert code == 2


def _below_lower(res):
    # the upper bound as found lies below the lower bound: the reported
    # gap (after raising it to the lower bound) stays 0
    return dataclasses.replace(res, info={**res.info, "raw_upper": res.lower_bound - 1e-6})


def test_capacity_exit_code_inconsistent_bound(monkeypatch, capsys):
    import holevo_lab.cli as cli
    real = cli.chi_capacity
    monkeypatch.setattr(cli, "chi_capacity", lambda *a, **k: _below_lower(real(*a, **k)))
    code, out = run_cli(["capacity", "--channel", '{"kind":"noiseless","d":2}'], capsys)
    assert code == 2
    assert json.loads(out)["gap"] <= 1e-6


def test_additivity_exit_code_inconsistent_bound(tmp_path, monkeypatch, capsys):
    import holevo_lab.additivity as addmod
    real = addmod.additivity_report

    def low_right(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, rhs_right=_below_lower(rep.rhs_right))
    monkeypatch.setattr(addmod, "additivity_report", low_right)
    code, _ = run_cli(["additivity",
                       "--left", '{"kind":"noiseless","d":2}',
                       "--right", '{"kind":"depolarizing","d":2,"p":0.3}',
                       "--tol", "1e-5", "--resolution", "1024",
                       "--out", str(tmp_path / "add.csv")], capsys)
    assert code == 2


def test_entry_point_installed():
    # the package need not be installed: run it from the repository's src
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "holevo_lab.cli", "verify",
                          "pinsker", "--cases", "5"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
