import json
import math
import warnings

import numpy as np
import pytest

import besovk.cli
import besovk.verify
from besovk.cli import main
from besovk.coeffs import read_field
from besovk.grid import BesovIndex
from besovk.interp import interp_norm
from besovk.kfunc import InterpQuery, KPlan
from besovk.norms import besov_norm

SPIKE = ["--generate", "single-spike", "--spec", "2,1,2,3", "--seed", "7"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_generate_golden_bytes(capsys, tmp_path):
    code, out = run(capsys, ["generate"] + SPIKE)
    assert code == 0
    assert out == (
        '{\n  "n": 1,\n  "layers": [\n    {\n      "j": 0,\n      "coeffs": [\n'
        '        0.0,\n        0.0\n      ]\n    },\n    {\n      "j": 1,\n'
        '      "coeffs": [\n        0.0,\n        0.0,\n        1.0\n      ]\n'
        '    }\n  ]\n}\n')
    # --out writes the same bytes
    path = tmp_path / "f.json"
    code, _ = run(capsys, ["generate"] + SPIKE + ["--out", str(path)])
    assert code == 0
    assert path.read_text(encoding="utf-8") == out


def test_norm_unit_spike_golden(capsys):
    code, out = run(capsys, ["norm"] + SPIKE + ["--s0", "0", "--p0", "2", "--q0", "2"])
    assert code == 0
    assert out == '{\n  "besov_norm": 1.0\n}\n'


def test_norm_missing_file_exit_2(capsys):
    code = main(["norm", "--input", "/nonexistent/f.json"])
    assert code == 2


def test_norm_requires_exactly_one_source(capsys):
    assert main(["norm"]) == 2
    assert main(["norm", "--input", "x.json"] + SPIKE) == 2


def test_norm_parity_with_library(capsys, tmp_path):
    path = tmp_path / "f.json"
    assert main(["generate", "--generate", "geometric-decay", "--spec",
                 "3,2,2,4,1", "--seed", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out = run(capsys, ["norm", "--input", str(path),
                             "--s0", "0.7", "--p0", "1.5", "--q0", "inf"])
    assert code == 0
    field = read_field(path)
    want = besov_norm(field, BesovIndex(0.7, 1.5, math.inf))
    assert json.loads(out)["besov_norm"] == want


def test_kcurve_degenerate_rows(capsys):
    code, out = run(capsys, ["kcurve"] + SPIKE + [
        "--s0", "0.5", "--p0", "2", "--q0", "1",
        "--t-min-exp", "-2", "--t-max-exp", "2", "--points-per-decade", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,K,method"
    assert len(lines) == 6
    nrm = 2.0**0.5  # weight 2^(1*(0.5+0.5-0.5)) on the layer-1 spike
    for row in lines[1:]:
        t_s, k_s, meth = row.split(",")
        assert meth == "formula:degenerate"
        assert float(k_s) == pytest.approx(min(1.0, float(t_s)) * nrm, rel=1e-12)


def test_kcurve_single_point_grid(capsys):
    code, out = run(capsys, ["kcurve"] + SPIKE + [
        "--t-min-exp", "0", "--t-max-exp", "0"])
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_kcurve_byte_stable_and_method_band(capsys):
    argv = ["kcurve"] + SPIKE + [
        "--s0", "0.5", "--p0", "1", "--q0", "1", "--s1", "-0.5", "--p1", "2",
        "--q1", "2", "--t-min-exp", "-4", "--t-max-exp", "4",
        "--points-per-decade", "1"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run(capsys, argv + ["--method", "oracle"])
    assert code3 == 0
    rows_f = [r.split(",") for r in out1.strip().split("\n")[1:]]
    rows_o = [r.split(",") for r in out3.strip().split("\n")[1:]]
    for (tf, kf, _), (to, ko, mo) in zip(rows_f, rows_o):
        assert tf == to
        assert mo == "oracle:vertex-enumeration"
        assert 1.0 / 16.0 <= float(kf) / float(ko) <= 16.0


def test_kcurve_json_format(capsys):
    code, out = run(capsys, ["kcurve"] + SPIKE + [
        "--t-min-exp", "-1", "--t-max-exp", "1", "--points-per-decade", "1",
        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "formula:degenerate"
    assert len(doc["t"]) == len(doc["K"]) == 3


def test_interpnorm_closed_form_and_parity(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(
        {"n": 1, "layers": [{"j": 0, "coeffs": [1.3]}]}) + "\n", encoding="utf-8")
    code, out = run(capsys, ["interpnorm", "--input", str(path),
                             "--theta", "0.5", "--r", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(4.0 * 1.3, rel=1e-4)
    assert doc["method"] == "formula"
    assert doc["tails"]["fraction"] <= 1e-6
    idx = BesovIndex(0.0, 2.0, 2.0)
    field = read_field(path)
    want = interp_norm(field, InterpQuery(idx, idx, theta=0.5, r=1.0))
    assert doc["value"] == want


def test_interpnorm_sup_form(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(
        {"n": 1, "layers": [{"j": 0, "coeffs": [0.85]}]}) + "\n", encoding="utf-8")
    code, out = run(capsys, ["interpnorm", "--input", str(path),
                             "--theta", "0.4", "--r", "inf"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.85, rel=1e-9)


def test_verify_axioms_seed_1_passes(capsys):
    code, out = run(capsys, ["verify", "--suite", "axioms", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["seed"] == 1


def test_verify_negative_control(capsys, monkeypatch):
    # corrupt the shared-q formula; the suite must fail its named check
    monkeypatch.setattr(besovk.verify, "k_plan",
                        lambda field, query: KPlan("corrupt", lambda ts: np.full(len(ts), 1e6)))
    code, out = run(capsys, ["verify", "--suite", "q-equal"])
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert "layer-sum-band" in failed


def test_verify_endpoints_suite(capsys):
    code, out = run(capsys, ["verify", "--suite", "endpoints"])
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "endpoints"
    assert doc["passed"] is True


def test_verify_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])  # argparse choice failure


def test_budget_refusal_exit_3(capsys):
    code = main(["kcurve"] + SPIKE + [
        "--s0", "1", "--p0", "1", "--q0", "inf", "--s1", "0", "--p1", "2",
        "--q1", "2", "--method", "oracle", "--budget", "2",
        "--t-min-exp", "0", "--t-max-exp", "0"])
    assert code == 3


def test_numeric_overflow_exit_3(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(besovk.cli, "k_curve", overflow)
    code = main(["kcurve"] + SPIKE + ["--t-min-exp", "0", "--t-max-exp", "0"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_generate_rejects_input_flag(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text("{}", encoding="utf-8")
    assert main(["generate", "--input", str(path)]) == 2


@pytest.mark.parametrize("cmd", ["kcurve", "interpnorm"])
def test_formula_route_refuses_xi_exit_2(capsys, cmd):
    # a shared-p couple with s and q both different (composed split)
    # computes the sum form only, so --xi 2.5 is refused, not dropped
    couple = ["--s0", "0.5", "--p0", "2", "--q0", "1", "--s1", "-0.5", "--q1", "2"]
    assert main([cmd] + SPIKE + couple + ["--xi", "2.5"]) == 2
    err = capsys.readouterr().err
    assert "formula:p-equal:composed-split" in err and "xi=2.5" in err
    # xi = 1 and the oracle method run as before
    assert main([cmd] + SPIKE + couple) == 0
    assert main([cmd] + SPIKE + couple + ["--xi", "2.5", "--method", "oracle"]) == 0


@pytest.mark.parametrize("cmd", ["kcurve", "interpnorm"])
def test_t_window_off_the_doubles_exit_2(capsys, cmd):
    # 2^1030 is no double: refused before any grid is built, so no numpy
    # warning and no t = inf row, only the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([cmd] + SPIKE + ["--t-max-exp", "1030"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: t_max_exp = 1030.0: 2^1030.0 is not a positive finite double\n"


@pytest.mark.parametrize("cmd", ["kcurve", "interpnorm"])
@pytest.mark.parametrize("window", [["--t-min-exp", "5", "--t-max-exp", "-5"],
                                    ["--points-per-decade", "-1"],
                                    ["--points-per-decade", "nan"],
                                    ["--points-per-decade", "inf"]])
def test_bad_grid_exit_2(capsys, cmd, window):
    # a reversed window or a nonpositive or nonfinite density once
    # escaped as a raw ValueError (np.logspace, int(round(nan))) or
    # exited 3
    assert main([cmd] + SPIKE + window) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_spec_exit_2(capsys):
    assert main(["generate", "--generate", "single-spike",
                 "--spec", "2,1,2"]) == 2
    assert main(["generate", "--generate", "single-spike",
                 "--spec", "a,b,c"]) == 2
