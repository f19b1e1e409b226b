import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import besovk.cli
import besovk.verify
from besovk.cli import main
from besovk.coeffs import generate, read_field
from besovk.errors import DataError, UsageError
from besovk.grid import BesovIndex, GridSpec
from besovk.interp import QuadratureSpec, interp_norm, interp_norm_report
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


def test_norm_lorentz_to_file(capsys, tmp_path):
    # the spike sits in layer 1 of n = 1 at height 2^(1/2), measure 1/2:
    # the levels 2^u, u <= 0, count, so the r = 2 functional is
    # ((1/2)^(r/p) / (1 - 2^-r))^(1/r) = (2/3)^(1/2)
    argv = ["norm"] + SPIKE + ["--s0", "0", "--p0", "2", "--q0", "2", "--lorentz-r", "2"]
    code, out = run(capsys, argv)
    assert code == 0
    assert json.loads(out) == {"besov_norm": 1.0,
                               "besov_lorentz_norm": pytest.approx(math.sqrt(2.0 / 3.0),
                                                                   rel=1e-15)}
    path = tmp_path / "norm.json"
    code, printed = run(capsys, argv + ["--out", str(path)])
    assert (code, printed) == (0, "")
    assert path.read_text(encoding="utf-8") == out
    for r in ("0", "nan"):
        assert main(["norm"] + SPIKE + ["--lorentz-r", r]) == 2
        assert capsys.readouterr().err == "error: indices must be positive\n"


@pytest.mark.parametrize("doc, match", [
    ({"n": 0, "layers": [{"j": 0, "coeffs": [1.0]}]}, "'n' must be a positive integer"),
    ({"n": 1.0, "layers": [{"j": 0, "coeffs": [1.0]}]}, "'n' must be a positive integer"),
    ({"n": 1, "layers": []}, "'layers' must be a nonempty list"),
    ({"n": 1, "layers": {"j": 0}}, "'layers' must be a nonempty list"),
    ({"n": 1, "layers": [[1.0]]}, "layer 0 must carry 'j' and 'coeffs'"),
    ({"n": 1, "layers": [{"j": 0}]}, "layer 0 must carry 'j' and 'coeffs'"),
    ({"n": 1, "layers": [{"j": 0, "coeffs": [1.0]}, {"j": 2, "coeffs": [1.0]}]},
     "contiguous from 0, found j=2 at slot 1"),
    ({"n": 1, "layers": [{"j": 0, "coeffs": []}]}, "layer 0 has no coefficients"),
    ({"n": 1, "layers": [{"j": 0, "coeffs": 1.0}]}, "layer 0 has no coefficients"),
    ({"n": 1, "layers": [{"j": 0, "coeffs": [1.0, math.nan]}]},
     "layer 0 has non-finite coefficients"),
    ({"n": 1, "layers": [{"j": 0, "coeffs": [1e400]}]}, "layer 0 has non-finite coefficients"),
    ({"n": True, "layers": [{"j": False, "coeffs": [1.0]}]}, "'n' must be a positive integer"),
    ({"n": 1, "layers": [{"j": False, "coeffs": [1.0]}]},
     "layer 0 has a 'j' that is not an integer"),
    ({"n": 1, "layers": [{"j": 0, "coeffs": [1.0, True]}]},
     "layer 0 has coefficients that are not numbers"),
    ({"n": 1, "layers": [{"j": 0, "coeffs": ["1.5"]}]},
     "layer 0 has coefficients that are not numbers"),
    ({"n": 1, "layers": [{"j": 0, "coeffs": [[1.0, 2.0]]}]},
     "layer 0 has coefficients that are not numbers"),
    # an integer beyond double range reads as inf, as 1e400 does
    ({"n": 1, "layers": [{"j": 0, "coeffs": [10**400]}]}, "layer 0 has non-finite coefficients"),
    ({"n": 10**400, "layers": [{"j": 0, "coeffs": [1.0]}]}, "'n' must be a positive integer"),
])
def test_malformed_field_file_exit_2(capsys, tmp_path, doc, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match=match):
        read_field(path)
    assert main(["norm", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_field_file_integer_past_the_digit_limit_exit_2(capsys, tmp_path):
    # past 4300 digits int() refuses to parse; the reader never calls it
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, "layers": [{"j": 0, "coeffs": [1%s]}]}' % ("0" * 5000),
                    encoding="utf-8")
    assert main(["norm", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: layer 0 has non-finite coefficients\n"


def test_norm_missing_file_exit_2(capsys):
    code = main(["norm", "--input", "/nonexistent/f.json"])
    assert code == 2


def test_norm_far_from_one_at_large_exponents(capsys, tmp_path):
    # p-th powers at the rescaling rule's scale for power p: one 1e30
    # coefficient at p = q = 11 printed Infinity, and the Lorentz norm of
    # a field near 2^700 raised OverflowError (exit 3)
    path = tmp_path / "f.json"
    path.write_text('{"n": 1, "layers": [{"j": 0, "coeffs": [1e30]}]}', encoding="utf-8")
    code = main(["norm", "--input", str(path), "--p0", "11", "--q0", "11"])
    got = capsys.readouterr()
    assert (code, got.out, got.err) == (0, '{\n  "besov_norm": 1e+30\n}\n', "")
    big = [{"j": 0, "coeffs": [2.0**700]}, {"j": 1, "coeffs": [2.0**699, 2.0**698]}]
    path.write_text(json.dumps({"n": 1, "layers": big}), encoding="utf-8")
    code = main(["norm", "--input", str(path), "--s0", "0.3", "--q0", "1",
                 "--lorentz-r", "2"])
    got = capsys.readouterr()
    assert (code, got.err) == (0, "")
    assert json.loads(got.out)["besov_lorentz_norm"] == pytest.approx(
        1.1392882414691883 * 2.0**700, rel=1e-15)


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


@pytest.mark.parametrize("ppd", [2.5, 2.4, 0.4])
def test_interpnorm_fractional_points_per_decade(capsys, ppd):
    # the density is used as given, not rounded to a whole number
    code, out = run(capsys, ["interpnorm"] + SPIKE + ["--points-per-decade", repr(ppd)])
    assert code == 0
    doc = json.loads(out)
    win = doc["window"]
    assert win["points"] == round((win["t_max_exp"] - win["t_min_exp"]) * ppd) + 1
    assert win["points"] != round((win["t_max_exp"] - win["t_min_exp"]) * round(ppd)) + 1
    spike = generate(GridSpec(n=1, J=2, layer_sizes=(2, 3)), "single-spike", 7)
    idx = BesovIndex(0.0, 2.0, 2.0)
    rep = interp_norm_report(spike, InterpQuery(idx, idx),
                             quad=QuadratureSpec(points_per_decade=ppd))
    assert (doc["value"], win["points"]) == (rep.value, rep.n_points)


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
    code = main(["kcurve", "--generate", "uniform-random", "--spec", "3,1,7,7,7",
                 "--s0", "1", "--p0", "1", "--q0", "inf", "--s1", "0", "--p1", "2",
                 "--q1", "2", "--method", "oracle",
                 "--t-min-exp", "0", "--t-max-exp", "0"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: 21 coefficients exceed the enumeration budget (20); "
        "refusing rather than truncating\n")


def test_composed_split_without_calibration_exit_3(capsys, tmp_path):
    # the composed split's raw limit M0 underflows to 0, and k_plan refuses
    path = tmp_path / "f.json"
    doc = {"n": 2, "layers": [{"j": 0, "coeffs": [0.0, 0.0]},
                              {"j": 1, "coeffs": [0.0, 0.9216188052986237]}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["kcurve", "--input", str(path), "--s0", "-1.2473819850289192", "--p0", "0.5",
                 "--q0", "256", "--s1", "-0.6666263438808868", "--p1", "0.5", "--q1", "inf"])
    assert code == 3
    assert "formula:p-equal:composed-split" in capsys.readouterr().err


def test_numeric_overflow_exit_3(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(besovk.cli, "k_curve", overflow)
    code = main(["kcurve"] + SPIKE + ["--t-min-exp", "0", "--t-max-exp", "0"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["generate", "--generate", "uniform-random", "--spec", "1,1,2", "--seed", "-1"],
    ["kcurve", "--generate", "uniform-random", "--spec", "1,1,2", "--seed", "-1"],
    ["verify", "--suite", "endpoints", "--seed", "-3"],
])
def test_negative_seed_exit_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: seed must be a nonnegative integer, got -\d\n", err)


@pytest.mark.parametrize("cmd, target", [("kcurve", "k_curve"),
                                         ("interpnorm", "interp_norm_report")])
@pytest.mark.parametrize("args, text", [
    (("Unable to allocate 29.8 GiB for an array with shape (4000000001,) "
      "and data type float64",), "Unable to allocate 29.8 GiB"),
    ((), "MemoryError()"),  # a bare MemoryError has no text of its own
])
def test_refused_allocation_exit_3(capsys, monkeypatch, cmd, target, args, text):
    # stands in for a t window too dense to allocate, on the default one:
    # nothing large is allocated for real
    def refuse(*_, **kwargs):
        raise MemoryError(*args)

    monkeypatch.setattr(besovk.cli, target, refuse)
    assert main([cmd, "--generate", "uniform-random", "--spec", "1,1,2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {text}") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["kcurve", "interpnorm"])
@pytest.mark.parametrize("ppd", ["1e8", "1e308"])
def test_t_window_past_the_node_bound_exit_2(capsys, monkeypatch, cmd, ppd):
    # refused before the grid is allocated: 1e8 per decade once asked
    # np.logspace for 4*10^9 doubles, and 1e308 exited 3 on int(inf)
    def logspace(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "logspace", logspace)
    argv = [cmd, "--generate", "uniform-random", "--spec", "1,1,2", "--points-per-decade", ppd]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \[2\^-20\.0, 2\^20\.0\] at .* per decade holds more than "
                        r"4194304 nodes\n", err)


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


@pytest.mark.parametrize("cmd", ["kcurve", "interpnorm"])
def test_one_window_rule_for_both_commands(capsys, cmd):
    # interpnorm once refused an equal window that kcurve took, and gave a
    # reversed one its own message; one rule now decides for both
    assert main([cmd] + SPIKE + ["--t-min-exp", "0", "--t-max-exp", "0"]) == 0
    capsys.readouterr()
    assert main([cmd] + SPIKE + ["--t-min-exp", "5", "--t-max-exp", "-5"]) == 2
    assert capsys.readouterr().err == "error: need t_min_exp <= t_max_exp, got 5.0 > -5.0\n"


def test_kcurve_plan_that_overflows_exit_3(capsys, tmp_path):
    # A1 exponent q1 = 1024 overflows the GENERAL build (1.176^1024); kcurve
    # once printed K = 5.08 against min(N0, t N1) = 4.4e-4 and exited 0
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"n": 1, "layers": [{"j": 0, "coeffs": [0.351]},
                                                   {"j": 1, "coeffs": [0.698, 1.176]}]}))
    code = main(["kcurve", "--input", str(path), "--s0", "1.61", "--p0", "inf", "--q0", "2",
                 "--s1", "0.39", "--p1", "2", "--q1", "1024",
                 "--t-min-exp", "-12", "--t-max-exp", "-12"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "formula:general:power-composition-kinf" in captured.err


def test_norm_layer_weight_past_double_range_exit_3(capsys):
    # s = 2000 puts layer 1's weight at 2^2000: once "error: (34, 'Numerical
    # result out of range')"
    code = main(["norm", "--generate", "single-spike", "--spec", "2,1,1,1", "--s0", "2000"])
    assert code == 3
    assert capsys.readouterr().err == "error: layer 1 has weight 2^2000, past double range\n"


def test_norm_lorentz_term_past_double_range_exit_3(capsys):
    # at r = 0.001 layer 0's dyadic sum to the power 1/r overflows: once
    # "error: (34, 'Numerical result out of range')"
    code = main(["norm", "--generate", "uniform-random", "--spec", "2,1,1,2",
                 "--lorentz-r", "0.001"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: layer 0 Lorentz term at r=0.001 leaves double range\n"


_HUGE_DOC = {"n": 1, "layers": [{"j": 0, "coeffs": [1.7e308, 1.7e308]}]}


@pytest.mark.parametrize("argv, label", [
    (["kcurve", "--s1", "1", "--t-min-exp", "0", "--t-max-exp", "2"],
     "route formula:p-equal:weighted-split leaves double range at t = 1.0"),
    (["kcurve", "--s1", "1", "--t-min-exp", "0", "--t-max-exp", "2", "--method", "oracle"],
     "route oracle:vertex-enumeration leaves double range at t = 1.0"),
    (["norm"], "lp_norm leaves double range"),
])
def test_result_past_double_range_exit_3(capsys, tmp_path, argv, label):
    # 2 * 1.7e308: kcurve once printed K = inf and norm "Infinity", which
    # is not JSON, and both exited 0
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_HUGE_DOC), encoding="utf-8")
    code = main([argv[0], "--input", str(path), "--p0", "1", "--q0", "1", *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {label}\n")


def test_interpnorm_far_from_one_exit_0(capsys, tmp_path):
    # its tails, once of degree r = 10 in K (1e1000 here), exited 3
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "layers": [{"j": 0, "coeffs": [1e100]}]}', encoding="utf-8")
    code, out = run(capsys, ["interpnorm", "--input", str(path), "--r", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 9.124435365554808e+99
    assert 0.0 < doc["tails"]["low"] < doc["value"] and 0.0 < doc["tails"]["high"] < doc["value"]


def test_norm_and_interpnorm_past_an_exponent_of_1000(capsys, tmp_path):
    # 0.5^2000 is below the least subnormal: each printed 0.0 and exited 0
    path = tmp_path / "half.json"
    path.write_text('{"n": 1, "layers": [{"j": 0, "coeffs": [0.5]}]}', encoding="utf-8")
    code, out = run(capsys, ["norm", "--input", str(path), "--p0", "2000"])
    assert (code, json.loads(out)) == (0, {"besov_norm": 0.5})
    # the dyadic Lorentz term is the l^2000 norm of the one level height 1/4
    code, out = run(capsys, ["norm", "--input", str(path), "--lorentz-r", "2000"])
    assert (code, json.loads(out)) == (0, {"besov_norm": 0.5, "besov_lorentz_norm": 0.25})
    # K = 0.5 min(1, t): at theta = 1/2, r = 2 the norm is 0.5 sqrt(2)
    code, out = run(capsys, ["interpnorm", "--input", str(path), "--q0", "2000"])
    assert (code, json.loads(out)["value"]) == (0, 0.7071067811865476)


def test_interpnorm_past_double_range_exit_3(capsys, tmp_path):
    # the (1/2, 1) norm of the one coefficient 1e308 is 4e308
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "layers": [{"j": 0, "coeffs": [1e308]}]}', encoding="utf-8")
    code = main(["interpnorm", "--input", str(path), "--r", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "", "error: interpolation result leaves double range\n")


def test_bad_spec_exit_2(capsys):
    assert main(["generate", "--generate", "single-spike",
                 "--spec", "2,1,2"]) == 2
    assert main(["generate", "--generate", "single-spike",
                 "--spec", "a,b,c"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["norm", "--generate", "single-spike", "--spec", "1,1"], "--spec needs at least J,n,m0"),
    (["norm", "--generate", "single-spike"], "--generate requires --spec J,n,m0,m1,..."),
    (["generate", "--spec", "1,1,1"], "generate requires --generate KIND"),
])
def test_field_source_refusals_exit_2(capsys, argv, message):
    args = besovk.cli.build_parser().parse_args(argv)
    with pytest.raises(UsageError, match="^" + re.escape(message) + "$"):
        args.func(args)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_python_dash_m_matches_main(capsys):
    # python -m besovk runs cli.main: same stdout, stderr and exit code
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in (["kcurve"] + SPIKE + ["--s1", "0.5"],
                 ["kcurve"] + SPIKE + ["--points-per-decade", "-1"]):
        proc = subprocess.run([sys.executable, "-m", "besovk", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        code = main(argv)
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out,
                                                               captured.err)
    assert code == 2 and captured.out == ""


@pytest.mark.parametrize("argv, code", [
    (["kcurve"] + SPIKE + ["--t-min-exp", "0", "--t-max-exp", "0"], 0),
    (["norm"], 2),
])
def test_console_script_entrypoint_exits_with_main_code(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["besovk"] + argv)
    with pytest.raises(SystemExit) as exc:
        besovk.cli.entrypoint()
    assert exc.value.code == code
