"""Acceptance gate: the eight primary criteria, one test each.

Each test prints a single PASS/FAIL line (undiverted, so it shows in
the normal pytest run), checks the documented tolerances, and enforces
the runtime budget.
"""

import json
import math
import time

import pytest

from besovk.cli import main
from besovk.coeffs import read_field
from besovk.grid import BesovIndex
from besovk.interp import interp_norm
from besovk.kfunc import InterpQuery, k_dispatch
from besovk.norms import besov_norm
from besovk.verify import (
    run_axioms,
    run_endpoints,
    run_general,
    run_identities,
    run_p_equal,
    run_q_equal,
    run_vertex_band,
)


def _gate(capsys, label: str, report: dict, budget_s: float):
    elapsed = report["elapsed_s"]
    ok = report["passed"] and elapsed < budget_s
    worst = max(c["worst"] / c["limit"] for c in report["checks"])
    with capsys.disabled():
        print(f"[{label}] {'PASS' if ok else 'FAIL'} "
              f"worst/limit={worst:.3g} elapsed={elapsed:.2f}s/"
              f"{budget_s:.0f}s", flush=True)
    assert report["passed"], report
    assert elapsed < budget_s, f"{label} took {elapsed:.2f}s, budget {budget_s}s"


def test_criterion_1_oracle_axioms(capsys):
    # 500 instances, sum m_j <= 12, p,q in {0.5,1,1.5,2,inf}, s in [-2,2];
    # commutativity, homogeneity, monotonicities, K_xi sandwich at 1e-9
    _gate(capsys, "criterion 1: oracle axiom suite",
          run_axioms(seed=101), 30.0)


def test_criterion_2_vertex_band(capsys):
    # 200 convex instances: continuous <= vertex <= 2*continuous + 1e-9
    _gate(capsys, "criterion 2: vertex band",
          run_vertex_band(seed=102), 60.0)


def test_criterion_3_p_equal(capsys):
    # 100 instances per subcase, ratio in [1/8, 8] on the 2^{-12}..2^{12}
    # grid; the q=1, distinct-smoothness subcase decouples exactly
    _gate(capsys, "criterion 3: p-equal formulas",
          run_p_equal(seed=103), 60.0)


def test_criterion_4_q_equal(capsys):
    # 100 instances, same grid and band; single coefficients exact
    _gate(capsys, "criterion 4: q-equal formulas",
          run_q_equal(seed=104), 60.0)


def test_criterion_5_general(capsys):
    # 50 instances, p0 != p1 in {1,2,inf}, q0 != q1 in {0.5,1,2,3},
    # sum m_j <= 10, vs max-form vertex oracle: band and spread <= 16,
    # single-coefficient collapse to 1e-6
    _gate(capsys, "criterion 5: general composition",
          run_general(seed=105), 120.0)


def test_criterion_6_endpoint_recovery(capsys):
    # every formula path: K at t=2^40 gives the first norm, K/t at
    # t=2^-40 gives the second, to 1e-6, 100 instances
    _gate(capsys, "criterion 6: endpoint recovery",
          run_endpoints(seed=107), 10.0)


def test_criterion_7_interpolation_identities(capsys):
    # closed-form single coefficient 4c at 1e-4; identity spread <= 32
    # over 100 fields (J <= 8, m_j <= 16); oracle swap symmetry 1e-6
    _gate(capsys, "criterion 7: interpolation identities",
          run_identities(seed=106), 120.0)


def test_criterion_8_determinism_and_parity(capsys, tmp_path):
    t0 = time.perf_counter()
    gen = ["--generate", "lacunary", "--spec", "3,1,3,2,4", "--seed", "11"]
    idx = ["--s0", "0.8", "--p0", "1.0", "--q0", "1.5",
           "--s1", "-0.4", "--p1", "2.0", "--q1", "1.5"]

    def _run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    field_path = tmp_path / "f.json"
    _run(["generate"] + gen + ["--out", str(field_path)])
    field = read_field(field_path)

    outs = {}
    for name, argv in {
        "norm": ["norm"] + gen + ["--s0", "0.8", "--p0", "1.0", "--q0", "1.5"],
        "kcurve": ["kcurve"] + gen + idx + [
            "--t-min-exp", "-6", "--t-max-exp", "6", "--points-per-decade", "2"],
        "kcurve-json": ["kcurve"] + gen + idx + [
            "--t-min-exp", "-6", "--t-max-exp", "6", "--points-per-decade", "2",
            "--format", "json"],
        "interpnorm": ["interpnorm"] + gen + idx + ["--theta", "0.3", "--r", "2"],
        "generate": ["generate"] + gen,
        "verify": ["verify", "--suite", "q-equal", "--seed", "20"],
    }.items():
        first, second = _run(argv), _run(argv)
        assert first == second, f"{name} output not byte-stable"
        outs[name] = first

    # CLI values equal the library calls bit for bit
    i0 = BesovIndex(0.8, 1.0, 1.5)
    i1 = BesovIndex(-0.4, 2.0, 1.5)
    assert json.loads(outs["norm"])["besov_norm"] == besov_norm(field, i0)
    query = InterpQuery(i0, i1)
    for row in outs["kcurve"].strip().split("\n")[1:]:
        t_s, k_s, _ = row.split(",")
        want, _ = k_dispatch(field, query, float(t_s))
        assert float(k_s) == want
    q2 = InterpQuery(i0, i1, theta=0.3, r=2.0)
    assert json.loads(outs["interpnorm"])["value"] == interp_norm(field, q2)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    with capsys.disabled():
        print(f"[criterion 8: determinism and parity] "
              f"{'PASS' if ok else 'FAIL'} elapsed={elapsed:.2f}s/10s", flush=True)
    assert ok
