"""Import-level guards on the package.

A first K evaluation must not import modules lazily.  A module imported
on first use (numpy.ma, say) costs every fresh interpreter its import
time and memory, the CLI included.  This runs one k_dispatch, k_curve
and interp_norm per formula route in a fresh interpreter, plus a GENERAL
field whose layer envelopes are built in more than one batch, and checks
that sys.modules holds nothing new afterwards.

Every public name must resolve: each name in besovk.__all__ and in a
submodule's __all__ exists, and each besovk.__all__ name is exported by
some submodule, so that a deleted function leaves no stale export.  The
plan (k_plan, KPlan) is the public K object, and every besovk name the
benchmark under perfbench/ uses resolves, so that deleting a public name
cannot silently break it.  A weighted main-grid sequence is a field, so
no public name weighs one apart; inside kfunc one function does.  Every
optional parameter of the public functions is one some caller sets; the
signatures pinned below hold no setting that every caller leaves at its
default.  The split kernels and the vertex oracle share one running
l^p norm, in norms, so the oracle imports nothing from kfunc.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"

_SCRIPT = r"""
import json, math, sys
import numpy as np
import besovk
from besovk import (BesovIndex, CoeffField, GridSpec, InterpQuery, interp_norm,
                    k_curve, k_dispatch)

before = set(sys.modules)
field = CoeffField(GridSpec(n=1, J=3, layer_sizes=(1, 2, 3)),
                   [np.array([1.0]), np.array([0.5, 0.25]), np.array([0.3, 0.0, 0.1])])
couples = [
    ((0.25, 1.5, 2.0), (0.25, 1.5, 2.0)),   # degenerate
    ((0.8, 2.0, 1.5), (-0.4, 2.0, 1.5)),    # weighted-split
    ((0.8, 2.0, 1.0), (-0.6, 2.0, 3.0)),    # composed-split
    ((0.3, 1.0, 0.5), (0.3, 1.0, math.inf)),  # rearrangement
    ((0.4, 1.0, 2.0), (-0.4, math.inf, 2.0)),  # layer-sum
    ((0.9, 1.0, 2.0), (-0.7, 2.0, 1.0)),    # general
]
# a GENERAL input whose layers the route builds in more than one batch
wide = CoeffField(GridSpec(n=1, J=3, layer_sizes=(1, 2, 600)),
                  [np.array([1.0]), np.array([0.5, 0.0]), np.linspace(0.0, 0.3, 600)])
routes = []
for f, (i0, i1) in [(field, c) for c in couples] + [(wide, couples[-1])]:
    query = InterpQuery(BesovIndex(*i0), BesovIndex(*i1))
    routes.append(k_dispatch(f, query, 1.3)[1])
    k_curve(f, query)
    interp_norm(f, query)
print(json.dumps({"routes": routes, "new": sorted(set(sys.modules) - before),
                  "wide_batches": len(besovk.kfunc._batches(wide.spec.layer_sizes))}))
"""


def test_formula_routes_import_nothing_lazily():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(set(doc["routes"])) == 6 and doc["routes"][-1] == doc["routes"][-2]
    assert all(r.startswith("formula:") for r in doc["routes"])
    assert doc["wide_batches"] >= 2
    assert doc["new"] == []


def test_public_names_resolve():
    import besovk

    exported = set()
    for info in pkgutil.iter_modules(besovk.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"besovk.{info.name}")
        assert [a for a in mod.__all__ if not hasattr(mod, a)] == [], mod.__name__
        exported.update(mod.__all__)
    assert [a for a in besovk.__all__ if not hasattr(besovk, a)] == []
    assert sorted(set(besovk.__all__) - exported) == []


def test_plan_is_the_public_k_object():
    import besovk

    public = set(besovk.__all__)
    assert {"k_plan", "KPlan", "k_dispatch", "k_curve", "vertex_tables",
            "k_cuboid_continuous"} <= public
    assert "k_vertex_exact" not in public
    assert not hasattr(besovk.oracle, "k_vertex_exact")
    plan = besovk.KPlan("zero", lambda ts: 0.0 * ts, form="max")
    assert vars(plan)["form"] == "max"  # a plain attribute, not a property


def test_benchmark_names_resolve():
    # perfbench reaches the package as bk (or self.bk), plus a few
    # submodule attributes by name; it is read here, never changed
    import besovk
    import besovk.cli
    import besovk.interp
    import besovk.verify

    used = set()
    for path in sorted((_ROOT / "perfbench").glob("*.py")):
        used.update(re.findall(r"\bbk\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert {"k_curve", "k_dispatch", "k_cuboid_continuous", "vertex_tables"} <= used
    assert sorted(name for name in used if not hasattr(besovk, name)) == []
    assert besovk.interp._EXPAND_STEP > 0
    assert "axioms" in besovk.verify.SUITES
    assert callable(besovk.verify.run_endpoints)
    assert callable(besovk.cli.main)


def _params(fn) -> list[str]:
    return [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in inspect.signature(fn).parameters.values()]


def test_signatures_hold_only_settings_a_caller_sets(monkeypatch):
    import numpy as np

    import besovk
    from besovk import kfunc, norms, oracle, verify
    from besovk.cli import build_parser
    from besovk.oracle import VertexTables

    assert _params(besovk.interp_norm) == ["field", "query", "method='formula'"]
    assert _params(besovk.besov_identity_check) == ["field", "query"]
    assert _params(besovk.reiteration_check) == [
        "a", "s_a", "s_b", "theta0", "theta1", "eta", "qs"]
    assert _params(besovk.k_dispatch) == ["field", "query", "t"]
    assert _params(besovk.k_cuboid_continuous) == ["field", "idx0", "idx1", "t"]
    assert _params(VertexTables.best_split) == ["self", "t"]
    assert [f.name for f in dataclasses.fields(besovk.QuadratureSpec)] == [
        "points_per_decade", "t_min_exp", "t_max_exp"]
    assert besovk.interp._TAIL_REL_TOL == 1e-6
    # the oracle cap is one fixed constant: no budget argument, object or option
    assert _params(besovk.vertex_tables) == ["field", "idx0", "idx1"]
    assert _params(besovk.k_plan) == ["field", "query", "method='formula'"]
    assert _params(besovk.k_curve) == ["field", "query", "ts=None", "method='formula'"]
    assert _params(besovk.interp_norm_report) == [
        "field", "query", "method='formula'", "quad=None"]
    assert besovk.oracle._MAX_COEFFS == 20
    assert not hasattr(besovk.oracle, "_MAX_SUBSETS")
    assert not hasattr(besovk, "OracleBudget")
    assert not hasattr(besovk.oracle, "OracleBudget")
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices
    for name in ("kcurve", "interpnorm"):
        assert "--method" in sub[name]._option_string_actions
        assert "--budget" not in sub[name]._option_string_actions
    # each verify suite declares its seed and size where it is defined
    seeds = {"axioms": 101, "vertex-band": 102, "p-equal": 103, "q-equal": 104,
             "general": 105, "identities": 106, "endpoints": 107}
    assert list(verify.SUITES) == list(seeds)
    for name, seed in seeds.items():
        run = getattr(verify, "run_" + name.replace("-", "_"))
        assert verify.SUITES[name] is run
        assert _params(run) == [f"seed={seed}"]
    # one rescaling rule, keyed by the sizes (largest entry, power) of the
    # data a caller raises: a formula plan scales its field at the largest
    # entry raised to each exponent of its couple, the oracles at the largest
    # entry raised to each p and the largest weighted entry to each q, and
    # the oracle plan leaves its tables to scale themselves; the layer-sum
    # aggregate passes each column's largest entry and its q
    assert _params(norms._pow2_factor) == ["sizes"]
    assert _params(norms._scaled_field) == ["field", "sizes"]
    assert not hasattr(kfunc, "_scaled_plan")
    scaled = []
    monkeypatch.setattr(kfunc, "_scaled_field", lambda f, *sz: scaled.append((f, sz)) or (f, 1.0))
    monkeypatch.setattr(oracle, "_scaled_field", lambda f, *sz: scaled.append((f, sz)) or (f, 1.0))
    field = besovk.CoeffField(besovk.GridSpec(1, 2, (1, 1)), [[1.0], [0.5]])
    idx, idx1 = besovk.BesovIndex(0.0, 2.0, 2.0), besovk.BesovIndex(1.0, 16.0, 3.0)
    besovk.k_plan(field, besovk.InterpQuery(idx, idx1))
    assert scaled == [(field, ((1.0, 2.0), (1.0, 2.0), (1.0, 16.0), (1.0, 3.0)))]
    scaled.clear()
    oracle._budgeted(field, idx, idx1, "enumeration")
    # layer 1 weighs 2^(s + 1/2 - 1/p): 1 under idx, 2^(23/16) under idx1
    assert scaled == [(field, ((1.0, 2.0), (1.0, 2.0), (1.0, 16.0), (0.5 * 2.0**(23 / 16), 3.0)))]
    scaled.clear()
    besovk.k_plan(field, besovk.InterpQuery(idx, idx1), method="oracle")
    assert [sz for _, sz in scaled] == [((1.0, 2.0), (1.0, 2.0), (1.0, 16.0), (0.5 * 2.0**(23 / 16), 3.0))]
    powers = []
    monkeypatch.setattr(kfunc, "_pow2_factor", lambda *sizes: powers.extend(sizes) or 1.0)
    kfunc._lq_across([np.array([1.0, 2.0]), np.array([3.0, 4.0])], 20.0)
    assert powers == [(3.0, 20.0), (4.0, 20.0)]
    # the l^power norms take their powers through one helper, norms._powers:
    # only it and _scaled_field ask for the factor, and it runs once per
    # lp_norm, once per lorentz_seq_norm, once per nonzero layer of a
    # finite-r besov_lorentz_norm and once per window of the interpolation
    # driver
    assert not hasattr(besovk.interp, "_pow2_factor")
    tree = ast.parse(inspect.getsource(norms))
    askers = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and any(isinstance(node, ast.Call) and ast.unparse(node.func) == "_pow2_factor"
                      for node in ast.walk(fn))]
    assert askers == ["_powers", "_scaled_field"]
    helper, calls = norms._powers, {"norms": [], "interp": []}
    for name in calls:
        monkeypatch.setattr(getattr(besovk, name), "_powers", lambda x, power, name=name:
                            calls[name].append(power) or helper(x, power))
    norms.lp_norm([1.0, 0.5], 3.0)
    norms.lorentz_seq_norm([1.0, 0.5], 1.0, 3.0)
    assert calls["norms"] == [3.0, 3.0]
    layers = besovk.CoeffField(besovk.GridSpec(1, 3, (2, 1, 1)), [[1.0, 0.5], [0.0], [0.25]])
    for r, layer_powers in ((5.0, [5.0, 5.0]), (math.inf, [])):
        calls["norms"].clear()
        norms.besov_lorentz_norm(layers, 0.0, 2.0, 3.0, r)
        assert calls["norms"] == layer_powers + [3.0]  # then the l^q aggregate of the terms
    quad = besovk.QuadratureSpec()
    # theta near 0: the upper tail decays slowly and the window widens
    rep = besovk.interp_norm_report(field, besovk.InterpQuery(idx, idx, theta=0.05, r=2.0),
                                    quad=quad)
    windows = int((quad.t_min_exp - rep.t_min_exp) / besovk.interp._EXPAND_STEP) + 1
    assert windows > 1 and calls["interp"] == [2.0] * windows
    # one K plan constructor: reiteration_check measures its sequence as a
    # field, through the same plan as every other norm
    assert not hasattr(kfunc, "_seq_plan")
    plans = []
    k_plan = besovk.interp.k_plan
    monkeypatch.setattr(besovk.interp, "k_plan",
                        lambda *args, **kw: plans.append(args) or k_plan(*args, **kw))
    besovk.reiteration_check([0.7, 1.176, 0.9, 1.3], -1.0, 1.5, 0.25, 0.75, 0.5,
                             (1.0, 2.0, 2.0))
    assert len(plans) == 1


def test_one_site_weighs_a_main_grid_sequence():
    import besovk
    from besovk import kfunc, norms

    for mod in (besovk, norms):
        assert not hasattr(mod, "weighted_lq_norm") and "weighted_lq_norm" not in mod.__all__
    # a sequence times 2.0 ** (a non-constant exponent) is a weighted one

    def weighs(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Pow)
                        and ast.unparse(side.left) == "2.0"
                        and not isinstance(side.right, ast.Constant)
                        for side in (node.left, node.right)))

    tree = ast.parse(inspect.getsource(kfunc))
    sites = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and any(weighs(node) for node in ast.walk(fn))]
    assert sites == ["_weighted"]


def test_one_running_norm_for_the_split_kernels_and_the_vertex_oracle():
    # the split kernels and the vertex oracle's l^xi aggregation take their
    # power sums through one function, which lives in norms; the oracle
    # reaches it there, and imports nothing from the engine it checks
    from besovk import kfunc, norms

    assert kfunc._running_norm is norms._running_norm
    tree = ast.parse((_SRC / "besovk" / "oracle.py").read_text(encoding="utf-8"))
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert [m for m in imported if m and m.split(".")[-1] == "kfunc"] == []

    def retakes(node):
        return sum(isinstance(call, ast.Call) and ast.unparse(call.func) == "np.logaddexp.accumulate"
                   for call in ast.walk(node))

    sites, calls = [], 0
    for path in sorted((_SRC / "besovk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += retakes(tree)
        sites += [f"{path.stem}.{fn.name}" for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and retakes(fn)]
    assert sites == ["norms._running_norm"] and calls == 1
