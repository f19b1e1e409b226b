import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from besovk import kfunc, verify
from besovk.coeffs import CoeffField, generate
from besovk.interp import interp_norm
from besovk.errors import BesovkError, NumericError, UsageError
from besovk.grid import BesovIndex, GridSpec, layer_weight
from besovk.kfunc import (
    CaseTag,
    InterpQuery,
    KCurve,
    KPlan,
    default_t_grid,
    k_curve,
    k_dispatch,
    k_plan,
    _PAD_CELLS,
    _LayerKinf,
    _SplitSum,
    _WCurve,
    _batches,
    _fold_layers,
    _layer_fn,
    _logcell_integral,
    _seq_route,
)
from besovk.norms import besov_norm, lp_norm
from besovk.oracle import vertex_tables

from conftest import FORMULA_ROUTES


def _field(layers, n=1):
    spec = GridSpec(n=n, J=len(layers), layer_sizes=tuple(len(v) for v in layers))
    return CoeffField(spec, [np.asarray(v, dtype=float) for v in layers])


def _at(fn, t):
    """fn, an evaluator of a t array, at the single t."""
    return float(fn(np.array([t], dtype=float))[0])


def _k(field, query, t):
    return k_dispatch(field, query, t)[0]


# --- case routing -----------------------------------------------------------

def test_case_tag_table():
    i = BesovIndex
    cases = [
        (i(0.0, 2.0, 2.0), i(0.0, 2.0, 2.0), CaseTag.DEGENERATE),
        (i(1.0, 2.0, 1.0), i(0.0, 2.0, 1.0), CaseTag.P_EQUAL_S_DIFF_Q_EQUAL),
        (i(1.0, 2.0, 1.0), i(0.0, 2.0, 2.0), CaseTag.P_EQUAL_S_DIFF_Q_DIFF),
        (i(1.0, 2.0, 1.0), i(1.0, 2.0, 2.0), CaseTag.P_EQUAL_S_EQUAL),
        (i(1.0, 1.0, 2.0), i(0.0, 2.0, 2.0), CaseTag.Q_EQUAL_P_DIFF),
        (i(1.0, 1.0, 1.0), i(0.0, 2.0, 2.0), CaseTag.GENERAL),
        (i(1.0, 1.0, math.inf), i(0.0, 2.0, 2.0), CaseTag.ORACLE_ONLY),
        (i(1.0, 1.0, 1.0), i(0.0, 2.0, math.inf), CaseTag.ORACLE_ONLY),
    ]
    for idx0, idx1, want in cases:
        assert InterpQuery(idx0, idx1).case is want


def test_query_validation():
    idx = BesovIndex(0.0, 2.0, 2.0)
    with pytest.raises(UsageError):
        InterpQuery(idx, idx, theta=0.0)
    with pytest.raises(UsageError):
        InterpQuery(idx, idx, theta=1.0)
    with pytest.raises(UsageError):
        InterpQuery(idx, idx, r=0.0)
    with pytest.raises(UsageError):
        InterpQuery(idx, idx, xi=0.5)


def test_default_t_grid():
    g = default_t_grid()
    assert len(g) == 81
    assert g[0] == pytest.approx(2.0**-20)
    assert g[-1] == pytest.approx(2.0**20)


@pytest.mark.parametrize("t", [[1.0, math.nan, 2.0], [1.0, math.inf, math.inf], [math.nan]])
def test_kcurve_refuses_t_grid_off_the_doubles(t):
    # np.diff(t) <= 0 is false at a nan, which once let these grids pass
    with pytest.raises(UsageError, match="strictly increasing"):
        KCurve(np.array(t), np.zeros(len(t)), "formula:degenerate")


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -math.inf, math.nan])
def test_plan_refuses_t_not_positive(bad):
    # a plan answers only t > 0; a nan fails that comparison too
    plan = k_plan(_field([(0.0, 1.0)]), InterpQuery(BesovIndex(0.0, 2.0, 2.0),
                                                    BesovIndex(0.0, 2.0, 2.0)))
    assert plan.k([0.5, 2.0]).tolist() == [0.5, 1.0]  # min(1, t) ||f||, ||f|| = 1
    for evaluate in (plan.k, plan.k_scaled):
        with pytest.raises(UsageError, match=f"t must be positive, got {bad}"):
            evaluate([1.0, bad])


@pytest.mark.parametrize("zero", [False, True], ids=["field", "zero-field"])
@pytest.mark.parametrize("route", list(CaseTag))
def test_plan_refuses_t_not_a_1d_array(route, zero):
    # a plan takes a 1-d t array only: a scalar t once raised a raw
    # TypeError or IndexError on some routes and gave a 0-d K on others,
    # and a 2-d t gave a 2-d K, a K of shape (1,) or a raw error
    rng = np.random.default_rng(41)
    field = verify._rand_field(rng).scaled(0.0 if zero else 1.0)
    couple = ((BesovIndex(0.3, 1.0, math.inf), BesovIndex(-0.2, 2.0, 1.0))
              if route is CaseTag.ORACLE_ONLY else verify._rand_couple(rng, route))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = k_plan(field, InterpQuery(*couple))
        assert plan.label == kfunc._ROUTES[route][0]
        assert plan.k([0.5, 2.0]).shape == (2,)
        for t in (1.0, np.float64(2.0), np.array(0.5), [[0.5, 2.0]], np.ones((2, 3))):
            for evaluate in (plan.k, plan.k_scaled):
                with pytest.raises(UsageError, match="^t must be a 1-d array, got [02] dimensions$"):
                    evaluate(t)


def test_default_t_grid_has_a_node_bound(monkeypatch):
    # the node count is refused past 2^22 before anything is allocated:
    # 1e8 per decade once asked np.logspace for 4*10^9 doubles, and an inf
    # product of span and density refuses too
    assert kfunc._check_t_window(0.0, 1.0, kfunc._MAX_T_NODES - 1) == kfunc._MAX_T_NODES
    assert len(default_t_grid(-1000.0, 1000.0, 8.0)) == 16001  # interpolation's widest

    def logspace(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "logspace", logspace)
    for lo, hi, ppd in ((0.0, 1.0, kfunc._MAX_T_NODES), (-20.0, 20.0, 1e8),
                        (-20.0, 20.0, 1e308)):
        with pytest.raises(UsageError, match=re.escape(f"at {ppd} per decade holds more than")):
            default_t_grid(lo, hi, ppd)


def test_default_t_grid_refuses_ends_off_the_doubles():
    # 2^1030 is inf, 2^-1080 rounds to 0; 2^-1074 is the least subnormal
    for lo, hi in ((-20.0, 1030.0), (-1080.0, 20.0), (math.nan, 20.0), (-20.0, math.inf)):
        with pytest.raises(UsageError, match="positive finite double"):
            default_t_grid(lo, hi)
    g = default_t_grid(-1074.0, 1023.0, 1.0)
    assert g[0] == 2.0**-1074 and np.isfinite(g).all()


# --- layer-level K ----------------------------------------------------------

def test_k_layer_two_entry_partial_integral():
    # l^1 vs l^inf on (2,1) at t=1: partial integral up to T=1 of the
    # rearrangement is 2; the 4-subset vertex minimum agrees
    field = _field([(2.0, 1.0)])
    query = InterpQuery(BesovIndex(0.0, 1.0, 1.0), BesovIndex(0.0, math.inf, 1.0))
    assert _at(_layer_fn(field, query, 0), 1.0) == pytest.approx(2.0, rel=1e-12)


def test_k_layer_single_coefficient():
    field = _field([(0.0,), (1.5,)])
    i0 = BesovIndex(0.5, 1.0, 1.0)
    i1 = BesovIndex(-1.0, 2.0, 1.0)
    w0 = 2.0 ** i0.weight_exponent(1)
    w1 = 2.0 ** i1.weight_exponent(1)
    query = InterpQuery(i0, i1)
    for t in (0.1, 2.0, 40.0):
        assert _at(_layer_fn(field, query, 1), t) == pytest.approx(
            1.5 * min(w0, t * w1), rel=1e-12)


def test_k_layer_large_t_recovers_first_norm():
    field = _field([(1.0, 0.25, 0.5)])
    query = InterpQuery(BesovIndex(0.3, 1.5, 1.0), BesovIndex(0.0, 2.0, 1.0))
    big = _at(_layer_fn(field, query, 0), 2.0**60)
    assert big == pytest.approx(lp_norm(field.layers[0], 1.5), rel=1e-12)


# --- shared-p routes --------------------------------------------------------

def test_k_maingrid_W_two_ones():
    assert _at(_WCurve(np.array([1.0, 1.0]), 0.0, 1.0, 1.0), 1.0) == pytest.approx(
        2.0, rel=1e-12)


def test_k_maingrid_W_single_spike():
    a = np.array([3.0, 0.0, 0.0])
    for t in (0.25, 1.0, 4.0):
        got = _at(_WCurve(a, 0.0, 1.0, 1.5), t)
        assert got == pytest.approx(3.0 * min(1.0, t), rel=1e-12)


@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
       st.floats(0.1, 10.0), st.floats(0.5, 3.0))
def test_k_maingrid_W_homogeneous(a, t, c):
    a = np.array(a)
    base = _at(_WCurve(a, 0.0, 0.75, 1.0), t)
    assert _at(_WCurve(c * a, 0.0, 0.75, 1.0), t) == pytest.approx(
        c * base, rel=1e-12, abs=1e-300)


def test_k_rearr_single_entry():
    for t in (0.2, 1.0, 5.0):
        assert _at(_SplitSum(np.array([2.7]), 1.0, 2.0), t) == pytest.approx(
            2.7 * min(1.0, t), rel=1e-12)


def test_k_rearr_two_entries_q1_qinf():
    got = _at(_SplitSum(np.array([2.0, 1.0]), 1.0, math.inf), 1.0)
    assert got == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("c, i0, i1, route", [
    (1.0, (0.0, 2.0, math.inf), (0.0, 2.0, 256.0), "rearrangement"),
    (1.0, (0.0, 2.0, math.inf), (0.0, 2.0, 1024.0), "rearrangement"),
    (0.125, (0.0, 2.0, math.inf), (0.0, 2.0, 256.0), "rearrangement"),
    (1.0, (0.0, math.inf, 2.0), (1.0, 1024.0, 2.0), "layer-sum"),
])
def test_sup_split_is_not_zero_where_powers_of_t_underflow(c, i0, i1, route):
    # both routes reach _SplitSum's sup branch at 1/t by commutation, where
    # (1/t)^p0 underflows; below the first cell K is t r[0], not the 0 it read
    field = _field([(c,)])
    i0, i1 = BesovIndex(*i0), BesovIndex(*i1)
    plan = k_plan(field, InterpQuery(i0, i1))
    assert plan.label.endswith(route)
    ts = np.array([2.0**5, 2.0**12])
    want = c * np.minimum(layer_weight(field.spec, i0, 0), ts * layer_weight(field.spec, i1, 0))
    np.testing.assert_allclose(plan.k(ts), want, rtol=1e-12, atol=0.0)


@given(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=6),
       st.floats(0.05, 20.0))
def test_k_rearr_commutation_exact(a, t):
    # the rearrangement route with q0 > q1 is the commuted q0 < q1 one
    a = np.array(a)
    fwd = _at(_seq_route(a, 0.0, 1.0, 0.0, 2.0), t)
    rev = t * _at(_seq_route(a, 0.0, 2.0, 0.0, 1.0), 1.0 / t)
    assert fwd == pytest.approx(rev, rel=1e-12)


def test_k_weighted_seq_routes_match_manual():
    a = np.array([1.0, 0.5, 0.25])
    t = 1.7
    # equal exponents, equal q: degenerate min(1,t)*norm
    want = min(1.0, t) * lp_norm(2.0 ** (np.arange(3) * 0.5) * a, 1.5)
    assert _at(_seq_route(a, 0.5, 1.5, 0.5, 1.5), t) == pytest.approx(want, rel=1e-12)
    # swapped smoothness reduces to the commuted W
    fwd = _at(_seq_route(a, 1.0, 1.0, 0.0, 1.0), t)
    rev = t * _at(_seq_route(a, 0.0, 1.0, 1.0, 1.0), 1.0 / t)
    assert fwd == pytest.approx(rev, rel=1e-12)


def test_holmstedt_route_band_vs_oracle():
    # shared p, different s and q: composed two-stage formula
    field = _field([(1.0, 0.3), (0.7,), (0.2, 0.9)])
    i0 = BesovIndex(0.8, 2.0, 1.0)
    i1 = BesovIndex(-0.6, 2.0, 3.0)
    query = InterpQuery(i0, i1)
    for t in 2.0 ** np.arange(-8.0, 9.0, 2.0):
        formula = _k(field, query, float(t))
        oracle = vertex_tables(field, i0, i1).k(float(t))
        ratio = formula / oracle
        assert 1.0 / 8.0 <= ratio <= 8.0


def test_p_equal_single_spike_matches_k_layer():
    # one coefficient c: K = c min(w0, t w1) with its layer's weights
    field = _field([(0.0, 0.0), (2.2,)])
    i0 = BesovIndex(0.9, 1.5, 1.0)
    i1 = BesovIndex(-0.2, 1.5, 1.0)
    query = InterpQuery(i0, i1)
    w0, w1 = layer_weight(field.spec, i0, 1), layer_weight(field.spec, i1, 1)
    for t in (0.3, 1.0, 6.0):
        assert _k(field, query, t) == pytest.approx(2.2 * min(w0, t * w1), rel=1e-12)


@pytest.mark.parametrize("flip", [False, True])
def test_weight_exponents_that_round_equal_give_min_1_t_norm(flip):
    # s0 != s1, but s + n/2 - n/p rounds to the same double on both sides:
    # the weighted split with both weights equal is min(1, t) ||f||
    field = _field([(1.0,), (0.5, 0.25)])
    i0, i1 = BesovIndex(1e-20, 2.0, 2.0), BesovIndex(0.0, 2.0, 2.0)
    assert i0.weight_exponent(1) == i1.weight_exponent(1)
    if flip:
        i0, i1 = i1, i0
    plan = k_plan(field, InterpQuery(i0, i1))
    assert plan.label == "formula:p-equal:weighted-split"
    ts = 2.0 ** np.arange(-30.0, 31.0)
    np.testing.assert_allclose(plan.k(ts), np.minimum(1.0, ts) * besov_norm(field, i0),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("flip", [False, True])
def test_weight_exponents_that_round_equal_label_the_rearrangement(flip):
    # s and q both differ, but s + n/2 - n/p rounds to the same double on
    # both sides: the plan runs the rearrangement split, and says so
    field = _field([(1.0,), (0.5, 0.25)])
    pairs = [(BesovIndex(1e-20, 2.0, 2.0), BesovIndex(0.0, 2.0, 1.0)),
             (BesovIndex(0.0, 2.0, 2.0), BesovIndex(0.0, 2.0, 1.0))]
    if flip:
        pairs = [(b, a) for a, b in pairs]
    assert InterpQuery(*pairs[0]).case is CaseTag.P_EQUAL_S_DIFF_Q_DIFF
    plan, ref = (k_plan(field, InterpQuery(*pair)) for pair in pairs)
    assert plan.label == ref.label == "formula:p-equal:rearrangement"
    ts = np.array([0.5, 1.0, 2.0])
    assert plan.k(ts).tolist() == ref.k(ts).tolist()
    if not flip:
        assert plan.k(ts).tolist() == pytest.approx([0.7795, 1.5590, 1.1456], abs=1e-4)


# --- shared-q route ---------------------------------------------------------

def test_q_equal_single_spike_matches_k_layer():
    field = _field([(0.0, 0.0), (1.4,)])
    i0 = BesovIndex(0.4, 1.0, 2.0)
    i1 = BesovIndex(-0.4, math.inf, 2.0)
    query = InterpQuery(i0, i1)
    for t in (0.2, 1.0, 11.0):
        assert _k(field, query, t) == pytest.approx(
            _at(_layer_fn(field, query, 1), t), rel=1e-12)


def test_q_equal_two_layers_q1_sums():
    field = _field([(1.0, 0.5), (0.8,)])
    i0 = BesovIndex(0.6, 1.0, 1.0)
    i1 = BesovIndex(-0.3, 2.0, 1.0)
    query = InterpQuery(i0, i1)
    t = 1.3
    want = _at(_layer_fn(field, query, 0), t) + _at(_layer_fn(field, query, 1), t)
    assert _k(field, query, t) == pytest.approx(want, rel=1e-12)
    oracle = vertex_tables(field, i0, i1).k(t)
    assert 1.0 / 8.0 <= _k(field, query, t) / oracle <= 8.0


@given(st.floats(0.05, 20.0))
def test_q_equal_commutation_exact(t):
    field = _field([(1.0, 0.5), (0.8, 0.1)])
    i0 = BesovIndex(0.6, 1.0, 1.5)
    i1 = BesovIndex(-0.3, math.inf, 1.5)
    fwd = _k(field, InterpQuery(i0, i1), t)
    rev = t * _k(field, InterpQuery(i1, i0), 1.0 / t)
    assert fwd == pytest.approx(rev, rel=1e-12)


# --- general route ----------------------------------------------------------

def _kinf(env, ss):
    """The envelopes of env, min_k max(A_k, s B_k), at each threshold s of
    ss: a row per envelope."""
    const, lslope = env.parts(np.log(ss))
    return const + np.exp(lslope + np.log(ss))


def test_k_power_layer_single_coefficient():
    c = 1.9
    for q0, q1 in ((1.0, 2.0), (2.0, 0.5), (0.5, 3.0)):
        ss = np.array([1e-6, 0.3, 1.0, 7.0, 1e8])
        got = _kinf(_LayerKinf([np.array([c])], 1.0, 2.0, q0, q1, [0.0]), ss)[0]
        for s, k in zip(ss.tolist(), got.tolist()):
            assert k == pytest.approx(min(c**q0, s * c**q1), rel=1e-6)


def test_k_power_layer_zero():
    # a zero layer has no live envelope, so the GENERAL route leaves it out
    assert not _LayerKinf([np.zeros(3)], 1.0, 2.0, 1.0, 2.0, [0.0]).live[0]
    query = InterpQuery(BesovIndex(0.5, 1.0, 1.0), BesovIndex(-0.5, 2.0, 2.0))
    assert _k(_field([(0.0, 0.0, 0.0)]), query, 1.0) == 0.0


def test_k_power_layer_monotone_in_s():
    rng = np.random.default_rng(9)
    b = rng.uniform(0.1, 2.0, size=5)
    ss = np.logspace(-6, 6, 50)
    vals = _kinf(_LayerKinf([b], 1.0, math.inf, 2.0, 1.0, [0.0]), ss)[0].tolist()
    assert all(x <= y + 1e-12 * max(1.0, y) for x, y in zip(vals, vals[1:]))


def _power_layer_brute(b, p0, p1, q0, q1, s):
    """Reference: max(||S||_p0^q0, s ||Sc||_p1^q1) minimized over all
    2(m+1) rank splits, S the k largest or the k smallest entries."""
    r = sorted(b, reverse=True)
    m = len(r)

    def norm(vals, p):
        if not vals:
            return 0.0
        if math.isinf(p):
            return max(vals)
        return sum(x**p for x in vals) ** (1.0 / p)

    best = math.inf
    for k in range(m + 1):
        for side0, side1 in ((r[:k], r[k:]), (r[m - k:], r[:m - k])):
            best = min(best, max(norm(side0, p0) ** q0, s * norm(side1, p1) ** q1))
    return best


def test_k_power_layer_matches_rank_split_minimum():
    rng = np.random.default_rng(12)
    for case in range(400):
        m = int(rng.integers(1, 7))
        if case % 2:
            # a unit entry and the rest spread over 300 decades below it
            b = 10.0 ** rng.uniform(-300.0, 0.0, m)
            b[0] = 1.0
            b[1:][rng.random(m - 1) < 0.3] = 0.0
        else:
            b = rng.uniform(0.0, 2.0, m)
            b[rng.random(m) < 0.3] = 0.0
        p0, p1 = (float(x) for x in rng.choice((0.5, 1.0, 2.0, math.inf), 2, replace=False))
        q0, q1 = (float(x) for x in rng.choice((0.5, 1.0, 2.0, 3.0), 2, replace=False))
        s = float(10.0 ** rng.uniform(-6.0, 6.0))
        want = _power_layer_brute(b.tolist(), p0, p1, q0, q1, s)
        got = _kinf(_LayerKinf([b], p0, p1, q0, q1, [0.0]), np.array([s]))[0, 0]
        assert got == pytest.approx(want, rel=1e-12)


def test_k_general_single_coefficient_collapse():
    field = _field([(0.0,), (0.0,), (1.1,)])
    i0 = BesovIndex(0.7, 1.0, 1.0)
    i1 = BesovIndex(-0.5, 2.0, 2.0)
    w0 = 2.0 ** (2 * i0.weight_exponent(1))
    w1 = 2.0 ** (2 * i1.weight_exponent(1))
    query = InterpQuery(i0, i1)
    for t in (0.05, 1.0, 17.0):
        assert _k(field, query, t) == pytest.approx(
            1.1 * min(w0, t * w1), rel=1e-6)


def test_k_general_homogeneous():
    field = _field([(1.0, 0.4), (0.6,)])
    query = InterpQuery(BesovIndex(0.5, 1.0, 2.0), BesovIndex(-0.5, 2.0, 1.0))
    base = _k(field, query, 1.3)
    got = _k(field.scaled(2.7), query, 1.3)
    assert got == pytest.approx(2.7 * base, rel=1e-6)


def test_k_general_band_vs_max_form_oracle():
    rng = np.random.default_rng(10)
    field = _field([rng.uniform(0.1, 2.0, size=3), rng.uniform(0.1, 2.0, size=2)])
    i0 = BesovIndex(0.9, 1.0, 2.0)
    i1 = BesovIndex(-0.7, 2.0, 1.0)
    query = InterpQuery(i0, i1)
    ratios = []
    for t in 2.0 ** np.arange(-20.0, 21.0, 4.0):
        ratios.append(_k(field, query, float(t))
                      / vertex_tables(field, i0, i1).k(float(t), xi=math.inf))
    assert all(1.0 / 16.0 <= r <= 16.0 for r in ratios)
    assert max(ratios) / min(ratios) <= 16.0


def _split_powers(b, p0, p1, q0, q1):
    """A_k = ||S||_p0^q0 and B_k = ||Sc||_p1^q1 over all 2(m+1) rank
    splits, S the k largest or the k smallest entries."""
    r = sorted(b, reverse=True)
    m = len(r)

    def norm(vals, p):
        if not vals:
            return 0.0
        if math.isinf(p):
            return max(vals)
        return sum(x**p for x in vals) ** (1.0 / p)

    a, bb = [], []
    for k in range(m + 1):
        for side0, side1 in ((r[:k], r[k:]), (r[m - k:], r[:m - k])):
            a.append(norm(side0, p0) ** q0)
            bb.append(norm(side1, p1) ** q1)
    return np.array(a), np.array(bb)


def _general_k_bisection(field, query, ts):
    """Reference max-form K: bisect u^(1/q1) KX(u)^(1/q0 - 1/q1) = t in
    log u, KX(u) = sum_j min_k max(A_jk, u sc_j B_jk) from the rank
    splits of each weighted layer, sc_j = 2^(j s_tilde q1).  Returns K
    and whether each root lies on a mixed piece of KX: some layer on the
    flat side of its hinge and another on the line."""
    i0, i1 = query.idx0, query.idx1
    q0, q1, n = i0.q, i1.q, field.spec.n
    lsc = query.s_tilde(n) * q1 * math.log(2.0)
    terms = []
    for j, v in enumerate(field.layers):
        a, b = _split_powers((2.0 ** (j * i0.weight_exponent(n)) * v).tolist(),
                             i0.p, i1.p, q0, q1)
        with np.errstate(divide="ignore"):
            terms.append((np.log(a)[:, None], np.log(b)[:, None] + j * lsc))

    def log_kx(lu):
        return np.logaddexp.reduce(
            [np.min(np.maximum(la, lb + lu), axis=0) for la, lb in terms], axis=0)

    lt = np.log(ts)
    lo, hi = np.full(len(ts), -1e4), np.full(len(ts), 1e4)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        up = mid / q1 + (1.0 / q0 - 1.0 / q1) * log_kx(mid) > lt
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    lu = 0.5 * (lo + hi)
    flat, line = np.zeros(len(ts), dtype=bool), np.zeros(len(ts), dtype=bool)
    for la, lb in terms:
        on_flat = np.min(np.where(la >= lb + lu, la, np.inf), axis=0)
        on_line = np.min(np.where(la < lb + lu, lb + lu, np.inf), axis=0)
        live = np.minimum(on_flat, on_line) > -np.inf
        flat |= live & (on_flat <= on_line)
        line |= live & (on_line < on_flat)
    return np.exp(log_kx(lu) / q0), flat & line


def test_general_mixed_pieces_match_reference_bisection():
    rng = np.random.default_rng(21)
    mixed = 0
    for case in range(150):
        layers = []
        for _ in range(int(rng.integers(2, 4))):
            m = int(rng.integers(1, 5))
            # every third field spreads its entries over 300 decades
            v = 10.0 ** rng.uniform(-300.0, 0.0, m) if case % 3 == 0 else rng.uniform(0.0, 2.0, m)
            v[rng.random(m) < 0.2] = 0.0
            layers.append(v)
        top = max(float(v.max()) for v in layers)
        if top == 0.0:
            continue
        field = _field([v / top for v in layers])
        p0, p1 = (float(x) for x in rng.choice((0.5, 1.0, 2.0, math.inf), 2, replace=False))
        q0, q1 = (float(x) for x in rng.choice((0.5, 1.0, 1.5, 2.0, 3.0), 2, replace=False))
        s0, s1 = (float(x) for x in rng.uniform(-1.5, 1.5, 2))
        query = InterpQuery(BesovIndex(s0, p0, q0), BesovIndex(s1, p1, q1))
        ts = 2.0 ** rng.uniform(-12.0, 12.0, 40)
        want, on_mixed = _general_k_bisection(field, query, ts)
        mixed += int(on_mixed.sum())
        np.testing.assert_allclose(k_plan(field, query).k(ts), want, rtol=1e-12, atol=0.0)
    # over a fifth of the t above land on mixed pieces, where K takes
    # Newton steps
    assert mixed >= 1000


def test_fold_matches_per_layer_sum():
    rng = np.random.default_rng(22)
    span = 0.0
    for _ in range(60):
        p0, p1 = (float(x) for x in rng.choice((0.5, 1.0, 2.0, math.inf), 2, replace=False))
        q0, q1 = (float(x) for x in rng.choice((1.0, 1.5, 2.0, 3.0), 2, replace=False))
        lsc = float(rng.uniform(-3.0, 3.0))
        vs, layers = [], []
        for j in range(int(rng.integers(2, 6))):
            # layer scales from 1 down to 1e-24: plateaus of the layers
            # differ by up to 1e24 and more after the q0-th power
            v = rng.uniform(0.1, 1.0, int(rng.integers(1, 6))) * 1e-8 ** rng.integers(0, 4)
            vs.append(v)
            # the reference: each layer built alone, unshifted, and shifted here
            layers.append((_LayerKinf([v], p0, p1, q0, q1, [0.0]), j * lsc))
        env = _LayerKinf(vs, p0, p1, q0, q1, np.arange(len(vs)) * lsc)
        lv, const, lslope = _fold_layers([env])
        assert (np.diff(lv) >= 0).all()
        np.testing.assert_allclose(lv, np.sort(np.concatenate([lay.breaks - sh for lay, sh in layers])),
                                   rtol=1e-13, atol=0.0)
        reps = np.concatenate(([-np.inf], 0.5 * (lv[:-1] + lv[1:]), [np.inf]))
        for x, c, lb in zip(reps, const, lslope):
            parts = [lay.parts(np.array([x + sh])) for lay, sh in layers]
            want_c = math.fsum(float(pc[0, 0]) for pc, _ in parts)
            want_lb = np.logaddexp.reduce([plb[0, 0] + sh for (_, plb), (_, sh) in zip(parts, layers)])
            assert c == pytest.approx(want_c, rel=1e-13, abs=0.0)
            assert lb == pytest.approx(want_lb, rel=0.0, abs=1e-13)
        span = max(span, float(const.max() / const[const > 0].min()))
    assert span > 1e15


def _dyadic(J):
    return (1,) + tuple(2 ** (j - 1) for j in range(1, J))


def test_layer_batches_cap_their_padding():
    # the N=64 field of 1, 1, 2, ..., 32 entries is one batch
    assert _batches(_dyadic(7)) == [list(range(7))]
    # at N=12288 the small layers share a batch and the large ones stand
    # alone, each batch in ascending size and padding at most the cap
    sizes = tuple(3 * m for m in _dyadic(13))
    groups = _batches(sizes)
    assert sorted(j for js in groups for j in js) == list(range(13))
    assert len(groups) >= 5 and groups[-1] == [12]
    order = [sizes[j] for js in groups for j in js]
    assert order == sorted(order)
    for js in groups:
        width = max(sizes[j] for j in js)
        assert sum(width - sizes[j] for j in js) <= _PAD_CELLS


def test_batched_envelopes_match_single_layer_builds():
    rng = np.random.default_rng(31)
    batches = 0
    for case in range(24):
        sizes = np.unique(np.concatenate((rng.integers(1, 12, 6), rng.integers(12, 400, 4),
                                          rng.integers(400, 6000, 3)))).tolist()
        rng.shuffle(sizes)
        vs = []
        for i, m in enumerate(sizes):
            kind = (case + i) % 4
            if kind == 0:
                v = rng.uniform(0.0, 1.0, m)
            elif kind == 1:
                v = 10.0 ** rng.uniform(-300.0, 0.0, m)
            elif kind == 2:
                v = rng.choice((0.25, 0.5, 1.0), m)  # ties
            else:
                v = np.zeros(m) if i % 3 == 0 else rng.uniform(0.0, 1.0, m)
            v[rng.random(m) < 0.2] = 0.0
            vs.append(v)
        p0, p1 = (float(x) for x in rng.choice((0.5, 1.0, 2.0, math.inf), 2, replace=False))
        q0, q1 = (float(x) for x in rng.choice((0.5, 1.0, 2.0, 3.0), 2, replace=False))
        groups = _batches(sizes)
        batches += len(groups)
        assert len(groups) >= 3
        for js in groups:
            env = _LayerKinf([vs[j] for j in js], p0, p1, q0, q1, np.zeros(len(js)))
            ones = [_LayerKinf([vs[j]], p0, p1, q0, q1, [0.0]) for j in js]
            # unshifted, the breaks come flat, row after row: a break one
            # row lacks and another adds moves every break in between
            ends = np.cumsum([len(one.breaks) for one in ones]).tolist()
            assert len(env.breaks) == ends[-1]
            for row, (one, start, end) in enumerate(zip(ones, [0] + ends[:-1], ends)):
                np.testing.assert_allclose(env.breaks[start:end], one.breaks, rtol=1e-13, atol=0.0)
                assert env.live[row] == one.live[0]
                if not one.live[0]:
                    continue
                br = one.breaks
                # the pieces themselves at both limits and strictly inside
                # each piece, where the piece is the same whichever side
                # of a break rounding puts it
                mids = 0.5 * (br[:-1] + br[1:])
                mids = mids[(br[:-1] < mids) & (mids < br[1:])]
                lx = np.concatenate(([-np.inf, np.inf], mids, br[:1] - 1.0, br[-1:] + 1.0))
                (c1, lb1), (c2, lb2) = [m[0] for m in one.parts(lx)], [m[row] for m in env.parts(lx)]
                np.testing.assert_allclose(c2, c1, rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(lb2, lb1, rtol=0.0, atol=1e-13)
                # at the breaks, where kinf is continuous, its value
                (c1, lb1), (c2, lb2) = [m[0] for m in one.parts(br)], [m[row] for m in env.parts(br)]
                np.testing.assert_allclose(c2 + np.exp(lb2 + br), c1 + np.exp(lb1 + br),
                                           rtol=1e-13, atol=0.0)
    assert batches >= 90


def _dispatch_guard(name):
    # np.log, np.exp and np.power round differently in numpy's AVX-512
    # (X86_V4) and AVX2 kernels, so a guard file holds one value set per
    # run-time dispatch, the one numpy.show_runtime() reports; the second
    # set was recorded with NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
    # X86_V4" (numpy 2.4.6, where X86_V3 and X86_V2 give the same values)
    sets = json.loads((Path(__file__).parent / "data" / name).read_text(encoding="utf-8"))
    return sets["X86_V4" if __cpu_features__.get("X86_V4") else "no X86_V4"]


def _general_guard_fields():
    rng = np.random.default_rng(41)
    dyadic = GridSpec(n=1, J=7, layer_sizes=_dyadic(7))
    ties = [rng.choice((0.25, 0.5, 1.0), m) for m in _dyadic(9)]
    ties[4][:] = 0.0
    ties[7][rng.random(len(ties[7])) < 0.3] = 0.0
    wide = [10.0 ** rng.uniform(-300.0, 0.0, m) for m in _dyadic(7)]
    wide[6][0] = 1.0
    return {
        "dyadic N=64": generate(dyadic, "uniform-random", 3),
        "3 dyadic N=1536": generate(GridSpec(n=1, J=10, layer_sizes=tuple(
            3 * m for m in _dyadic(10))), "uniform-random", 5),
        "ties, zero layer": _field(ties),
        "wide range": _field(wide),
    }


_GENERAL_GUARD_COUPLES = {
    "q0 < q1": (BesovIndex(0.6, 1.0, 1.0), BesovIndex(-0.3, 2.0, 2.0)),
    "q0 > q1": (BesovIndex(0.4, 2.0, 3.0), BesovIndex(-0.5, 1.0, 0.5)),
    "p1 = inf": (BesovIndex(-0.2, 1.0, 1.5), BesovIndex(0.5, math.inf, 0.5)),
}


def _general_guard_values():
    ts = np.concatenate(([2.0**-1000, 2.0**-300], default_t_grid(), [2.0**300, 2.0**1000]))
    got = {}
    for fname, field in _general_guard_fields().items():
        for cname, (i0, i1) in _GENERAL_GUARD_COUPLES.items():
            plan = k_plan(field, InterpQuery(i0, i1))
            assert plan.label.endswith("power-composition-kinf")
            got[f"{fname}, {cname}"] = plan.k(ts).tolist()
    return got


@pytest.mark.parametrize("fold_cells", [kfunc._FOLD_CELLS, 7])
def test_general_route_matches_guard_bit_for_bit(fold_cells, monkeypatch):
    # data/general_guard.json holds GENERAL K on the default grid plus
    # 2^+-300 and 2^+-1000, recorded from the per-layer envelopes and
    # per-layer fold that the batch envelopes replaced with the same
    # floating-point operations: one batch (N=64), three batches, ties
    # with an all-zero layer and a 300-decade field, each for q0 < q1 and
    # q0 > q1 (Newton from either end of a mixed piece) and a sup norm.
    # A fold step takes its pieces in bands of fold_cells cells; bands of
    # 7 cells, many a step, give the same K bit for bit
    monkeypatch.setattr(kfunc, "_FOLD_CELLS", fold_cells)
    assert _general_guard_values() == _dispatch_guard("general_guard.json")


# --- dispatch and curves ----------------------------------------------------

def test_dispatch_degenerate():
    field = _field([(1.0, 2.0), (0.5,)])
    idx = BesovIndex(0.25, 1.5, 2.0)
    query = InterpQuery(idx, idx)
    nrm = besov_norm(field, idx)
    for t in (0.2, 1.0, 30.0):
        val, tag = k_dispatch(field, query, t)
        assert tag == "formula:degenerate"
        assert val == pytest.approx(min(1.0, t) * nrm, rel=1e-12)


def test_dispatch_tags_follow_case():
    field = _field([(1.0,)])
    query = InterpQuery(BesovIndex(1.0, 2.0, 1.0), BesovIndex(0.0, 2.0, 1.0))
    _, tag = k_dispatch(field, query, 1.0)
    assert tag == "formula:p-equal:weighted-split"
    query = InterpQuery(BesovIndex(1.0, 1.0, math.inf), BesovIndex(0.0, 2.0, 2.0))
    _, tag = k_dispatch(field, query, 1.0)
    assert tag == "oracle:vertex-enumeration"


def test_k_curve_singleton():
    field = _field([(1.0,)])
    query = InterpQuery(BesovIndex(0.0, 2.0, 2.0), BesovIndex(0.0, 2.0, 2.0))
    curve = k_curve(field, query, ts=[1.5])
    assert len(curve.t) == 1 and len(curve.k) == 1


def test_k_curve_degenerate_rows():
    field = _field([(1.0, 2.0)])
    idx = BesovIndex(0.3, 2.0, 1.0)
    query = InterpQuery(idx, idx)
    curve = k_curve(field, query, ts=default_t_grid(-4, 4, 1.0))
    nrm = besov_norm(field, idx)
    for t, k in zip(curve.t, curve.k):
        assert k == pytest.approx(min(1.0, t) * nrm, rel=1e-12)


def test_k_curve_oracle_method_shape():
    field = _field([(1.0, 0.5), (0.7,)])
    query = InterpQuery(BesovIndex(0.5, 1.0, 1.0), BesovIndex(-0.5, 2.0, 2.0))
    curve = k_curve(field, query, ts=default_t_grid(-8, 8, 1.0), method="oracle")
    assert curve.method == "oracle:vertex-enumeration"
    assert (np.diff(curve.k) >= -1e-12).all()
    assert (np.diff(curve.k / curve.t) <= 1e-12).all()


def test_plan_refuses_unknown_method():
    idx = BesovIndex(0.0, 2.0, 2.0)
    with pytest.raises(UsageError, match="unknown method 'exact'"):
        k_plan(_field([(1.0,)]), InterpQuery(idx, idx), method="exact")


def test_k_curve_rejects_bad_grid():
    field = _field([(1.0,)])
    idx = BesovIndex(0.0, 2.0, 2.0)
    with pytest.raises(UsageError):
        k_curve(field, InterpQuery(idx, idx), ts=[2.0, 1.0])


# --- cross-route properties -------------------------------------------------

_pool = st.sampled_from([0.5, 1.0, 1.5, 2.0, math.inf])


@settings(max_examples=50, deadline=None)
# GENERAL route on a field spanning 262 decades: the inner relation
# u^q1 kinf(u)^d is probed past the double range
@example(layers=[[1.0, 4.2e-262]], s0=0.0, p0=0.5, q0=1.5, s1=0.0, p1=1.0,
         q1=2.0, t=1.0)
@given(st.lists(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
                min_size=1, max_size=3),
       st.floats(-1.5, 1.5), _pool, _pool, st.floats(-1.5, 1.5), _pool, _pool,
       st.floats(0.02, 50.0))
def test_formula_routes_commute(layers, s0, p0, q0, s1, p1, q1, t):
    field = _field(layers)
    i0, i1 = BesovIndex(s0, p0, q0), BesovIndex(s1, p1, q1)
    fwd_q = InterpQuery(i0, i1)
    if fwd_q.case is CaseTag.ORACLE_ONLY:
        return
    fwd, _ = k_dispatch(field, fwd_q, t)
    rev, _ = k_dispatch(field, fwd_q.swapped(), 1.0 / t)
    assert fwd == pytest.approx(t * rev, rel=1e-9, abs=1e-300)


_EVERY_ROUTE = [*FORMULA_ROUTES, "oracle-only"]


@pytest.mark.parametrize("route", _EVERY_ROUTE)
def test_k_at_one_t_does_not_depend_on_the_other_t(route):
    # interpolation reuses K at the nodes a widened window shares with the
    # last one, so K at each t must be the same whatever t come with it
    rng = np.random.default_rng([29, _EVERY_ROUTE.index(route)])
    for _ in range(1 if route == "oracle-only" else 60):
        field = verify._rand_field(rng)
        if route == "oracle-only":
            couple = (BesovIndex(0.3, 1.0, math.inf), BesovIndex(-0.2, 2.0, 1.0))
        else:
            couple = verify._rand_couple(rng, route)
        plan = k_plan(field, InterpQuery(*couple))
        ts = 2.0 ** rng.uniform(-30.0, 30.0, 25)
        ks = plan.k(ts)
        assert np.array_equal(ks, [plan.k(ts[i:i + 1])[0] for i in range(len(ts))])
        order = rng.permutation(len(ts))
        assert np.array_equal(ks[order], plan.k(ts[order]))


# One seeded field and, per commuting route, one couple in both orders,
# on the default grid plus 2^-1000 and 2^1000.  data/commutation_guard.json
# holds the values of the kernels that each commuted their own couple;
# orienting the couple once in _seq_route and _layer_fn keeps every
# floating-point operation, so they match with ==.  The two layer-sum
# values at 2^-1000 read 0 while the l^q aggregate took its q-th powers
# unscaled; they are the rescaled aggregate's.
_COMMUTE_SPEC = GridSpec(n=1, J=6, layer_sizes=(1, 2, 4, 8, 8, 8))
_COMMUTE_COUPLES = {
    "weighted-split": (BesovIndex(0.7, 2.0, 1.5), BesovIndex(-0.4, 2.0, 1.5)),
    "composed-split": (BesovIndex(0.7, 2.0, 1.0), BesovIndex(-0.4, 2.0, 3.0)),
    "rearrangement": (BesovIndex(0.3, 1.5, 1.0), BesovIndex(0.3, 1.5, 2.0)),
    "layer-sum": (BesovIndex(0.6, 1.0, 2.0), BesovIndex(-0.3, 2.0, 2.0)),
}


def test_commuting_routes_match_guard_bit_for_bit():
    want = _dispatch_guard("commutation_guard.json")
    field = generate(_COMMUTE_SPEC, "uniform-random", 11)
    ts = np.concatenate(([2.0**-1000], default_t_grid(), [2.0**1000]))
    got = {}
    for route, (i0, i1) in _COMMUTE_COUPLES.items():
        for order, query in (("forward", InterpQuery(i0, i1)), ("swapped", InterpQuery(i1, i0))):
            plan = k_plan(field, query)
            assert plan.label.endswith(route)
            got[f"{route}, {order}"] = plan.k(ts).tolist()
    assert got == want


@pytest.mark.parametrize("q, t_exps", [
    pytest.param(q, t_exps, id=str(q)) for q, t_exps in (
        (2.0, [-1000, -600]),
        (3.0, [-1000, -600]),
        (12.0, [-100, -95, -90]),
        (20.0, list(range(-100, -59, 5))),
    )
])
def test_layer_sum_does_not_underflow_at_tiny_t(q, t_exps):
    # each layer's K near 2^-1000 underflows in its q-th power unless the
    # t column is rescaled first; below every layer's first break K is
    # t ||f||_A1 exactly.  Above q = 10 a column near 2^-100 must be
    # rescaled too: its K^q once left the normal range and K read 0
    field = generate(_COMMUTE_SPEC, "uniform-random", 11)
    i0, i1 = BesovIndex(0.6, 1.0, q), BesovIndex(-0.3, 2.0, q)
    ts = 2.0 ** np.array(t_exps, dtype=float)
    for a, b in ((i0, i1), (i1, i0)):
        plan = k_plan(field, InterpQuery(a, b))
        assert plan.label.endswith("layer-sum")
        np.testing.assert_allclose(plan.k(ts), ts * besov_norm(field, b), rtol=1e-12, atol=0.0)


_EXTREME_T = np.array([2.0**-1074, 2.0**-1030, 2.0**1023, math.inf])


@pytest.mark.parametrize("route", FORMULA_ROUTES)
def test_formula_routes_finite_at_extreme_t(route):
    # t * K(1/t) of the other order reads inf * 0 at t = inf and where
    # 1/t or a shifted t overflows; every route takes the limits instead
    rng = np.random.default_rng(5)
    for _ in range(60):
        field = verify._rand_field(rng, j_max=4)
        i0, i1 = verify._rand_couple(rng, route)
        plan = k_plan(field, InterpQuery(i0, i1))
        assert plan.label == kfunc._ROUTES[route][0]
        k = plan.k(_EXTREME_T)
        assert np.isfinite(k).all() and (k >= 0.0).all(), (i0, i1, k)
        assert k[-1] == pytest.approx(besov_norm(field, i0), rel=1e-12)


# --- refusal at large exponents ---------------------------------------------

# entries 0.351 and 1.176 with A1 exponent q1: at q1 = 1024 the GENERAL
# build overflows (1.176^1024) and once returned K = 5.08 against
# min(N0, t N1) = 4.4e-4
_OVERFLOW_LAYERS = [(0.351,), (0.698, 1.176)]


def _overflow_query(q1):
    return InterpQuery(BesovIndex(1.61, math.inf, 2.0), BesovIndex(0.39, 2.0, q1))


def test_plan_whose_build_overflows_refuses():
    field = _field(_OVERFLOW_LAYERS)
    with pytest.raises(NumericError, match="formula:general:power-composition-kinf"):
        k_plan(field, _overflow_query(1024.0))
    k = _at(k_plan(field, _overflow_query(256.0)).k, 2.0**-12)
    assert k == pytest.approx(0.0004375054369884474, rel=1e-12)


def test_plan_whose_evaluation_raises_refuses_naming_the_route():
    # a Python float divided by 0 inside the evaluation is an
    # ArithmeticError, which refuses as NumericError with the label
    def fn(ts):
        return np.full(len(ts), 1.0 / 0.0)

    with pytest.raises(NumericError, match="route stub leaves double range: float division"):
        KPlan("stub", fn).k(np.array([1.0, 2.0]))


@pytest.mark.parametrize("method, label", [("formula", "formula:p-equal:weighted-split"),
                                           ("oracle", "oracle:vertex-enumeration")])
def test_plan_refuses_k_past_double_range_naming_the_t(method, label):
    # K(t) = 2 * 1.7e308 * min(1, t) here: k once returned inf from t = 1 on
    query = InterpQuery(BesovIndex(0.0, 1.0, 1.0), BesovIndex(1.0, 1.0, 1.0))
    plan = k_plan(_field([(1.7e308, 1.7e308)]), query, method)
    assert plan.k([0.25]).tolist() == [8.5e307]
    with pytest.raises(NumericError, match=rf"^route {label} leaves double range at t = 1\.0$"):
        plan.k([0.25, 1.0, 2.0])


# route -> the exponent set to E: the shared q, or that of the A1 index
_LARGE_EXPONENT = {CaseTag.P_EQUAL_S_DIFF_Q_EQUAL: "q", CaseTag.P_EQUAL_S_DIFF_Q_DIFF: "q1",
                   CaseTag.P_EQUAL_S_EQUAL: "q1", CaseTag.Q_EQUAL_P_DIFF: "p1",
                   CaseTag.GENERAL: "q1"}


@pytest.mark.parametrize("E", [256.0, 1024.0])
@pytest.mark.parametrize("route", list(_LARGE_EXPONENT))
def test_large_exponent_plans_return_k_or_refuse(route, E):
    # at these exponents a build once overflowed into a wrong K with a
    # RuntimeWarning, or raised a raw OverflowError or ZeroDivisionError;
    # a RuntimeWarning is an error here, and only a BesovkError may escape
    rng = np.random.default_rng(7)
    for _ in range(200):
        field = verify._rand_field(rng, max_total=12)
        i0, i1 = verify._rand_couple(rng, route)
        if _LARGE_EXPONENT[route] == "q":
            i0, i1 = BesovIndex(i0.s, i0.p, E), BesovIndex(i1.s, i1.p, E)
        elif _LARGE_EXPONENT[route] == "q1":
            i1 = BesovIndex(i1.s, i1.p, E)
        else:
            i1 = BesovIndex(i1.s, E, i1.q)
        try:
            k = k_plan(field, InterpQuery(i0, i1)).k(verify._T_GRID)
        except BesovkError:
            continue
        assert len(k) == len(verify._T_GRID)


_SPLIT_LARGE_ROUTES = (CaseTag.P_EQUAL_S_DIFF_Q_EQUAL, CaseTag.P_EQUAL_S_EQUAL,
                       CaseTag.Q_EQUAL_P_DIFF)


@pytest.mark.parametrize("E", [256.0, 1024.0, 2000.0])
@pytest.mark.parametrize("route", _SPLIT_LARGE_ROUTES)
def test_large_exponent_split_routes_build_and_stay_in_bounds(route, E):
    # the split kernels take their power sums through one running norm,
    # retaken in logs past the normal doubles: no plan refuses, and K is
    # finite, positive where min(N0, t N1) is, and within 3.5 of it; these
    # once refused or read 0 on up to 158 of 200 such fields
    rng = np.random.default_rng(7)
    ts = verify._T_GRID
    for _ in range(50):
        field = verify._rand_field(rng, max_total=12)
        i0, i1 = verify._rand_couple(rng, route)
        if _LARGE_EXPONENT[route] == "q":
            i0, i1 = BesovIndex(i0.s, i0.p, E), BesovIndex(i1.s, i1.p, E)
        elif _LARGE_EXPONENT[route] == "q1":
            i1 = BesovIndex(i1.s, i1.p, E)
        else:
            i1 = BesovIndex(i1.s, E, i1.q)
        k = k_plan(field, InterpQuery(i0, i1)).k(ts)
        bound = np.minimum(besov_norm(field, i0), ts * besov_norm(field, i1))
        assert np.isfinite(k).all()
        assert (k > 0.0)[bound > 0.0].all()
        assert (k <= 3.5 * bound).all()


_SQRT_5_16 = math.sqrt(0.3125)  # ||(0.5, 0.25)||_2


@pytest.mark.parametrize("layers, i0, i1, want", [
    ([(0.5, 0.25)], (0.0, 2.0, 2000.0), (1.0, 2.0, 2000.0),
     lambda t: _SQRT_5_16 * np.minimum(1.0, t)),
    # the l^2000 sum of the layer curves 0.5 min(1, t) and 0.3 min(2^-0.5, 2t),
    # which is their max to double precision on this grid
    ([(0.5,), (0.3,)], (0.0, 1.0, 2000.0), (1.0, 2.0, 2000.0),
     lambda t: np.maximum(0.5 * np.minimum(1.0, t), 0.3 * np.minimum(2.0**-0.5, 2.0 * t))),
    ([(0.5,)], (0.0, 2.0, 2000.0), (0.0, 2.0, 2.0), lambda t: 0.5 * np.minimum(1.0, t)),
    ([(0.5,)], (0.0, 2.0, 2000.0), (0.0, 2.0, math.inf), lambda t: 0.5 * np.minimum(1.0, t)),
    ([(0.5,)], (0.0, math.inf, 2.0), (1.0, 2000.0, 2.0), lambda t: 0.5 * np.minimum(1.0, t)),
], ids=["weighted-split", "layer-sum", "rearrangement", "rearrangement-sup", "layer-sum-sup"])
def test_split_kernels_at_an_exponent_of_2000_read_their_closed_forms(layers, i0, i1, want):
    # N0 and N1 were right here, yet K read 0 on some or all of these t
    ts = 2.0 ** np.arange(-3.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = k_plan(_field(layers), InterpQuery(BesovIndex(*i0), BesovIndex(*i1))).k(ts)
    np.testing.assert_allclose(got, want(ts), rtol=1e-15, atol=0.0)


def test_composed_split_without_calibration_refuses_at_build():
    # the raw limit M0 underflows to 0: the low piece raises W to q0 = 256
    field = _field([(0.0, 0.0), (0.0, 0.9216188052986237)], n=2)
    query = InterpQuery(BesovIndex(-1.2473819850289192, 0.5, 256.0),
                        BesovIndex(-0.6666263438808868, 0.5, math.inf))
    with pytest.raises(NumericError, match="formula:p-equal:composed-split"):
        k_plan(field, query)


_HALF_TO_INF = (0.5, 1.0, 2.0, math.inf)
_LARGE = (1100.0, 2000.0, 1e4, 1e300)
_WIDE = (0.5, 1.0, 2.0, 16.0, 256.0, 2000.0, math.inf)
# route -> (its case, the couple draw patched into its kfunc._ROUTES
# entry); the oracle takes any couple
_ONE_COEFFICIENT_ROUTES = {
    "degenerate": (CaseTag.DEGENERATE, ((("p", _HALF_TO_INF), ("q", _HALF_TO_INF)), "same")),
    # past an exponent of 1000 its N0 = N1 once read 0, and so K
    "degenerate-large": (CaseTag.DEGENERATE, ((("p", _LARGE), ("q", _LARGE)), "same")),
    "weighted-split": (CaseTag.P_EQUAL_S_DIFF_Q_EQUAL,
                       ((("p", _HALF_TO_INF), ("q", _HALF_TO_INF)), "apart")),
    "rearrangement": (CaseTag.P_EQUAL_S_EQUAL,
                      ((("p", _HALF_TO_INF), ("q2", _HALF_TO_INF)), "same")),
    "layer-sum": (CaseTag.Q_EQUAL_P_DIFF,
                  ((("q", _HALF_TO_INF), ("p2", _HALF_TO_INF)), "free")),
    # from an exponent of about 200 their kernels' power sums once left the
    # normal doubles, and K read 0 or refused
    "weighted-split-large": (CaseTag.P_EQUAL_S_DIFF_Q_EQUAL, ((("p", _WIDE), ("q", _WIDE)), "apart")),
    "rearrangement-large": (CaseTag.P_EQUAL_S_EQUAL, ((("p", _WIDE), ("q2", _WIDE)), "same")),
    "layer-sum-large": (CaseTag.Q_EQUAL_P_DIFF, ((("q", _WIDE), ("p2", _WIDE)), "free")),
    "general": (CaseTag.GENERAL,
                ((("p2", (1.0, 2.0, math.inf)), ("q2", (0.5, 1.0, 2.0))), "free")),
    "oracle": (CaseTag.ORACLE_ONLY,
               ((("p2", _HALF_TO_INF), ("q2", _HALF_TO_INF)), "free")),
}


# (route, xi): the oracle alone takes an xi other than 1, and a large one
# once read K = 0 or inf where the power sum left the normal doubles
_ONE_COEFFICIENT_CASES = ([(route, 1.0) for route in _ONE_COEFFICIENT_ROUTES]
                          + [("oracle", xi) for xi in (16.0, 300.0, 2000.0, 1e308)])


@pytest.mark.parametrize("route, xi", _ONE_COEFFICIENT_CASES,
                         ids=[r if xi == 1.0 else f"{r}-xi{xi:g}" for r, xi in _ONE_COEFFICIENT_CASES])
def test_one_coefficient_law(route, xi, monkeypatch):
    # K = c min(w0, t w1) for one nonzero coefficient c of layer j (w0, w1
    # its weights) at every xi, as the module docstring states; the
    # composed split meets it only at both ends
    case, draw = _ONE_COEFFICIENT_ROUTES[route]
    label, form, build, _, band = kfunc._ROUTES[case]
    monkeypatch.setitem(kfunc._ROUTES, case, (label, form, build, draw, band))
    rng = np.random.default_rng(27)
    ts = 2.0 ** np.arange(-40.0, 41.0)
    for _ in range(600):
        sizes = verify._rand_sizes(rng, 6, 3)
        layers = [np.zeros(m) for m in sizes]
        j = int(rng.integers(0, len(sizes)))
        c = layers[j][int(rng.integers(0, sizes[j]))] = float(2.0 ** rng.uniform(-300.0, 300.0))
        field = _field(layers, n=int(rng.choice((1, 2))))
        i0, i1 = verify._rand_couple(rng, case)
        method = "oracle" if route == "oracle" else "formula"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = k_plan(field, InterpQuery(i0, i1, xi=xi), method)
            got = plan.k(ts)
            if xi != 1.0:  # the tables called directly, outside the plan's errstate
                got_direct = vertex_tables(field, i0, i1).curve(ts, xi)
                np.testing.assert_array_equal(got_direct, got)
        assert plan.label == label
        want = c * np.minimum(layer_weight(field.spec, i0, j), ts * layer_weight(field.spec, i1, j))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


# route -> (the case whose couple draw is patched, method, p pool, q pool):
# exponents past 10, where a factor keyed to power 1 let powers leave range
_LAW_16_64 = {
    "general": (CaseTag.GENERAL, "formula", (1.0, 2.0, 16.0, 64.0), (0.5, 1.0, 16.0, 64.0)),
    "oracle": (CaseTag.GENERAL, "oracle", (0.5, 1.0, 16.0, 64.0, math.inf),
               (0.5, 1.0, 16.0, 64.0, math.inf)),
}


@pytest.mark.parametrize("route", list(_LAW_16_64))
def test_one_coefficient_law_at_exponents_16_and_64(route, monkeypatch):
    # K = c min(w0, t w1), c over 2^(+-80): GENERAL once read 61 of these
    # 300 draws wrong and refused 66, the vertex oracle 71 and 92
    case, method, ps, qs = _LAW_16_64[route]
    label, form, build, _, band = kfunc._ROUTES[case]
    monkeypatch.setitem(kfunc._ROUTES, case,
                        (label, form, build, ((("p2", ps), ("q2", qs)), "free"), band))
    rng = np.random.default_rng(27)
    ts = 2.0 ** np.arange(-40.0, 41.0)
    for _ in range(300):
        sizes = verify._rand_sizes(rng, 6, 3)
        layers = [np.zeros(m) for m in sizes]
        j = int(rng.integers(0, len(sizes)))
        c = layers[j][int(rng.integers(0, sizes[j]))] = float(2.0 ** rng.uniform(-80.0, 80.0))
        field = _field(layers, n=int(rng.choice((1, 2))))
        i0, i1 = verify._rand_couple(rng, case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = k_plan(field, InterpQuery(i0, i1), method).k(ts)
        want = c * np.minimum(layer_weight(field.spec, i0, j), ts * layer_weight(field.spec, i1, j))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


_SCALE_ROUTES = ("degenerate", "weighted-split", "rearrangement", "layer-sum", "general", "oracle")


@pytest.mark.parametrize("route", _SCALE_ROUTES)
def test_k_is_scale_covariant_at_exponents_16_and_64(route):
    # K is 1-homogeneous: on a field scaled by 2^e a plan reads 2^e K to
    # rounding.  Scaled at power 1, not at the couple's largest finite
    # exponent, GENERAL and the oracle once refused or read a wrong K here
    # at |e| >= 70.  One exponent of each drawn couple is 16 or 64, on both
    # indices where the route's draw shares it; the oracle takes p0 and q0
    # from {16, 64} and q1 = inf.  The composed split is left out: it is
    # off by up to 3.5e-3 at q from 16 to 128 (CHANGES.md)
    rng = np.random.default_rng(17)
    method = "oracle" if route == "oracle" else "formula"
    for _ in range(60):
        field = verify._rand_field(rng)
        if route == "oracle":
            p0, q0 = (float(e) for e in rng.choice((16.0, 64.0), size=2))
            i0 = BesovIndex(float(rng.uniform(-2.0, 2.0)), p0, q0)
            i1 = BesovIndex(float(rng.uniform(-2.0, 2.0)), float(rng.choice(_HALF_TO_INF)), math.inf)
        else:
            case = _ONE_COEFFICIENT_ROUTES[route][0]
            i0, i1 = verify._rand_couple(rng, case)
            name = str(rng.choice([name for name, _ in kfunc._ROUTES[case][3][0]]))
            big = {name[0]: float(rng.choice((16.0, 64.0)))}
            i1 = dataclasses.replace(i1, **big)
            if not name.endswith("2"):
                i0 = dataclasses.replace(i0, **big)
        query = InterpQuery(i0, i1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = k_plan(field, query, method)
            want = plan.k(verify._T_GRID)
            for e in (70, -70, 300, -300, 900, -900):
                got = k_plan(field.scaled(2.0**e), query, method).k(verify._T_GRID)
                np.testing.assert_allclose(got * 2.0**-e, want, rtol=1e-12, atol=0.0)
        if route != "oracle":
            assert plan.label == kfunc._ROUTES[case][0]


def test_general_and_the_oracle_read_a_field_near_1e24_at_an_exponent_of_16():
    # 4.7e24^16 leaves double range: scaled at power 1, both plans and the
    # interpolation norm refused; scaled at 16 they read their K
    field = _field([(4.672202010839261e24, 2.826026567579149e24)])
    query = InterpQuery(BesovIndex(0.0, 16.0, 1.0), BesovIndex(0.0, 1.0, 16.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = k_plan(field, query)
        assert plan.label == "formula:general:power-composition-kinf"
        assert plan.k([1.0]).tolist() == [4.672202010839261e24]
        assert k_plan(field, query, method="oracle").k([1.0]).tolist() == [4.672295726106636e24]
        assert math.isfinite(interp_norm(field, query))


@pytest.mark.parametrize("layers, i0, i1, label", [
    ([(1.0,), (1e-300,)], (0.0, 2.0, 1e306), (1.0, 2.0, 1e306), "formula:p-equal:weighted-split"),
    ([(1.0, 1e-300)], (0.0, 1.0, 2.0), (1.0, 1e306, 2.0), "formula:q-equal:layer-sum"),
], ids=["weighted-split", "layer-sum"])
def test_split_kernels_at_an_exponent_of_1e306_read_their_closed_forms(layers, i0, i1, label):
    # N0 = N1 = 1 and K = min(1, t); the log retake's p log x once
    # overflowed here and the plan refused
    ts = 2.0 ** np.arange(-3.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = k_plan(_field(layers), InterpQuery(BesovIndex(*i0), BesovIndex(*i1)))
        assert plan.label == label
        np.testing.assert_array_equal(plan.k(ts), np.minimum(1.0, ts))


@pytest.mark.parametrize("p", [2.0**60, 1e306, math.inf])
def test_running_norm_is_the_running_max_from_p_2_to_the_60(p):
    # at n <= 2^63 entries n^(1/p) - 1 < 2^-54, so every prefix norm rounds to the max
    x = np.random.default_rng(3).uniform(0.0, 2.0, size=(5, 7))
    x[1, 2], x[3, 4], x[0, 6] = 0.0, 5e-324, 1.7e308
    for axis in (0, 1):
        got = kfunc._running_norm(x, p, axis)
        assert got.tobytes() == np.maximum.accumulate(x, axis).tobytes()


def test_k_curve_takes_t_through_the_shape_rule_of_kplan_k():
    # k_curve once read ts with np.asarray(ts, dtype=float): "abc" raised a raw ValueError
    field = _field(_PLAN_FIELD)
    query = InterpQuery(BesovIndex(0.8, 2.0, 1.5), BesovIndex(-0.4, 2.0, 1.5))
    plan = k_plan(field, query)
    for ts in ("abc", ["a", "b"], 2.0, [[1.0, 2.0]], [1.0, None]):
        with pytest.raises(UsageError) as refusal:
            plan.k(ts)
        with pytest.raises(UsageError, match=f"^{re.escape(str(refusal.value))}$"):
            k_curve(field, query, ts)
    assert k_curve(field, query, [1, 2]).k.tolist() == plan.k([1.0, 2.0]).tolist()


# --- prepared plans ---------------------------------------------------------

_PLAN_FIELD = [(1.0, 0.3), (0.7,), (0.2, 0.9), (0.5, 0.1, 0.4, 0.8)]


@pytest.mark.parametrize("i0, i1, label", [
    (BesovIndex(0.25, 1.5, 2.0), BesovIndex(0.25, 1.5, 2.0), "formula:degenerate"),
    (BesovIndex(0.8, 2.0, 1.5), BesovIndex(-0.4, 2.0, 1.5),
     "formula:p-equal:weighted-split"),
    (BesovIndex(0.8, 2.0, 1.0), BesovIndex(-0.6, 2.0, 3.0),
     "formula:p-equal:composed-split"),
    (BesovIndex(-0.5, 1.5, math.inf), BesovIndex(0.5, 1.5, 1.0),
     "formula:p-equal:composed-split"),
    (BesovIndex(-0.5, 1.5, 2.0), BesovIndex(0.5, 1.5, math.inf),
     "formula:p-equal:composed-split"),
    (BesovIndex(0.3, 1.0, 0.5), BesovIndex(0.3, 1.0, math.inf),
     "formula:p-equal:rearrangement"),
    (BesovIndex(0.4, 1.0, 2.0), BesovIndex(-0.4, math.inf, 2.0),
     "formula:q-equal:layer-sum"),
    (BesovIndex(0.9, 1.0, 2.0), BesovIndex(-0.7, 2.0, 1.0),
     "formula:general:power-composition-kinf"),
])
def test_plan_matches_dispatch_exactly(i0, i1, label):
    field = _field(_PLAN_FIELD)
    query = InterpQuery(i0, i1)
    ts = np.concatenate((2.0 ** np.arange(-30.0, 31.0, 3.0), np.geomspace(1e-7, 3e6, 17)))
    plan = k_plan(field, query)
    assert plan.label == label
    want = [k_dispatch(field, query, float(t)) for t in ts]
    assert {tag for _, tag in want} == {label}
    assert plan.k(ts).tolist() == [k for k, _ in want]


def test_composed_split_quadratures_the_hull_once(monkeypatch):
    # both q finite, so both split pieces are integrals; s0 < s1, so the
    # split point is X = (c t)^3 for the plan's calibration constant c
    field = _field(_PLAN_FIELD)
    query = InterpQuery(BesovIndex(-0.5, 2.0, 2.0), BesovIndex(0.5, 2.0, 1.0))
    real = kfunc._grid_integral
    passes = []  # (ranges, integrand rows) of each quadrature pass

    def counting(fun, lo, hi):
        rows = []

        def fun_rows(sig, first):
            gs = np.asarray(fun(sig, first))
            rows.append(len(gs) if gs.ndim == 2 else 1)
            return gs

        out = real(fun_rows, lo, hi)
        passes.append((list(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist())), rows))
        return out

    def passes_of(run):
        passes.clear()
        run()
        return list(passes)

    monkeypatch.setattr(kfunc, "_grid_integral", counting)
    plan = k_plan(field, query)
    assert plan.label == "formula:p-equal:composed-split"
    # the build makes one pass, over [lo, hi] once per live piece with
    # one integrand row, and nothing for the limits
    assert len(passes) == 1
    [((lo, hi), (lo2, hi2)), rows] = passes[0]
    assert rows == [1] and lo < hi and (lo2, hi2) == (lo, hi)

    # split points outside the hull cost no quadrature at all
    assert passes_of(lambda: plan.k(2.0 ** np.array([-40.0, -30.0, 30.0, 40.0]))) == []

    # a t inside makes one pass over [lo, X] and [X, hi], one integrand row
    t_mid = hi ** (1.0 / 3.0) / 4.0
    [[((lo1, x), (x2, hi1)), rows]] = passes_of(lambda: plan.k(np.array([t_mid])))
    assert (lo1, hi1) == (lo, hi) and x == x2 and lo < x < hi and rows == [1]
    c = x ** (1.0 / 3.0) / t_mid

    # k_curve makes two passes: the plan's hull for each piece, then one
    # holding [lo, X] and [X, hi] for every t of the default grid inside it
    grid = default_t_grid()
    xs = (c * grid) ** 3
    inside = (lo < xs) & (xs < hi)
    assert 0 < inside.sum() < len(grid)
    got = passes_of(lambda: k_curve(field, query))
    assert len(got) == 2 and got[0] == passes[0] == ([(lo, hi), (lo, hi)], [1])
    (ranges, rows), n = got[1], int(inside.sum())
    assert rows == [1] and len(ranges) == 2 * n
    assert all(a == lo for a, _ in ranges[:n]) and all(b == hi for _, b in ranges[n:])
    assert [b for _, b in ranges[:n]] == [a for a, _ in ranges[n:]]
    assert [b for _, b in ranges[:n]] == pytest.approx(xs[inside].tolist(), rel=1e-12)

    # just below, inside and just above the hull: the plan equals one-t
    # dispatch, and only the t inside make ranges, two each, in one pass
    t_lo, t_hi = lo ** (1.0 / 3.0) / c, hi ** (1.0 / 3.0) / c
    ts = np.concatenate((t_lo * np.array([1.0 - 1e-9, 1.0 + 1e-9]),
                         np.geomspace(t_lo, t_hi, 7)[1:-1],
                         t_hi * np.array([1.0 - 1e-9, 1.0 + 1e-9])))
    [(ranges, _)] = passes_of(lambda: plan.k(ts))
    assert len(ranges) == 2 * (len(ts) - 2)
    assert plan.k(ts).tolist() == [_k(field, query, float(t)) for t in ts]


@pytest.mark.parametrize("i0, i1", [
    (BesovIndex(-0.5, 1.5, math.inf), BesovIndex(0.5, 1.5, 1.0)),
    (BesovIndex(-0.5, 1.5, 2.0), BesovIndex(0.5, 1.5, math.inf)),
])
def test_composed_split_sup_piece_makes_no_quadrature(monkeypatch, i0, i1):
    # a q = inf side takes its sup in closed form: the build's pass and
    # the t array's pass hold the finite side's ranges only
    field = _field(_PLAN_FIELD)
    real = kfunc._grid_integral
    passes = []

    def counting(fun, lo, hi):
        passes.append(list(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist())))
        return real(fun, lo, hi)

    monkeypatch.setattr(kfunc, "_grid_integral", counting)
    curve = k_curve(field, InterpQuery(i0, i1))
    assert curve.method == "formula:p-equal:composed-split"
    assert len(passes) == 2 and len(passes[0]) == 1 and len(passes[1]) > 0
    (lo, hi), = passes[0]
    # the finite side is high (ranges [X, hi]) when q0 = inf, else low
    ends = {b if math.isinf(i0.q) else a for a, b in passes[1]}
    assert ends == {hi if math.isinf(i0.q) else lo}


_GUARD_SPEC = GridSpec(n=1, J=8, layer_sizes=(1, 2, 4, 8, 8, 8, 8, 8))
_GUARD_COUPLES = {
    "finite, s0 < s1": (BesovIndex(0.1, 2.0, 1.0), BesovIndex(0.8, 2.0, 2.0)),
    "finite, s0 > s1": (BesovIndex(0.8, 2.0, 1.5), BesovIndex(0.1, 2.0, 3.0)),
    "q0 = inf": (BesovIndex(-0.3, 2.0, math.inf), BesovIndex(0.4, 2.0, 1.0)),
    "q1 = inf": (BesovIndex(0.2, 2.0, 2.0), BesovIndex(-0.5, 2.0, math.inf)),
}


@pytest.mark.parametrize("name", list(_GUARD_COUPLES))
def test_k_curve_composed_split_guard(name):
    # values recorded on the default 81-point grid from the two-pass-per-
    # piece quadrature (one per piece at build and per t array) that the
    # shared pass replaced; ten grid points per couple fall in the hull
    want = json.loads((Path(__file__).parent / "data" / "composed_split_guard.json")
                      .read_text(encoding="utf-8"))[name]
    curve = k_curve(generate(_GUARD_SPEC, "uniform-random", 7),
                    InterpQuery(*_GUARD_COUPLES[name]))
    assert curve.method == "formula:p-equal:composed-split"
    assert len(want) == len(curve.k) == 81
    assert curve.k.tolist() == pytest.approx(want, rel=1e-13)


_FORM_CASES = [
    (BesovIndex(0.25, 1.5, 2.0), BesovIndex(0.25, 1.5, 2.0), 1.0, "sum"),
    (BesovIndex(0.8, 2.0, 1.5), BesovIndex(-0.4, 2.0, 1.5), 1.0, "sum"),
    (BesovIndex(0.8, 2.0, 1.0), BesovIndex(-0.6, 2.0, 3.0), 1.0, "sum"),
    (BesovIndex(0.3, 1.0, 0.5), BesovIndex(0.3, 1.0, math.inf), 1.0, "sum"),
    (BesovIndex(0.4, 1.0, 2.0), BesovIndex(-0.4, math.inf, 2.0), 1.0, "sum"),
    (BesovIndex(0.9, 1.0, 2.0), BesovIndex(-0.7, 2.0, 1.0), 1.0, "max"),
    (BesovIndex(1.0, 1.0, math.inf), BesovIndex(0.0, 2.0, 2.0), 1.0, "sum"),
    (BesovIndex(1.0, 1.0, math.inf), BesovIndex(0.0, 2.0, 2.0), math.inf, "max"),
    (BesovIndex(1.0, 1.0, math.inf), BesovIndex(0.0, 2.0, 2.0), 2.5, "xi=2.5"),
]


@pytest.mark.parametrize("i0, i1, xi, form", _FORM_CASES)
def test_plan_form_follows_route(i0, i1, xi, form):
    field = _field(_PLAN_FIELD)
    plan = k_plan(field, InterpQuery(i0, i1, xi=xi))
    assert plan.form == form
    with pytest.raises(AttributeError):
        plan.form = "sum"
    # the oracle method reports the form its xi selects
    oracle = k_plan(field, InterpQuery(i0, i1, xi=xi), method="oracle")
    assert oracle.form == ("sum" if xi == 1.0 else form)


@pytest.mark.parametrize("i0, i1, xi, form", _FORM_CASES[:6])
def test_formula_route_refuses_xi_it_cannot_honour(i0, i1, xi, form):
    # a formula route computes one fixed form: xi = 1 and inf are taken
    # (ROADMAP item 3 covers a form other than the route's own), any
    # other xi is refused, and the oracle method still honours it
    field = _field(_PLAN_FIELD)
    for ok in (1.0, math.inf):
        assert k_plan(field, InterpQuery(i0, i1, xi=ok)).form == form
    query = InterpQuery(i0, i1, xi=2.5)
    with pytest.raises(UsageError, match="xi=2.5"):
        k_plan(field, query)
    with pytest.raises(UsageError, match="xi=2.5"):
        k_curve(field, query)
    assert k_plan(field, query, method="oracle").form == "xi=2.5"


def _logcell_scalar(u_lo, u_hi, g_lo, g_hi):
    """Reference: the cell rule one scalar cell at a time."""
    h = u_hi - u_lo
    if h <= 0:
        return 0.0
    if g_lo <= 0.0 or g_hi <= 0.0:
        return 0.5 * (g_lo + g_hi) * h
    lr = math.log(g_hi / g_lo)
    if abs(lr) < 1e-9:
        return 0.5 * (g_lo + g_hi) * h
    return (g_hi - g_lo) * h / lr


def test_logcell_integral_matches_scalar_rule():
    rng = np.random.default_rng(3)
    n = 200
    u_lo = rng.uniform(-5.0, 5.0, n)
    h = rng.uniform(0.0, 0.5, n)
    h[:5] = 0.0
    g_lo = 10.0 ** rng.uniform(-3.0, 3.0, n)
    g_hi = g_lo * 10.0 ** rng.uniform(-1.0, 1.0, n)
    g_lo[10:20] = 0.0
    g_hi[20:25] = 0.0
    g_hi[25:30] = -g_hi[25:30]
    g_hi[30:40] = g_lo[30:40] * (1.0 + rng.uniform(-1e-10, 1e-10, 10))
    got = _logcell_integral(u_lo, u_lo + h, g_lo, g_hi)
    want = [_logcell_scalar(*cell) for cell in zip(u_lo, u_lo + h, g_lo, g_hi)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("i0, i1, want", [
    (BesovIndex(0.8, 2.0, 1.0), BesovIndex(-0.6, 2.0, 3.0),
     [0.0021596309794630086, 0.6136007777241503, 2.0501672118228975,
      6.616679373347488, 10.486522290495456]),
    (BesovIndex(-0.5, 1.5, math.inf), BesovIndex(0.5, 1.5, 1.0),
     [0.011632083009983337, 1.4538491563973088, 2.486138039734401,
      2.1358244769326986, 1.1081264792600192]),
    (BesovIndex(-0.5, 1.5, 2.0), BesovIndex(0.5, 1.5, math.inf),
     [0.0048763049423221645, 1.0063690668562162, 1.6153573248749828,
      1.366327400634671, 1.2879858380587534]),
])
def test_k_curve_composed_split_frozen(i0, i1, want):
    # values recorded from the per-t scalar quadrature this plan replaced
    curve = k_curve(_field(_PLAN_FIELD), InterpQuery(i0, i1),
                    ts=[2.0**-9, 0.3, 1.0, 5.5, 2.0**12])
    assert curve.method == "formula:p-equal:composed-split"
    assert curve.k.tolist() == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("i0, i1, want", [
    (BesovIndex(-0.3, math.inf, 0.5), BesovIndex(0.6, 1.0, 2.0),
     [0.005780850269195414, 0.8606334225611224, 2.7040074092689945,
      10.438812754994736, 16.70871899099467]),
    (BesovIndex(0.9, 1.0, 2.0), BesovIndex(-0.7, 2.0, 1.0),
     [0.004032110677845244, 0.6061230048356724, 1.6259720660385384,
      2.894225395509889, 4.828249804141563]),
])
def test_k_curve_general_frozen(i0, i1, want):
    # values recorded from the nested bisection this envelope replaced,
    # which solved each level to 1e-10 relative
    curve = k_curve(_field(_PLAN_FIELD), InterpQuery(i0, i1),
                    ts=[2.0**-9, 0.3, 1.0, 5.5, 2.0**12])
    assert curve.method == "formula:general:power-composition-kinf"
    assert curve.k.tolist() == pytest.approx(want, rel=1e-8)


_WIDE = st.one_of(st.just(0.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e))
_P_GENERAL = st.sampled_from([0.5, 1.0, 2.0, math.inf])
_Q_GENERAL = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])


@settings(max_examples=50, deadline=None)
@example(layers=[[1.0, 4.2e-262]], s0=0.0, p0=0.5, q0=1.5, s1=0.0, p1=1.0, q1=2.0)
@given(st.lists(st.lists(_WIDE, min_size=1, max_size=4), min_size=1, max_size=3),
       st.floats(-1.5, 1.5), _P_GENERAL, _Q_GENERAL,
       st.floats(-1.5, 1.5), _P_GENERAL, _Q_GENERAL)
def test_general_curve_monotone_wide_range(layers, s0, p0, q0, s1, p1, q1):
    assume(p0 != p1 and q0 != q1)
    # entries span up to 300 decades below the largest, scaled to 1 so
    # that K stays clear of subnormals on the grid
    top = max(max(v) for v in layers)
    assume(top > 0.0)
    field = _field([[x / top for x in v] for v in layers])
    query = InterpQuery(BesovIndex(s0, p0, q0), BesovIndex(s1, p1, q1))
    curve = k_curve(field, query, ts=default_t_grid(-40, 40, 1.0))
    assert curve.method == "formula:general:power-composition-kinf"
    k, k_over_t = curve.k, curve.k / curve.t
    assert np.isfinite(k).all() and (k > 0).all()
    assert (np.diff(k) >= -1e-12 * k[1:]).all()
    assert (np.diff(k_over_t) <= 1e-12 * k_over_t[:-1]).all()


def test_kcurve_refuses_t_and_k_of_different_lengths():
    with pytest.raises(UsageError, match="t and k lengths differ"):
        KCurve(np.array([1.0, 2.0]), np.array([1.0]), "formula:degenerate")


def test_general_plan_with_every_weighted_layer_underflowing():
    # layer 0 is zero, and s0 = -1100 takes layer 1's A0 weight
    # 2^-1100.5 below the least subnormal: no layer envelope is live
    field = _field([(0.0,), (1.0, 0.5)])
    i0, i1 = BesovIndex(-1100.0, 1.0, 1.0), BesovIndex(0.0, 2.0, 2.0)
    plan = k_plan(field, InterpQuery(i0, i1))
    assert plan.label == "formula:general:power-composition-kinf"
    assert plan.k(np.array([2.0**-40, 1.0, 2.0**40, math.inf])).tolist() == [0.0] * 4
    assert besov_norm(field, i0) == 0.0
