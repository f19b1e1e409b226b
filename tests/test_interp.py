import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from besovk.coeffs import CoeffField
from besovk.errors import BesovkError, DataError, NumericError, UsageError
from besovk.grid import BesovIndex, GridSpec
from besovk.interp import (
    _TAIL_REL_TOL,
    QuadratureSpec,
    _interp_scaled,
    besov_identity_check,
    intermediate_index,
    interp_norm,
    interp_norm_report,
    reiteration_check,
)
from besovk.kfunc import CaseTag, InterpQuery, KPlan, k_curve, k_dispatch
from besovk.norms import besov_norm
from besovk.verify import _COUPLES, _rand_couple, _rand_field


def _field(layers, n=1):
    spec = GridSpec(n=n, J=len(layers), layer_sizes=tuple(len(v) for v in layers))
    return CoeffField(spec, [np.asarray(v, dtype=float) for v in layers])


def _unit_query(theta=0.5, r=1.0):
    idx = BesovIndex(0.0, 2.0, 2.0)
    return InterpQuery(idx, idx, theta=theta, r=r)


def test_single_coefficient_closed_form_4c():
    # K(t) = c*min(1,t); integral of t^{-1/2} min(1,t) dt/t is 4
    c = 1.3
    got = interp_norm(_field([(c,)]), _unit_query())
    assert got == pytest.approx(4.0 * c, rel=1e-4)


def test_single_coefficient_sup_form():
    c = 0.85
    got = interp_norm(_field([(c,)]), _unit_query(theta=0.4, r=math.inf))
    assert got == pytest.approx(c, rel=1e-9)


def test_report_fields_and_tail_control():
    rep = interp_norm_report(_field([(2.0,)]), _unit_query())
    assert rep.method == "formula"
    assert rep.value == pytest.approx(8.0, rel=1e-4)
    assert rep.n_points >= 1
    assert rep.tail_fraction <= _TAIL_REL_TOL
    assert rep.t_min_exp < 0 < rep.t_max_exp


def test_formula_vs_oracle_methods_stay_in_band():
    field = _field([(1.0, 0.4), (0.8,)])
    i0 = BesovIndex(0.7, 1.5, 1.0)
    i1 = BesovIndex(-0.5, 1.5, 2.0)
    query = InterpQuery(i0, i1, theta=0.3, r=1.5)
    a = interp_norm(field, query, method="formula")
    b = interp_norm(field, query, method="oracle")
    assert 1.0 / 8.0 <= a / b <= 8.0


def test_interp_norm_homogeneous():
    field = _field([(1.0, 0.4), (0.8,)])
    query = InterpQuery(BesovIndex(0.6, 2.0, 1.0), BesovIndex(-0.6, 2.0, 1.0),
                        theta=0.25, r=2.0)
    base = interp_norm(field, query)
    assert interp_norm(field.scaled(3.0), query) == pytest.approx(
        3.0 * base, rel=1e-9)


@pytest.mark.parametrize("i0, i1, label", [
    ((0.25, 1.5, 2.0), (0.25, 1.5, 2.0), "formula:degenerate"),
    ((0.8, 2.0, 1.5), (-0.4, 2.0, 1.5), "formula:p-equal:weighted-split"),
    ((0.8, 2.0, 1.0), (-0.6, 2.0, 3.0), "formula:p-equal:composed-split"),
    ((0.3, 1.0, 0.5), (0.3, 1.0, math.inf), "formula:p-equal:rearrangement"),
    ((0.4, 1.0, 2.0), (-0.4, math.inf, 2.0), "formula:q-equal:layer-sum"),
    ((0.9, 1.0, 2.0), (-0.7, 2.0, 1.0), "formula:general:power-composition-kinf"),
])
@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
def test_interp_norm_scale_robust(i0, i1, label, r):
    # the r-th powers of K at 2^+-1000 leave double range; the norm does not
    field = _field([(1.0, 0.3), (0.7,), (0.2, 0.9)])
    query = InterpQuery(BesovIndex(*i0), BesovIndex(*i1), r=r)
    assert k_dispatch(field, query, 1.0)[1] == label
    base = interp_norm(field, query)
    for k in (-1000, -900, 900):
        assert interp_norm(field.scaled(2.0**k), query) == pytest.approx(
            2.0**k * base, rel=1e-9)


def test_interp_norm_finite_at_both_ends_of_double_range():
    query = InterpQuery(BesovIndex(0.5, 2.0, 2.0), BesovIndex(-0.5, 2.0, 2.0), r=2.0)
    big = _field([(1e300,), (3e299, 1e-10)])
    small = _field([(1e-300,), (3e-301, 0.0)])
    got_big, got_small = interp_norm(big, query), interp_norm(small, query)
    assert math.isfinite(got_big) and got_big > 0
    assert math.isfinite(got_small) and got_small > 0
    assert got_big / 1e300 == pytest.approx(got_small * 1e300, rel=1e-9)
    # the report's tails, of degree 1 in K as its value, stay in range
    # where their r-th powers, about 1e594 here, once made it refuse
    for field, got in ((big, got_big), (small, got_small)):
        rep = interp_norm_report(field, query)
        assert rep.value == got
        assert math.isfinite(rep.tail_low) and math.isfinite(rep.tail_high)


@pytest.mark.parametrize("route", [*_COUPLES, "oracle"])
def test_interp_norm_is_the_reports_value(route):
    # one driver in one unit: the norm and both tails are of degree 1 in
    # K, so the report gives interp_norm's value at every scale and r,
    # where its tails, once of degree r, refused past 2^300 at r = 2
    rng = np.random.default_rng(33)
    method = "oracle" if route == "oracle" else "formula"
    i0, i1 = _rand_couple(rng, "general" if route == "oracle" else route)
    base = _field([(1.0, 0.3), (0.7,), (0.2, 0.9)])
    for r in (1.0, 2.0, 60.0, 2000.0, math.inf):
        query = InterpQuery(i0, i1, theta=float(rng.uniform(0.1, 0.9)), r=r)
        for k in (0, 300, 900):
            field = base.scaled(2.0**k)
            rep = interp_norm_report(field, query, method)
            assert interp_norm(field, query, method) == rep.value, (r, k)
            for tail in (rep.tail_low, rep.tail_high):
                assert math.isfinite(tail) and 0.0 <= tail <= rep.value, (r, k)


@pytest.mark.parametrize("r", [1.0, 2.0, 60.0, 2000.0, math.inf])
def test_tails_are_the_edge_pieces_in_the_norms_unit(r):
    # K = 0.5 min(1, t): past the window t^-theta K is 0.5 t^(-+1/2), whose
    # L^r piece is the edge value over (r/2)^(1/r) (the edge value at r =
    # inf).  The tails were masses of degree r, and read 0 at r = 2000,
    # where their r-th powers underflow
    rep = interp_norm_report(_field([(0.5,)]), _unit_query(r=r))
    piece = 1.0 if math.isinf(r) else (r / 2.0) ** (1.0 / r)
    assert rep.tail_low == pytest.approx(0.5 * 2.0 ** (rep.t_min_exp / 2.0) / piece, rel=1e-12)
    assert rep.tail_high == pytest.approx(0.5 * 2.0 ** (-rep.t_max_exp / 2.0) / piece, rel=1e-12)


def test_intermediate_index_interpolates_s():
    i0 = BesovIndex(1.0, 1.5, 1.0)
    i1 = BesovIndex(-1.0, 1.5, 3.0)
    mid = intermediate_index(InterpQuery(i0, i1, theta=0.25, r=2.0))
    assert mid.s == pytest.approx(0.5)
    assert mid.p == 1.5
    assert mid.q == 2.0


def test_intermediate_index_and_reiteration_refusals():
    with pytest.raises(UsageError, match="needs a shared p"):
        intermediate_index(InterpQuery(BesovIndex(1.0, 1.5, 1.0), BesovIndex(-1.0, 2.0, 1.0)))
    with pytest.raises(UsageError, match="needs distinct smoothness"):
        intermediate_index(InterpQuery(BesovIndex(1.0, 1.5, 1.0), BesovIndex(1.0, 1.5, 2.0)))
    a = np.array([1.0, 0.5])
    for theta0, theta1, eta in ((0.75, 0.25, 0.5), (0.0, 0.5, 0.5), (0.25, 1.0, 0.5),
                                (0.25, 0.75, 0.0), (0.25, 0.75, 1.0)):
        with pytest.raises(UsageError, match="need 0 < theta0 < theta1 < 1"):
            reiteration_check(a, -1.0, 1.5, theta0, theta1, eta, (1.0, 1.0, 2.0))
    with pytest.raises(UsageError, match="need distinct endpoint smoothness"):
        reiteration_check(a, 1.5, 1.5, 0.25, 0.75, 0.5, (1.0, 1.0, 2.0))


def test_identity_check_scale_invariant():
    field = _field([(0.9, 0.2), (0.5, 1.1)])
    query = InterpQuery(BesovIndex(1.0, 2.0, 1.0), BesovIndex(-1.0, 2.0, 1.0),
                        theta=0.4, r=2.0)
    r1 = besov_identity_check(field, query)
    r2 = besov_identity_check(field.scaled(7.0), query)
    assert math.isfinite(r1) and r1 > 0
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_identity_check_single_spike_finite():
    field = _field([(1.0,), (0.0,)])
    query = InterpQuery(BesovIndex(1.0, 1.5, 1.0), BesovIndex(-1.0, 1.5, 1.0),
                        theta=0.5, r=1.0)
    ratio = besov_identity_check(field, query)
    assert 1.0 / 32.0 <= ratio <= 32.0


def test_reiteration_single_spike_ratio_and_homogeneity():
    a = np.array([1.0, 0.0, 0.0])
    rep = reiteration_check(a, s_a=-1.0, s_b=1.5, theta0=0.25, theta1=0.75,
                            eta=0.5, qs=(1.0, 1.0, 2.0))
    assert math.isfinite(rep["ratio"]) and rep["ratio"] > 0
    assert rep["s_composed"] == pytest.approx(-1.0 + 2.5 * 0.5)
    rep2 = reiteration_check(5.0 * a, s_a=-1.0, s_b=1.5, theta0=0.25,
                             theta1=0.75, eta=0.5, qs=(1.0, 1.0, 2.0))
    assert rep2["ratio"] == pytest.approx(rep["ratio"], rel=1e-9)


_REIT_SEQ = [0.7, 1.176, 0.9, 1.3]


def _reiterate(a, qs):
    return reiteration_check(a, -1.0, 1.5, 0.25, 0.75, 0.5, qs)


def test_reiteration_matches_guard_bit_for_bit():
    # values of the sequence-level K plan, in the identities suite's
    # setting: c0 = -0.375 and c1 = 0.875 are exact binary, so the field's
    # layer weights 2^(j (c - 1/2 + 1/2)) are the sequence's bit for bit.
    # The last sequence is the first scaled by 2^300.  One value set per
    # numpy run-time dispatch, as in the kfunc guards (_dispatch_guard)
    sets = json.loads((Path(__file__).parent / "data" / "reiteration_guard.json")
                      .read_text(encoding="utf-8"))
    guard = sets["X86_V4" if __cpu_features__.get("X86_V4") else "no X86_V4"]
    assert len(guard) == 16
    for case in guard:
        qs = tuple(float(q) for q in case["qs"])
        rep = _reiterate(case["a"], qs)
        assert (rep["lhs"], rep["rhs"], rep["ratio"]) == (
            case["lhs"], case["rhs"], case["ratio"]), (case["a"], qs)


def test_reiteration_overflow_refuses_naming_the_route():
    with pytest.raises(NumericError, match="formula:p-equal:composed-split"):
        _reiterate(_REIT_SEQ, (1.0, 1024.0, 2.0))


@pytest.mark.parametrize("a", [[-1.0, 2.0, 0.5], [0.7, math.nan, 0.9, 1.3]])
def test_reiteration_refuses_bad_sequence(a):
    with pytest.raises(DataError):
        _reiterate(a, (1.0, 1.0, 2.0))


@pytest.mark.parametrize("pos", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_reiteration_refuses_bad_exponent(pos, bad):
    qs = [1.0, 2.0, 2.0]
    qs[pos] = bad
    with pytest.raises(UsageError):
        _reiterate(_REIT_SEQ, tuple(qs))


@pytest.mark.parametrize("r", [2.0, math.inf])
@pytest.mark.parametrize("scale", [1.0, 2.0**300])
def test_values_are_python_floats_at_every_scale(scale, r):
    # at factor 1 and finite r interp_norm once returned a numpy float64,
    # and a Python float once a factor applied or r was inf
    field = _field([(1.0, 0.5), (0.25,), (0.7, 0.1, 0.3)]).scaled(scale)
    query = InterpQuery(BesovIndex(0.5, 2.0, 1.0), BesovIndex(-0.5, 2.0, 2.0), r=r)
    assert type(interp_norm(field, query)) is float
    for quad in (None, QuadratureSpec(8, -40, 40)):  # a window given in ints too
        rep = interp_norm_report(field, query, quad=quad)
        for name in ("value", "t_min_exp", "t_max_exp", "tail_low", "tail_high",
                     "tail_fraction"):
            assert type(getattr(rep, name)) is float, name
    assert type(besov_identity_check(field, query)) is float
    rep = _reiterate(scale * np.array(_REIT_SEQ), (1.0, 2.0, r))
    assert [type(rep[k]) for k in ("lhs", "rhs", "ratio")] == [float] * 3


def test_reiteration_tails_stay_finite_at_large_r():
    # each tail is the edge integrand over its exponent, never a power of
    # the edge K or the edge t alone, which overflow and underflow apart
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _reiterate(_REIT_SEQ, (1.0, 2.0, 1024.0))
    assert math.isfinite(rep["ratio"]) and rep["ratio"] > 0


def test_window_expansion_controls_tails():
    # slow-decay exponent forces the window wider than the default
    field = _field([(1.0,)])
    query = _unit_query(theta=0.5, r=1.0)
    quad = QuadratureSpec(t_min_exp=-2.0, t_max_exp=2.0)
    rep = interp_norm_report(field, query, quad=quad)
    assert rep.t_max_exp > 2.0
    assert rep.tail_fraction <= _TAIL_REL_TOL
    assert rep.value == pytest.approx(4.0, rel=1e-4)


@pytest.mark.parametrize("theta", [0.05, 0.5])
def test_sup_form_outside_the_first_window(theta):
    # K(t) = sum_j min(2^(3j), t) on ten unit layers (weighted split,
    # q = 1).  t^-theta K is log-convex between the breakpoints 2^(3j),
    # so its sup lies at one of them: 2^27, outside the default 2^(+-20),
    # which the window must widen past
    field = _field([(1.0,)] * 10)
    query = InterpQuery(BesovIndex(3.0, 2.0, 1.0), BesovIndex(0.0, 2.0, 1.0),
                        theta=theta, r=math.inf)
    rep = interp_norm_report(field, query)
    breaks = 2.0 ** (3.0 * np.arange(10))
    ks = np.minimum(breaks[None, :], breaks[:, None]).sum(axis=1)
    assert rep.t_max_exp > 20.0
    assert rep.value == pytest.approx(float(np.max(breaks**-theta * ks)), rel=1e-12)


def test_window_widens_to_double_range():
    # theta near 1: the low tail t^(1 - theta) decays so slowly that the
    # window passes 2^(+-212) before the tails fall under 1e-6 of the norm
    rep = interp_norm_report(_field([(1.0,)]), _unit_query(theta=0.95, r=1.0))
    assert rep.value == pytest.approx(1.0 / 0.95 + 1.0 / 0.05, rel=1e-12)
    assert rep.t_max_exp > 212.0


def test_refusal_names_the_window_it_integrated():
    # K = sqrt(t) at theta = 1/2 makes t^-theta K = 1 for every t, so the
    # tails never fall under the tolerance.  The last window integrated
    # is the default 2^(+-20) after 61 widenings of 16 binary decades.
    plan = KPlan("sqrt", np.sqrt)
    with pytest.raises(NumericError, match=r"\[2\^-996\.0, 2\^996\.0\]"):
        _interp_scaled(plan, 0.5, 1.0, None, "formula")


@pytest.mark.parametrize("r", [2.0, math.inf])
def test_zero_rule_holds_at_every_r(r):
    # K is not 0 past t = 4, but t^-theta K underflows at every node: r =
    # inf gives the zero report finite r gives, where it once widened 61
    # times and raised NumericError
    plan = KPlan("stub", lambda ts: np.where(ts > 4, 5e-324, 0.0))
    rep, e = _interp_scaled(plan, 0.5, r, None, "formula")
    assert (rep.value, rep.t_min_exp, rep.t_max_exp, rep.n_points, e) == (0.0, -20.0, 20.0, 321, 0)


@pytest.mark.parametrize("r", [2000.0, 1e4])
def test_r_th_powers_below_normal_take_the_peak_out(r):
    # at r = 2000 the largest value 0.5 of t^-theta K has its r-th power
    # 2^-2000 below the least subnormal at the rescaling rule's scale; the
    # powers are taken over the peak instead, and the norm is the closed
    # form 0.5 (4/r)^(1/r), where it once refused
    assert interp_norm(_field([(0.5,)]), _unit_query(r=r)) == pytest.approx(
        0.5 * (4.0 / r) ** (1.0 / r), rel=1e-12)


@pytest.mark.parametrize("r", [60.0, 200.0])
def test_interp_norm_is_homogeneous_at_large_r(r):
    # the r-th powers of t^-theta K are taken at the rescaling rule's scale
    # for power r; at the plan's field scale alone, 2^-40 times a field
    # read 0 and 2^40 times one overflowed
    query = InterpQuery(BesovIndex(1.5, 2.0, 2.0), BesovIndex(-1.0, 2.0, 2.0), theta=0.5, r=r)
    rng = np.random.default_rng(0)
    for _ in range(40):
        field = _rand_field(rng)
        want = interp_norm(field, query)
        for k in (-40, 40):
            got = interp_norm(field.scaled(2.0**k), query)
            assert got * 2.0**-k == pytest.approx(want, rel=1e-9)


def test_quadrature_spec_validation():
    with pytest.raises(Exception):
        QuadratureSpec(points_per_decade=0)
    with pytest.raises(Exception):
        QuadratureSpec(t_min_exp=5.0, t_max_exp=-5.0)
    for lo, hi in ((-20.0, 1030.0), (-1080.0, 20.0)):
        with pytest.raises(UsageError, match="positive finite double"):
            QuadratureSpec(t_min_exp=lo, t_max_exp=hi)


@pytest.mark.parametrize("ppd", [2.0**22, 1e8, 1e308])
def test_quadrature_spec_takes_the_node_bound(ppd):
    # the default window of 40 binary decades holds 2^22 nodes at most
    with pytest.raises(UsageError, match="holds more than 4194304 nodes"):
        QuadratureSpec(points_per_decade=ppd)


def test_quadrature_spec_takes_the_window_rule_of_default_t_grid():
    # an equal window was once refused here though default_t_grid takes it
    assert QuadratureSpec(t_min_exp=0.0, t_max_exp=0.0).t_max_exp == 0.0
    with pytest.raises(UsageError, match=r"need t_min_exp <= t_max_exp, got 5.0 > -5.0"):
        QuadratureSpec(t_min_exp=5.0, t_max_exp=-5.0)


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("route", list(_COUPLES))
def test_one_node_window_widens_to_the_default_value(route, r):
    # from [2^0, 2^0] the window widens until its tails are negligible
    rng = np.random.default_rng([9, list(_COUPLES).index(route)])
    field = _rand_field(rng)
    query = InterpQuery(*_rand_couple(rng, route), theta=0.4, r=r)
    want = interp_norm(field, query)
    got = interp_norm_report(field, query, quad=QuadratureSpec(t_min_exp=0.0, t_max_exp=0.0))
    assert got.t_min_exp < 0.0 < got.t_max_exp
    assert got.value == pytest.approx(want, rel=1e-12)


# --- every route on fields spanning the double range -------------------------

_P_ANY = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0, math.inf]
_Q_FINITE = [0.5, 0.7, 1.0, 1.5, 2.0, 4.0]


def _route_indices(rng, case):
    """Random (s, p, q) pairs whose couple falls in the given case."""
    s0, s1 = rng.uniform(-1.5, 1.5, 2)
    p0, p1 = (float(p) for p in rng.choice(_P_ANY, 2, replace=False))
    finite = case in (CaseTag.GENERAL, CaseTag.ORACLE_ONLY)
    qs = _Q_FINITE if finite else _Q_FINITE + [math.inf]
    q0, q1 = (float(q) for q in rng.choice(qs, 2, replace=False))
    if case is CaseTag.ORACLE_ONLY:
        q0, q1 = (q0, math.inf) if rng.random() < 0.5 else (math.inf, q1)
    return {
        CaseTag.DEGENERATE: ((s0, p0, q0), (s0, p0, q0)),
        CaseTag.P_EQUAL_S_DIFF_Q_EQUAL: ((s0, p0, q0), (s1, p0, q0)),
        CaseTag.P_EQUAL_S_DIFF_Q_DIFF: ((s0, p0, q0), (s1, p0, q1)),
        CaseTag.P_EQUAL_S_EQUAL: ((s0, p0, q0), (s0, p0, q1)),
        CaseTag.Q_EQUAL_P_DIFF: ((s0, p0, q0), (s1, p1, q0)),
        CaseTag.GENERAL: ((s0, p0, q0), (s1, p1, q1)),
        CaseTag.ORACLE_ONLY: ((s0, p0, q0), (s1, p1, q1)),
    }[case]


def _wide_layers(rng):
    """Up to 4 layers of up to 3 entries (few enough for the oracle's
    budget) over 1e-320..1e300, with zeros and the smallest subnormal."""
    layers = []
    for _ in range(int(rng.integers(1, 5))):
        v = 10.0 ** rng.uniform(-320.0, 300.0, int(rng.integers(1, 4)))
        v[rng.random(len(v)) < 0.2] = 0.0
        v[rng.random(len(v)) < 0.05] = 5e-324
        layers.append(v)
    return layers


def _finite_or_refused(call):
    try:
        out = np.asarray(call(), dtype=float)
    except BesovkError:
        return
    assert np.isfinite(out).all() and (out >= 0.0).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(CaseTag))
def test_every_route_finite_or_refused_across_double_range(case):
    rng = np.random.default_rng([2024, list(CaseTag).index(case)])
    for _ in range(60):
        i0, i1 = _route_indices(rng, case)
        query = InterpQuery(BesovIndex(*i0), BesovIndex(*i1),
                            theta=float(rng.uniform(0.1, 0.9)),
                            r=float(rng.choice([0.6, 1.0, 2.0, math.inf])))
        assert query.case is case
        field = _field(_wide_layers(rng))
        _finite_or_refused(lambda: [besov_norm(field, query.idx0),
                                    besov_norm(field, query.idx1)])
        _finite_or_refused(lambda: k_curve(field, query).k)
        _finite_or_refused(lambda: interp_norm(field, query))


def test_zero_inputs_have_no_ratio():
    query = InterpQuery(BesovIndex(0.0, 2.0, 2.0), BesovIndex(1.0, 2.0, 2.0))
    with pytest.raises(UsageError, match="zero field has no identity ratio"):
        besov_identity_check(_field([(0.0,), (0.0, 0.0)]), query)
    with pytest.raises(UsageError, match="zero sequence has no reiteration ratio"):
        reiteration_check([0.0, 0.0], 0.0, 1.0, 0.3, 0.7, 0.5, (2.0, 2.0, 2.0))
