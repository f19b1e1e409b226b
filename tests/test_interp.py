import math

import numpy as np
import pytest

from besovk.coeffs import CoeffField
from besovk.errors import BesovkError, NumericError, UsageError
from besovk.grid import BesovIndex, GridSpec
from besovk.interp import (
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
    assert rep.tail_fraction <= QuadratureSpec().tail_rel_tol
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
    # the report's tail masses are of degree r = 2 in K, about 1e594 here
    with pytest.raises(NumericError):
        interp_norm_report(big, query)
    assert interp_norm_report(small, query).value == got_small


def test_intermediate_index_interpolates_s():
    i0 = BesovIndex(1.0, 1.5, 1.0)
    i1 = BesovIndex(-1.0, 1.5, 3.0)
    mid = intermediate_index(InterpQuery(i0, i1, theta=0.25, r=2.0))
    assert mid.s == pytest.approx(0.5)
    assert mid.p == 1.5
    assert mid.q == 2.0


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


def test_window_expansion_controls_tails():
    # slow-decay exponent forces the window wider than the default
    field = _field([(1.0,)])
    query = _unit_query(theta=0.5, r=1.0)
    quad = QuadratureSpec(t_min_exp=-2.0, t_max_exp=2.0)
    rep = interp_norm_report(field, query, quad=quad)
    assert rep.t_max_exp > 2.0
    assert rep.tail_fraction <= quad.tail_rel_tol
    assert rep.value == pytest.approx(4.0, rel=1e-4)


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


def test_quadrature_spec_validation():
    with pytest.raises(Exception):
        QuadratureSpec(points_per_decade=0)
    with pytest.raises(Exception):
        QuadratureSpec(t_min_exp=5.0, t_max_exp=-5.0)
    for lo, hi in ((-20.0, 1030.0), (-1080.0, 20.0)):
        with pytest.raises(UsageError, match="positive finite double"):
            QuadratureSpec(t_min_exp=lo, t_max_exp=hi)


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
