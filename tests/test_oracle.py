import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from besovk.coeffs import CoeffField
from besovk.errors import BudgetError, UsageError
from besovk.grid import BesovIndex, GridSpec
from besovk.kfunc import InterpQuery, k_plan
from besovk import oracle as oracle_mod
from besovk.norms import besov_norm
from besovk.oracle import (
    OracleBudget,
    k_cuboid_continuous,
    k_vertex_exact,
    vertex_tables,
)


def _field(layers, n=1):
    spec = GridSpec(n=n, J=len(layers), layer_sizes=tuple(len(v) for v in layers))
    return CoeffField(spec, [np.asarray(v, dtype=float) for v in layers])


def _subset_field(field, keep):
    """Field with coefficients outside `keep` zeroed (flat index order)."""
    layers, pos = [], 0
    for v in field.layers:
        out = np.zeros_like(v)
        for i in range(len(v)):
            if pos in keep:
                out[i] = v[i]
            pos += 1
        layers.append(out)
    return CoeffField(field.spec, layers)


def _hand_vertex(field, idx0, idx1, t, xi=1.0):
    """Independent exhaustive enumeration via whole-field norm calls."""
    total = field.spec.total_coeffs
    best = math.inf
    for keep in itertools.chain.from_iterable(
            itertools.combinations(range(total), k) for k in range(total + 1)):
        a = besov_norm(_subset_field(field, set(keep)), idx0)
        rest = set(range(total)) - set(keep)
        b = besov_norm(_subset_field(field, rest), idx1)
        if math.isinf(xi):
            val = max(a, t * b)
        else:
            val = (a**xi + (t * b) ** xi) ** (1.0 / xi)
        best = min(best, val)
    return best


def test_single_coefficient_is_min_of_weights():
    field = _field([(0.0,), (2.5,)])
    idx0 = BesovIndex(1.0, 1.0, 1.0)
    idx1 = BesovIndex(-0.5, 2.0, 2.0)
    w0 = 2.0 ** (1 * (1.0 + 0.5 - 1.0))
    w1 = 2.0 ** (1 * (-0.5 + 0.5 - 0.5))
    for t in (0.01, 1.0, 3.7, 250.0):
        got = k_vertex_exact(field, idx0, idx1, t)
        assert got == pytest.approx(2.5 * min(w0, t * w1), rel=1e-12)


def test_zero_field_is_zero():
    field = _field([(0.0, 0.0)])
    idx = BesovIndex(0.0, 1.0, 1.0)
    assert k_vertex_exact(field, idx, BesovIndex(0.0, 2.0, 2.0), 1.3) == 0.0


def test_two_coefficient_hand_enumeration():
    # splits of (3,1) between l^1 and t*l^2: min over
    # {0.7*sqrt(10), 3 + 0.7, 1 + 2.1, 4}
    field = _field([(3.0, 1.0)])
    idx0 = BesovIndex(0.0, 1.0, 1.0)
    idx1 = BesovIndex(0.0, 2.0, 2.0)
    got = k_vertex_exact(field, idx0, idx1, 0.7)
    assert got == pytest.approx(0.7 * math.sqrt(10.0), rel=1e-12)
    assert got == pytest.approx(_hand_vertex(field, idx0, idx1, 0.7), rel=1e-12)


def test_three_coefficient_max_form_hand_enumeration():
    field = _field([(2.0, 1.0), (3.0,)])
    idx0 = BesovIndex(0.5, 1.0, 1.0)
    idx1 = BesovIndex(-0.5, math.inf, math.inf)
    for t in (0.2, 1.0, 5.0):
        got = k_vertex_exact(field, idx0, idx1, t, xi=math.inf)
        want = _hand_vertex(field, idx0, idx1, t, xi=math.inf)
        assert got == pytest.approx(want, rel=1e-12)


def test_oracle_curve_shape_properties():
    field = _field([(1.0, 0.5, 2.0), (0.3, 1.1)])
    idx0 = BesovIndex(0.7, 1.5, 1.0)
    idx1 = BesovIndex(-0.2, 2.0, 3.0)
    ts = np.logspace(-6, 6, 49, base=2.0)
    ks = vertex_tables(field, idx0, idx1).curve(ts)
    assert (np.diff(ks) >= -1e-12).all()
    assert (np.diff(ks / ts) <= 1e-12).all()


def test_budget_refusal():
    field = _field([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
    idx0 = BesovIndex(0.0, 1.0, 1.0)
    idx1 = BesovIndex(0.0, 2.0, 2.0)
    with pytest.raises(BudgetError):
        k_vertex_exact(field, idx0, idx1, 1.0,
                       budget=OracleBudget(max_total_coeffs=4))
    with pytest.raises(BudgetError):
        vertex_tables(field, idx0, idx1, OracleBudget(max_subsets=8))


def test_cuboid_single_coefficient():
    field = _field([(1.7,)])
    idx0 = BesovIndex(0.3, 2.0, 1.0)
    idx1 = BesovIndex(-0.3, 1.0, 2.0)
    for t in (0.1, 1.0, 9.0):
        want = k_vertex_exact(field, idx0, idx1, t)
        assert k_cuboid_continuous(field, idx0, idx1, t) == pytest.approx(
            want, rel=1e-8)


def test_cuboid_decoupled_closed_form():
    # p = q = 1 on both sides: the objective decouples per coordinate,
    # optimum = sum_j min(w0_j, t w1_j) * sum(layer j)
    field = _field([(0.5, 1.0), (2.0,), (0.25, 0.75)])
    idx0 = BesovIndex(1.0, 1.0, 1.0)
    idx1 = BesovIndex(-1.0, 1.0, 1.0)
    t = 1.9
    want = 0.0
    for j in range(3):
        w0 = 2.0 ** (j * idx0.weight_exponent(1))
        w1 = 2.0 ** (j * idx1.weight_exponent(1))
        want += min(w0, t * w1) * field.layers[j].sum()
    got = k_cuboid_continuous(field, idx0, idx1, t)
    assert got == pytest.approx(want, rel=1e-7)


def test_cuboid_vertex_band():
    rng = np.random.default_rng(12)
    for _ in range(5):
        field = _field([rng.uniform(0.1, 2.0, size=3), rng.uniform(0.1, 2.0, size=2)])
        idx0 = BesovIndex(0.8, 1.0, 2.0)
        idx1 = BesovIndex(-0.4, math.inf, 1.5)
        t = float(rng.uniform(0.2, 5.0))
        cont = k_cuboid_continuous(field, idx0, idx1, t)
        vert = k_vertex_exact(field, idx0, idx1, t)
        assert cont <= vert + 1e-9
        assert vert <= 2.0 * cont + 1e-9


_pool = st.sampled_from([0.5, 1.0, 1.5, 2.0, math.inf])
_small_fields = st.lists(
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_small_fields, st.floats(-2, 2), _pool, _pool, st.floats(-2, 2),
       _pool, _pool, st.floats(0.01, 100.0))
def test_commutation_exact(layers, s0, p0, q0, s1, p1, q1, t):
    field = _field(layers)
    idx0, idx1 = BesovIndex(s0, p0, q0), BesovIndex(s1, p1, q1)
    fwd = k_vertex_exact(field, idx0, idx1, t)
    rev = t * k_vertex_exact(field, idx1, idx0, 1.0 / t)
    assert fwd == pytest.approx(rev, rel=1e-12, abs=1e-300)


@settings(max_examples=40, deadline=None)
# split values near 1e-161 whose squares fall to subnormals
@example(layers=[[2.904917293050755e-161]], t=0.5)
@given(_small_fields, st.floats(0.05, 20.0))
def test_sandwich(layers, t):
    field = _field(layers)
    idx0 = BesovIndex(0.5, 1.0, 2.0)
    idx1 = BesovIndex(-0.5, 2.0, 1.0)
    tabs = vertex_tables(field, idx0, idx1)
    k_inf, k_2, k_1 = tabs.k(t, math.inf), tabs.k(t, 2.0), tabs.k(t, 1.0)
    assert k_inf <= k_2 + 1e-12 * k_2
    assert k_2 <= k_1 + 1e-12 * k_1
    assert k_1 <= 2.0 ** (1 - 0.5) * k_2 * (1 + 1e-12) + 1e-300


# (p0, q0, p1, q1) -> k_cuboid_continuous on _FROZEN_FIELD with
# (s0, s1, t) = (1, -0.5, 2): every finite/inf combination, finite
# values from {1.5, 2}; both sides shape each optimum.
_FROZEN_FIELD = [[0.9, 0.0, 1.3], [0.4], [1.1, 0.6]]
_CUBOID_FROZEN = {
    (1.5, 2.0, 2.0, 1.5): 2.993629947214586,
    (1.5, 2.0, 2.0, math.inf): 2.3264962507680393,
    (1.5, 2.0, math.inf, 1.5): 3.619541250653452,
    (1.5, 2.0, math.inf, math.inf): 2.3999999869912236,
    (1.5, math.inf, 2.0, 1.5): 2.542943623828234,
    (1.5, math.inf, 2.0, math.inf): 2.188128725991168,
    (1.5, math.inf, math.inf, 1.5): 2.85466190478144,
    (1.5, math.inf, math.inf, math.inf): 2.308037611700783,
    (math.inf, 2.0, 2.0, 1.5): 2.67414465612542,
    (math.inf, 2.0, 2.0, math.inf): 2.1086987591969764,
    (math.inf, 2.0, math.inf, 1.5): 3.6073031185602034,
    (math.inf, 2.0, math.inf, math.inf): 2.3999999977380004,
    (math.inf, math.inf, 2.0, 1.5): 2.31253944160886,
    (math.inf, math.inf, 2.0, math.inf): 1.973526613759534,
    (math.inf, math.inf, math.inf, 1.5): 3.1417075845932616,
    (math.inf, math.inf, math.inf, math.inf): 2.371428571463208,
}

# A non-smooth couple on which two of the three descent starts run to
# the sweep cap: p0 = 1 with q0 = inf against p1 = inf.
_STALLED = dict(
    layers=[[0.8262644140577073, 0.6428309983502755, 0.0],
            [1.346197464293376, 1.7192093602682121]],
    idx0=BesovIndex(-0.8459417052882885, 1.0, math.inf),
    idx1=BesovIndex(1.5652004212060224, math.inf, 2.0),
    t=0.5405045797104697,
)


def test_cuboid_continuous_frozen():
    field = _field(_FROZEN_FIELD)
    for (p0, q0, p1, q1), want in _CUBOID_FROZEN.items():
        got = k_cuboid_continuous(field, BesovIndex(1.0, p0, q0),
                                  BesovIndex(-0.5, p1, q1), 2.0)
        assert got == pytest.approx(want, rel=1e-13), (p0, q0, p1, q1)
    s = _STALLED
    got = k_cuboid_continuous(_field(s["layers"]), s["idx0"], s["idx1"], s["t"])
    assert got == pytest.approx(1.3481684867019943, rel=1e-13)


def test_cuboid_continuous_line_search_count(monkeypatch):
    # sweeps and tolerances fix the descent's work: 2020 line searches
    # on the stalled couple (one start capped at 500 sweeps of 4 live
    # coordinates, one converged after 5); the best vertex split repeats
    # the capped start and is not descended again
    calls = []
    golden = oracle_mod._golden_min

    def counted(*args):
        calls.append(1)
        return golden(*args)

    monkeypatch.setattr(oracle_mod, "_golden_min", counted)
    s = _STALLED
    k_cuboid_continuous(_field(s["layers"]), s["idx0"], s["idx1"], s["t"])
    assert len(calls) == 2020


def _vertex_start_by_array_equal(layers, mask):
    """The vertex start as built per coefficient and compared with the
    starts g = 0 and g = f by np.array_equal: None when it repeats one."""
    g_layers, bit = [], 0
    for v in layers:
        g_layers.append(np.array([v[i] if (mask >> (bit + i)) & 1 else 0.0
                                  for i in range(len(v))]))
        bit += len(v)
    starts = ([np.zeros_like(v) for v in layers], [v.copy() for v in layers])
    if any(all(map(np.array_equal, g_layers, start)) for start in starts):
        return None
    return np.concatenate(g_layers)


def test_vertex_start_mask_rule_matches_array_equal():
    # with nz the mask of nonzero coefficients, the split repeats g = 0
    # when mask & nz == 0 and g = f when mask & nz == nz; every mask of
    # fields with zero coefficients (and a zero layer, and no nonzero)
    rng = np.random.default_rng(15)
    fields = [[np.zeros(2), np.zeros(1)], [np.array([0.7, 0.0]), np.zeros(3)]]
    for _ in range(12):
        sizes = rng.integers(1, 4, size=int(rng.integers(1, 4)))
        fields.append([rng.uniform(0.1, 2.0, m) * (rng.random(m) > 0.3) for m in sizes])
    repeats_past_zero_bits = 0
    for layers in fields:
        flat = np.concatenate(layers)
        full = 2 ** len(flat) - 1
        for mask in range(full + 1):
            want = _vertex_start_by_array_equal(layers, mask)
            got = oracle_mod._vertex_start(flat, mask)
            if want is None:
                assert got is None, (layers, mask)
                repeats_past_zero_bits += mask not in (0, full)
            else:
                assert got is not None and np.array_equal(got, want), (layers, mask)
    assert repeats_past_zero_bits > 0


@pytest.mark.parametrize("t, searches", [(2.0**-8, 30), (2.0, 165), (2.0**8, 30)])
def test_cuboid_continuous_vertex_start_line_searches(monkeypatch, t, searches):
    # the best vertex split is g = 0 at t = 2^-8 and, with the zero
    # coefficient's bit clear, g = f at 2^8: it is not descended again,
    # so the searches and K are those of the run without a vertex start
    # (a budget that cannot enumerate); at t = 2 it is a third start
    calls = []
    golden = oracle_mod._golden_min

    def counted(*args):
        calls.append(1)
        return golden(*args)

    monkeypatch.setattr(oracle_mod, "_golden_min", counted)
    field = _field(_FROZEN_FIELD)
    idx0, idx1 = BesovIndex(1.0, 1.5, 2.0), BesovIndex(-0.5, 2.0, 1.5)
    mask = vertex_tables(field, idx0, idx1).best_split(t)
    assert mask == {2.0**-8: 0, 2.0: 0b1101, 2.0**8: 0b111101}[t]
    k = k_cuboid_continuous(field, idx0, idx1, t)
    assert len(calls) == searches
    calls.clear()
    k_two_starts = k_cuboid_continuous(field, idx0, idx1, t, OracleBudget(max_subsets=1))
    if t == 2.0:
        assert len(calls) < searches and k <= k_two_starts
    else:
        assert len(calls) == searches and k == k_two_starts


@pytest.mark.parametrize("p0, q0, p1, q1", [(1.0, 2.0, 2.0, 1.0), (2.0, 1.0, 1.0, math.inf)])
@pytest.mark.parametrize("t", [0.3, 2.0])
def test_cuboid_continuous_scale_covariant(p0, q0, p1, q1, t):
    # powers 1, 2 and inf of a power of two are exact and the descent
    # runs at the rescale's scale.  Its tolerances are relative to
    # max(vmax, f_i) for a largest entry vmax below 1 and to max(1, f_i)
    # above, a difference these converged descents do not show, so
    # K(2^e f) is 2^e K(f) exactly (a descent cut off at the sweep cap
    # can show it, at about 1e-8).  Before the rescale and the floor,
    # 1e200 overflowed, and from 2^-33 down every line search stopped
    # at its midpoint and K rose above the vertex minimum.
    base = _field(_FROZEN_FIELD)
    idx0, idx1 = BesovIndex(1.0, p0, q0), BesovIndex(-0.5, p1, q1)
    want = k_cuboid_continuous(base, idx0, idx1, t)
    for e in (-1000, -300, -90, -40, -33, 0, 40, 300, 1000):
        field = base.scaled(2.0**e)
        cont = k_cuboid_continuous(field, idx0, idx1, t)
        assert cont == math.ldexp(want, e), e
        assert cont <= vertex_tables(field, idx0, idx1).k(t) * (1 + 1e-9), e
    # subnormal entries are rounded, so only the band holds; K was once 0
    field = base.scaled(2.0**-1070)
    cont = k_cuboid_continuous(field, idx0, idx1, t)
    assert 0.0 < cont <= vertex_tables(field, idx0, idx1).k(t) * (1 + 1e-9)


def test_oracles_refuse_nan_t():
    # a nan t is refused like a negative one; t = 0 stays, where K is 0
    field = _field([[1.4, 0.0, 0.7], [1.9]])
    idx0, idx1 = BesovIndex(0.6, 1.5, 2.0), BesovIndex(-0.4, 2.0, 1.0)
    tabs = vertex_tables(field, idx0, idx1)
    for t in (math.nan, -1.0):
        with pytest.raises(UsageError):
            k_vertex_exact(field, idx0, idx1, t)
        with pytest.raises(UsageError):
            tabs.k(t)
        with pytest.raises(UsageError):
            k_cuboid_continuous(field, idx0, idx1, t)
    assert k_vertex_exact(field, idx0, idx1, 0.0) == tabs.k(0.0) == 0.0
    assert k_cuboid_continuous(field, idx0, idx1, 0.0) == 0.0


def test_oracles_at_t_inf_give_the_a0_norm():
    # only g = f is finite at t = inf; the vertex tables once took
    # inf * 0 = nan on the split that leaves nothing to A1
    field = _field(_FROZEN_FIELD)
    idx0, idx1 = BesovIndex(1.0, 1.5, 2.0), BesovIndex(-0.5, 2.0, math.inf)
    want = besov_norm(field, idx0)
    assert k_cuboid_continuous(field, idx0, idx1, math.inf) == pytest.approx(want, rel=1e-12)
    for xi in (1.0, math.inf):
        plan = k_plan(field, InterpQuery(idx0, idx1, xi=xi), method="oracle")
        for got in (k_vertex_exact(field, idx0, idx1, math.inf, xi), plan.k([math.inf])[0]):
            assert got == pytest.approx(want, rel=1e-12), xi


# Both oracles on every finite/inf combination of (p0, q0, p1, q1),
# finite values cycling through 1, 1.5 and 2, on a field with a zero
# coefficient and on one with a zero layer, plus the stalled couple.
# data/cuboid_guard.json holds the values of the line search that
# called an objective closure per evaluation; the fused loop keeps
# every floating-point operation, so they match with ==.  Both fields
# have largest coefficient >= 1, where the tolerances keep floor 1.
_GUARD_FIELDS = ([[1.4, 0.0, 0.7], [1.9], [0.3, 1.1]], [[0.0, 0.0], [1.2, 0.5, 0.8]])


def _guard_cases():
    for k, infs in enumerate(itertools.product((False, True), repeat=4)):
        p0, q0, p1, q1 = (math.inf if inf else (1.0, 1.5, 2.0)[(k + i) % 3]
                          for i, inf in enumerate(infs))
        for m, t in enumerate(((0.3, 1.7, 9.0)[k % 3], (9.0, 0.3, 1.7)[k % 3])):
            yield (f"field {m}, ({p0}, {q0}, {p1}, {q1}), t = {t}", _GUARD_FIELDS[m],
                   BesovIndex(0.6, p0, q0), BesovIndex(-0.4, p1, q1), t)
    s = _STALLED
    yield "stalled", s["layers"], s["idx0"], s["idx1"], s["t"]


def _guard_values():
    """name -> [k_cuboid_continuous, vertex k at xi = 1, at xi = inf]."""
    out = {}
    for name, layers, idx0, idx1, t in _guard_cases():
        field = _field(layers)
        tabs = vertex_tables(field, idx0, idx1)
        out[name] = [k_cuboid_continuous(field, idx0, idx1, t), tabs.k(t), tabs.k(t, math.inf)]
    return out


def test_oracles_match_guard_bit_for_bit():
    want = json.loads((Path(__file__).parent / "data" / "cuboid_guard.json")
                      .read_text(encoding="utf-8"))
    assert _guard_values() == want
