import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from besovk import norms
from besovk.coeffs import CoeffField, generate
from besovk.errors import NumericError, UsageError
from besovk.grid import BesovIndex, GridSpec, layer_weight
from besovk.norms import (
    _seq_field,
    besov_lorentz_norm,
    besov_norm,
    lorentz_seq_norm,
    lp_norm,
    main_grid_reduce,
)
from besovk.verify import _rand_field


def _field(layers, n=1):
    spec = GridSpec(n=n, J=len(layers), layer_sizes=tuple(len(v) for v in layers))
    return CoeffField(spec, [np.asarray(v, dtype=float) for v in layers])


def _weighted_lq(a, s, q):
    # (sum_j (2^(j*s) a_j)^q)^(1/q): besov_norm on the sequence as the field
    # with one coefficient per layer, whose layer j weighs 2^(j*s) at p = inf
    return besov_norm(_seq_field(a), BesovIndex(s - 0.5, math.inf, q))


def test_lp_layer_norm_345():
    assert lp_norm(_field([(3, 4)]).layers[0], 2.0) == pytest.approx(5.0)


def test_lp_layer_norm_sup():
    assert lp_norm(_field([(3, 4)]).layers[0], math.inf) == 4.0


def test_lp_layer_norm_accumulation():
    rng = np.random.default_rng(2)
    v = rng.uniform(size=9)
    total = 0.0
    for x in v:
        total += x
    assert lp_norm(_field([v]).layers[0], 1.0) == pytest.approx(total, rel=1e-12)


def test_besov_norm_unit_spike():
    assert besov_norm(_field([(1,)]), BesovIndex(0.0, 2.0, 2.0)) == 1.0


def test_besov_norm_sup_over_weighted_layers():
    field = _field([(1,), (1,)])
    got = besov_norm(field, BesovIndex(1.0, math.inf, math.inf))
    assert got == pytest.approx(2.0**1.5, rel=1e-15)


def test_besov_norm_matches_double_loop():
    rng = np.random.default_rng(7)
    spec = GridSpec(n=2, J=4, layer_sizes=(3, 1, 4, 2))
    field = CoeffField(spec, [rng.uniform(size=m) for m in spec.layer_sizes])
    for idx in (BesovIndex(0.7, 1.5, 2.0), BesovIndex(-1.0, math.inf, 1.0),
                BesovIndex(0.0, 0.5, math.inf)):
        terms = []
        for j in range(spec.J):
            w = layer_weight(spec, idx, j)
            if math.isinf(idx.p):
                ln = max(field.layers[j])
            else:
                ln = sum(x**idx.p for x in field.layers[j]) ** (1.0 / idx.p)
            terms.append(w * ln)
        if math.isinf(idx.q):
            want = max(terms)
        else:
            want = sum(v**idx.q for v in terms) ** (1.0 / idx.q)
        assert besov_norm(field, idx) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("power", [0.5, 1.0, 3.0, 10.0, 16.0, 64.0, 2000.0, 1e306])
def test_one_size_keeps_the_rule_of_one_power(power):
    # one size (vmax, power): 1 inside the window 2^(+-min(100, 1000/power)),
    # else the power of two, clamped to 2^(+-1000), that pulls vmax to [1/2, 1)
    w = min(100.0, 1000.0 / power)
    for vmax in (0.0, 5e-324, 1e-300, 2.0**-w, 2.0**(0.5 - w), 1.0, 3.0, 2.0**w,
                 2.0**80, 2.0**80 * 1.5, 1e300, 1.7976931348623157e308):
        want = 1.0 if 2.0**-w < vmax < 2.0**w or vmax == 0.0 else \
            2.0 ** max(min(-math.frexp(vmax)[1], 1000), -1000)
        assert norms._pow2_factor((vmax, power)) == want, vmax


def test_several_sizes_meet_in_the_middle_of_their_windows():
    # a size at power inf or of vmax 0 sets no window
    assert norms._pow2_factor((2.0**80, math.inf), (0.0, 64.0), (1.0, 1.0)) == 1.0
    # 2^80 at 64 wants k in [-96.6, -65.4] and 2^70 at 16 k in [-133.5, -8.5]:
    # the middle of both is k = -81, where 2^80 alone is pulled to 1/2
    assert norms._pow2_factor((2.0**80, 64.0), (2.0**70, 16.0)) == 2.0**-81
    # 2^20 and 2^-5 at 64 want k in [-36.6, -5.4] and [-11.6, 19.6]: the
    # middle, k = -8, keeps both powers normal, where either size's own
    # factor, 2^-21 or 1, sends the other's power out of double range
    fac = norms._pow2_factor((2.0**20, 64.0), (2.0**-5, 64.0))
    assert fac == 2.0**-8 and 2.0**-1022 < (2.0**-5 * fac)**64 < (2.0**20 * fac)**64 < 2.0**1000
    assert (2.0**-5 * 2.0**-21)**64 == 0.0
    # no k brings 1 at 16 and 2^140 at 16 into their windows: k lifts 1 to
    # its window's floor, 2^-62.5, so that 2^140 overflows at 16 rather than
    # 1 underflowing to 0
    fac = norms._pow2_factor((1.0, 16.0), (2.0**140, 16.0))
    assert fac == 2.0**-62 and (1.0 * fac)**16 > 0.0
    with pytest.raises(OverflowError):
        (2.0**140 * fac)**16.0


def test_scaled_field_takes_its_largest_entry_at_power_1_and_the_callers_sizes():
    field = _field([(2.0**80, 1.0)])
    assert norms._scaled_field(field) == (field, 1.0)  # 2^80 lies in 2^(+-100)
    scaled, fac = norms._scaled_field(field, (2.0**80, 64.0))
    assert fac == 2.0**-81 and scaled.max_abs() == 0.5
    scaled, fac = norms._scaled_field(_field([(2.0**120,)]), (1.0, 3.0))
    # 2^120 at 1 wants k in [-221, -21], 1 at 3 k in [-101, 99]: the middle is -61
    assert fac == 2.0**-61 and scaled.max_abs() == 2.0**59


def test_norms_scale_robust_at_both_extremes():
    # p-th powers of entries far from 1 underflow to 0 or overflow to inf
    assert lp_norm([1e-200], 2.0) == pytest.approx(1e-200, rel=1e-15, abs=0)
    assert lp_norm([1e200, 1e200], 2.0) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15, abs=0)
    assert lp_norm([5e-324, 5e-324], 0.5) == 2e-323
    assert lp_norm([1e30], 11.0) == 1e30
    # the factor is clamped to 2^(+-1000), so 1.7e308 still sits near 2^24
    # at its scale and its 50th power overflowed (a RuntimeWarning, then a
    # refusal); 2^-1074 sits at 2^-74 and its 20th power read 0
    assert lp_norm([1.7e308], 50.0) == 1.7e308
    assert lp_norm([5e-324], 20.0) == 5e-324
    assert lorentz_seq_norm([1.7e308], 1.0, 50.0) == 1.7e308
    assert lp_norm([1e-30, 1e-30], 11.0) == pytest.approx(2.0 ** (1.0 / 11.0) * 1e-30,
                                                          rel=1e-15, abs=0)
    idx = BesovIndex(0.5, 2.0, 1.5)
    base = _field([(3.0, 4.0), (1.0,)])
    for scale in (1e-250, 1e-200, 1e200, 1e250):
        for p in (0.5, 1.0, 2.0, 3.0):
            assert lp_norm([3.0 * scale, 4.0 * scale], p) == pytest.approx(
                scale * lp_norm([3.0, 4.0], p), rel=1e-14, abs=0)
        assert besov_norm(base.scaled(scale), idx) == pytest.approx(
            scale * besov_norm(base, idx), rel=1e-14, abs=0)
        assert _weighted_lq([scale, 2.0 * scale], 0.5, 2.0) == pytest.approx(
            scale * _weighted_lq([1.0, 2.0], 0.5, 2.0), rel=1e-14, abs=0)
    # within 2^(+-100) the value is the unscaled sum, bit for bit
    v = np.random.default_rng(4).uniform(1e-20, 1e20, 7)
    assert lp_norm(v, 1.5) == float(np.sum(v**1.5) ** (1.0 / 1.5))


def _max_factored(v, p):
    m = max(v)
    return 0.0 if m == 0.0 else m * sum((x / m) ** p for x in v) ** (1.0 / p)


@pytest.mark.parametrize("E", [16.0, 256.0, 1024.0])
def test_norms_at_large_exponents_match_a_max_factored_reference(E):
    # the factor-1 window of the rescaling rule narrows to 2^(+-1000/p)
    # above p = 10, so p-th powers stay normal doubles: with a fixed
    # 2^(+-100), 2^80 times a field overflowed at p = 16 and 2^-80 times
    # one underflowed
    rng = np.random.default_rng(7)
    for _ in range(200):
        base = _rand_field(rng)
        idx = BesovIndex(float(rng.uniform(-2.0, 2.0)), E, E)
        for scale in (1.0, 2.0**80, 2.0**-80):
            field = base.scaled(scale)
            terms = []
            for j, v in enumerate(field.layers):
                want = _max_factored(v.tolist(), E)
                assert lp_norm(v, E) == pytest.approx(want, rel=1e-12)
                terms.append(layer_weight(field.spec, idx, j) * want)
            assert besov_norm(field, idx) == pytest.approx(_max_factored(terms, E), rel=1e-12)


def test_main_grid_reduce_single_spike():
    field = generate(GridSpec(n=1, J=3, layer_sizes=(2, 2, 2)), "single-spike", 1)
    a = main_grid_reduce(field, 2.0)
    assert np.count_nonzero(a) == 1
    assert a.max() == 1.0


def test_main_grid_reduce_sup():
    field = _field([(1, 3), (2, 2, 5)])
    assert main_grid_reduce(field, math.inf).tolist() == [3.0, 5.0]


def test_main_grid_reduce_euclidean():
    rng = np.random.default_rng(3)
    field = _field([rng.uniform(size=4), rng.uniform(size=2)])
    a = main_grid_reduce(field, 2.0)
    for j in range(2):
        assert a[j] == pytest.approx(float(np.linalg.norm(field.layers[j])))


def test_weighted_lq_norm_spike():
    assert _weighted_lq(np.array([1.0, 0.0, 0.0]), -1.3, 0.7) == 1.0


def test_weighted_lq_norm_two_terms():
    assert _weighted_lq(np.array([1.0, 1.0]), 1.0, 1.0) == pytest.approx(3.0)


def test_weighted_lq_norm_naive():
    rng = np.random.default_rng(4)
    a = rng.uniform(size=6)
    s, q = 0.8, 1.7
    want = sum((2.0 ** (j * s) * a[j]) ** q for j in range(6)) ** (1.0 / q)
    assert _weighted_lq(a, s, q) == pytest.approx(want, rel=1e-12)


def test_lorentz_single_entry():
    assert lorentz_seq_norm((2.7,), 1.3, 0.9) == pytest.approx(2.7, rel=1e-12)


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
       st.floats(0.5, 4.0))
def test_lorentz_p_equal_q_telescopes_to_lp(v, p):
    assert lorentz_seq_norm(v, p, p) == pytest.approx(
        lp_norm(np.array(v), p), rel=1e-9)


def test_lorentz_matches_fine_quadrature():
    rng = np.random.default_rng(6)
    v = np.sort(rng.uniform(0.1, 3.0, size=7))[::-1]
    p, q = 1.4, 2.3
    # normalized quadrature: ((q/p) int (tau^{1/p} f*(tau))^q dtau/tau)^{1/q},
    # the convention under which a single entry has norm exactly c
    taus = np.linspace(1e-9, 7.0, 4_000_001)
    f = v[np.minimum(taus.astype(int), 6)]
    integrand = (taus ** (1.0 / p) * f) ** q / taus
    want = (q / p * np.trapezoid(integrand, taus)) ** (1.0 / q)
    assert lorentz_seq_norm(v, p, q) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("q", [60.0, 300.0])
def test_lorentz_cells_past_double_range(q):
    # the cells (i+1)^(q/p) - i^(q/p) of 1000 entries pass 1e308 (they
    # read inf - inf and the norm refused); they telescope to
    # 1000^(q/p), so the norm of the ones is 1000^(1/p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lorentz_seq_norm(np.ones(1000), 0.5, q)
        assert lorentz_seq_norm(np.zeros(1000), 0.5, q) == 0.0
    assert got == pytest.approx(1e6, rel=1e-12)


@pytest.mark.parametrize("v0", [0.0, 1e-10])
def test_lorentz_two_levels_past_double_range(v0):
    # [a]*k + [b]*(m - k) telescopes to (a^q k^e + b^q (m^e - k^e))^(1/q),
    # e = q/p: here b m^(1/p) ((a/b)^q s + 1 - s)^(1/q), s = (k/m)^e,
    # in which the top entries' term (a/b)^q s = 1 doubles the sum; a
    # tail of zeros or of entries 1e-10 below b adds nothing at this
    # precision
    a, b, k, m, p, q = 1e4, 1.0, 10, 1000, 0.5, 60.0
    s = (k / m) ** (q / p)
    want = b * m ** (1.0 / p) * ((a / b) ** q * s + 1.0 - s) ** (1.0 / q)
    assert want / (b * m ** (1.0 / p)) == pytest.approx(2.0 ** (1.0 / q), rel=1e-12)
    got = lorentz_seq_norm([a] * k + [b] * (m - k) + [v0] * 20, p, q)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_lorentz_sup_form(p):
    # q = inf: sup over tau of tau^(1/p) f*(tau), with f* the step
    # rearrangement (2.5, 2.2, 1.0) on [0, 1), [1, 2), [2, 3)
    v = (1.0, 2.5, 2.2)
    want = {1.0: 2.0 * 2.2, 2.0: math.sqrt(2.0) * 2.2}[p]
    assert lorentz_seq_norm(v, p, math.inf) == pytest.approx(want, rel=1e-15)
    taus = np.linspace(0.0, 3.0, 3_000_001)[1:-1]
    fstar = np.array([2.5, 2.2, 1.0])[taus.astype(int)]
    assert lorentz_seq_norm(v, p, math.inf) == pytest.approx(
        np.max(taus ** (1.0 / p) * fstar), rel=1e-6)


def _dyadic_lorentz_series(values, n, j, p, r, u_pad=220):
    """Independent brute-force dyadic series for one layer."""
    v = 2.0 ** (n * j / 2.0) * np.asarray(values, dtype=float)
    v = v[v > 0]
    if len(v) == 0:
        return 0.0
    umax = math.ceil(math.log2(v.max())) + 2
    umin = math.floor(math.log2(v.min())) - u_pad
    total = 0.0
    sup = 0.0
    for u in range(umin, umax + 1):
        count = int(np.count_nonzero(v > 2.0**u))
        if count == 0:
            continue
        mu = 2.0 ** (-n * j) * count
        if math.isinf(r):
            sup = max(sup, 2.0**u * mu ** (1.0 / p))
        else:
            total += (2.0**u) ** r * mu ** (r / p)
    return sup if math.isinf(r) else total ** (1.0 / r)


def test_besov_lorentz_single_coefficient_series():
    field = _field([(0.0,), (0.73,)], n=1)
    s, p, q, r = 0.4, 1.2, 1.0, 2.0
    want_layer = _dyadic_lorentz_series((0.73,), 1, 1, p, r)
    want = 2.0**s * want_layer
    assert besov_lorentz_norm(field, s, p, q, r) == pytest.approx(want, rel=1e-9)


def test_besov_lorentz_zero_field():
    assert besov_lorentz_norm(_field([(0.0, 0.0)]), 1.0, 2.0, 1.0, 2.0) == 0.0


def test_besov_lorentz_matches_dyadic_oracle():
    rng = np.random.default_rng(8)
    field = _field([rng.uniform(0.0, 2.0, size=5),
                    rng.uniform(0.0, 2.0, size=3)], n=2)
    for (s, p, q, r) in ((0.5, 1.0, 1.0, 1.0), (-0.3, 2.0, 1.5, 0.75),
                         (0.0, 1.3, 2.0, math.inf), (0.5, math.inf, 1.0, 1.5),
                         (-0.3, math.inf, 2.0, math.inf)):
        terms = [_dyadic_lorentz_series(field.layers[j], 2, j, p, r)
                 for j in range(2)]
        want = sum((2.0 ** (j * s) * L) ** q for j, L in enumerate(terms)) ** (1.0 / q)
        got = besov_lorentz_norm(field, s, p, q, r)
        assert got == pytest.approx(want, rel=1e-4)


def test_besov_lorentz_at_p_inf():
    # p = inf: a level set counts 1 while it is nonempty, whatever its
    # measure.  One coefficient 0.73 in layer 1 of n = 1 has height
    # 0.73 * 2^(1/2) in (1, 2), so the levels 2^u, u <= 0, count: the sup
    # is 2^0 and the sum of 4^u is 4/3.
    one = _field([(0.0,), (0.73,)], n=1)
    assert besov_lorentz_norm(one, 0.4, math.inf, 1.0, math.inf) == pytest.approx(
        2.0**0.4, rel=1e-15)
    assert besov_lorentz_norm(one, 0.4, math.inf, 1.0, 2.0) == pytest.approx(
        2.0**0.4 * math.sqrt(4.0 / 3.0), rel=1e-15)


def test_lorentz_norms_scale_exactly_across_double_range():
    # the q-th powers of the rearrangement, and the dyadic levels of a
    # field, are taken at the rescaling rule's power-of-two scale: unscaled,
    # 1e-200 read 0 and 1e200 inf, and 2^700 times the field below raised
    # OverflowError while 2^-700 times it read 0
    assert lorentz_seq_norm([1e-200], 1.0, 2.0) == pytest.approx(1e-200, rel=1e-15, abs=0)
    assert lorentz_seq_norm([1e200], 1.0, 2.0) == pytest.approx(1e200, rel=1e-15, abs=0)
    field = _field([(1.0,), (0.5, 0.25)])
    assert besov_lorentz_norm(field, 0.3, 2.0, 1.0, 2.0) == pytest.approx(
        1.1392882414691883, rel=1e-15, abs=0)
    for r in (1.0, 2.0, math.inf):
        want = besov_lorentz_norm(field, 0.3, 2.0, 1.0, r)
        for k in (-1000, -700, 700, 1000):
            got = besov_lorentz_norm(field.scaled(2.0**k), 0.3, 2.0, 1.0, r)
            assert got * 2.0**-k == pytest.approx(want, rel=1e-15, abs=0)


def test_empty_vectors_and_lorentz_p_inf_refusal():
    assert lp_norm([], 2.0) == 0.0
    assert lorentz_seq_norm([], 2.0, 1.0) == 0.0
    with pytest.raises(UsageError, match="requires finite p"):
        lorentz_seq_norm([1.0], math.inf, 1.0)
    # nonpositive and NaN exponents refuse, naming the exponent
    for e in (0.0, -1.0, math.nan):
        with pytest.raises(UsageError, match=f"lp_norm requires p > 0, got p = {e}"):
            lp_norm([1.0, 2.0], e)
        with pytest.raises(UsageError, match=f"requires finite p > 0, got p = {e}"):
            lorentz_seq_norm([1.0, 2.0], e, 1.0)
        with pytest.raises(UsageError, match=f"requires q > 0, got q = {e}"):
            lorentz_seq_norm([1.0, 2.0], 1.0, e)


def test_besov_lorentz_at_a_power_of_two_height():
    # a height of exactly 2^u is not above the level 2^u: [[1.0]] counts
    # 1 for u <= -1 and 0 from u = 0 on, so the r = 2 sum is
    # sum_{u <= -1} 4^u = 1/3 and the sup is 2^-1.  Heights 1 and 1/4 at
    # p = q = r = 1 give 2 * 2^-2 below u = -2, plus 2^-2 + 2^-1.
    one = _field([(1.0,)])
    assert besov_lorentz_norm(one, 0.0, 2.0, 2.0, 2.0) == pytest.approx(
        math.sqrt(1.0 / 3.0), rel=1e-15)
    assert besov_lorentz_norm(one, 0.0, 2.0, 2.0, math.inf) == 0.5
    assert besov_lorentz_norm(_field([(1.0, 0.25)]), 0.0, 1.0, 1.0, 1.0) == pytest.approx(
        1.25, rel=1e-15)


def test_besov_norm_refuses_a_layer_weight_past_double_range():
    # s = 2000 puts layer 1's weight at 2^2000; this once raised a raw
    # OverflowError from layer_weight
    field = CoeffField(GridSpec(n=1, J=2, layer_sizes=(1, 1)), [np.ones(1), np.ones(1)])
    with pytest.raises(NumericError, match="layer 1"):
        besov_norm(field, BesovIndex(2000.0, 2.0, 2.0))


def test_weighted_lq_norm_refuses_a_layer_weight_past_double_range():
    # 2^(j*s) past double range: the sequence's weight refuses as a field's
    # does, where the weights once overflowed to inf with two RuntimeWarnings
    with pytest.raises(NumericError, match="layer 1024 has weight 2\\^1024"):
        _weighted_lq(np.ones(1100), 1.0, 2.0)
    field = _field([(1.0,), (0.5, 0.25)])
    with pytest.raises(NumericError, match="layer 1 has weight 2\\^3000"):
        besov_lorentz_norm(field, 3000.0, 2.0, 1.0, 2.0)


def test_besov_lorentz_refuses_a_layer_term_past_double_range(monkeypatch):
    # at small r a layer's sum to the power 1/r overflows: this once raised a
    # raw OverflowError "(34, 'Numerical result out of range')"
    field = _field([(0.3,), (0.5, 0.2)])
    for r in (0.001, 0.002, 0.005):
        with pytest.raises(NumericError, match=f"layer 0 Lorentz term at r={r:g} "):
            besov_lorentz_norm(field, 0.3, 2.0, 1.0, r)
    # a term that reads inf refuses the same way, not as a DataError on the
    # field of terms
    monkeypatch.setattr(norms, "_layer_dyadic_lorentz", lambda *args: math.inf)
    with pytest.raises(NumericError, match="layer 0 Lorentz term"):
        besov_lorentz_norm(field, 0.3, 2.0, 1.0, 2.0)


@pytest.mark.parametrize("r", [200.0, 700.0, 2000.0, 1e4])
def test_besov_lorentz_at_a_large_r_lies_within_its_level_count_of_r_inf(r):
    # a layer's term is the l^r norm of its level heights, at most L of
    # them with L = ceil(log2(max / min)) + 1, the lowest weighed by
    # 1/(1 - 2^-r) <= 2; so the norm lies between its r = inf value and
    # that times (L + 2)^(1/r), L the largest over the layers.  The
    # levels' r-th powers once overflowed from r = 200, and the norm
    # leaked a RuntimeWarning, refused or read 0
    rng = np.random.default_rng(int(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(100):
            layers = [rng.uniform(0.0, 2.0, int(rng.integers(1, 6)))
                      * 2.0 ** rng.uniform(-30.0, 30.0) for _ in range(int(rng.integers(1, 4)))]
            field = _field(layers, n=int(rng.integers(1, 3)))
            s = float(rng.uniform(-1.0, 1.0))
            p = float(rng.choice([0.5, 1.0, 2.0, 3.0, math.inf]))
            q = float(rng.choice([0.5, 1.0, 2.0, math.inf]))
            levels = max(math.ceil(math.log2(v.max() / v.min())) + 1 for v in layers)
            top = besov_lorentz_norm(field, s, p, q, math.inf)
            got = besov_lorentz_norm(field, s, p, q, r)
            assert top * (1.0 - 1e-15) <= got <= top * (levels + 2.0) ** (1.0 / r) * (1.0 + 1e-15)


@pytest.mark.parametrize("p", [1e-3, 0.5, 2.0, math.inf])
def test_besov_lorentz_reads_a_value_or_refuses_at_every_r(p):
    # at r = 1e-20, 1 - 2^-r rounds to 0: the block of levels below the
    # lowest height once raised a raw ZeroDivisionError.  Its denominator
    # stays positive down to the smallest positive double, and a term
    # past double range refuses, naming its layer and r
    fields = [_field([(0.3,), (0.5, 0.2)]), _field([(1e-300, 1.0, 3.0, 1e300), (5e-324,)], n=2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for field, r in itertools.product(fields, (5e-324, 1e-20, 1e-3, 2.0, 2000.0, 1e300,
                                                   math.inf)):
            try:
                assert math.isfinite(besov_lorentz_norm(field, 0.3, p, 1.0, r))
            except NumericError as exc:
                assert str(exc) in (f"layer {j} Lorentz term at r={r:g} leaves double range"
                                    for j in (0, 1))


_HUGE = (1.7e308, 1.7e308)


@pytest.mark.parametrize("name, norm", [
    pytest.param("lp_norm", lambda: lp_norm(_HUGE, 1.0), id="lp_norm-p1"),
    pytest.param("lp_norm", lambda: lp_norm(_HUGE, 2.0), id="lp_norm-p2"),
    # layer 1 weighs 2^1.5 at p = q = inf: the l^inf norm of the terms
    pytest.param("lp_norm", lambda: besov_norm(_field([(0.0,), (1.7e308,)]),
                                               BesovIndex(1.0, math.inf, math.inf)),
                 id="besov_norm-qinf"),
    pytest.param("lorentz_seq_norm", lambda: lorentz_seq_norm(_HUGE, 1.0, 1.0),
                 id="lorentz_seq_norm-q1"),
    pytest.param("lorentz_seq_norm", lambda: lorentz_seq_norm(_HUGE, 1.0, math.inf),
                 id="lorentz_seq_norm-qinf"),
    pytest.param("besov_lorentz_norm",
                 lambda: besov_lorentz_norm(_field([_HUGE]), 0.0, 1.0, 1.0, 1.0),
                 id="besov_lorentz_norm"),
])
def test_norms_refuse_a_result_past_double_range(name, norm):
    # 2 * 1.7e308 leaves double range: each once returned inf, and
    # besov_norm printed "Infinity", which is not JSON
    with pytest.raises(NumericError, match=f"^{name} leaves double range$"):
        norm()


_LARGE = (1100.0, 2000.0, 1e4, 1e300)


@pytest.mark.parametrize("E", _LARGE)
def test_norms_past_an_exponent_of_1000_read_their_closed_forms(E):
    # past E = 1000 no power of two keeps the largest E-th power a normal
    # double, so _powers takes the powers over the largest entry; at the
    # rescaling rule's scale alone a largest entry of mantissa 1/2 (2^300
    # here) read 0, and so did every entry at E = 1e300
    rng = np.random.default_rng(35)
    cs = [2.0**-300, 0.5, 1.0, 2.0**300, *(2.0 ** rng.uniform(-300.0, 300.0, 8))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in map(float, cs):
            assert lp_norm([c], E) == pytest.approx(c, rel=1e-15, abs=0)
            for p in (0.5, 1.0, 2.0):
                assert lorentz_seq_norm([c], p, E) == pytest.approx(c, rel=1e-15, abs=0)
            # two levels a > b with (b/a)^E near 1/2: l^E over a is
            # a (k + (m - k) (b/a)^E)^(1/E), and at q = 2p the Lorentz
            # cells of three entries are 1, 3, 5, so [b, a, b], whose
            # rearrangement is [a, b, b], reads a (1 + 8 (b/a)^q)^(1/q)
            a, b = c, c * 2.0 ** (-1.0 / E)
            h = (b / a) ** E
            assert lp_norm([a] * 3 + [b] * 4, E) == pytest.approx(
                a * (3.0 + 4.0 * h) ** (1.0 / E), rel=1e-15, abs=0)
            assert lorentz_seq_norm([b, a, b], E / 2.0, E) == pytest.approx(
                a * (1.0 + 8.0 * h) ** (1.0 / E), rel=1e-15, abs=0)
            # the dyadic Lorentz term of [[c]] is the l^E norm of one level
            # height 2^u0, u0 the largest integer with 2^u0 < c, whose r-th
            # power carries the block 1/(1 - 2^-E) of the levels below
            m, e = math.frexp(c)
            for p, q in itertools.product((0.5, 2.0, math.inf), repeat=2):
                assert besov_lorentz_norm(_field([(c,)]), 0.0, p, q, E) == pytest.approx(
                    2.0 ** (e - 2 if m == 0.5 else e - 1), rel=1e-15, abs=0)
        assert lp_norm(np.zeros(5), E) == 0.0
        assert lorentz_seq_norm(np.zeros(5), 1.0, E) == 0.0


def test_lorentz_scales_by_a_power_of_two_bit_for_bit():
    # the powers are always taken of a scaled copy, whatever the factor:
    # numpy's ** gave other last bits on the reversed sort view (factor 1)
    # than on a copy (factor 2^-200), so the norm of 2^200 v was not
    # always 2^200 times that of v
    rng = np.random.default_rng(1)
    for _ in range(5000):
        v = rng.uniform(0.0, 1.0, int(rng.integers(2, 200)))
        v[0] = rng.uniform(0.5, 1.0)  # the largest entry lies in [0.5, 1)
        p, q = float(rng.choice([0.5, 1.0, 2.0, 3.0])), float(rng.choice([1.5, 2.0, 5.0, 30.0]))
        assert lorentz_seq_norm(2.0**200 * v, p, q) == 2.0**200 * lorentz_seq_norm(v, p, q)
