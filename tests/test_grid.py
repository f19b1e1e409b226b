import math

import pytest
from hypothesis import given, strategies as st

from besovk.errors import NumericError, UsageError
from besovk.grid import BesovIndex, GridSpec, layer_weight, validate_compat


def test_layer_weight_zero_exponent():
    spec = GridSpec(n=1, J=6, layer_sizes=(1,) * 6)
    assert layer_weight(spec, BesovIndex(0.0, 2.0, 2.0), 5) == 1.0


def test_layer_weight_p_inf():
    spec = GridSpec(n=1, J=2, layer_sizes=(1, 1))
    # p = inf drops the n/p term: exponent s + n/2 = 1.5
    assert layer_weight(spec, BesovIndex(1.0, math.inf, 2.0), 1) == pytest.approx(
        2.0**1.5, rel=1e-15)


def test_layer_weight_dimension_two():
    spec = GridSpec(n=2, J=4, layer_sizes=(1,) * 4)
    got = layer_weight(spec, BesovIndex(0.5, 1.0, 1.0), 3)
    assert got == pytest.approx(2.0 ** (3 * (0.5 + 1.0 - 2.0)), rel=1e-15)


def test_validate_compat_accepts_matching_lengths():
    spec = GridSpec(n=1, J=2, layer_sizes=(2, 3))
    validate_compat(spec, ([0.0, 0.0], [0.0, 0.0, 0.0]))


def test_validate_compat_rejects_swapped_lengths():
    spec = GridSpec(n=1, J=2, layer_sizes=(2, 3))
    with pytest.raises(UsageError):
        validate_compat(spec, ([0.0, 0.0, 0.0], [0.0, 0.0]))


def test_validate_compat_rejects_extra_layer():
    spec = GridSpec(n=1, J=1, layer_sizes=(1,))
    with pytest.raises(UsageError):
        validate_compat(spec, ([0.0], [0.0]))


def test_grid_spec_invariants():
    with pytest.raises(UsageError):
        GridSpec(n=0, J=1, layer_sizes=(1,))
    with pytest.raises(UsageError):
        GridSpec(n=1, J=0, layer_sizes=())
    with pytest.raises(UsageError):
        GridSpec(n=1, J=2, layer_sizes=(1, 0))
    with pytest.raises(UsageError):
        GridSpec(n=1, J=2, layer_sizes=(1,))


def test_total_coeffs():
    assert GridSpec(n=1, J=3, layer_sizes=(2, 5, 1)).total_coeffs == 8


def test_besov_index_invariants():
    with pytest.raises(UsageError):
        BesovIndex(0.0, 0.0, 1.0)
    with pytest.raises(UsageError):
        BesovIndex(0.0, 1.0, -2.0)
    BesovIndex(-1.5, math.inf, math.inf)  # inf allowed
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(UsageError, match="smoothness s must be finite"):
            BesovIndex(s, 2.0, 2.0)


@given(
    s=st.floats(-4, 4),
    p=st.one_of(st.floats(0.25, 8), st.just(math.inf)),
    n=st.integers(1, 4),
    j=st.integers(0, 12),
)
def test_weight_matches_exponent_arithmetic(s, p, n, j):
    spec = GridSpec(n=n, J=j + 1, layer_sizes=(1,) * (j + 1))
    idx = BesovIndex(s, p, 1.0)
    expo = s + n / 2.0 - (0.0 if math.isinf(p) else n / p)
    assert layer_weight(spec, idx, j) == pytest.approx(2.0 ** (j * expo), rel=1e-12)
    # deterministic in (s, p, n): same inputs, same weight
    assert layer_weight(spec, BesovIndex(s, p, 3.0), j) == layer_weight(spec, idx, j)


def test_layer_weight_refuses_a_layer_outside_the_grid():
    spec = GridSpec(n=1, J=2, layer_sizes=(1, 1))
    idx = BesovIndex(0.0, 2.0, 2.0)
    for j in (-1, 2):
        with pytest.raises(IndexError, match=rf"layer {j} outside \[0, 2\)"):
            layer_weight(spec, idx, j)


def test_layer_weight_past_double_range_refuses():
    # 2^2000 once escaped as a raw OverflowError; a weight that underflows
    # stays 0
    spec = GridSpec(n=1, J=2, layer_sizes=(1, 1))
    with pytest.raises(NumericError, match=r"layer 1 has weight 2\^2000, past double range"):
        layer_weight(spec, BesovIndex(2000.0, 2.0, 2.0), 1)
    assert layer_weight(spec, BesovIndex(-2000.0, 2.0, 2.0), 1) == 0.0
