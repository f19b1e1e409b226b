import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from besovk.errors import DataError, UsageError
from besovk.norms import lp_norm
from besovk.rearrange import (
    distribution_count,
    partial_power_integral,
    rearrangement,
    tail_power_integral,
    threshold_split,
)

vectors = st.lists(st.floats(0.0, 100.0), min_size=0, max_size=12).map(np.array)


def test_distribution_count_basic():
    assert distribution_count((3, 1, 2), 1.5) == 2


def test_distribution_count_strict_at_max():
    assert distribution_count((3, 1, 2), 3.0) == 0


@given(vectors, st.floats(0.0, 100.0))
def test_distribution_count_matches_naive(v, lam):
    assert distribution_count(v, lam) == int(sum(1 for x in v if x > lam))


def test_rearrangement_sorts_descending():
    assert rearrangement((3, 1, 2, 0)).tolist() == [3, 2, 1, 0]


def test_rearrangement_constant_fixed_point():
    assert rearrangement((2.5, 2.5, 2.5)).tolist() == [2.5, 2.5, 2.5]


@given(vectors)
def test_rearrangement_sorted_and_multiset_equal(v):
    r = rearrangement(v)
    assert all(r[i] >= r[i + 1] for i in range(len(r) - 1))
    assert sorted(r.tolist()) == sorted(v.tolist())


def test_partial_power_integral_piecewise():
    # integral of the step function over [0, 2.5]: 3 + 2 + 0.5*1
    assert partial_power_integral((3, 2, 1, 0), 1.0, 2.5) == pytest.approx(5.5)


def test_partial_power_integral_zero_window():
    assert partial_power_integral((3, 2, 1, 0), 1.0, 0.0) == 0.0


@given(vectors.filter(lambda v: len(v) > 0), st.floats(0.25, 3.0),
       st.floats(0.0, 14.0))
def test_partial_power_integral_matches_riemann(v, p, T):
    r = rearrangement(v)
    got = partial_power_integral(r, p, T)
    # Riemann sum on a grid refined with the step breakpoints, so each
    # cell sees a constant integrand and the sum is jump-free
    grid = np.union1d(np.linspace(0.0, T, 10001),
                      np.arange(0.0, T, 1.0))
    mids = (grid[:-1] + grid[1:]) / 2.0
    widths = np.diff(grid)
    idx = np.minimum(mids.astype(int), len(r) - 1)
    vals = np.where(mids < len(r), r[idx] ** p, 0.0)
    want = float(np.sum(vals * widths))
    assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_tail_power_integral_piecewise():
    assert tail_power_integral((3, 2, 1, 0), 1.0, 2.5) == pytest.approx(0.5)


def test_tail_power_integral_beyond_support():
    assert tail_power_integral((3, 2, 1), 2.0, 3.0) == 0.0
    assert tail_power_integral((3, 2, 1), 2.0, 7.5) == 0.0


@given(vectors, st.floats(0.25, 3.0), st.floats(0.0, 14.0))
def test_partial_plus_tail_conserves_total(v, p, T):
    r = rearrangement(v)
    total = float(np.sum(r**p)) if len(r) else 0.0
    got = partial_power_integral(r, p, T) + tail_power_integral(r, p, T)
    assert got == pytest.approx(total, rel=1e-9, abs=1e-12)


def test_threshold_split_basic():
    big, small, frac = threshold_split((2, 1), 1.0)
    assert big.tolist() == [0]
    assert small.tolist() == [1]
    assert frac == 0.0


def test_threshold_split_zero():
    big, small, frac = threshold_split((2, 1), 0.0)
    assert big.tolist() == []
    assert small.tolist() == [0, 1]


@given(vectors.filter(lambda v: len(v) > 0), st.integers(0, 12),
       st.floats(0.5, 2.0))
def test_threshold_split_consistent_with_partial_integral(v, T, p):
    T = min(T, len(v))
    big, small, frac = threshold_split(v, float(T))
    assert frac == 0.0  # integer T has no fractional cell
    got = float(np.sum(np.asarray(v, dtype=float)[big] ** p)) if len(big) else 0.0
    want = partial_power_integral(rearrangement(v), p, float(T))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("v, err, match", [
    (np.ones((2, 2)), UsageError, "expected a flat vector"),
    ([1.0, math.nan], DataError, "vector contains NaN"),
    ([1.0, -0.5], DataError, "vector must be nonnegative"),
])
def test_vector_refusals(v, err, match):
    with pytest.raises(err, match=match):
        rearrangement(v)


# the other public entry points that take a vector, refusing it as rearrangement does
_VECTOR_TAKERS = {
    "lp_norm-p1": lambda v: lp_norm(v, 1.0),
    "lp_norm-p1.5": lambda v: lp_norm(v, 1.5),
    "lp_norm-pinf": lambda v: lp_norm(v, math.inf),
    "partial_power_integral": lambda v: partial_power_integral(v, 2.0, 1.5),
    "tail_power_integral": lambda v: tail_power_integral(v, 2.0, 0.5),
}


@pytest.mark.parametrize("v, err, match", [
    ([[1.0, 2.0]], UsageError, "expected a flat vector"),
    ([-2.0, 1.0], DataError, "vector must be nonnegative"),
    ([-1.0, 0.5], DataError, "vector must be nonnegative"),
    ([-4.0], DataError, "vector must be nonnegative"),
    ([1.0, math.nan], DataError, "vector contains NaN"),
], ids=["2d", "neg-first", "neg-largest", "neg-only", "nan"])
@pytest.mark.parametrize("taker", list(_VECTOR_TAKERS))
def test_vector_entry_points_refuse_as_rearrangement(taker, v, err, match):
    # lp_norm once read -1.0 on [-2, 1] at p = 1 and 0.5 on [-1, 0.5] at
    # p = inf, leaked a RuntimeWarning on [-4] at p = 1.5 and flattened a
    # 2-d vector; the integrals took any vector (1.125 on [-1, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(err, match=match):
            _VECTOR_TAKERS[taker](v)


@pytest.mark.parametrize("fn", [partial_power_integral, tail_power_integral])
def test_power_integrals_refuse_an_increasing_r(fn):
    with pytest.raises(UsageError, match=r"r must be nonincreasing \(a rearrangement\)"):
        fn([0.5, 1.0], 2.0, 1.5)


@pytest.mark.parametrize("fn, p, T, match", [
    pytest.param(partial_power_integral, 1.0, -1.0, "integral limit must be >= 0", id="-1.0"),
    pytest.param(partial_power_integral, 1.0, math.nan, "integral limit must be >= 0", id="nan"),
    pytest.param(partial_power_integral, math.inf, 1.0, "requires finite p > 0, got p = inf",
                 id="p=inf"),
    pytest.param(partial_power_integral, 0.0, 1.0, "requires finite p > 0, got p = 0.0",
                 id="p=0"),
    pytest.param(partial_power_integral, -1.0, 1.0, "requires finite p > 0, got p = -1.0",
                 id="p=-1"),
    pytest.param(partial_power_integral, math.nan, 1.0, "requires finite p > 0, got p = nan",
                 id="p=nan"),
    pytest.param(tail_power_integral, math.inf, 0.5, "tail_power_integral requires finite p > 0",
                 id="tail-p=inf"),
    pytest.param(tail_power_integral, 0.0, 0.5, "tail_power_integral requires finite p > 0",
                 id="tail-p=0"),
])
def test_integral_limit_refusals(fn, p, T, match):
    with pytest.raises(UsageError, match=match):
        fn([2.0, 1.0], p, T)
