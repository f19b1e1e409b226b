"""The defect register: one strict xfail per open correctness defect.

Each test asserts the right value on the smallest known repro, and its
reason names the CHANGES.md FOUND line (or, where none was written, the
ROADMAP entry) that records the defect, and the ROADMAP item that owns
its mend.  Each xfail names the exception its repro raises today, so a
test that breaks for another reason fails.  A mend makes its test XPASS,
which fails the suite under strict=True: the change that mends it moves
the test into the plain suite and says so in CHANGES.md.
"""

import math

import numpy as np
import pytest

from besovk import (BesovIndex, CoeffField, GridSpec, InterpQuery, besov_norm,
                    interp_norm, k_cuboid_continuous, k_plan, layer_weight, vertex_tables)
from besovk.errors import NumericError

from _reference import k_reference

INF = math.inf


def _field(n, layers):
    return CoeffField(GridSpec(n, len(layers), tuple(len(v) for v in layers)),
                      [np.array(v, dtype=float) for v in layers])


def _law(field, i0, i1, t):
    """K of a field with one nonzero coefficient c in layer j: c min(w0, t w1)."""
    (j, c), = [(j, v.max()) for j, v in enumerate(field.layers) if v.any()]
    return c * min(layer_weight(field.spec, i0, j), t * layer_weight(field.spec, i1, j))


def _k(field, i0, i1, t):
    return k_plan(field, InterpQuery(i0, i1)).k([t])[0]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 15 repro (two.json at q1 = 0.5; no CHANGES.md line): the composed "
    "split reads K(8) = 14.80614063854467 above ||f||_A0 = 1; mend is item 5(b)"))
def test_composed_split_below_q_one_stays_under_the_a0_norm():
    field = _field(1, [[1.0], [1.0]])
    i0, i1 = BesovIndex(0.0, 2.0, INF), BesovIndex(1.0, 2.0, 0.5)
    n0 = besov_norm(field, i0)
    assert n0 == 1.0
    assert _k(field, i0, i1, 8.0) <= n0 * (1 + 1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5(b) repro (no CHANGES.md line): the composed split reads "
    "K(1/4) = 0.68367 on one coefficient where the law gives 0.5"))
def test_composed_split_one_coefficient_law():
    field = _field(1, [[0.0], [1.0], [0.0]])
    i0, i1 = BesovIndex(0.0, 2.0, 1.0), BesovIndex(1.0, 2.0, 2.0)
    assert _law(field, i0, i1, 0.25) == 0.5
    assert _k(field, i0, i1, 0.25) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=NumericError, reason=(
    "CHANGES.md:208 FOUND 'the composed split refuses a one-coefficient field': it "
    "refuses (calibration limit M0 = 0) where K(1) = 0.04852459812001147; ROADMAP item 5(b)"))
def test_composed_split_one_coefficient_answers():
    field = CoeffField(GridSpec(2, 2, (2, 2)), [[0.0, 0.0], [0.0, 0.9216188052986237]])
    i0 = BesovIndex(-1.2473819850289192, 0.5, 256.0)
    i1 = BesovIndex(-0.6666263438808868, 0.5, INF)
    assert _law(field, i0, i1, 1.0) == pytest.approx(0.04852459812001147, rel=1e-12, abs=0)
    assert _k(field, i0, i1, 1.0) == pytest.approx(0.04852459812001147, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md:353 FOUND 'GENERAL still misses the one-coefficient law at exponents "
    "16 and 64': 1.05e-7 off at t = 2^-36; ROADMAP item 18"))
def test_general_one_coefficient_law_at_large_exponents():
    field = _field(1, [[0.0, 0.0, 0.0], [2.9230914408560328e-05], [0.0]])
    i0 = BesovIndex(-1.476911762897425, 2.0, 16.0)
    i1 = BesovIndex(1.0223275610524891, 64.0, 64.0)
    t = 2.0 ** -36
    # abs=0: approx's default absolute tolerance, 1e-12, would pass any value this small
    assert _law(field, i0, i1, t) == pytest.approx(1.2087186490508143e-15, rel=1e-12, abs=0)
    assert _k(field, i0, i1, t) == pytest.approx(1.2087186490508143e-15, rel=1e-9, abs=0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md:356 FOUND 'GENERAL reads K = 0 on a field it read right at the "
    "parent': K(1) = 0 where c w0 = 7.725120087292274; ROADMAP item 18"))
def test_general_no_zero_at_a_wide_layer_weight():
    field = _field(1, [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [24091004.610129885]])
    i0 = BesovIndex(-7.190811286798731, 2.0, 16.0)
    i1 = BesovIndex(5.628312502824933, 0.5, 64.0)
    assert _law(field, i0, i1, 1.0) == pytest.approx(7.725120087292274, rel=1e-12)
    assert _k(field, i0, i1, 1.0) == pytest.approx(7.725120087292274, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md:355 FOUND 'the vertex oracle reads too little where a side's entries "
    "span more than their window': K(2^10) = 1966080.263665031 against the 40-digit "
    "enumeration's 1966938.632195121; ROADMAP item 18"))
def test_vertex_oracle_small_entries_against_exact_enumeration():
    field = _field(1, [[10.890300427821922], [364143.06886260083],
                       [1.5374324007927376, 151.836302608824]])
    i0 = BesovIndex(2.798152284830561, 1.0, 0.5)
    i1 = BesovIndex(1.372933972827366, 64.0, 16.0)
    got = vertex_tables(field, i0, i1).k(2.0 ** 10)
    assert got == pytest.approx(float(k_reference(field, i0, i1, 2.0 ** 10)), rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md:351 FOUND 'k_cuboid_continuous undershoots the infimum': "
    "0.5999912171291379 < 0.6 = min(N0, t N1); ROADMAP item 18"))
def test_continuous_oracle_one_coefficient_law():
    field = _field(2, [[0.6]])
    i0 = BesovIndex(-1.8827295462008142, 64.0, 64.0)
    i1 = BesovIndex(-0.6203470297554463, 16.0, 64.0)
    t = 20.057026152743155
    assert _law(field, i0, i1, t) == 0.6
    assert k_cuboid_continuous(field, i0, i1, t) == pytest.approx(0.6, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md:299 FOUND 'interp_norm near r = 1000 ... past r ~ 1000 the error grows "
    "to 1e-3': 1.836e-3 high at r = 1451.9; ROADMAP item 9"))
def test_interp_norm_at_a_large_r_reads_its_closed_form():
    # K = c min(1, t), so the (theta, r) norm is c (1/((1 - theta) r) + 1/(theta r))^(1/r)
    c, theta, r = 0.6305, 0.681, 1451.9
    idx = BesovIndex(0.0, 2.0, 2.0)
    got = interp_norm(_field(1, [[c]]), InterpQuery(idx, idx, theta=theta, r=r))
    assert got == pytest.approx(c * (1 / ((1 - theta) * r) + 1 / (theta * r)) ** (1 / r), rel=1e-6)
