"""The verify suites' shared couple sampler and form-matched oracle."""

import math

import numpy as np
import pytest

from besovk.errors import UsageError
from besovk.kfunc import CaseTag, InterpQuery
from besovk.oracle import vertex_tables
from besovk.verify import (SUITES, _COUPLES, _T_GRID, _band, _form_ratios, _rand_couple,
                           _rand_field, run_suite)

_ROUTE_CASES = {
    "degenerate": CaseTag.DEGENERATE,
    "weighted-split": CaseTag.P_EQUAL_S_DIFF_Q_EQUAL,
    "composed-split": CaseTag.P_EQUAL_S_DIFF_Q_DIFF,
    "rearrangement": CaseTag.P_EQUAL_S_EQUAL,
    "layer-sum": CaseTag.Q_EQUAL_P_DIFF,
    "general": CaseTag.GENERAL,
}


def test_sampler_covers_every_formula_route():
    assert sorted(_COUPLES) == sorted(_ROUTE_CASES)


@pytest.mark.parametrize("route", sorted(_COUPLES))
def test_rand_couple_stays_in_its_route(route):
    rng = np.random.default_rng([7, sorted(_COUPLES).index(route)])
    for _ in range(200):
        i0, i1 = _rand_couple(rng, route)
        assert InterpQuery(i0, i1).case is _ROUTE_CASES[route]
        if _COUPLES[route][1] == "apart":
            assert abs(i0.s - i1.s) >= 0.5


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(UsageError, match="unknown suite 'bogus'; choose from axioms, "):
        run_suite("bogus")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_refuses_a_negative_seed(name):
    with pytest.raises(UsageError, match="seed must be a nonnegative integer, got -3"):
        run_suite(name, seed=-3)


@pytest.mark.parametrize("route, form, xi", [("general", "max", math.inf),
                                             ("layer-sum", "sum", 1.0),
                                             ("composed-split", "sum", 1.0)])
def test_form_ratios_divide_by_the_oracle_of_the_plans_form(route, form, xi):
    # the band suites read the functional form from the plan: a max-form
    # plan is held against the xi = inf oracle, a sum-form one against xi = 1
    rng = np.random.default_rng([23, sorted(_COUPLES).index(route)])
    for _ in range(5):
        field = _rand_field(rng, max_total=10)
        query = InterpQuery(*_rand_couple(rng, route))
        plan, ratios = _form_ratios(field, query)
        assert plan.form == form
        oracle = vertex_tables(field, query.idx0, query.idx1).curve(_T_GRID, xi)
        want = plan.k(_T_GRID) / oracle
        assert ratios.tolist() == want[oracle != 0.0].tolist()


@pytest.mark.parametrize("ratios", [[0.5, 0.0], [1.0, -2.0], [math.nan, 1.0]])
def test_band_is_inf_at_a_ratio_not_positive_or_nan(ratios):
    assert _band(np.array(ratios)) == math.inf


def test_band_is_the_worst_factor_either_way():
    assert _band(np.array([0.5, 2.0])) == 2.0
