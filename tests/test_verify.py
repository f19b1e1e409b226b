"""The verify suites' shared couple sampler, form-matched oracle and route table."""

import json
import math

import numpy as np
import pytest

from besovk import verify
from besovk.errors import UsageError
from besovk.kfunc import _ROUTES, CaseTag, InterpQuery
from besovk.oracle import vertex_tables
from besovk.verify import SUITES, _T_GRID, _band, _form_ratios, _rand_couple, _rand_field, run_suite

from conftest import FORMULA_ROUTES, route_name

# the routes in the order of their names, which seeds the draws below
_BY_NAME = sorted(FORMULA_ROUTES, key=route_name)


def test_sampler_covers_every_formula_route():
    assert set(FORMULA_ROUTES) == set(CaseTag) - {CaseTag.ORACLE_ONLY}


def test_route_table_is_the_one_route_registry():
    # verify keeps no second table; every formula route declares its
    # couple draws and smoothness rule, and every route but the
    # degenerate one, which verify checks only at the endpoints, a band
    assert not hasattr(verify, "_COUPLES")
    for case in FORMULA_ROUTES:
        draws, smooth = _ROUTES[case][3]
        assert sorted(name[0] for name, _ in draws) == ["p", "q"]
        assert smooth in ("same", "free", "apart")
        assert (_ROUTES[case][4] is None) == (case is CaseTag.DEGENERATE)
    assert _ROUTES[CaseTag.ORACLE_ONLY][3:] == (None, None)


# band check -> the route whose declared band it reads
_BAND_CHECKS = {
    "p-equal": {"weighted-split-band": CaseTag.P_EQUAL_S_DIFF_Q_EQUAL,
                "composed-split-band": CaseTag.P_EQUAL_S_DIFF_Q_DIFF,
                "rearrangement-band": CaseTag.P_EQUAL_S_EQUAL},
    "q-equal": {"layer-sum-band": CaseTag.Q_EQUAL_P_DIFF},
    "general": {"composition-band": CaseTag.GENERAL, "ratio-spread": CaseTag.GENERAL},
}


@pytest.mark.parametrize("suite", list(_BAND_CHECKS))
def test_band_checks_read_the_declared_band(suite):
    limits = {c["name"]: c["limit"] for c in run_suite(suite)["checks"]}
    for name, case in _BAND_CHECKS[suite].items():
        assert limits[name] == _ROUTES[case][4]
    assert {n for n in limits if n.endswith("-band")} <= set(_BAND_CHECKS[suite])


@pytest.mark.parametrize("route", _BY_NAME)
def test_rand_couple_stays_in_its_route(route):
    rng = np.random.default_rng([7, _BY_NAME.index(route)])
    for _ in range(200):
        i0, i1 = _rand_couple(rng, route)
        assert InterpQuery(i0, i1).case is route
        if _ROUTES[route][3][1] == "apart":
            assert abs(i0.s - i1.s) >= 0.5


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(UsageError, match="unknown suite 'bogus'; choose from axioms, "):
        run_suite("bogus")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_refuses_a_negative_seed(name):
    with pytest.raises(UsageError, match="seed must be a nonnegative integer, got -3"):
        run_suite(name, seed=-3)


@pytest.mark.parametrize("seed", [1.5, "3", False])
def test_run_suite_refuses_a_seed_that_is_not_an_integer(seed):
    # 1.5 once raised a raw TypeError from numpy
    with pytest.raises(UsageError, match="^seed must be a nonnegative integer, got "):
        run_suite("endpoints", seed=seed)


def test_run_suite_reports_a_numpy_integer_seed_as_an_int():
    # the report once held the argument itself, np.int64(5), which json refuses
    report = run_suite("endpoints", seed=np.int64(5))
    assert type(report["seed"]) is int and json.loads(json.dumps(report))["seed"] == 5
    assert {**report, "elapsed_s": 0} == {**run_suite("endpoints", seed=5), "elapsed_s": 0}


@pytest.mark.parametrize("route, form, xi", [(CaseTag.GENERAL, "max", math.inf),
                                             (CaseTag.Q_EQUAL_P_DIFF, "sum", 1.0),
                                             (CaseTag.P_EQUAL_S_DIFF_Q_DIFF, "sum", 1.0)])
def test_form_ratios_divide_by_the_oracle_of_the_plans_form(route, form, xi):
    # the band suites read the functional form from the plan: a max-form
    # plan is held against the xi = inf oracle, a sum-form one against xi = 1
    rng = np.random.default_rng([23, _BY_NAME.index(route)])
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
