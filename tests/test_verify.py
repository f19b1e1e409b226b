"""The verify suites' shared couple sampler."""

import numpy as np
import pytest

from besovk.errors import UsageError
from besovk.kfunc import CaseTag, InterpQuery
from besovk.verify import _COUPLES, _rand_couple, run_suite

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
