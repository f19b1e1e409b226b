"""Session-wide test settings.

Hypothesis runs derandomized and without its example database, so the
suite draws the same examples on every run and every checkout, whatever
a local .hypothesis/ directory holds.  Explicit @example cases still run,
and per-test @settings (max_examples, deadline) still apply.

A test parametrized over K routes takes each as its kfunc.CaseTag, the
key of the one route table kfunc._ROUTES, in an argument named `route`;
its test id is the route's name (route_name).
"""

from hypothesis import settings

from besovk.kfunc import _ROUTES, CaseTag

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# the formula routes, in the order of kfunc._ROUTES: those that declare couples
FORMULA_ROUTES = [case for case, route in _ROUTES.items() if route[3]]


def route_name(case: CaseTag) -> str:
    """The last word of the route's label, or for GENERAL, whose last word
    names its kernel, the regime: "weighted-split", "general", ..."""
    words = _ROUTES[case][0].split(":")
    return words[1] if case is CaseTag.GENERAL else words[-1]


def pytest_make_parametrize_id(config, val, argname):
    if argname == "route" and isinstance(val, CaseTag):
        return route_name(val)
    return None
