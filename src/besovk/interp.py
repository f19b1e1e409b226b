"""Real-interpolation norms from K curves.

The interpolation norm at parameters (theta, r) is

    || f ||_{theta,r} = ( int_0^inf (t^-theta K(t))^r dt/t )^(1/r)

with the sup over t when r = inf.  K is sampled on a dyadic log grid
and modeled as log-linear between nodes, which integrates each cell in
closed form and is exact wherever K is a power law.  Outside the
window K has reached its asymptotes (constant ||f||_A0 above, slope
||f||_A1 below), so the two tails integrate exactly; the window grows
automatically until the tail mass is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coeffs import CoeffField
from .errors import NumericError, UsageError
from .grid import BesovIndex
from .kfunc import (InterpQuery, KPlan, _check_t_window, _logcell_integral, default_t_grid,
                    k_plan)
from .norms import _powers, _seq_field, besov_norm

__all__ = [
    "QuadratureSpec",
    "InterpReport",
    "interp_norm",
    "interp_norm_report",
    "intermediate_index",
    "besov_identity_check",
    "reiteration_check",
]

_EXPAND_STEP = 16.0  # binary decades added per side per expansion
_WINDOW_LIMIT = 1000.0  # the window widens while it stays inside 2^(+-this)
_TAIL_REL_TOL = 1e-6  # the window widens until the tails carry at most this share


@dataclass(frozen=True)
class QuadratureSpec:
    """Window and resolution for the interpolation integral.

    Exponents are binary: the grid spans [2^t_min_exp, 2^t_max_exp]
    with points_per_decade nodes per factor of 2, which need not be a
    whole number, and 2^22 nodes at most (_check_t_window, which a
    widened window meets too).  The window expands until the tails carry
    at most _TAIL_REL_TOL of the integral.
    """

    points_per_decade: float = 8.0
    t_min_exp: float = -20.0
    t_max_exp: float = 20.0

    def __post_init__(self):
        _check_t_window(self.t_min_exp, self.t_max_exp, self.points_per_decade)


@dataclass(frozen=True)
class InterpReport:
    """Value of one interpolation-norm computation plus how it was won.

    value (the norm), tail_low and tail_high (the L^r pieces of t^-theta K
    below 2^t_min_exp and above 2^t_max_exp) are of degree 1 in the field;
    tail_fraction, the tails' share of the norm's r-th power, is a ratio."""

    value: float
    method: str
    t_min_exp: float
    t_max_exp: float
    n_points: int
    tail_low: float
    tail_high: float
    tail_fraction: float


def _interp_scaled(plan: KPlan, theta: float, r: float, quad: QuadratureSpec | None,
                   method: str) -> tuple[InterpReport, int]:
    """Quadrature driver of the interpolation norm.

    Integrates K of the plan's scaled field, and takes the r-th powers of
    t^-theta K on the grid through norms._powers, whose peak multiplies
    back into the value.  Returns the report at the combined scale 2^e of
    the plan's factor and _powers' factor, and e: its value and both tails
    are 2^e times their own, all of degree 1 in K; callers unscale
    (_unscale).  Cells integrate in closed form under the log-linear
    model.  Past the window K follows its asymptotes (t ||f||_A1 below,
    ||f||_A0 above), so each tail mass is the integrand at its window edge
    over its exponent, (1-theta) r below and theta r above; the report
    gives its L^r piece, the edge value over that exponent to the 1/r,
    which takes no r-th power.  The window expands until the tails carry
    under _TAIL_REL_TOL of the total (for r = inf, until the sup detaches
    from the window edge), as long as it stays inside 2^(+-_WINDOW_LIMIT).
    A widened window reuses K at every node equal, bit for bit, to one
    already evaluated, and evaluates it on the rest only.  t^-theta K of 0
    at every node gives the zero report.
    """
    quad = quad or QuadratureSpec()
    e = math.frexp(plan.fac)[1] - 1  # plan.fac = 2^e
    lo_exp, hi_exp = float(quad.t_min_exp), float(quad.t_max_exp)
    ts, ks = np.empty(0), np.empty(0)
    widenings = max(0, int((_WINDOW_LIMIT - max(-lo_exp, hi_exp)) // _EXPAND_STEP))
    for i in range(widenings + 1):
        if i:
            lo_exp -= _EXPAND_STEP
            hi_exp += _EXPAND_STEP
        old_ts, old_ks = ts, ks
        ts = default_t_grid(lo_exp, hi_exp, quad.points_per_decade)
        pos = np.searchsorted(old_ts, ts)
        seen = pos < len(old_ts)
        seen[seen] = old_ts[pos[seen]] == ts[seen]
        ks = np.empty(len(ts))
        ks[seen] = old_ks[pos[seen]]
        ks[~seen] = plan.k_scaled(ts[~seen])
        vals = ts**-theta * ks
        if not vals.any():
            return InterpReport(0.0, method, lo_exp, hi_exp, len(ts),
                                0.0, 0.0, 0.0), e
        if math.isinf(r):
            imax = int(np.argmax(vals))
            if 0 < imax < len(ts) - 1:
                edge_lo, edge_hi, peak = float(vals[0]), float(vals[-1]), float(vals[imax])
                return InterpReport(peak, method, lo_exp, hi_exp, len(ts), edge_lo, edge_hi,
                                    max(edge_lo, edge_hi) / peak), e
            continue
        gs, gfac, peak = _powers(vals, r)
        us = np.log(ts)
        mid = float(np.sum(_logcell_integral(us[:-1], us[1:], gs[:-1], gs[1:])))
        tail_lo = gs[0] / ((1.0 - theta) * r)
        tail_hi = gs[-1] / (theta * r)
        total = mid + tail_lo + tail_hi
        frac = float((tail_lo + tail_hi) / total)
        if frac <= _TAIL_REL_TOL:
            return InterpReport(total ** (1.0 / r) * peak, method, lo_exp, hi_exp, len(ts),
                                vals[0] * gfac / ((1.0 - theta) * r) ** (1.0 / r),
                                vals[-1] * gfac / (theta * r) ** (1.0 / r),
                                frac), e + math.frexp(gfac)[1] - 1
    raise NumericError(
        f"interpolation window grew to [2^{lo_exp}, 2^{hi_exp}] without "
        f"meeting tail tolerance {_TAIL_REL_TOL}")


def _unscale(x, e: int) -> float:
    """x / 2^e as a Python float, for a report quantity at the scale 2^e
    (_interp_scaled); NumericError past double range."""
    try:
        x = math.ldexp(x, -e)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise NumericError("interpolation result leaves double range")
    return x


def interp_norm_report(field: CoeffField, query: InterpQuery,
                       method: str = "formula",
                       quad: QuadratureSpec | None = None) -> InterpReport:
    """Interpolation norm of the field for the query's couple and (theta,
    r), with its window and tails.

    Evaluates K by the requested method on the quad window (default
    QuadratureSpec()), integrates cells in closed form under log-linear
    K, adds the exact power-law tails, and widens the window until the
    tails carry less than _TAIL_REL_TOL of the total (or, for r = inf,
    until the sup detaches from the window edge).  The oracle method
    refuses a field of more than 20 coefficients (BudgetError).
    NumericError when the norm leaves double range.
    """
    rep, e = _interp_scaled(k_plan(field, query, method), query.theta, query.r, quad, method)
    return replace(rep, value=_unscale(rep.value, e), tail_low=_unscale(rep.tail_low, e),
                   tail_high=_unscale(rep.tail_high, e))


def interp_norm(field: CoeffField, query: InterpQuery, method: str = "formula") -> float:
    """interp_norm_report's value on the default QuadratureSpec window."""
    return interp_norm_report(field, query, method).value


def intermediate_index(query: InterpQuery) -> BesovIndex:
    """Besov index the (theta, r) interpolation space identifies with.

    Requires a shared p; smoothness interpolates linearly and the fine
    exponent becomes r.
    """
    i0, i1 = query.idx0, query.idx1
    if i0.p != i1.p:
        raise UsageError("intermediate index needs a shared p")
    if i0.s == i1.s:
        raise UsageError("intermediate index needs distinct smoothness")
    s_mid = (1.0 - query.theta) * i0.s + query.theta * i1.s
    return BesovIndex(s=s_mid, p=i0.p, q=query.r)


def besov_identity_check(field: CoeffField, query: InterpQuery) -> float:
    """Formula-route interp_norm divided by the Besov norm at the
    intermediate index.

    Bounded above and below by constants depending only on the
    exponents; a diagnostic ratio, not a hard assert.
    """
    target = intermediate_index(query)
    denom = besov_norm(field, target)
    if denom == 0.0:
        raise UsageError("zero field has no identity ratio")
    return interp_norm(field, query) / denom


def reiteration_check(a, s_a: float, s_b: float, theta0: float, theta1: float,
                      eta: float, qs: tuple[float, float, float]) -> dict:
    """Compare both sides of reinterpolating two interpolation spaces.

    The two inner spaces of the weighted couple (l^{s_a,*}, l^{s_b,*})
    at parameters theta0, theta1 (fine exponents qs[0], qs[1]) are
    realized as the weighted spaces they identify with; the left side
    is then the (eta, qs[2]) interpolation norm of that realized
    couple, the right side the direct weighted norm at the composed
    smoothness (1-eta)*c0 + eta*c1.  Both measure the sequence as the
    field with one coefficient per layer (norms._seq_field) at indices
    (c - 1/2, inf, q), whose layer j weighs 2^(j c), and check it as any
    field (DataError for a negative or non-finite entry, UsageError for
    an exponent outside (0, inf], NumericError past double range).
    Returns both norms and their ratio as Python floats; constants are
    expected, not unit ratios.
    """
    if not (0 < theta0 < theta1 < 1) or not 0 < eta < 1:
        raise UsageError("need 0 < theta0 < theta1 < 1 and eta in (0, 1)")
    if s_a == s_b:
        raise UsageError("need distinct endpoint smoothness")
    q0, q1, q = qs
    field = _seq_field(a)
    c0 = (1.0 - theta0) * s_a + theta0 * s_b
    c1 = (1.0 - theta1) * s_a + theta1 * s_b
    s_final = (1.0 - eta) * c0 + eta * c1
    lhs = interp_norm(field, InterpQuery(BesovIndex(c0 - 0.5, math.inf, q0),
                                         BesovIndex(c1 - 0.5, math.inf, q1), eta, q))
    rhs = besov_norm(field, BesovIndex(s_final - 0.5, math.inf, q))
    if rhs == 0.0:
        raise UsageError("zero sequence has no reiteration ratio")
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "s_composed": s_final}
