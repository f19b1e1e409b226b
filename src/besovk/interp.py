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
from .kfunc import (InterpQuery, KPlan, _check_t_window, _logcell_integral, _seq_plan,
                    default_t_grid, k_plan)
from .norms import besov_norm, weighted_lq_norm

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Window and resolution for the interpolation integral.

    Exponents are binary: the grid spans [2^t_min_exp, 2^t_max_exp]
    with points_per_decade nodes per factor of 2.  tail_rel_tol bounds
    the admissible fraction of the integral carried by the closed-form
    tails; the window expands until the bound holds.
    """

    points_per_decade: int = 8
    t_min_exp: float = -20.0
    t_max_exp: float = 20.0
    tail_rel_tol: float = 1e-6

    def __post_init__(self):
        if self.points_per_decade <= 0:
            raise UsageError("points_per_decade must be positive")
        if not self.t_min_exp < self.t_max_exp:
            raise UsageError("need t_min_exp < t_max_exp")
        _check_t_window(self.t_min_exp, self.t_max_exp)
        if not 0 < self.tail_rel_tol < 1:
            raise UsageError("tail_rel_tol must lie in (0, 1)")


@dataclass(frozen=True)
class InterpReport:
    """Value of one interpolation-norm computation plus how it was won."""

    value: float
    method: str
    t_min_exp: float
    t_max_exp: float
    n_points: int
    tail_low: float
    tail_high: float
    tail_fraction: float


def _interp_scaled(plan: KPlan, theta: float, r: float, quad: QuadratureSpec | None,
                   method: str) -> InterpReport:
    """Quadrature driver shared by field-level and sequence-level norms.

    Integrates K of the plan's scaled field, whose r-th powers stay in
    range; callers unscale the result.  Cells integrate in closed form
    under the log-linear model; tails use the exact asymptotics.  The
    window expands until the tails carry under tail_rel_tol of the total
    (for r = inf, until the sup detaches from the window edge), as long
    as it stays inside 2^(+-_WINDOW_LIMIT), in double range.  A
    widened window reuses K at every node equal, bit for bit, to one
    already evaluated, and evaluates it on the rest only.
    """
    quad = quad or QuadratureSpec()
    lo_exp, hi_exp = quad.t_min_exp, quad.t_max_exp
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
        if not ks.any():
            return InterpReport(0.0, method, lo_exp, hi_exp, len(ts),
                                0.0, 0.0, 0.0)
        slope1 = ks[0] / ts[0]      # K(t)/t at the low edge, tends to ||f||_A1
        level0 = ks[-1]             # K at the high edge, tends to ||f||_A0
        if math.isinf(r):
            vals = ts**-theta * ks
            imax = int(np.argmax(vals))
            if 0 < imax < len(ts) - 1:
                edge_lo = float(vals[0])
                edge_hi = float(vals[-1])
                peak = float(vals[imax])
                return InterpReport(peak, method, lo_exp, hi_exp, len(ts),
                                    edge_lo, edge_hi,
                                    max(edge_lo, edge_hi) / peak)
            continue
        us = np.log(ts)
        gs = (ts**-theta * ks) ** r
        mid = float(np.sum(_logcell_integral(us[:-1], us[1:], gs[:-1], gs[1:])))
        e_lo = (1.0 - theta) * r
        e_hi = theta * r
        tail_lo = slope1**r * ts[0] ** e_lo / e_lo
        tail_hi = level0**r * ts[-1] ** -e_hi / e_hi
        total = mid + tail_lo + tail_hi
        if total == 0.0:
            return InterpReport(0.0, method, lo_exp, hi_exp, len(ts),
                                0.0, 0.0, 0.0)
        frac = (tail_lo + tail_hi) / total
        if frac <= quad.tail_rel_tol:
            return InterpReport(total ** (1.0 / r), method, lo_exp, hi_exp,
                                len(ts), tail_lo, tail_hi, frac)
    raise NumericError(
        f"interpolation window grew to [2^{lo_exp}, 2^{hi_exp}] without "
        f"meeting tail tolerance {quad.tail_rel_tol}")


def _unscale(x, fac: float, r: float = 1.0) -> float:
    """x / fac^r, for a quantity of degree r in K computed on a plan's
    field scaled by the power of two fac; NumericError when that leaves
    double range."""
    if fac != 1.0:
        e = (math.frexp(fac)[1] - 1) * r  # fac^r = 2^e
        try:
            x = math.ldexp(x * 2.0 ** (math.floor(e) - e), -math.floor(e))
        except OverflowError:
            x = math.inf
    if not math.isfinite(x):
        raise NumericError("interpolation result leaves double range")
    return x


def interp_norm_report(field: CoeffField, query: InterpQuery,
                       method: str = "formula",
                       quad: QuadratureSpec | None = None,
                       budget=None) -> InterpReport:
    """interp_norm plus window and tail diagnostics; NumericError when a
    tail mass (of degree r in K) leaves double range."""
    plan = k_plan(field, query, budget, method)
    rep = _interp_scaled(plan, query.theta, query.r, quad, method)
    deg = 1.0 if math.isinf(query.r) else query.r
    return replace(rep, value=_unscale(rep.value, plan.fac),
                   tail_low=_unscale(rep.tail_low, plan.fac, deg),
                   tail_high=_unscale(rep.tail_high, plan.fac, deg))


def interp_norm(field: CoeffField, query: InterpQuery, method: str = "formula",
                quad: QuadratureSpec | None = None, budget=None) -> float:
    """Interpolation norm of the field for the query's couple and (theta, r).

    Evaluates K by the requested method on the quadrature window,
    integrates cells in closed form under log-linear K, adds the exact
    power-law tails, and widens the window until the tails carry less
    than quad.tail_rel_tol of the total (or, for r = inf, until the
    sup detaches from the window edge).  NumericError when the norm
    leaves double range.
    """
    plan = k_plan(field, query, budget, method)
    return _unscale(_interp_scaled(plan, query.theta, query.r, quad, method).value,
                    plan.fac)


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


def besov_identity_check(field: CoeffField, query: InterpQuery,
                         quad: QuadratureSpec | None = None,
                         method: str = "formula", budget=None) -> float:
    """interp_norm divided by the Besov norm at the intermediate index.

    Bounded above and below by constants depending only on the
    exponents; a diagnostic ratio, not a hard assert.
    """
    target = intermediate_index(query)
    denom = besov_norm(field, target)
    if denom == 0.0:
        raise UsageError("zero field has no identity ratio")
    return interp_norm(field, query, method=method, quad=quad,
                       budget=budget) / denom


def reiteration_check(a, s_a: float, s_b: float, theta0: float, theta1: float,
                      eta: float, qs: tuple[float, float, float],
                      quad: QuadratureSpec | None = None) -> dict:
    """Compare both sides of reinterpolating two interpolation spaces.

    The two inner spaces of the weighted couple (l^{s_a,*}, l^{s_b,*})
    at parameters theta0, theta1 (fine exponents qs[0], qs[1]) are
    realized as the weighted spaces they identify with; the left side
    is then the (eta, qs[2]) interpolation norm of that realized
    couple, the right side the direct weighted norm at the composed
    smoothness (1-eta)*c0 + eta*c1.  Returns both norms and their
    ratio; constants are expected, not unit ratios.
    """
    if not (0 < theta0 < theta1 < 1) or not 0 < eta < 1:
        raise UsageError("need 0 < theta0 < theta1 < 1 and eta in (0, 1)")
    if s_a == s_b:
        raise UsageError("need distinct endpoint smoothness")
    q0, q1, q = qs
    arr = np.asarray(a, dtype=float)
    c0 = (1.0 - theta0) * s_a + theta0 * s_b
    c1 = (1.0 - theta1) * s_a + theta1 * s_b
    s_final = (1.0 - eta) * c0 + eta * c1
    plan = _seq_plan(arr, c0, q0, c1, q1)
    lhs = _unscale(_interp_scaled(plan, eta, q, quad, "formula").value, plan.fac)
    rhs = weighted_lq_norm(arr, s_final, q)
    if rhs == 0.0:
        raise UsageError("zero sequence has no reiteration ratio")
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "s_composed": s_final}
