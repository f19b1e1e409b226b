"""Randomized verification suites: formulas against enumeration oracles.

Each suite draws reproducible random instances, measures the documented
property (an identity, a band, or an exactness claim), and reports the
worst case observed.  The suites back the command-line `verify` command
and the acceptance tests; they are deterministic for a fixed seed.
Each suite declares its name, default seed and size (instances drawn)
where it is defined, in its `_suite` decorator; the decorator seeds the
generator, times the suite, builds its report and registers it in
SUITES, and the public run_* takes the seed alone.

Band limits are engineering tolerances for the equivalence constants,
not sharp theory constants.  Every suite that tests a K route draws its
index couples with `_rand_couple` from one table, `_COUPLES`, keyed by
route name.  An entry lists the exponent draws in order ("p" or "q" is
one value shared by both indices, "p2" or "q2" two distinct values from
a pool) and a smoothness rule: "same" for both indices, "free", or
"apart", which redraws the pair until the two differ by at least 0.5 so
breakpoint hulls stay short.  Instance pools matter: the composed-split
route keeps its aggregation exponents at 1 or above because its
constants degrade rapidly below 1 (a single-spike computation already
shows a factor 81 at exponent 0.5).
"""

from __future__ import annotations

import math
import time

import numpy as np

from .coeffs import CoeffField
from .errors import UsageError
from .grid import BesovIndex, GridSpec, layer_weight
from .interp import besov_identity_check, interp_norm, reiteration_check
from .kfunc import InterpQuery, KPlan, k_plan
from .norms import besov_norm, main_grid_reduce
from .oracle import k_cuboid_continuous, vertex_tables

__all__ = [
    "SUITES",
    "run_suite",
    "run_axioms",
    "run_vertex_band",
    "run_p_equal",
    "run_q_equal",
    "run_general",
    "run_identities",
    "run_endpoints",
]

_FULL_POOL = (0.5, 1.0, 1.5, 2.0, math.inf)
_CONVEX_POOL = (1.0, 1.5, 2.0, math.inf)
_SPLIT_POOL = (0.5, 1.0, 2.0, math.inf)
_T_GRID = 2.0 ** np.arange(-12, 13, 2)  # 13 points, log step 2

# route -> (exponent draws in order, smoothness rule); see the module docstring
_COUPLES = {
    "degenerate": ((("p", _FULL_POOL), ("q", _FULL_POOL)), "same"),
    "weighted-split": ((("p", _FULL_POOL), ("q", _SPLIT_POOL)), "apart"),
    "composed-split": ((("p", _FULL_POOL), ("q2", _CONVEX_POOL)), "apart"),
    "rearrangement": ((("p", _FULL_POOL), ("q2", _SPLIT_POOL)), "same"),
    "layer-sum": ((("q", _FULL_POOL), ("p2", _SPLIT_POOL)), "free"),
    "general": ((("p2", (1.0, 2.0, math.inf)), ("q2", (0.5, 1.0, 2.0, 3.0))), "free"),
}


def _band(ratios: np.ndarray) -> float:
    """Worst band factor max(r, 1/r) over ratios: 0 for none, inf at r <= 0 or nan."""
    if not (ratios > 0).all():
        return math.inf
    return float(np.maximum(ratios, 1.0 / ratios).max(initial=0.0))


def _check(name: str, worst: float, limit: float) -> dict:
    return {"name": name, "worst": float(worst), "limit": float(limit),
            "passed": bool(worst <= limit)}


SUITES = {}


def _suite(name: str, seed: int, size: int):
    """Register a suite body(rng, size) -> checks as SUITES[name]: the
    returned run(seed) draws size instances from a generator seeded
    with seed and reports the checks with the time they took."""
    def register(body):
        def run(seed: int = seed) -> dict:
            if int(seed) < 0:
                raise UsageError(f"seed must be a nonnegative integer, got {seed}")
            t0 = time.perf_counter()
            checks = body(np.random.default_rng(seed), size)
            return {
                "suite": name,
                "seed": seed,
                "instances": size,
                "checks": checks,
                "passed": all(c["passed"] for c in checks),
                "elapsed_s": round(time.perf_counter() - t0, 3),
            }

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        SUITES[name] = run
        return run

    return register


def _rand_sizes(rng, max_total: int, j_max: int) -> tuple[int, ...]:
    J = int(rng.integers(1, j_max + 1))
    budget = max_total - J
    sizes = []
    for _ in range(J):
        extra = int(rng.integers(0, min(budget, 3) + 1)) if budget > 0 else 0
        sizes.append(1 + extra)
        budget -= extra
    return tuple(sizes)


def _rand_field(rng, max_total: int = 12, j_max: int = 3,
                zero_prob: float = 0.15) -> CoeffField:
    sizes = _rand_sizes(rng, max_total, j_max)
    n = int(rng.choice((1, 2)))
    layers = []
    for m in sizes:
        v = rng.uniform(0.1, 2.0, size=m)
        v[rng.random(m) < zero_prob] = 0.0
        layers.append(v)
    if not any(v.any() for v in layers):
        layers[0][0] = 1.0
    return CoeffField(GridSpec(n=n, J=len(sizes), layer_sizes=sizes), layers)


def _rand_index(rng, p_pool=_FULL_POOL, q_pool=_FULL_POOL) -> BesovIndex:
    return BesovIndex(s=float(rng.uniform(-2.0, 2.0)),
                      p=float(rng.choice(p_pool)),
                      q=float(rng.choice(q_pool)))


def _rand_couple(rng, route: str) -> tuple[BesovIndex, BesovIndex]:
    """An index couple of the route's regime, drawn as _COUPLES says."""
    draws, smooth = _COUPLES[route]
    e0, e1 = {}, {}
    for name, pool in draws:
        if name.endswith("2"):
            a, b = rng.choice(pool, size=2, replace=False)
        else:
            a = b = rng.choice(pool)
        e0[name[0]], e1[name[0]] = float(a), float(b)
    if smooth == "same":
        s0 = s1 = rng.uniform(-2.0, 2.0)
    else:
        s0, s1 = rng.uniform(-2.0, 2.0, size=2)
        while smooth == "apart" and abs(s0 - s1) < 0.5:
            s0, s1 = rng.uniform(-2.0, 2.0, size=2)
    return (BesovIndex(float(s0), e0["p"], e0["q"]),
            BesovIndex(float(s1), e1["p"], e1["q"]))


def _single_worst(rng, route: str, count: int, ts) -> float:
    """Worst relative error of the route's K against the exact
    c * min(w0, t * w1) on count fields with one nonzero coefficient c
    (w0, w1 the weights of its layer)."""
    worst = 0.0
    for _ in range(count):
        sizes = _rand_sizes(rng, 6, 3)
        spec = GridSpec(n=int(rng.choice((1, 2))), J=len(sizes), layer_sizes=sizes)
        layers = [np.zeros(m) for m in sizes]
        j = int(rng.integers(0, len(sizes)))
        i = int(rng.integers(0, sizes[j]))
        c = layers[j][i] = float(rng.uniform(0.2, 3.0))
        idx0, idx1 = _rand_couple(rng, route)
        w0, w1 = layer_weight(spec, idx0, j), layer_weight(spec, idx1, j)
        got = k_plan(CoeffField(spec, layers), InterpQuery(idx0, idx1)).k(ts)
        exact = c * np.minimum(w0, ts * w1)
        worst = max(worst, float((np.abs(got - exact) / exact).max()))
    return worst


def _form_ratios(field, query) -> tuple[KPlan, np.ndarray]:
    """The query's plan, and its K over the vertex oracle of the plan's own
    form (max: xi = inf, else 1) across the shared t grid, where the
    oracle is not 0."""
    plan = k_plan(field, query)
    xi = math.inf if plan.form == "max" else 1.0
    oracle = vertex_tables(field, query.idx0, query.idx1).curve(_T_GRID, xi)
    live = oracle != 0.0
    return plan, plan.k(_T_GRID)[live] / oracle[live]


# ---------------------------------------------------------------------------


@_suite("axioms", seed=101, size=500)
def run_axioms(rng, count: int) -> list[dict]:
    """Exact oracle axioms: commutation, homogeneity, monotonicity in t
    and in |f|, K/t antitonicity, and the xi sandwich, at 1e-9 relative."""
    worst = {k: 0.0 for k in (
        "commutativity", "homogeneity", "t-monotone", "k-over-t-antitone",
        "coordinate-monotone", "sandwich")}
    scale = 2.375
    for _ in range(count):
        field = _rand_field(rng)
        idx0 = _rand_index(rng)
        idx1 = _rand_index(rng)
        tabs = vertex_tables(field, idx0, idx1)
        swap = vertex_tables(field, idx1, idx0)
        scaled = vertex_tables(field.scaled(scale), idx0, idx1)
        bumped_layers = [v.copy() for v in field.layers]
        bj = int(rng.integers(0, field.spec.J))
        bi = int(rng.integers(0, len(bumped_layers[bj])))
        bumped_layers[bj][bi] += 0.5 * (1.0 + bumped_layers[bj][bi])
        bumped = vertex_tables(
            CoeffField(field.spec, bumped_layers), idx0, idx1)
        ts = 2.0 ** rng.uniform(-8.0, 8.0, size=3)
        k1, k2, kinf = (tabs.curve(ts, xi) for xi in (1.0, 2.0, math.inf))
        ref, ref2, refinf = (np.maximum(k, 1e-300) for k in (k1, k2, kinf))
        found = {
            "commutativity": [np.abs(k1 - ts * swap.curve(1.0 / ts, 1.0)) / ref,
                              np.abs(kinf - ts * swap.curve(1.0 / ts, math.inf)) / refinf],
            "homogeneity": [np.abs(scaled.curve(ts, 1.0) - scale * k1) / (scale * ref)],
            "coordinate-monotone": [(k1 - bumped.curve(ts, 1.0)) / ref],
            "sandwich": [(kinf - k2) / ref2, (k2 - k1) / ref,
                         (k1 - math.sqrt(2.0) * k2) / ref, (k1 - 2.0 * kinf) / ref],
        }
        for name, errs in found.items():
            worst[name] = max(worst[name], float(np.max(errs)))
        ts = np.sort(2.0 ** rng.uniform(-10.0, 10.0, size=6))
        ks = tabs.curve(ts, 1.0)
        kref = max(float(ks.max()), 1e-300)
        worst["t-monotone"] = max(worst["t-monotone"],
                                  float(-(np.diff(ks)).min()) / kref)
        ratios = ks / ts
        rref = max(float(ratios.max()), 1e-300)
        worst["k-over-t-antitone"] = max(worst["k-over-t-antitone"],
                                         float(np.diff(ratios).max()) / rref)
    return [_check(name, w, 1e-9) for name, w in worst.items()]


@_suite("vertex-band", seed=102, size=200)
def run_vertex_band(rng, count: int) -> list[dict]:
    """Convex-regime band: continuous box minimum <= vertex minimum
    <= 2 * continuous minimum."""
    worst_upper = 0.0   # cont <= vert  (relative excess)
    worst_factor = 0.0  # vert <= 2*cont + 1e-9  (as a ratio to the bound)
    for _ in range(count):
        field = _rand_field(rng)
        idx0 = _rand_index(rng, p_pool=_CONVEX_POOL, q_pool=_CONVEX_POOL)
        idx1 = _rand_index(rng, p_pool=_CONVEX_POOL, q_pool=_CONVEX_POOL)
        tabs = vertex_tables(field, idx0, idx1)
        for t in 2.0 ** rng.uniform(-6.0, 6.0, size=2):
            t = float(t)
            cont = k_cuboid_continuous(field, idx0, idx1, t)
            vert = tabs.k(t, 1.0)
            worst_upper = max(worst_upper, (cont - vert) / max(vert, 1e-300))
            worst_factor = max(worst_factor, vert / (2.0 * cont + 1e-9))
    return [_check("continuous-below-vertex", worst_upper, 1e-9),
            _check("vertex-within-factor-two", worst_factor, 1.0)]


@_suite("p-equal", seed=103, size=300)
def run_p_equal(rng, count: int) -> list[dict]:
    """Shared-p routes against the vertex oracle, a third of the count
    per subcase, plus the exact decoupled check for the q = 1 split sum."""
    worst = {"weighted-split-band": 0.0, "composed-split-band": 0.0,
             "rearrangement-band": 0.0, "q1-decoupled-exact": 0.0}
    for route in ("weighted-split", "composed-split", "rearrangement"):
        for i in range(count // 3):
            field = _rand_field(rng, j_max=4)
            idx0, idx1 = _rand_couple(rng, route)
            if route == "weighted-split" and i % 3 == 0:
                idx0 = BesovIndex(idx0.s, idx0.p, 1.0)
                idx1 = BesovIndex(idx1.s, idx1.p, 1.0)
            plan, ratios = _form_ratios(field, InterpQuery(idx0, idx1))
            key = f"{route}-band"
            worst[key] = max(worst[key], _band(ratios))
            if route == "weighted-split" and idx0.q == 1.0:
                n = field.spec.n
                a = main_grid_reduce(field, idx0.p)
                sa, sb = idx0.weight_exponent(n), idx1.weight_exponent(n)
                js = np.arange(len(a))
                ts = (0.125, 1.0, 7.3)
                for t, got in zip(ts, plan.k(ts).tolist()):
                    exact = float(np.sum(np.minimum(2.0 ** (js * sa),
                                                    t * 2.0 ** (js * sb)) * a))
                    if exact > 0:
                        worst["q1-decoupled-exact"] = max(
                            worst["q1-decoupled-exact"],
                            abs(got - exact) / exact)
    return [_check("weighted-split-band", worst["weighted-split-band"], 8.0),
            _check("composed-split-band", worst["composed-split-band"], 8.0),
            _check("rearrangement-band", worst["rearrangement-band"], 8.0),
            _check("q1-decoupled-exact", worst["q1-decoupled-exact"], 1e-9)]


@_suite("q-equal", seed=104, size=100)
def run_q_equal(rng, count: int) -> list[dict]:
    """Shared-q layer-sum route against the vertex oracle, plus exact
    single-coefficient collapse."""
    worst_band = 0.0
    for _ in range(count):
        field = _rand_field(rng)
        _, ratios = _form_ratios(field, InterpQuery(*_rand_couple(rng, "layer-sum")))
        worst_band = max(worst_band, _band(ratios))
    worst_single = _single_worst(rng, "layer-sum", 20, np.array([0.03125, 1.0, 19.7]))
    return [_check("layer-sum-band", worst_band, 8.0),
            _check("single-coefficient-exact", worst_single, 1e-9)]


@_suite("general", seed=105, size=50)
def run_general(rng, count: int) -> list[dict]:
    """Power-composition route against the vertex oracle of its (max)
    form: band, per-instance spread, and single-coefficient collapse."""
    worst_band = 0.0
    worst_spread = 0.0
    for _ in range(count):
        field = _rand_field(rng, max_total=10)
        _, ratios = _form_ratios(field, InterpQuery(*_rand_couple(rng, "general")))
        if len(ratios):
            worst_band = max(worst_band, _band(ratios))
            worst_spread = max(worst_spread, float(ratios.max() / ratios.min()))
    worst_single = _single_worst(rng, "general", 10, np.array([0.0625, 1.0, 11.3]))
    return [_check("composition-band", worst_band, 16.0),
            _check("ratio-spread", worst_spread, 16.0),
            _check("single-coefficient-collapse", worst_single, 1e-6)]


@_suite("identities", seed=106, size=100)
def run_identities(rng, count: int) -> list[dict]:
    """Interpolation-norm identities: the exact single-coefficient
    closed form, the intermediate-space ratio spread, oracle-method
    swap symmetry, homogeneity, and the reiteration ratio spread."""
    # 4c closed form: K(t) = c*min(1,t), theta=1/2, r=1
    c = 1.3
    single = CoeffField(GridSpec(n=1, J=1, layer_sizes=(1,)), [np.array([c])])
    idx = BesovIndex(0.0, 2.0, 2.0)
    q_single = InterpQuery(idx, idx, theta=0.5, r=1.0)
    got = interp_norm(single, q_single)
    worst_4c = abs(got - 4.0 * c) / (4.0 * c)

    # identity ratio spread over random fields (J <= 8, layer sizes up
    # to 16), shared-p couple
    idx0 = BesovIndex(1.0, 1.5, 1.0)
    idx1 = BesovIndex(-1.0, 1.5, 1.0)
    q_id = InterpQuery(idx0, idx1, theta=0.4, r=2.0)
    ratios = []
    for _ in range(count):
        sizes = tuple(int(m) for m in rng.integers(1, 17, size=rng.integers(1, 9)))
        layers = [rng.uniform(0.0, 2.0, size=m) for m in sizes]
        if not any(v.any() for v in layers):
            layers[0][0] = 1.0
        field = CoeffField(GridSpec(n=1, J=len(sizes), layer_sizes=sizes), layers)
        ratios.append(besov_identity_check(field, q_id))
    spread = max(ratios) / min(ratios)

    # oracle-method swap symmetry
    field = _rand_field(rng, max_total=8, j_max=2, zero_prob=0.0)
    q_swap = InterpQuery(BesovIndex(0.7, 1.0, 1.5), BesovIndex(-0.4, 2.5, 0.8),
                         theta=0.3, r=1.7)
    v_fwd = interp_norm(field, q_swap, method="oracle")
    v_bwd = interp_norm(field, q_swap.swapped(), method="oracle")
    worst_swap = abs(v_fwd - v_bwd) / v_fwd

    # homogeneity of the interpolation norm
    scaled = interp_norm(field.scaled(3.0), q_swap, method="oracle")
    worst_hom = abs(scaled - 3.0 * v_fwd) / (3.0 * v_fwd)

    # reiteration ratio spread on weighted sequences
    re_ratios = []
    for _ in range(30):
        J = int(rng.integers(2, 7))
        a = rng.uniform(0.1, 2.0, size=J)
        rep = reiteration_check(a, s_a=-1.0, s_b=1.5, theta0=0.25,
                                theta1=0.75, eta=0.5, qs=(1.0, 1.0, 2.0))
        re_ratios.append(rep["ratio"])
    re_spread = max(re_ratios) / min(re_ratios)

    return [_check("single-coefficient-4c", worst_4c, 1e-4),
            _check("identity-ratio-spread", spread, 32.0),
            _check("oracle-swap-symmetry", worst_swap, 1e-6),
            _check("interp-homogeneity", worst_hom, 1e-9),
            _check("reiteration-spread", re_spread, 32.0)]


@_suite("endpoints", seed=107, size=100)
def run_endpoints(rng, count: int) -> list[dict]:
    """Every formula route recovers ||f||_A0 at t = 2^40 and
    ||f||_A1 from K(t)/t at t = 2^-40, to 1e-6 relative."""
    routes = tuple(_COUPLES)
    worst = 0.0
    for i in range(count):
        field = _rand_field(rng, max_total=8, j_max=4, zero_prob=0.1)
        idx0, idx1 = _rand_couple(rng, routes[i % len(routes)])
        n0 = besov_norm(field, idx0)
        n1 = besov_norm(field, idx1)
        hi, lo = k_plan(field, InterpQuery(idx0, idx1)).k([2.0**40, 2.0**-40])
        worst = max(worst, abs(hi - n0) / n0, abs(lo * 2.0**40 - n1) / n1)
    return [_check("endpoint-recovery", worst, 1e-6)]


def run_suite(name: str, seed: int | None = None) -> dict:
    """Run a named suite; seed overrides the suite default."""
    if name not in SUITES:
        raise UsageError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    return SUITES[name]() if seed is None else SUITES[name](seed=seed)
