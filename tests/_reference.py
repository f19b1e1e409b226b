"""An exact reference for the vertex oracle, in 40-digit decimal arithmetic.

K_xi(t) = min over splits S of (||f 1_S||_A0^xi + t^xi ||f 1_Sc||_A1^xi)^(1/xi),
each side the weighted l^q(l^p) norm (sum_j (w_j ||f_j 1_S||_p)^q)^(1/q),
w_j = 2^(j (s + n/2 - n/p)), a sup at p or q = inf, and the two terms' max
at xi = inf.  Every float enters exactly (Decimal(float) is exact) and every
operation is rounded once to 40 digits, so the reference is good to far
below a double's ulp; stdlib only, with no dependency that the package
does not declare.
"""

import math
from decimal import Decimal, localcontext

_DIGITS = 40


def _exp(e: float) -> Decimal | None:
    """A finite exponent as a Decimal, inf as None."""
    return None if math.isinf(e) else Decimal(e)


def _norm(xs, e) -> Decimal:
    """The l^e norm of nonnegative Decimals, the max at e = None."""
    if e is None:
        return max(xs, default=Decimal(0))
    return sum((x**e for x in xs), Decimal(0)) ** (1 / e)


def side_norms(field, idx) -> list[Decimal]:
    """||f 1_S||_A over every mask S, bit k of S selecting flat coefficient
    k (layers concatenated in order), as the vertex oracle indexes them."""
    n, flat, layer = field.spec.n, [], []
    for j, v in enumerate(field.layers):
        flat += [Decimal(float(x)) for x in v]
        layer += [j] * len(v)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        p, q = _exp(idx.p), _exp(idx.q)
        w = [Decimal(2) ** (j * (Decimal(idx.s) + Decimal(n) / 2 - (0 if p is None else n / p)))
             for j in range(field.spec.J)]
        out = []
        for mask in range(1 << len(flat)):
            kept = [[x for k, x in enumerate(flat) if layer[k] == j and mask >> k & 1]
                    for j in range(field.spec.J)]
            out.append(_norm([w[j] * _norm(xs, p) for j, xs in enumerate(kept)], q))
    return out


def k_vertex(a: list[Decimal], b: list[Decimal], t: float, xi: float) -> Decimal:
    """K_xi(t) from the side norms a of A0 and b of A1 over every mask
    (side_norms): the complement of mask S is the reversed index."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        t, e = Decimal(t), _exp(xi)
        pairs = zip(a, reversed(b))
        if e is None:
            return min(max(x, t * y) for x, y in pairs)
        # x -> x^(1/xi) is increasing, so the root is taken of the least sum
        return min(x**e + (t * y) ** e for x, y in pairs) ** (1 / e)


def k_reference(field, idx0, idx1, t: float, xi: float = 1.0) -> Decimal:
    """K_xi(t) of field between the Besov spaces of idx0 and idx1."""
    return k_vertex(side_norms(field, idx0), side_norms(field, idx1), t, xi)

