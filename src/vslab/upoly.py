"""Univariate polynomial algebra over a GF instance.

Polynomials are tuples of element indices, low-to-high, with no trailing
zeros; the zero polynomial is the empty tuple () and never takes part in
degree arithmetic.  All functions receive the field explicitly, in the
style of the element-as-int representation.

Beyond the ring basics this module provides exactly the machinery the
counting layers need: exact root multiplicities, confluent Newton
coefficients by iterated synthetic division (characteristic-free, no
factorials), Sylvester resultants, the order-1 principal subresultant,
and the discriminant.  The Sylvester layouts are mpoly.sylvester_rows,
shared with the symbolic resultant; the determinants here are numeric,
by Gaussian elimination over the field, a second route to mpoly's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter
from .gf import GF

ZERO = ()


def trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(gf: GF, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(gf.add(a, b))
    return trim(out)


def poly_neg(gf: GF, f):
    return tuple(gf.neg(c) for c in f)


def poly_sub(gf: GF, f, g):
    return poly_add(gf, f, poly_neg(gf, g))


def poly_scale(gf: GF, f, c):
    if c == 0:
        return ZERO
    return tuple(gf.scale_row(c, f))


def poly_mul(gf: GF, f, g):
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = gf.add(out[i + j], gf.mul(a, b))
    return trim(out)


def poly_divmod(gf: GF, f, g):
    """Quotient and remainder of f by nonzero g."""
    if not g:
        raise InvalidParameter("division by the zero polynomial")
    r = list(f)
    dg = len(g) - 1
    lead_inv = gf.inv(g[-1])
    quot = [0] * max(len(f) - dg, 0)
    while len(r) - 1 >= dg and r:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        c = gf.mul(r[-1], lead_inv)
        off = len(r) - 1 - dg
        quot[off] = c
        r[off:] = gf.sub_scaled_row(r[off:], c, g)
    return trim(quot), trim(r)


def poly_gcd(gf: GF, f, g):
    """Monic greatest common divisor."""
    a, b = trim(f), trim(g)
    while b:
        a, b = b, poly_divmod(gf, a, b)[1]
    if a:
        a = poly_scale(gf, a, gf.inv(a[-1]))
    return a


def derivative(gf: GF, f):
    return trim(gf.mul(gf.embed_int(i), c) for i, c in enumerate(f) if i)


def eval_at(gf: GF, f, t: int) -> int:
    steps = gf.horner_steps(reversed(f), t)
    return steps[-1] if steps else 0


def batch_eval(gf: GF, f):
    """Values of f on every field element, in canonical element order."""
    return [eval_at(gf, f, t) for t in gf.elements()]


@dataclass(frozen=True)
class RootProfile:
    """F_q-roots of a polynomial with their exact multiplicities."""

    multiplicities: dict
    distinct_count: int
    total_multiplicity: int


def synthetic_quotient(gf: GF, f, alpha: int):
    """Quotient of f by (T - alpha), assuming f(alpha) = 0."""
    # Horner's partial sums of f's top len(f) - 1 coefficients, high-to-low
    return trim(gf.horner_steps(f[:0:-1], alpha)[::-1])


def root_multiplicity(gf: GF, f, alpha: int) -> int:
    """Largest e with (T - alpha)^e dividing f, by repeated division."""
    if not f:
        raise InvalidParameter("multiplicity in the zero polynomial")
    e = 0
    while f and eval_at(gf, f, alpha) == 0:
        f = synthetic_quotient(gf, f, alpha)
        e += 1
    return e


def root_profile(gf: GF, f) -> RootProfile:
    if not f:
        raise InvalidParameter("root profile of the zero polynomial")
    mults = {}
    g = f
    for t in gf.elements():
        if eval_at(gf, g, t) == 0:
            e = 1
            g = synthetic_quotient(gf, g, t)
            while g and eval_at(gf, g, t) == 0:
                g = synthetic_quotient(gf, g, t)
                e += 1
            mults[t] = e
        if not g or len(g) == 1:
            break
    return RootProfile(mults, len(mults), sum(mults.values()))


def newton_coeffs(gf: GF, f, nodes):
    """Divided-difference coefficients c_i of f at the node tuple.

    c_i is the (i-1)-st divided difference of f at (nodes[0..i-1]),
    confluent nodes included, computed by iterated synthetic division:
    g_0 = f, c_i = g_{i-1}(node_i), g_i = (g_{i-1} - c_i) / (T - node_i).
    """
    cs = []
    g = trim(f)
    for t in nodes:
        c = eval_at(gf, g, t)
        cs.append(c)
        if g:
            h = list(g)
            h[0] = gf.sub(h[0], c)
            g = synthetic_quotient(gf, trim(h), t) if trim(h) else ZERO
        else:
            g = ZERO
    return tuple(cs)


def divides_at_nodes(gf: GF, f, nodes) -> bool:
    """True iff prod(T - node) divides f with multiplicity."""
    return all(c == 0 for c in newton_coeffs(gf, f, nodes))


def _det_gauss(gf: GF, m) -> int:
    """Determinant over F_q by in-place Gaussian elimination."""
    n = len(m)
    m = [row[:] for row in m]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = gf.neg(det)
        det = gf.mul(det, m[col][col])
        inv = gf.inv(m[col][col])
        for r in range(col + 1, n):
            if m[r][col]:
                factor = gf.mul(m[r][col], inv)
                m[r][col:] = gf.sub_scaled_row(m[r][col:], factor, m[col][col:])
    return det


def resultant(gf: GF, f, g) -> int:
    """Sylvester-determinant resultant; zero iff deg gcd(f, g) >= 1."""
    from .mpoly import sylvester_rows  # the counting oracles never load mpoly

    f, g = trim(f), trim(g)
    if not f or not g:
        raise InvalidParameter("resultant needs nonzero polynomials")
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return gf.pow(f[0], n)
    if n == 0:
        return gf.pow(g[0], m)
    return _det_gauss(gf, sylvester_rows(f, g))


def subres1(gf: GF, f, g) -> int:
    """Order-1 principal subresultant coefficient of (f, g).

    Contract: resultant = subres1 = 0 exactly when deg gcd(f, g) >= 2.
    """
    from .mpoly import sylvester_rows

    f, g = trim(f), trim(g)
    if not f or not g:
        raise InvalidParameter("subresultant needs nonzero polynomials")
    m, n = len(f) - 1, len(g) - 1
    if m == 0 or n == 0 or m + n == 2:
        return 1
    return _det_gauss(gf, sylvester_rows(f, g, order=1))


def discriminant(gf: GF, f) -> int:
    """(-1)^(d(d-1)/2) * Res(f, f') for monic f of degree d >= 2."""
    f = trim(f)
    if not f or f[-1] != 1:
        raise InvalidParameter("discriminant is defined for monic polynomials only")
    d = len(f) - 1
    if d < 2:
        raise InvalidParameter("discriminant needs degree >= 2")
    fp = derivative(gf, f)
    if not fp:
        return 0
    res = resultant(gf, f, fp)
    if (d * (d - 1) // 2) % 2:
        res = gf.neg(res)
    return res
