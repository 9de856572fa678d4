"""Sparse multivariate polynomials over a prime field F_p.

Terms live in a dict mapping exponent tuples to nonzero residues.  The
coefficient field is always the prime field: the symbolic identities
verified downstream (discriminants, subresultant terms) all have
integer coefficients, and comparisons up to a nonzero scalar are
insensitive to base-field extension.

Polynomials in one extra variable T with MultiPoly coefficients are
plain tuples (low-to-high).  Their resultants and first subresultants
come from the Sylvester construction, with determinants evaluated by
fraction-free Bareiss elimination (exact divisions asserted).
sylvester_rows is the one builder of the Sylvester layouts: upoly's
numeric resultant reads its rows too.  Cofactor expansion (det_minors)
is kept as the independent route Bareiss is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter


class MultiPoly:
    """Polynomial in named variables over F_p, stored sparsely."""

    __slots__ = ("p", "names", "terms")

    def __init__(self, p, names, terms=None):
        self.p = p
        self.names = tuple(names)
        clean = {}
        if terms:
            for expo, c in terms.items():
                c %= p
                if c:
                    clean[tuple(expo)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, p, names, c):
        return cls(p, names, {(0,) * len(names): c})

    @classmethod
    def variable(cls, p, names, name):
        expo = [0] * len(names)
        expo[names.index(name)] = 1
        return cls(p, names, {tuple(expo): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations --------------------------------------------------

    def _check(self, other):
        if self.p != other.p or self.names != other.names:
            raise InvalidParameter("operands live in different polynomial rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = (out.get(expo, 0) + c) % self.p
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        return MultiPoly(self.p, self.names, out)

    def __neg__(self):
        return MultiPoly(
            self.p, self.names, {e: self.p - c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                s = (out.get(expo, 0) + c1 * c2) % self.p
                if s:
                    out[expo] = s
                else:
                    out.pop(expo, None)
        return MultiPoly(self.p, self.names, out)

    def scale(self, c):
        c %= self.p
        if c == 0:
            return MultiPoly(self.p, self.names)
        return MultiPoly(
            self.p, self.names, {e: (v * c) % self.p for e, v in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.p == other.p
            and self.names == other.names
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.names, frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------

    def _grlex_key(self, expo):
        return (sum(expo), expo)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        expo = max(self.terms, key=self._grlex_key)
        return expo, self.terms[expo]

    def exact_div(self, other):
        """Exact quotient self / other; InvalidParameter when it is not."""
        self._check(other)
        if other.is_zero():
            raise InvalidParameter("division by the zero polynomial")
        if self.is_zero():
            return MultiPoly(self.p, self.names)
        rem = dict(self.terms)
        quot = {}
        lead_e, lead_c = other.leading()
        lead_inv = pow(lead_c, self.p - 2, self.p)
        while rem:
            r = MultiPoly(self.p, self.names, rem)
            re, rc = r.leading()
            qe = tuple(a - b for a, b in zip(re, lead_e))
            if any(x < 0 for x in qe):
                raise InvalidParameter("leading term not divisible")
            qc = (rc * lead_inv) % self.p
            quot[qe] = qc
            piece = MultiPoly(self.p, self.names, {qe: qc}) * other
            rem = (r - piece).terms
        return MultiPoly(self.p, self.names, quot)

    def degree_in(self, name):
        if self.is_zero():
            return 0
        i = self.names.index(name)
        return max(e[i] for e in self.terms)

    def evaluate(self, gf, point):
        """Value at a point of gf^nvars; gf must have characteristic p."""
        if gf.p != self.p:
            raise InvalidParameter(
                f"a polynomial over F_{self.p} evaluated in F_{gf.q}"
            )
        total = 0
        for expo, c in self.terms.items():
            term = gf.embed_int(c)
            for x, e in zip(point, expo):
                if e:
                    term = gf.mul(term, gf.pow(x, e))
            total = gf.add(total, term)
        return total

    def text(self):
        """Canonical rendering, graded-lex descending term order."""
        if self.is_zero():
            return "0"
        parts = []
        for expo in sorted(self.terms, key=self._grlex_key, reverse=True):
            c = self.terms[expo]
            factors = [str(c)] if (c != 1 or not any(expo)) else []
            for name, e in zip(self.names, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly[{self.text()}]"


@dataclass(frozen=True)
class WeightSystem:
    """One positive integer weight per variable, by position."""

    weights: tuple

    def monomial_weight(self, expo):
        return sum(w * e for w, e in zip(self.weights, expo))


def weight_decompose(f: MultiPoly, w: WeightSystem):
    """Split f into weighted-homogeneous components, keyed by weight."""
    buckets = {}
    for expo, c in f.terms.items():
        buckets.setdefault(w.monomial_weight(expo), {})[expo] = c
    return {
        wt: MultiPoly(f.p, f.names, terms) for wt, terms in sorted(buckets.items())
    }


# -- determinants of MultiPoly matrices ------------------------------------

def det_minors(matrix):
    """Cofactor expansion with memoization on column subsets."""
    n = len(matrix)
    p, names = matrix[0][0].p, matrix[0][0].names
    cache = {}

    def go(row, cols):
        if not cols:
            return MultiPoly.constant(p, names, 1)
        key = cols
        if key in cache:
            return cache[key]
        acc = MultiPoly(p, names)
        for i, col in enumerate(cols):
            entry = matrix[row][col]
            if entry.is_zero():
                continue
            sub = go(row + 1, cols[:i] + cols[i + 1 :])
            piece = entry * sub
            acc = acc + piece if i % 2 == 0 else acc - piece
        cache[key] = acc
        return acc

    return go(0, tuple(range(n)))


def det_bareiss(matrix):
    """Fraction-free Bareiss determinant with term-count pivoting.

    Every interior division is exact in the polynomial ring; a failed
    division indicates a domain bug, so it raises instead of degrading.
    """
    n = len(matrix)
    p, names = matrix[0][0].p, matrix[0][0].names
    m = [row[:] for row in matrix]
    sign = 1
    prev = MultiPoly.constant(p, names, 1)
    for k in range(n - 1):
        cands = [i for i in range(k, n) if not m[i][k].is_zero()]
        if not cands:
            return MultiPoly(p, names)
        piv = min(cands, key=lambda i: len(m[i][k].terms))
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = MultiPoly(p, names)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# -- symbolic Sylvester constructions ---------------------------------------

def _tpoly_trim(f):
    # the twin of upoly.trim, kept so that the appendix command, which
    # works on MultiPoly coefficients alone, never loads upoly
    f = list(f)
    while f and f[-1].is_zero():
        f.pop()
    return f


def sylvester_rows(f, g, zero=0, order=0):
    """Rows of the Sylvester matrix of (f, g), or for order 1 of its
    order-1 principal subresultant minor; f and g are coefficient
    sequences, low-to-high, and a coefficient past either end is zero.

    Order 0 is the standard layout: rows T^(n-1)*f ... T^0*f, then
    T^(m-1)*g ... T^0*g, columns indexed by degree m+n-1 down to 0.
    Order 1 keeps rows T^(n-2)*f ... T^0*f and T^(m-2)*g ... T^0*g, and
    the columns from degree m+n-2 down to 1, skipping the constant one.
    """
    m, n = len(f) - 1, len(g) - 1
    size = m + n - 2 * order
    top = size - 1 + order  # the degree of the first column

    def row(h, shift):  # T^shift * h, by degree from the first column down
        return [h[i] if 0 <= i < len(h) else zero
                for i in range(top - shift, top - shift - size, -1)]

    return [row(f, sh) for sh in range(n - order - 1, -1, -1)] + [
        row(g, sh) for sh in range(m - order - 1, -1, -1)
    ]


def _validate_pair(f, g):
    """(f, g, zero) with both trimmed, and zero their ring's zero."""
    f, g = _tpoly_trim(f), _tpoly_trim(g)
    if len(f) < 2 or len(g) < 2:
        raise InvalidParameter(
            "symbolic resultant needs degree >= 1 in T on both sides"
        )
    return f, g, MultiPoly(f[0].p, f[0].names)


def symbolic_resultant(f, g) -> MultiPoly:
    """Resultant in T of two T-polynomials with MultiPoly coefficients."""
    f, g, zero = _validate_pair(f, g)
    return det_bareiss(sylvester_rows(f, g, zero))


def symbolic_subres1(f, g) -> MultiPoly:
    """Order-1 principal subresultant in T, by the determinant minor."""
    f, g, zero = _validate_pair(f, g)
    if len(f) - 1 + len(g) - 1 == 2:
        return MultiPoly.constant(zero.p, zero.names, 1)
    return det_bareiss(sylvester_rows(f, g, zero, order=1))


def tpoly_derivative(f):
    """Formal d/dT of a T-polynomial with MultiPoly coefficients."""
    f = list(f)
    if len(f) <= 1:
        return []
    return _tpoly_trim([f[i].scale(i) for i in range(1, len(f))])


def tpoly_evaluate(f, gf, point):
    """Specialize the MultiPoly coefficients at a point, as upoly coeffs."""
    from .upoly import trim

    return trim(c.evaluate(gf, point) for c in f)
