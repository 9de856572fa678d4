"""Finite-field arithmetic and brute-force family moments for the checks.

Written apart from vslab on purpose: the benchmark recomputes what it
checks with its own tables, so a fault in vslab's arithmetic cannot
cancel out.  Elements are canonical indices sum c_i p^i, the convention
vslab documents; a field is fixed by its monic modulus (low-to-high).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np


def _has_root(coeffs, p):
    return any(
        sum(c * pow(t, i, p) for i, c in enumerate(coeffs)) % p == 0
        for t in range(p)
    )


def irreducible_moduli(p, k):
    """Monic irreducible polynomials of degree k over F_p, by canonical index.

    For k <= 3 a polynomial is irreducible exactly when it has no root
    in F_p, which is all this benchmark needs.
    """
    if k > 3:
        raise ValueError("the root test decides irreducibility only for k <= 3")
    out = []
    for idx in range(p**k):
        coeffs = [(idx // p**i) % p for i in range(k)] + [1]
        if k == 1 or not _has_root(coeffs, p):
            out.append(tuple(coeffs))
    return out


def default_modulus(p, k):
    """The modulus vslab documents for a bare "p^k": the lowest index wins."""
    return irreducible_moduli(p, k)[0]


class Field:
    """F_q from a modulus, with full q x q addition and multiplication tables."""

    def __init__(self, p, k, modulus):
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree {k}")
        self.p, self.k, self.q = p, k, p**k
        self.modulus = tuple(modulus)
        digits = [[(x // p**i) % p for i in range(k)] for x in range(self.q)]
        weights = [p**i for i in range(k)]

        def index(vec):
            return sum(c * w for c, w in zip(vec, weights))

        def times(u, v):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    prod[i + j] += x * y
            for top in range(2 * k - 2, k - 1, -1):
                c = prod[top] % p
                if c:
                    for i in range(k + 1):
                        prod[top - k + i] -= c * modulus[i]
            return [c % p for c in prod[:k]]

        q = self.q
        self.add = np.array(
            [[index([(x + y) % p for x, y in zip(digits[u], digits[v])])
              for v in range(q)] for u in range(q)],
            dtype=np.int64,
        )
        self.mul = np.array(
            [[index(times(digits[u], digits[v])) for v in range(q)]
             for u in range(q)],
            dtype=np.int64,
        )

    @property
    def descriptor(self):
        """The "p^k/c0,...,ck" text vslab parses and echoes."""
        return f"{self.p}^{self.k}/" + ",".join(str(c) for c in self.modulus)


def mu(d):
    """sum_{r=1}^{d} (-1)^(r-1) / r!."""
    return sum(Fraction((-1) ** (r - 1), factorial(r)) for r in range(1, d + 1))


def cohen_mean(q, d):
    """sum_{r=1}^{d} (-1)^(r-1) C(q,r) q^(1-r): the mean over all monic f, f(0)=0."""
    return sum(
        Fraction((-1) ** (r - 1) * comb(q, r), q ** (r - 1)) for r in range(1, d + 1)
    )


def family_moments(field, d, s, a):
    """Exact (mean, second moment) of |f_b(F_q)| over every free vector b.

    f_b = T^d + a_{d-1} T^{d-1} + ... + a_{d-s} T^{d-s} + b_{d-s-1} T^{d-s-1}
    + ... + b_1 T, with a = (a_{d-1}, ..., a_{d-s}).
    """
    q = field.q
    n_free = d - s - 1
    n_b = q**n_free
    rest = np.arange(n_b, dtype=np.int64)
    free = []
    for _ in range(n_free):
        rest, digit = np.divmod(rest, q)
        free.append(digit[:, None])
    t = np.arange(q, dtype=np.int64)[None, :]
    acc = np.ones((n_b, q), dtype=np.int64)
    for c in list(a) + free + [0]:  # Horner, highest degree first
        acc = field.add[field.mul[acc, t], c]
    acc.sort(axis=1)
    sizes = 1 + (np.diff(acc, axis=1) != 0).sum(axis=1)
    sum_v = int(sizes.sum())
    sum_v2 = int((sizes * sizes).sum())
    return Fraction(sum_v, n_b), Fraction(sum_v2, n_b)
