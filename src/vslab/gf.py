"""Arithmetic in GF(p^k) for odd primes p.

Field elements are plain ints in [0, q): the element with base-p digit
vector (c_0, ..., c_{k-1}) has index sum(c_i * p**i).  Index 0 is the
additive identity and index 1 the multiplicative identity, so prime
fields coincide with integers-mod-p.  A GF instance carries the tables;
elements travel as bare ints, like the polynomial layers above expect.

Each field kind has one arithmetic route: a prime field reduces plain
ints mod p, and an extension field, refused past q = TABLE_LIMIT,
multiplies, inverts and raises to powers off exp/log tables with respect
to a fixed generator: the first element, in index order, of order q - 1.
Tables are immutable after construction, so a GF instance is safe to
share across worker processes.

The q x q numpy tables of the enumeration engine (add_table, mul_table)
are built on first use, and numpy is imported there: the scalar
arithmetic, which the oracles and the appendix checks use, loads no numpy.

The row operations (horner_steps, scale_row, sub_scaled_row) apply one
scalar operation along a whole row and test the field type once per row:
over a prime field they reduce plain ints mod p, over an extension they
are the per-element add, mul and sub.
"""

from __future__ import annotations

import functools

from .errors import BrokenInvariant, InvalidParameter

TABLE_LIMIT = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _digits(n, p, k):
    """The k base-p digits of n, low-to-high."""
    out = []
    for _ in range(k):
        n, c = divmod(n, p)
        out.append(c)
    return out


def _reduce(f, modulus, p):
    """f mod the monic modulus over F_p, both low-to-high, as a residue
    vector of len(modulus) - 1 entries; f's entries lie in [0, p)."""
    k = len(modulus) - 1
    r = list(f)
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i]
        if c:
            for j in range(k):
                r[i - k + j] = (r[i - k + j] - c * modulus[j]) % p
    return r[:k] + [0] * (k - len(r))


def _poly_mod_mul(a, b, modulus, p):
    """Multiply two residue vectors mod the monic modulus, over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _reduce(prod, modulus, p)


def _is_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= k//2."""
    k = len(coeffs) - 1
    return all(
        any(_reduce(coeffs, _digits(idx, p, deg) + [1], p))
        for deg in range(1, k // 2 + 1)
        for idx in range(p**deg)
    )


class GF:
    """The field F_q = F_{p^k}, q = p**k, with precomputed tables."""

    def __init__(self, p: int, k: int, modulus=None):
        if p == 2 or not is_prime(p):
            raise InvalidParameter(f"p must be an odd prime, got {p}")
        if k < 1:
            raise InvalidParameter(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.q = p**k
        if k > 1 and self.q > TABLE_LIMIT:
            raise InvalidParameter(
                f"extension field q={self.q} exceeds table limit {TABLE_LIMIT}"
            )
        if modulus is None:
            modulus = self._search_modulus(p, k)
        else:
            modulus = list(modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise InvalidParameter(
                    f"modulus must be monic of degree {k}, got {modulus}"
                )
            modulus = [c % p for c in modulus[:-1]] + [1]
            if not _is_irreducible(modulus, p):
                raise InvalidParameter(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = tuple(modulus)
        # serialized form "p^k/modulus-coefficients", low-to-high; it is the
        # field's identity, so hashing and equality read it on every call
        self.descriptor = f"{p}^{k}/" + ",".join(str(c) for c in self.modulus)
        if k > 1:
            self._build_log_tables()
        self._np_add = None
        self._np_mul = None

    @staticmethod
    def _search_modulus(p, k):
        # Deterministic: lowest canonical index of the non-leading part wins.
        for idx in range(p**k):
            coeffs = _digits(idx, p, k) + [1]
            if _is_irreducible(coeffs, p):
                return coeffs
        raise InvalidParameter(f"no irreducible monic of degree {k} over F_{p}")

    # -- element codec -------------------------------------------------

    def coeffs(self, x: int):
        """Base-p digit vector of the element with index x."""
        return tuple(_digits(x, self.p, self.k))

    def element(self, coeffs) -> int:
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * self.p + (c % self.p)
        return idx

    def elements(self):
        """All q elements in canonical-index order (0 first)."""
        return range(self.q)

    def embed_int(self, n: int) -> int:
        """Image of the rational integer n in the prime subfield."""
        return n % self.p

    # -- tables ----------------------------------------------------------

    def _build_log_tables(self):
        # the generator is the first candidate whose walk of powers from 1
        # has q - 1 steps; that walk is the exp table
        p, k, q = self.p, self.k, self.q
        one = _digits(1, p, k)
        for cand in range(1, q):
            gen = _digits(cand, p, k)
            exp, acc = [1], gen
            while acc != one:
                exp.append(self.element(acc))
                acc = _poly_mod_mul(acc, gen, self.modulus, p)
            if len(exp) == q - 1:
                break
        else:
            raise BrokenInvariant("F_q* is cyclic, yet no generator was found")
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp = exp
        self._log = log

    # -- scalar arithmetic ------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x + y) % self.p
        p = self.p
        idx, mult = 0, 1
        while x or y:
            x, cx = divmod(x, p)
            y, cy = divmod(y, p)
            idx += ((cx + cy) % p) * mult
            mult *= p
        return idx

    def neg(self, x: int) -> int:
        if self.k == 1:
            return (-x) % self.p
        p = self.p
        idx, mult = 0, 1
        while x:
            x, c = divmod(x, p)
            idx += (-c % p) * mult
            mult *= p
        return idx

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise InvalidParameter("inverse of 0")
        if self.k == 1:
            return pow(x, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[x]) % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        if y == 0:
            raise InvalidParameter("division by 0")
        return self.mul(x, self.inv(y))

    def pow(self, x: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(x), -n)
        if self.k == 1:
            return pow(x, n, self.p)
        if x == 0:
            return 0 if n else 1
        return self._exp[(self._log[x] * n) % (self.q - 1)]

    # -- row operations ---------------------------------------------------

    def horner_steps(self, g, t: int) -> list:
        """Horner's partial sums of g (high-to-low) at t.  The last is g(t);
        the others are the quotient of g - g(t) by T - t, high-to-low."""
        out = []
        acc = 0
        if self.k == 1:
            p = self.p
            for c in g:
                acc = (acc * t + c) % p
                out.append(acc)
            return out
        add, mul = self.add, self.mul
        for c in g:
            acc = add(mul(acc, t), c)
            out.append(acc)
        return out

    def scale_row(self, c: int, ys) -> list:
        """[c*y for y in ys]."""
        if self.k == 1:
            p = self.p
            return [c * y % p for y in ys]
        mul = self.mul
        return [mul(c, y) for y in ys]

    def sub_scaled_row(self, xs, c: int, ys) -> list:
        """[x - c*y for x, y in zip(xs, ys)]."""
        if self.k == 1:
            p = self.p
            return [(x - c * y) % p for x, y in zip(xs, ys)]
        sub, mul = self.sub, self.mul
        return [sub(x, mul(c, y)) for x, y in zip(xs, ys)]

    # -- numpy tables for the enumeration engine ---------------------------

    def add_table(self):
        """Full q*q addition table, an int32 numpy array; built lazily,
        q <= TABLE_LIMIT."""
        if self._np_add is None:
            import numpy as np

            if self.q > TABLE_LIMIT:
                raise InvalidParameter(f"q={self.q} exceeds table limit {TABLE_LIMIT}")
            q, p, k = self.q, self.p, self.k
            if k == 1:  # in place, in int32: no q*q int64 temporaries
                i = np.arange(q, dtype=np.int32)
                table = i[:, None] + i
                self._np_add = np.remainder(table, p, out=table)
            else:
                digits = np.array([_digits(x, p, k) for x in range(q)], dtype=np.int64)
                out = np.empty((q, q), dtype=np.int32)
                weights = p ** np.arange(k, dtype=np.int64)
                for row in range(q):
                    s = (digits[row][None, :] + digits) % p
                    out[row] = (s @ weights).astype(np.int32)
                self._np_add = out
        return self._np_add

    def mul_table(self):
        """Full q*q multiplication table, an int32 numpy array; built lazily,
        q <= TABLE_LIMIT."""
        if self._np_mul is None:
            import numpy as np

            if self.q > TABLE_LIMIT:
                raise InvalidParameter(f"q={self.q} exceeds table limit {TABLE_LIMIT}")
            q = self.q
            if self.k == 1:  # int32 is exact: (q-1)^2 < 2^31 for q <= TABLE_LIMIT
                i = np.arange(q, dtype=np.int32)
                table = i[:, None] * i
                self._np_mul = np.remainder(table, self.p, out=table)
            else:
                exp = np.array(self._exp, dtype=np.int64)
                log = np.array(self._log, dtype=np.int64)
                out = np.zeros((q, q), dtype=np.int32)
                nz = np.arange(1, q, dtype=np.int64)
                for row in range(1, q):
                    out[row, 1:] = exp[(log[row] + log[nz]) % (q - 1)]
                self._np_mul = out
        return self._np_mul

    # -- identity ---------------------------------------------------------

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return isinstance(other, GF) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)


@functools.lru_cache(maxsize=None)
def _cached_field(p, k, modulus_key):
    return GF(p, k, None if modulus_key is None else list(modulus_key))


def make_field(p: int, k: int = 1, modulus=None) -> GF:
    """Validated field constructor; instances are interned per descriptor."""
    key = None if modulus is None else tuple(int(c) for c in modulus)
    return _cached_field(p, k, key)


def parse_descriptor(text: str) -> GF:
    """Parse "p^k" or "p^k/c0,c1,...,ck" into a field."""
    head, _, tail = text.partition("/")
    try:
        if "^" in head:
            p_str, _, k_str = head.partition("^")
            p, k = int(p_str), int(k_str)
        else:
            p, k = int(head), 1
        modulus = [int(c) for c in tail.split(",")] if tail else None
    except ValueError:
        raise InvalidParameter(f"malformed field descriptor {text!r}") from None
    return make_field(p, k, modulus)
