"""Arithmetic in GF(p^k) for odd primes p.

Field elements are plain ints in [0, q): the element with base-p digit
vector (c_0, ..., c_{k-1}) has index sum(c_i * p**i).  Index 0 is the
additive identity and index 1 the multiplicative identity, so prime
fields coincide with integers-mod-p.  A GF instance carries the tables;
elements travel as bare ints, like the polynomial layers above expect.

Multiplication and inversion run off exp/log tables with respect to a
fixed generator whenever q <= TABLE_LIMIT; above that every operation
reduces on the fly.  Tables are immutable after construction, so a GF
instance is safe to share across worker processes.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    BrokenInvariant,
    DivisionByZero,
    EvenCharacteristic,
    InvalidParameter,
    ReducibleModulus,
)

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


def _poly_mod_mul(a, b, modulus, p):
    """Multiply two residue vectors mod the monic modulus, over F_p."""
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return prod[:k] + [0] * (k - len(prod))


def _poly_divides(div, f, p):
    """True if monic div divides f over F_p (both low-to-high lists)."""
    r = list(f)
    dn = len(div) - 1
    while len(r) - 1 >= dn:
        c = r[-1]
        if c:
            off = len(r) - 1 - dn
            for j in range(dn + 1):
                r[off + j] = (r[off + j] - c * div[j]) % p
        r.pop()
    return all(c == 0 for c in r)


def _is_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= k//2."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    for deg in range(1, k // 2 + 1):
        for idx in range(p**deg):
            div, n = [], idx
            for _ in range(deg):
                n, c = divmod(n, p)
                div.append(c)
            div.append(1)
            if _poly_divides(div, coeffs, p):
                return False
    return True


class GF:
    """The field F_q = F_{p^k}, q = p**k, with precomputed tables."""

    def __init__(self, p: int, k: int, modulus=None):
        if p == 2 or not is_prime(p):
            raise EvenCharacteristic(f"p must be an odd prime, got {p}")
        if k < 1:
            raise InvalidParameter(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.q = p**k
        if modulus is None:
            modulus = self._search_modulus(p, k)
        else:
            modulus = list(modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {k}, got {modulus}"
                )
            modulus = [c % p for c in modulus[:-1]] + [1]
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = tuple(modulus)
        self._exp = None
        self._log = None
        if self.q <= TABLE_LIMIT:
            self._build_log_tables()
        self._np_add = None
        self._np_mul = None

    @staticmethod
    def _search_modulus(p, k):
        # Deterministic: lowest canonical index of the non-leading part wins.
        for idx in range(p**k):
            coeffs, n = [], idx
            for _ in range(k):
                n, c = divmod(n, p)
                coeffs.append(c)
            coeffs.append(1)
            if _is_irreducible(coeffs, p):
                return coeffs
        raise ReducibleModulus(f"no irreducible monic of degree {k} over F_{p}")

    # -- element codec -------------------------------------------------

    def coeffs(self, x: int):
        """Base-p digit vector of the element with index x."""
        out = []
        for _ in range(self.k):
            x, c = divmod(x, self.p)
            out.append(c)
        return tuple(out)

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
        p, k, q = self.p, self.k, self.q
        order_factors = _prime_factors(q - 1)
        gen = None
        for cand in range(1, q):
            vec = list(self.coeffs(cand))
            if all(
                self._vec_pow(vec, (q - 1) // f) != 1 for f in order_factors
            ):
                gen = vec
                break
        if gen is None:
            raise BrokenInvariant("F_q* is cyclic, yet no generator was found")
        exp = [0] * (q - 1)
        log = [0] * q
        acc = [1] + [0] * (k - 1)
        for i in range(q - 1):
            idx = self.element(acc)
            exp[i] = idx
            log[idx] = i
            acc = _poly_mod_mul(acc, gen, self.modulus, p)
        self._exp = exp
        self._log = log

    def _vec_pow(self, vec, n):
        acc = [1] + [0] * (self.k - 1)
        base = list(vec)
        while n:
            if n & 1:
                acc = _poly_mod_mul(acc, base, self.modulus, self.p)
            base = _poly_mod_mul(base, base, self.modulus, self.p)
            n >>= 1
        return self.element(acc)

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
        if self._exp is not None:
            return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]
        vec = _poly_mod_mul(
            list(self.coeffs(x)), list(self.coeffs(y)), self.modulus, self.p
        )
        return self.element(vec)

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of 0")
        if self.k == 1:
            return pow(x, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[x]) % (self.q - 1)]
        return self.pow(x, self.q - 2)

    def div(self, x: int, y: int) -> int:
        if y == 0:
            raise DivisionByZero("division by 0")
        return self.mul(x, self.inv(y))

    def pow(self, x: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(x), -n)
        if self.k == 1:
            return pow(x, n, self.p)
        if x == 0:
            return 0 if n else 1
        if self._exp is not None:
            return self._exp[(self._log[x] * n) % (self.q - 1)]
        acc = 1
        while n:
            if n & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            n >>= 1
        return acc

    # -- numpy tables for the enumeration engine ---------------------------

    def add_table(self) -> np.ndarray:
        """Full q*q addition table (int32); built lazily, q <= TABLE_LIMIT."""
        if self._np_add is None:
            if self.q > TABLE_LIMIT:
                raise InvalidParameter(f"q={self.q} exceeds table limit {TABLE_LIMIT}")
            q, p = self.q, self.p
            if self.k == 1:
                i = np.arange(q, dtype=np.int64)
                self._np_add = ((i[:, None] + i[None, :]) % p).astype(np.int32)
            else:
                digits = self._digit_matrix()
                out = np.empty((q, q), dtype=np.int32)
                weights = p ** np.arange(self.k, dtype=np.int64)
                for row in range(q):
                    s = (digits[row][None, :] + digits) % p
                    out[row] = (s @ weights).astype(np.int32)
                self._np_add = out
        return self._np_add

    def mul_table(self) -> np.ndarray:
        if self._np_mul is None:
            if self.q > TABLE_LIMIT:
                raise InvalidParameter(f"q={self.q} exceeds table limit {TABLE_LIMIT}")
            q = self.q
            if self.k == 1:
                i = np.arange(q, dtype=np.int64)
                self._np_mul = ((i[:, None] * i[None, :]) % self.p).astype(np.int32)
            else:
                exp = np.array(self._exp, dtype=np.int64)
                log = np.array(self._log, dtype=np.int64)
                out = np.zeros((q, q), dtype=np.int32)
                nz = np.arange(1, q, dtype=np.int64)
                for row in range(1, q):
                    out[row, 1:] = exp[(log[row] + log[nz]) % (q - 1)]
                self._np_mul = out
        return self._np_mul

    def _digit_matrix(self):
        idx = np.arange(self.q, dtype=np.int64)
        digits = np.empty((self.q, self.k), dtype=np.int64)
        for j in range(self.k):
            idx, rem = np.divmod(idx, self.p)
            digits[:, j] = rem
        return digits

    # -- identity ---------------------------------------------------------

    @property
    def descriptor(self) -> str:
        """Serialized form "p^k/modulus-coefficients", low-to-high."""
        mod = ",".join(str(c) for c in self.modulus)
        return f"{self.p}^{self.k}/{mod}"

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return isinstance(other, GF) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)


def _prime_factors(n: int):
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


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
