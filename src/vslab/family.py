"""The monic polynomial family with s fixed high coefficients.

A FamilySpec pins (field, d, s, a) and describes the family

    f_b = T^d + a_{d-1} T^{d-1} + ... + a_{d-s} T^{d-s}
              + b_{d-s-1} T^{d-s-1} + ... + b_1 T,

b ranging over F_q^{d-s-1}; the statistics adjoin a constant b_0.  The
free vectors are enumerated in canonical lexicographic order with
b_{d-s-1} as the outermost digit, so sharded runs are reproducible and
chunked reductions are partition-invariant.

For lambda in F_q^* the substitution f -> lambda^-d f(lambda T) maps the
family at a bijectively onto the family at
(lambda^-1 a_{d-1}, ..., lambda^-s a_{d-s}) and keeps every value-set
size and root multiplicity, so all members of one scaling orbit of a
share their statistics (orbit_representatives).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, LengthMismatch
from .gf import GF
from .upoly import eval_at, trim


@dataclass(frozen=True)
class FamilySpec:
    field: GF
    d: int
    s: int
    a: tuple = dc_field(default=())
    strict: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if self.d < 1:
            raise InvalidParameter(f"degree must be >= 1, got {self.d}")
        # d = 1 is the degenerate linear family used only in sanity tests
        if self.d >= 2 and not 0 <= self.s <= self.d - 2:
            raise InvalidParameter(f"need 0 <= s <= d-2, got s={self.s}, d={self.d}")
        if self.d == 1 and self.s != 0:
            raise InvalidParameter("the d=1 family has no fixable coefficients")
        if len(self.a) != self.s:
            raise LengthMismatch(f"expected {self.s} fixed coefficients, got {self.a}")
        if not all(0 <= c < self.field.q for c in self.a):
            raise InvalidParameter(
                f"fixed coefficients must lie in [0, {self.field.q}), got {self.a}"
            )
        if self.field.q <= self.d:
            msg = f"q = {self.field.q} <= d = {self.d}: outside the q > d regime the estimates assume"
            if self.strict:
                raise InvalidParameter(msg)
            warnings.warn(msg, stacklevel=2)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def free_len(self) -> int:
        """Number of free coefficients b_1 .. b_{d-s-1}."""
        return self.d - self.s - 1 if self.d >= 2 else 0

    @property
    def n_b(self) -> int:
        return self.q**self.free_len

    @property
    def key(self) -> str:
        """Report-file key: q=<descriptor>;d=..;s=..;a=<comma list>."""
        a_txt = ",".join(str(c) for c in self.a)
        return f"q={self.field.descriptor};d={self.d};s={self.s};a={a_txt}"

    def coeff_vector(self, b, b0: int = 0):
        """Dense low-to-high coefficients of f_b + b0."""
        if len(b) != self.free_len:
            raise LengthMismatch(
                f"expected {self.free_len} free coefficients, got {len(b)}"
            )
        coeffs = [0] * (self.d + 1)
        coeffs[0] = b0
        for i, c in enumerate(b):  # b is (b_{d-s-1}, ..., b_1)
            coeffs[self.d - self.s - 1 - i] = c
        for i, c in enumerate(self.a):  # a is (a_{d-1}, ..., a_{d-s})
            coeffs[self.d - 1 - i] = c
        coeffs[self.d] = 1
        return coeffs


def family_poly(spec: FamilySpec, b, b0: int = 0):
    """The member f_b + b0 as a upoly coefficient tuple."""
    return trim(spec.coeff_vector(b, b0))


def value_profile(spec: FamilySpec, b):
    """counts[c] = N_b(c) = #{t : f_b(t) = c}, indexed by element order."""
    f = spec.coeff_vector(b, 0)
    gf = spec.field
    counts = [0] * gf.q
    for t in gf.elements():
        counts[eval_at(gf, f, t)] += 1
    return counts


def index_to_b(spec: FamilySpec, idx: int):
    """Decode a lexicographic index into (b_{d-s-1}, ..., b_1)."""
    digits = []
    for _ in range(spec.free_len):
        idx, c = divmod(idx, spec.q)
        digits.append(c)
    return tuple(reversed(digits))


def enumerate_b(spec: FamilySpec, start: int = 0, stop: int | None = None):
    """Free vectors in canonical lexicographic order, optionally chunked."""
    if stop is None:
        stop = spec.n_b
    for idx in range(start, stop):
        yield index_to_b(spec, idx)


@lru_cache(maxsize=None)
def _inverse_powers(field: GF, s: int):
    """(q-1) x s table whose row for lambda holds lambda^-1, ..., lambda^-s."""
    mul = field.mul_table()
    inv = np.array([field.inv(lam) for lam in range(1, field.q)])
    cols = [inv]
    for _ in range(s - 1):
        cols.append(mul[cols[-1], inv])
    return np.stack(cols, axis=1)


def orbit_representatives(field: GF, s: int, a_vectors):
    """The canonical member of each a's scaling orbit: the lexicographically
    smallest (lambda^-1 a_{d-1}, ..., lambda^-s a_{d-s}) over lambda in F_q^*.

    Each a is a valid fixed-coefficient vector (a_{d-1}, ..., a_{d-s}).
    """
    if s == 0:
        return [()] * len(a_vectors)
    scale = _inverse_powers(field, s)
    mul = field.mul_table()
    reps = []
    # chunks of about 2^20 images bound the memory
    step = max(1, (1 << 20) // scale.size)
    for lo in range(0, len(a_vectors), step):
        a = np.array(a_vectors[lo : lo + step], dtype=np.int64)
        images = mul[scale[None, :, :], a[:, None, :]]  # (a, lambda, i)
        # lexicographic minimum over lambda, one coordinate at a time
        keep = np.ones(images.shape[:2], dtype=bool)
        rep = np.empty_like(a)
        for i in range(s):
            col = np.where(keep, images[:, :, i], field.q)
            rep[:, i] = col.min(axis=1)
            keep &= col == rep[:, i, None]
        reps.extend(tuple(int(c) for c in row) for row in rep)
    return reps
