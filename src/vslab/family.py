"""The monic polynomial family with s fixed high coefficients.

A FamilySpec pins (field, d, s, a), with d >= 2 and 0 <= s <= d-2, and
describes the family

    f_b = T^d + a_{d-1} T^{d-1} + ... + a_{d-s} T^{d-s}
              + b_{d-s-1} T^{d-s-1} + ... + b_1 T,

b ranging over F_q^{d-s-1}; the statistics adjoin a constant b_0.  The
free vectors are enumerated in canonical lexicographic order with
b_{d-s-1} as the outermost digit, so sharded runs are reproducible and
chunked reductions are partition-invariant.

For lambda in F_q^* and t in F_q the substitution
f -> lambda^-d (f(lambda T + t) - f(t)) maps the family at a bijectively
onto the family at the image of a (its top s coefficients depend on a,
lambda and t alone, and its map on b is triangular with a unit diagonal),
and keeps every value-set size and root multiplicity.  So all members of
one affine orbit of a share their statistics, and one canonical member
is swept for all of them (orbit_representatives).  The scalings that fix
a permute the family's own members, a block of b-vectors at a time, so
one block per orbit of blocks is swept (stabiliser_blocks).  cover(spec)
alone reduces a family to the weighted index blocks swept for it.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import comb

import numpy as np

from .errors import InvalidParameter
from .gf import GF


@dataclass(frozen=True)
class FamilySpec:
    field: GF
    d: int
    s: int
    a: tuple = dc_field(default=())

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if self.d < 2:
            raise InvalidParameter(f"need d >= 2, got d={self.d}")
        if not 0 <= self.s <= self.d - 2:
            raise InvalidParameter(f"need 0 <= s <= d-2, got s={self.s}, d={self.d}")
        if len(self.a) != self.s:
            raise InvalidParameter(f"expected {self.s} fixed coefficients, got {self.a}")
        if not all(0 <= c < self.field.q for c in self.a):
            raise InvalidParameter(
                f"fixed coefficients must lie in [0, {self.field.q}), got {self.a}"
            )
        if self.field.q <= self.d:
            msg = f"q = {self.field.q} <= d = {self.d}: outside the q > d regime the estimates assume"
            # 3: past __post_init__ and the __init__ dataclass generates
            warnings.warn(msg, stacklevel=3)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def free_len(self) -> int:
        """Number of free coefficients b_1 .. b_{d-s-1}."""
        return self.d - self.s - 1

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
            raise InvalidParameter(
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
    from .upoly import trim  # the sweep never needs upoly

    return trim(spec.coeff_vector(b, b0))


def value_profile(spec: FamilySpec, b):
    """counts[c] = N_b(c) = #{t : f_b(t) = c}, indexed by element order."""
    from .upoly import eval_at

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


def enumerate_b(spec: FamilySpec):
    """Free vectors in canonical lexicographic order."""
    for idx in range(spec.n_b):
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


@lru_cache(maxsize=None)
def _translation_terms(field: GF, d: int, s: int):
    """q x (s+1) x s table whose entry [t, i, k-1] is C(d-i, k-i) t^(k-i) in
    F_q for i <= k, and 0 for i > k."""
    mul = field.mul_table()
    t = np.arange(field.q)
    powers = [np.ones_like(t)]  # t^0 = 1, also at t = 0
    for _ in range(s):
        powers.append(mul[powers[-1], t])
    terms = np.zeros((field.q, s + 1, s), dtype=np.int64)
    for k in range(1, s + 1):
        for i in range(k + 1):
            terms[:, i, k - 1] = mul[field.embed_int(comb(d - i, k - i)), powers[k - i]]
    return terms


def _smallest_images(field: GF, d: int, a, ts, lams):
    """Each row of a's lexicographically smallest image over the grid of its
    row of translations ts and its row of scalings lams (rows of
    _inverse_powers, lambda - 1)."""
    s = a.shape[1]
    add, mul = field.add_table(), field.mul_table()
    terms = _translation_terms(field, d, s)
    top = np.concatenate([np.ones((len(a), 1), dtype=np.int64), a], axis=1)
    moved = np.empty(ts.shape + (s,), dtype=np.int64)  # (a, t, k)
    for k in range(1, s + 1):
        acc = np.zeros(ts.shape, dtype=np.int64)
        for i in range(k + 1):
            acc = add[acc, mul[top[:, i, None], terms[ts, i, k - 1]]]
        moved[:, :, k - 1] = acc
    scale = _inverse_powers(field, s)[lams]  # (a, lambda, k)
    images = mul[scale[:, None, :, :], moved[:, :, None, :]].reshape(len(a), -1, s)
    # lexicographic minimum over (t, lambda), one coordinate at a time
    keep = np.ones(images.shape[:2], dtype=bool)
    rep = np.empty_like(a)
    for i in range(s):
        col = np.where(keep, images[:, :, i], field.q)
        rep[:, i] = col.min(axis=1)
        keep &= col == rep[:, i, None]
    return rep


def orbit_representatives(field: GF, d: int, s: int, a_vectors):
    """The canonical member of each a's affine orbit: the lexicographically
    smallest image (a'_{d-1}, ..., a'_{d-s}) over lambda in F_q^* and t in F_q,

        a'_{d-k} = lambda^-k sum_{i=0..k} C(d-i, k-i) a_{d-i} t^(k-i),  a_d = 1.

    The first coordinate is lambda^-1 (a_{d-1} + d t).  For p not dividing
    d it reaches the smallest element, 0, at t = -a_{d-1}/d alone, so only
    that translate is scaled.  For p | d it is lambda^-1 a_{d-1} for every
    t, and a nonzero a_{d-1} reaches its smallest value, 1, at
    lambda = a_{d-1} alone, so every t is tried with that one scaling; only
    a_{d-1} = 0 tries every (lambda, t).  Each a is a valid fixed-coefficient
    vector (a_{d-1}, ..., a_{d-s}).
    """
    if s == 0:
        return [()] * len(a_vectors)
    q, mul = field.q, field.mul_table()
    a_all = np.array(a_vectors, dtype=np.int64).reshape(len(a_vectors), s)
    rows = np.arange(len(a_all))
    every_t, every_lam = np.arange(q)[None, :], np.arange(q - 1)[None, :]
    if d % field.p:
        minus_inv_d = field.neg(field.inv(field.embed_int(d)))
        groups = [(rows, mul[minus_inv_d, a_all[:, :1]], every_lam)]
    else:
        lead = a_all[:, 0] != 0
        groups = [(rows[lead], every_t, a_all[lead, :1] - 1),
                  (rows[~lead], every_t, every_lam)]
    reps = np.empty_like(a_all)
    for rows, ts, lams in groups:
        ts = np.broadcast_to(ts, (len(rows), ts.shape[1]))
        lams = np.broadcast_to(lams, (len(rows), lams.shape[1]))
        # chunks of about 2^20 images bound the memory
        step = max(1, (1 << 20) // (ts.shape[1] * lams.shape[1] * s))
        for lo in range(0, len(rows), step):
            part = rows[lo : lo + step]
            reps[part] = _smallest_images(
                field, d, a_all[part], ts[lo : lo + step], lams[lo : lo + step]
            )
    return [tuple(int(c) for c in row) for row in reps]


def stabiliser_blocks(spec: FamilySpec):
    """(lo, hi, weight) index blocks whose weighted stats sum to spec's.

    Each lambda of the stabiliser G = {lambda : lambda^-k a_{d-k} = a_{d-k},
    k = 1..s} maps f_b to lambda^-d f_b(lambda T), the member at
    b'_i = lambda^(i-d) b_i of the same family, with every statistic kept.
    It moves the outermost digit b_{d-s-1} from r to lambda^-(s+1) r, so it
    maps the block of q^(L-1) consecutive indices [r q^(L-1), (r+1) q^(L-1))
    onto the block at lambda^-(s+1) r.  Block 0 is its own orbit, and the
    blocks r of one coset of H = {lambda^(s+1) : lambda in G} in F_q^* form
    another; the smallest r of each coset stands for its |H| blocks.
    """
    field, s = spec.field, spec.s
    mul = field.mul_table()
    scale = _inverse_powers(field, s + 1)
    a = np.array(spec.a, dtype=np.int64)
    in_g = (mul[scale[:, :s], a] == a).all(axis=1)
    # H, sorted: {lambda^-(s+1)} is the same group; np.unique loads numpy.ma
    h = np.flatnonzero(np.bincount(scale[in_g, s]))
    size = spec.n_b // field.q
    blocks = [(0, size, 1)]
    seen = np.zeros(field.q, dtype=bool)
    for r in range(1, field.q):
        if not seen[r]:
            seen[mul[r, h]] = True
            blocks.append((r * size, (r + 1) * size, len(h)))
    return blocks


def cover(spec: FamilySpec):
    """(swept spec, lo, hi, weight) index blocks whose weighted stats sum to
    spec's, so sum(weight * (hi - lo)) = spec.n_b.

    At s >= 1, and at s = 0 with d = 2 where s = 1 names no family, these
    are spec's own stabiliser blocks.  At s = 0 with d >= 3 the family is
    the disjoint union over a_{d-1} of the s = 1 families: each s = 1
    representative is swept in its stabiliser blocks, weighted by the size
    of its affine orbit (for p not dividing d all q lie in the orbit of
    (0,); for p | d in those of (0,) and (1,), of sizes 1 and q-1).
    """
    if spec.s or spec.d == 2:
        return [(spec, *block) for block in stabiliser_blocks(spec)]
    field, d = spec.field, spec.d
    reps = orbit_representatives(field, d, 1, [(c,) for c in range(field.q)])
    blocks = []
    for rep, size in Counter(reps).items():
        with warnings.catch_warnings():  # spec itself warned of q <= d
            warnings.simplefilter("ignore")
            part = FamilySpec(field, d, 1, rep)
        blocks += [(part, lo, hi, size * w) for lo, hi, w in stabiliser_blocks(part)]
    return blocks
