"""Chunked, table-driven enumeration of a whole polynomial family.

One pass over b in F_q^(d-s-1) produces every aggregate the statistics
modules need, as exact integers:

  sum_v, sum_v2     brute-force first and second moments (unnormalized)
  hist_n[N]         #{(b, c) : N_b(c) = N} over all q values c per b
  prod_a[m][n]      sum_b A_m(b) A_n(b), A_k(b) = sum_c C(N_b(c), k)
  gamma_closed[r]   |Gamma_r^*(F_q)|: ordered r-tuples (with repeats)
                    whose multiset divides f_b + b0, summed over (b, b0)

The per-chunk kernel is vectorized with numpy over the field tables;
chunks reduce by integer addition, so results are independent of the
chunk partition and of the worker count.  Chunk length is capped by
int64_chunk_limit, which bounds every int64 intermediate below 2^63
from (q, d, chunk); a family no chunk can keep below it is refused.

b_1 is the innermost digit of the enumeration and f_b = g + b_1 T, where
g depends only on the outer prefix idx // q.  So g is evaluated once per
prefix, and the value table of a chunk is one gather of g's values
against the table b_1 * t.  A chunk may cut a prefix block; both chunks
then evaluate g for it.  The d = 1 family has no free b_1 and runs the
same route with a zero b_1 column.

Root multiplicities enter only through critical points, where
f_b'(t) = g'(t) + b_1 = 0: every (prefix, t) is critical for exactly
one b_1, so they are read off g' without a scan.  The multiplicity of a
critical point is the order of the first nonvanishing Hasse derivative
there (characteristic-safe), and for j >= 2 the j-th derivative depends
on the prefix only.  One Horner evaluator of the Hasse derivatives of g
serves the whole kernel: j = 0, 1 and 2 on the prefix grid (values,
critical points, the first multiplicity split), j >= 3 on the critical
pairs still pending.  A (b, c) class with one critical point of
multiplicity m takes its gamma correction from the (m, n) table
single_root_table; a class with several goes through the memo
multi_root_correction.

Each chunk takes its field from parse_descriptor, which returns the one
interned field object per descriptor, so the add and mul tables are
built once per process.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import BrokenInvariant, BudgetExceeded, Int64Overflow, InvalidParameter
from .family import FamilySpec
from .gf import TABLE_LIMIT, parse_descriptor

MAX_CHUNK = 65536
DEFAULT_BUDGET = 10**6
INT64_MAX = 2**63 - 1


def falling(n: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= n - i
    return out if r <= n else 0


@dataclass(frozen=True)
class FamilyStats:
    key: str
    q: int
    d: int
    s: int
    n_b: int
    sum_v: int
    sum_v2: int
    hist_n: tuple
    prod_a: tuple
    gamma_closed: tuple

    @property
    def mean(self) -> Fraction:
        """The average value-set size over the family."""
        return Fraction(self.sum_v, self.n_b)

    @property
    def second_moment(self) -> Fraction:
        """The average squared value-set size over the family."""
        return Fraction(self.sum_v2, self.n_b)

    def chi(self, r: int) -> int:
        """Incidence count sum_{(b,c)} C(N_b(c), r)."""
        return sum(h * comb(n, r) for n, h in enumerate(self.hist_n))

    def gamma_open(self, r: int) -> int:
        """|Gamma_r(F_q)|: ordered r-tuples of distinct roots."""
        return sum(h * falling(n, r) for n, h in enumerate(self.hist_n))

    def s_mn(self, m: int, n: int) -> int:
        """sum_b [A_m A_n - sum_c C(N,m)C(N,n)]: the c1 != c2 incidences."""
        same_c = sum(h * comb(k, m) * comb(k, n) for k, h in enumerate(self.hist_n))
        return self.prod_a[m - 1][n - 1] - same_c


def exact_tuple_counts(caps, n_simple: int, d: int):
    """W_r for r = 1..d: ordered r-tuples from a multiset of roots.

    caps lists the multiplicities of the non-simple roots; n_simple
    roots have multiplicity 1.  W_r = sum over multiplicity choices of
    the multinomial r!/prod(m_i!), the ordered-tuple count.
    """
    w = [0] * (d + 1)
    w[0] = 1
    for cap in caps:
        nw = [0] * (d + 1)
        for j in range(d + 1):
            acc = 0
            for m in range(0, min(cap, j) + 1):
                if w[j - m]:
                    acc += comb(j, m) * w[j - m]
            nw[j] = acc
        w = nw
    out = [0] * (d + 1)
    for j in range(d + 1):
        acc = 0
        for m in range(0, j + 1):
            if w[j - m]:
                acc += comb(j, m) * falling(n_simple, m) * w[j - m]
        out[j] = acc
    return out[1:]


@lru_cache(maxsize=None)
def single_root_table(d: int):
    """Gamma correction per class with one critical point, keyed by (m, n).

    Row m*(d+1) + n holds, for r = 1..d, the correction of a value class
    with n distinct roots of which exactly one is multiple, with
    multiplicity m: its ordered-tuple count less the all-simple
    falling(n, r).  Impossible pairs (m < 2, n < 1, m + n - 1 > d) stay
    zero.  Entries are Python ints, so accumulating them cannot overflow.
    """
    table = np.zeros(((d + 1) * (d + 1), d), dtype=object)
    for m in range(2, d + 1):
        for n in range(1, d - m + 2):
            exact = exact_tuple_counts([m], n - 1, d)
            table[m * (d + 1) + n] = [
                exact[r - 1] - falling(n, r) for r in range(1, d + 1)
            ]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def multi_root_correction(caps: tuple, n_distinct: int, d: int) -> tuple:
    """Gamma correction of a class with several critical points.

    caps holds their multiplicities, sorted: the count is symmetric in
    their order.  n_distinct counts all roots of the class.
    """
    exact = exact_tuple_counts(list(caps), n_distinct - len(caps), d)
    return tuple(exact[r - 1] - falling(n_distinct, r) for r in range(1, d + 1))


def int64_chunk_limit(q: int, d: int) -> int:
    """Largest chunk whose int64 intermediates provably cannot overflow.

    Every fiber has N_b(c) <= d roots and sum_c N_b(c) = q.  Since
    C(N, k)/N grows with N, A_k(b) = sum_c C(N_b(c), k) <= (q/d) C(d, k),
    so a chunk adds at most chunk * max_k A_k^2 to any prod_a entry.
    That also bounds A_k itself, sum_v2 (A_1 = q) and the flat bincount
    indices (below chunk * q).
    """
    a_max = max(q * comb(d, k) // d for k in range(1, d + 1))
    limit = INT64_MAX // (a_max * a_max)
    if limit < 1:
        raise Int64Overflow(
            f"q={q}, d={d}: one b-vector can reach A_k = {a_max}, "
            "whose square exceeds int64"
        )
    return limit


def _chunk_kernel(task):
    (descriptor, d, s, a, lo, hi, L) = task
    gf = parse_descriptor(descriptor)  # interned: its tables are built once
    q, p = gf.q, gf.p
    add_t, mul_t = gf.add_table(), gf.mul_table()
    add_f, mul_f = add_t.ravel(), mul_t.ravel()
    n_chunk = hi - lo

    # idx = prefix * qb + b_1: b_1 is the innermost digit, and f_b = g + b_1 T
    # where g drops the b_1 term.  With no free b_1 (d = 1) qb = 1 makes
    # b_1 a zero column and g = f_b.
    qb = q if L else 1
    pre_lo = lo // qb
    n_pre = (hi - 1) // qb + 1 - pre_lo
    pidx = np.arange(pre_lo, pre_lo + n_pre, dtype=np.int64)
    pre_digits = np.zeros((n_pre, max(L - 1, 0)), dtype=np.int32)
    for j in range(L - 2, -1, -1):  # column j holds b_{d-s-1-j}
        pidx, rem = np.divmod(pidx, q)
        pre_digits[:, j] = rem
    pre_row, b1 = np.divmod(np.arange(lo, hi, dtype=np.int64), qb)
    pre_row -= pre_lo

    # fixed coefficients of g: T^d and a; T^0 and T^1 are zero, and the
    # free b_i with 2 <= i < d-s sit at digit column d-s-1-i
    coef = [0] * (d + 1)
    coef[d] = 1
    coef[d - s:d] = reversed(a)

    def hasse(j, rows, ts):
        """The j-th Hasse derivative sum_{i>=j} C(i,j) g_i t^(i-j) of g at
        broadcast arrays of prefix rows and t values, by Horner."""
        shape = np.broadcast_shapes(np.shape(rows), np.shape(ts))
        acc = np.full(shape, comb(d, j) % p, dtype=np.int32)
        for i in range(d - 1, j - 1, -1):
            emb = comb(i, j) % p
            if 2 <= i < d - s:
                c = mul_t[emb, pre_digits[rows, d - s - 1 - i]]
            else:
                c = mul_t[emb, coef[i]]
            acc = np.take(add_f, np.take(mul_f, acc * q + ts) * q + c)
        return acc

    grid = (np.arange(n_pre)[:, None], np.arange(q, dtype=np.int32)[None, :])

    # values of f_b on all of F_q: g per prefix, then f_b = g + b_1 t
    val = np.take(
        add_f,
        np.take(hasse(0, *grid) * q, pre_row, axis=0) + np.take(mul_t, b1, axis=0),
    )

    # per-b histogram of values, then per-b histogram of root counts N
    flat = (np.arange(n_chunk, dtype=np.int64)[:, None] * q + val).ravel()
    nmat = np.bincount(flat, minlength=n_chunk * q).reshape(n_chunk, q)
    flat_h = (np.arange(n_chunk, dtype=np.int64)[:, None] * (d + 1) + nmat).ravel()
    h_per_b = np.bincount(flat_h, minlength=n_chunk * (d + 1))
    # a count N > d would land in a later b's row; the first b holding
    # one then counts fewer than q values
    if h_per_b.size != n_chunk * (d + 1) or not (
        h_per_b.reshape(n_chunk, d + 1).sum(axis=1) == q
    ).all():
        raise BrokenInvariant("a fiber exceeded d roots")
    h_per_b = h_per_b.reshape(n_chunk, d + 1)
    hist_n = h_per_b.sum(axis=0)
    v_per_b = q - h_per_b[:, 0]
    sum_v = int(v_per_b.sum())
    sum_v2 = int((v_per_b * v_per_b).sum())

    binom = np.array(
        [[comb(n, k) for k in range(1, d + 1)] for n in range(d + 1)],
        dtype=np.int64,
    )
    a_cols = h_per_b @ binom
    prod_a = a_cols.T @ a_cols

    # critical points: f_b'(t) = g'(t) + b_1 = 0, the only places where
    # f_b - f_b(t) has a multiple root.  Each (prefix, t) is critical for
    # exactly one b_1 = -g'(t) = (p-1) g'(t); keep the b inside this chunk.
    # With d = 1, g' = 1 and no b_1 column: nothing is critical.
    b1_crit = mul_t[p - 1][hasse(1, *grid)].astype(np.int64)
    gidx = np.arange(pre_lo, pre_lo + n_pre)[:, None] * qb + b1_crit
    pre_c, ts = np.nonzero((b1_crit < qb) & (gidx >= lo) & (gidx < hi))
    gamma_corr = [0] * d
    if len(pre_c):
        rows = gidx[pre_c, ts] - lo
        cvals = val[rows, ts]
        # the multiplicity of t in f_b - f_b(t) is the smallest j with a
        # nonzero j-th Hasse derivative; j = 1 vanished by construction.
        # For j >= 2 neither b_0 nor b_1 enters, so g's prefix suffices.
        # j = 2 runs on the prefix grid, higher j only on pending pairs.
        # The loop ends because the d-th derivative of monic g is 1.
        mults = np.full(len(pre_c), 2)
        pending = np.flatnonzero(hasse(2, *grid)[pre_c, ts] == 0)
        j = 2
        while len(pending):
            j += 1
            mults[pending] = j
            pending = pending[hasse(j, pre_c[pending], ts[pending]) == 0]
        gamma_corr = _gamma_corrections(rows, cvals, nmat[rows, cvals], mults, q, d)

    return (
        sum_v,
        sum_v2,
        [int(x) for x in hist_n],
        [[int(x) for x in row] for row in prod_a],
        gamma_corr,
    )


def _gamma_corrections(rows, cvals, nvals, mults, q, d):
    """Replace the all-simple tuple counts on classes with multiple roots.

    A class is one (b, c) holding critical points.  Classes with one
    critical point take their correction from single_root_table, counted
    by one bincount; the rest go through multi_root_correction.
    """
    keys = rows * q + cvals
    order = np.argsort(keys, kind="stable")
    keys, nvals, mults = keys[order], nvals[order], mults[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    ends = np.append(starts[1:], len(keys))
    single = starts[ends - starts == 1]
    counts = np.bincount(
        mults[single] * (d + 1) + nvals[single], minlength=(d + 1) * (d + 1)
    )
    gamma_corr = counts.astype(object) @ single_root_table(d)
    gamma_corr = [int(x) for x in gamma_corr]

    # classes with k critical points: sort each class's caps, code
    # (n, caps) in base d+1, then call the memo once per distinct code
    sizes = ends - starts
    for k in np.unique(sizes[sizes > 1]).tolist():
        first = starts[sizes == k]
        caps = np.sort(mults[first[:, None] + np.arange(k)], axis=1)
        code = nvals[first]
        if (d + 1) ** (k + 1) > INT64_MAX:  # codes past int64: Python ints
            caps, code = caps.astype(object), code.astype(object)
        for col in caps.T:
            code = code * (d + 1) + col
        codes, n_classes = np.unique(code, return_counts=True)
        for key, n_cls in zip(codes.tolist(), n_classes.tolist()):
            caps = []
            for _ in range(k):
                key, cap = divmod(key, d + 1)
                caps.append(cap)
            corr = multi_root_correction(tuple(reversed(caps)), key, d)
            for r in range(d):
                gamma_corr[r] += n_cls * corr[r]
    return gamma_corr


def _merge(results, d):
    sum_v = sum_v2 = 0
    hist = [0] * (d + 1)
    prod = [[0] * d for _ in range(d)]
    corr = [0] * d
    for sv, sv2, h, pa, gc in results:
        sum_v += sv
        sum_v2 += sv2
        for i, x in enumerate(h):
            hist[i] += x
        for i in range(d):
            for j in range(d):
                prod[i][j] += pa[i][j]
        for i, x in enumerate(gc):
            corr[i] += x
    return sum_v, sum_v2, hist, prod, corr


def default_workers() -> int:
    """VSLAB_WORKERS, else 1; refused, as --workers is, unless an integer >= 1."""
    env = os.environ.get("VSLAB_WORKERS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidParameter(f"VSLAB_WORKERS must be an integer >= 1, got {env!r}")
    return workers


def collect_stats(
    spec: FamilySpec,
    workers: int | None = None,
    budget: int | None = DEFAULT_BUDGET,
    chunk_size: int | None = None,
) -> FamilyStats:
    """Run the family sweep and assemble exact aggregate statistics."""
    if spec.q > TABLE_LIMIT:
        raise InvalidParameter("the enumeration engine needs table-backed fields")
    n_b = spec.n_b
    if budget is not None and n_b > budget:
        raise BudgetExceeded(
            f"{spec.key}: {n_b} free vectors exceed the budget {budget}"
        )
    if workers is None:
        workers = default_workers()
    if chunk_size is None:
        chunk_size = min(MAX_CHUNK, max(1024, 4_000_000 // spec.q))
    d = spec.d
    chunk_size = min(chunk_size, int64_chunk_limit(spec.q, d))

    tasks = [
        (spec.field.descriptor, d, spec.s, spec.a, lo, min(lo + chunk_size, n_b),
         spec.free_len)
        for lo in range(0, n_b, chunk_size)
    ]
    if workers > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(_chunk_kernel, tasks, chunksize=1)
    else:
        results = [_chunk_kernel(t) for t in tasks]
    sum_v, sum_v2, hist, prod, corr = _merge(results, d)

    gamma_closed = []
    for r in range(1, d + 1):
        base = sum(h * falling(n, r) for n, h in enumerate(hist))
        gamma_closed.append(base + corr[r - 1])

    return FamilyStats(
        key=spec.key,
        q=spec.q,
        d=d,
        s=spec.s,
        n_b=n_b,
        sum_v=sum_v,
        sum_v2=sum_v2,
        hist_n=tuple(hist),
        prod_a=tuple(tuple(row) for row in prod),
        gamma_closed=tuple(gamma_closed),
    )
