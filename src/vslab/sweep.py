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
chunk partition and of the worker count.  A chunk is a tuple of
ascending index ranges; a default chunk holds about CHUNK_CELLS = 2^18
(b, t) cells, between 1024 and MAX_CHUNK b-vectors, so its value and
count arrays stay near the size of a core's L2 cache.  A family is
swept through its cover (collect_many's cover): weighted index blocks of
swept families.  The blocks of one swept family and one weight are packed
into full chunks, and the parent multiplies each chunk's sums by its
weight (_assemble), so weights never reach the kernel or its float64
bound.

The per-b sums (sum_v, sum_v2, hist_n, prod_a) all come from the
(d+1) x (d+1) Gram matrix of the chunk's root-count histograms, one
float64 BLAS product.  Its entries are integers of at most chunk * q^2,
exact while that is at most 2^53 (table fields and MAX_CHUNK keep it
below 2^40); the kernel checks the bound and finishes in Python ints.

b_1 is the innermost digit of the enumeration and f_b = g + b_1 T, where
g depends only on the outer prefix idx // q.  So g is evaluated once per
prefix, and the value table of a chunk is one gather of g's values
against the table b_1 * t.  Two chunks, or two ranges of one chunk,
may each hold part of a prefix block; each then evaluates g for it.
The d = 1 family has no free b_1 and runs the same route with a zero
b_1 column.

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
built once per process.  The sweeps of one run share a single fork pool
(run_scope, which the CLI opens around each command), so every worker
builds a field's tables, and fills the single_root_table and
multi_root_correction memos, once per run.  One worker never forks.

collect_many puts every distinct chunk of a list of families through one
ordered imap of that pool and yields each family's stats as its last
chunk arrives, so the caller checks and writes one family while the
workers sweep the next, and no family waits at a barrier of its own.  A
chunk that several families cover runs once.  The CLI runs each
command's whole plan as one such stream, each family through
family.cover, and collect_stats is the one-family, one-block case that
the independent checks use.  Entering
run_scope also fixes glibc's mmap and trim thresholds (_steady_heap), so
the kernel's 1-2 MB temporaries stay in the heap between chunks instead
of being unmapped and faulted in again by the next one.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import BrokenInvariant, BudgetExceeded, InvalidParameter
from .family import FamilySpec
from .gf import TABLE_LIMIT, parse_descriptor

MAX_CHUNK = 65536
CHUNK_CELLS = 2**18  # (b, t) cells per default chunk
DEFAULT_BUDGET = 10**6
INT64_MAX = 2**63 - 1
FLOAT64_EXACT = 2**53  # every integer up to this is a float64
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


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


def _chunk_kernel(task):
    (descriptor, d, s, a, ranges, L) = task
    gf = parse_descriptor(descriptor)  # interned: its tables are built once
    q, p = gf.q, gf.p
    add_t, mul_t = gf.add_table(), gf.mul_table()
    add_f, mul_f = add_t.ravel(), mul_t.ravel()

    # idx = prefix * qb + b_1: b_1 is the innermost digit, and f_b = g + b_1 T
    # where g drops the b_1 term.  With no free b_1 (d = 1) qb = 1 makes
    # b_1 a zero column and g = f_b.  Each of the chunk's index ranges gets
    # rows for its own prefixes (two ranges may both hold part of one), and
    # each row keeps its range's bounds and the offset of its b-vectors.
    qb = q if L else 1
    pidx, pre_row, b1, own = [], [], [], []
    n_pre = n_chunk = 0
    for lo, hi in ranges:
        first, stop = lo // qb, (hi - 1) // qb + 1
        prefix, digit = np.divmod(np.arange(lo, hi, dtype=np.int64), qb)
        pre_row.append(prefix - (first - n_pre))
        b1.append(digit)
        pidx.append(np.arange(first, stop, dtype=np.int64))
        own.append((stop - first, lo, hi, lo - n_chunk))
        n_pre += stop - first
        n_chunk += hi - lo
    pidx, pre_row, b1 = (np.concatenate(x) for x in (pidx, pre_row, b1))
    n_rows, los, his, shifts = zip(*own)
    row_lo, row_hi, row_shift = (
        np.repeat(x, n_rows)[:, None] for x in (los, his, shifts)
    )
    pre_digits = np.zeros((n_pre, max(L - 1, 0)), dtype=np.int32)
    rest = pidx
    for j in range(L - 2, -1, -1):  # column j holds b_{d-s-1-j}
        rest, rem = np.divmod(rest, q)
        pre_digits[:, j] = rem

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
    if nmat.max() > d:
        raise BrokenInvariant("a fiber exceeded d roots")
    flat_h = (np.arange(n_chunk, dtype=np.int64)[:, None] * (d + 1) + nmat).ravel()
    h_per_b = np.bincount(flat_h, minlength=n_chunk * (d + 1)).reshape(n_chunk, d + 1)

    # the Gram matrix G = H^T H of H = h_per_b, exact in float64 (see the
    # module docstring), then Python ints.  Each row of H sums to q, so
    # row n of G sums to q * hist_n[n]; V_b = q - H[b, 0]; and
    # prod_a = B^T G B with B[n][k-1] = C(n, k), as A_k(b) = (H B)[b, k-1].
    if n_chunk * q * q > FLOAT64_EXACT:
        raise BrokenInvariant(
            f"a chunk of {n_chunk} at q = {q} leaves float64's exact integers"
        )
    h_float = h_per_b.astype(np.float64)
    gram = (h_float.T @ h_float).astype(np.int64).astype(object)
    hist_n = [row_sum // q for row_sum in gram.sum(axis=1)]
    sum_v = n_chunk * q - hist_n[0]
    sum_v2 = n_chunk * q * q - 2 * q * hist_n[0] + gram[0, 0]
    binom = np.array(
        [[comb(n, k) for k in range(1, d + 1)] for n in range(d + 1)],
        dtype=object,
    )
    prod_a = binom.T @ gram @ binom

    # critical points: f_b'(t) = g'(t) + b_1 = 0, the only places where
    # f_b - f_b(t) has a multiple root.  Each (prefix, t) is critical for
    # exactly one b_1 = -g'(t) = (p-1) g'(t); keep the b inside the row's
    # own range, so a prefix that two ranges share counts each b once.
    # With d = 1, g' = 1 and no b_1 column: nothing is critical.
    b1_crit = mul_t[p - 1][hasse(1, *grid)].astype(np.int64)
    gidx = pidx[:, None] * qb + b1_crit
    pre_c, ts = np.nonzero((b1_crit < qb) & (gidx >= row_lo) & (gidx < row_hi))
    gamma_corr = [0] * d
    if len(pre_c):
        rows = gidx[pre_c, ts] - row_shift[pre_c, 0]
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

    return sum_v, sum_v2, hist_n, prod_a.tolist(), gamma_corr


def _gamma_corrections(rows, cvals, nvals, mults, q, d):
    """Replace the all-simple tuple counts on classes with multiple roots.

    A class is one (b, c) holding critical points.  Classes with one
    critical point, almost all of them, are found by a bincount of their
    keys and take their correction from single_root_table, counted by one
    more bincount; only the rest are sorted into runs, and go through
    multi_root_correction.
    """
    keys = rows * q + cvals
    lone = np.bincount(keys)[keys] == 1
    counts = np.bincount(
        mults[lone] * (d + 1) + nvals[lone], minlength=(d + 1) * (d + 1)
    )
    gamma_corr = counts.astype(object) @ single_root_table(d)
    gamma_corr = [int(x) for x in gamma_corr]

    keys, nvals, mults = keys[~lone], nvals[~lone], mults[~lone]
    order = np.argsort(keys, kind="stable")
    keys, nvals, mults = keys[order], nvals[order], mults[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sizes = np.diff(np.append(starts, len(keys)))

    # classes with k >= 2 critical points: sort each class's caps, code
    # (n, caps) in base d+1, then call the memo once per distinct code
    for k in np.unique(sizes).tolist():
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


class _RunScope:
    """The fork pool of one run, opened by the first stream that needs it."""

    def __init__(self):
        self.pool = None
        self.workers = 1

    def imap(self, fn, tasks, workers):
        """fn over tasks, lazily and in order; more than one task on more
        than one worker runs on the run's pool."""
        if workers == 1 or len(tasks) <= 1:
            return map(fn, tasks)
        if self.workers != workers:
            self.close()
        if self.pool is None:
            self.pool = multiprocessing.get_context("fork").Pool(workers)
            self.workers = workers
        return self.pool.imap(fn, tasks, chunksize=1)

    def close(self):
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()
        self.pool, self.workers = None, 1


_active_scope = None


@lru_cache(maxsize=None)
def _steady_heap():
    """Keep freed kernel temporaries in glibc's heap instead of the OS.

    By default glibc maps blocks above a dynamic threshold (from 128 KiB)
    afresh and trims the heap top above 128 KiB, so each chunk's 1-2 MB
    arrays are handed back and faulted in again by the next chunk.  A fixed
    32 MiB mmap threshold and 64 MiB trim threshold keep them; forked
    workers inherit the setting.  Skipped where libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


@contextmanager
def run_scope():
    """Share one fork pool among every sweep inside; close it on the way out.

    A scope opened inside another is the outer one, so the CLI's scope
    around a whole run serves each stream of that run, and a stream
    outside any scope gets a scope, and at most a pool, of its own.
    """
    global _active_scope
    _steady_heap()
    if _active_scope is not None:
        yield _active_scope
        return
    scope = _active_scope = _RunScope()
    try:
        yield scope
    finally:
        _active_scope = None
        scope.close()


def check_sweepable(spec: FamilySpec, budget: int | None = DEFAULT_BUDGET):
    """Refuse a family the engine cannot sweep, or one over the budget."""
    if spec.q > TABLE_LIMIT:
        raise InvalidParameter("the enumeration engine needs table-backed fields")
    if budget is not None and spec.n_b > budget:
        raise BudgetExceeded(
            f"{spec.key}: {spec.n_b} free vectors exceed the budget {budget}"
        )


def _pack(ranges, size):
    """Ascending index ranges cut and packed into tuples of size indices
    (the last tuple may hold fewer); ranges that meet are merged."""
    chunk, room = [], size
    for lo, hi in ranges:
        while lo < hi:
            take = min(hi - lo, room)
            if chunk and chunk[-1][1] == lo:
                chunk[-1] = (chunk[-1][0], lo + take)
            else:
                chunk.append((lo, lo + take))
            lo, room = lo + take, room - take
            if not room:
                yield tuple(chunk)
                chunk, room = [], size
    if chunk:
        yield tuple(chunk)


def collect_many(specs, workers: int | None = None, chunk_size: int | None = None,
                 cover=None):
    """FamilyStats of each spec, in order, from one stream of chunks.

    cover(spec) lists (swept spec, lo, hi, weight) index blocks whose
    weighted stats sum to the spec's (family.cover); by default the whole
    family is one block of weight 1.  The blocks of one swept spec and one
    weight are packed, in index order, into chunks of the chunk size.  A
    chunk is keyed by its task, so one that several specs need runs once,
    and every distinct chunk goes through one imap of the run's pool: the
    caller consumes a spec's stats while the workers compute the next ones,
    and no spec waits for the last chunk of another.  Covers and stats are
    built once per distinct spec.  No budget is applied here: the caller
    judges it (check_sweepable) beforehand.
    """
    specs = list(specs)
    if workers is None:
        workers = default_workers()
    plans = {}  # distinct spec -> its (task, weight) pairs
    for spec in dict.fromkeys(specs):
        check_sweepable(spec, budget=None)
        size = chunk_size
        if size is None:
            size = min(MAX_CHUNK, max(1024, CHUNK_CELLS // spec.q))
        blocks = [(spec, 0, spec.n_b, 1)] if cover is None else cover(spec)
        if sum(w * (hi - lo) for _, lo, hi, w in blocks) != spec.n_b:
            raise BrokenInvariant(
                f"{spec.key}: the blocks do not cover {spec.n_b} vectors"
            )
        groups = {}
        for swept, lo, hi, w in blocks:
            groups.setdefault((swept, w), []).append((lo, hi))
        plans[spec] = [
            ((sw.field.descriptor, sw.d, sw.s, sw.a, chunk, sw.free_len), w)
            for (sw, w), ranges in groups.items()
            for chunk in _pack(sorted(ranges), size)
        ]
    tasks = list(dict.fromkeys(task for plan in plans.values() for task, _ in plan))
    with run_scope() as scope:
        stream = zip(tasks, scope.imap(_chunk_kernel, tasks, workers))
        results, built = {}, {}
        for spec in specs:
            if spec not in built:
                for task, _ in plans[spec]:
                    while task not in results:  # it may have run for an earlier spec
                        done, result = next(stream)
                        results[done] = result
                built[spec] = _assemble(
                    spec, [(w, results[task]) for task, w in plans[spec]]
                )
            yield built[spec]


def _assemble(spec, results):
    """The FamilyStats of spec from the (weight, kernel result) of its chunks."""
    d = spec.d
    sum_v = sum_v2 = 0
    hist = [0] * (d + 1)
    prod = [[0] * d for _ in range(d)]
    corr = [0] * d
    for w, (sv, sv2, h, pa, gc) in results:
        sum_v += w * sv
        sum_v2 += w * sv2
        for i, x in enumerate(h):
            hist[i] += w * x
        for i in range(d):
            for j in range(d):
                prod[i][j] += w * pa[i][j]
        for i, x in enumerate(gc):
            corr[i] += w * x
    gamma_closed = []
    for r in range(1, d + 1):
        base = sum(h * falling(n, r) for n, h in enumerate(hist))
        gamma_closed.append(base + corr[r - 1])
    return FamilyStats(
        key=spec.key,
        q=spec.q,
        d=d,
        s=spec.s,
        n_b=spec.n_b,
        sum_v=sum_v,
        sum_v2=sum_v2,
        hist_n=tuple(hist),
        prod_a=tuple(tuple(row) for row in prod),
        gamma_closed=tuple(gamma_closed),
    )


def collect_stats(
    spec: FamilySpec,
    workers: int | None = None,
    budget: int | None = DEFAULT_BUDGET,
    chunk_size: int | None = None,
) -> FamilyStats:
    """Run the family sweep and assemble exact aggregate statistics."""
    check_sweepable(spec, budget)
    (stats,) = collect_many([spec], workers, chunk_size)
    return stats
