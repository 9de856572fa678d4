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
(b, t) cells, between 1024 and MAX_CHUNK b-vectors.  The prefix grid,
the critical points, their multiplicities and the class counting run
once per chunk, on arrays of about one entry per b-vector.  The cell
phases (the value table, both fiber histograms and the Gram product)
run one tile at a time: a run of whole grid rows of at most TILE_CELLS
= 2^14 cells, or one grid row where a row holds more.  A tile keeps at
most two cell-sized arrays live at once, 16 bytes per cell: one intp
buffer holds first the gather indices, beside the int32 values; then the
(b, c) cells, beside the int64 fiber counts they give; then the (b, N)
codes.  Each tile reads the root counts of its own critical pairs off
its fiber counts and flags its classes with one critical point, so no
array spans the chunk's cells.  Under tracemalloc a default chunk peaks
at 0.99 MiB (4.0 bytes per cell) on 5^2 d5 s1 and at 2.28 MiB on 11^1
d8 s2, where the prefix grid's evaluation sets the peak, and a
1024-vector chunk at q = 4093, one grid row a tile, at 16.0 bytes per
cell.  A family is swept through
its cover (collect_many's cover): weighted index blocks of swept
families.  The blocks of one swept family and one weight are packed
into full chunks, and the parent multiplies each chunk's counts by its
weight (_assemble), so weights never reach the kernel or its float64
bound.

The kernel returns counts, not statistics.  The
per-b sums (sum_v, sum_v2, hist_n, prod_a) all come from the (d+1) x
(d+1) Gram matrix of the chunk's root-count histograms, one float64 BLAS
product.  Its entries are integers of at most chunk * q^2, exact while
that is at most 2^53 (table fields and MAX_CHUNK keep it below 2^40); the
kernel checks the bound and returns the matrix as int64.  _assemble is
the one exact step: once per family it sums the weighted Gram matrices
and class counts in Python ints and reads every field off the sums.

b_1, free in every family (s <= d-2), is the innermost digit of the
enumeration and f_b = g + b_1 T, where g depends only on the outer
prefix idx // q, whose base-q digits are b_2, b_3, ...  So g is
evaluated once per distinct prefix of the chunk, on the grid of those
prefixes and every t, and the value table holds the chunk's own rows
only: each b-row gathers its prefix's grid row against the row b_1 * t
of the multiplication table, so a partial prefix block costs nothing
apart.  Two ranges of one chunk that hold parts of one prefix block
share its grid row; two chunks that do each evaluate g for it.

The j-th Hasse derivative of g is a fixed part, that of T^d and the a
terms, cached as one q-vector per j (_hasse_tables), plus one term
C(i,j) b_i t^(i-j) per free digit, with t^(i-j) read from a table of
powers.  hasse_grid evaluates the prefix grid: consecutive prefixes
share their upper digits, so it adds each digit's term once per distinct
value of the prefix from that digit up, and only b_2's term costs a pass
over every row.  hasse_points evaluates single (prefix, t) points.

Root multiplicities enter only through critical points, where
f_b'(t) = g'(t) + b_1 = 0: every (prefix, t) is critical for exactly
one b_1, so they are read off g' without a scan, and f_b(t) = g(t) +
b_1 t comes from the grid as well.  The multiplicity of a critical
point is the order of the first nonvanishing Hasse derivative there
(characteristic-safe), and for j >= 2 the j-th derivative depends on
the prefix only: j = 0, 1 and 2 come from the grid (values, critical
points, the first multiplicity split), and every j >= 3 from one
hasse_points call on the critical pairs still pending.  A class (b, c)
is one flat index into the chunk's (b, c) root counts, which gives its
root count and is its key.  The kernel counts the classes by shape
(caps, n): the sorted multiplicities of its critical points and its
number of distinct roots.  _assemble adds each shape's gamma correction,
from the memo multi_root_correction, to the all-simple tuple counts.

Each chunk takes its field from parse_descriptor, which returns the one
interned field object per descriptor, so the add and mul tables are
built once per process.  The multi_root_correction memo fills in the
parent, the one process that applies it.

collect_many puts every distinct chunk of a list of families through one
ordered imap and yields each family's stats as its last chunk arrives,
so the caller checks and writes one family while the workers sweep the
next, and no family waits at a barrier of its own.  A chunk that several
families cover runs once.  The stream owns its fork pool (_imap): forked
at its first chunk, closed when the stream ends, fails or is dropped,
and each worker dies with the process that forked it (_die_with_parent).
A stream runs on one worker unless given more.  One worker, or one
chunk, never forks, nor imports multiprocessing.  The CLI runs each
command's whole plan as one such stream, each family through
family.cover, so a run forks at most one pool and every worker builds a
field's tables once per run;
collect_stats is the one-family, one-block case that the independent
checks use.  A stream also fixes glibc's mmap and trim thresholds
(_steady_heap, once per process), so the kernel's temporaries of a few
hundred KB stay in the heap between chunks instead of being unmapped
and faulted in again by the next one.
"""

from __future__ import annotations

import ctypes
import os
import signal
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm

import numpy as np

from .errors import BrokenInvariant, BudgetExceeded, InvalidParameter
from .family import FamilySpec
from .gf import TABLE_LIMIT, parse_descriptor

MAX_CHUNK = 65536
CHUNK_CELLS = 2**18  # (b, t) cells per default chunk
TILE_CELLS = 2**14  # (b, t) cells per tile of the kernel's cell phases
DEFAULT_BUDGET = 10**6
INT64_MAX = 2**63 - 1
FLOAT64_EXACT = 2**53  # every integer up to this is a float64
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
PR_SET_PDEATHSIG = 1  # Linux prctl option: a signal for when the parent dies


@dataclass(frozen=True)
class FamilyStats:
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
        return sum(h * perm(n, r) for n, h in enumerate(self.hist_n))

    def s_mn(self, m: int, n: int) -> int:
        """sum_b [A_m A_n - sum_c C(N,m)C(N,n)]: the c1 != c2 incidences."""
        same_c = sum(h * comb(k, m) * comb(k, n) for k, h in enumerate(self.hist_n))
        return self.prod_a[m - 1][n - 1] - same_c


def exact_tuple_counts(caps, n_simple: int, d: int):
    """W_r for r = 1..d: ordered r-tuples from a multiset of roots.

    caps lists the multiplicities of the non-simple roots; n_simple
    roots have multiplicity 1, a cap of 1 each.  W_r = sum over
    multiplicity choices of the multinomial r!/prod(m_i!), the
    ordered-tuple count.
    """
    w = [0] * (d + 1)
    w[0] = 1
    for cap in list(caps) + [1] * n_simple:
        nw = [0] * (d + 1)
        for j in range(d + 1):
            acc = 0
            for m in range(0, min(cap, j) + 1):
                if w[j - m]:
                    acc += comb(j, m) * w[j - m]
            nw[j] = acc
        w = nw
    return w[1:]


@lru_cache(maxsize=None)
def multi_root_correction(caps: tuple, n_distinct: int, d: int) -> tuple:
    """Gamma correction of a class with multiple roots, for r = 1..d.

    caps holds the multiplicities of its critical points, sorted: the
    count is symmetric in their order.  n_distinct counts all roots of the
    class.  The correction is its ordered-tuple count less the all-simple
    perm(n_distinct, r).
    """
    exact = exact_tuple_counts(list(caps), n_distinct - len(caps), d)
    return tuple(exact[r - 1] - perm(n_distinct, r) for r in range(1, d + 1))


@lru_cache(maxsize=16)
def _hasse_tables(gf, d, s, a):
    """The parts of g's Hasse derivatives that no free digit changes.

    fixed[j] holds, at every t, the j-th Hasse derivative of g's fixed
    part T^d + sum_k a_k T^(d-1-k); power[e] holds t^e; emb[i, j] is
    C(i, j) in the prime field.  All are read-only.
    """
    q = gf.q
    add_t, mul_t = gf.add_table(), gf.mul_table()
    power = np.ones((d + 1, q), dtype=np.int32)
    for e in range(1, d + 1):
        power[e] = mul_t[power[e - 1], np.arange(q)]
    emb = np.array(
        [[gf.embed_int(comb(i, j)) for j in range(d + 1)] for i in range(d + 1)],
        dtype=np.int32,
    )
    coef = {d: 1, **{d - 1 - k: c for k, c in enumerate(a) if c}}
    fixed = np.zeros((d + 1, q), dtype=np.int32)
    for j in range(d + 1):
        for i, c in coef.items():
            if i >= j:
                term = mul_t[gf.mul(int(emb[i, j]), c), power[i - j]]
                fixed[j] = add_t[fixed[j], term]
    for table in (fixed, power, emb):
        table.setflags(write=False)
    return fixed, power, emb


# g = T^d + sum_k a_k T^(d-1-k) + sum_{2<=i<d-s} b_i T^i is f_b without its
# b_1 and b_0 terms; its free digits b_i are the base-q digits of the
# prefix idx // q, b_2 the lowest.  Its j-th Hasse derivative is
# sum_{i>=j} C(i,j) g_i t^(i-j): _hasse_tables gives the fixed part, and
# each free digit adds C(i,j) b_i t^(i-j).  Where i < j, C(i, j) = 0
# zeroes that term, so the row that power[(i - j) % (d + 1)] picks does
# no harm.


def hasse_grid(gf, d, s, a, js, prefixes, i=2):
    """The Hasse derivatives j in js of g at each prefix and every t.

    Returns a (len(js), len(prefixes), q) array.  A call adds the terms
    of the digits from b_i up (callers start at i = 2): a prefix splits
    into b_i and its upper digits, whose terms the recursion evaluates
    once for each run of rows with the same upper digits.
    """
    fixed, power, emb = _hasse_tables(gf, d, s, a)
    q = gf.q
    if i >= d - s:  # no free digit left
        return np.broadcast_to(fixed[js, None], (len(js), len(prefixes), q))
    add_f, mul_f = gf.add_table().ravel(), gf.mul_table().ravel()
    upper, b = np.divmod(prefixes, q)
    new = np.diff(upper, prepend=-1) != 0
    acc = np.take(
        hasse_grid(gf, d, s, a, js, upper[new], i + 1), np.cumsum(new) - 1, axis=1
    )
    c = np.take(mul_f, emb[i, js, None] * q + b)  # C(i, j) b_i, per row
    term = np.take(mul_f, c[:, :, None] * q + power[(i - js) % (d + 1), None])
    return np.take(add_f, acc * q + term)


def hasse_points(gf, d, s, a, js, prefixes, ts):
    """The Hasse derivatives j in js of g at the points (prefixes[k], ts[k]).

    Returns a (len(js), len(ts)) array.
    """
    fixed, power, emb = _hasse_tables(gf, d, s, a)
    q = gf.q
    add_f, mul_f = gf.add_table().ravel(), gf.mul_table().ravel()
    acc = np.take(fixed[js], ts, axis=1)
    powers = np.take(power, ts, axis=1)
    for i in range(2, d - s):
        prefixes, b = np.divmod(prefixes, q)
        c = np.take(mul_f, emb[i, js, None] * q + b)
        term = np.take(mul_f, c * q + powers[(i - js) % (d + 1)])
        acc = np.take(add_f, acc * q + term)
    return acc


def _chunk_kernel(task):
    (descriptor, d, s, a, ranges) = task
    gf = parse_descriptor(descriptor)  # interned: its tables are built once
    q, p = gf.q, gf.p
    mul_t = gf.mul_table()
    add_f, mul_f = gf.add_table().ravel(), mul_t.ravel()
    # idx = prefix * q + b_1: b_1 is the innermost digit, and f_b = g + b_1 T
    # where g drops the b_1 term.  The grid has one row per distinct prefix
    # of the chunk; the chunk's b-row i lies in grid row krow[i], and
    # rowof[k, b_1] is the b-row of grid row k and b_1, or -1
    krow, b1row = np.divmod(np.concatenate([np.arange(lo, hi) for lo, hi in ranges]), q)
    n_chunk = len(krow)
    # the Gram matrix G = H^T H of the per-b histograms H, summed over the
    # tiles in float64, is exact (see the module docstring)
    if n_chunk * q * q > FLOAT64_EXACT:
        raise BrokenInvariant(
            f"a chunk of {n_chunk} at q = {q} leaves float64's exact integers"
        )
    new = np.diff(krow, prepend=-1) != 0
    pidx, krow = krow[new], np.cumsum(new) - 1
    rowof = np.full((len(pidx), q), -1)
    rowof[krow, b1row] = np.arange(n_chunk)

    # g and its first two Hasse derivatives at every t on the prefix grid
    grid = hasse_grid(gf, d, s, a, np.arange(3), pidx)

    # critical points: f_b'(t) = g'(t) + b_1 = 0, the only places where
    # f_b - f_b(t) has a multiple root.  Each (prefix, t) is critical for
    # exactly one b_1 = -g'(t) = (p-1) g'(t), and counts where the chunk
    # holds that b-vector
    b1_crit = np.take(mul_t[p - 1], grid[1])
    brow = np.take(rowof, np.arange(0, rowof.size, q)[:, None] + b1_crit)
    del rowof
    crit = np.flatnonzero(brow >= 0)
    r, t = np.divmod(crit, q)
    # f_b(t) = g(t) + b_1 t; the class (b, f_b(t)) is one flat cell
    fval = np.take(grid[0], crit) * q + np.take(mul_f, np.take(b1_crit, crit) * q + t)
    cells = np.take(brow, crit) * q + np.take(add_f, fval)
    del b1_crit, brow, fval
    # the multiplicity of t in f_b - f_b(t) is the smallest j with a
    # nonzero j-th Hasse derivative; j = 1 vanished by construction.
    # For j >= 2 neither b_0 nor b_1 enters, so g's prefix suffices:
    # j = 2 comes from the grid, and every j >= 3 from one evaluation
    # at the pairs still pending; the d-th derivative of monic g is 1.
    mults = np.full(len(crit), 2)
    pending = np.flatnonzero(np.take(grid[2], crit) == 0)
    if len(pending):
        higher = hasse_points(
            gf, d, s, a, np.arange(3, d + 1), pidx[r[pending]], t[pending]
        )
        mults[pending] = 3 + np.argmax(higher != 0, axis=0)
    del r, t, pending

    # the cell phases run one tile of whole grid rows at a time.  A tile
    # holds one slice of the chunk's b-rows, so each class (b, c) lies in
    # one tile, and crit, ordered by grid row, gives each tile one slice
    # of the critical pairs
    step = max(1, TILE_CELLS // (q * q))  # grid rows per tile
    edges = np.append(np.arange(0, len(pidx), step), len(pidx))
    row_edges = np.searchsorted(krow, edges).tolist()
    pair_edges = np.searchsorted(crit, edges * q).tolist()
    g0q = grid[0] * np.intp(q)
    del grid, crit
    rows = np.arange(min(n_chunk, step * q))[:, None]  # a tile's b-rows at most
    rows_q, rows_d = rows * q, rows * (d + 1)
    gram = np.zeros((d + 1, d + 1))
    nvals = np.empty(len(cells), dtype=np.int64)
    lone = np.empty(len(cells), dtype=bool)
    for i0, i1, c0, c1 in zip(row_edges, row_edges[1:], pair_edges, pair_edges[1:]):
        # values of f_b = g + b_1 t on the tile's b-rows.  The one
        # cell-sized buffer holds the gather indices, as intp so that
        # np.take copies none of them; then the (b, c) cells; then the
        # (b, N) codes.  The indices are in range; mode="raise" would copy
        # through a buffer
        n = i1 - i0
        buf = np.take(g0q, krow[i0:i1], axis=0)
        buf += np.take(mul_t, b1row[i0:i1], axis=0)
        val = np.take(add_f, buf, mode="clip")

        # per-b histogram of values, then per-b histogram of root counts N
        np.add(rows_q[:n], val, out=buf)
        del val
        nmat = np.bincount(buf.ravel(), minlength=buf.size)
        if nmat.max() > d:
            raise BrokenInvariant("a fiber exceeded d roots")
        np.add(rows_d[:n], nmat.reshape(buf.shape), out=buf)
        h = np.bincount(buf.ravel(), minlength=n * (d + 1))
        del buf  # the lone bincount below may take as many entries as nmat
        h = h.reshape(n, d + 1).astype(float)
        gram += h.T @ h  # each partial sum is an integer of the exact range

        # each critical pair reads its class's root count; a class with one
        # critical point, almost every one, is lone
        local = cells[c0:c1] - i0 * q
        nvals[c0:c1] = np.take(nmat, local)
        lone[c0:c1] = np.bincount(local)[local] == 1
        del nmat

    return gram.astype(np.int64), _class_shapes(cells, nvals, mults, lone, d)


def _class_shapes(keys, nvals, mults, lone, d):
    """Count the classes with multiple roots by their shape (caps, n).

    A class is one (b, c) holding critical points, keyed by its flat cell
    index in the chunk's (b, c) table; caps lists the multiplicities of
    its critical points, sorted, and n counts its distinct roots.  Classes
    with one critical point, almost all of them, are flagged lone by the
    kernel and counted by one bincount of n (d+1) + m; only the rest are
    sorted into runs.
    """
    per_code = np.bincount(nvals[lone] * (d + 1) + mults[lone])
    codes = np.flatnonzero(per_code)
    runs = [(1, codes, per_code[codes])]  # (k, distinct codes, their counts)

    rest = np.flatnonzero(~lone)
    order = rest[np.argsort(keys[rest])]
    keys, nvals, mults = keys[order], nvals[order], mults[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sizes = np.diff(np.append(starts, len(keys)))

    # classes with k >= 2 critical points: sort each class's caps and code
    # (n, caps) in base d+1, as the bincount codes (n, m); a 1-d np.unique
    # of the codes is faster than one over rows.  The distinct k come from
    # a bincount: np.unique(sizes) loads numpy.ma
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        first = starts[sizes == k]
        caps = np.sort(mults[first[:, None] + np.arange(k)], axis=1)
        code = nvals[first]
        if (d + 1) ** (k + 1) > INT64_MAX:  # codes past int64: Python ints
            caps, code = caps.astype(object), code.astype(object)
        for col in caps.T:
            code = code * (d + 1) + col
        runs.append((k, *np.unique(code, return_counts=True)))

    shapes = {}
    for k, codes, counts in runs:
        for code, count in zip(codes.tolist(), counts.tolist()):
            caps = []
            for _ in range(k):
                code, cap = divmod(code, d + 1)
                caps.append(cap)
            shapes[tuple(reversed(caps)), code] = count
    return shapes


@lru_cache(maxsize=None)
def _steady_heap():
    """Keep freed kernel temporaries in glibc's heap instead of the OS.

    By default glibc maps blocks above a dynamic threshold (from 128 KiB)
    afresh and trims the heap top above 128 KiB, so a chunk's and a tile's
    arrays are handed back and faulted in again by the next one.  A fixed
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


def _die_with_parent(parent: int):
    """Pool initializer: end this worker when the process that forked it dies.

    A parent killed by a signal it does not handle (SIGKILL, or SIGTERM
    from `timeout`) runs no shutdown, and its workers would wait on the call
    queue forever, holding its pipes open.  PR_SET_PDEATHSIG has the kernel
    send SIGKILL when the forking thread exits; the executor forks from the
    thread that takes the stream's first result, the main thread in the CLI.
    A parent that died before the call has left the worker to another
    process already, so then the worker exits at once.  The signal is
    skipped where libc has no prctl.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):
        pass
    else:
        prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
        prctl.restype = ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)


def _imap(fn, tasks, workers):
    """fn over tasks, lazily and in order.  More than one task on more than
    one worker runs on a fork pool of this stream's own, which closes when
    the stream ends, fails or is dropped: it cancels the tasks not yet
    started and waits for those running.  No worker is killed, since
    multiprocessing.Pool.terminate hangs when it kills one that holds the
    result queue's lock; a worker dies with its parent (_die_with_parent)."""
    _steady_heap()
    if workers == 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    import multiprocessing  # a run on one worker never needs it
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"),
        initializer=_die_with_parent, initargs=(os.getpid(),),
    )
    try:
        yield from pool.map(fn, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


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


def collect_many(specs, workers: int = 1, chunk_size: int | None = None, cover=None):
    """FamilyStats of each spec, in order, from one stream of chunks.

    cover(spec) lists (swept spec, lo, hi, weight) index blocks whose
    weighted stats sum to the spec's (family.cover); by default the whole
    family is one block of weight 1.  The blocks of one swept spec and one
    weight are packed, in index order, into chunks of the chunk size.  A
    chunk is keyed by its task, so one that several specs need runs once,
    and every distinct chunk goes through one imap (_imap), on a pool of
    the stream's own: the caller consumes a spec's stats while the workers
    compute the next ones, and no spec waits for the last chunk of another.
    The pool has `workers` processes; one worker sweeps in this process.
    Covers and stats are built once per distinct spec, and a chunk's
    result is dropped once the last spec that needs it is built.  No
    budget is applied here: the caller judges it (check_sweepable)
    beforehand.
    """
    specs = list(specs)
    plans = {}  # distinct spec -> its (task, weight) pairs
    for spec in dict.fromkeys(specs):
        check_sweepable(spec, budget=None)
        size = chunk_size or min(MAX_CHUNK, max(1024, CHUNK_CELLS // spec.q))
        blocks = [(spec, 0, spec.n_b, 1)] if cover is None else cover(spec)
        if sum(w * (hi - lo) for _, lo, hi, w in blocks) != spec.n_b:
            raise BrokenInvariant(
                f"{spec.key}: the blocks do not cover {spec.n_b} vectors"
            )
        groups = {}
        for swept, lo, hi, w in blocks:
            groups.setdefault((swept, w), []).append((lo, hi))
        plans[spec] = [
            ((sw.field.descriptor, sw.d, sw.s, sw.a, chunk), w)
            for (sw, w), ranges in groups.items()
            for chunk in _pack(sorted(ranges), size)
        ]
    users = Counter(task for plan in plans.values() for task, _ in plan)
    tasks = iter(users)
    stream = _imap(_chunk_kernel, list(users), workers)
    results, built = {}, {}
    for spec in specs:
        if spec not in built:
            for task, _ in plans[spec]:
                while task not in results:  # it may have run for an earlier spec
                    results[next(tasks)] = next(stream)
            built[spec] = _assemble(
                spec, [(w, results[task]) for task, w in plans[spec]]
            )
            for task, _ in plans[spec]:  # drop a result once no spec needs it
                users[task] -= 1
                if not users[task]:
                    del results[task]
        yield built[spec]


def _assemble(spec, results):
    """The FamilyStats of spec from the (weight, kernel result) of its chunks.

    The one exact step: the weighted Gram matrices and class-shape counts
    are summed in Python ints, and every field is read off the sums.  Each
    row of H sums to q, so row n of G sums to q * hist_n[n]; V_b = q -
    H[b, 0]; and prod_a = B^T G B with B[n][k-1] = C(n, k), as A_k(b) =
    (H B)[b, k-1].  gamma_closed counts every class's tuples as if its
    roots were simple, then corrects each class shape with a multiple root.
    """
    q, d = spec.q, spec.d
    gram, shapes = 0, Counter()
    for w, (chunk_gram, chunk_shapes) in results:
        gram = gram + w * chunk_gram.astype(object)
        for shape, count in chunk_shapes.items():
            shapes[shape] += w * count
    hist = [row_sum // q for row_sum in gram.sum(axis=1).tolist()]
    n_vectors = sum(hist) // q
    binom = np.array(
        [[comb(n, k) for k in range(1, d + 1)] for n in range(d + 1)],
        dtype=object,
    )
    gamma_closed = [
        sum(h * perm(n, r) for n, h in enumerate(hist)) for r in range(1, d + 1)
    ]
    for (caps, n), count in shapes.items():
        for r, corr in enumerate(multi_root_correction(caps, n, d)):
            gamma_closed[r] += count * corr
    return FamilyStats(
        q=q,
        d=d,
        s=spec.s,
        n_b=spec.n_b,
        sum_v=n_vectors * q - hist[0],
        sum_v2=n_vectors * q * q - 2 * q * hist[0] + gram[0, 0],
        hist_n=tuple(hist),
        prod_a=tuple(map(tuple, (binom.T @ gram @ binom).tolist())),
        gamma_closed=tuple(gamma_closed),
    )


def collect_stats(
    spec: FamilySpec,
    workers: int = 1,
    budget: int | None = DEFAULT_BUDGET,
    chunk_size: int | None = None,
) -> FamilyStats:
    """Run the family sweep and assemble exact aggregate statistics."""
    check_sweepable(spec, budget)
    (stats,) = collect_many([spec], workers, chunk_size)
    return stats
