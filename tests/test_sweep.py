"""The sweep engine against a direct pure-Python re-derivation.

The oracle below recomputes every aggregate from per-b value profiles
and per-(b,c) root multiplicities using only upoly primitives, so any
vectorization bug in the engine shows up as a mismatch.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb, perm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from vslab import sweep
from vslab.errors import BrokenInvariant, BudgetExceeded
from vslab.family import (
    FamilySpec,
    cover,
    enumerate_b,
    family_poly,
    stabiliser_blocks,
    value_profile,
)
from vslab.gf import GF, make_field
from vslab.sweep import (
    collect_many,
    collect_stats,
    exact_tuple_counts,
    multi_root_correction,
)
from vslab import upoly as up

F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2, [1, 0, 1])


def oracle_stats(spec):
    gf = spec.field
    d = spec.d
    sum_v = sum_v2 = 0
    hist = [0] * (d + 1)
    prod = [[0] * d for _ in range(d)]
    gamma = [0] * d
    from math import comb

    for b in enumerate_b(spec):
        f = family_poly(spec, b, 0)
        by_value = {}
        for t in gf.elements():
            by_value.setdefault(up.eval_at(gf, f, t), []).append(t)
        v = len(by_value)
        sum_v += v
        sum_v2 += v * v
        a_vec = [0] * d
        for c in gf.elements():
            roots = by_value.get(c, [])
            hist[len(roots)] += 1
            for k in range(1, d + 1):
                a_vec[k - 1] += comb(len(roots), k)
            if roots:
                shifted = list(f) + [0] * (d + 1 - len(f))
                shifted[0] = gf.sub(shifted[0], c)
                prof = up.root_profile(gf, up.trim(shifted))
                caps = [prof.multiplicities[t] for t in roots]
                w = exact_tuple_counts(caps, 0, d)
                for r in range(1, d + 1):
                    gamma[r - 1] += w[r - 1]
        for m in range(d):
            for n in range(d):
                prod[m][n] += a_vec[m] * a_vec[n]
    return sum_v, sum_v2, tuple(hist), tuple(tuple(r) for r in prod), tuple(gamma)


SPECS = [
    FamilySpec(F5, 3, 1, (0,)),
    FamilySpec(F5, 3, 1, (2,)),
    FamilySpec(F5, 4, 1, (1,)),
    FamilySpec(F5, 4, 2, (1, 3)),
    FamilySpec(F5, 4, 0),
    FamilySpec(F7, 4, 1, (4,)),
    FamilySpec(F7, 5, 3, (1, 2, 3)),
    FamilySpec(F9, 4, 1, (5,)),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.key)
def test_engine_matches_oracle(spec):
    st = collect_stats(spec)
    ov, ov2, oh, op, og = oracle_stats(spec)
    assert st.sum_v == ov
    assert st.sum_v2 == ov2
    assert st.hist_n == oh
    assert st.prod_a == op
    assert st.gamma_closed == og


def test_partition_invariance():
    spec = FamilySpec(F5, 4, 1, (1,))
    whole = collect_stats(spec)
    tiny_chunks = collect_stats(spec, chunk_size=3)
    assert whole == tiny_chunks
    two_workers = collect_stats(spec, workers=2, chunk_size=5)
    assert whole == two_workers


# 343, 25, 5 and 7 b-vectors
STREAM_SPECS = [
    FamilySpec(F7, 4, 0),
    FamilySpec(F5, 4, 1, (1,)),
    FamilySpec(F5, 3, 1, (0,)),
    FamilySpec(F7, 4, 2, (3, 1)),
]


@pytest.mark.parametrize("chunk_size", [None, 6])
@pytest.mark.parametrize("workers", [1, 2])
def test_stream_yields_each_spec_in_order(chunk_size, workers):
    # by default every spec is one chunk; chunks of 6 cut all but the
    # 5-vector family into several
    streamed = list(collect_many(STREAM_SPECS, workers, chunk_size))
    assert streamed == [collect_stats(spec) for spec in STREAM_SPECS]


def test_a_dropped_stream_leaves_no_worker():
    # the stream owns its pool: closed after its first spec, with chunks of
    # the others still to come, it leaves no worker behind
    stream = collect_many(STREAM_SPECS, workers=2, chunk_size=6)
    assert next(stream) == collect_stats(STREAM_SPECS[0])
    assert multiprocessing.active_children()
    stream.close()
    assert multiprocessing.active_children() == []


def _running(pid):
    """Whether pid names a process that has not died: gone or a zombie is dead."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's prctl")
def test_no_pool_worker_outlives_a_killed_parent(tmp_path):
    # a parent killed by SIGKILL closes no pool: its workers, idle on the
    # call queue, must die with it and not hold its pipes open
    code = (
        "import multiprocessing, os, signal\n"
        "from vslab.family import FamilySpec\n"
        "from vslab.gf import make_field\n"
        "from vslab.sweep import collect_many\n"
        "f7 = make_field(7)\n"
        "specs = [FamilySpec(f7, 4, 1, (1,)), FamilySpec(f7, 5, 1, (2,))]\n"
        "stream = collect_many(specs, workers=2, chunk_size=6)\n"
        "next(stream)\n"
        "print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(sweep.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    out = tmp_path / "pids.txt"
    with open(out, "w") as fh:  # a file, not a pipe the workers could hold open
        done = subprocess.run([sys.executable, "-c", code], env=env, stdout=fh,
                              stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                              timeout=120)
    assert done.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    try:
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.filterwarnings("ignore:q = ")  # q = d = 5
def test_cover():
    # s = 0, p not dividing d: every a_4 lies in the orbit of (0,), so its
    # stabiliser blocks of weight 1, 3 and 3 each stand for 7 families
    zero = FamilySpec(F7, 5, 1, (0,))
    assert cover(FamilySpec(F7, 5, 0)) == [
        (zero, 0, 49, 7), (zero, 49, 98, 21), (zero, 147, 196, 21)
    ]
    # s = 0, p | d: (0,) in its blocks of weight 1, 2 and 2, and the orbit
    # of (1,), of size q - 1 = 4, in five blocks of weight 1 each
    with pytest.warns(UserWarning):
        spec = FamilySpec(F5, 5, 0)  # q = d
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # spec warned once, its parts do not
        blocks = cover(spec)
    zero, one = FamilySpec(F5, 5, 1, (0,)), FamilySpec(F5, 5, 1, (1,))
    assert blocks == [(zero, 0, 25, 1), (zero, 25, 50, 2), (zero, 50, 75, 2)] + [
        (one, r * 25, r * 25 + 25, 4) for r in range(5)
    ]
    # s = 0 at d = 2, where s = 1 names no family, and every s >= 1: the
    # spec's own stabiliser blocks
    for spec in (FamilySpec(F7, 2, 0), FamilySpec(F7, 5, 1, (0,)),
                 FamilySpec(F7, 5, 2, (0, 3)), FamilySpec(F5, 4, 1, (2,))):
        assert cover(spec) == [(spec, *block) for block in stabiliser_blocks(spec)]
    assert cover(FamilySpec(F7, 2, 0)) == [
        (FamilySpec(F7, 2, 0), 0, 1, 1), (FamilySpec(F7, 2, 0), 1, 2, 6)
    ]


def test_stabiliser_blocks():
    # a = 0 at s = 1: G = F_7^*, H = its squares {1, 2, 4}, so block 0 and
    # the cosets of 1 and 3, each standing for 3 blocks of 7^2
    assert stabiliser_blocks(FamilySpec(F7, 5, 1, (0,))) == [
        (0, 49, 1), (49, 98, 3), (147, 196, 3)
    ]
    # a_{d-2} != 0 at s = 2: G = H = {1, -1}, about half of the blocks
    assert stabiliser_blocks(FamilySpec(F7, 5, 2, (0, 3))) == [
        (0, 7, 1), (7, 14, 2), (14, 21, 2), (21, 28, 2)
    ]
    # a_{d-1} != 0: G = {1}, every block its own orbit
    assert stabiliser_blocks(FamilySpec(F5, 4, 1, (2,))) == [
        (r * 5, r * 5 + 5, 1) for r in range(5)
    ]


def test_blocks_must_cover_the_family():
    spec = FamilySpec(F7, 5, 1, (0,))
    short = lambda spec: [(spec, 0, 49, 1), (spec, 49, 98, 3)]  # noqa: E731
    with pytest.raises(BrokenInvariant, match="do not cover 343"):
        list(collect_many([spec], 1, cover=short))


def test_ranges_that_share_a_prefix():
    # b-vectors 0..2 and 5..6 share the prefix block 0..6: the chunk of
    # both ranges counts each b-vector, and each critical point, once
    spec = FamilySpec(F7, 4, 1, (3,))
    task = (spec.field.descriptor, spec.d, spec.s, spec.a)
    both = sweep._chunk_kernel(task + (((0, 3), (5, 10)),))
    apart = [sweep._chunk_kernel(task + ((r,),)) for r in ((0, 3), (5, 10))]
    assert both[1]  # a class with a multiple root is among them
    assert sweep._assemble(spec, [(1, both)]) == sweep._assemble(
        spec, [(1, part) for part in apart]
    )


# (spec, chunk ranges): partial first and last prefix rows; two ranges that
# share a prefix row; extension fields; and a p | d family whose chunk has
# pending critical points and classes with several multiple roots
TILED_CHUNKS = [
    (FamilySpec(F7, 6, 1, (3,)), ((3, 2000),)),
    (FamilySpec(F7, 4, 1, (3,)), ((0, 3), (5, 10))),
    (FamilySpec(F7, 6, 2, (1, 5)), ((10, 96), (97, 300))),
    (FamilySpec(make_field(5, 2), 5, 1, (3,)), ((7, 3000),)),
    (FamilySpec(F9, 6, 2, (1, 4)), ((5, 700),)),
]


@pytest.mark.parametrize("spec, ranges", TILED_CHUNKS, ids=lambda x: str(x))
def test_tiles_give_the_one_tile_result(spec, ranges, monkeypatch):
    task = (spec.field.descriptor, spec.d, spec.s, spec.a, ranges)
    monkeypatch.setattr(sweep, "TILE_CELLS", 2**40)
    gram, shapes = whole = sweep._chunk_kernel(task)
    for cells in (1, 3 * spec.q**2, 7 * spec.q**2):  # 1, 3 and 7 grid rows a tile
        monkeypatch.setattr(sweep, "TILE_CELLS", cells)
        tiled = sweep._chunk_kernel(task)
        assert tiled[0].tolist() == gram.tolist() and tiled[1] == shapes
        stats = sweep._assemble(spec, [(1, tiled)])
        assert stats == sweep._assemble(spec, [(1, whole)])
    if spec.field is F9:
        assert any(len(caps) >= 2 for caps, _ in shapes)
        assert any(max(caps) >= 3 for caps, _ in shapes)  # a pending pair


def test_a_chunk_result_lives_until_its_last_spec(monkeypatch):
    # the s = 0 family is swept through the chunks of its s = 1
    # representative a = (0,), so those outlive that family's own stats and
    # die with the s = 0 stats; the stream's last spec then needs none
    alive = {}
    kernel = sweep._chunk_kernel

    def spy(task):
        result = kernel(task)
        alive[task] = weakref.ref(result[0])
        return result

    monkeypatch.setattr(sweep, "_chunk_kernel", spy)
    one, other = FamilySpec(F7, 4, 1, (0,)), FamilySpec(F7, 4, 1, (2,))
    specs = [one, FamilySpec(F7, 4, 0), other]
    stream = collect_many(specs, 1, chunk_size=10, cover=cover)
    next(stream)
    shared = list(alive)
    assert len(shared) > 1 and all(alive[task]() is not None for task in shared)
    next(stream)
    assert list(alive) == shared and all(alive[task]() is None for task in shared)
    next(stream)
    assert all(ref() is None for ref in alive.values())


def test_pack_cuts_and_merges_ranges():
    packed = list(sweep._pack([(0, 3), (3, 5), (7, 9), (12, 20)], 4))
    assert packed == [((0, 4),), ((4, 5), (7, 9), (12, 13)), ((13, 17),), ((17, 20),)]


def test_budget_guard():
    spec = FamilySpec(F5, 4, 1, (1,))
    with pytest.raises(BudgetExceeded):
        collect_stats(spec, budget=10)


def test_exact_tuple_counts_basics():
    # all simple roots: falling factorials
    assert exact_tuple_counts([], 4, 5) == [perm(4, r) for r in range(1, 6)]
    # one double root alone: tuples (a), (a,a)
    assert exact_tuple_counts([2], 0, 3) == [1, 1, 0]
    # double + simple: r=2 gives (a,a),(a,b),(b,a); r=3 gives 3!/2! = 3
    assert exact_tuple_counts([2], 1, 3) == [2, 3, 3]


def test_exact_tuple_counts_match_brute_force():
    # every multiset of at most d roots: label the roots, enumerate every
    # r-tuple of labels, and keep those that use each root at most its
    # multiplicity
    d, cases = 6, 0
    for k in range(d // 2 + 1):
        for caps in combinations_with_replacement(range(2, d + 1), k):
            for n_simple in range(d - sum(caps) + 1):
                mult = list(caps) + [1] * n_simple
                want = [
                    sum(
                        all(used <= mult[root] for root, used in Counter(t).items())
                        for t in product(range(len(mult)), repeat=r)
                    )
                    for r in range(1, d + 1)
                ]
                assert exact_tuple_counts(list(caps), n_simple, d) == want, caps
                cases += 1
    assert cases == 30


def test_gamma_one_closed_is_q_power():
    for spec in (FamilySpec(F5, 4, 1, (1,)), FamilySpec(F7, 4, 2, (1, 2))):
        st = collect_stats(spec)
        assert st.gamma_closed[0] == spec.q ** (spec.d - spec.s)


# -- the prefix/b_1 route: chunks that cut a prefix block of q b-vectors ----

STRADDLE_SPECS = [
    FamilySpec(F7, 4, 1, (3,)),
    FamilySpec(F7, 5, 2, (1, 2)),
]


@pytest.mark.parametrize("spec", STRADDLE_SPECS, ids=lambda s: s.key)
def test_engine_matches_oracle_on_straddling_chunks(spec):
    ov, ov2, oh, op, og = oracle_stats(spec)
    for chunk_size in (1, spec.q - 1, spec.q + 1, 7):
        st = collect_stats(spec, chunk_size=chunk_size)
        assert (st.sum_v, st.sum_v2, st.hist_n, st.prod_a, st.gamma_closed) == (
            ov, ov2, oh, op, og
        ), chunk_size


def class_kinds(spec):
    """Counter of (b, c) classes by the shape of their multiple roots."""
    gf = spec.field
    kinds = Counter()
    for b in enumerate_b(spec):
        f = family_poly(spec, b, 0)
        for c in gf.elements():
            g = list(f) + [0] * (spec.d + 1 - len(f))
            g[0] = gf.sub(g[0], c)
            mults = [m for m in up.root_profile(gf, up.trim(g)).multiplicities.values()
                     if m >= 2]
            if len(mults) == 1 and mults[0] >= 3:
                kinds["single_higher"] += 1
            elif len(mults) >= 2:
                kinds["multi"] += 1
    return kinds


def test_engine_matches_oracle_p_divides_d(monkeypatch):
    spec = FamilySpec(F9, 6, 2, (1, 4))
    kinds = class_kinds(spec)
    assert kinds["single_higher"] > 0 and kinds["multi"] > 0
    memo_keys = []
    memo = sweep.multi_root_correction

    def spy(caps, n_distinct, d):
        memo_keys.append(caps)
        return memo(caps, n_distinct, d)

    monkeypatch.setattr(sweep, "multi_root_correction", spy)
    st = collect_stats(spec, chunk_size=100)
    assert memo_keys
    ov, ov2, oh, op, og = oracle_stats(spec)
    assert (st.sum_v, st.sum_v2, st.hist_n, st.prod_a, st.gamma_closed) == (
        ov, ov2, oh, op, og
    )


@pytest.mark.parametrize("d", range(2, 10))
def test_correction_table_and_memo_match_tuple_counts(d):
    # one-cap shapes: a class of n distinct roots, one of multiplicity m
    for m in range(2, d + 1):
        for n in range(1, d - m + 2):
            exact = exact_tuple_counts([m], n - 1, d)
            want = tuple(exact[r] - perm(n, r + 1) for r in range(d))
            assert multi_root_correction((m,), n, d) == want
    for k in range(2, d // 2 + 1):
        for caps in combinations_with_replacement(range(2, d + 1), k):
            for n in range(k, d - sum(caps) + k + 1):
                exact = exact_tuple_counts(list(caps), n - k, d)
                want = tuple(exact[r] - perm(n, r + 1) for r in range(d))
                assert multi_root_correction(caps, n, d) == want
                assert exact_tuple_counts(list(reversed(caps)), n - k, d) == exact


def test_multi_root_codes_past_int64():
    # one class with 14 double roots at d = 30: its code (n, caps) in
    # base 31 needs more than 63 bits, and the counter still returns its
    # shape, whose memo correction is that of 14 double roots
    k, d = 14, 30
    zeros = np.zeros(k, dtype=np.int64)
    lone = np.zeros(k, dtype=bool)
    shapes = sweep._class_shapes(
        zeros, np.full(k, k, dtype=np.int64), np.full(k, 2, dtype=np.int64), lone, d
    )
    assert shapes == {((2,) * k, k): 1}
    exact = exact_tuple_counts([2] * k, 0, d)
    assert multi_root_correction((2,) * k, k, d) == tuple(
        exact[r] - perm(k, r + 1) for r in range(d)
    )


def hasse_oracle(gf, d, s, a, prefix, j, t):
    """sum_{i>=j} C(i,j) g_i t^(i-j) in scalar GF arithmetic, where g has
    the prefix's base-q digits as b_2, b_3, ... and no b_1 or b_0 term."""
    g = [0] * (d + 1)
    g[d] = 1
    for k, c in enumerate(a):
        g[d - 1 - k] = c
    for i in range(2, d - s):
        prefix, g[i] = divmod(prefix, gf.q)
    acc = 0
    for i in range(j, d + 1):
        term = gf.mul(gf.embed_int(comb(i, j)), gf.mul(g[i], gf.pow(t, i - j)))
        acc = gf.add(acc, term)
    return acc


# p divides C(i, j) for some 0 < j < i <= d whenever d >= p; d = 1 and
# d = 2 leave g no free digit
HASSE_FAMILIES = [
    (make_field(3, 2), 6, 2, (1, 4)),
    (make_field(3, 3), 5, 1, (7,)),
    (F5, 7, 2, (0, 3)),
    (F5, 1, 0, ()),
    (F7, 8, 3, (1, 0, 5)),
    (F7, 2, 0, ()),
]


@pytest.mark.parametrize("gf, d, s, a", HASSE_FAMILIES, ids=lambda x: repr(x))
def test_hasse_evaluators_match_scalar_oracle(gf, d, s, a):
    q = gf.q
    n_prefix = q ** max(d - s - 2, 0)
    picks = sorted({*range(0, n_prefix, max(1, n_prefix // 9)), n_prefix - 1})
    # the first prefix twice, as when two ranges of a chunk share it
    prefixes = np.array(picks[:1] + picks, dtype=np.int64)
    js = np.arange(d + 1)
    want = [
        [[hasse_oracle(gf, d, s, a, int(pre), j, t) for t in range(q)] for pre in prefixes]
        for j in range(d + 1)
    ]
    assert sweep.hasse_grid(gf, d, s, a, js, prefixes).tolist() == want
    points = sweep.hasse_points(
        gf, d, s, a, js, np.repeat(prefixes, q), np.tile(np.arange(q), len(prefixes))
    )
    assert points.reshape(d + 1, len(prefixes), q).tolist() == want


def _kernel_peak(task):
    """The tracemalloc peak of one kernel call, its tables and caches built."""
    sweep._chunk_kernel(task)
    tracemalloc.start()
    try:
        sweep._chunk_kernel(task)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_inside_one_prefix_block_memory():
    # a chunk of 1024 b-vectors inside the one prefix block of q = 4093
    # vectors builds its value table on its own rows; at most two arrays of
    # 1024 * q entries, 8 bytes each, are live at once (the cell buffer and
    # the fiber counts), so the peak stays under 17 bytes per cell
    gf = make_field(4093)
    spec = FamilySpec(gf, 4, 2, (5, 11))
    task = (gf.descriptor, spec.d, spec.s, spec.a, ((1000, 2024),))
    assert _kernel_peak(task) <= 17 * 1024 * gf.q


@pytest.mark.parametrize("p, k, d, s, a, mib", [
    (5, 2, 5, 1, (0,), 1.19),
    (11, 1, 8, 2, (0, 4), 2.74),
], ids=["5^2-d5-s1", "11^1-d8-s2"])
def test_default_chunk_memory(p, k, d, s, a, mib):
    # the first default chunk of 2^18 (b, t) cells, whose cell phases run
    # in tiles of about 2^14 cells, peaks within 20% of the 0.99 and 2.28
    # MiB measured (on 11^1 the prefix grid's evaluation sets it); with
    # every cell phase on the whole chunk it took 4.70 and 6.18 MiB
    spec = FamilySpec(make_field(p, k), d, s, a)
    size = min(sweep.MAX_CHUNK, max(1024, sweep.CHUNK_CELLS // spec.q))
    task = (spec.field.descriptor, d, s, a, ((0, size),))
    assert _kernel_peak(task) <= mib * 2**20


def profile_stats(spec):
    """sum_v, sum_v2, hist_n, prod_a from per-b value profiles."""
    d = spec.d
    sum_v = sum_v2 = 0
    hist = [0] * (d + 1)
    prod = [[0] * d for _ in range(d)]
    for b in enumerate_b(spec):
        counts = value_profile(spec, b)
        v = sum(1 for n in counts if n)
        sum_v += v
        sum_v2 += v * v
        for n in counts:
            hist[n] += 1
        a_vec = [sum(comb(n, k) for n in counts) for k in range(1, d + 1)]
        for m in range(d):
            for n in range(d):
                prod[m][n] += a_vec[m] * a_vec[n]
    return sum_v, sum_v2, tuple(hist), tuple(tuple(r) for r in prod)


@st_.composite
def small_specs(draw):
    gf = draw(st_.sampled_from([make_field(3), F5, F7, F9]))
    d = draw(st_.integers(2, min(5, gf.q - 1)))
    s = draw(st_.integers(0, d - 2))
    if gf.q ** (d - s - 1) > 400:
        s = d - 2
    a = tuple(draw(st_.integers(0, gf.q - 1)) for _ in range(s))
    return FamilySpec(gf, d, s, a)


@settings(max_examples=30, deadline=None)
@given(spec=small_specs(), chunk_size=st_.integers(1, 60))
def test_engine_matches_value_profile(spec, chunk_size):
    st = collect_stats(spec, chunk_size=chunk_size)
    assert (st.sum_v, st.sum_v2, st.hist_n, st.prod_a) == profile_stats(spec)
    assert st.gamma_closed[0] == spec.q ** (spec.d - spec.s)
    assert st.gamma_closed == oracle_stats(spec)[4]


@settings(max_examples=30, deadline=None)
@given(spec=small_specs(), blocks=st_.integers(0, 3), cut=st_.integers(1, 8))
def test_gram_prod_a_matches_value_profile_on_cut_blocks(spec, blocks, cut):
    # a chunk of blocks * q + cut b-vectors, cut not a multiple of q, ends
    # inside a prefix block of q consecutive b-vectors, and so does every
    # later chunk boundary up to the q-th
    chunk_size = blocks * spec.q + cut
    if cut % spec.q == 0 or chunk_size >= spec.n_b:
        chunk_size = max(1, spec.q - 1)
    st = collect_stats(spec, chunk_size=chunk_size)
    assert (st.sum_v, st.sum_v2, st.hist_n, st.prod_a) == profile_stats(spec)


@settings(max_examples=30, deadline=None)
@given(spec=small_specs(), chunk_size=st_.integers(1, 60), workers=st_.integers(1, 2))
def test_packed_blocks_equal_the_full_sweep(spec, chunk_size, workers):
    # chunks of one weight hold several blocks, cut anywhere; the parent
    # weights each chunk's sums.  At s = 0 and d >= 3 the blocks are those
    # of the s = 1 families
    (packed,) = collect_many([spec], workers, chunk_size, cover=cover)
    assert packed == collect_stats(spec)


# -- explicit invariants --------------------------------------------------


def test_gram_exactness_guard_raises(monkeypatch):
    # prod_a is read off a float64 Gram matrix whose entries are at most
    # chunk * q^2; the kernel refuses a chunk past the exact range
    spec = FamilySpec(F7, 4, 1, (1,))
    whole = collect_stats(spec, chunk_size=10)
    monkeypatch.setattr(sweep, "FLOAT64_EXACT", 10 * 7 * 7)
    assert collect_stats(spec, chunk_size=10) == whole
    monkeypatch.setattr(sweep, "FLOAT64_EXACT", 10 * 7 * 7 - 1)
    with pytest.raises(BrokenInvariant, match="exact"):
        collect_stats(spec, chunk_size=10)
    # every table field at the largest chunk is far inside the bound
    assert sweep.MAX_CHUNK * sweep.TABLE_LIMIT**2 <= 2**53


def test_fiber_invariant_raises(monkeypatch):
    # a corrupt addition table makes f_b constant: one fiber of size q > d.
    # The Hasse tables built from it must not stay cached for later tests
    monkeypatch.setattr(GF, "add_table", lambda self: np.zeros((self.q, self.q), np.int32))
    monkeypatch.setattr(sweep, "_hasse_tables", sweep._hasse_tables.__wrapped__)
    with pytest.raises(BrokenInvariant):
        collect_stats(FamilySpec(F7, 4, 1, (1,)))


def test_extreme_table_field_sweeps(monkeypatch):
    gf = make_field(4093)
    # d = 4: check the sums against plain modular arithmetic
    spec = FamilySpec(gf, 4, 2, (5, 11))
    st = collect_stats(spec)
    q, d = spec.q, spec.d
    t = np.arange(q, dtype=np.int64)
    g = (t**4 + 5 * t**3 + 11 * t**2) % q
    sum_v = sum_v2 = 0
    hist = np.zeros(d + 1, dtype=np.int64)
    prod = np.zeros((d, d), dtype=object)
    binom = np.array([[comb(n, k) for k in range(1, d + 1)] for n in range(d + 1)])
    for lo in range(0, q, 512):
        b1 = np.arange(lo, min(lo + 512, q), dtype=np.int64)[:, None]
        vals = (g[None, :] + b1 * t[None, :]) % q
        nmat = np.stack([np.bincount(row, minlength=q) for row in vals])
        v = (nmat > 0).sum(axis=1)
        sum_v += int(v.sum())
        sum_v2 += int((v * v).sum())
        hist += np.bincount(nmat.ravel(), minlength=d + 1)
        a_cols = np.stack([np.bincount(row, minlength=d + 1) for row in nmat]) @ binom
        prod += a_cols.T.astype(object) @ a_cols.astype(object)
    assert (st.sum_v, st.sum_v2) == (sum_v, sum_v2)
    assert st.hist_n == tuple(int(x) for x in hist)
    assert st.prod_a == tuple(tuple(int(x) for x in row) for row in prod)
    assert st.gamma_closed[0] == q ** (d - spec.s)

    # d = 22 and d = 40: A_k(b) <= (q/d) C(d, k) lets a chunk's sum of
    # A_k(b)^2 pass int64, but the Gram route keeps no such sum, so the
    # default chunk of 1024 runs uncut and d = 40 computes
    assert 1024 * (q * comb(22, 11) // 22) ** 2 > 2**63
    spans = []
    kernel = sweep._chunk_kernel

    def spy(task):
        spans.append(sum(hi - lo for lo, hi in task[4]))
        return kernel(task)

    monkeypatch.setattr(sweep, "_chunk_kernel", spy)
    spec = FamilySpec(gf, 22, 20, tuple(range(1, 21)))
    st = collect_stats(spec)
    assert max(spans) == 1024
    assert st == collect_stats(spec, chunk_size=535)
    assert sum(st.hist_n) == q * q
    assert st.gamma_closed[0] == q**2
    st = collect_stats(FamilySpec(gf, 40, 38, (0,) * 38))
    assert sum(st.hist_n) == q * q
    assert st.gamma_closed[0] == q**2
