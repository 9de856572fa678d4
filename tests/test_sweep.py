"""The sweep engine against a direct pure-Python re-derivation.

The oracle below recomputes every aggregate from per-b value profiles
and per-(b,c) root multiplicities using only upoly primitives, so any
vectorization bug in the engine shows up as a mismatch.
"""

import warnings
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

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
    falling,
    multi_root_correction,
    single_root_table,
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
    FamilySpec(F5, 1, 0),
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
    assert [st.key for st in streamed] == [spec.key for spec in STREAM_SPECS]
    assert streamed == [collect_stats(spec) for spec in STREAM_SPECS]


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
    # d = 1 has no free coefficient: one block, the one member
    assert stabiliser_blocks(FamilySpec(F5, 1, 0)) == [(0, 1, 1)]


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
    both = sweep._chunk_kernel(task + (((0, 3), (5, 10)), spec.free_len))
    apart = [
        sweep._chunk_kernel(task + ((r,), spec.free_len)) for r in ((0, 3), (5, 10))
    ]
    assert both[4] != [0] * spec.d  # a class with a multiple root is among them
    assert sweep._assemble(spec, [(1, both)]) == sweep._assemble(
        spec, [(1, part) for part in apart]
    )


def test_pack_cuts_and_merges_ranges():
    packed = list(sweep._pack([(0, 3), (3, 5), (7, 9), (12, 20)], 4))
    assert packed == [((0, 4),), ((4, 5), (7, 9), (12, 13)), ((13, 17),), ((17, 20),)]


def test_budget_guard():
    spec = FamilySpec(F5, 4, 1, (1,))
    with pytest.raises(BudgetExceeded):
        collect_stats(spec, budget=10)


def test_exact_tuple_counts_basics():
    # all simple roots: falling factorials
    assert exact_tuple_counts([], 4, 5) == [falling(4, r) for r in range(1, 6)]
    # one double root alone: tuples (a), (a,a)
    assert exact_tuple_counts([2], 0, 3) == [1, 1, 0]
    # double + simple: r=2 gives (a,a),(a,b),(b,a); r=3 gives 3!/2! = 3
    assert exact_tuple_counts([2], 1, 3) == [2, 3, 3]


def test_gamma_one_closed_is_q_power():
    for spec in (FamilySpec(F5, 4, 1, (1,)), FamilySpec(F7, 4, 2, (1, 2))):
        st = collect_stats(spec)
        assert st.gamma_closed[0] == spec.q ** (spec.d - spec.s)


# -- the prefix/b_1 route: chunks that cut a prefix block of q b-vectors ----

STRADDLE_SPECS = [
    FamilySpec(F7, 4, 1, (3,)),
    FamilySpec(F7, 5, 2, (1, 2)),
    FamilySpec(F7, 1, 0),
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
    table = single_root_table(d)
    for m in range(d + 1):
        for n in range(d + 1):
            row = list(table[m * (d + 1) + n])
            if m >= 2 and 1 <= n and m + n - 1 <= d:
                exact = exact_tuple_counts([m], n - 1, d)
                assert row == [exact[r] - falling(n, r + 1) for r in range(d)]
            else:
                assert row == [0] * d
    for k in range(2, d // 2 + 1):
        for caps in combinations_with_replacement(range(2, d + 1), k):
            for n in range(k, d - sum(caps) + k + 1):
                exact = exact_tuple_counts(list(caps), n - k, d)
                want = tuple(exact[r] - falling(n, r + 1) for r in range(d))
                assert multi_root_correction(caps, n, d) == want
                assert exact_tuple_counts(list(reversed(caps)), n - k, d) == exact


def test_multi_root_codes_past_int64():
    # one class with 14 double roots at d = 30: its code (n, caps) in
    # base 31 needs more than 63 bits
    k, d = 14, 30
    zeros = np.zeros(k, dtype=np.int64)
    got = sweep._gamma_corrections(
        zeros, zeros, np.full(k, k, dtype=np.int64), np.full(k, 2, dtype=np.int64), 31, d
    )
    assert got == list(multi_root_correction((2,) * k, k, d))


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
    d = draw(st_.integers(1, min(5, gf.q - 1)))
    s = 0 if d == 1 else draw(st_.integers(0, d - 2))
    if gf.q ** max(d - s - 1, 0) > 400:
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
    # a corrupt addition table makes f_b constant: one fiber of size q > d
    monkeypatch.setattr(GF, "add_table", lambda self: np.zeros((self.q, self.q), np.int32))
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
