import itertools
import json
import random
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st_

from vslab import cli
from vslab import counting as ct
from vslab.errors import BudgetExceeded, InvalidParameter
from vslab.counting import (
    chi_r,
    divides_check_division,
    divides_check_multiplicity,
    gamma_counts_mn,
    interpolating_b0,
    jacobian_rank,
    linear_system_audit,
    s_mn,
)
from vslab.family import FamilySpec, enumerate_b, family_poly
from vslab.gf import make_field
from vslab.sweep import collect_stats, exact_tuple_counts
from vslab import upoly as up

F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)
F25 = make_field(5, 2)


def test_interpolating_b0_examples():
    spec = FamilySpec(F5, 3, 1, (0,))
    # subset {0,1,4}: prod = T^3 + 4T, remainder of T^3 is T, so the
    # member T^3 + 4T vanishes there: b1 = 4, b0 = 0 (checked below)
    got = interpolating_b0(spec, {0, 1, 4})
    assert got == ((4,), 0)
    f = family_poly(spec, *got)
    assert all(up.eval_at(F5, f, t) == 0 for t in (0, 1, 4))
    # subset {0,1,2}: T^2 coefficient of the product is 2 != a_2 = 0
    assert interpolating_b0(spec, {0, 1, 2}) is None
    with pytest.raises(InvalidParameter, match=r"need \|subset\| >= "):
        interpolating_b0(spec, {0, 1})  # r = d-s


def test_interpolating_b0_against_exhaustive_search():
    spec = FamilySpec(F5, 3, 1, (0,))
    for subset in itertools.combinations(range(5), 3):
        found = [
            (b, b0)
            for b in enumerate_b(spec)
            for b0 in range(5)
            if all(
                up.eval_at(F5, family_poly(spec, b, b0), t) == 0 for t in subset
            )
        ]
        got = interpolating_b0(spec, subset)
        if got is None:
            assert found == []
        else:
            assert found == [got]


def test_chi3_subset_count_frozen():
    # 3-subsets of F_5 with zero elementary symmetric e1 (= a_2 matching):
    # {0,1,4} and {0,2,3}; frozen after enumerating all C(5,3) = 10.
    spec = FamilySpec(F5, 3, 1, (0,))
    brute = sum(
        1
        for subset in itertools.combinations(range(5), 3)
        if sum(subset) % 5 == 0
    )
    assert brute == 2
    assert chi_r(spec, 3) == 2
    assert collect_stats(spec).chi(3) == 2


def test_chi_r_dual_method_equality():
    cases = [
        (FamilySpec(F5, 3, 1, (a,)), range(3, 4)) for a in range(5)
    ] + [
        (FamilySpec(F7, 4, 1, (2,)), range(4, 5)),
        (FamilySpec(F7, 4, 2, (1, 2)), range(3, 5)),
    ]
    for spec, rs in cases:
        st = collect_stats(spec)
        for r in rs:
            assert st.chi(r) == chi_r(spec, r)


def test_chi_r_edges():
    spec = FamilySpec(F5, 3, 1, (1,))
    assert chi_r(spec, 4) == 0  # r > d
    with pytest.raises(InvalidParameter, match="uniqueness regime r >= d-s[+]1"):
        chi_r(spec, 2)  # r = d-s
    with pytest.raises(BudgetExceeded):
        chi_r(spec, 3, budget=3)


def test_low_range_incidences_match_closed_form():
    # In the low range every r-subset has exactly q^(d-s-r) interpolating
    # pairs, so the profile incidence count equals C(q,r) q^(d-s-r).
    spec = FamilySpec(F7, 5, 1, (3,))
    st = collect_stats(spec)
    for r in range(1, spec.d - spec.s + 1):
        assert st.chi(r) == comb(7, r) * 7 ** (spec.d - spec.s - r)


def test_s_mn_symmetry_and_duality():
    spec = FamilySpec(F5, 3, 1, (1,))
    st = collect_stats(spec)
    for m in range(1, 4):
        for n in range(1, 4):
            prof = st.s_mn(m, n)
            assert prof == st.s_mn(n, m)
            assert prof == s_mn(spec, m, n)
    assert s_mn(spec, 4, 1) == 0  # m > d


def test_gamma_counts_r_identities():
    for spec in (FamilySpec(F5, 3, 1, (1,)), FamilySpec(F7, 4, 2, (1, 2))):
        st = collect_stats(spec)
        d, s = spec.d, spec.s
        assert st.gamma_closed[0] == spec.q ** (d - s)
        for r in range(d - s + 1, d + 1):
            assert st.gamma_open(r) == factorial(r) * chi_r(spec, r)
            assert st.gamma_closed[r - 1] >= st.gamma_open(r)


def test_gamma_counts_mn_identities():
    spec = FamilySpec(F5, 3, 1, (1,))
    st = collect_stats(spec)
    pairs = [(m, n) for m in range(1, 4) for n in range(1, 4)]
    counts = gamma_counts_mn(spec, pairs, r_values=[1, 2, 3])
    assert list(counts) == pairs + [1, 2, 3]
    for m, n in pairs:
        g = counts[m, n]
        expected = factorial(m) * factorial(n) * st.s_mn(m, n)
        assert g.affine_open == expected
        assert g.closed >= g.affine_open
    # the same scan counts Gamma_r and Gamma_r^*
    for r in range(1, 4):
        assert counts[r].affine_open == factorial(r) * st.chi(r)
        assert counts[r].closed == st.gamma_closed[r - 1]
    # (1,1) closed includes the diagonal c1 = c2
    g11 = gamma_counts_mn(spec, [(1, 1)])[1, 1]
    assert g11.closed > g11.affine_open


def test_gamma_mn_closed_against_direct_count():
    # direct count over (b, b01, b02, ordered tuples) at tiny size
    spec = FamilySpec(F5, 3, 1, (2,))
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        direct = 0
        for b in enumerate_b(spec):
            for b01 in range(5):
                f1 = family_poly(spec, b, b01)
                w_m = sum(
                    1
                    for tup in itertools.product(range(5), repeat=m)
                    if up.divides_at_nodes(F5, f1, tup)
                )
                for b02 in range(5):
                    f2 = family_poly(spec, b, b02)
                    w_n = sum(
                        1
                        for tup in itertools.product(range(5), repeat=n)
                        if up.divides_at_nodes(F5, f2, tup)
                    )
                    direct += w_m * w_n
        assert gamma_counts_mn(spec, [(m, n)])[m, n].closed == direct


def test_linear_system_audit_exhaustive():
    rng = random.Random(97)
    for spec in (FamilySpec(F5, 4, 1, (1,)), FamilySpec(F7, 5, 1, (3,))):
        q, d, s = spec.q, spec.d, spec.s
        gf = spec.field
        for _ in range(12):
            m = rng.randrange(1, d - s)
            n = rng.randrange(1, d - s - m + 1)
            pool = list(range(q))
            rng.shuffle(pool)
            g1, g2 = set(pool[:m]), set(pool[m : m + n])
            audit = linear_system_audit(spec, g1, g2)
            assert audit["rank"] == m + n
            assert audit["count_all"] == q ** (d - s + 1 - m - n)
            # exhaustive verification over (b, b01, b02)
            count_all = count_strict = 0
            for b in enumerate_b(spec):
                vals = up.batch_eval(gf, family_poly(spec, b, 0))
                c1 = {vals[t] for t in g1}
                c2 = {vals[t] for t in g2}
                if len(c1) == 1 and len(c2) == 1:
                    count_all += 1
                    if c1 != c2:
                        count_strict += 1
            assert audit["count_all"] == count_all
            assert audit["count_strict"] == count_strict


def _random_row(rng, gf, rows, n):
    """A zero row, a repeat of one of rows, or a random row of length n."""
    pick = rng.randrange(4)
    if pick == 0:
        return [0] * n
    if pick == 1 and rows:
        return list(rng.choice(rows))
    return [rng.randrange(gf.q) for _ in range(n)]


def test_the_audit_reuses_one_reduction():
    # linear_system_audit appends its b01 = b02 row to the reduced rows;
    # reducing the original rows with that row from scratch is the reference
    rng = random.Random(17)
    for gf in (F5, F9):
        for _ in range(400):
            n = rng.randrange(1, 5)
            rows, rhs = [], []
            for _ in range(rng.randrange(0, 6)):
                rows.append(_random_row(rng, gf, rows, n))
                # half the rhs repeat an earlier one, so repeated rows are
                # sometimes consistent and sometimes not
                rhs.append(rng.choice(rhs) if rhs and rng.randrange(2)
                           else rng.randrange(gf.q))
            extra, e = _random_row(rng, gf, rows, n), rng.randrange(gf.q)
            aug = [row + [v] for row, v in zip(rows, rhs)]
            _, _, reduced = ct._row_reduce(gf, aug)
            _, pivots, _ = ct._row_reduce(gf, reduced + [extra + [e]])
            assert ct._pivot_counts(gf.q, pivots, n) == ct._solve_count(
                gf, rows + [extra], rhs + [e], n
            )


def test_audit_linear_all_a_matches_brute(tmp_path):
    out = tmp_path / "audit.json"
    assert cli.main(["audit-linear", "--field", "7^1", "--d", "5", "--s", "1",
                     "--a", "all", "--count", "4", "--workers", "1",
                     "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 7 * 4
    for row in rows:
        spec = FamilySpec(F7, 5, 1, (int(row["spec"].rsplit("=", 1)[1]),))
        assert row["spec"] == spec.key
        brute = ct.brute_linear_counts(spec, row["gamma1"], row["gamma2"])
        assert (row["count_all"], row["count_strict"]) == brute, row


def test_linear_system_audit_errors():
    spec = FamilySpec(F5, 4, 1, (1,))
    with pytest.raises(InvalidParameter, match=r"subsets share \[1\]"):
        linear_system_audit(spec, {0, 1}, {1, 2})
    with pytest.raises(InvalidParameter, match="low regime m[+]n <= d-s"):
        linear_system_audit(spec, {0, 1}, {2, 3})  # m+n > d-s


def test_solve_count_inconsistent_and_consistent():
    # a repeated row with a different rhs has no solution; the rank still
    # counts only the coefficient columns
    rows = [[1, 2, 0], [1, 2, 0], [0, 0, 1]]
    assert ct._solve_count(F5, rows, [3, 4, 1], 3) == (2, 0)
    assert ct._solve_count(F5, rows, [3, 3, 1], 3) == (2, 5)
    assert ct._solve_count(F5, [], [], 2) == (0, 25)


def test_jacobian_rank_cases():
    spec = FamilySpec(F7, 4, 1, (0,))
    # f = T^4 + T^2 = T^2 (T^2+1): roots 0 (double); T^2+1 irreducible
    b0_full = (0, 1, 0)  # b2=0, b1=1? layout: (b_{d-s-1}, ..., b_1, b_0)
    f = family_poly(spec, b0_full[:2], b0_full[2])
    prof = up.root_profile(F7, f)
    simple = [t for t, e in prof.multiplicities.items() if e == 1]
    multiple = [t for t, e in prof.multiplicities.items() if e >= 2]
    # r = 1 always has rank 1 (the constant column)
    some_root = next(iter(prof.multiplicities))
    assert jacobian_rank(spec, b0_full, (some_root,)) == 1
    if len(simple) >= 2:
        assert jacobian_rank(spec, b0_full, tuple(simple[:2])) == 2
    if multiple:
        t = multiple[0]
        assert jacobian_rank(spec, b0_full, (t, t)) < 2  # identical rows
    with pytest.raises(InvalidParameter, match="is not a root of the member"):
        bad = next(t for t in range(7) if up.eval_at(F7, f, t) != 0)
        jacobian_rank(spec, b0_full, (bad,))


def test_jacobian_full_rank_on_simple_roots():
    rng = random.Random(13)
    spec = FamilySpec(F5, 4, 1, (1,))
    hits = 0
    while hits < 20:
        b = (rng.randrange(5), rng.randrange(5))
        b0 = rng.randrange(5)
        f = family_poly(spec, b, b0)
        prof = up.root_profile(F5, f)
        simple = [t for t, e in prof.multiplicities.items() if e == 1]
        if len(simple) < 2:
            continue
        r = rng.randrange(2, len(simple) + 1)
        alpha = tuple(simple[:r])
        assert jacobian_rank(spec, b + (b0,), alpha) == r
        hits += 1


def test_divides_oracles_agree_three_ways():
    rng = random.Random(29)
    spec = FamilySpec(F5, 4, 1, (2,))
    for _ in range(400):
        b = (rng.randrange(5), rng.randrange(5))
        b0 = rng.randrange(5)
        r = rng.randrange(1, 4)
        alpha = tuple(rng.randrange(5) for _ in range(r))
        f = family_poly(spec, b, b0)
        newton = up.divides_at_nodes(F5, f, alpha)
        mult = divides_check_multiplicity(spec, b + (b0,), alpha)
        division = divides_check_division(spec, b + (b0,), alpha)
        assert newton == mult == division


# -- the fast oracle routes against their plain definitions --------------------
#
# Desk instances over 7^1, 3^2 and 5^2; p | d occurs at 3^2 with d = 3, 6
# and at 5^2 with d = 5, and every d reaches the largest s = d-2.  The
# size caps keep each plain count below a few thousand steps.


def _desk_points(cells, cost, limit):
    """(gf, d, s, *cell) for each cell of cells(d, s) within the cost limit."""
    return [
        (gf, d, s, *cell)
        for gf in (F7, F9, F25)
        for d in range(2, min(gf.q - 1, 7) + 1)
        for s in range(d - 1)
        for cell in cells(d, s)
        if cost(gf.q, d, s, *cell) <= limit
    ]


def _pairs(d, s):
    return itertools.product(range(1, d + 1), repeat=2)


@st_.composite
def desk_spec(draw, points):
    gf, d, s, *cell = draw(st_.sampled_from(points))
    a = tuple(draw(st_.integers(0, gf.q - 1)) for _ in range(s))
    return (FamilySpec(gf, d, s, a), *cell)


# (gf, d, s, r): r in the uniqueness range, C(q, r) subsets
CHI_POINTS = _desk_points(
    lambda d, s: [(r,) for r in range(d - s + 1, d + 1)],
    lambda q, d, s, r: comb(q, r), 2500,
)
# (gf, d, s, m, n): n_b members, each against q values and q roots
GAMMA_POINTS = _desk_points(_pairs, lambda q, d, s, m, n: q ** (d - s + 1), 20000)
# (gf, d, s, m, n): n_b members against C(q, m) C(q, n) subset pairs
SMN_POINTS = _desk_points(
    _pairs, lambda q, d, s, m, n: q ** (d - s - 1) * comb(q, m) * comb(q, n), 20000
)


def test_desk_points_cover_the_edge_cases():
    for points in (CHI_POINTS, GAMMA_POINTS, SMN_POINTS):
        fields = {gf for gf, *_ in points}
        assert fields == {F7, F9, F25}
        assert any(d % gf.p == 0 for gf, d, *_ in points)  # p | d
        assert any(s == d - 2 for gf, d, s, *_ in points)  # the largest s


@settings(max_examples=40, deadline=None)
@given(case=desk_spec(CHI_POINTS))
@example(case=(FamilySpec(F9, 6, 3, (1, 0, 2)), 4))  # p | d
@example(case=(FamilySpec(F25, 5, 3, (7, 0, 24)), 3))  # p | d, s = d-2
def test_subset_walk_equals_per_subset_witness(case):
    spec, r = case
    plain = sum(
        interpolating_b0(spec, subset) is not None
        for subset in itertools.combinations(range(spec.q), r)
    )
    assert chi_r(spec, r) == plain


def _closed_mn_per_pair(spec, m, n):
    """The closed Gamma_mn count pair by pair: every value c, its root
    profile, and the ordered-tuple counts of the multiplicities."""
    gf = spec.field
    closed = 0
    for b in enumerate_b(spec):
        w_m = w_n = 0
        for c in gf.elements():
            f = family_poly(spec, b, gf.neg(c))
            caps = list(up.root_profile(gf, f).multiplicities.values())
            w = exact_tuple_counts(caps, 0, spec.d)
            w_m += w[m - 1]
            w_n += w[n - 1]
        closed += w_m * w_n
    return closed


@settings(max_examples=30, deadline=None)
@given(case=desk_spec(GAMMA_POINTS), more=st_.lists(
    st_.tuples(st_.integers(1, 7), st_.integers(1, 7)), max_size=2))
@example(case=(FamilySpec(F9, 3, 1, (2,)), 3, 1), more=[(2, 2)])  # p | d
def test_one_scan_gamma_equals_per_pair_count(case, more):
    spec, m, n = case
    pairs = list(dict.fromkeys([(m, n)] + [
        (x, y) for x, y in more if x <= spec.d and y <= spec.d
    ]))
    got = gamma_counts_mn(spec, pairs)
    assert list(got) == pairs
    for x, y in pairs:
        assert got[x, y].closed == _closed_mn_per_pair(spec, x, y), (x, y)


@settings(max_examples=40, deadline=None)
@given(case=desk_spec(SMN_POINTS))
@example(case=(FamilySpec(F9, 3, 1, (0,)), 2, 1))  # p | d
def test_hoisted_brute_equals_per_pair_set_check(case):
    spec, m, n = case
    gf = spec.field
    members = [up.batch_eval(gf, family_poly(spec, b, 0)) for b in enumerate_b(spec)]
    plain = 0
    for g1 in itertools.combinations(range(spec.q), m):
        for g2 in itertools.combinations(range(spec.q), n):
            if set(g1) & set(g2):
                continue
            for vals in members:
                c1 = {vals[t] for t in g1}
                c2 = {vals[t] for t in g2}
                plain += len(c1) == 1 and len(c2) == 1 and c1 != c2
    assert s_mn(spec, m, n) == plain


def test_cmd_gamma_scans_once_per_a_vector(tmp_path, monkeypatch):
    calls = []
    real = ct.gamma_counts_mn

    def counted(spec, pairs, **kw):
        calls.append((spec.a, list(pairs)))
        return real(spec, pairs, **kw)

    monkeypatch.setattr(ct, "gamma_counts_mn", counted)
    code = cli.main(["gamma", "--field", "5^1", "--d", "3", "--s", "1", "--a", "all",
                     "--m", "1,2", "--n", "1,2", "--out", str(tmp_path / "g.json")])
    assert code == 0
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert calls == [((a,), pairs) for a in range(5)]
