"""Independent oracles for the counts the sweep reads off `FamilyStats`,
and the linear-system / Jacobian diagnostics.

The subset route for chi_r, the brute route for S_mn, the Gamma_mn scan
and the linear-system audit use scalar field arithmetic only, through
`GF`'s scalar and row operations (horner_steps, scale_row,
sub_scaled_row), never the engine's numpy tables, and they have explicit
budget caps; they must agree exactly with the sweep they check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm

from .errors import BudgetExceeded, InvalidParameter
from .family import FamilySpec, enumerate_b, family_poly
from .sweep import exact_tuple_counts
from .upoly import (
    ZERO,
    batch_eval,
    derivative,
    eval_at,
    poly_divmod,
    poly_mul,
    root_profile,
)

SUBSET_BUDGET = 10**6


@dataclass(frozen=True)
class GammaCounts:
    """Point counts of an incidence variety and its closure."""

    affine_open: int
    closed: int


@lru_cache(maxsize=None)
def _base_poly(spec: FamilySpec):
    """f_a, the member at b = 0 and b0 = 0, low-to-high."""
    return family_poly(spec, (0,) * spec.free_len)


def _root_product(gf, nodes):
    """prod (T - alpha) over the nodes, repeats included, low-to-high."""
    prod = (1,)
    for alpha in nodes:
        prod = poly_mul(gf, prod, (gf.neg(alpha), 1))
    return prod


def interpolating_b0(spec: FamilySpec, subset):
    """The unique (b, b0) whose member vanishes on the subset, if any.

    Reduce f_a modulo prod(T - alpha): the member exists iff the
    remainder has degree <= d-s-1, and then its negated coefficients
    are (b_1..b_{d-s-1}, b_0).  Only valid in the uniqueness regime
    r >= d-s+1.
    """
    subset = tuple(sorted(set(subset)))
    r = len(subset)
    d, s, gf = spec.d, spec.s, spec.field
    if r < d - s + 1:
        raise InvalidParameter(f"need |subset| >= {d - s + 1}, got {r}")
    _, rem = poly_divmod(gf, _base_poly(spec), _root_product(gf, subset))
    if rem and len(rem) - 1 > d - s - 1:
        return None
    dense = list(rem) + [0] * (d - s - len(rem))
    b = tuple(gf.neg(dense[i]) for i in range(d - s - 1, 0, -1))
    b0 = gf.neg(dense[0])
    return b, b0


def chi_r(spec: FamilySpec, r: int, budget: int = SUBSET_BUDGET) -> int:
    """Number of r-subsets of F_q annihilated by some family member, by a
    walk over the r-subsets (`_subset_walk`)."""
    d, s = spec.d, spec.s
    if r > d:
        return 0
    if r < d - s + 1:
        raise InvalidParameter(
            f"chi_r needs the uniqueness regime r >= d-s+1 = {d - s + 1}"
        )
    check_chi_r_budget(spec, r, budget)
    return _subset_walk(spec, r)


def check_chi_r_budget(spec: FamilySpec, r: int, budget: int):
    """Refuse a chi_r walk over more than budget r-subsets."""
    if comb(spec.q, r) > budget:
        raise BudgetExceeded(f"C({spec.q},{r}) exceeds the subset budget {budget}")


def _subset_walk(spec: FamilySpec, r: int) -> int:
    """The r-subsets on which f_a agrees with a polynomial of degree < d-s.

    Those are the subsets some member f_b + b0 vanishes on.  The sorted
    subsets are visited depth-first.  A node at depth j carries the
    Newton quotient g_j of f_a at its nodes (alpha_0, ..., alpha_{j-1}),
    so appending alpha costs one synthetic division: g_j(alpha) is the
    divided difference c_j and the quotient is g_{j+1}.  The remainder
    of f_a modulo prod(T - alpha_i) is sum_j c_j prod_{i<j}(T - alpha_i),
    so a member exists iff c_j = 0 for every j >= d-s; a nonzero c_j at
    such a depth prunes every subset below the node.
    """
    q, horner_steps = spec.q, spec.field.horner_steps
    free = spec.d - spec.s
    f_a = _base_poly(spec)[::-1]  # high-to-low

    def walk(g, start, depth):
        count = 0
        for alpha in range(start, q - r + depth + 1):
            steps = horner_steps(g, alpha)
            if steps.pop() and depth >= free:
                continue
            if depth + 1 == r:
                count += 1
            else:
                count += walk(steps, alpha + 1, depth + 1)
        return count

    return walk(f_a, 0, 0)


def s_mn(spec: FamilySpec, m: int, n: int, budget: int = SUBSET_BUDGET) -> int:
    """Triples (b, b01, b02), b01 != b02, with annihilated m- and n-sets,
    by brute force over every member and subset pair."""
    d, q, gf = spec.d, spec.q, spec.field
    if m > d or n > d or m < 1 or n < 1:
        return 0
    check_s_mn_budget(spec, m, n, budget)
    m_sets = list(itertools.combinations(range(q), m))
    n_sets = m_sets if n == m else list(itertools.combinations(range(q), n))
    total = 0
    for b in enumerate_b(spec):
        vals = batch_eval(gf, family_poly(spec, b, 0))
        consts_m = _constant_values(vals, m_sets)
        consts_n = consts_m if n == m else _constant_values(vals, n_sets)
        # subsets with different constant values are disjoint
        for c1 in consts_m:
            for c2 in consts_n:
                if c1 != c2:
                    total += 1
    return total


def check_s_mn_budget(spec: FamilySpec, m: int, n: int, budget: int):
    """Refuse an S_mn enumeration of more than budget steps."""
    pairs = comb(spec.q, m) * comb(spec.q, n)
    if pairs * spec.n_b * (m + n) > budget:
        raise BudgetExceeded(
            f"brute S_mn enumeration over {pairs} subset pairs x "
            f"{spec.n_b} members exceeds the budget {budget}"
        )


def _constant_values(vals, subsets):
    """The value vals takes on each subset where it is constant."""
    out = []
    for g in subsets:
        c = vals[g[0]]
        if all(vals[t] == c for t in g):
            out.append(c)
    return out


def gamma_counts_mn(
    spec: FamilySpec, pairs, budget: int = SUBSET_BUDGET, r_values=()
) -> dict:
    """Point counts of Gamma_mn (pairwise-distinct coordinates, b01 != b02)
    and Gamma_mn^* (diagonal included), keyed by (m, n) for each requested
    pair, and of Gamma_r and Gamma_r^*, keyed by r for each r in r_values,
    from one scan over b shared by all of them (`_root_scan`).

    Per member, with F_k(c) = N_b(c)! / (N_b(c) - k)! the ordered k-tuples
    of distinct roots of f_b - c, the open Gamma_r count is sum_c F_r(c),
    and the open Gamma_mn count is sum_{c1 != c2} F_m(c1) F_n(c2) =
    (sum_c F_m)(sum_c F_n) - sum_c F_m F_n.
    """
    d, q = spec.d, spec.q
    pairs, r_values = list(pairs), list(r_values)
    if not pairs and not r_values:
        return {}
    orders = {k for pair in pairs for k in pair}.union(r_values)
    if not orders <= set(range(1, d + 1)):
        raise InvalidParameter(f"need every r, m and n in 1..{d}, got {sorted(orders)}")
    if spec.n_b * q > budget:
        raise BudgetExceeded(
            f"closed Gamma_mn scan needs {spec.n_b * q} root profiles, "
            f"over the subset budget {budget}"
        )
    open_ = dict.fromkeys(pairs + r_values, 0)
    closed = dict.fromkeys(pairs + r_values, 0)
    for w, sizes in _root_scan(spec):
        f = {r: [perm(k, r) for k in sizes] for r in orders}
        for r in r_values:
            open_[r] += sum(f[r])
            closed[r] += w[r - 1]
        for m, n in pairs:
            same_c = sum(x * y for x, y in zip(f[m], f[n]))
            open_[m, n] += sum(f[m]) * sum(f[n]) - same_c
            closed[m, n] += w[m - 1] * w[n - 1]
    return {
        key: GammaCounts(affine_open=open_[key], closed=closed[key])
        for key in open_
    }


def _root_scan(spec: FamilySpec):
    """Per member f_b, the pair (W, N): W = (W_1, ..., W_d), where W_r is
    the number of (b0, ordered r-tuple) with the tuple a root multiset of
    f_b + b0, and N lists the number of distinct roots of f_b - c for
    each value c that f_b takes.

    Roots of f_b - c are the t in the fibre of c; a root's exact
    multiplicity comes from repeated synthetic division at t.  The
    ordered-tuple counts depend only on the sorted multiplicities, so
    they are memoized per sorted tuple for the whole scan.
    """
    d, gf = spec.d, spec.field
    horner_steps = gf.horner_steps
    memo = {}
    for b in enumerate_b(spec):
        f = spec.coeff_vector(b, 0)[::-1]  # high-to-low
        fibres = {}
        for t in gf.elements():
            steps = horner_steps(f, t)
            value = steps.pop()
            # t is a root of f - value; it stays one of each quotient
            # while the quotient vanishes there (the last quotient is 1)
            e = 1
            while True:
                steps = horner_steps(steps, t)
                if steps.pop():
                    break
                e += 1
            fibres.setdefault(value, []).append(e)
        w = [0] * d
        for caps in fibres.values():
            key = tuple(sorted(caps))
            if key not in memo:
                memo[key] = exact_tuple_counts(key, 0, d)
            for r, x in enumerate(memo[key]):
                w[r] += x
        yield w, [len(caps) for caps in fibres.values()]


# -- linear-system audit ------------------------------------------------------


def _row_reduce(gf, rows):
    """Reduced row echelon over F_q; returns (rank, pivot column list,
    reduced rows).  The reduced rows have the row space of the input."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    pivots = []
    for col in range(n_cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = gf.scale_row(gf.inv(rows[rank][col]), rows[rank])
        rows[rank] = pivot_row
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = gf.sub_scaled_row(rows[i], rows[i][col], pivot_row)
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots, rows


def matrix_rank(gf, rows) -> int:
    return _row_reduce(gf, rows)[0]


def _pivot_counts(q, pivots, n_unknowns):
    """(rank, number of solutions over F_q) of a system whose reduced
    augmented matrix [rows | rhs] has these pivot columns: the rank counts
    the pivots left of the rhs column, and a pivot in that column means no
    solution."""
    rank = sum(col < n_unknowns for col in pivots)
    if rank < len(pivots):
        return rank, 0
    return rank, q ** (n_unknowns - rank)


def _solve_count(gf, rows, rhs, n_unknowns):
    """(rank of rows, number of solutions of rows * x = rhs over F_q),
    from one reduction of the augmented matrix."""
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    _, pivots, _ = _row_reduce(gf, aug)
    return _pivot_counts(gf.q, pivots, n_unknowns)


def brute_linear_counts(
    spec: FamilySpec, gamma1, gamma2, budget: int = SUBSET_BUDGET
) -> tuple:
    """(count_all, count_strict) of linear_system_audit by brute force over
    every member f_b: those constant on both subsets, and those among them
    whose two constants differ.  Refused when its n_b * q evaluations, each
    member at every point, exceed the budget."""
    if spec.n_b * spec.q > budget:
        raise BudgetExceeded(
            f"brute audit needs {spec.n_b * spec.q} evaluations, "
            f"over the subset budget {budget}"
        )
    subsets = [sorted(gamma1), sorted(gamma2)]
    count_all = count_strict = 0
    for b in enumerate_b(spec):
        vals = batch_eval(spec.field, family_poly(spec, b, 0))
        consts = _constant_values(vals, subsets)
        if len(consts) == 2:
            count_all += 1
            count_strict += consts[0] != consts[1]
    return count_all, count_strict


def _descending_powers(gf, alpha, top):
    """[alpha^top, ..., alpha^1], by a running product."""
    powers = []
    x = 1
    for _ in range(top):
        x = gf.mul(x, alpha)
        powers.append(x)
    return powers[::-1]


def vandermonde_rows(spec: FamilySpec, gamma1, gamma2):
    """The (m+n) x (d-s+1) matrix and rhs of the vanishing conditions.

    Unknowns are ordered (b_{d-s-1}, ..., b_1, b01, b02); the right-hand
    side is -f_a at each node.
    """
    gf, d, s = spec.field, spec.d, spec.s
    f_a = _base_poly(spec)
    rows, rhs = [], []
    for kind, gamma in ((0, gamma1), (1, gamma2)):
        for alpha in gamma:
            powers = _descending_powers(gf, alpha, d - s - 1)
            row = powers + ([1, 0] if kind == 0 else [0, 1])
            rows.append(row)
            rhs.append(gf.neg(eval_at(gf, f_a, alpha)))
    return rows, rhs


def linear_system_audit(spec: FamilySpec, gamma1, gamma2) -> dict:
    """Rank and solution counts of the two-subset vanishing system."""
    gamma1, gamma2 = set(gamma1), set(gamma2)
    if gamma1 & gamma2:
        raise InvalidParameter(f"subsets share {sorted(gamma1 & gamma2)}")
    m, n = len(gamma1), len(gamma2)
    d, s = spec.d, spec.s
    if m + n > d - s:
        raise InvalidParameter(
            f"audit is for the low regime m+n <= d-s = {d - s}, got {m + n}"
        )
    gf = spec.field
    n_unknowns = d - s + 1
    rows, rhs = vandermonde_rows(spec, sorted(gamma1), sorted(gamma2))
    aug = [row + [v] for row, v in zip(rows, rhs)]
    _, pivots, reduced = _row_reduce(gf, aug)
    rank, count_all = _pivot_counts(gf.q, pivots, n_unknowns)
    # the b01 = b02 hyperplane, as one extra equation [0 .. 0 1 -1 | 0]; the
    # reduced rows have the solutions of the system, and re-reducing them
    # with one more row costs about one row operation per pivot
    diag_row = [0] * (d - s - 1) + [1, gf.neg(1), 0]
    _, diag_pivots, _ = _row_reduce(gf, reduced + [diag_row])
    _, count_diag = _pivot_counts(gf.q, diag_pivots, n_unknowns)
    return {
        "rank": rank,
        "count_all": count_all,
        "count_strict": count_all - count_diag,
    }


def jacobian_rank(spec: FamilySpec, b0_full, alpha) -> int:
    """Rank of the incidence Jacobian at a point of Gamma_r^*.

    b0_full = (b_{d-s-1}, ..., b_1, b_0); each row is the gradient of
    one vanishing condition: the B-powers, the constant column, and the
    diagonal derivative entry f'(alpha_i).
    """
    gf, d, s = spec.field, spec.d, spec.s
    b0_full = tuple(b0_full)
    if len(b0_full) != d - s:
        raise InvalidParameter(f"expected {d - s} coordinates, got {len(b0_full)}")
    b, b0 = b0_full[: d - s - 1], b0_full[-1]
    f = family_poly(spec, b, b0)
    r = len(alpha)
    for a_i in alpha:
        if eval_at(gf, f, a_i) != 0:
            raise InvalidParameter(f"alpha={a_i} is not a root of the member")
    fp = derivative(gf, f)
    rows = []
    for i, a_i in enumerate(alpha):
        powers = _descending_powers(gf, a_i, d - s - 1)
        diag = [0] * r
        diag[i] = eval_at(gf, fp, a_i) if fp else 0
        rows.append(powers + [1] + diag)
    return matrix_rank(gf, rows)


def divides_check_multiplicity(spec: FamilySpec, b0_full, alpha) -> bool:
    """Multiset-multiplicity membership test for Gamma_r^*."""
    gf = spec.field
    b, b0 = tuple(b0_full[: spec.d - spec.s - 1]), b0_full[-1]
    f = family_poly(spec, b, b0)
    prof = root_profile(gf, f)
    need = {}
    for a_i in alpha:
        need[a_i] = need.get(a_i, 0) + 1
    return all(prof.multiplicities.get(t, 0) >= c for t, c in need.items())


def divides_check_division(spec: FamilySpec, b0_full, alpha) -> bool:
    """Direct polynomial-division membership test for Gamma_r^*."""
    gf = spec.field
    b, b0 = tuple(b0_full[: spec.d - spec.s - 1]), b0_full[-1]
    f = family_poly(spec, b, b0)
    prod = _root_product(gf, alpha)
    if len(prod) - 1 > len(f) - 1:
        return False
    _, rem = poly_divmod(gf, f, prod)
    return rem == ZERO
