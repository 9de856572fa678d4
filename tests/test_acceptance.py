"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here: identities are exact rational equality,
dual-method counts are exact integer equality, and bound checks use
lhs <= rhs * (1 + 1e-9) with the left side exact.  Run with -s to see
the per-criterion lines.
"""

import itertools
import time
from fractions import Fraction
from math import comb, factorial

import numpy as np

from vslab import upoly as up
from vslab.bounds import applicability, bound_suite, unimodality_audit
from vslab.counting import (
    chi_r,
    divides_check_multiplicity,
    gamma_counts_mn,
    linear_system_audit,
    s_mn,
)
from vslab.family import FamilySpec, enumerate_b, family_poly
from vslab.gf import make_field
from vslab.moments import (
    build_moment_report,
    cohen_exact_mean,
    mu,
    one_minus_inv_e_enclosure,
    reconstruct_mean,
)
from vslab.sweep import collect_stats

FIELDS = {}
STATS = {}


def field_for(q):
    if q not in FIELDS:
        p, k = {25: (5, 2), 27: (3, 3)}.get(q, (q, 1))
        FIELDS[q] = make_field(p, k)
    return FIELDS[q]


def stats_for(spec, budget=10**6):
    if spec.key not in STATS:
        STATS[spec.key] = collect_stats(spec, workers=2, budget=budget)
    return STATS[spec.key]


def verdict(n, ok, detail=""):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_01_cohen_identity():
    t0 = time.time()
    cases = [(5, 3), (5, 4), (7, 3), (7, 5), (11, 4), (13, 5)]
    for q, d in cases:
        spec = FamilySpec(field_for(q), d, 0)
        brute = stats_for(spec).mean
        assert brute == cohen_exact_mean(q, d), (q, d)
    ok = verdict(1, True, f"Cohen identity exact on {len(cases)} (q,d) "
                          f"[{time.time()-t0:.1f}s]")
    assert ok


def test_criterion_02_mean_reconstruction_all_a():
    t0 = time.time()
    total = 0
    for q, d, s in [(5, 4, 1), (5, 4, 2), (7, 4, 1), (7, 5, 2), (7, 5, 3)]:
        field = field_for(q)
        for a in itertools.product(range(q), repeat=s):
            spec = FamilySpec(field, d, s, a)
            stats = stats_for(spec)
            chi = {r: stats.chi(r) for r in range(d - s + 1, d + 1)}
            assert reconstruct_mean(spec, chi) == stats.mean, spec.key
            total += 1
    ok = verdict(2, True, f"mean reconstruction identity exact on {total} specs "
                          f"[{time.time()-t0:.1f}s]")
    assert ok


CHI_INSTANCES = [(5, 3, 1), (7, 4, 1), (7, 4, 2)]


def chi_accept_specs():
    for q, d, s in CHI_INSTANCES:
        for base in (0, 1, 2):
            yield FamilySpec(field_for(q), d, s, (base,) * s)


def test_criterion_03_chi_dual_method():
    t0 = time.time()
    checked = 0
    for spec in chi_accept_specs():
        d, s, q = spec.d, spec.s, spec.q
        stats = stats_for(spec)
        for r in range(d - s + 1, d + 1):
            assert comb(q, r) <= 10**6
            assert stats.chi(r) == chi_r(spec, r), (spec.key, r)
            checked += 1
    ok = verdict(3, True, f"chi_r profile == subsets on {checked} (spec, r) "
                          f"[{time.time()-t0:.1f}s]")
    assert ok


V2_INSTANCES = [(5, 4, 1), (5, 4, 0), (7, 4, 1), (7, 5, 0)]


def v2_accept_specs():
    for q, d, s in V2_INSTANCES:
        field = field_for(q)
        if s == 0:
            yield FamilySpec(field, d, 0)
        else:
            for base in (0, 1, 2):
                yield FamilySpec(field, d, s, (base,) * s)


def test_criterion_04_second_moment_reconstruction():
    t0 = time.time()
    residuals = []
    for spec in v2_accept_specs():
        stats = stats_for(spec)
        cols, _ = build_moment_report(spec, stats)
        assert cols["v2_exact_mode"] == cols["second_moment"], spec.key
        residuals.append((spec.key, cols["paper_mode_residual"]))
    ok = verdict(
        4,
        True,
        f"mode=exact V2 reconstruction exact on {len(residuals)} specs "
        f"[{time.time()-t0:.1f}s]",
    )
    print("           printed-formula (mode=paper) residuals, reported per "
          "the open question:")
    for key, resid in residuals:
        print(f"             {key}: paper - exact = {resid}")
    assert ok


def test_criterion_05_smn_dual_and_symmetric():
    t0 = time.time()
    q, d, s = 5, 3, 1
    checked = 0
    for a in range(q):
        spec = FamilySpec(field_for(q), d, s, (a,))
        stats = stats_for(spec)
        for m in range(1, d + 1):
            for n in range(1, d + 1):
                prof = stats.s_mn(m, n)
                assert prof == stats.s_mn(n, m)
                assert prof == s_mn(spec, m, n), (spec.key, m, n)
                checked += 1
    ok = verdict(5, True, f"S_mn profile == brute, symmetric: {checked} cells "
                          f"[{time.time()-t0:.1f}s]")
    assert ok


def test_criterion_06_linear_system_audit():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=2026))
    checked = 0
    for q, d, s in [(5, 4, 1), (7, 5, 1)]:
        spec = FamilySpec(field_for(q), d, s, (1,) * s)
        assert q ** (d - s + 1) <= 10**6
        exhaustive = _exhaustive_pair_counts(spec)
        for _ in range(25):
            total = d - s
            m = int(rng.integers(1, total))
            n = int(rng.integers(1, total - m + 1))
            perm = [int(x) for x in rng.permutation(q)]
            g1, g2 = set(perm[:m]), set(perm[m : m + n])
            audit = linear_system_audit(spec, g1, g2)
            assert audit["rank"] == m + n
            assert audit["count_all"] == q ** (d - s + 1 - m - n)
            b_all, b_strict = exhaustive(frozenset(g1), frozenset(g2))
            assert audit["count_all"] == b_all
            assert audit["count_strict"] == b_strict
            checked += 1
    ok = verdict(6, True, f"rank/count audit vs exhaustive on {checked} pairs "
                          f"[{time.time()-t0:.1f}s]")
    assert ok


def _exhaustive_pair_counts(spec):
    gf = spec.field
    values = [
        up.batch_eval(gf, family_poly(spec, b, 0)) for b in enumerate_b(spec)
    ]

    def count(g1, g2):
        c_all = c_strict = 0
        for vals in values:
            v1 = {vals[t] for t in g1}
            v2 = {vals[t] for t in g2}
            if len(v1) == 1 and len(v2) == 1:
                c_all += 1
                c_strict += v1 != v2
        return c_all, c_strict

    return count


def test_criterion_07_gamma_count_identities():
    t0 = time.time()
    checked = 0
    for spec in chi_accept_specs():
        stats = stats_for(spec)
        d, s, q = spec.d, spec.s, spec.q
        assert stats.gamma_closed[0] == q ** (d - s)
        for r in range(d - s + 1, d + 1):
            assert stats.gamma_open(r) == factorial(r) * chi_r(spec, r)
            checked += 1
    q, d, s = 5, 3, 1
    for a in range(q):
        spec = FamilySpec(field_for(q), d, s, (a,))
        for m in range(1, d + 1):
            for n in range(1, d + 1):
                g = gamma_counts_mn(spec, [(m, n)])[m, n]
                brute = s_mn(spec, m, n)
                assert g.affine_open == factorial(m) * factorial(n) * brute
                checked += 1
    ok = verdict(7, True, f"Gamma open/closed identities on {checked} counts "
                          f"[{time.time()-t0:.1f}s]")
    assert ok


def test_criterion_08_divisibility_oracle_exhaustive():
    t0 = time.time()
    q, d, s = 5, 4, 1
    field = field_for(q)
    checked = 0
    for a in range(q):
        spec = FamilySpec(field, d, s, (a,))
        for b2 in range(q):
            for b1 in range(q):
                for b0 in range(q):
                    b0_full = (b2, b1, b0)
                    f = family_poly(spec, (b2, b1), b0)
                    for r in (1, 2, 3):
                        for alpha in itertools.product(range(q), repeat=r):
                            newton = up.divides_at_nodes(field, f, alpha)
                            mult = divides_check_multiplicity(
                                spec, b0_full, alpha
                            )
                            assert newton == mult, (spec.key, b0_full, alpha)
                            checked += 1
    ok = verdict(8, True, f"Newton vs multiplicity oracle on {checked} cases "
                          f"[{time.time()-t0:.1f}s]")
    assert ok


BOUND_GRID_Q = (7, 11, 13, 25, 27)
BOUND_GRID_D = (5, 6, 7, 8, 9)
ACCEPT_BUDGET = 10**6


def test_criterion_09_bound_suite():
    t0 = time.time()
    ran = skipped_budget = inapplicable = 0
    failures = []
    for q in BOUND_GRID_Q:
        field = field_for(q)
        for d in BOUND_GRID_D:
            for s in range(0, d - 1):
                kinds = applicability(q, d, s, field.p)
                if not kinds:
                    inapplicable += 1
                    continue
                a = tuple(range(1, s + 1))
                spec = FamilySpec(field, d, s, a)
                if spec.n_b > ACCEPT_BUDGET:
                    skipped_budget += 1
                    continue
                stats = stats_for(spec, budget=ACCEPT_BUDGET)
                for check in bound_suite(spec, stats):
                    if not check.applicable:
                        continue
                    ran += 1
                    if not check.passed:
                        failures.append(check)
    detail = (
        f"{ran} applicable checks pass; {skipped_budget} instances over the "
        f"{ACCEPT_BUDGET} b-vector budget (all at q=27 and deep q>=11 grids), "
        f"{inapplicable} grid points inapplicable [{time.time()-t0:.1f}s]"
    )
    ok = verdict(9, not failures, detail)
    assert ok, failures[:5]


def test_criterion_10_unimodality():
    t0 = time.time()
    audit5 = unimodality_audit(5)
    assert audit5.values == (120, 600, 600, 200, 25)
    assert audit5.argmax_set == (1, 2) and audit5.k0 == 2
    for d in range(2, 61):
        audit = unimodality_audit(d)
        assert audit.classification in ("increasing", "unimodal")
        assert audit.k0 in audit.argmax_set
    ok = verdict(10, True, f"h(k) shape + argmax at floor(k0) for d in [2,60] "
                           f"[{time.time()-t0:.1f}s]")
    assert ok


APPENDIX_CASES = [(7, 4), (5, 5), (3, 6), (3, 4), (5, 6), (3, 7)]
SUBRES_CASES = [(5, 3), (7, 4), (3, 3), (5, 5)]


def odd_case_discriminant(p, d):
    """The p | d-1, d odd discriminant from the Poisson route.

    Res(F, B2 T^2 - B0) / ((-1)^d B0) evaluated at T = +-r, r^2 = B0/B2:
    -4 B0 B2^d + B0^(d-1) + 2 B0^h B1 B2^h + B1^2 B2^(d-1), h = (d-1)/2.
    """
    from vslab import mpoly as mp

    h = (d - 1) // 2
    return mp.MultiPoly(
        p,
        ("B0", "B1", "B2"),
        {(1, 0, d): -4, (d - 1, 0, 0): 1, (h, 1, h): 2, (0, 2, d - 1): 1},
    )


def test_criterion_11_appendix_formulas():
    from vslab import mpoly as mp
    from vslab.appendix import (
        appendix_case_check,
        closed_form_target,
        generic_disc,
        match_up_to_scalar,
        resultant_b0_degree,
        subres1_terms_check,
    )

    t0 = time.time()
    failures = []
    notes = []
    checks = 0
    for p, d in APPENDIX_CASES:
        rep = appendix_case_check(p, d)
        checks += 1
        if rep.case != "p_divides_d_minus_1_odd":
            if rep.matched not in ("exact", "up_to_scalar"):
                failures.append(f"case ({p},{d}) [{rep.case}]: matched={rep.matched}")
            continue
        # the quoted d-odd form is a finding: it must keep failing, and
        # the discriminant must be the Poisson-route form exactly
        want = odd_case_discriminant(p, d)
        w = mp.WeightSystem((d, d - 1, d - 2))
        if rep.matched != "failed":
            failures.append(
                f"case ({p},{d}) [{rep.case}]: quoted form matched={rep.matched}"
            )
        if rep.derived_matched != "exact":
            failures.append(f"case ({p},{d}): derived_matched={rep.derived_matched}")
        if match_up_to_scalar(rep.computed, want) != ("exact", 1):
            failures.append(
                f"case ({p},{d}): computed {rep.computed.text()} != {want.text()}"
            )
        if list(mp.weight_decompose(rep.target, w)) == [d * (d - 1)]:
            failures.append(f"case ({p},{d}): quoted form is weight-homogeneous")
        notes.append(
            f"({p},{d}): determinant and Poisson-route derivations "
            f"agree with each other ({rep.derived_matched}) and equal "
            f"-4 B0 B2^d + B0^(d-1) + 2 B0^((d-1)/2) B1 B2^((d-1)/2) + "
            f"B1^2 B2^(d-1), not the quoted d-odd closed form; the quoted "
            f"middle term is not weight-homogeneous of weight d(d-1) and "
            f"its B1^2 sign is flipped, so the printed formula cannot be "
            f"the discriminant (computed: {rep.computed.text()}; "
            f"quoted: {rep.target.text()})"
        )
    for p, d in SUBRES_CASES:
        rep = subres1_terms_check(p, d)
        checks += 1
        if rep.matched not in ("exact", "up_to_sign"):
            failures.append(f"subres ({p},{d}): matched={rep.matched}")
    for p, d in dict.fromkeys(APPENDIX_CASES + SUBRES_CASES):
        free = {0, 1} if (d % p and (d - 1) % p) else {0, 1, 2}
        disc = generic_disc(p, d, free)
        checks += 2
        # Res(T^d + B0, d T^(d-1)) = d^d B0^(d-1) fixes the top coefficient
        top_expo = tuple(d - 1 if n == "B0" else 0 for n in disc.names)
        top = disc.terms.get(top_expo, 0)
        if top != pow(d, d, p):
            failures.append(
                f"B0^(d-1) coefficient ({p},{d}): got {top}, want d^d = {pow(d, d, p)}"
            )
        deg = resultant_b0_degree(p, d, free)
        if d % p:
            want_deg = d - 1
        else:
            # the d-1 claim is stated for p not dividing d only; here the
            # discriminant has the B0-degree of the quoted p | d form
            quoted = closed_form_target(p, d, "p_divides_d", disc.names)
            want_deg = quoted.degree_in("B0")
            notes.append(
                f"({p},{d}): the B0^(d-1) coefficient of the "
                f"discriminant is d^d = 0 mod p when p | d, so deg_B0 = d-1 "
                f"is unattainable there; the source states the d-1 degree "
                f"inside its p-not-dividing-d argument only; the quoted p | d "
                f"closed form has deg_B0 = {want_deg}"
            )
        if deg != want_deg:
            failures.append(f"deg_B0 ({p},{d}): got {deg}, criterion wants {want_deg}")
    for p, d in [(7, 4), (5, 5)]:
        disc = generic_disc(p, d, set(range(d)))
        w = mp.WeightSystem(tuple(d - j for j in range(d)))
        checks += 1
        if list(mp.weight_decompose(disc, w)) != [d * (d - 1)]:
            failures.append(f"homogeneity ({p},{d})")
    ok = verdict(
        11,
        not failures,
        f"{len(failures)} of {checks} appendix checks fail; the quoted "
        f"d-odd form and deg_B0 for p | d are pinned [{time.time()-t0:.1f}s]",
    )
    for note in notes:
        print(f"           analysis: {note}")
    assert ok, failures


def test_criterion_12_mu_convergence():
    t0 = time.time()
    lo, hi = one_minus_inv_e_enclosure()
    assert hi - lo < Fraction(1, 10**50)
    for d in range(1, 21):
        m = mu(d)
        assert max(abs(m - lo), abs(m - hi)) <= Fraction(1, factorial(d + 1))
    ok = verdict(12, True, f"|mu_d - (1 - 1/e)| <= 1/(d+1)! for d in [1,20] "
                           f"[{time.time()-t0:.1f}s]")
    assert ok
