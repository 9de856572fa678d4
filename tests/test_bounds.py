import math

import pytest

from vslab.bounds import (
    LOG_SPACE_THRESHOLD,
    applicability,
    bound_suite,
    bound_value,
    d_mn,
    d_r,
    delta_mn,
    delta_r,
    h_value,
    k0_floor,
    unimodality_audit,
    xi_mn,
)
from vslab import bounds
from vslab.errors import BrokenInvariant, InvalidParameter
from vslab.family import FamilySpec
from vslab.gf import make_field
from vslab.sweep import collect_stats


def test_parameter_values():
    assert d_r(5, 5) == 10 and delta_r(5, 5) == 120
    assert d_r(4, 1) == 3 and delta_r(4, 1) == 4
    assert d_mn(4, 2, 1) == 12 - 3 - 1
    assert delta_mn(4, 2, 1) == 24 * 24 // (2 * 6)
    assert xi_mn(3, 2) == 3 + 1 + 1
    assert h_value(5, 0) == 120  # d!


def test_k0_floor_exact():
    assert k0_floor(5) == 2  # sqrt(25) = 5 exactly
    for d in range(2, 200):
        k0 = (-1 + math.sqrt(5 + 4 * d)) / 2
        assert k0_floor(d) == math.floor(k0)


def test_applicability_examples():
    assert {"mean_main", "v2"} <= applicability(11, 6, 2, 11)
    assert "mean_main" in applicability(9, 8, 2, 3)  # p=3 clause: s <= d-6
    assert applicability(8, 6, 2, 2) == set()  # p = 2: nothing
    assert applicability(7, 7, 1, 7) == set()  # q = d: q > d fails
    # s = d-3 is inside the chi/corollary hypothesis but not Thm 1.1's
    kinds = applicability(11, 6, 3, 11)
    assert "chi" in kinds and "mean_refined" in kinds
    assert "mean_main" not in kinds
    assert applicability(11, 5, 0, 11) == {"v2_s0", "smn_s0"}
    assert applicability(27, 8, 0, 3) == set()  # p=3 needs d >= 9
    assert applicability(27, 9, 0, 3) == {"v2_s0", "smn_s0"}


def test_bound_value_spot_checks():
    # mean_main(q=11, d=5): 400 sqrt(11) + 49 * 5^10 * e^(2 sqrt5 - 5)
    got = bound_value("mean_main", 11, 5)
    expect = 400 * math.sqrt(11) + 49 * 5**10 * math.exp(2 * math.sqrt(5) - 5)
    assert math.isclose(got, expect, rel_tol=1e-12)
    assert 2.7e8 < got < 2.9e8
    # chi at r = d: delta_d = d!, so the leading factor is (d!(D_d-2)+2)/d!
    q, d, s = 7, 5, 1
    got = bound_value("chi", q, d, s=s, r=d)
    expect = (120 * 8 + 2) * q ** (d - s) / (120 * math.sqrt(q)) + (
        14 * 100 * 120 * 120 + 5 * 4 * 120 // 2
    ) * q ** (d - s - 1) / 120
    assert math.isclose(got, expect, rel_tol=1e-12)


def test_bound_value_log_space_path():
    # continuity across the d=20 threshold: both paths near d=20
    lo = bound_value("mean_main", 11, 20)
    hi = 11**0.5 * 400 * 1024**2  # negligible next to the tail
    tail = 49 * 20**25 * math.exp(2 * math.sqrt(20) - 20)
    assert math.isclose(lo, 400 * 2**19 * math.sqrt(11) + tail, rel_tol=1e-9)
    assert bound_value("v2", 11, 25) > 0  # d^56 overflows doubles if naive
    assert bound_value("v2_s0", 11, 30) > 0
    assert hi > 0


def test_log_space_branch_matches_the_direct_formula():
    # past LOG_SPACE_THRESHOLD the tails are assembled in log space; up to
    # d = 40 the direct formulas still fit in a double, and the two must
    # agree within the documented relative slack
    q = 11
    for d in range(LOG_SPACE_THRESHOLD + 1, 41):
        root = math.sqrt(d)
        direct = {
            "mean_main": d * d * 2.0 ** (d - 1) * math.sqrt(q)
            + 49.0 * d ** (d + 5) * math.exp(2 * root - d),
            "v2": d * d * 2.0 ** (2 * d + 1) * q * math.sqrt(q)
            + 14.0**3 * d ** (2 * d + 6) * math.exp(4 * root - 2 * d) * q,
            "v2_s0": (d * d * 2.0 ** (2 * d - 2)
                      + 14.0**3 * d ** (2 * d + 8) * math.exp(4 * root - 2 * d)) * q,
        }
        for kind, expect in direct.items():
            got = bound_value(kind, q, d)
            assert math.isclose(got, expect, rel_tol=1e-9), (kind, d)


def test_missing_parameter_errors():
    with pytest.raises(InvalidParameter, match="chi needs r"):
        bound_value("chi", 7, 5, s=1)  # r missing
    with pytest.raises(InvalidParameter, match="smn needs m and n"):
        bound_value("smn", 7, 5, s=1, m=2)  # n missing
    with pytest.raises(InvalidParameter, match="unknown bound kind 'nope'"):
        bound_value("nope", 7, 5)


def test_bound_suite_passes_on_desk_instances():
    for q, d, s, a in [(11, 5, 1, (1,)), (7, 5, 1, (3,)), (11, 5, 0, ())]:
        spec = FamilySpec(make_field(q), d, s, a)
        stats = collect_stats(spec)
        checks = bound_suite(spec, stats)
        assert checks, "suite must emit checks"
        for c in checks:
            if c.applicable:
                assert c.passed is True, (c.kind, c.r, c.m, c.n, c.lhs, c.rhs)
            else:
                assert c.passed is None


def test_bound_suite_reports_inapplicable_rows():
    # q = 7, d = 5, s = 2: s > d-4 and s > d-3... s = 2 = d-3: chi applies,
    # mean_main does not; every check row must still be present.
    spec = FamilySpec(make_field(7), 5, 2, (1, 2))
    checks = bound_suite(spec, collect_stats(spec))
    kinds = {c.kind for c in checks}
    assert {"mean_main", "mean_refined", "chi", "gamma_star", "smn", "v2"} <= kinds
    main = next(c for c in checks if c.kind == "mean_main")
    assert main.applicable is False and main.passed is None
    chi = next(c for c in checks if c.kind == "chi")
    assert chi.applicable is True and chi.passed is True


def test_unimodality_d5_spot():
    audit = unimodality_audit(5)
    assert audit.values == (120, 600, 600, 200, 25)
    assert audit.argmax_set == (1, 2)
    assert audit.k0 == 2
    assert audit.classification == "unimodal"


def test_unimodality_sweep():
    for d in range(2, 61):
        audit = unimodality_audit(d)
        assert audit.classification in ("increasing", "unimodal")
        assert audit.k0 in audit.argmax_set


@pytest.mark.parametrize(
    "shape,message",
    [(lambda d, k: k % 2, "not unimodal"),  # two peaks
     (lambda d, k: k, "misses argmax")],  # increasing: the peak is not floor(k0) = 1
    ids=["two-peaks", "increasing"],
)
def test_unimodality_breach_raises(monkeypatch, shape, message):
    monkeypatch.setattr(bounds, "h_value", shape)
    with pytest.raises(BrokenInvariant, match=message):
        unimodality_audit(4)


def test_partial_sum_bounded_by_peak():
    # sum_{k<s} h(k) <= s * h(floor(k0)), exactly, for d <= 30
    for d in range(2, 31):
        peak = h_value(d, k0_floor(d))
        total = 0
        for s in range(1, d - 1):
            total += h_value(d, s - 1)
            assert total <= s * peak


def test_refined_vs_main_ordering():
    # not a paper claim: report pairs where the corollary beats its
    # coarser final form, assert nothing beyond computability
    violations = []
    for d in range(5, 13):
        for q in (7, 11, 13, 25, 27):
            if q <= d:
                continue
            for s in range(1, d - 3):
                if "mean_refined" not in applicability(q, d, s, 3 if q == 27 else 5):
                    continue
                refined = bound_value("mean_refined", q, d, s=s)
                main = bound_value("mean_main", q, d)
                if refined > main:
                    violations.append((q, d, s))
    # the ordering is not a source claim: report violations, never assert
    if violations:
        print("mean_refined > mean_main at:", violations)
