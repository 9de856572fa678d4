from fractions import Fraction
from math import factorial

import pytest

from vslab.bounds import BOUND_KINDS
from vslab.errors import InvalidParameter
from vslab.family import FamilySpec, enumerate_b, family_poly
from vslab.gf import make_field
from vslab.moments import (
    build_moment_report,
    cohen_exact_mean,
    main_term,
    mu,
    one_minus_inv_e_enclosure,
    reconstruct_mean,
    reconstruct_second_moment,
)
from vslab.sweep import collect_stats
from vslab import upoly as up

F5 = make_field(5)
F7 = make_field(7)


def brute_value_sets(spec):
    """Independent oracle: the list of V(f_b) by direct evaluation."""
    gf = spec.field
    out = []
    for b in enumerate_b(spec):
        f = family_poly(spec, b, 0)
        out.append(len(set(up.batch_eval(gf, f))))
    return out


def test_mu_values():
    assert mu(1) == 1
    assert mu(2) == Fraction(1, 2)
    assert mu(5) == Fraction(19, 30)  # (120-60+20-5+1)/120


def test_mu_convergence_to_one_minus_inv_e():
    lo, hi = one_minus_inv_e_enclosure()
    assert hi - lo < Fraction(1, 10**50)
    for d in range(1, 21):
        bound = Fraction(1, factorial(d + 1))
        m = mu(d)
        assert max(abs(m - lo), abs(m - hi)) <= bound


def test_cohen_exact_mean_values():
    assert cohen_exact_mean(7, 2) == 4  # 7 - 21/7
    assert cohen_exact_mean(5, 3) == Fraction(17, 5)  # 5 - 2 + 2/5
    for q in (5, 7, 11):
        assert cohen_exact_mean(q, 1) == q


def test_value_set_mean_squaring_family():
    spec = FamilySpec(F7, 2, 0)
    vs = brute_value_sets(spec)
    assert vs == [4] * 7  # every T^2+bT hits exactly (q+1)/2 values
    st = collect_stats(spec)
    assert st.mean == 4
    assert st.second_moment == 16


def test_mean_equals_cohen_for_s0():
    for q, d in [(5, 3), (5, 4), (7, 3), (7, 4)]:
        gf = make_field(q)
        spec = FamilySpec(gf, d, 0)
        vs = brute_value_sets(spec)
        mean = Fraction(sum(vs), len(vs))
        assert mean == cohen_exact_mean(q, d)
        assert collect_stats(spec).mean == mean


def test_bounds_on_moments():
    for spec in (FamilySpec(F5, 4, 1, (2,)), FamilySpec(F7, 4, 2, (0, 3))):
        st = collect_stats(spec)
        mean, second = st.mean, st.second_moment
        assert 1 <= mean <= spec.q
        assert second >= mean * mean  # Jensen
        assert second <= spec.q**2


def test_reconstruct_mean_exact():
    for spec in (
        FamilySpec(F7, 4, 1, (1,)),
        FamilySpec(F7, 4, 2, (1, 2)),
        FamilySpec(F5, 4, 1, (3,)),
    ):
        st = collect_stats(spec)
        chi = build_moment_report(spec, st)[0]["chi"]
        assert reconstruct_mean(spec, chi) == st.mean


def test_reconstruct_mean_regime_errors():
    with pytest.raises(InvalidParameter, match="needs 1 <= s <= d-2, got s=0"):
        reconstruct_mean(FamilySpec(F5, 4, 0), {})
    spec = FamilySpec(F7, 4, 2, (1, 2))
    with pytest.raises(InvalidParameter, match=r"chi vector is missing r in \[3\]"):
        reconstruct_mean(spec, {4: 0})  # missing r = 3


def test_reconstruct_second_moment_exact_mode():
    for spec in (
        FamilySpec(F5, 4, 1, (2,)),
        FamilySpec(F5, 4, 0),
        FamilySpec(F7, 4, 1, (5,)),
    ):
        st = collect_stats(spec)
        cells = range(1, spec.d + 1)
        smn = {(m, n): st.s_mn(m, n) for m in cells for n in cells}
        v2 = reconstruct_second_moment(spec, st.mean, smn, mode="exact")
        assert v2 == st.second_moment


def test_paper_mode_residual_is_reported_not_asserted():
    spec = FamilySpec(F5, 4, 1, (2,))
    st = collect_stats(spec)
    cols, _ = build_moment_report(spec, st)
    assert cols["v2_exact_mode"] == cols["second_moment"]
    resid = cols["paper_mode_residual"]
    assert resid is not None  # whatever its value, it must be computable


def test_reconstruct_second_moment_range_check():
    spec = FamilySpec(F5, 4, 1, (2,))
    with pytest.raises(InvalidParameter, match="S matrix is missing cells"):
        reconstruct_second_moment(spec, Fraction(4), {(1, 1): 0}, mode="exact")
    with pytest.raises(InvalidParameter, match="unknown mode 'weird'"):
        reconstruct_second_moment(spec, Fraction(4), {}, mode="weird")


def test_moment_report_residuals_recomputed():
    spec = FamilySpec(F7, 4, 1, (1,))
    st = collect_stats(spec)
    cols, _ = build_moment_report(spec, st)
    assert cols["residual_mean"] == cols["mean"] - mu(4) * 7
    assert cols["residual_second"] == cols["second_moment"] - mu(4) ** 2 * 49
    assert cols["mean_reconstructed"] == cols["mean"]


def test_moment_report_checks():
    # s = 0: the mean reconstruction is not defined, and no check names it
    st = collect_stats(FamilySpec(F5, 4, 0))
    cols, checks = build_moment_report(FamilySpec(F5, 4, 0), st)
    assert checks == (("v2_exact_mode_matches", True),)
    assert cols["mean_reconstruction_exact"] is None
    assert cols["v2_exact_mode_matches"] is True
    # s = 1: both reconstructions are checked, and the columns hold the verdicts
    spec = FamilySpec(F7, 4, 1, (1,))
    cols, checks = build_moment_report(spec, collect_stats(spec))
    assert checks == (
        ("v2_exact_mode_matches", True),
        ("mean_reconstruction_exact", True),
    )
    assert all(cols[name] is ok for name, ok in checks)


def test_main_term_per_bound_kind():
    # q = 7, d = 6, s = 2: q^(d-s) = 2401
    spec = FamilySpec(F7, 6, 2, (1, 2))
    expected = {
        "mean_main": mu(6) * 7,
        "mean_refined": mu(6) * 7,
        "v2": mu(6) ** 2 * 49,
        "v2_s0": mu(6) ** 2 * 49,
        "chi": Fraction(2401, 24),  # r = 4
        "gamma_star": Fraction(2401),
        "smn": Fraction(2401 * 7, 2 * 6),  # m = 2, n = 3
        "smn_s0": Fraction(2401 * 7, 2 * 6),
    }
    assert set(expected) == set(BOUND_KINDS)
    for kind, value in expected.items():
        assert main_term(kind, spec, r=4, m=2, n=3) == value, kind
    with pytest.raises(InvalidParameter, match="unknown bound kind 'mean'"):
        main_term("mean", spec)
