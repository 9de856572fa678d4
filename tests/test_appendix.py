import pytest

from vslab.appendix import (
    appendix_case_check,
    build_generic_member,
    generic_disc,
    match_up_to_scalar,
    resultant_b0_degree,
    select_case,
    specialization_scalar,
    subres1_terms_check,
)
from vslab.errors import BrokenInvariant, InvalidParameter
from vslab import mpoly as mp
from vslab import upoly


def test_select_case():
    assert select_case(7, 4) == "generic"
    assert select_case(5, 5) == "p_divides_d"
    assert select_case(3, 6) == "p_divides_d"
    assert select_case(3, 4) == "p_divides_d_minus_1_even"
    assert select_case(5, 6) == "p_divides_d_minus_1_even"
    assert select_case(3, 7) == "p_divides_d_minus_1_odd"


def test_quadratic_disc():
    # test-only d=2: lambda * (B1^2 - 4 B0)
    disc = generic_disc(5, 2, {0, 1})
    names = ("B0", "B1")
    target = mp.MultiPoly(5, names, {(0, 2): 1, (1, 0): -4})
    matched, lam = match_up_to_scalar(disc, target)
    assert matched in ("exact", "up_to_scalar")
    assert lam is not None and lam != 0


def test_degenerate_derivative():
    with pytest.raises(InvalidParameter, match="dF/dT vanishes identically"):
        generic_disc(3, 3, {0})  # F = T^3 + B0, dF/dT = 3T^2 = 0


@pytest.mark.parametrize(
    "p,d",
    [(7, 4), (5, 5), (3, 6), (3, 4), (5, 6)],
)
def test_appendix_cases_match(p, d):
    report = appendix_case_check(p, d)
    assert report.matched in ("exact", "up_to_scalar"), report.to_dict()
    assert report.scalar is not None and report.scalar != 0


def test_odd_case_printed_form_mismatch_is_a_finding():
    # (3,7): the quoted d-odd closed form is not weighted homogeneous of
    # weight d(d-1) (its middle term has weight 36, not 42), so it cannot
    # equal the discriminant; the determinant and the Poisson-route
    # derivation agree with each other and carry the B1 cross term.
    report = appendix_case_check(3, 7)
    assert report.case == "p_divides_d_minus_1_odd"
    assert report.matched == "failed"
    assert report.derived is not None
    assert report.derived_matched in ("exact", "up_to_scalar")
    w = mp.WeightSystem((7, 6, 5))  # wt(B0), wt(B1), wt(B2)
    assert list(mp.weight_decompose(report.computed, w)) == [42]
    assert list(mp.weight_decompose(report.target, w)) != [42]


def test_even_cases_agree_with_poisson_route():
    for p, d in [(3, 4), (5, 6)]:
        report = appendix_case_check(p, d)
        assert report.derived_matched in ("exact", "up_to_scalar")


@pytest.mark.parametrize("p,d", [(5, 3), (7, 4), (3, 3), (5, 5)])
def test_subres1_terms(p, d):
    report = subres1_terms_check(p, d)
    assert report.matched in ("exact", "up_to_sign"), report.to_dict()
    assert not report.computed.is_zero()


def test_b0_degree_where_p_coprime_to_d():
    # the d-1 degree claim holds exactly when p does not divide d: the
    # B0^(d-1) coefficient of the discriminant is d^d, since
    # Res(T^d + B0, d T^(d-1)) = d^d B0^(d-1), so it survives exactly for
    # p coprime to d
    for p, d, free in [
        (7, 4, {0, 1}),
        (5, 3, {0, 1, 2}),
        (7, 4, {0, 1, 2}),
        (3, 4, {0, 1, 2}),
        (5, 6, {0, 1, 2}),
        (3, 7, {0, 1, 2}),
    ]:
        assert d % p != 0
        assert resultant_b0_degree(p, d, free) == d - 1
        disc = generic_disc(p, d, free)
        top_expo = tuple(d - 1 if n == "B0" else 0 for n in disc.names)
        assert disc.terms[top_expo] == pow(d, d, p)
    # p | d: that coefficient is d^d = 0 mod p, so the degree drops; the
    # quoted p|d closed form itself has B0-degree exactly 1
    assert resultant_b0_degree(5, 5, {0, 1, 2}) == 1
    assert resultant_b0_degree(3, 6, {0, 1, 2}) == 1
    assert resultant_b0_degree(3, 3, {0, 1, 2}) == 1


def _sympy_disc_mod_p(sp, p, d, free):
    """Res_T(F, dF/dT) computed by sympy over Z, reduced mod p."""
    names = tuple(f"B{j}" for j in sorted(free))
    t = sp.Symbol("T")
    syms = sp.symbols(names)
    f = t**d + sum(b * t**j for b, j in zip(syms, sorted(free)))
    res = sp.Poly(sp.resultant(f, sp.diff(f, t), t), *syms)
    return mp.MultiPoly(p, names, {e: int(c) for e, c in res.terms()})


def test_generic_disc_matches_sympy_resultant():
    # a third route, independent of the Sylvester/Bareiss code: every
    # (p, d, free) set acceptance criterion 11 uses
    sp = pytest.importorskip("sympy")
    for p, d, free in [
        (7, 4, {0, 1}),
        (5, 3, {0, 1}),
        (5, 5, {0, 1, 2}),
        (3, 6, {0, 1, 2}),
        (3, 4, {0, 1, 2}),
        (5, 6, {0, 1, 2}),
        (3, 7, {0, 1, 2}),
        (3, 3, {0, 1, 2}),
        (7, 4, {0, 1, 2, 3}),
        (5, 5, {0, 1, 2, 3, 4}),
    ]:
        want = _sympy_disc_mod_p(sp, p, d, free)
        assert generic_disc(p, d, free) == want, (p, d, free)


@pytest.mark.parametrize("p,d", [(3, 7), (5, 11), (3, 13)])
def test_odd_case_discriminant_matches_sympy(p, d):
    # p | d-1, d odd: the discriminant is
    # -4 B0 B2^d + B0^(d-1) + 2 B0^h B1 B2^h + B1^2 B2^(d-1), h = (d-1)/2,
    # also beyond MAX_SYMBOLIC_DEGREE where generic_disc does not reach
    sp = pytest.importorskip("sympy")
    assert select_case(p, d) == "p_divides_d_minus_1_odd"
    h = (d - 1) // 2
    want = mp.MultiPoly(
        p,
        ("B0", "B1", "B2"),
        {(1, 0, d): -4, (d - 1, 0, 0): 1, (h, 1, h): 2, (0, 2, d - 1): 1},
    )
    assert _sympy_disc_mod_p(sp, p, d, {0, 1, 2}) == want


@pytest.mark.parametrize("p,d", [(7, 4), (5, 5)])
def test_weight_homogeneity_fully_generic(p, d):
    free = set(range(d))
    disc = generic_disc(p, d, free)
    names = tuple(f"B{j}" for j in sorted(free))
    wts = tuple(d - j for j in sorted(free))
    w = mp.WeightSystem(wts)
    comps = mp.weight_decompose(disc, w)
    assert list(comps) == [d * (d - 1)]


@pytest.mark.parametrize(
    "p,d,free",
    [(7, 4, (0, 1)), (5, 5, (0, 1, 2)), (3, 4, (0, 1, 2))],
)
def test_specialization_scalar_is_global(p, d, free):
    scalar, checked = specialization_scalar(p, d, set(free), samples=200)
    assert checked == 200
    assert scalar is not None and scalar != 0


def test_specialization_scalar_breach_raises(monkeypatch):
    real = upoly.discriminant
    monkeypatch.setattr(upoly, "discriminant", lambda gf, f: 0)
    with pytest.raises(BrokenInvariant, match="vanishing loci"):
        specialization_scalar(7, 4, {0, 1}, samples=50)
    # the same zeros, but a ratio that follows the constant coefficient
    monkeypatch.setattr(
        upoly, "discriminant", lambda gf, f: gf.mul(real(gf, f), f[0] or 1)
    )
    with pytest.raises(BrokenInvariant, match="not global"):
        specialization_scalar(7, 4, {0, 1}, samples=50)


def test_scalar_match_uniqueness():
    names = ("B0", "B1")
    f = mp.MultiPoly(5, names, {(1, 0): 2, (0, 2): 4})
    g = mp.MultiPoly(5, names, {(1, 0): 1, (0, 2): 2})
    matched, lam = match_up_to_scalar(f, g)
    assert matched == "up_to_scalar" and lam == 2
    h = mp.MultiPoly(5, names, {(1, 0): 1, (0, 2): 3})
    assert match_up_to_scalar(f, h) == ("failed", None)


def test_build_generic_member_validation():
    with pytest.raises(InvalidParameter, match="B0 must be free"):
        build_generic_member(5, 4, {1, 2})  # B0 not free
    with pytest.raises(InvalidParameter, match="capped at d = 8"):
        generic_disc(5, 12, {0, 1})  # above the symbolic cap
