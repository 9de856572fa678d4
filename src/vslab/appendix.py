"""Machine checks of the explicit discriminant formulas.

The generic member is F = T^d + sum_{i in free, i>0} B_i T^i + B_0 with
the non-free intermediate coefficients pinned to zero.  Its discriminant
(up to the resultant normalization, which the comparisons absorb) is the
symbolic resultant of F and dF/dT in T, a MultiPoly over F_p in the free
B variables.

Every comparison is up to a nonzero scalar (discriminant cases) or up to
a global sign (subresultant terms): the source normalizations are not
pinned down, and the irreducibility arguments the formulas feed are
insensitive to scalars.  Reports record the scalar actually observed so
the convention can be pinned down empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BrokenInvariant, InvalidParameter
from .gf import make_field
from . import mpoly as mp

MAX_SYMBOLIC_DEGREE = 8


def _family_names(free):
    return tuple(f"B{j}" for j in sorted(free))


def build_generic_member(p: int, d: int, free):
    """(names, F) with F a T-polynomial over MultiPoly coefficients.

    Every appendix route builds its member here, so Z/p that is not a
    field is refused before any symbolic work.
    """
    make_field(p)
    free = set(free)
    if 0 not in free:
        raise InvalidParameter("the constant coefficient B0 must be free")
    if not all(0 <= j <= d - 1 for j in free):
        raise InvalidParameter("free indices must lie in [0, d-1]")
    names = _family_names(free)
    zero = mp.MultiPoly(p, names)
    coeffs = [zero] * (d + 1)
    for j in free:
        coeffs[j] = mp.MultiPoly.variable(p, names, f"B{j}")
    coeffs[d] = mp.MultiPoly.constant(p, names, 1)
    return names, coeffs


def generic_disc(p: int, d: int, free) -> mp.MultiPoly:
    """Symbolic Res_T(F, dF/dT) for the chosen free coefficient set."""
    if d < 2:
        raise InvalidParameter("need d >= 2")
    if d > MAX_SYMBOLIC_DEGREE:
        raise InvalidParameter(f"symbolic work is capped at d = {MAX_SYMBOLIC_DEGREE}")
    _, f = build_generic_member(p, d, free)
    fp = mp.tpoly_derivative(f)
    if not fp:
        raise InvalidParameter("dF/dT vanishes identically")
    return mp.symbolic_resultant(f, fp)


def match_up_to_scalar(computed: mp.MultiPoly, target: mp.MultiPoly):
    """("exact" | "up_to_scalar" | "failed", scalar (or None)).

    A scalar match requires one lambda to work for every monomial, so
    the scalar found is unique and independent of the probe term.
    """
    if computed == target:
        return "exact", 1
    if computed.is_zero() or target.is_zero():
        return "failed", None
    if set(computed.terms) != set(target.terms):
        return "failed", None
    p = target.p
    expo = next(iter(target.terms))
    lam = computed.terms[expo] * pow(target.terms[expo], p - 2, p) % p
    if all(computed.terms[e] == lam * c % p for e, c in target.terms.items()):
        return ("up_to_scalar", lam)
    return "failed", None


@dataclass
class AppendixReport:
    case: str
    p: int
    d: int
    computed: mp.MultiPoly
    target: mp.MultiPoly
    matched: str
    scalar: int | None
    derived: mp.MultiPoly | None = None
    derived_matched: str | None = None

    def to_dict(self):
        return {
            "case": self.case,
            "p": self.p,
            "d": self.d,
            "computed": self.computed.text(),
            "target": self.target.text(),
            "matched": self.matched,
            "scalar": self.scalar,
            "derived": None if self.derived is None else self.derived.text(),
            "derived_matched": self.derived_matched,
        }


def select_case(p: int, d: int) -> str:
    make_field(p)
    if d % p and (d - 1) % p:
        return "generic"
    if d % p == 0:
        return "p_divides_d"
    return "p_divides_d_minus_1_even" if d % 2 == 0 else "p_divides_d_minus_1_odd"


def delta2_target(p: int, d: int, names) -> mp.MultiPoly:
    """d^d B0^(d-1) + (-1)^(d-1) (d-1)^(d-1) B1^d."""
    return _b_mono(p, names, b0=d - 1, coeff=pow(d, d, p)) + _b_mono(
        p, names, b1=d, coeff=(-1) ** (d - 1) * pow(d - 1, d - 1, p)
    )


def _b_mono(p, names, b0=0, b1=0, b2=0, coeff=1):
    expo = [0] * len(names)
    for label, e in (("B0", b0), ("B1", b1), ("B2", b2)):
        if e:
            expo[names.index(label)] = e
    return mp.MultiPoly(p, names, {tuple(expo): coeff})


def closed_form_target(p: int, d: int, case: str, names) -> mp.MultiPoly:
    """The quoted closed form of the discriminant for a non-generic case.

    The odd branch (p | d-1, d odd) is the form as quoted.  It is not
    weight-homogeneous of weight d(d-1) under wt(B0, B1, B2) =
    (d, d-1, d-2): its middle term has weight (d-1)^2.  Its B1^2 sign is
    also flipped, so it cannot equal the discriminant;
    poisson_route_disc gives the correct form,
    -4 B0 B2^d + B0^(d-1) + 2 B0^((d-1)/2) B1 B2^((d-1)/2) + B1^2 B2^(d-1).
    """
    if case == "p_divides_d":
        # B1^d + (-1)^(d+1) 2^(d-2) B2^(d-1) B1^2 + (-1)^d 2^d B2^d B0
        return (
            _b_mono(p, names, b1=d)
            + _b_mono(p, names, b2=d - 1, b1=2, coeff=(-1) ** (d + 1) * 2 ** (d - 2))
            + _b_mono(p, names, b2=d, b0=1, coeff=(-1) ** d * 2**d)
        )
    if case == "p_divides_d_minus_1_even":
        # 4 B2^d B0 + B0^(d-1) + 4 B0^(d/2) B2^(d/2) - B1^2 B2^(d-1)
        return (
            _b_mono(p, names, b2=d, b0=1, coeff=4)
            + _b_mono(p, names, b0=d - 1)
            + _b_mono(p, names, b0=d // 2, b2=d // 2, coeff=4)
            + _b_mono(p, names, b1=2, b2=d - 1, coeff=-1)
        )
    if case == "p_divides_d_minus_1_odd":
        # -4 B2^d B0 + B0^(d-1) + 2 B0^((d-1)/2) B2^((d-1)/2) - B1^2 B2^(d-1)
        half = (d - 1) // 2
        return (
            _b_mono(p, names, b2=d, b0=1, coeff=-4)
            + _b_mono(p, names, b0=d - 1)
            + _b_mono(p, names, b0=half, b2=half, coeff=2)
            + _b_mono(p, names, b1=2, b2=d - 1, coeff=-1)
        )
    raise InvalidParameter(f"no closed form for case {case!r}")


def poisson_route_disc(p: int, d: int) -> mp.MultiPoly:
    """Independent derivation for the p | (d-1) cases.

    With d = 1 in F_p, T g' - g collapses to B2 T^2 - B0, and for monic
    g one has Res(g, T g' - g) = Res(g, T) Res(g, g'), so dividing
    Res(g, B2 T^2 - B0) by (-1)^d B0 recovers Res(g, g') exactly.
    """
    if (d - 1) % p:
        raise InvalidParameter("the Poisson shortcut needs p | d-1")
    names, f = build_generic_member(p, d, {0, 1, 2})
    zero = mp.MultiPoly(p, names)
    b0 = mp.MultiPoly.variable(p, names, "B0")
    b2 = mp.MultiPoly.variable(p, names, "B2")
    quadratic = [zero - b0, zero, b2]
    res = mp.symbolic_resultant(f, quadratic)
    denom = b0.scale(-1 if d % 2 else 1)
    return res.exact_div(denom)


def appendix_case_check(p: int, d: int):
    """Compare the computed discriminant with the quoted closed form.

    For the p | (d-1) cases the report also carries the Poisson-route
    derivation and whether it agrees with the determinant computation,
    so a failed match against the quoted text comes with an
    independently derived corrected form.
    """
    case = select_case(p, d)
    derived = None
    derived_matched = None
    if case == "generic":
        # highest component under w2(B0) = d, w2(B1) = d-1, other B's
        # specialized away (free = {0, 1}) as in the source reduction
        disc = generic_disc(p, d, {0, 1})
        names = _family_names({0, 1})
        w2 = mp.WeightSystem(tuple(d - j for j in sorted({0, 1})))
        comps = mp.weight_decompose(disc, w2)
        computed = comps[max(comps)] if comps else disc
        target = delta2_target(p, d, names)
    else:
        disc = generic_disc(p, d, {0, 1, 2})
        names = _family_names({0, 1, 2})
        computed = disc
        target = closed_form_target(p, d, case, names)
        if case.startswith("p_divides_d_minus_1"):
            derived = poisson_route_disc(p, d)
            derived_matched = match_up_to_scalar(computed, derived)[0]
    matched, scalar = match_up_to_scalar(computed, target)
    return AppendixReport(
        case, p, d, computed, target, matched, scalar, derived, derived_matched
    )


def subres1_terms_check(p: int, d: int):
    """Check the quoted dense-representation term of the first subresultant.

    S1 = subres1(F, dF/dT) over free coefficients {B0, B1, B2}.  For
    p not dividing d(d-1) the term d (d-1)^(d-2) B1^(d-2) must occur;
    otherwise the term 2 (-1)^d (d-2)^(d-2) B2^(d-1) must.  Both are
    asserted up to a global sign.
    """
    if d < 3:
        raise InvalidParameter("need d >= 3")
    if d > MAX_SYMBOLIC_DEGREE:
        raise InvalidParameter(f"symbolic work is capped at d = {MAX_SYMBOLIC_DEGREE}")
    names, f = build_generic_member(p, d, {0, 1, 2})
    fp = mp.tpoly_derivative(f)
    if not fp:
        raise InvalidParameter("dF/dT vanishes identically")
    s1 = mp.symbolic_subres1(f, fp)
    if d * (d - 1) % p:
        case = "term_b1"
        target = _b_mono(p, names, b1=d - 2, coeff=d * (d - 1) ** (d - 2))
    else:
        case = "term_b2"
        target = _b_mono(
            p, names, b2=d - 1, coeff=2 * (-1) ** d * (d - 2) ** (d - 2)
        )
    expo, want = next(iter(target.terms.items()))
    got = s1.terms.get(expo, 0)
    if s1.is_zero() or got == 0:
        matched, scalar = "failed", None
    elif got == want:
        matched, scalar = "exact", 1
    elif got == (-want) % p:
        matched, scalar = "up_to_sign", -1
    else:
        matched, scalar = "failed", None
    return AppendixReport(case, p, d, s1, target, matched, scalar)


def resultant_b0_degree(p: int, d: int, free) -> int:
    """deg_B0 of the symbolic resultant of (F, dF/dT).

    The quoted claim deg_B0 = d-1 holds only for p not dividing d: the
    B0^(d-1) coefficient is d^d, from Res(T^d + B0, d T^(d-1)) =
    d^d B0^(d-1), and it vanishes mod p when p | d.
    """
    return generic_disc(p, d, free).degree_in("B0")


def specialization_scalar(p: int, d: int, free, samples: int = 200, seed: int = 0):
    """The single scalar relating generic_disc values to discriminants.

    Samples random points, skips those where the derivative's T-degree
    drops (the Sylvester shape changes there), and insists one field
    scalar explains every remaining pair.  Returns (scalar, n_checked).
    """
    import random

    from . import upoly as up

    gf = make_field(p)
    _, f = build_generic_member(p, d, free)
    fp = mp.tpoly_derivative(f)
    disc = generic_disc(p, d, free)
    deg_fp = len(fp) - 1
    rng = random.Random(seed)
    scalar = None
    checked = 0
    attempts = 0
    while checked < samples and attempts < samples * 50:
        attempts += 1
        point = tuple(rng.randrange(p) for _ in f[0].names)
        ff = mp.tpoly_evaluate(f, gf, point)
        gg = mp.tpoly_evaluate(fp, gf, point)
        if not gg or len(gg) - 1 != deg_fp:
            continue
        sym = disc.evaluate(gf, point)
        plain = up.discriminant(gf, ff)
        if plain == 0 or sym == 0:
            if (plain == 0) != (sym == 0):
                raise BrokenInvariant("vanishing loci disagree")
            checked += 1
            continue
        ratio = gf.div(sym, plain)
        if scalar is None:
            scalar = ratio
        elif scalar != ratio:
            raise BrokenInvariant(f"scalar not global: {scalar} vs {ratio}")
        checked += 1
    return scalar, checked
