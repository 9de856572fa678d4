import random

import pytest

from vslab.errors import InvalidParameter
from vslab.gf import make_field
from vslab import mpoly as mp
from vslab import upoly as up

NAMES2 = ("B0", "B1")


def P(p, names, terms):
    return mp.MultiPoly(p, names, terms)


def test_arith_examples():
    p = 5
    b0 = mp.MultiPoly.variable(p, NAMES2, "B0")
    b1 = mp.MultiPoly.variable(p, NAMES2, "B1")
    prod = (b1 + b0) * (b1 - b0)
    assert prod == P(p, NAMES2, {(0, 2): 1, (2, 0): -1})
    quot = prod.exact_div(b1 - b0)
    assert quot == b1 + b0
    with pytest.raises(InvalidParameter, match="leading term not divisible"):
        (b1 * b1 + mp.MultiPoly.constant(p, NAMES2, 1)).exact_div(b0)


def test_exact_div_random_products():
    rng = random.Random(9)
    p = 7
    names = ("B0", "B1", "B2")
    for _ in range(100):
        f = _rand_mpoly(rng, p, names)
        g = _rand_mpoly(rng, p, names, nonzero=True)
        prod = f * g
        if f.is_zero():
            assert prod.exact_div(g).is_zero()
        else:
            assert prod.exact_div(g) == f


def _rand_mpoly(rng, p, names, nonzero=False):
    terms = {}
    for _ in range(rng.randrange(0 if not nonzero else 1, 5)):
        expo = tuple(rng.randrange(3) for _ in names)
        terms[expo] = rng.randrange(1, p)
    out = mp.MultiPoly(p, names, terms)
    if nonzero and out.is_zero():
        return mp.MultiPoly.constant(p, names, 1)
    return out


def test_weight_decompose_examples():
    p = 7
    w = mp.WeightSystem((4, 2))  # wt(B0)=4, wt(B1)=2
    f = P(p, NAMES2, {(0, 2): 1, (1, 0): 1})  # B1^2 + B0
    comps = mp.weight_decompose(f, w)
    assert list(comps) == [4]
    assert comps[4] == f
    # B0^(d-1) under wt(B_j) = d - j has weight d(d-1)
    for d in (3, 4, 5):
        g = P(p, NAMES2, {(d - 1, 0): 1})
        comps = mp.weight_decompose(g, mp.WeightSystem((d, d - 1)))
        assert list(comps) == [d * (d - 1)]


def test_components_sum_to_input():
    rng = random.Random(17)
    p = 5
    names = ("B0", "B1", "B2")
    w = mp.WeightSystem((3, 2, 1))
    for _ in range(50):
        f = _rand_mpoly(rng, p, names)
        comps = mp.weight_decompose(f, w)
        acc = mp.MultiPoly(p, names)
        for c in comps.values():
            acc = acc + c
        assert acc == f


def test_det_minors_vs_bareiss():
    rng = random.Random(29)
    p = 7
    names = ("B0", "B1")
    for n in (2, 3, 4, 5):
        for _ in range(8):
            mat = [[_rand_mpoly(rng, p, names) for _ in range(n)] for _ in range(n)]
            assert mp.det_minors(mat) == mp.det_bareiss(mat)


def test_symbolic_resultant_quadratic():
    # f = T^2 + B1 T + B0, g = df/dT over F_5: Res = 4B0 - B1^2 up to convention
    p = 5
    one = mp.MultiPoly.constant(p, NAMES2, 1)
    b0 = mp.MultiPoly.variable(p, NAMES2, "B0")
    b1 = mp.MultiPoly.variable(p, NAMES2, "B1")
    f = [b0, b1, one]
    g = mp.tpoly_derivative(f)
    res = mp.symbolic_resultant(f, g)
    target = b0.scale(4) - b1 * b1
    assert res == target or res == -target


def test_symbolic_specialization_consistency():
    # symbolic resultant specialized at a point = upoly resultant of the
    # specialized pair, whenever the T-degrees survive specialization
    rng = random.Random(37)
    p = 5
    gf = make_field(p)
    names = ("B0", "B1", "B2")
    one = mp.MultiPoly.constant(p, names, 1)
    b = [mp.MultiPoly.variable(p, names, n) for n in names]
    d = 4
    f = [b[0], b[1], b[2], mp.MultiPoly(p, names), one]  # T^4 + B2 T^2 + B1 T + B0
    g = mp.tpoly_derivative(f)
    res = mp.symbolic_resultant(f, g)
    s1 = mp.symbolic_subres1(f, g)
    assert not s1.is_zero()
    checked = 0
    while checked < 100:
        point = tuple(rng.randrange(p) for _ in names)
        ff = mp.tpoly_evaluate(f, gf, point)
        gg = mp.tpoly_evaluate(g, gf, point)
        if not gg or len(gg) - 1 != len(g) - 1:
            continue  # T-degree dropped; Sylvester shape differs
        assert res.evaluate(gf, point) == up.resultant(gf, ff, gg)
        assert s1.evaluate(gf, point) == up.subres1(gf, ff, gg)
        checked += 1


def test_symbolic_resultant_b0_degree():
    # deg_B0 Res(F, dF/dT) = d - 1 for d = 3, s = 1 layout (B1, B0 free)
    p = 5
    names = ("B0", "B1")
    one = mp.MultiPoly.constant(p, names, 1)
    b0 = mp.MultiPoly.variable(p, names, "B0")
    b1 = mp.MultiPoly.variable(p, names, "B1")
    zero = mp.MultiPoly(p, names)
    d = 3
    f = [b0, b1, zero, one]  # T^3 + B1 T + B0
    res = mp.symbolic_resultant(f, mp.tpoly_derivative(f))
    assert res.degree_in("B0") == d - 1
    s1 = mp.symbolic_subres1(f, mp.tpoly_derivative(f))
    assert not s1.is_zero()


def test_degenerate_leading_coefficient():
    p = 5
    one = mp.MultiPoly.constant(p, NAMES2, 1)
    b0 = mp.MultiPoly.variable(p, NAMES2, "B0")
    with pytest.raises(InvalidParameter, match="needs degree >= 1 in T"):
        mp.symbolic_resultant([b0], [b0, one])
    zero = mp.MultiPoly(p, NAMES2)
    with pytest.raises(InvalidParameter, match="needs degree >= 1 in T"):
        mp.symbolic_resultant([b0, zero], [b0, one])


def test_evaluate_needs_matching_characteristic():
    f = P(5, NAMES2, {(1, 0): 1, (0, 1): 2, (0, 0): 3})  # B0 + 2 B1 + 3
    assert f.evaluate(make_field(5, 2), (1, 1)) == 1
    with pytest.raises(InvalidParameter):
        f.evaluate(make_field(7), (1, 1))


def test_canonical_text():
    p = 5
    f = P(p, NAMES2, {(0, 2): 3, (1, 0): 1, (0, 0): 2})
    assert f.text() == "3*B1^2 + B0 + 2"
    assert mp.MultiPoly(p, NAMES2).text() == "0"
