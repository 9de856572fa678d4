import random

import pytest

from vslab.errors import InvalidParameter
from vslab.gf import make_field
from vslab import upoly as up

F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2, [1, 0, 1])


def rand_poly(gf, rng, max_deg, nonzero=False):
    d = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(gf.q) for _ in range(d + 1)]
    f = up.trim(coeffs)
    if nonzero and not f:
        return (rng.randrange(1, gf.q),)
    return f


def test_eval_examples():
    assert up.eval_at(F5, (1, 0, 1), 2) == 0  # T^2+1 at 2 over F_5
    assert up.eval_at(F5, (), 3) == 0
    cubes = up.batch_eval(F5, (0, 0, 0, 1))
    assert sorted(cubes) == list(range(5))  # gcd(3,4)=1: cubing is bijective


def test_batch_eval_order():
    f = (3, 2, 1, 1)  # T^3+T^2+2T+3 over F_5
    vals = up.batch_eval(F5, f)
    assert vals == [up.eval_at(F5, f, t) for t in range(5)]


def test_divmod_and_gcd():
    rng = random.Random(7)
    for _ in range(200):
        f = rand_poly(F7, rng, 6)
        g = rand_poly(F7, rng, 4, nonzero=True)
        quot, rem = up.poly_divmod(F7, f, g)
        back = up.poly_add(F7, up.poly_mul(F7, quot, g), rem)
        assert back == up.trim(f)
        assert not rem or len(rem) < len(g)


def test_root_profile_examples():
    # T^2(T-1) over F_5
    f = up.poly_mul(F5, (0, 0, 1), (4, 1))
    prof = up.root_profile(F5, f)
    assert prof.multiplicities == {0: 2, 1: 1}
    assert prof.distinct_count == 2 and prof.total_multiplicity == 3
    # T^2+1 over F_7: -1 is a non-residue
    assert up.root_profile(F7, (1, 0, 1)).multiplicities == {}
    # T^2+1 over F_5: 2^2 = 4 = -1
    assert up.root_profile(F5, (1, 0, 1)).multiplicities == {2: 1, 3: 1}
    with pytest.raises(InvalidParameter, match="root profile of the zero polynomial"):
        up.root_profile(F5, ())


def test_root_profile_matches_brute_force():
    rng = random.Random(11)
    for gf in (F5, F7, F9):
        for _ in range(60):
            f = rand_poly(gf, rng, 6, nonzero=True)
            prof = up.root_profile(gf, f)
            roots = [t for t in gf.elements() if up.eval_at(gf, f, t) == 0]
            assert sorted(prof.multiplicities) == roots
            for t, e in prof.multiplicities.items():
                assert up.root_multiplicity(gf, f, t) == e


def test_newton_coeffs_examples():
    # f = T^2, nodes (2,3) over F_7: divided difference of T^2 is x1+x2
    assert up.newton_coeffs(F7, (0, 0, 1), (2, 3)) == (4, 5)
    # confluent pair: c_2 = f'(t) = 2t
    for t in range(7):
        cs = up.newton_coeffs(F7, (0, 0, 1), (t, t))
        assert cs[1] == F7.mul(2, t)
    # f = T^2(T+1) over F_5: 0 has multiplicity exactly 2
    f = up.poly_mul(F5, (0, 0, 1), (1, 1))
    assert up.newton_coeffs(F5, f, (0, 0)) == (0, 0)
    assert up.divides_at_nodes(F5, f, (0, 0))
    c3 = up.newton_coeffs(F5, f, (0, 0, 0))
    assert c3[2] != 0
    assert not up.divides_at_nodes(F5, f, (0, 0, 0))


def test_genocchi_remainder_identity():
    # f(T) = sum c_i prod_{j<i}(T - n_j) + tail * prod_{j<=r}(T - n_j)
    rng = random.Random(23)
    for gf in (F5, F7, F9):
        for _ in range(80):
            f = rand_poly(gf, rng, 8)
            r = rng.randrange(1, 5)
            pool = list(gf.elements())
            nodes = [rng.choice(pool) for _ in range(r)]
            cs = up.newton_coeffs(gf, f, nodes)
            basis = (1,)
            acc = up.ZERO
            for c, t in zip(cs, nodes):
                acc = up.poly_add(gf, acc, up.poly_scale(gf, basis, c))
                basis = up.poly_mul(gf, basis, (gf.neg(t), 1))
            diff = up.poly_sub(gf, up.trim(f), acc)
            if diff:
                _, rem = up.poly_divmod(gf, diff, basis)
                assert rem == up.ZERO
            # divisibility equivalence
            node_prod = basis
            _, rem_f = up.poly_divmod(gf, up.trim(f), node_prod)
            assert (rem_f == up.ZERO) == up.divides_at_nodes(gf, f, nodes)


def test_top_divided_difference_is_symmetric():
    rng = random.Random(31)
    for _ in range(100):
        f = rand_poly(F7, rng, 8)
        r = rng.randrange(2, 5)
        nodes = [rng.randrange(7) for _ in range(r)]
        base = up.newton_coeffs(F7, f, nodes)[-1]
        for _ in range(4):
            perm = nodes[:]
            rng.shuffle(perm)
            assert up.newton_coeffs(F7, f, perm)[-1] == base


def test_multiplicity_equals_leading_zero_newton_coeffs():
    rng = random.Random(41)
    for _ in range(80):
        f = rand_poly(F5, rng, 6, nonzero=True)
        alpha = rng.randrange(5)
        e = up.root_multiplicity(F5, f, alpha)
        cs = up.newton_coeffs(F5, f, (alpha,) * (len(f)))
        lead_zeros = 0
        for c in cs:
            if c:
                break
            lead_zeros += 1
        assert lead_zeros == e


def test_resultant_examples():
    assert up.resultant(F5, (1, 0, 1), (3, 1)) == 0  # shared root 2
    assert up.resultant(F7, (1, 0, 1), (0, 2)) == 4  # (2i)(-2i) = 4
    # f = (T-1)^2 (T-2)^2 over F_7: gcd(f, f') has degree 2
    f = up.poly_mul(F7, up.poly_mul(F7, (6, 1), (6, 1)),
                    up.poly_mul(F7, (5, 1), (5, 1)))
    fp = up.derivative(F7, f)
    assert up.resultant(F7, f, fp) == 0
    assert up.subres1(F7, f, fp) == 0
    with pytest.raises(InvalidParameter, match="resultant needs nonzero polynomials"):
        up.resultant(F7, (), (1, 1))


def test_resultant_subres_gcd_contract():
    rng = random.Random(53)
    for gf in (F5, F7):
        for _ in range(250):
            f = rand_poly(gf, rng, 8, nonzero=True)
            g = rand_poly(gf, rng, 8, nonzero=True)
            dg = len(up.poly_gcd(gf, f, g)) - 1
            res = up.resultant(gf, f, g)
            s1 = up.subres1(gf, f, g)
            assert (res == 0) == (dg >= 1)
            assert (res == 0 and s1 == 0) == (dg >= 2)
            if res == 0 and s1 != 0:
                assert dg == 1


def test_resultant_multiplicativity():
    rng = random.Random(61)
    for _ in range(60):
        f = rand_poly(F7, rng, 4, nonzero=True)
        g = rand_poly(F7, rng, 3, nonzero=True)
        h = rand_poly(F7, rng, 3, nonzero=True)
        lhs = up.resultant(F7, f, up.poly_mul(F7, g, h))
        rhs = F7.mul(up.resultant(F7, f, g), up.resultant(F7, f, h))
        assert lhs == rhs


def test_discriminant_classics():
    # T^2 + bT + c -> b^2 - 4c
    for b in range(7):
        for c in range(7):
            disc = up.discriminant(F7, (c, b, 1))
            assert disc == F7.sub(F7.mul(b, b), F7.mul(4, c))
    # T^3 + aT + b -> -4a^3 - 27b^2
    for a in range(5):
        for b in range(5):
            disc = up.discriminant(F5, (b, a, 0, 1))
            expect = F5.sub(
                F5.neg(F5.mul(4, F5.pow(a, 3))), F5.mul(F5.embed_int(27), F5.mul(b, b))
            )
            assert disc == expect
    assert up.discriminant(F5, (0, 0, 1)) == 0  # T^2


def test_discriminant_gcd_equivalence():
    rng = random.Random(71)
    for _ in range(150):
        d = rng.randrange(2, 7)
        f = tuple(rng.randrange(5) for _ in range(d)) + (1,)
        disc = up.discriminant(F5, f)
        fp = up.derivative(F5, f)
        nonconst_gcd = (not fp) or len(up.poly_gcd(F5, f, fp)) > 1
        assert (disc == 0) == nonconst_gcd


def test_discriminant_errors():
    with pytest.raises(InvalidParameter, match="monic polynomials only"):
        up.discriminant(F5, (1, 2))
    with pytest.raises(InvalidParameter, match="needs degree >= 2"):
        up.discriminant(F5, (3, 1))
