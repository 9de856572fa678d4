import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vslab.errors import InvalidParameter
from vslab.gf import GF, TABLE_LIMIT, is_prime, make_field, parse_descriptor

FIELDS = [(7, 1, None), (3, 2, [1, 0, 1]), (5, 1, None), (3, 3, None), (5, 2, None)]


def test_make_field_basics():
    f7 = make_field(7, 1)
    assert f7.q == 7 and f7.p == 7
    f9 = make_field(3, 2, [1, 0, 1])  # T^2 + 1, irreducible: -1 non-square mod 3
    assert f9.q == 9
    assert f9.descriptor == "3^2/1,0,1"
    # an extension field needs its log tables, so none past TABLE_LIMIT
    with pytest.raises(InvalidParameter, match="q=6561 exceeds table limit 4096"):
        make_field(3, 8)


def test_even_characteristic_rejected():
    with pytest.raises(InvalidParameter, match="odd prime, got 2"):
        make_field(2, 1)
    with pytest.raises(InvalidParameter, match="odd prime, got 9"):
        make_field(9, 1)  # not prime


def test_reducible_modulus_rejected():
    # T^2 - 1 = (T-1)(T+1)
    with pytest.raises(InvalidParameter, match="reducible over F_3"):
        make_field(3, 2, [2, 0, 1])
    with pytest.raises(InvalidParameter, match="must be monic of degree 2"):
        make_field(5, 2, [0, 1])  # wrong degree


def test_modulus_search_is_deterministic():
    a = GF(3, 2)
    b = GF(3, 2)
    assert a.modulus == b.modulus
    # lowest canonical index first: T^2+1 has low-part index 1, and
    # T^2, T^2+... with index 0 is reducible, so index 1 wins.
    assert a.modulus == (1, 0, 1)


# (modulus, exp[1]) of every extension field with q <= TABLE_LIMIT: the
# modulus is the irreducible monic of lowest index, and exp[1] the generator,
# the first element of order q - 1; a change to either rule relabels the
# field's elements, and with them every --a vector and every output
FIELD_TABLES = {
    (3, 2): ((1, 0, 1), 4),
    (3, 3): ((1, 2, 0, 1), 3),
    (3, 4): ((2, 1, 0, 0, 1), 3),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5),
    (5, 2): ((2, 0, 1), 6),
    (5, 3): ((1, 1, 0, 1), 9),
    (5, 4): ((2, 0, 0, 0, 1), 6),
    (5, 5): ((1, 4, 0, 0, 0, 1), 10),
    (7, 2): ((1, 0, 1), 9),
    (7, 3): ((2, 0, 0, 1), 22),
    (7, 4): ((1, 1, 0, 0, 1), 12),
    (11, 2): ((1, 0, 1), 15),
    (11, 3): ((4, 1, 0, 1), 11),
    (13, 2): ((2, 0, 1), 15),
    (13, 3): ((2, 0, 0, 1), 15),
    (17, 2): ((3, 0, 1), 19),
    (19, 2): ((1, 0, 1), 22),
    (23, 2): ((1, 0, 1), 25),
    (29, 2): ((2, 0, 1), 30),
    (31, 2): ((1, 0, 1), 35),
    (37, 2): ((2, 0, 1), 41),
    (41, 2): ((3, 0, 1), 43),
    (43, 2): ((1, 0, 1), 45),
    (47, 2): ((1, 0, 1), 49),
    (53, 2): ((2, 0, 1), 54),
    (59, 2): ((1, 0, 1), 62),
    (61, 2): ((2, 0, 1), 63),
}


def test_field_tables_are_pinned():
    every = {
        (p, k)
        for p in range(3, 64) if is_prime(p)
        for k in range(2, 13) if p**k <= TABLE_LIMIT
    }
    assert set(FIELD_TABLES) == every
    for (p, k), (modulus, gen) in FIELD_TABLES.items():
        gf = make_field(p, k)
        assert (gf.modulus, gf._exp[1]) == (modulus, gen)
        assert sorted(gf._exp) == list(range(1, gf.q))
        assert all(gf._log[x] == i for i, x in enumerate(gf._exp))


def test_custom_moduli_match_sympy():
    # every monic of degree k over F_p, q = p^k <= 343, against sympy's
    # irreducibility test; degree 1 only for p <= 7, where all are accepted
    from sympy import Poly, symbols

    t = symbols("t")
    for p, k in [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                 (5, 2), (5, 3), (7, 2), (7, 3)]:
        for idx in range(p**k):
            modulus = [idx // p**i % p for i in range(k)] + [1]
            want = Poly(modulus[::-1], t, modulus=p).is_irreducible
            try:
                got = make_field(p, k, modulus).modulus == tuple(modulus)
            except InvalidParameter as exc:
                assert f"is reducible over F_{p}" in str(exc)
                got = False
            assert got == want, (p, k, modulus)


def test_prime_field_ops():
    f7 = make_field(7)
    assert f7.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    assert f7.pow(2, 5) == 4  # 32 mod 7
    assert f7.add(6, 3) == 2
    assert f7.sub(1, 3) == 5


def test_f9_t_squared():
    f9 = make_field(3, 2, [1, 0, 1])
    t = f9.element([0, 1])
    assert f9.mul(t, t) == 2  # t^2 = -1 = 2 mod 3


def test_enumeration_bijection():
    for p, k, mod in FIELDS:
        gf = make_field(p, k, mod)
        seen = list(gf.elements())
        assert seen == list(range(gf.q))
        assert seen[0] == 0
        for i in seen:
            assert gf.element(gf.coeffs(i)) == i


@pytest.mark.parametrize("p,k,mod", FIELDS)
def test_field_axioms_random(p, k, mod):
    gf = make_field(p, k, mod)
    rng = random.Random(1234 + gf.q)
    for _ in range(200):
        x, y, z = (rng.randrange(gf.q) for _ in range(3))
        assert gf.add(x, y) == gf.add(y, x)
        assert gf.mul(x, y) == gf.mul(y, x)
        assert gf.add(gf.add(x, y), z) == gf.add(x, gf.add(y, z))
        assert gf.mul(gf.mul(x, y), z) == gf.mul(x, gf.mul(y, z))
        assert gf.mul(x, gf.add(y, z)) == gf.add(gf.mul(x, y), gf.mul(x, z))
        assert gf.add(x, gf.neg(x)) == 0
        if x:
            assert gf.mul(x, gf.inv(x)) == 1


@st.composite
def extension_elements(draw):
    """An extension field (3^2, 5^2 or 3^3), three elements and an exponent."""
    gf = draw(st.sampled_from([make_field(3, 2), make_field(5, 2), make_field(3, 3)]))
    x, y, z = (draw(st.integers(0, gf.q - 1)) for _ in range(3))
    return gf, x, y, z, draw(st.integers(-2 * gf.q, 2 * gf.q))


@settings(max_examples=300, deadline=None)
@given(case=extension_elements())
def test_extension_field_axioms(case):
    gf, x, y, z, n = case
    add, mul = gf.add, gf.mul
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, gf.neg(x)) == 0
    assert gf.sub(add(x, y), y) == x
    if x:
        assert mul(x, gf.inv(x)) == 1
        assert gf.div(mul(x, y), x) == y
    # pow against repeated multiplication, negative exponents via inv
    if x or n >= 0:
        base = x if n >= 0 else gf.inv(x)
        acc = 1
        for _ in range(abs(n)):
            acc = mul(acc, base)
        assert gf.pow(x, n) == acc
    if x:
        assert gf.pow(x, n + gf.q - 1) == gf.pow(x, n)


@pytest.mark.parametrize("p,k,mod", FIELDS)
def test_fermat_lagrange(p, k, mod):
    gf = make_field(p, k, mod)
    for x in gf.elements():
        assert gf.pow(x, gf.q) == x
        if x:
            assert gf.pow(x, gf.q - 1) == 1


def test_division_by_zero():
    gf = make_field(5)
    with pytest.raises(InvalidParameter, match="inverse of 0"):
        gf.inv(0)
    with pytest.raises(InvalidParameter, match="division by 0"):
        gf.div(3, 0)


def test_numpy_tables_match_scalar_ops():
    for p, k, mod in [(7, 1, None), (3, 2, [1, 0, 1])]:
        gf = make_field(p, k, mod)
        add, mul = gf.add_table(), gf.mul_table()
        for x in gf.elements():
            for y in gf.elements():
                assert add[x, y] == gf.add(x, y)
                assert mul[x, y] == gf.mul(x, y)


def test_prime_tables_are_int32_and_exact():
    # int32 arithmetic is exact for q <= TABLE_LIMIT, since (q-1)^2 < 2^31;
    # the tables are built in place, so a build holds no more than them
    assert (TABLE_LIMIT - 1) ** 2 < 2**31
    for q in (3, 5, 7, 11, 4093):
        gf = GF(q, 1)  # not the interned field: its tables are built here
        tracemalloc.start()
        try:
            add, mul = gf.add_table(), gf.mul_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert add.dtype == mul.dtype == np.int32
        assert peak <= 2 * q * q * 4 + 2**16
        i = np.arange(q, dtype=np.int64)
        for lo in range(0, q, 256):  # the int64 formula, a block of rows at a time
            rows = i[lo:lo + 256, None]
            assert np.array_equal(add[lo:lo + 256], (rows + i) % q)
            assert np.array_equal(mul[lo:lo + 256], (rows * i) % q)


def test_descriptor_round_trip():
    for p, k, mod in FIELDS:
        gf = make_field(p, k, mod)
        again = parse_descriptor(gf.descriptor)
        assert again == gf and again.modulus == gf.modulus
    assert parse_descriptor("7^1").q == 7
    assert parse_descriptor("7").q == 7
    with pytest.raises(InvalidParameter, match="odd prime, got 25"):
        parse_descriptor("25^1")


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]


# the last lies past TABLE_LIMIT, a prime field: its arithmetic needs no tables
ROW_FIELDS = [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 3), (4099, 1)]


@st.composite
def field_rows(draw):
    """A field, two rows of one length (0 to 8), a scalar and a point."""
    gf = make_field(*draw(st.sampled_from(ROW_FIELDS)))
    element = st.integers(0, gf.q - 1)
    n = draw(st.integers(0, 8))
    xs = draw(st.lists(element, min_size=n, max_size=n))
    ys = draw(st.lists(element, min_size=n, max_size=n))
    return gf, xs, ys, draw(element), draw(element)


@settings(max_examples=400, deadline=None)
@given(case=field_rows())
def test_row_operations_match_scalar_loops(case):
    # the scalar per-element loops the row operations replace
    gf, xs, ys, c, t = case
    steps, acc = [], 0
    for x in xs:
        acc = gf.add(gf.mul(acc, t), x)
        steps.append(acc)
    assert gf.horner_steps(xs, t) == steps
    assert gf.scale_row(c, ys) == [gf.mul(c, y) for y in ys]
    assert gf.sub_scaled_row(xs, c, ys) == [
        gf.sub(x, gf.mul(c, y)) for x, y in zip(xs, ys)
    ]
