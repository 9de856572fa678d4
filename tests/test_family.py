
import pytest
from hypothesis import example, given, settings, strategies as st_

from vslab.errors import InvalidParameter
from vslab.family import (
    FamilySpec,
    enumerate_b,
    family_poly,
    index_to_b,
    orbit_representatives,
    value_profile,
)
from vslab.gf import make_field, parse_descriptor
from vslab.sweep import collect_stats
from vslab import upoly as up

F5 = make_field(5)
F7 = make_field(7)


def test_family_poly_placement():
    spec = FamilySpec(F5, 3, 1, (1,))
    assert family_poly(spec, (2,), 3) == (3, 2, 1, 1)  # T^3+T^2+2T+3
    spec0 = FamilySpec(F5, 4, 0)
    assert family_poly(spec0, (0, 0, 0), 0) == (0, 0, 0, 0, 1)  # T^d
    with pytest.raises(InvalidParameter, match="expected 1 free coefficients, got 2"):
        family_poly(spec, (1, 2), 0)


def test_value_profile_examples():
    spec = FamilySpec(F7, 2, 0)
    prof = value_profile(spec, (0,))  # T^2 over F_7
    assert sum(prof) == 7
    assert prof[0] == 1
    squares = sorted(t * t % 7 for t in range(1, 7))
    for c in range(1, 7):
        assert prof[c] == (2 if c in squares else 0)
    # distinct-value count equals the value set size
    assert sum(1 for c in prof if c) == 4


def test_value_profile_matches_batch_eval():
    spec = FamilySpec(F5, 4, 1, (2,))
    for b in enumerate_b(spec):
        prof = value_profile(spec, b)
        vals = up.batch_eval(F5, family_poly(spec, b, 0))
        for c in range(5):
            assert prof[c] == vals.count(c)
        assert sum(prof) == 5
        assert all(n <= spec.d for n in prof)


def test_enumerate_b_counts_and_order():
    spec = FamilySpec(F5, 4, 1, (0,))
    bs = list(enumerate_b(spec))
    assert len(bs) == 25
    assert bs[0] == (0, 0)
    assert bs[1] == (0, 1)  # least significant digit is b_1
    assert bs[5] == (1, 0)
    assert bs == sorted(bs)
    spec1 = FamilySpec(F5, 2, 0)
    assert list(enumerate_b(spec1)) == [(c,) for c in range(5)]


def test_chunked_enumeration_is_a_partition():
    spec = FamilySpec(F5, 4, 1, (3,))
    whole = list(enumerate_b(spec))
    # a chunk is an index range [lo, hi), and it decodes to whole[lo:hi]
    for lo in range(0, spec.n_b, 7):
        hi = min(lo + 7, spec.n_b)
        assert [index_to_b(spec, i) for i in range(lo, hi)] == whole[lo:hi]


def test_monic_degree_invariant():
    spec = FamilySpec(F7, 5, 2, (1, 6))
    for b in [(0, 0), (3, 1), (6, 6)]:
        for b0 in (0, 2):
            f = family_poly(spec, b, b0)
            assert len(f) - 1 == 5 and f[-1] == 1


def test_spec_key_round_trip():
    spec = FamilySpec(F7, 4, 2, (1, 3))
    assert spec.key == "q=7^1/0,1;d=4;s=2;a=1,3"


def test_validation():
    with pytest.raises(InvalidParameter, match="need 0 <= s <= d-2"):
        FamilySpec(F5, 4, 3, (1, 2, 3))  # s > d-2
    with pytest.raises(InvalidParameter, match="expected 2 fixed coefficients"):
        FamilySpec(F5, 4, 2, (1,))
    with pytest.warns(UserWarning):
        FamilySpec(F5, 6, 1, (1,))  # q <= d, flagged only


def test_q_le_d_warning_names_the_caller():
    with pytest.warns(UserWarning) as record:
        FamilySpec(F5, 6, 1, (1,))
    assert [w.filename for w in record] == [__file__]


ORBIT_FIELDS = [parse_descriptor(t) for t in ("5^1", "7^1", "3^2", "5^2", "11^1")]
# (gf, d, s) with at most 7^4 members; q <= d only where p | d
ORBIT_POINTS = [
    (gf, d, s)
    for gf in ORBIT_FIELDS
    for d in range(2, 8)
    if gf.q > d or d % gf.p == 0
    for s in range(d - 1)
    if gf.q ** (d - s - 1) <= 7**4
]


def _image(gf, d, a, lam, t):
    """The top s coefficients of lam^-d (f(lam T + t) - f(t)), f = T^d + a
    with b = 0, by polynomial substitution; b and - f(t) only feed lower
    degrees."""
    f = [0] * (d + 1)
    f[d] = 1
    for i, c in enumerate(a, 1):
        f[d - i] = c
    moved = (0,)
    for c in reversed(f):  # Horner in the polynomial lam T + t
        moved = up.poly_add(gf, up.poly_mul(gf, moved, (t, lam)), (c,))
    moved = up.poly_scale(gf, moved, gf.pow(lam, -d))
    return tuple(moved[d - i] for i in range(1, len(a) + 1))


@st_.composite
def moved_family(draw):
    """(gf, d, s, a, lam, t): a family's a and an affine map (lam, t)."""
    gf, d, s = draw(st_.sampled_from(ORBIT_POINTS))
    a = tuple(draw(st_.integers(0, gf.q - 1)) for _ in range(s))
    return gf, d, s, a, draw(st_.integers(1, gf.q - 1)), draw(st_.integers(0, gf.q - 1))


def test_orbit_points_cover_the_edge_cases():
    assert {gf for gf, _, _ in ORBIT_POINTS} == set(ORBIT_FIELDS)
    assert {gf.q for gf, d, _ in ORBIT_POINTS if d % gf.p == 0} == {5, 7, 9, 25}
    assert any(s == d - 2 and s > 0 for _, d, s in ORBIT_POINTS)


@pytest.mark.filterwarnings("ignore:q = ")  # p | d with q = d
@settings(max_examples=40, deadline=None)
@given(case=moved_family())
@example(case=(parse_descriptor("3^2"), 6, 2, (4, 7), 5, 2))  # p | d
@example(case=(parse_descriptor("5^2"), 5, 2, (3, 11), 17, 9))  # p | d
@example(case=(parse_descriptor("7^1"), 7, 3, (2, 0, 5), 3, 4))  # p | d, q = d
@example(case=(parse_descriptor("7^1"), 7, 3, (0, 0, 5), 3, 4))  # p | d, a_{d-1} = 0
@example(case=(parse_descriptor("11^1"), 6, 3, (7, 2, 9), 6, 10))
def test_one_sweep_per_affine_orbit(case):
    # lam^-d (f(lam T + t) - f(t)) carries the family at a onto the family
    # at a's image, so the sweep of a's representative, the smallest image
    # over all (lam, t), gives the image's statistics
    gf, d, s, a, lam, t = case
    image = _image(gf, d, a, lam, t)
    rep, rep_image = orbit_representatives(gf, d, s, [a, image])
    assert rep == min(
        _image(gf, d, a, mu, u) for mu in range(1, gf.q) for u in range(gf.q)
    )
    assert rep_image == rep
    if s and d % gf.p:
        assert rep[0] == 0  # translation clears a_{d-1}
    via_rep = collect_stats(FamilySpec(gf, d, s, rep))
    assert via_rep == collect_stats(FamilySpec(gf, d, s, image))
