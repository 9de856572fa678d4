import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st_

from vslab.errors import LengthMismatch
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
    with pytest.raises(LengthMismatch):
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
    # degenerate: no free coefficients at all
    spec_d1 = FamilySpec(F5, 1, 0)
    assert list(enumerate_b(spec_d1)) == [()]


def test_chunked_enumeration_is_a_partition():
    spec = FamilySpec(F5, 4, 1, (3,))
    whole = list(enumerate_b(spec))
    chunked = []
    for lo in range(0, spec.n_b, 7):
        chunked.extend(enumerate_b(spec, lo, min(lo + 7, spec.n_b)))
    assert chunked == whole
    assert [index_to_b(spec, i) for i in range(spec.n_b)] == whole


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
    with pytest.raises(ValueError):
        FamilySpec(F5, 4, 3, (1, 2, 3))  # s > d-2
    with pytest.raises(LengthMismatch):
        FamilySpec(F5, 4, 2, (1,))
    FamilySpec(F5, 4, 1, (1,), strict=True)  # q > d: fine
    with pytest.raises(ValueError):
        FamilySpec(F5, 6, 1, (1,), strict=True)  # q <= d, strict
    with pytest.warns(UserWarning):
        FamilySpec(F5, 6, 1, (1,))  # q <= d, flagged only


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


def _scaled(gf, a, lam):
    """(lam^-1 a_{d-1}, ..., lam^-s a_{d-s}) by scalar field arithmetic."""
    return tuple(gf.mul(gf.pow(lam, -i), c) for i, c in enumerate(a, 1))


@st_.composite
def scaled_family(draw):
    """(gf, d, s, a, lam): a family's a and a scaling lam in F_q^*."""
    gf, d, s = draw(st_.sampled_from(ORBIT_POINTS))
    a = tuple(draw(st_.integers(0, gf.q - 1)) for _ in range(s))
    return gf, d, s, a, draw(st_.integers(1, gf.q - 1))


def test_orbit_points_cover_the_edge_cases():
    assert {gf for gf, _, _ in ORBIT_POINTS} == set(ORBIT_FIELDS)
    assert {gf.q for gf, d, _ in ORBIT_POINTS if d % gf.p == 0} == {5, 7, 9, 25}
    assert any(s == d - 2 and s > 0 for _, d, s in ORBIT_POINTS)


@pytest.mark.filterwarnings("ignore:q = ")  # p | d with q = d
@settings(max_examples=40, deadline=None)
@given(case=scaled_family())
@example(case=(parse_descriptor("3^2"), 6, 2, (4, 7), 5))  # p | d
@example(case=(parse_descriptor("5^2"), 5, 2, (3, 11), 17))  # p | d
@example(case=(parse_descriptor("7^1"), 7, 3, (2, 0, 5), 3))  # p | d, q = d
def test_one_sweep_per_scaling_orbit(case):
    # lam^-d f(lam T) carries the family at a onto the family at the scaled
    # a, so the sweep of a's representative gives the scaled a's statistics
    gf, d, s, a, lam = case
    scaled = _scaled(gf, a, lam)
    rep, rep_scaled = orbit_representatives(gf, s, [a, scaled])
    assert rep == min(_scaled(gf, a, mu) for mu in range(1, gf.q))
    assert rep_scaled == rep
    key = FamilySpec(gf, d, s, a).key
    via_rep = collect_stats(FamilySpec(gf, d, s, rep))
    full = collect_stats(FamilySpec(gf, d, s, scaled))
    assert dataclasses.replace(via_rep, key=key) == dataclasses.replace(full, key=key)
