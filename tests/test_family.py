import pytest

from vslab.errors import LengthMismatch
from vslab.family import (
    FamilySpec,
    enumerate_b,
    family_poly,
    index_to_b,
    value_profile,
)
from vslab.gf import make_field
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
