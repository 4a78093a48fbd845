"""Segments: bounds validation, duals, centers, strong positivity."""

import pytest
from hypothesis import given, strategies as st

from jacquet import (
    CuspidalGLLabel,
    HalfInt,
    Segment,
    SegmentError,
)
from helpers import h, seg

RHO = CuspidalGLLabel("rho")
TAU = CuspidalGLLabel("tau", dim=2)
CHI = CuspidalGLLabel("chi", conj_self_dual=False)


def test_mixed_parity_rejected():
    with pytest.raises(SegmentError):
        Segment(RHO, h(1), h(2))  # 1/2 and 1 differ by a half


def test_too_negative_rejected():
    with pytest.raises(SegmentError):
        Segment(RHO, HalfInt(2), HalfInt(0))  # b < a - 1


def test_empty_segment():
    e = Segment.empty(RHO, HalfInt(3))
    assert e.is_empty
    assert e.length == 0
    assert e.rank == 0
    assert str(e) == "1"


def test_length_and_rank():
    s = seg(RHO, 1, 3)
    assert s.length == 3 and s.rank == 3
    t = seg(TAU, 0, 1)
    assert t.length == 2 and t.rank == 4


def test_dual_example():
    # [nu^1 rho, nu^2 rho] with rho conjugate self-dual
    assert seg(RHO, 1, 2).dual() == seg(RHO, -2, -1)


def test_dual_empty_stays_empty():
    e = Segment.empty(RHO, HalfInt(3))
    assert e.dual().is_empty


def test_dual_relabels():
    s = seg(CHI, 0, 1)
    d = s.dual()
    assert d.rho.name == "chi~"
    assert d.dual() == s


def test_center_examples():
    assert Segment(RHO, h(1), h(5)).center() == h(3)  # [1/2, 5/2] -> 3/2
    assert seg(RHO, 4, 4).center() == HalfInt(4)
    assert seg(RHO, 1, 2).center() == h(3)


def test_center_of_empty_rejected():
    with pytest.raises(SegmentError):
        Segment.empty(RHO).center()


def test_strongly_positive():
    assert Segment(RHO, h(1), h(3)).is_strongly_positive()
    assert not seg(RHO, 0, 2).is_strongly_positive()
    assert not seg(RHO, -1, 1).is_strongly_positive()
    with pytest.raises(SegmentError):
        Segment.empty(RHO).is_strongly_positive()


def test_exponent_sum():
    assert seg(RHO, 1, 3).exponent_sum() == HalfInt(6)
    assert Segment(RHO, h(1), h(3)).exponent_sum() == HalfInt(2)  # 1/2 + 3/2
    assert Segment.empty(RHO).exponent_sum() == HalfInt(0)


def test_str():
    assert str(Segment(RHO, h(1), h(5))) == "d(1/2,5/2@rho)"
    assert str(seg(RHO, -1, 2)) == "d(-1,2@rho)"


segments = st.builds(
    lambda rho, start, length: Segment(rho, h(start), h(start) + (length - 1)),
    st.sampled_from([RHO, TAU, CHI]),
    st.integers(-9, 9),
    st.integers(0, 5),  # length 0 builds the empty segment
)


@given(segments)
def test_dual_involution(s):
    assert s.dual().dual() == s


@given(segments)
def test_dual_preserves_length(s):
    assert s.dual().length == s.length


@given(segments.filter(lambda s: not s.is_empty))
def test_dual_negates_center(s):
    assert s.dual().center() == -s.center()
