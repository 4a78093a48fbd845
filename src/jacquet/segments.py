"""Segments of cuspidal twists and their elementary operations.

A segment ``[nu^a rho, nu^b rho]`` is a cuspidal label together with two
half-integer bounds differing by an integer.  The value with b = a - 1 is
the first-class empty segment; it prints as ``1`` and vanishes inside
monomials, which lets summation bounds in the comultiplication formulas be
implemented literally with no special cases.  A ``Segment`` is a slotted
``Keyed`` value: it cannot be changed after construction.
"""

from __future__ import annotations

from .errors import SegmentError, _checked
from .scalars import CuspidalGLLabel, HalfInt, Keyed

__all__ = ["Segment"]


class Segment(Keyed):
    """``[nu^a rho, nu^b rho]`` with ``HalfInt`` bounds (ints are converted);
    ``key`` is ``(rho.name, 2a, 2b)`` and ``text`` the printed form."""

    __slots__ = ("rho", "a", "b", "key", "text")

    def __init__(self, rho: CuspidalGLLabel, a: HalfInt, b: HalfInt):
        _checked("a segment", CuspidalGLLabel, (rho,))
        a = a if isinstance(a, HalfInt) else HalfInt(a)
        b = b if isinstance(b, HalfInt) else HalfInt(b)
        diff = b.twice - a.twice
        if diff % 2 != 0:
            raise SegmentError(
                f"segment bounds {a} and {b} differ by a non-integer"
            )
        if diff < -2:
            raise SegmentError(f"segment bounds {a} > {b} + 1")
        self._fill(rho, a, b, (rho.name, a.twice, b.twice),
                   "1" if diff == -2 else f"d({a},{b}@{rho.name})")

    @classmethod
    def empty(cls, rho: CuspidalGLLabel, a: "HalfInt | int" = 0) -> "Segment":
        a = HalfInt(a)
        return cls(rho, a, a - 1)

    @property
    def is_empty(self) -> bool:
        return self.b.twice == self.a.twice - 2

    @property
    def length(self) -> int:
        """Number of cuspidal twists in the segment (0 when empty)."""
        if self.is_empty:
            return 0
        return (self.b.twice - self.a.twice) // 2 + 1

    @property
    def rank(self) -> int:
        """GL rank of the associated essentially square-integrable class."""
        return self.length * self.rho.dim

    def dual(self) -> "Segment":
        """Conjugate dual: negate and swap the bounds, dualize the label."""
        return Segment(self.rho.dual(), -self.b, -self.a)

    def center(self) -> HalfInt:
        """The exponent center (a + b) / 2 of a nonempty segment.

        Always exactly representable: the bounds share parity, so a + b is
        an integer.
        """
        if self.is_empty:
            raise SegmentError("the empty segment has no exponent center")
        return HalfInt.from_twice((self.a.twice + self.b.twice) // 2)

    def is_strongly_positive(self) -> bool:
        if self.is_empty:
            raise SegmentError("the empty segment is neither positive nor not")
        return self.a > 0

    def exponent_sum(self) -> HalfInt:
        """Sum of all exponents in the segment; 0 for the empty segment."""
        return HalfInt.from_twice(self.length * (self.a.twice + self.b.twice) // 2)

    def __str__(self):
        return self.text
