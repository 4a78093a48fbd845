"""Segments of cuspidal twists and their elementary operations.

A segment ``[nu^a rho, nu^b rho]`` is a cuspidal label together with two
half-integer bounds differing by an integer.  The value with b = a - 1 is
the first-class empty segment; it prints as ``1`` and vanishes inside
monomials, which lets summation bounds in the comultiplication formulas be
implemented literally with no special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SegmentError
from .scalars import CuspidalGLLabel, HalfInt, Keyed

__all__ = ["Segment"]


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Segment(Keyed):
    rho: CuspidalGLLabel
    a: HalfInt
    b: HalfInt
    key: tuple = field(init=False)
    text: str = field(init=False)

    def __post_init__(self):
        a = self.a if isinstance(self.a, HalfInt) else HalfInt(self.a)
        b = self.b if isinstance(self.b, HalfInt) else HalfInt(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        diff = b.twice - a.twice
        if diff % 2 != 0:
            raise SegmentError(
                f"segment bounds {a} and {b} differ by a non-integer"
            )
        if diff < -2:
            raise SegmentError(f"segment bounds {a} > {b} + 1")
        object.__setattr__(self, "key", (self.rho.name, a.twice, b.twice))
        object.__setattr__(
            self, "text", "1" if diff == -2 else f"d({a},{b}@{self.rho.name})"
        )

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
