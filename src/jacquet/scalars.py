"""Exact scalars and opaque label types.

Every exponent in this package lives in (1/2)Z and is stored as a doubled
integer, so arithmetic and comparisons are exact and canonical forms of
monomials are stable.  Cuspidal representations are opaque labels: the only
facts the calculus ever consults are a label's name, its GL rank, whether it
is conjugate self-dual, and (for the anchor labels of the bigger group) the
declared reducibility points and twist-fixedness.  Labels, twist tags and
the value types built on them derive from ``Keyed``, which makes them
immutable once constructed.
"""

from __future__ import annotations

import threading
from functools import total_ordering
from typing import Iterable, Mapping

from .errors import KindMismatchError, LabelConflictError, UnknownLabelError

__all__ = [
    "Keyed",
    "HalfInt",
    "CuspidalGLLabel",
    "GUCuspidalLabel",
    "TwistTag",
    "TRIVIAL_TWIST",
    "LabelRegistry",
    "DUAL_MARKER",
]


class Keyed:
    """An immutable value identified by one stored canonical ``key``, a
    tuple of str/int.

    Equality, hashing and canonical output order all use ``key``.  A
    subclass declares ``__slots__``, ``key`` among them, and its
    ``__init__`` stores every slot once through ``_fill``; no attribute
    can be assigned or deleted after that, and copy and pickle carry the
    slots through ``__getstate__``/``__setstate__``.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set the slots, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        self._fill(*state)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.key == other.key
        return NotImplemented

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


@total_ordering
class HalfInt:
    """An exact half-integer, stored as twice its value.

    ``HalfInt(3)`` is the integer 3; use ``HalfInt.from_twice(1)`` or
    ``HalfInt("1/2")`` for one half.  Addition, subtraction, negation and
    comparisons are exact and never round.  Equality with plain ints is
    supported for convenience, but hashes are not aligned with int hashes,
    so HalfInt and int must not be mixed as keys of one dict.
    """

    __slots__ = ("twice",)

    def __init__(self, value: "int | str | HalfInt" = 0):
        if isinstance(value, HalfInt):
            self.twice = value.twice
        elif isinstance(value, int):
            self.twice = 2 * value
        elif isinstance(value, str):
            self.twice = _parse_twice(value)
        else:
            raise TypeError(f"cannot build a HalfInt from {value!r}")

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        if not isinstance(twice, int):
            raise TypeError("from_twice expects an int")
        out = cls.__new__(cls)
        out.twice = twice
        return out

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def ceil(self) -> int:
        """Smallest integer not smaller than the value."""
        return (self.twice + 1) // 2

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return HalfInt.from_twice(self.twice + o.twice)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return HalfInt.from_twice(self.twice - o.twice)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return HalfInt.from_twice(o.twice - self.twice)

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt.from_twice(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.twice == o.twice

    def __lt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.twice < o.twice

    def __hash__(self):
        return hash(self.twice)

    def __bool__(self):
        return self.twice != 0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({str(self)!r})"


def _coerce(x) -> "HalfInt | None":
    if isinstance(x, HalfInt):
        return x
    if isinstance(x, int):
        return HalfInt(x)
    return None


def _parse_twice(text: str) -> int:
    s = text.strip()
    neg = False
    while s.startswith("-"):
        neg = not neg
        s = s[1:].strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if den.strip() != "2" or not num.strip().isdecimal():
            raise ValueError(f"not a half-integer literal: {text!r}")
        t = int(num)
    elif s.isdecimal():
        t = 2 * int(s)
    else:
        raise ValueError(f"not a half-integer literal: {text!r}")
    return -t if neg else t


# Suffix that names the conjugate-dual partner of a label that is not
# conjugate self-dual.
DUAL_MARKER = "~"


class CuspidalGLLabel(Keyed):
    """Opaque label for an irreducible cuspidal representation of a GL group.

    ``dim`` must be an int >= 1 and ``conj_self_dual`` a bool, or
    ``ValueError`` is raised.  Equality and hashing go by name (``key`` is
    ``(name,)``); the registry is responsible for rejecting one name with
    two different ``attributes``.  The conjugate-dual partner of a label
    that is not conjugate self-dual is named from the name alone: an even
    run of trailing ``~`` gains one and an odd run loses one, so ``chi``
    and ``chi~`` are each other's partners, as are ``chi~~`` and
    ``chi~~~``.
    """

    __slots__ = ("name", "dim", "conj_self_dual", "key")

    def __init__(self, name: str, dim: int = 1, conj_self_dual: bool = True):
        if type(dim) is not int or dim < 1:
            raise ValueError(f"label {name!r}: dim must be an int >= 1, got {dim!r}")
        if type(conj_self_dual) is not bool:
            raise ValueError(
                f"label {name!r}: conj_self_dual must be a bool, got {conj_self_dual!r}"
            )
        self._fill(name, dim, conj_self_dual, (name,))

    @property
    def attributes(self) -> tuple:
        """(dim, conj_self_dual): everything but the name, which two labels
        of one name must agree on."""
        return (self.dim, self.conj_self_dual)

    def dual(self) -> "CuspidalGLLabel":
        """The conjugate-dual label; an involution."""
        if self.conj_self_dual:
            return self
        name = self.name
        if (len(name) - len(name.rstrip(DUAL_MARKER))) % 2:
            return CuspidalGLLabel(name[:-len(DUAL_MARKER)], self.dim, False)
        return CuspidalGLLabel(name + DUAL_MARKER, self.dim, False)

    def __repr__(self):
        return f"CuspidalGLLabel({self.name!r}, dim={self.dim})"


def _check_gl_labels(anchor: str, field: str, labels) -> None:
    for rho in labels:
        if not isinstance(rho, CuspidalGLLabel):
            raise KindMismatchError(
                f"label {anchor!r}: {field} needs CuspidalGLLabels, got {rho!r}"
            )


class GUCuspidalLabel(Keyed):
    """Opaque label for a cuspidal anchor representation of the bigger group.

    ``reducibility`` declares, per GL label, the non-negative half-integral
    point where the corresponding one-segment induction reduces; these are
    input data, never computed.  ``twist_fixed`` lists the GL labels whose
    central-character twist is declared to fix this anchor, which lets the
    engine erase the corresponding twist tags at canonicalization.
    A rank that is not an int >= 0, or a negative point, raises
    ``ValueError``; a GL entry that is not a ``CuspidalGLLabel`` raises
    ``KindMismatchError``.  Equality and hashing go by name, as for
    ``CuspidalGLLabel``.
    """

    __slots__ = ("name", "rank", "reducibility", "twist_fixed", "key")

    def __init__(self, name: str, rank: int = 0,
                 reducibility: "Mapping[CuspidalGLLabel, HalfInt] | None" = None,
                 twist_fixed: Iterable = frozenset()):
        if type(rank) is not int or rank < 0:
            raise ValueError(f"label {name!r}: rank must be an int >= 0, got {rank!r}")
        red = dict(reducibility or {})
        fixed = frozenset(twist_fixed)
        _check_gl_labels(name, "reducibility", red)
        _check_gl_labels(name, "twist_fixed", fixed)
        for rho, val in red.items():
            red[rho] = v = HalfInt(val)
            if v < 0:
                raise ValueError(
                    f"label {name!r}: reducibility at {rho.name!r} must be >= 0"
                )
        self._fill(name, rank, red, fixed, (name,))

    @property
    def attributes(self) -> tuple:
        """(rank, reducibility, twist_fixed): everything but the name."""
        return (self.rank, self.reducibility, self.twist_fixed)

    def __repr__(self):
        return f"GUCuspidalLabel({self.name!r}, rank={self.rank})"


class TwistTag(Keyed):
    """Formal product of central-character twists, as a free abelian group element.

    Entries are (label name, exponent, accumulated nu-exponent sum); the
    nu sum is carried for display only and does not enter ``key``, the
    tuple of (name, exponent) pairs.  The trivial tag is the empty tuple.
    """

    __slots__ = ("entries", "key")

    def __init__(self, entries: tuple = ()):
        merged: dict = {}
        for name, exp, nu in entries:
            old_exp, old_nu = merged.get(name, (0, HalfInt(0)))
            merged[name] = (old_exp + int(exp), old_nu + HalfInt(nu))
        out = tuple(
            (name, exp, nu)
            for name, (exp, nu) in sorted(merged.items())
            if exp != 0
        )
        self._fill(out, tuple((n, e) for n, e, _ in out))

    @classmethod
    def omega(cls, label: "CuspidalGLLabel | str", nu: HalfInt = HalfInt(0)) -> "TwistTag":
        """The single twist contributed by one GL factor with the given label."""
        name = label.name if isinstance(label, CuspidalGLLabel) else label
        return cls(((name, 1, HalfInt(nu)),))

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    def merge(self, other: "TwistTag") -> "TwistTag":
        """Componentwise sum of twist exponents; zero entries are pruned."""
        if self.is_trivial:
            return other
        if other.is_trivial:
            return self
        return TwistTag(self.entries + other.entries)

    def inverse(self) -> "TwistTag":
        return TwistTag(tuple((n, -e, -nu) for n, e, nu in self.entries))

    def without(self, names) -> "TwistTag":
        """Erase the entries keyed by any of the given label names."""
        if self.is_trivial:
            return self
        kept = tuple(e for e in self.entries if e[0] not in names)
        return self if len(kept) == len(self.entries) else TwistTag(kept)

    def __str__(self):
        if self.is_trivial:
            return ""
        parts = []
        for name, exp, _ in self.entries:
            parts.append(f"w_{name}" if exp == 1 else f"w_{name}^{exp}")
        return " ".join(parts)

    def __repr__(self):
        return f"TwistTag({self.entries!r})"


TRIVIAL_TWIST = TwistTag()


class LabelRegistry:
    """Append-only name table for cuspidal labels.

    Declaring a GL label that is not conjugate self-dual also declares its
    dual partner, whose name follows from the label's (see
    ``CuspidalGLLabel``); declaring the partner itself afterwards, or
    first, gives the same pair.  Redeclaring a name with identical
    attributes is a no-op returning the existing label; a declaration
    that would hold any name with different attributes raises and holds
    nothing, since silent attribute drift would corrupt canonical forms.
    Reads are lock-free; writes are serialized.
    """

    def __init__(self):
        self._gl: dict = {}
        self._gu: dict = {}
        self._lock = threading.Lock()

    def _declare(self, table: dict, kind: str, labels: tuple):
        """Hold each of ``labels`` not yet held, after checking that every
        one already held has the same attributes; return the held first."""
        with self._lock:
            held = [table.get(label.name) for label in labels]
            for label, old in zip(labels, held):
                if old is not None and old.attributes != label.attributes:
                    raise LabelConflictError(
                        f"{kind} label {label.name!r} redeclared with different attributes"
                    )
            for label, old in zip(labels, held):
                if old is None:
                    table[label.name] = label
        return held[0] or labels[0]

    def declare_gl(self, name: str, dim: int = 1,
                   conj_self_dual: bool = True) -> CuspidalGLLabel:
        label = CuspidalGLLabel(name, dim, conj_self_dual)
        return self._declare(self._gl, "GL", (label, label.dual()))

    def declare_gu(self, name: str, rank: int = 0,
                   reducibility: "Mapping[CuspidalGLLabel, HalfInt] | None" = None,
                   twist_fixed: Iterable = ()) -> GUCuspidalLabel:
        label = GUCuspidalLabel(name, rank, reducibility or {}, frozenset(twist_fixed))
        return self._declare(self._gu, "GU", (label,))

    def gl(self, name: str) -> CuspidalGLLabel:
        """The GL label ``name``.  An undeclared name ending in ``~`` is the
        dual of the name without that marker, so the longest declared
        prefix decides, dualized once per marker after it."""
        base, duals = name, 0
        while base not in self._gl:
            if not base.endswith(DUAL_MARKER):
                raise UnknownLabelError(f"unknown GL label {name!r}")
            base, duals = base[:-len(DUAL_MARKER)], duals + 1
        label = self._gl[base]
        return label.dual() if duals % 2 else label

    def gu(self, name: str) -> GUCuspidalLabel:
        try:
            return self._gu[name]
        except KeyError:
            raise UnknownLabelError(f"unknown GU label {name!r}") from None
