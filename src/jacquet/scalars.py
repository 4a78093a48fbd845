"""Exact scalars and opaque label types.

Every exponent in this package lives in (1/2)Z and is stored as a doubled
integer, so arithmetic and comparisons are exact and canonical forms of
monomials are stable.  Cuspidal representations are opaque labels: the only
facts the calculus ever consults are a label's name, its GL rank, whether it
is conjugate self-dual, and (for the anchor labels of the bigger group) the
declared reducibility points and twist-fixedness.  Half-integers, labels,
twist tags and every value type built on them derive from ``Keyed``, which
makes them immutable once constructed.  The twist group law, ``_product``,
and ``GroupMode``, which says whether the pairing twists at all, sit here
beside ``TwistTag``, so a layer that needs them imports this module alone.
"""

from __future__ import annotations

import enum
import re
import threading
from functools import total_ordering
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (InvalidParamsError, JacquetError, KindMismatchError,
                     LabelConflictError, UnknownLabelError, _checked)

__all__ = [
    "HalfInt",
    "CuspidalGLLabel",
    "GUCuspidalLabel",
    "TwistTag",
    "TRIVIAL_TWIST",
    "GroupMode",
    "LabelRegistry",
]


class Keyed:
    """An immutable value identified by one stored canonical ``key``.

    A key holds only strs, ints, bools, ``None`` and tuples of those: a
    value that holds another value puts that value's key or name in its
    own.  Equality, hashing and canonical output order all use ``key``.  A
    subclass declares ``__slots__``, ``key`` among them, and its
    ``__init__`` stores every slot once through ``_fill``.  A slot is set
    through its setter: the ``__set__`` of the slot's member descriptor,
    which ``__init_subclass__`` records once per subclass in ``_setters``,
    in ``__slots__`` order, so no call looks a slot up by name.  A trusted
    constructor that skips ``__init__`` sets each slot through its setter
    too.  No attribute can be assigned or deleted after that, and copy and
    pickle (every protocol) carry the slots through
    ``__getstate__``/``__setstate__``.
    Two subclasses differ: ``HalfInt`` compares by its one slot ``twice``
    and also equals ints, and ``FormalSum`` derives its key only when
    compared, with the terms in a frozenset.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _fill(self, *values) -> None:
        """Set the slots, in ``__slots__`` order."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

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
class HalfInt(Keyed):
    """An exact half-integer, stored as twice its value.

    ``HalfInt(3)`` is the integer 3; use ``HalfInt.from_twice(1)`` or
    ``HalfInt("1/2")`` for one half.  Addition, subtraction, negation and
    comparisons are exact and never round.  ``twice`` stands in for a
    ``key``: equality, order and hashing go by it, and equality and order
    also accept plain ints, so ``HalfInt(2) == 2`` and the two hash
    alike.  A ``bool`` is no int here: ``HalfInt(True)`` raises
    ``KindMismatchError``.
    """

    __slots__ = ("twice",)

    def __init__(self, value: "int | str | HalfInt" = 0):
        twice = _parse_twice(value) if isinstance(value, str) else _twice(value)
        if twice is None:
            raise KindMismatchError(f"cannot build a HalfInt from {value!r}")
        self._fill(twice)

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        _checked("from_twice", int, (twice,))
        out = object.__new__(cls)
        set_twice, = cls._setters
        set_twice(out, twice)
        return out

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def ceil(self) -> int:
        """Smallest integer not smaller than the value."""
        return (self.twice + 1) // 2

    def __add__(self, other):
        o = _twice(other)
        if o is None:
            return NotImplemented
        return HalfInt.from_twice(self.twice + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _twice(other)
        if o is None:
            return NotImplemented
        return HalfInt.from_twice(self.twice - o)

    def __rsub__(self, other):
        o = _twice(other)
        if o is None:
            return NotImplemented
        return HalfInt.from_twice(o - self.twice)

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return HalfInt.from_twice(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        o = _twice(other)
        if o is None:
            return NotImplemented
        return self.twice == o

    def __lt__(self, other):
        o = _twice(other)
        if o is None:
            return NotImplemented
        return self.twice < o

    def __hash__(self):
        t = self.twice
        return hash(t // 2) if t % 2 == 0 else hash((t,))

    def __bool__(self):
        return self.twice != 0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({str(self)!r})"


def _twice(x) -> "int | None":
    """Twice the value of a HalfInt or an int; None for anything else,
    a ``bool`` included."""
    if isinstance(x, HalfInt):
        return x.twice
    if isinstance(x, int) and not isinstance(x, bool):
        return 2 * x
    return None


# A run of minus signs (their parity is the sign), decimal digits and an
# optional "/2", with whitespace allowed around each part.
_LITERAL = re.compile(r"\s*((?:-\s*)*)(\d+)\s*(/\s*2\s*)?")


def _parse_twice(text: str) -> int:
    m = _LITERAL.fullmatch(text)
    if m is None:
        raise InvalidParamsError(f"not a half-integer literal: {text!r}")
    signs, digits, half = m.groups()
    t = int(digits) if half else 2 * int(digits)
    return -t if signs.count("-") % 2 else t


# Suffix that names the conjugate-dual partner of a label that is not
# conjugate self-dual.
DUAL_MARKER = "~"


class CuspidalGLLabel(Keyed):
    """Opaque label for an irreducible cuspidal representation of a GL group.

    A ``name`` that is not a str raises ``KindMismatchError``; ``dim`` must
    be an int >= 1 and ``conj_self_dual`` a bool, or ``InvalidParamsError``
    is raised.  Equality and hashing go by name (``key`` is ``(name,)``);
    the registry is responsible for rejecting one name with two different
    ``attributes``.  The conjugate-dual partner of a label
    that is not conjugate self-dual is named from the name alone: an even
    run of trailing ``~`` gains one and an odd run loses one, so ``chi``
    and ``chi~`` are each other's partners, as are ``chi~~`` and
    ``chi~~~``.
    """

    __slots__ = ("name", "dim", "conj_self_dual", "key")

    def __init__(self, name: str, dim: int = 1, conj_self_dual: bool = True):
        _checked("a GL label name", str, (name,))
        if type(dim) is not int or dim < 1:
            raise InvalidParamsError(f"label {name!r}: dim must be an int >= 1, got {dim!r}")
        if type(conj_self_dual) is not bool:
            raise InvalidParamsError(
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


class GUCuspidalLabel(Keyed):
    """Opaque label for a cuspidal anchor representation of the bigger group.

    ``reducibility`` declares, per GL label, the non-negative half-integral
    point where the corresponding one-segment induction reduces; these are
    input data, never computed, and read through a read-only mapping.
    ``twist_fixed`` lists the GL labels whose central-character twist is
    declared to fix this anchor, which lets the engine erase the
    corresponding twist tags at canonicalization.
    A rank that is not an int >= 0, or a negative point, raises
    ``InvalidParamsError``; a ``name`` that is not a str, a
    ``reducibility`` that ``dict()`` refuses, a GL entry that is not a
    ``CuspidalGLLabel``, or a ``twist_fixed`` that is not iterable, raises
    ``KindMismatchError``.  ``LabelRegistry.declare_gu`` passes its
    arguments here unconverted, so it raises the same.
    Equality and hashing go by name, as for ``CuspidalGLLabel``.
    """

    __slots__ = ("name", "rank", "_reducibility", "twist_fixed", "key")

    def __init__(self, name: str, rank: int = 0,
                 reducibility: "Mapping[CuspidalGLLabel, HalfInt] | None" = None,
                 twist_fixed: Iterable = frozenset()):
        _checked("a GU label name", str, (name,))
        if type(rank) is not int or rank < 0:
            raise InvalidParamsError(f"label {name!r}: rank must be an int >= 0, got {rank!r}")
        try:
            red = dict(reducibility or {})
        except (TypeError, ValueError):
            raise KindMismatchError(f"label {name!r}: reducibility needs a mapping or "
                                    f"(label, point) pairs, got {reducibility!r}") from None
        _checked(f"label {name!r}: reducibility", CuspidalGLLabel, red)
        fixed = frozenset(_checked(f"label {name!r}: twist_fixed", CuspidalGLLabel,
                                   twist_fixed))
        for rho, val in red.items():
            red[rho] = v = HalfInt(val)
            if v < 0:
                raise InvalidParamsError(
                    f"label {name!r}: reducibility at {rho.name!r} must be >= 0")
        self._fill(name, rank, red, fixed, (name,))

    @property
    def reducibility(self) -> Mapping:
        return MappingProxyType(self._reducibility)

    @property
    def attributes(self) -> tuple:
        """(rank, reducibility, twist_fixed): everything but the name."""
        return (self.rank, self.reducibility, self.twist_fixed)

    def __repr__(self):
        return f"GUCuspidalLabel({self.name!r}, rank={self.rank})"


def _product(entries) -> tuple:
    """(entries, key) of the product of valid twist entries, the one twist
    group law: exponents and nu sums add up per name, names whose exponent
    comes to 0 drop out, and the rest sort by name."""
    merged: dict = {}
    for name, exp, nu in entries:
        old = merged.get(name)
        merged[name] = (exp, nu) if old is None else (old[0] + exp, old[1] + nu)
    out = tuple((name, exp, nu) for name, (exp, nu) in sorted(merged.items()) if exp)
    return out, tuple((name, exp) for name, exp, _ in out)


class TwistTag(Keyed):
    """Formal product of central-character twists, as a free abelian group element.

    Entries are (label name, exponent, accumulated nu-exponent sum); the
    nu sum is carried for display only and does not enter ``key``, the
    tuple of (name, exponent) pairs.  The trivial tag is the empty tuple.
    The constructor checks its entries, then reduces them by the group
    law ``_product``, as ``merge`` does.
    A name must be a str and an exponent an int (not a bool); anything but
    an iterable of such triples raises ``KindMismatchError``.
    """

    __slots__ = ("entries", "key")

    def __init__(self, entries: tuple = ()):
        checked = []
        try:
            for name, exp, nu in entries:
                if type(name) is not str or type(exp) is not int:
                    raise KindMismatchError("a TwistTag entry needs a str name and an int "
                                            f"exponent, got {(name, exp, nu)!r}")
                checked.append((name, exp, nu if isinstance(nu, HalfInt) else HalfInt(nu)))
        except JacquetError:
            raise
        except (TypeError, ValueError):  # not iterable, or an item is no triple
            raise KindMismatchError(
                f"a TwistTag needs (name, exponent, nu) triples, got {entries!r}") from None
        self._fill(*_product(checked))

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    def merge(self, other: "TwistTag") -> "TwistTag":
        """The product of two tags by ``_product``, without the constructor's
        per-entry checks and ``HalfInt`` coercion: both are valid already."""
        if not isinstance(other, TwistTag):  # the fold merges often: check only then
            _checked("TwistTag.merge", TwistTag, (other,))
        if self.is_trivial:
            return other
        if other.is_trivial:
            return self
        out = object.__new__(TwistTag)
        out._fill(*_product(self.entries + other.entries))
        return out

    def inverse(self) -> "TwistTag":
        return TwistTag(tuple((n, -e, -nu) for n, e, nu in self.entries))

    def without(self, names) -> "TwistTag":
        """Erase the entries keyed by any of the given names, not a bare str."""
        if isinstance(names, str):
            raise KindMismatchError(f"TwistTag.without needs label names, got {names!r}")
        names = _checked("TwistTag.without", str, names)
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


class GroupMode(enum.Enum):
    """Selects the twist semantics of the pairing.

    GU: the dualized factor twists the anchor by its central character.
    U:  no twist is ever produced.
    ``GroupMode(mode)`` raises ``JacquetError`` for a value not listed here.
    """

    GU = "GU"
    U = "U"

    @classmethod
    def _missing_(cls, value):
        raise JacquetError(f"unknown group mode {value!r}")


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
        label = GUCuspidalLabel(name, rank, reducibility, twist_fixed)
        return self._declare(self._gu, "GU", (label,))

    def gl(self, name: str) -> CuspidalGLLabel:
        """The GL label ``name``.  An undeclared name ending in ``~`` is the
        dual of the name without that marker, so the longest declared
        prefix decides, dualized once per marker after it."""
        _checked("LabelRegistry.gl", str, (name,))
        base, duals = name, 0
        while base not in self._gl:
            if not base.endswith(DUAL_MARKER):
                raise UnknownLabelError(f"unknown GL label {name!r}")
            base, duals = base[:-len(DUAL_MARKER)], duals + 1
        label = self._gl[base]
        return label.dual() if duals % 2 else label

    def gu(self, name: str) -> GUCuspidalLabel:
        _checked("LabelRegistry.gu", str, (name,))
        try:
            return self._gu[name]
        except KeyError:
            raise UnknownLabelError(f"unknown GU label {name!r}") from None
