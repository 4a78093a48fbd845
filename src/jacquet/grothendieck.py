"""Formal integer combinations of canonical monomials.

The coefficient rings here are spanned by classes of products of
essentially square-integrable segment representations: a ``GLMonomial`` is
a commutative product of segment classes, a ``GUClass`` is such a product
induced over a cuspidal anchor (with an accumulated twist tag), and a
``TensorTerm`` is a tuple of those, one per tensor slot.  A ``FormalSum``
maps canonical monomials to nonzero arbitrary-precision multiplicities;
equality of sums is equality of canonical forms.

The three monomial types are slotted ``Keyed`` values, built once and never
changed; a ``FormalSum`` is never changed after construction either.
Operations return new values and are safe to call concurrently.
"""

from __future__ import annotations

import os
from operator import attrgetter
from sys import intern
from typing import Iterable, Union

from .errors import JacquetError, KindMismatchError, TermLimitError, _checked
from .scalars import GUCuspidalLabel, Keyed, TwistTag, TRIVIAL_TWIST
from .segments import Segment

__all__ = [
    "GLMonomial",
    "GUClass",
    "TensorTerm",
    "FormalSum",
    "tensor_multiply",
    "sum_to_obj",
]

_DEFAULT_MAX_TERMS = 10**6


def _max_terms() -> int:
    raw = os.environ.get("JACQUET_MAX_TERMS")
    if not raw:
        return _DEFAULT_MAX_TERMS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise JacquetError(f"JACQUET_MAX_TERMS must be a positive integer, got {raw!r}")
    return cap


def _over_cap(what: str, size: int, cap: int) -> TermLimitError:
    """The error for ``what`` grown to ``size`` terms, past the cap."""
    return TermLimitError(f"{what} of {size} terms exceeds JACQUET_MAX_TERMS ({cap} terms)")


_by_key = attrgetter("key")


def _canonical_segments(where: str, segments: Iterable[Segment]) -> tuple:
    segments = _checked(where, Segment, segments)
    return tuple(sorted((s for s in segments if not s.is_empty), key=_by_key))


def _absorb_fixed(sigma: GUCuspidalLabel, twist: TwistTag) -> TwistTag:
    """``twist`` with the entries of the labels ``sigma`` declares
    twist-fixed erased."""
    fixed = {rho.name for rho in sigma.twist_fixed}
    return twist.without(fixed) if fixed else twist


def _product_text(segments: tuple) -> str:
    return " x ".join([s.text for s in segments]) if segments else "1"


class GLMonomial(Keyed):
    """Commutative product of nonempty segment classes; () is the unit.

    ``key`` is the tuple of the segments' keys.
    """

    __slots__ = ("segments", "key")

    def __init__(self, segments: Iterable[Segment] = ()):
        segments = _canonical_segments("a GLMonomial", segments)
        self._fill(segments, tuple(s.key for s in segments))

    @classmethod
    def _trusted(cls, segments: tuple, key: tuple) -> "GLMonomial":
        """Build from segments already in canonical order and their keys,
        unchecked."""
        out = object.__new__(cls)
        set_segments, set_key = cls._setters
        set_segments(out, segments)
        set_key(out, key)
        return out

    @classmethod
    def unit(cls) -> "GLMonomial":
        return cls(())

    @property
    def is_unit(self) -> bool:
        return not self.segments

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.segments)

    def dual(self) -> "GLMonomial":
        return GLMonomial(s.dual() for s in self.segments)

    def __str__(self):
        return _product_text(self.segments)


class GUClass(Keyed):
    """Class of a product of segment classes induced over a cuspidal anchor.

    Twist entries for labels the anchor declares twist-fixed are erased at
    construction, so canonical forms never distinguish a twist the anchor
    absorbs.  ``key`` is (segment keys, anchor name, twist key).
    """

    __slots__ = ("segments", "sigma", "twist", "key")

    def __init__(self, segments: Iterable[Segment], sigma: GUCuspidalLabel,
                 twist: TwistTag = TRIVIAL_TWIST):
        _checked("a GUClass anchor", GUCuspidalLabel, (sigma,))
        _checked("a GUClass twist", TwistTag, (twist,))
        segments = _canonical_segments("a GUClass", segments)
        twist = _absorb_fixed(sigma, twist)
        self._fill(segments, sigma, twist,
                   (tuple(s.key for s in segments), sigma.name, twist.key))

    @classmethod
    def _trusted(cls, segments: tuple, sigma: GUCuspidalLabel, twist: TwistTag,
                 segment_keys: tuple) -> "GUClass":
        """Build from segments already in canonical order, their keys and a
        twist with the anchor's twist-fixed entries already erased,
        unchecked; the key is laid out here, as in the constructor."""
        out = object.__new__(cls)
        set_segments, set_sigma, set_twist, set_key = cls._setters
        set_segments(out, segments)
        set_sigma(out, sigma)
        set_twist(out, twist)
        set_key(out, (segment_keys, sigma.name, twist.key))
        return out

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.segments) + self.sigma.rank

    @property
    def gl_rank(self) -> int:
        return sum(s.rank for s in self.segments)

    def __str__(self):
        tw = str(self.twist)
        anchor = f"{tw} {self.sigma.name}" if tw else self.sigma.name
        return f"{_product_text(self.segments)} |x| {anchor}"


class TensorTerm(Keyed):
    """A monomial in a tensor power: a tuple of GL factors, the last
    optionally a GU class.  ``key`` is the tuple of the factors' keys."""

    __slots__ = ("factors", "key")

    def __init__(self, factors: Iterable):
        factors = _checked("a TensorTerm", (GLMonomial, GUClass), factors)
        if any(isinstance(f, GUClass) for f in factors[:-1]):
            raise KindMismatchError("a GU factor may only sit in the last slot")
        self._fill(factors, tuple(f.key for f in factors))

    @classmethod
    def _trusted(cls, factors: tuple, key: tuple) -> "TensorTerm":
        """Build from factors known to be valid and their keys, unchecked."""
        out = object.__new__(cls)
        set_factors, set_key = cls._setters
        set_factors(out, factors)
        set_key(out, key)
        return out

    @property
    def arity(self) -> int:
        return len(self.factors)

    @property
    def has_gu(self) -> bool:
        return bool(self.factors) and isinstance(self.factors[-1], GUClass)

    def __str__(self):
        return " (x) ".join([str(f) for f in self.factors])


Monomial = Union[GLMonomial, GUClass, TensorTerm]


def term_kind(term: Monomial) -> tuple:
    if isinstance(term, GLMonomial):
        return ("gl",)
    if isinstance(term, GUClass):
        return ("gu",)
    if isinstance(term, TensorTerm):
        return ("tensor", term.arity, term.has_gu)
    raise KindMismatchError(f"not a monomial: {term!r}")


class FormalSum(Keyed):
    """Exact Z-linear sum of canonical monomials of one kind, from (monomial, int) pairs."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data: dict = {}
        kind = None
        items = terms.items() if isinstance(terms, dict) else terms
        try:
            for term, mult in items:
                k = term_kind(term)
                if type(mult) is not int:
                    raise KindMismatchError(f"a FormalSum multiplicity needs int, got {mult!r}")
                if mult == 0:
                    continue
                if kind is None:
                    kind = k
                elif k != kind:
                    raise KindMismatchError(f"mixed term kinds {kind} and {k} in one sum")
                data[term] = data.get(term, 0) + mult
        except JacquetError:
            raise
        except (TypeError, ValueError):  # not iterable, or an item is no pair
            raise KindMismatchError(
                f"a FormalSum needs (monomial, int) pairs, got {terms!r}") from None
        self._take(data)

    def _take(self, data: dict) -> None:
        """Hold ``data``, a dict of distinct terms all of one kind.

        Zero multiplicities are dropped and the term cap is enforced.
        """
        if 0 in data.values():
            data = {t: m for t, m in data.items() if m != 0}
        cap = _max_terms()
        if len(data) > cap:
            raise _over_cap("formal sum", len(data), cap)
        self._fill(data)

    @classmethod
    def _from_terms(cls, data: dict) -> "FormalSum":
        """Take over a finished dict of distinct terms, all of one kind."""
        out = cls.__new__(cls)
        out._take(data)
        return out

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def of(cls, term: Monomial, mult: int = 1) -> "FormalSum":
        return cls(((term, mult),))

    @property
    def kind(self):
        """``term_kind`` of the terms, all of which share it; None for the
        zero sum."""
        for term in self._terms:
            return term_kind(term)
        return None

    @property
    def key(self) -> tuple:
        """The kind and the set of (term key, multiplicity) pairs; derived
        on demand, as sums are built far more often than compared."""
        return (self.kind, frozenset((t.key, m) for t, m in self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return self._terms.items()

    def terms(self):
        return self._terms.keys()

    def sorted_items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].key)

    def coefficient(self, term: Monomial) -> int:
        """0 for a term not in the sum, a hashable non-monomial included."""
        try:
            return self._terms.get(term, 0)
        except TypeError:  # unhashable, so not a monomial
            _checked("coefficient", (GLMonomial, GUClass, TensorTerm), (term,))
            raise

    def total_multiplicity(self) -> int:
        """Sum of all multiplicities (the pre-merge term count for
        nonnegative sums)."""
        return sum(self._terms.values())

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.kind != other.kind:
            raise KindMismatchError(f"cannot combine {self.kind} with {other.kind}")
        data = dict(self._terms)
        for t, m in other._terms.items():
            data[t] = data.get(t, 0) + m
        return FormalSum._from_terms(data)

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FormalSum._from_terms({t: -m for t, m in self._terms.items()})

    def __rmul__(self, scalar):
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        if scalar == 0:
            return FormalSum.zero()
        return FormalSum._from_terms({t: scalar * m for t, m in self._terms.items()})

    __mul__ = __rmul__

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self.sorted_items())

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        chunks = []
        for term, mult in self.sorted_items():
            size = abs(mult)
            body = str(term) if size == 1 else f"{size}*{term}"
            if chunks:
                chunks.append(f" - {body}" if mult < 0 else f" + {body}")
            else:
                chunks.append(f"-{body}" if mult < 0 else body)
        return "".join(chunks)

    def __repr__(self):
        return f"FormalSum({len(self._terms)} terms)"


def tensor_multiply(x: FormalSum, y: FormalSum) -> FormalSum:
    """Componentwise GL product of two tensor sums of equal arity, bilinear;
    raises ``TermLimitError`` as soon as a new term takes it past the cap."""
    _checked("tensor_multiply", FormalSum, (x, y))
    if x.is_zero or y.is_zero:
        return FormalSum.zero()
    kx, ky = x.kind, y.kind
    if kx[0] != "tensor" or ky[0] != "tensor" or kx != ky or kx[2]:
        raise KindMismatchError(
            f"tensor product needs equal all-GL tensor kinds, got {kx} and {ky}"
        )
    return _bilinear(x, y, lambda tx, ty: TensorTerm(
        GLMonomial(a.segments + b.segments) for a, b in zip(tx.factors, ty.factors)),
        "tensor_multiply: partial product")


def _bilinear(x: FormalSum, y: FormalSum, pair, what: str) -> FormalSum:
    """The sum of cx * cy * pair(tx, ty) over the terms tx of ``x``, outer,
    and ty of ``y``, inner, merged as built into the first term built; a
    ``TermLimitError`` names ``what`` as soon as it grows past the cap."""
    cap = _max_terms()
    out: dict = {}
    for tx, cx in x.items():
        for ty, cy in y.items():
            t = pair(tx, ty)
            old = out.get(t)
            if old is None:
                if len(out) >= cap:
                    raise _over_cap(what, len(out) + 1, cap)
                out[t] = cx * cy
            else:
                out[t] = old + cx * cy
    return FormalSum._from_terms(out)


# ---------------------------------------------------------------------------
# JSON-friendly serialization (emit side; spclassifier.lj_from_obj parses datums).

def factor_to_obj(f) -> dict:
    """A factor's segments, and an anchor factor's sigma and twist."""
    if not isinstance(f, (GLMonomial, GUClass)):
        raise KindMismatchError(f"not a factor: {f!r}")
    # A big sum repeats few bounds; interned, its tree holds one str per bound.
    obj = {"segments": [{"rho": s.rho.name, "a": intern(str(s.a)), "b": intern(str(s.b))}
                        for s in f.segments]}
    if isinstance(f, GUClass):
        obj["sigma"] = f.sigma.name
        obj["twist"] = {name: {"exp": exp, "nu": str(nu)} for name, exp, nu in f.twist.entries}
    return obj


def sum_to_obj(s: FormalSum) -> list:
    """The reference JSON form of a sum: [{"mult": m, "term": [factors]}]."""
    _checked("sum_to_obj", FormalSum, (s,))
    return [{"mult": m, "term": [factor_to_obj(f) for f in
                                 (t.factors if isinstance(t, TensorTerm) else (t,))]}
            for t, m in s.sorted_items()]
