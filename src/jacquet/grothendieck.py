"""Formal integer combinations of canonical monomials.

The coefficient rings here are spanned by classes of products of
essentially square-integrable segment representations: a ``GLMonomial`` is
a commutative product of segment classes, a ``GUClass`` is such a product
induced over a cuspidal anchor (with an accumulated twist tag), and a
``TensorTerm`` is a tuple of those, one per tensor slot.  A ``FormalSum``
maps canonical monomials to nonzero arbitrary-precision multiplicities;
equality of sums is equality of canonical forms.

Everything is immutable; operations return new values and are safe to call
concurrently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Union

from .errors import JacquetError, KindMismatchError, TermLimitError
from .scalars import GUCuspidalLabel, Keyed, TwistTag, TRIVIAL_TWIST
from .segments import Segment

__all__ = [
    "GLMonomial",
    "GUClass",
    "TensorTerm",
    "FormalSum",
    "Monomial",
    "gl_multiply",
    "tensor_multiply",
    "sum_to_obj",
    "term_to_obj",
    "factor_to_obj",
]

_DEFAULT_MAX_TERMS = 10**6


def _max_terms() -> int:
    raw = os.environ.get("JACQUET_MAX_TERMS")
    if not raw:
        return _DEFAULT_MAX_TERMS
    try:
        return int(raw)
    except ValueError:
        raise JacquetError(
            f"JACQUET_MAX_TERMS must be an integer, got {raw!r}"
        ) from None


_by_key = attrgetter("key")


def _canonical_segments(segments: Iterable[Segment]) -> tuple:
    return tuple(sorted((s for s in segments if not s.is_empty), key=_by_key))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class GLMonomial(Keyed):
    """Commutative product of nonempty segment classes; () is the unit.

    ``key`` is the tuple of the segments' keys.
    """

    segments: tuple
    key: tuple = field(repr=False)

    def __init__(self, segments: Iterable[Segment] = ()):
        segments = _canonical_segments(segments)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "key", tuple(s.key for s in segments))

    @classmethod
    def _trusted(cls, segments: tuple, key: tuple) -> "GLMonomial":
        """Build from segments already in canonical order and their keys,
        unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "segments", segments)
        object.__setattr__(out, "key", key)
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

    def __mul__(self, other: "GLMonomial") -> "GLMonomial":
        if not isinstance(other, GLMonomial):
            return NotImplemented
        return GLMonomial(self.segments + other.segments)

    def __str__(self):
        if self.is_unit:
            return "1"
        return " x ".join(str(s) for s in self.segments)

    def __repr__(self):
        return f"GLMonomial({self})"


@dataclass(frozen=True, slots=True, init=False, eq=False)
class GUClass(Keyed):
    """Class of a product of segment classes induced over a cuspidal anchor.

    Twist entries for labels the anchor declares twist-fixed are erased at
    construction, so canonical forms never distinguish a twist the anchor
    absorbs.  ``key`` is (segment keys, anchor name, twist key).
    """

    segments: tuple
    sigma: GUCuspidalLabel
    twist: TwistTag
    key: tuple = field(repr=False)

    def __init__(self, segments: Iterable[Segment], sigma: GUCuspidalLabel,
                 twist: TwistTag = TRIVIAL_TWIST):
        segments = _canonical_segments(segments)
        fixed = {rho.name for rho in sigma.twist_fixed}
        twist = twist.without(fixed) if fixed else twist
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(
            self, "key", (tuple(s.key for s in segments), sigma.name, twist.key)
        )

    @classmethod
    def _trusted(cls, segments: tuple, sigma: GUCuspidalLabel, twist: TwistTag,
                 key: tuple) -> "GUClass":
        """Build from segments already in canonical order, a twist with the
        anchor's twist-fixed entries already erased, and the key, unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "segments", segments)
        object.__setattr__(out, "sigma", sigma)
        object.__setattr__(out, "twist", twist)
        object.__setattr__(out, "key", key)
        return out

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.segments) + self.sigma.rank

    @property
    def gl_rank(self) -> int:
        return sum(s.rank for s in self.segments)

    def __str__(self):
        head = " x ".join(str(s) for s in self.segments) if self.segments else "1"
        tw = str(self.twist)
        anchor = f"{tw} {self.sigma.name}" if tw else self.sigma.name
        return f"{head} |x| {anchor}"

    def __repr__(self):
        return f"GUClass({self})"


@dataclass(frozen=True, slots=True, init=False, eq=False)
class TensorTerm(Keyed):
    """A monomial in a tensor power: a tuple of GL factors, the last
    optionally a GU class.  ``key`` is the tuple of the factors' keys."""

    factors: tuple
    key: tuple = field(repr=False)

    def __init__(self, factors: Iterable):
        factors = tuple(factors)
        for i, f in enumerate(factors):
            if isinstance(f, GUClass):
                if i != len(factors) - 1:
                    raise KindMismatchError("a GU factor may only sit in the last slot")
            elif not isinstance(f, GLMonomial):
                raise KindMismatchError(f"invalid tensor factor {f!r}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "key", tuple(f.key for f in factors))

    @classmethod
    def _trusted(cls, factors: tuple, key: tuple) -> "TensorTerm":
        """Build from factors known to be valid and their keys, unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        object.__setattr__(out, "key", key)
        return out

    @property
    def arity(self) -> int:
        return len(self.factors)

    @property
    def has_gu(self) -> bool:
        return bool(self.factors) and isinstance(self.factors[-1], GUClass)

    def __str__(self):
        return " (x) ".join(str(f) for f in self.factors)

    def __repr__(self):
        return f"TensorTerm({self})"


Monomial = Union[GLMonomial, GUClass, TensorTerm]


def term_kind(term: Monomial) -> tuple:
    if isinstance(term, GLMonomial):
        return ("gl",)
    if isinstance(term, GUClass):
        return ("gu",)
    if isinstance(term, TensorTerm):
        return ("tensor", term.arity, term.has_gu)
    raise KindMismatchError(f"not a monomial: {term!r}")


class FormalSum:
    """Exact Z-linear combination of canonical monomials of one kind."""

    __slots__ = ("_terms", "_kind")

    def __init__(self, terms=(), kind=None):
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for term, mult in items:
            if mult == 0:
                continue
            k = term_kind(term)
            if kind is None:
                kind = k
            elif k != kind:
                raise KindMismatchError(f"mixed term kinds {kind} and {k} in one sum")
            data[term] = data.get(term, 0) + mult
        data = {t: m for t, m in data.items() if m != 0}
        if len(data) > _max_terms():
            raise TermLimitError(
                f"formal sum exceeds JACQUET_MAX_TERMS ({_max_terms()} terms)"
            )
        self._terms = data
        self._kind = kind

    @classmethod
    def _from_terms(cls, data: dict, kind) -> "FormalSum":
        """Take over a finished dict of distinct terms, all of ``kind``.

        Zero multiplicities are dropped and the term cap is enforced, as in
        the public constructor; an empty sum has no kind.
        """
        if 0 in data.values():
            data = {t: m for t, m in data.items() if m != 0}
        cap = _max_terms()
        if len(data) > cap:
            raise TermLimitError(f"formal sum exceeds JACQUET_MAX_TERMS ({cap} terms)")
        out = cls.__new__(cls)
        out._terms = data
        out._kind = kind if data else None
        return out

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def of(cls, term: Monomial, mult: int = 1) -> "FormalSum":
        return cls(((term, mult),))

    @property
    def kind(self):
        return self._kind

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
        return self._terms.get(term, 0)

    def total_multiplicity(self) -> int:
        """Sum of all multiplicities (the pre-merge term count for
        nonnegative sums)."""
        return sum(self._terms.values())

    def _check_kind(self, other: "FormalSum"):
        if self._kind is not None and other._kind is not None and self._kind != other._kind:
            raise KindMismatchError(f"cannot combine {self._kind} with {other._kind}")

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        self._check_kind(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        data = dict(self._terms)
        for t, m in other._terms.items():
            data[t] = data.get(t, 0) + m
        return FormalSum(data, kind=self._kind or other._kind)

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FormalSum({t: -m for t, m in self._terms.items()}, kind=self._kind)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return FormalSum.zero()
        return FormalSum({t: scalar * m for t, m in self._terms.items()}, kind=self._kind)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        if isinstance(other, FormalSum):
            if self._kind == ("gl",) or other._kind == ("gl",):
                return gl_multiply(self, other)
            return tensor_multiply(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

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
            body = str(term)
            if mult == 1:
                chunk = body
            elif mult == -1:
                chunk = f"-{body}"
            else:
                chunk = f"{mult}*{body}"
            chunks.append(chunk)
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self):
        return f"FormalSum({len(self._terms)} terms)"


def _as_gl_sum(x) -> FormalSum:
    if isinstance(x, FormalSum):
        if x._kind not in (None, ("gl",)):
            raise KindMismatchError("expected a sum over GL monomials")
        return x
    if isinstance(x, GLMonomial):
        return FormalSum.of(x)
    if isinstance(x, Segment):
        return FormalSum.of(GLMonomial((x,)))
    raise KindMismatchError(f"not a GL element: {x!r}")


def gl_multiply(x, y) -> FormalSum:
    """Bilinear extension of monomial concatenation in the GL ring."""
    xs, ys = _as_gl_sum(x), _as_gl_sum(y)
    out: dict = {}
    for tx, cx in xs.items():
        for ty, cy in ys.items():
            t = tx * ty
            out[t] = out.get(t, 0) + cx * cy
    return FormalSum(out, kind=("gl",))


def tensor_multiply(x: FormalSum, y: FormalSum) -> FormalSum:
    """Componentwise GL product of two tensor sums of equal arity."""
    if x.is_zero or y.is_zero:
        return FormalSum.zero()
    kx, ky = x.kind, y.kind
    if kx[0] != "tensor" or ky[0] != "tensor" or kx != ky or kx[2]:
        raise KindMismatchError(
            f"tensor product needs equal all-GL tensor kinds, got {kx} and {ky}"
        )
    cap = _max_terms()
    out: dict = {}
    for tx, cx in x.items():
        for ty, cy in y.items():
            t = TensorTerm(a * b for a, b in zip(tx.factors, ty.factors))
            old = out.get(t)
            if old is None:
                if len(out) >= cap:
                    raise TermLimitError(
                        f"tensor_multiply: partial product of {len(out) + 1} terms "
                        f"exceeds JACQUET_MAX_TERMS ({cap} terms)"
                    )
                out[t] = cx * cy
            else:
                out[t] = old + cx * cy
    return FormalSum(out, kind=kx)


# ---------------------------------------------------------------------------
# JSON-friendly serialization (emit side; parsing lives with the CLI).

def _segment_to_obj(s: Segment) -> dict:
    return {"rho": s.rho.name, "a": str(s.a), "b": str(s.b)}


def _twist_to_obj(t: TwistTag) -> dict:
    return {name: {"exp": exp, "nu": str(nu)} for name, exp, nu in t.entries}


def factor_to_obj(f) -> dict:
    if isinstance(f, GLMonomial):
        return {"segments": [_segment_to_obj(s) for s in f.segments]}
    if isinstance(f, GUClass):
        return {
            "segments": [_segment_to_obj(s) for s in f.segments],
            "sigma": f.sigma.name,
            "twist": _twist_to_obj(f.twist),
        }
    raise KindMismatchError(f"not a factor: {f!r}")


def term_to_obj(term: Monomial) -> list:
    if isinstance(term, TensorTerm):
        return [factor_to_obj(f) for f in term.factors]
    return [factor_to_obj(term)]


def sum_to_obj(s: FormalSum) -> list:
    """Deterministic list-of-terms form: [{"mult": m, "term": [factors]}]."""
    return [{"mult": m, "term": term_to_obj(t)} for t, m in s.sorted_items()]
