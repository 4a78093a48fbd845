"""The comultiplication engine.

This module computes, entirely at the level of formal classes:

* ``mstar_gl``   -- the two-factor GL comultiplication of a segment class,
  m*(d([a,b])) = sum_i d([i+1,b]) (x) d([a,i]);
* ``mstar_big``  -- the three-factor comultiplication
  M*(d([a,b])) = sum_{i<=j} d([a,i]) (x) d([j+1,b]) (x) d([i+1,j]),
  extended multiplicatively to products and linearly to sums;
* ``twisted_rtimes`` -- the pairing that assembles a three-factor GL term
  with a (GL, GU) term: the first factor is dualized and lands in the GL
  slot together with the second and fourth factors, the third factor is
  pushed onto the anchor, and in GU mode the dualized factor contributes a
  central-character twist (U mode contributes none);
* ``mu_star``    -- the full structure formula, folding ``twisted_rtimes``
  over the segment list of a class;
* ``jacquet_by_shape`` -- the semisimplified Jacquet module along an
  ordered block shape, obtained from ``mu_star`` by rank filtering and
  iterated GL splitting.

All functions are pure; the per-segment comultiplications are memoized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import KindMismatchError, SegmentError, ShapeError
from .grothendieck import (
    FormalSum,
    GLMonomial,
    GUClass,
    TensorTerm,
    tensor_multiply,
)
from .scalars import TwistTag, TRIVIAL_TWIST, GUCuspidalLabel
from .segments import Segment

__all__ = [
    "GroupMode",
    "ParabolicShape",
    "mstar_gl",
    "mstar_big",
    "twisted_rtimes",
    "mu_star",
    "mu_star_of_segments",
    "jacquet_by_shape",
]


class GroupMode(enum.Enum):
    """Selects the twist semantics of the pairing.

    GU: the dualized factor twists the anchor by its central character.
    U:  no twist is ever produced.
    """

    GU = "GU"
    U = "U"


@dataclass(frozen=True, slots=True)
class ParabolicShape:
    """Ordered block ranks of a standard parabolic's GL part."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if any(b <= 0 for b in blocks):
            raise ShapeError(f"shape blocks must be positive, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def total(self) -> int:
        return sum(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)


@lru_cache(maxsize=None)
def _mstar_gl_segment(seg: Segment) -> FormalSum:
    if seg.is_empty:
        raise SegmentError("m* of the empty segment is not defined")
    rho, a, b = seg.rho, seg.a, seg.b
    out: dict = {}
    i = a - 1
    while i <= b:
        t = TensorTerm((
            GLMonomial((Segment(rho, i + 1, b),)),
            GLMonomial((Segment(rho, a, i),)),
        ))
        out[t] = out.get(t, 0) + 1
        i = i + 1
    return FormalSum(out)


@lru_cache(maxsize=None)
def _mstar_big_segment(seg: Segment) -> FormalSum:
    if seg.is_empty:
        raise SegmentError("M* of the empty segment is not defined")
    rho, a, b = seg.rho, seg.a, seg.b
    out: dict = {}
    i = a - 1
    while i <= b:
        j = i
        while j <= b:
            t = TensorTerm((
                GLMonomial((Segment(rho, a, i),)),
                GLMonomial((Segment(rho, j + 1, b),)),
                GLMonomial((Segment(rho, i + 1, j),)),
            ))
            out[t] = out.get(t, 0) + 1
            j = j + 1
        i = i + 1
    return FormalSum(out)


def _unit_tensor(arity: int) -> FormalSum:
    return FormalSum.of(TensorTerm((GLMonomial.unit(),) * arity))


def _comultiply(x, per_segment, arity: int) -> FormalSum:
    """Extend a per-segment comultiplication multiplicatively and linearly."""
    if isinstance(x, Segment):
        return per_segment(x)
    if isinstance(x, GLMonomial):
        acc = _unit_tensor(arity)
        for seg in x.segments:
            acc = tensor_multiply(acc, per_segment(seg))
        return acc
    if isinstance(x, FormalSum):
        acc = FormalSum.zero()
        for mono, mult in x.items():
            acc = acc + mult * _comultiply(mono, per_segment, arity)
        return acc
    raise KindMismatchError(f"cannot comultiply {x!r}")


def mstar_gl(x) -> FormalSum:
    """Two-factor comultiplication; the first slot takes the top piece."""
    return _comultiply(x, _mstar_gl_segment, 2)


def mstar_big(x) -> FormalSum:
    """Three-factor comultiplication, multiplicative over products."""
    return _comultiply(x, _mstar_big_segment, 3)


def _omega_of(mono: GLMonomial) -> TwistTag:
    """The central-character twist a GL monomial contributes.

    Each segment contributes one entry keyed by its label, with exponent
    equal to the number of cuspidal factors in the segment (so cutting a
    segment and twisting piece by piece accumulates the same tag) and the
    segment's exponent sum as display data.
    """
    entries = tuple((s.rho.name, s.length, s.exponent_sum()) for s in mono.segments)
    return TwistTag(entries)


def twisted_rtimes(m: FormalSum, t: FormalSum, mode: GroupMode) -> FormalSum:
    """Pair a three-factor GL sum with a (GL, GU) sum, bilinearly."""
    if m.is_zero or t.is_zero:
        return FormalSum.zero()
    out: dict = {}
    for tm, cm in m.items():
        pi1, pi2, pi3 = tm.factors
        dual1 = pi1.dual()
        omega = None
        if mode is GroupMode.GU and pi1.segments:
            omega = _omega_of(pi1)
        # One merged tag per distinct anchor tag, shared by its terms; keyed
        # by the entries, since tags with equal keys may carry other nu sums.
        twists: dict = {}
        for tt, ct in t.items():
            pi4, anchor = tt.factors
            gl = GLMonomial(dual1.segments + pi2.segments + pi4.segments)
            if omega is None:
                twist = anchor.twist
            else:
                twist = twists.get(anchor.twist.entries)
                if twist is None:
                    twist = twists[anchor.twist.entries] = anchor.twist.merge(omega)
            gu = GUClass(pi3.segments + anchor.segments, anchor.sigma, twist)
            term = TensorTerm((gl, gu))
            out[term] = out.get(term, 0) + cm * ct
    return FormalSum(out)


def mu_star_of_segments(segments: Sequence[Segment], sigma: GUCuspidalLabel,
                        twist: TwistTag = TRIVIAL_TWIST,
                        mode: GroupMode = GroupMode.GU) -> FormalSum:
    """Fold the structure formula over an explicitly ordered segment list.

    The result does not depend on the order; exposing the order makes that
    a testable fact rather than an artifact of canonical sorting.
    """
    acc = FormalSum.of(TensorTerm((GLMonomial.unit(), GUClass((), sigma, twist))))
    for seg in segments:
        acc = twisted_rtimes(_mstar_big_segment(seg), acc, mode)
    return acc


def mu_star(g: GUClass, mode: GroupMode = GroupMode.GU) -> FormalSum:
    """The structure formula: a sum of (GL factor, anchor factor) terms
    whose ranks always add up to the rank of ``g``."""
    return mu_star_of_segments(g.segments, g.sigma, g.twist, mode)


def _split_blocks(mono: GLMonomial, blocks: tuple):
    """Yield (tuple of GL factors, multiplicity) for every way of cutting
    ``mono`` into ordered blocks of the exact given ranks."""
    if not blocks:
        if mono.rank == 0:
            yield (), 1
        return
    head, rest = blocks[0], blocks[1:]
    for term, c in mstar_gl(mono).items():
        top, bottom = term.factors
        if top.rank != head:
            continue
        for tail, c2 in _split_blocks(bottom, rest):
            yield (top,) + tail, c * c2


def jacquet_by_shape(g: GUClass, shape, mode: GroupMode = GroupMode.GU) -> FormalSum:
    """Semisimplified Jacquet module of ``g`` along an ordered shape.

    Terms have one GL factor per block (exact rank match) followed by the
    anchor factor.
    """
    if not isinstance(shape, ParabolicShape):
        shape = ParabolicShape(tuple(shape))
    if shape.total > g.gl_rank:
        raise ShapeError(
            f"shape {shape.blocks} needs GL rank {shape.total}, "
            f"but the class only has {g.gl_rank}"
        )
    out: dict = {}
    for term, c in mu_star(g, mode).items():
        gl, gu = term.factors
        if gl.rank != shape.total:
            continue
        for parts, c2 in _split_blocks(gl, shape.blocks):
            t = TensorTerm(parts + (gu,))
            out[t] = out.get(t, 0) + c * c2
    return FormalSum(out)
