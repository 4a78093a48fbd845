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
  ordered block shape: the ``mu_star`` terms whose GL factor has the
  shape's total rank, with that factor cut into blocks directly, one
  block at a time, taking from each segment only the top pieces whose
  ranks add up to the block's rank.

All functions are pure.  The per-segment comultiplications are memoized
on the segment and every attribute of its label; the block cuts are
memoized per ``jacquet_by_shape`` call only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import KindMismatchError, SegmentError, ShapeError, TermLimitError
from .grothendieck import (
    FormalSum,
    GLMonomial,
    GUClass,
    TensorTerm,
    _max_terms,
    tensor_multiply,
)
from .scalars import HalfInt, TwistTag, TRIVIAL_TWIST, GUCuspidalLabel
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


def _segment_memo(build):
    """Memoize a per-segment comultiplication.

    Labels compare by name only, so the key also holds every attribute of
    the label: a same-named label from another registry gets its own
    entry, never pieces built with the first one's dual.
    """
    memo: dict = {}

    def lookup(seg: Segment) -> FormalSum:
        rho = seg.rho
        key = (seg.key, rho.dim, rho.conj_self_dual, rho.dual_name)
        out = memo.get(key)
        if out is None:
            out = memo[key] = build(seg)
        return out

    return lookup


@_segment_memo
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


@_segment_memo
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


def _top_cuts(mono: GLMonomial, rank: int) -> dict:
    """The terms of m*(mono) whose top piece has the given rank, as
    {(top, bottom): multiplicity}.

    Segment [a, b] gives top d([b-l+1, b]) and bottom d([a, b-l]) for a
    top length l; only length vectors with sum(l * dim) == rank are
    visited.  Different vectors can give the same pair (repeated or
    overlapping segments), hence the count.
    """
    segments = mono.segments
    cuts = []
    for s in segments:
        b2, dim = s.b.twice, s.rho.dim
        cuts.append([
            (l * dim,
             Segment(s.rho, HalfInt.from_twice(b2 - 2 * l + 2), s.b),
             Segment(s.rho, s.a, HalfInt.from_twice(b2 - 2 * l)))
            for l in range(s.length + 1)
        ])
    # room[i]: the most rank segments i, i+1, ... can still put on top.
    room = [0] * (len(segments) + 1)
    for i in range(len(segments) - 1, -1, -1):
        room[i] = room[i + 1] + segments[i].rank
    out: dict = {}

    def choose(i, left, tops, bottoms):
        if i == len(segments):
            pair = (GLMonomial(tops), GLMonomial(bottoms))
            out[pair] = out.get(pair, 0) + 1
            return
        for r, top, bottom in cuts[i]:
            if r > left:
                break
            if left - r <= room[i + 1]:
                choose(i + 1, left - r, tops + (top,), bottoms + (bottom,))

    choose(0, rank, (), ())
    return out


def _split(mono: GLMonomial, blocks: tuple, memo: dict) -> list:
    """[(tuple of GL factors, multiplicity)] for every way of cutting
    ``mono``, whose rank is ``sum(blocks)``, into ordered blocks of those
    ranks; ``memo`` caches it on (mono.key, blocks)."""
    if len(blocks) <= 1:
        # The last block takes the whole rest; () splits the unit once.
        return [((mono,) if blocks else (), 1)]
    key = (mono.key, blocks)
    found = memo.get(key)
    if found is not None:
        return found
    head, rest = blocks[0], blocks[1:]
    out: dict = {}
    for (top, bottom), c in _top_cuts(mono, head).items():
        for tail, c2 in _split(bottom, rest, memo):
            parts = (top,) + tail
            out[parts] = out.get(parts, 0) + c * c2
    found = memo[key] = list(out.items())
    return found


def jacquet_by_shape(g: GUClass, shape, mode: GroupMode = GroupMode.GU) -> FormalSum:
    """Semisimplified Jacquet module of ``g`` along an ordered shape.

    Terms have one GL factor per block (exact rank match) followed by the
    anchor factor.  Raises ``TermLimitError`` as soon as the partial
    module exceeds JACQUET_MAX_TERMS.
    """
    if not isinstance(shape, ParabolicShape):
        shape = ParabolicShape(tuple(shape))
    if shape.total > g.gl_rank:
        raise ShapeError(
            f"shape {shape.blocks} needs GL rank {shape.total}, "
            f"but the class only has {g.gl_rank}"
        )
    cap = _max_terms()
    memo: dict = {}
    out: dict = {}
    for term, c in mu_star(g, mode).items():
        gl, gu = term.factors
        if gl.rank != shape.total:
            continue
        for parts, c2 in _split(gl, shape.blocks, memo):
            t = TensorTerm(parts + (gu,))
            out[t] = out.get(t, 0) + c * c2
        if len(out) > cap:
            raise TermLimitError(
                f"jacquet_by_shape: partial module of {len(out)} terms exceeds "
                f"JACQUET_MAX_TERMS ({cap} terms)"
            )
    return FormalSum(out)
