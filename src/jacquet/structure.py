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
* ``mu_star``    -- the full structure formula, folding the pairing over
  the segment list of a class;
* ``jacquet_by_shape`` -- the semisimplified Jacquet module along an
  ordered block shape: the ``mu_star`` terms whose GL factor has the
  shape's total rank, with that factor cut into blocks directly, one
  block at a time, taking from each segment only the top pieces whose
  ranks add up to the block's rank.

``twisted_rtimes`` and ``mu_star`` run one fold kernel, ``_fold``.  It
numbers every segment a call can produce by canonical key order, so a
factor is a sorted tuple of small ints and every step but the last merges
terms in a dict keyed by those tuples and an anchor-twist id.  The last
step builds each public term once, through the trusted constructors of
``grothendieck``; nothing is re-sorted or re-validated.  Each step checks
JACQUET_MAX_TERMS as every new term enters it.

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


def _fold(steps: list, start: FormalSum, mode: GroupMode, layer: str) -> FormalSum:
    """Fold the twisted pairing over ``steps``, starting from ``start``.

    ``steps`` is a list of (segment or None, three-factor GL sum); each
    step computes ``twisted_rtimes(sum, acc, mode)``.  Every segment the
    fold can produce (the dualized first, second and third pieces of the
    steps' terms, and the segments of ``start``) is interned first as an
    int numbered in canonical key order, so a sorted int tuple is a
    canonical factor.  An anchor (label, twist) is interned as a rep id,
    for the first tag seen with those entries, and a key id, for its
    (label, twist key).  Every step but the last accumulates into a dict
    keyed by (GL ids, GU ids, anchor key id) that holds [multiplicity, rep
    id].  The last step builds the public terms through the trusted
    constructors, sharing each anchor factor among its terms.

    The step's terms are walked outer and the accumulator inner, and a
    merged term keeps its first rep, so the nu sums a merged twist shows
    are those of the object-level fold.  ``layer`` names the caller in
    the ``TermLimitError`` raised as soon as a step grows past the cap.
    """
    pieces: dict = {}     # segment key -> segment

    def add(segments) -> None:
        for p in segments:
            pieces.setdefault(p.key, p)

    for tt in start.terms():
        for f in tt.factors:
            add(f.segments)
    firsts: dict = {}     # first-factor key -> (dualized segments, omega or None)
    for _, m in steps:
        for tm in m.terms():
            pi1, pi2, pi3 = tm.factors
            if pi1.key not in firsts:
                dual = pi1.dual().segments
                omega = _omega_of(pi1) if mode is GroupMode.GU and pi1.segments else None
                firsts[pi1.key] = (dual, omega)
                add(dual)
            add(pi2.segments)
            add(pi3.segments)
    keys = sorted(pieces)
    segs = [pieces[k] for k in keys]
    ids = {k: i for i, k in enumerate(keys)}

    def id_tuple(segments) -> tuple:
        return tuple(ids[p.key] for p in segments)

    plans = []            # per step: (segment, [(low ids, mid ids, first key, mult)])
    for folded, m in steps:
        plan = []
        for tm, cm in m.items():
            pi1, pi2, pi3 = tm.factors
            low = id_tuple(firsts[pi1.key][0] + pi2.segments)
            plan.append((low, id_tuple(pi3.segments), pi1.key, cm))
        plans.append((folded, plan))

    reps: list = []       # rep id -> (anchor label, twist)
    rep_key: list = []    # rep id -> anchor key id
    rep_ids: dict = {}    # (label name, twist entries) -> rep id
    key_ids: dict = {}    # (label name, twist key) -> anchor key id

    def intern(sigma, twist) -> tuple:
        rid = rep_ids.get((sigma.name, twist.entries))
        if rid is None:
            rid = rep_ids[(sigma.name, twist.entries)] = len(reps)
            reps.append((sigma, twist))
            rep_key.append(key_ids.setdefault((sigma.name, twist.key), len(key_ids)))
        return rep_key[rid], rid

    acc: dict = {}
    for tt, ct in start.items():
        pi4, anchor = tt.factors
        kid, rid = intern(anchor.sigma, anchor.twist)
        acc[(id_tuple(pi4.segments), id_tuple(anchor.segments), kid)] = [ct, rid]

    def mover(first: tuple, moved_by: dict):
        """rep id -> (key id, rep id) once the first factor ``first`` has
        twisted the anchor, or None when it does not twist; ``moved_by``
        caches it for one step."""
        omega = firsts[first][1]
        if omega is None:
            return None
        moved = moved_by.get(first)
        if moved is None:
            moved = moved_by[first] = {}
            for rid in {v[1] for v in acc.values()}:
                sigma, twist = reps[rid]
                twist = twist.merge(omega)
                fixed = {rho.name for rho in sigma.twist_fixed}
                moved[rid] = intern(sigma, twist.without(fixed) if fixed else twist)
        return moved

    cap = _max_terms()

    def too_many(size: int, folded) -> TermLimitError:
        where = f" folding {folded}," if folded is not None else ""
        return TermLimitError(
            f"{layer}:{where} partial sum of {size} terms exceeds "
            f"JACQUET_MAX_TERMS ({cap} terms)"
        )

    for folded, plan in plans[:-1]:
        nxt: dict = {}
        moved_by: dict = {}
        for low, mid, first, cm in plan:
            moved = mover(first, moved_by)
            for (gl, gu, kid), (ct, rid) in acc.items():
                if moved is not None:
                    kid, rid = moved[rid]
                key = (tuple(sorted(low + gl)), tuple(sorted(mid + gu)), kid)
                entry = nxt.get(key)
                if entry is None:
                    nxt[key] = [cm * ct, rid]
                    if len(nxt) > cap:
                        raise too_many(len(nxt), folded)
                else:
                    entry[0] += cm * ct
        acc = nxt

    folded, plan = plans[-1]
    seg_at, key_at = segs.__getitem__, keys.__getitem__
    new_gl, new_gu, new_term = GLMonomial._trusted, GUClass._trusted, TensorTerm._trusted
    flat = [(gl, gu, ct, rid) for (gl, gu, _), (ct, rid) in acc.items()]
    gus: dict = {}        # (GU ids, rep id) -> GUClass
    moved_by = {}
    out: dict = {}
    for low, mid, first, cm in plan:
        moved = mover(first, moved_by)
        for gl, gu, ct, rid in flat:
            if moved is not None:
                rid = moved[rid][1]
            gl = tuple(sorted(low + gl))
            gl_factor = new_gl(tuple(map(seg_at, gl)), tuple(map(key_at, gl)))
            gu = (tuple(sorted(mid + gu)), rid)
            gu_factor = gus.get(gu)
            if gu_factor is None:
                sigma, twist = reps[rid]
                gu_factor = gus[gu] = new_gu(
                    tuple(map(seg_at, gu[0])), sigma, twist,
                    (tuple(map(key_at, gu[0])), sigma.name, twist.key))
            term = new_term((gl_factor, gu_factor), (gl_factor.key, gu_factor.key))
            c = cm * ct
            size = len(out)
            old = out.setdefault(term, c)
            if len(out) == size:
                out[term] = old + c
            elif size >= cap:
                raise too_many(size + 1, folded)
    return FormalSum._from_terms(out, ("tensor", 2, True))


def twisted_rtimes(m: FormalSum, t: FormalSum, mode: GroupMode) -> FormalSum:
    """Pair a three-factor GL sum with a (GL, GU) sum, bilinearly."""
    if m.is_zero or t.is_zero:
        return FormalSum.zero()
    if m.kind != ("tensor", 3, False) or t.kind != ("tensor", 2, True):
        raise KindMismatchError(
            f"twisted_rtimes needs a three-factor GL sum and a (GL, GU) sum, "
            f"got {m.kind} and {t.kind}"
        )
    return _fold([(None, m)], t, mode, "twisted_rtimes")


def mu_star_of_segments(segments: Sequence[Segment], sigma: GUCuspidalLabel,
                        twist: TwistTag = TRIVIAL_TWIST,
                        mode: GroupMode = GroupMode.GU) -> FormalSum:
    """Fold the structure formula over an explicitly ordered segment list.

    The result does not depend on the order; exposing the order makes that
    a testable fact rather than an artifact of canonical sorting.
    """
    start = FormalSum.of(TensorTerm((GLMonomial.unit(), GUClass((), sigma, twist))))
    if not segments:
        return start
    steps = [(seg, _mstar_big_segment(seg)) for seg in segments]
    return _fold(steps, start, mode, "mu_star")


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
            factors = parts + (gu,)
            t = TensorTerm._trusted(factors, tuple(f.key for f in factors))
            size = len(out)
            old = out.setdefault(t, c * c2)
            if len(out) == size:
                out[t] = old + c * c2
        if len(out) > cap:
            raise TermLimitError(
                f"jacquet_by_shape: partial module of {len(out)} terms exceeds "
                f"JACQUET_MAX_TERMS ({cap} terms)"
            )
    return FormalSum._from_terms(out, ("tensor", len(shape) + 1, True))
