"""The comultiplication engine.

This module computes, entirely at the level of formal classes:

* ``mstar_gl``   -- the two-factor GL comultiplication,
  m*(d([a,b])) = sum_i d([i+1,b]) (x) d([a,i]), and ``mstar_big``, the
  three-factor M*(d([a,b])) = sum_{i<=j} d([a,i]) (x) d([j+1,b]) (x)
  d([i+1,j]), both read off the block split of a monomial (m* is
  multiplicative and coassociative) and extended linearly to sums;
* ``twisted_rtimes`` -- the pairing that assembles a three-factor GL term
  with a (GL, GU) term: the first factor is dualized and lands in the GL
  slot together with the second and fourth factors, the third factor is
  pushed onto the anchor, and in GU mode the dualized factor contributes a
  central-character twist (U mode contributes none; ``GroupMode`` and the
  twist group law live in ``scalars``);
* ``mu_star``    -- the full structure formula, folding the pairing over
  the segment list of a class, or its rank-k part alone: the terms whose
  GL factor has rank k, the Jacquet module along the maximal parabolic of
  GL rank k;
* ``jacquet_by_shape`` -- the semisimplified Jacquet module along a
  shape, a tuple of GL block ranks in order: the rank part of ``mu_star``
  at the shape's total rank, with each GL factor cut into blocks
  directly, one block at a time, taking from each segment only the top
  pieces whose ranks add up to the block's rank;
* ``_coefficient`` -- one coefficient of that module, without building
  it: the M* entries are pruned against the target term, and the block
  split follows only the target's blocks.

Every cut of a segment comes from ``_cuts``, the one process-wide memo
here: a table of the segment's m* cuts, its M* terms (with the dual and
twist of their first piece) and its sub-segments with their duals, built
once per segment and label.  The fold reads the M* terms; the block split
reads the m* cuts, for ``jacquet_by_shape``, ``_coefficient``,
``mstar_gl`` and ``mstar_big`` alike.
All functions are pure; the table only saves work.

Both hot loops run on segment ids within one call, numbered by
``_numbering`` in canonical key order, so a sorted id tuple is a
canonical GL factor: its public form is read off by id and built once,
through the trusted constructors of ``grothendieck`` (an anchor's key is
laid out by ``GUClass._trusted`` alone).  ``mu_star`` and
``_coefficient`` run one fold kernel, ``_fold``, which folds a class from
its bare anchor: it numbers every segment its steps can produce and, at
every step but the last, merges terms in a dict keyed by id tuples and an
anchor id, one per anchor twist with its nu sums; terms equal up to nu
merge only in the last step, by their public keys.  Asked for one GL
rank, the fold computes first the reach of each step, the ranks the
steps from it on can still add, keeps its terms in one bucket per GL
rank, and skips every (M* entry, bucket) pair from which that rank is out
of reach; only the rank asked for is ever built.  ``jacquet_by_shape``
and ``_coefficient`` fold that way, at the shape's total rank.
``_BlockCutter`` numbers, before any cut, the sub-segments of the given
segments and of their duals: every piece a mu* GL factor or a cut of one
can hold.  A segment's m* cuts become a table of (top rank, top ids,
bottom ids) when first needed, and the per-call memo of block cuts is
keyed on (id tuple, remaining blocks, wanted blocks or None), a
coefficient asking for the target's blocks alone.  ``mstar_gl``,
``mstar_big`` and ``jacquet_by_shape`` cut, merge and build their output
in one loop, ``_BlockCutter.build``.  Every fold step, split and output
checks JACQUET_MAX_TERMS as each new term enters it.

``_collector_paused`` pauses Python's cyclic garbage collector for the
length of the three calls whose output grows with the answer: ``_fold``,
``_BlockCutter.build`` and ``_coefficient``.  Nothing they build forms a
reference cycle, so the collector's passes over their growing output
would only cost time; ``_BlockCutter.top_cuts`` extends partial cuts in
a loop, not through a closure that calls itself, for the same reason.
"""

from __future__ import annotations

import functools
import gc
import threading
from typing import Sequence

from .errors import (
    InvalidParamsError,
    KindMismatchError,
    SegmentError,
    ShapeError,
    _checked,
)
from .grothendieck import (
    FormalSum,
    GLMonomial,
    GUClass,
    TensorTerm,
    _absorb_fixed,
    _bilinear,
    _max_terms,
    _over_cap,
)
from .scalars import GroupMode, GUCuspidalLabel, HalfInt, TwistTag, TRIVIAL_TWIST
from .segments import Segment

__all__ = [
    "mstar_gl",
    "mstar_big",
    "twisted_rtimes",
    "mu_star",
    "mu_star_of_segments",
    "jacquet_by_shape",
]


_PAUSE_LOCK = threading.Lock()
_paused_calls = 0       # calls inside the current pause, in every thread
_resume = False         # whether the current pause disabled the collector


def _collector_paused(func):
    """``func``, run with Python's cyclic garbage collector paused.

    The engine's tuples, dicts and terms never form a cycle, so the
    collector's passes over a growing result only cost time.  The first
    of overlapping calls, in any thread, disables the collector if it is
    enabled; the last one to leave, on every path, enables it again, and
    only if the pause disabled it.  A caller's own ``gc.disable()`` stays.
    """
    @functools.wraps(func)
    def paused(*args, **kwargs):
        global _paused_calls, _resume
        with _PAUSE_LOCK:
            if not _paused_calls:
                _resume = gc.isenabled()
                gc.disable()
            _paused_calls += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _PAUSE_LOCK:
                _paused_calls -= 1
                if not _paused_calls and _resume:
                    gc.enable()
    return paused


def _omega_of(segments: tuple) -> TwistTag:
    """The central-character twist a product of segments contributes.

    Each segment contributes one entry keyed by its label, with exponent
    equal to the number of cuspidal factors in the segment (so cutting a
    segment and twisting piece by piece accumulates the same tag) and the
    segment's exponent sum as display data.
    """
    return TwistTag(tuple((s.rho.name, s.length, s.exponent_sum()) for s in segments))


_CUTS: dict = {}


def _cuts(seg: Segment) -> tuple:
    """(m* cuts, M* terms, sub-segments) of a nonempty segment d([a,b]),
    built once.

    The m* cuts are (top, bottom) = (d([b-l+1,b]), d([a,b-l])) for top
    length l = 0 .. length, rising.  The M* terms are (second, third, dual
    of first, twist of first) = (d([j+1,b]), d([i+1,j]), d([a,i])^dual,
    omega) for a-1 <= i <= j <= b, i outer; the twist is None when the
    first piece d([a,i]) is empty.  Every piece is a tuple
    of at most one segment (an empty piece has none).  The sub-segments
    are the nonempty pieces d([i,j]) and their duals: every segment a cut
    of the segment or of its dual can hold.

    Labels compare by name only, so the memo key also holds the label's
    ``attributes``: a same-named label from another registry gets its own
    entry, never pieces built with the first one's dual or dim.
    """
    rho = seg.rho
    key = (seg.key, rho.attributes)
    found = _CUTS.get(key)
    if found is None:
        if seg.is_empty:
            raise SegmentError("the empty segment has no cuts")
        n, a2 = seg.length, seg.a.twice
        # piece[p, q]: the exponents a+p .. a+q-1 of the segment
        piece = {
            (p, q): (Segment(rho, HalfInt.from_twice(a2 + 2 * p),
                             HalfInt.from_twice(a2 + 2 * q - 2)),) if p < q else ()
            for p in range(n + 1) for q in range(p, n + 1)
        }
        gl = [(piece[n - l, n], piece[0, n - l]) for l in range(n + 1)]
        big = []
        for p in range(n + 1):
            first = piece[0, p]
            dual = tuple(s.dual() for s in first)
            omega = _omega_of(first) if first else None
            big += [(piece[q, n], piece[p, q], dual, omega) for q in range(p, n + 1)]
        subs = [s for pieces in piece.values() for s in pieces]
        subs += [s.dual() for s in subs]
        found = _CUTS[key] = (gl, big, subs)
    return found


def _numbering(segments) -> tuple:
    """(segments, keys, ids) of the distinct ``segments`` in canonical key
    order: id i is ``segments[i]``, with key ``keys[i]``, and ``ids`` maps
    a key to its id, so a sorted id tuple lists segments in that order."""
    by_key = {s.key: s for s in segments}
    keys = sorted(by_key)
    return [by_key[k] for k in keys], keys, {k: i for i, k in enumerate(keys)}


def _comultiply(x, arity: int, layer: str) -> FormalSum:
    """m* (arity 2) or M* (arity 3) of ``x``, read off the block split.

    m* is multiplicative and coassociative, so the cuts of a GL monomial
    into ``arity`` ordered blocks, along every composition of its rank,
    are m* applied ``arity - 1`` times; M* moves the last block, the
    pieces d([a,i]), to the front.  Linear over a sum of GL monomials; an
    empty segment is the unit, as it is in ``GLMonomial``.  ``layer``
    names the caller in the ``TermLimitError`` raised as soon as the
    output, or a split on the way to it, grows past the cap.
    """
    if isinstance(x, Segment):
        monos = [(() if x.is_empty else (x,), 1)]
    elif isinstance(x, GLMonomial):
        monos = [(x.segments, 1)]
    elif isinstance(x, FormalSum) and x.kind in (None, ("gl",)):
        monos = [(m.segments, c) for m, c in x.items()]
    else:
        raise KindMismatchError(f"cannot comultiply {x!r}")
    cutter = _BlockCutter([s for segs, _ in monos for s in segs], f"{layer}: partial sum")
    sources = []
    for segs, c in monos:
        rank = sum(s.rank for s in segs)
        shapes = [(r, rank - r) for r in range(rank + 1)]
        if arity == 3:
            shapes = [(r1, r2, rest - r2) for r1, rest in shapes for r2 in range(rest + 1)]
        sources.append((tuple(s.key for s in segs), c, shapes, None))
    return cutter.build(sources, last_first=arity == 3)


def mstar_gl(x) -> FormalSum:
    """Two-factor comultiplication; the first slot takes the top piece."""
    return _comultiply(x, 2, "mstar_gl")


def mstar_big(x) -> FormalSum:
    """Three-factor comultiplication, multiplicative over products."""
    return _comultiply(x, 3, "mstar_big")


@_collector_paused
def _fold(segments, sigma: GUCuspidalLabel, twist: TwistTag, mode: GroupMode,
          layer: str, rank: int | None = None, keep=None) -> FormalSum:
    """mu* of the class of ``segments`` over ``sigma`` twisted by ``twist``,
    folded one segment at a time from the bare anchor (its twist free of
    twist-fixed entries); the empty class gives the bare term alone.

    Step i pairs the M* terms of ``segments[i]`` in ``_cuts`` (those
    ``keep`` is true of, if given) with the terms so far: the dualized
    first and the second piece join the GL factor, the third the anchor,
    and in GU mode the first piece's twist twists the anchor.  Every
    segment the fold can produce gets its ``_numbering`` id first, and
    each anchor twist, nu sums included, a rep id.  Every step but the
    last accumulates into a dict that maps (GL ids, GU ids, rep id) to a
    multiplicity, so terms whose twists differ only in nu stay apart.  The
    last step builds the public terms through the trusted constructors,
    sharing each anchor factor among its terms, and merges them by their
    public keys, which leave nu out.  An anchor's segment and key tuples
    are built once per GU id tuple, for all its twists; a GL factor's key
    tuple is also its part of the term key, and its merged ids stay a
    sorted list, since they are only mapped to segments and keys.

    With ``rank``, only the terms whose GL factor has that rank are built.
    An M* term adds the rank of its dualized first and second pieces, so
    ``reach[i]`` is the set of ranks that steps i, i+1, ... can still add.
    The accumulator is bucketed by GL rank, and an (M* term, bucket) pair
    is skipped as soon as ``rank`` is out of its reach.  Without ``rank``
    the accumulator is one bucket and no rank is added up.

    M* terms are walked outer and the accumulator inner, and a merged term
    keeps the first term built, so the nu a merged twist shows follows the
    segment order, in the slice too.  A ``TermLimitError`` names ``layer``
    as soon as a step grows past the cap.
    """
    if not segments:
        return FormalSum.of(TensorTerm((GLMonomial(), GUClass((), sigma, twist))))
    twist = _absorb_fixed(sigma, twist)
    steps = [(s, [e for e in _cuts(s)[1] if keep is None or keep(e)]) for s in segments]
    segs, keys, ids = _numbering(p for _, entries in steps for second, third, dual, _ in entries
                                 for p in dual + second + third)

    def id_tuple(pieces) -> tuple:
        return tuple(ids[p.key] for p in pieces)

    twists = mode is GroupMode.GU
    ranked = rank is not None
    # per step: (what, [(low ids, mid ids, twist or None, GL rank or None)])
    plans = [(f"{layer}: folding {s}, partial sum",    # what a TermLimitError names
              [(id_tuple(dual + second), id_tuple(third), omega if twists else None,
                sum(p.rank for p in dual + second) if ranked else None)
               for second, third, dual, omega in entries])
             for s, entries in steps]
    # reach[i]: the GL ranks steps i, i+1, ... can still add, for i >= 1;
    # None without ``rank``
    reach: list = [None] * (len(plans) + 1)
    if ranked:
        reach[-1] = {0}
        for i in range(len(plans) - 1, 0, -1):
            adds = {r for *_, r in plans[i][1]}
            reach[i] = {r + later for r in adds for later in reach[i + 1]}

    reps = [twist]                    # rep id -> anchor twist
    rep_ids = {twist.entries: 0}      # twist entries -> rep id
    acc = {0 if ranked else None: {((), (), 0): 1}}    # GL rank or None -> bucket

    def mover(omega, moved_by: dict):
        """rep id -> rep id once the twist ``omega`` of a first piece has
        twisted the anchor, or None when there is none; ``moved_by``
        caches it for one step."""
        if omega is None:
            return None
        moved = moved_by.get(omega.entries)
        if moved is None:
            moved = moved_by[omega.entries] = {}
            omega = _absorb_fixed(sigma, omega)    # no anchor twist holds a fixed label
            for rid in {rid for bucket in acc.values() for _, _, rid in bucket}:
                merged = reps[rid].merge(omega)
                new = moved[rid] = rep_ids.setdefault(merged.entries, len(reps))
                if new == len(reps):
                    reps.append(merged)
        return moved

    cap = _max_terms()
    for (what, plan), later in zip(plans[:-1], reach[1:]):
        nxt: dict = {}
        size = 0          # terms in nxt
        moved_by: dict = {}
        for low, mid, omega, r in plan:
            moved = mover(omega, moved_by)
            for total, bucket in acc.items():
                if later is not None:
                    total += r
                    if rank - total not in later:
                        continue
                into = nxt.get(total)
                if into is None:
                    into = nxt[total] = {}
                for (gl, gu, rid), ct in bucket.items():
                    if moved is not None:
                        rid = moved[rid]
                    key = (tuple(sorted(low + gl)), tuple(sorted(mid + gu)), rid)
                    old = into.get(key)
                    if old is None:
                        into[key] = ct
                        size += 1
                        if size > cap:
                            raise _over_cap(what, size, cap)
                    else:
                        into[key] = old + ct
        acc = nxt

    what, plan = plans[-1]
    seg_at, key_at = segs.__getitem__, keys.__getitem__
    new_gl, new_gu, new_term = GLMonomial._trusted, GUClass._trusted, TensorTerm._trusted
    anchors: dict = {}    # GU ids -> (segments, their keys)
    gus: dict = {}        # (GU ids, rep id) -> GUClass
    moved_by = {}
    out: dict = {}
    for low, mid, omega, r in plan:
        bucket = acc.get(rank - r if ranked else None)
        if bucket is None:
            continue
        moved = mover(omega, moved_by)
        for (gl, gu, rid), ct in bucket.items():
            if moved is not None:
                rid = moved[rid]
            gl = sorted(low + gl)
            gl_key = tuple(map(key_at, gl))
            gl_factor = new_gl(tuple(map(seg_at, gl)), gl_key)
            gu = (tuple(sorted(mid + gu)), rid)
            gu_factor = gus.get(gu)
            if gu_factor is None:
                ids = gu[0]
                anchor = anchors.get(ids)
                if anchor is None:
                    anchor = anchors[ids] = (tuple(map(seg_at, ids)), tuple(map(key_at, ids)))
                gu_factor = gus[gu] = new_gu(anchor[0], sigma, reps[rid], anchor[1])
            term = new_term((gl_factor, gu_factor), (gl_key, gu_factor.key))
            size = len(out)
            old = out.setdefault(term, ct)
            if len(out) == size:
                out[term] = old + ct
            elif size >= cap:
                raise _over_cap(what, size + 1, cap)
    return FormalSum._from_terms(out)


def twisted_rtimes(m: FormalSum, t: FormalSum, mode: GroupMode) -> FormalSum:
    """Pair a three-factor GL sum with a (GL, GU) sum, bilinearly."""
    mode = GroupMode(mode)
    _checked("twisted_rtimes", FormalSum, (m, t))
    if m.is_zero or t.is_zero:
        return FormalSum.zero()
    if m.kind != ("tensor", 3, False) or t.kind != ("tensor", 2, True):
        raise KindMismatchError(
            f"twisted_rtimes needs a three-factor GL sum and a (GL, GU) sum, "
            f"got {m.kind} and {t.kind}"
        )

    def pair(tm: TensorTerm, tt: TensorTerm) -> TensorTerm:
        (first, second, third), (gl, anchor) = tm.factors, tt.factors
        omega = _omega_of(first.segments if mode is GroupMode.GU else ())
        return TensorTerm((
            GLMonomial(first.dual().segments + second.segments + gl.segments),
            GUClass(third.segments + anchor.segments, anchor.sigma, anchor.twist.merge(omega))))

    return _bilinear(m, t, pair, "twisted_rtimes: partial sum")


def _check_rank(where: str, rank, gl_rank: int) -> None:
    """Raise ``KindMismatchError`` for a ``rank`` that is not an int (a
    bool included) and ``InvalidParamsError`` for one outside 0..gl_rank."""
    _checked(where, int, (rank,))
    if not 0 <= rank <= gl_rank:
        raise InvalidParamsError(f"{where} needs a rank in 0..{gl_rank}, got {rank}")


def mu_star_of_segments(segments: Sequence[Segment], sigma: GUCuspidalLabel,
                        twist: TwistTag = TRIVIAL_TWIST,
                        mode: GroupMode = GroupMode.GU,
                        rank: int | None = None) -> FormalSum:
    """Fold the structure formula over an explicitly ordered segment list.

    The result does not depend on the order; exposing the order makes that
    a testable fact rather than an artifact of canonical sorting.  Where
    terms whose twists differ only in ``nu`` merge, the term shows the
    ``nu`` of the first one folded, so an equal sum can print other ``nu``
    values in another order; ``mu_star`` folds in canonical order.

    With an int ``rank``, only the terms whose GL factor has that rank are
    folded and returned, the same terms ``mu_star`` keeps (see there).
    """
    segments = [s for s in _checked("mu_star_of_segments", Segment, segments) if not s.is_empty]
    _checked("mu_star_of_segments", GUCuspidalLabel, (sigma,))
    _checked("mu_star_of_segments", TwistTag, (twist,))
    mode = GroupMode(mode)
    if rank is not None:
        _check_rank("mu_star_of_segments", rank, sum(s.rank for s in segments))
    return _fold(segments, sigma, twist, mode, "mu_star", rank)


def mu_star(g: GUClass, mode: GroupMode = GroupMode.GU,
            rank: int | None = None) -> FormalSum:
    """The structure formula: a sum of (GL factor, anchor factor) terms
    whose ranks always add up to the rank of ``g``.

    With an int ``rank`` in 0..``g.gl_rank``, the rank-``rank`` part of it:
    the terms whose GL factor has that rank, i.e. the Jacquet module along
    the maximal parabolic of GL rank ``rank``.  Only the partial terms
    that can still reach that rank are folded.  A ``rank`` that is not an
    int raises ``KindMismatchError``, one out of range
    ``InvalidParamsError``.
    """
    _checked("mu_star", GUClass, (g,))
    if rank is not None:
        _check_rank("mu_star", rank, g.gl_rank)
    return mu_star_of_segments(g.segments, g.sigma, g.twist, mode, rank)


class _BlockCutter:
    """Block cuts of GL monomials for one call of ``jacquet_by_shape``,
    ``_coefficient``, ``mstar_gl`` or ``mstar_big`` on ``segments``.

    Every segment a cut can produce has its ``_numbering`` id up front, so
    a GL monomial is a sorted tuple of ids, and every block a cut produces
    gets an int id too.  The memo and merge dicts hash plain int tuples;
    the memo maps (id tuple, blocks, wanted blocks or None) to what
    ``split`` returns.  A split or an output past the cap raises a
    ``TermLimitError`` naming ``what``.
    """

    def __init__(self, segments, what: str):
        self.cap, self.what = _max_terms(), what
        self.segments, self.keys, self.ids = _numbering(
            p for s in segments for p in _cuts(s)[2])
        self.tables: list = [None] * len(self.segments)  # segment id -> cut table
        self.block_ids: dict = {}  # id tuple -> block id
        self.memo: dict = {}

    def block(self, ids: tuple) -> int:
        return self.block_ids.setdefault(ids, len(self.block_ids))

    def table(self, i: int) -> list:
        """[(rank, top, bottom)] of segment ``i`` for each m* cut, by
        rising top length, the pieces as tuples of at most one id."""
        table = self.tables[i]
        if table is None:
            dim, ids = self.segments[i].rho.dim, self.ids
            table = self.tables[i] = [
                (l * dim, (ids[top[0].key],) if top else (),
                 (ids[bottom[0].key],) if bottom else ())
                for l, (top, bottom) in enumerate(_cuts(self.segments[i])[0])]
        return table

    def top_cuts(self, mono: tuple, rank: int, within=None) -> dict:
        """The terms of m*(mono) whose top piece has the given rank, as
        {(top block id, bottom ids): multiplicity}.

        Only top-length vectors with sum(l * dim) == rank are visited, and
        with a set of ids ``within``, only those whose nonempty top pieces
        are all in it.  Different vectors can give the same pair (repeated
        or overlapping segments), hence the count.
        """
        tables = [self.table(i) for i in mono]
        n = len(tables)
        # room[k]: the most rank segments k, k+1, ... can still put on top.
        room = [0] * (n + 1)
        for k in range(n - 1, -1, -1):
            room[k] = room[k + 1] + tables[k][-1][0]
        # Cut one segment after another, extending every partial vector in
        # turn, so the vectors come out in the order of a depth-first walk.
        partial = [(rank, (), ())]      # (rank still to place, tops, bottoms)
        for table, fits in zip(tables, room[1:]):
            longer = []
            for left, tops, bottoms in partial:
                for r, top, bottom in table:
                    if r > left:
                        break
                    if within is not None and top and top[0] not in within:
                        continue
                    if left - r <= fits:
                        longer.append((left - r, tops + top, bottoms + bottom))
            partial = longer
        out: dict = {}
        for _, tops, bottoms in partial:
            pair = (self.block(tuple(sorted(tops))), tuple(sorted(bottoms)))
            out[pair] = out.get(pair, 0) + 1
        return out

    def split(self, mono: tuple, blocks: tuple, want=None) -> list:
        """[(block ids, multiplicity)] for every way of cutting ``mono``,
        whose rank is ``sum(blocks)``, into ordered blocks of those ranks.

        With ``want``, one sorted id tuple per block, only the cut into
        exactly those blocks is followed: at each block, only the top cuts
        whose top is the wanted block, so the list holds at most one cut.
        """
        if len(blocks) <= 1:
            # The last block takes the whole rest; () splits the unit once.
            if want and mono != want[0]:
                return []
            return [((self.block(mono),) if blocks else (), 1)]
        key = (mono, blocks, want)
        found = self.memo.get(key)
        if found is None:
            rest, later, cap = blocks[1:], want and want[1:], self.cap
            cuts = self.top_cuts(mono, blocks[0], want and set(want[0])).items()
            if want:
                wanted = self.block(want[0])
                cuts = [cut for cut in cuts if cut[0][0] == wanted]
            out: dict = {}
            for (top, bottom), c in cuts:
                for tail, c2 in self.split(bottom, rest, later):
                    parts = (top,) + tail
                    old = out.get(parts)
                    if old is None:
                        if len(out) >= cap:
                            # The cuts of one monomial are distinct output terms.
                            raise _over_cap(self.what, len(out) + 1, cap)
                        out[parts] = c * c2
                    else:
                        out[parts] = old + c * c2
            found = self.memo[key] = list(out.items())
        return found

    @_collector_paused
    def build(self, sources, last_first: bool = False) -> FormalSum:
        """The sum over ``sources``, each (GL key, multiplicity, shapes,
        trailing factor or None), of the multiplicity times every cut of
        the GL factor along each shape: one GL factor per block (the last
        block first with ``last_first``), then the trailing factor.  Terms
        merge under the cap as they come, on their blocks and trailing key,
        keeping the first trailing factor and so its nu; the memo is freed
        before each block's ``GLMonomial`` and each term are built once."""
        cap, id_of = self.cap, self.ids.__getitem__
        trails: dict = {}     # trailing factor key -> trailing id
        out: dict = {}        # (block ids, trailing id) -> [multiplicity, first trailing factor]
        for gl, c, shapes, trail in sources:
            ids = tuple(map(id_of, gl))
            t = None if trail is None else trails.setdefault(trail.key, len(trails))
            for shape in shapes:
                for parts, c2 in self.split(ids, shape):
                    key = (parts[-1:] + parts[:-1] if last_first else parts, t)
                    entry = out.get(key)
                    if entry is None:
                        if len(out) >= cap:
                            raise _over_cap(self.what, len(out) + 1, cap)
                        out[key] = [c * c2, trail]
                    else:
                        entry[0] += c * c2
        self.memo.clear()
        seg_at, key_at = self.segments.__getitem__, self.keys.__getitem__
        monos = [GLMonomial._trusted(tuple(map(seg_at, ids)), tuple(map(key_at, ids)))
                 for ids in self.block_ids]
        mono_at, mono_key_at = monos.__getitem__, [m.key for m in monos].__getitem__
        terms: dict = {}
        for (parts, _), (m, trail) in out.items():
            factors, keys = tuple(map(mono_at, parts)), tuple(map(mono_key_at, parts))
            if trail is not None:
                factors, keys = factors + (trail,), keys + (trail.key,)
            terms[TensorTerm._trusted(factors, keys)] = m
        return FormalSum._from_terms(terms)


def _query(where: str, g: GUClass, shape, mode) -> tuple:
    """(shape as a tuple, ``GroupMode``) of a query on ``g`` along
    ``shape``, after the checks ``jacquet_by_shape`` documents."""
    mode = GroupMode(mode)
    _checked(where, GUClass, (g,))
    try:
        shape = tuple(shape)
    except TypeError:
        raise ShapeError(f"shape must be iterable, got {shape!r}") from None
    if any(type(b) is not int or b <= 0 for b in shape):
        raise ShapeError(f"shape blocks must be positive ints, got {shape}")
    total = sum(shape)
    if total > g.gl_rank:
        raise ShapeError(
            f"shape {shape} needs GL rank {total}, but the class only has {g.gl_rank}"
        )
    return shape, mode


def jacquet_by_shape(g: GUClass, shape, mode: GroupMode = GroupMode.GU) -> FormalSum:
    """Semisimplified Jacquet module of ``g`` along ``shape``, an
    iterable of GL block ranks in order.

    Terms have one GL factor per block (exact rank match) followed by the
    anchor factor.  Raises ``ShapeError`` for a shape that is not
    iterable, a block that is not a positive int or a total above the GL
    rank of ``g``, and ``TermLimitError`` as soon as the partial module
    exceeds JACQUET_MAX_TERMS, and ``KindMismatchError`` when ``g`` is
    not a ``GUClass``.
    """
    shape, mode = _query("jacquet_by_shape", g, shape, mode)
    cutter = _BlockCutter(g.segments, "jacquet_by_shape: partial module")
    shapes = (shape,)
    return cutter.build((t.factors[0].key, c, shapes, t.factors[1])
                        for t, c in mu_star(g, mode, sum(shape)).items())


def _exponents(segments) -> dict:
    """{(label name, twice an exponent): count} over ``segments``."""
    out: dict = {}
    for s in segments:
        for e in range(s.a.twice, s.b.twice + 1, 2):
            out[(s.rho.name, e)] = out.get((s.rho.name, e), 0) + 1
    return out


@_collector_paused
def _coefficient(g: GUClass, shape, target, mode: GroupMode = GroupMode.GU) -> int:
    """``jacquet_by_shape(g, shape, mode).coefficient(target)``, without
    building the module.

    Tadic's structure formula is pruned against the target, exactly:
    an M* entry of a segment is dropped when its third piece, which lands
    on the anchor, is not a segment of the target's anchor, or when its
    dualized first and second pieces hold some (label, exponent) more
    often than the target's blocks do (cutting keeps that multiset).  The
    kept entries are folded by ``_fold`` at the shape's total rank, so
    only terms that can reach it are followed; each folded term with the
    target's anchor is cut by ``_BlockCutter.split`` asked for the
    target's blocks, which follows only the target's block at each step
    and returns that one cut or none.  Raises what ``jacquet_by_shape``
    raises for ``g``, ``shape`` and ``mode``; a ``TermLimitError`` names
    the ``coefficient`` layer.
    """
    shape, mode = _query("a coefficient query", g, shape, mode)
    if not (isinstance(target, TensorTerm) and target.arity == len(shape) + 1
            and isinstance(target.factors[-1], GUClass)):
        return 0
    *blocks, anchor = target.factors
    if [b.rank for b in blocks] != list(shape):
        return 0
    cutter = _BlockCutter(g.segments, "coefficient: partial module")
    ids = cutter.ids
    if any(k not in ids for b in blocks for k in b.key):
        return 0
    targets = tuple(tuple(ids[k] for k in b.key) for b in blocks)
    on_anchor = {s.key for s in anchor.segments}
    support = _exponents(p for b in blocks for p in b.segments)

    def fits(entry) -> bool:
        second, third, dual, _ = entry
        if third and third[0].key not in on_anchor:
            return False
        need: dict = {}
        for p in dual + second:
            name = p.rho.name
            for e in range(p.a.twice, p.b.twice + 1, 2):
                n = need[name, e] = need.get((name, e), 0) + 1
                if n > support.get((name, e), 0):
                    return False
        return True

    folded = _fold(g.segments, g.sigma, g.twist, mode, "coefficient", sum(shape), fits)
    id_of, out = ids.__getitem__, 0
    for term, c in folded.items():
        gl, gu = term.factors
        if gu.key == anchor.key:
            for _, c2 in cutter.split(tuple(map(id_of, gl.key)), shape, targets):
                out += c * c2
    return out
