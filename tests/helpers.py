"""Shared test utilities: half-integer shorthand, independent oracles, and
random input generation."""

import random

from jacquet import (
    CuspidalGLLabel,
    FormalSum,
    GLMonomial,
    GroupMode,
    GUClass,
    GUCuspidalLabel,
    HalfInt,
    Segment,
    TensorTerm,
    TwistTag,
    TRIVIAL_TWIST,
    mstar_gl,
    mu_star,
)


def h(twice: int) -> HalfInt:
    """HalfInt from its doubled value."""
    return HalfInt.from_twice(twice)


def seg(rho, a, b) -> Segment:
    """Segment with int or doubled-int-tuple bounds: seg(rho, 1, 2) or
    seg(rho, h(1), h(5))."""
    return Segment(rho, HalfInt(a) if isinstance(a, int) else a,
                   HalfInt(b) if isinstance(b, int) else b)


def direct_single_segment_mu(segment: Segment, sigma: GUCuspidalLabel,
                             mode: GroupMode = GroupMode.GU) -> FormalSum:
    """Direct transcription of the one-segment comultiplication display:
    a double sum over cut points, the low piece dualized into the GL slot,
    the middle piece pushed onto the anchor with the low piece's twist.

    Deliberately independent of the folded engine in ``structure``.
    """
    rho, a, b = segment.rho, segment.a, segment.b
    terms = {}
    i = a - 1
    while i <= b:
        j = i
        while j <= b:
            low = Segment(rho, a, i)
            high = Segment(rho, j + 1, b)
            middle = Segment(rho, i + 1, j)
            gl = GLMonomial((low.dual(), high))
            if mode is GroupMode.GU and not low.is_empty:
                twist = TwistTag(((rho.name, low.length, low.exponent_sum()),))
            else:
                twist = TRIVIAL_TWIST
            gu = GUClass((middle,), sigma, twist)
            term = TensorTerm((gl, gu))
            terms[term] = terms.get(term, 0) + 1
            j = j + 1
        i = i + 1
    return FormalSum(terms)


def unpruned_jacquet_by_shape(g: GUClass, blocks: tuple,
                              mode: GroupMode = GroupMode.GU) -> FormalSum:
    """Jacquet module along ``blocks`` the unpruned way: all of mu*, then
    a filter on the GL rank, then the whole m* of what is left for each
    block in turn, keeping only the cuts whose top piece has the block's
    rank.

    The reference for the rank-targeted split in ``jacquet_by_shape``.
    """
    out = {}
    for term, c in mu_star(g, mode).items():
        gl, gu = term.factors
        if gl.rank != sum(blocks):
            continue
        partial = [((), gl, c)]
        for rank in blocks:
            step = []
            for parts, rest, c1 in partial:
                for cut, c2 in mstar_gl(rest).items():
                    top, bottom = cut.factors
                    if top.rank == rank:
                        step.append((parts + (top,), bottom, c1 * c2))
            partial = step
        for parts, _, c1 in partial:
            t = TensorTerm(parts + (gu,))
            out[t] = out.get(t, 0) + c1
    return FormalSum(out)


def strip_twists(s: FormalSum) -> FormalSum:
    """Replace every term's anchor twist with the trivial tag, merging
    multiplicities of terms that collide afterwards."""
    out = {}
    for term, mult in s.items():
        factors = list(term.factors)
        gu = factors[-1]
        factors[-1] = GUClass(gu.segments, gu.sigma, TRIVIAL_TWIST)
        t = TensorTerm(factors)
        out[t] = out.get(t, 0) + mult
    return FormalSum(out)


def make_mixed_labels():
    """A small universe of labels for randomized structure tests."""
    rho = CuspidalGLLabel("rho", dim=1, conj_self_dual=True)
    tau = CuspidalGLLabel("tau", dim=2, conj_self_dual=True)
    chi = CuspidalGLLabel("chi", dim=1, conj_self_dual=False)
    sigma = GUCuspidalLabel("sigma", rank=1)
    return [rho, tau, chi], sigma


def random_segments(rng: random.Random, labels, max_segments=3, max_length=4):
    """Up to max_segments random segments with lengths 1..max_length and
    half-integral starts in a small window."""
    count = rng.randrange(0, max_segments + 1)
    out = []
    for _ in range(count):
        rho = rng.choice(labels)
        start = h(rng.randrange(-5, 6))
        length = rng.randrange(1, max_length + 1)
        out.append(Segment(rho, start, start + (length - 1)))
    return out
