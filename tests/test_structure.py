"""The comultiplication engine against its defining formulas and oracles."""

import gc
import itertools
import json
import math
import random
import re
import threading
import time
import types

import pytest

from jacquet import (
    CuspidalGLLabel,
    FormalSum,
    GLMonomial,
    GroupMode,
    GUClass,
    GUCuspidalLabel,
    HalfInt,
    InvalidParamsError,
    JacquetError,
    KindMismatchError,
    Segment,
    ShapeError,
    TensorTerm,
    TermLimitError,
    TwistTag,
    TRIVIAL_TWIST,
    enumerate_sp,
    jacquet_by_shape,
    mstar_big,
    mstar_gl,
    mu_star,
    mu_star_of_segments,
    tensor_multiply,
    twisted_rtimes,
)
from jacquet import structure
from jacquet.grothendieck import sum_to_obj
from jacquet.spclassifier import _leading_multiplicity
from jacquet.structure import _coefficient
from helpers import (
    direct_single_segment_mu,
    h,
    make_mixed_labels,
    predicted_module_size,
    random_segments,
    reference_mu_star_of_segments,
    seg,
    strip_twists,
    transcribed_mstar_big,
    transcribed_mstar_gl,
    unpruned_jacquet_by_shape,
)

RHO = CuspidalGLLabel("rho")
CHI = CuspidalGLLabel("chi", conj_self_dual=False)
SIGMA = GUCuspidalLabel("sigma")


def mono(*segments) -> GLMonomial:
    return GLMonomial(segments)


def glterm(*parts) -> TensorTerm:
    return TensorTerm(tuple(GLMonomial(p) for p in parts))


class TestMstarGL:
    def test_single_point_segment(self):
        s = seg(RHO, 3, 3)
        expected = FormalSum([
            (glterm([s], []), 1),
            (glterm([], [s]), 1),
        ])
        assert mstar_gl(s) == expected

    def test_length_two(self):
        expected = FormalSum([
            (glterm([seg(RHO, 1, 2)], []), 1),
            (glterm([seg(RHO, 2, 2)], [seg(RHO, 1, 1)]), 1),
            (glterm([], [seg(RHO, 1, 2)]), 1),
        ])
        assert mstar_gl(seg(RHO, 1, 2)) == expected

    def test_term_count(self):
        for length in range(1, 7):
            s = seg(RHO, 1, length)
            assert len(mstar_gl(s)) == length + 1

    def test_empty_segment_is_the_unit(self):
        # GLMonomial drops an empty segment, so both comultiply it as 1.
        for empty in (Segment.empty(RHO), Segment.empty(CHI, 1)):
            assert mstar_gl(empty) == mstar_gl(GLMonomial([empty])) == mstar_gl(GLMonomial())
            assert mstar_big(empty) == mstar_big(GLMonomial([empty])) == mstar_big(GLMonomial())
            assert str(mstar_gl(empty)) == "1 (x) 1"
            assert str(mstar_big(empty)) == "1 (x) 1 (x) 1"

    def test_linear_and_multiplicative_on_sums(self):
        s, t = seg(RHO, 0, 1), seg(CHI, 1, 1)
        x, y = FormalSum.of(mono(s)), FormalSum.of(mono(t))
        assert mstar_gl(2 * x - y) == 2 * mstar_gl(s) - mstar_gl(t)
        assert mstar_gl(x - x).is_zero and mstar_gl(FormalSum.zero()).is_zero
        both = tensor_multiply(mstar_gl(s), mstar_gl(t))
        assert both == mstar_gl(mono(s, t)) == mstar_gl(FormalSum.of(mono(s, t)))
        square = tensor_multiply(mstar_gl(s), mstar_gl(s))
        assert len(square) == 6 and square == mstar_gl(mono(s, s))
        for pair in ((s, t), (s, s), (seg(CHI, 0, 1), seg(CHI.dual(), 1, 2))):
            assert mstar_big(mono(*pair)) == tensor_multiply(
                mstar_big(pair[0]), mstar_big(pair[1])), pair

    def test_non_element_rejected(self):
        with pytest.raises(KindMismatchError):
            mstar_gl("x")
        with pytest.raises(KindMismatchError):
            mstar_big("x")

    def test_monomial_extension_is_componentwise(self):
        m = mono(seg(RHO, 1, 1), seg(RHO, 3, 3))
        terms = dict(mstar_gl(m).items())
        # four splittings of two independent points
        assert len(terms) == 4
        assert terms[glterm([seg(RHO, 1, 1), seg(RHO, 3, 3)], [])] == 1
        assert terms[glterm([seg(RHO, 1, 1)], [seg(RHO, 3, 3)])] == 1


class TestMstarBig:
    def test_single_point_segment(self):
        s = seg(RHO, 2, 2)
        expected = FormalSum([
            (glterm([s], [], []), 1),
            (glterm([], [s], []), 1),
            (glterm([], [], [s]), 1),
        ])
        assert mstar_big(s) == expected

    def test_term_count_formula(self):
        for length in range(1, 7):
            s = seg(RHO, 1, length)
            ms = mstar_big(s)
            assert len(ms) == (length + 1) * (length + 2) // 2
            assert ms.total_multiplicity() == (length + 1) * (length + 2) // 2

    def test_first_slot_trivial_slice_is_mstar_gl(self):
        # keeping only terms with empty first factor and dropping that
        # factor recovers the two-factor comultiplication
        for length in range(1, 7):
            s = seg(RHO, 1, length)
            sliced = {}
            for term, mult in mstar_big(s).items():
                first, second, third = term.factors
                if first.is_unit:
                    sliced[TensorTerm((second, third))] = mult
            assert FormalSum(sliced) == mstar_gl(s)

    def test_multiplicative_over_products(self):
        m = mono(seg(RHO, 1, 1), seg(RHO, 2, 3))
        assert len(mstar_big(m)) == 3 * 6


def _oracle_monomials(count: int, seed: int):
    """Seeded random GL monomials over rho, tau (dim 2), chi and chi~, of
    up to three segments of length <= 4; every third one repeats a
    segment and every third overlaps one, shifted by one."""
    labels, _ = make_mixed_labels()
    labels = labels + [labels[2].dual()]
    rng = random.Random(seed)
    out = []
    for i in range(count):
        segments = random_segments(rng, labels, max_segments=2, max_length=4)
        if segments and i % 3 == 1:
            segments.append(segments[0])
        elif segments and i % 3 == 2:
            s = rng.choice(segments)
            segments.append(Segment(s.rho, s.a + 1, s.b + 1))
        out.append(GLMonomial(segments))
    return out


class TestComultiplicationOracle:
    # m* and M* of multi-segment monomials against their displays,
    # transcribed per segment and multiplied out with tensor_multiply.

    def test_mstar_gl_matches_the_transcription(self):
        for m in _oracle_monomials(90, 5):
            assert mstar_gl(m) == transcribed_mstar_gl(m.segments), m

    def test_mstar_big_matches_the_transcription(self):
        for m in _oracle_monomials(90, 6):
            assert mstar_big(m) == transcribed_mstar_big(m.segments), m

    def test_fixed_repeated_and_overlapping_products(self):
        tau = CuspidalGLLabel("tau", dim=2)
        for segments in ([seg(tau, 0, 1)] * 2, [seg(RHO, 0, 2), seg(RHO, 1, 3)],
                         [seg(CHI, 0, 1), seg(CHI.dual(), 0, 1), seg(CHI, 1, 2)],
                         [seg(RHO, h(1), h(3))] * 3):
            m = GLMonomial(segments)
            assert mstar_gl(m) == transcribed_mstar_gl(segments), m
            assert mstar_big(m) == transcribed_mstar_big(segments), m

    def test_term_cap_is_checked_while_the_sum_grows(self, monkeypatch):
        # M* of this product has 100 terms, m* 20; each stops at cap + 1.
        m = mono(seg(RHO, 0, 2), seg(RHO, 1, 3))
        monkeypatch.setenv("JACQUET_MAX_TERMS", "50")
        with pytest.raises(TermLimitError) as err:
            mstar_big(m)
        assert str(err.value) == (
            "mstar_big: partial sum of 51 terms exceeds JACQUET_MAX_TERMS (50 terms)")
        monkeypatch.setenv("JACQUET_MAX_TERMS", "10")
        with pytest.raises(TermLimitError) as err:
            mstar_gl(FormalSum.of(m))
        assert str(err.value).startswith("mstar_gl: partial sum of 11 terms")
        monkeypatch.setenv("JACQUET_MAX_TERMS", "100")
        assert len(mstar_big(m)) == 100


class TestMuStar:
    def test_cuspidal_anchor(self):
        g = GUClass([], SIGMA)
        assert mu_star(g) == FormalSum.of(
            TensorTerm((GLMonomial(), GUClass([], SIGMA)))
        )

    def test_one_point_segment_gu(self):
        s = seg(RHO, 1, 1)
        g = GUClass([s], SIGMA)
        terms = dict(mu_star(g, GroupMode.GU).items())
        assert len(terms) == 3
        assert terms[TensorTerm((GLMonomial(), GUClass([s], SIGMA)))] == 1
        assert terms[TensorTerm((mono(s), GUClass([], SIGMA)))] == 1
        twisted = GUClass([], SIGMA, _omega_rho())
        assert terms[TensorTerm((mono(seg(RHO, -1, -1)), twisted))] == 1

    def test_one_point_segment_u_mode(self):
        s = seg(RHO, 1, 1)
        g = GUClass([s], SIGMA)
        terms = dict(mu_star(g, GroupMode.U).items())
        assert len(terms) == 3
        assert terms[TensorTerm((mono(seg(RHO, -1, -1)), GUClass([], SIGMA)))] == 1

    def test_mode_by_value(self):
        g = GUClass([seg(RHO, 1, 1), seg(CHI, 0, 1)], SIGMA)
        m = mstar_big(seg(RHO, 1, 1))
        t = FormalSum.of(TensorTerm((GLMonomial(), GUClass([], SIGMA))))
        runs = [
            lambda mode: mu_star(g, mode),
            lambda mode: mu_star_of_segments([], SIGMA, mode=mode),
            lambda mode: twisted_rtimes(m, t, mode),
            lambda mode: jacquet_by_shape(g, (1,), mode),
            lambda mode: enumerate_sp([], SIGMA, 3, mode),
        ]
        assert mu_star(g, "GU") != mu_star(g, "U")
        for run in runs:
            for member in GroupMode:
                assert run(member.value) == run(member)
            for bad in ("gu", None):
                with pytest.raises(JacquetError, match=repr(bad)):
                    run(bad)

    def test_dual_label_in_output(self):
        s = seg(CHI, 0, 0)
        g = GUClass([s], SIGMA)
        duals = [
            t for t, _ in mu_star(g).items()
            if t.factors[0].segments and t.factors[0].segments[0].rho.name == "chi~"
        ]
        assert len(duals) == 1

    def test_memo_tells_same_named_labels_apart(self):
        # Labels compare by name; the per-segment memo must not hand pieces
        # built with a self-dual "chi" to a non-self-dual "chi".
        self_dual = CuspidalGLLabel("chi")
        for label, has_dual in ((self_dual, False), (CHI, True), (self_dual, False)):
            g = GUClass([seg(label, 0, 1)], SIGMA)
            names = {
                s.rho.name for t in mu_star(g).terms() for s in t.factors[0].segments
            }
            assert ("chi~" in names) == has_dual, label

    def test_rejects_wrong_kinds(self):
        s = seg(RHO, 1, 1)
        anchored = FormalSum.of(TensorTerm((GLMonomial(), GUClass([s], SIGMA))))
        for x in (mono(s), s, anchored):
            with pytest.raises(KindMismatchError):
                mu_star(x)
        for segments in ([], [s]):
            with pytest.raises(KindMismatchError):
                mu_star_of_segments(segments, "sigma")

    def test_cut_table_tells_same_named_labels_apart(self):
        # mstar_gl and the block split read the same per-segment memo as
        # mu*: every piece must carry the attributes of the call's own
        # label, and every block the rank that label gives it.
        for label in (CuspidalGLLabel("chi"), CHI, CuspidalGLLabel("chi"),
                      CuspidalGLLabel("tau", dim=1), CuspidalGLLabel("tau", dim=2),
                      CuspidalGLLabel("tau", dim=1)):
            attrs = (label.dim, label.conj_self_dual)
            s = seg(label, 0, 1)
            for term in mstar_gl(s).terms():
                for f in term.factors:
                    assert all((p.rho.dim, p.rho.conj_self_dual) == attrs
                               for p in f.segments), label
            out = jacquet_by_shape(GUClass([s], SIGMA), (label.dim, label.dim))
            names = set()
            for term in out.terms():
                *blocks, anchor = term.factors
                assert [b.rank for b in blocks] == [label.dim, label.dim], label
                for p in [p for b in blocks for p in b.segments] + list(anchor.segments):
                    assert (p.rho.dim, p.rho.conj_self_dual) == attrs, label
                    names.add(p.rho.name)
            duals = set() if label.conj_self_dual else {label.dual().name}
            assert names == {label.name} | duals, label

    def test_matches_direct_transcription(self):
        for segment in [
            seg(RHO, 1, 1),
            seg(RHO, 1, 3),
            Segment(RHO, h(1), h(5)),
            seg(RHO, -1, 2),
            seg(CHI, 0, 2),
        ]:
            for mode in GroupMode:
                g = GUClass([segment], SIGMA)
                assert mu_star(g, mode) == direct_single_segment_mu(
                    segment, SIGMA, mode
                ), (segment, mode)

    def test_merging_terms_get_added_multiplicity(self):
        # [-2, 2] is its own dual as a set; two cuts collide after sorting
        g = GUClass([seg(RHO, -2, 2)], SIGMA)
        mu = mu_star(g, GroupMode.U)
        assert mu.total_multiplicity() == 6 * 7 // 2
        assert any(m > 1 for _, m in mu.items())

    def test_degree_conservation_randomized(self):
        labels, sigma = make_mixed_labels()
        rng = random.Random(7)
        for _ in range(60):
            segments = random_segments(rng, labels)
            total = sum(s.rank for s in segments) + sigma.rank
            for mode in GroupMode:
                for term, _ in mu_star_of_segments(segments, sigma, mode=mode).items():
                    gl, gu = term.factors
                    assert gl.rank + gu.rank == total

    def test_factor_order_independence(self):
        labels, sigma = make_mixed_labels()
        rng = random.Random(11)
        for _ in range(40):
            segments = random_segments(rng, labels)
            shuffled = segments[:]
            rng.shuffle(shuffled)
            assert mu_star_of_segments(segments, sigma) == \
                mu_star_of_segments(shuffled, sigma)
        # Merged terms here carry twists whose nu differs by order, which
        # the text and JSON show but equality ignores.
        chi, chid = labels[2], labels[2].dual()
        segments = [seg(chid, -1, 1), seg(chi, -1, 1), seg(chid, 0, 1), seg(chi, -1, 0)]
        canonical = mu_star_of_segments(segments, sigma)
        assert len(canonical) == 3082
        for order in itertools.permutations(segments):
            assert mu_star_of_segments(order, sigma) == canonical

    def test_u_mode_purity_and_tag_erasure(self):
        labels, sigma = make_mixed_labels()
        rng = random.Random(13)
        for _ in range(40):
            segments = random_segments(rng, labels)
            gu = mu_star_of_segments(segments, sigma, mode=GroupMode.GU)
            u = mu_star_of_segments(segments, sigma, mode=GroupMode.U)
            for term, _ in u.items():
                assert term.factors[-1].twist.is_trivial
            assert strip_twists(gu) == u


def _omega_rho():
    from jacquet import TwistTag

    return TwistTag((("rho", 1, HalfInt(1)),))


class TestTwistedRtimes:
    def unit3(self):
        return FormalSum.of(TensorTerm((GLMonomial(),) * 3))

    def anchor(self):
        return FormalSum.of(TensorTerm((GLMonomial(), GUClass([], SIGMA))))

    def test_unit(self):
        from jacquet import twisted_rtimes

        out = twisted_rtimes(self.unit3(), self.anchor(), GroupMode.GU)
        assert out == self.anchor()

    def test_zero_inputs(self):
        from jacquet import twisted_rtimes

        zero = FormalSum.zero()
        assert twisted_rtimes(zero, self.anchor(), GroupMode.GU).is_zero
        assert twisted_rtimes(self.unit3(), zero, GroupMode.U).is_zero

    def test_first_slot_dualizes_and_twists(self):
        from jacquet import twisted_rtimes

        s = seg(RHO, 1, 1)
        m = FormalSum.of(TensorTerm((mono(s), GLMonomial(), GLMonomial())))
        out = twisted_rtimes(m, self.anchor(), GroupMode.GU)
        expected = TensorTerm((
            mono(seg(RHO, -1, -1)),
            GUClass([], SIGMA, _omega_rho()),
        ))
        assert out == FormalSum.of(expected)

    def test_u_mode_never_twists(self):
        from jacquet import twisted_rtimes

        s = seg(RHO, 1, 1)
        m = FormalSum.of(TensorTerm((mono(s), GLMonomial(), GLMonomial())))
        out = twisted_rtimes(m, self.anchor(), GroupMode.U)
        expected = TensorTerm((mono(seg(RHO, -1, -1)), GUClass([], SIGMA)))
        assert out == FormalSum.of(expected)

    def test_slots_assemble(self):
        from jacquet import twisted_rtimes

        s1, s2, s3, s4 = (seg(RHO, i, i) for i in (1, 2, 3, 4))
        m = FormalSum.of(TensorTerm((mono(s1), mono(s2), mono(s3))))
        t = FormalSum.of(TensorTerm((mono(s4), GUClass([seg(RHO, 5, 5)], SIGMA))))
        out = twisted_rtimes(m, t, GroupMode.U)
        expected = TensorTerm((
            mono(seg(RHO, -1, -1), s2, s4),
            GUClass([s3, seg(RHO, 5, 5)], SIGMA),
        ))
        assert out == FormalSum.of(expected)


def _same_output(got: FormalSum, want: FormalSum) -> bool:
    """Equal sums, equal text and byte-identical JSON, which also pins the
    nu sums each merged twist displays."""
    return (got == want and str(got) == str(want)
            and json.dumps(sum_to_obj(got)) == json.dumps(sum_to_obj(want)))


def _alternating(k: int, length: int) -> list:
    tau = CuspidalGLLabel("tau", dim=2)
    return [Segment(RHO if i % 2 == 0 else tau, HalfInt(i), HalfInt(i + length - 1))
            for i in range(k)]


class TestFoldKernel:
    """The interned fold against the object-level reference fold."""

    def anchors(self, sigma):
        rho, _, chi = make_mixed_labels()[0]
        fixed = GUCuspidalLabel("sigma_fixed", rank=1, twist_fixed={rho, chi})
        start = TwistTag((("rho", 1, h(1)), ("chi", -2, h(3)), ("tau", 1, h(-1))))
        return [(sigma, TRIVIAL_TWIST), (sigma, start),
                (fixed, TRIVIAL_TWIST), (fixed, start)]

    @pytest.mark.slow
    def test_matches_reference_random(self):
        labels, sigma = make_mixed_labels()
        anchors = self.anchors(sigma)
        rng = random.Random(41)
        # Every class runs with one of the 8 (anchor, start twist, mode) cases.
        cases = list(itertools.product(anchors, GroupMode))
        for i in range(300):
            segments = random_segments(rng, labels, max_segments=3, max_length=4)
            (anchor, twist), mode = cases[i % len(cases)]
            got = mu_star_of_segments(segments, anchor, twist, mode)
            want = reference_mu_star_of_segments(segments, anchor, twist, mode)
            assert _same_output(got, want), (segments, anchor, twist, mode)

    @pytest.mark.slow
    def test_matches_reference_deep_folds(self):
        for k, length in ((3, 4), (4, 3)):
            segments = _alternating(k, length)
            for mode in GroupMode:
                got = mu_star_of_segments(segments, SIGMA, mode=mode)
                want = reference_mu_star_of_segments(segments, SIGMA, mode=mode)
                assert _same_output(got, want), (k, length, mode)

    @pytest.mark.slow
    def test_merges_up_to_nu_match_reference_in_every_order(self):
        # Terms whose twists differ only in nu really merge here: 3,082
        # terms, 3,087 when nu is keyed too.  The reference keeps the first
        # term of each merged pair, so every order pins which nu is shown.
        (_, _, chi), sigma = make_mixed_labels()
        chid = chi.dual()
        segments = [seg(chid, -1, 1), seg(chi, -1, 1), seg(chid, 0, 1), seg(chi, -1, 0)]
        for order in itertools.permutations(segments):
            got = mu_star_of_segments(order, sigma, mode=GroupMode.GU)
            want = reference_mu_star_of_segments(order, sigma, mode=GroupMode.GU)
            assert _same_output(got, want), order

    def test_twisted_rtimes_of_a_product_is_the_fold(self):
        # M* is multiplicative, so pairing M* of the whole product at once
        # (multi-segment first factors) gives the segment-by-segment fold.
        # Every class runs with all 8 (anchor, start twist, mode) cases.
        labels, sigma = make_mixed_labels()
        cases = list(itertools.product(self.anchors(sigma), GroupMode))
        rng = random.Random(43)
        for _ in range(30):
            segments = random_segments(rng, labels, max_segments=3, max_length=3)
            m = mstar_big(GLMonomial(segments))
            for (anchor, twist), mode in cases:
                start = FormalSum.of(TensorTerm((GLMonomial(), GUClass((), anchor, twist))))
                assert twisted_rtimes(m, start, mode) == mu_star_of_segments(
                    segments, anchor, twist, mode), (segments, anchor, twist, mode)

    def test_merged_term_keeps_its_first_twist(self):
        # Inputs with unrelated nu sums show which term of a merged pair
        # is kept: the first in the order M* terms outer, accumulated terms
        # inner.
        s = seg(RHO, 1, 1)
        lift = TensorTerm((GLMonomial(), GLMonomial(), mono(s)))
        unit = TensorTerm((GLMonomial(),) * 3)
        m = FormalSum({lift: 1, unit: 1})
        t = FormalSum({
            TensorTerm((GLMonomial(), GUClass([s], SIGMA, TwistTag((("rho", 1, h(0)),))))): 1,
            TensorTerm((GLMonomial(), GUClass([], SIGMA, TwistTag((("rho", 1, h(14)),))))): 1,
        })
        merged = TensorTerm((GLMonomial(), GUClass([s], SIGMA, TwistTag((("rho", 1, h(0)),)))))
        out = twisted_rtimes(m, t, GroupMode.GU)
        assert out.coefficient(merged) == 2
        kept = next(term for term in out.terms() if term == merged)
        assert kept.factors[1].twist.entries == (("rho", 1, h(14)),)

    def test_twisted_rtimes_rejects_wrong_kinds(self):
        anchor = FormalSum.of(TensorTerm((GLMonomial(), GUClass([], SIGMA))))
        with pytest.raises(KindMismatchError):
            twisted_rtimes(anchor, anchor, GroupMode.GU)

    def test_term_cap_fails_inside_the_fold(self, monkeypatch):
        monkeypatch.setenv("JACQUET_MAX_TERMS", "50")
        g = GUClass([seg(RHO, 0, 2), seg(RHO, 1, 3)], SIGMA)
        with pytest.raises(TermLimitError) as err:
            mu_star(g)
        message = str(err.value)
        assert message.startswith("mu_star: folding d(1,3@rho),")
        assert "partial sum of 51 terms" in message
        # a step before the last one
        monkeypatch.setenv("JACQUET_MAX_TERMS", "5")
        g = GUClass([seg(RHO, 0, 2), seg(RHO, 1, 3), seg(RHO, 2, 4)], SIGMA)
        with pytest.raises(TermLimitError) as err:
            mu_star(g)
        assert str(err.value) == ("mu_star: folding d(0,2@rho), partial sum of 6 "
                                  "terms exceeds JACQUET_MAX_TERMS (5 terms)")

    def test_runaway_fold_is_refused_before_its_tables(self, monkeypatch):
        # 2,003,001 M* terms: the fold used to build their table, and a
        # million terms, before the cap stopped it.
        monkeypatch.delenv("JACQUET_MAX_TERMS", raising=False)
        cached = len(structure._CUTS)
        start = time.perf_counter()
        with pytest.raises(TermLimitError) as err:
            mu_star(GUClass([seg(RHO, 0, 1999)], SIGMA))
        assert time.perf_counter() - start < 0.5
        assert len(structure._CUTS) == cached
        assert str(err.value) == (
            "mu_star: folding d(0,1999@rho), partial sum of 1000001 terms "
            "exceeds JACQUET_MAX_TERMS (1000000 terms)")

    # (segments, anchor, mode, cap) -> the term count or the error text,
    # as the fold gave them before runaway folds were refused up front:
    # rows the early refusal raises, rows the fold raises itself, and rows
    # whose terms fit a cap below the segment's M* count, since terms of
    # d(-a,a) coincide in U mode or over an anchor that fixes rho's twist.
    TAU = GUCuspidalLabel("tau", twist_fixed={RHO})
    CAP_ROWS = [
        ([seg(RHO, 0, 0), seg(RHO, 0, 4)], SIGMA, "GU", 15,
         "folding d(0,4@rho), partial sum of 16 terms"),
        ([seg(RHO, 0, 1), seg(RHO, -2, 2)], SIGMA, "U", 6,
         "folding d(-2,2@rho), partial sum of 7 terms"),
        ([seg(RHO, 0, 0), seg(RHO, 1, 1), seg(RHO, 0, 5)], SIGMA, "GU", 8,
         "folding d(0,5@rho), partial sum of 9 terms"),
        ([seg(RHO, 0, 0), seg(RHO, 1, 1), seg(RHO, 0, 5)], SIGMA, "U", 27,
         "folding d(0,5@rho), partial sum of 28 terms"),
        ([seg(CHI, 0, 1), seg(RHO, 0, 3)], SIGMA, "GU", 5,
         "folding d(0,1@chi), partial sum of 6 terms"),
        ([seg(CHI, 0, 1), seg(RHO, 0, 3)], SIGMA, "GU", 14,
         "folding d(0,3@rho), partial sum of 15 terms"),
        ([seg(RHO, -1, 1)], SIGMA, "GU", 9, "folding d(-1,1@rho), partial sum of 10 terms"),
        ([seg(RHO, -1, 1)], SIGMA, "U", 8, 8),
        ([seg(RHO, -1, 1)], TAU, "GU", 8, 8),
        ([seg(RHO, -1, 1)], TAU, "GU", 6, "folding d(-1,1@rho), partial sum of 7 terms"),
        ([seg(RHO, -1, 1)] * 2, TAU, "U", 9, "folding d(-1,1@rho), partial sum of 10 terms"),
        ([seg(RHO, -2, 2)], SIGMA, "U", 17, "folding d(-2,2@rho), partial sum of 18 terms"),
        ([seg(RHO, -2, 2)], SIGMA, "U", 18, 18),
        ([seg(RHO, -2, 2)], SIGMA, "GU", 18, "folding d(-2,2@rho), partial sum of 19 terms"),
    ]

    @pytest.mark.parametrize("segments, sigma, mode, cap, expected", CAP_ROWS)
    def test_small_caps_give_the_fold_outcome(self, monkeypatch, segments, sigma, mode,
                                              cap, expected):
        monkeypatch.setenv("JACQUET_MAX_TERMS", str(cap))
        g = GUClass(segments, sigma)
        if isinstance(expected, int):
            assert len(mu_star(g, GroupMode[mode])) == expected
            return
        with pytest.raises(TermLimitError) as err:
            mu_star(g, GroupMode[mode])
        assert str(err.value) == (
            f"mu_star: {expected} exceeds JACQUET_MAX_TERMS ({cap} terms)")

    def test_term_cap_names_twisted_rtimes(self, monkeypatch):
        m = mstar_big(GLMonomial([seg(RHO, 0, 2), seg(RHO, 1, 3)]))
        t = FormalSum.of(TensorTerm((GLMonomial(), GUClass([], SIGMA))))
        monkeypatch.setenv("JACQUET_MAX_TERMS", "20")
        with pytest.raises(TermLimitError) as err:
            twisted_rtimes(m, t, GroupMode.GU)
        assert str(err.value).startswith("twisted_rtimes: partial sum of 21 terms")

    def test_malformed_cap_is_an_error(self, monkeypatch):
        monkeypatch.setenv("JACQUET_MAX_TERMS", "abc")
        with pytest.raises(JacquetError) as err:
            mu_star(GUClass([seg(RHO, 0, 1)], SIGMA))
        assert "JACQUET_MAX_TERMS" in str(err.value) and "'abc'" in str(err.value)


class TestConcurrency:
    def test_engine_is_threadsafe(self):
        # concurrent mu_star calls share the per-segment comultiplication
        # cache; results must agree with the serial computation
        from concurrent.futures import ThreadPoolExecutor

        labels, sigma = make_mixed_labels()
        rng = random.Random(5)
        inputs = [random_segments(rng, labels) for _ in range(24)]
        serial = [mu_star_of_segments(s, sigma) for s in inputs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(
                lambda s: mu_star_of_segments(s, sigma), inputs
            ))
        assert serial == parallel

    def test_registry_concurrent_declares(self):
        from concurrent.futures import ThreadPoolExecutor

        from jacquet import LabelRegistry

        reg = LabelRegistry()
        with ThreadPoolExecutor(max_workers=8) as pool:
            labels = list(pool.map(
                lambda i: reg.declare_gl(f"rho{i % 5}"), range(200)
            ))
        assert len({l.name for l in labels}) == 5


def _rank_part(mu: FormalSum, rank: int) -> FormalSum:
    """The terms of ``mu`` whose GL factor has rank ``rank``, each as ``mu``
    shows it."""
    return FormalSum._from_terms({t: c for t, c in mu.items() if t.factors[0].rank == rank})


class TestMuStarByRank:
    """``mu_star(g, mode, k)`` against the rank-k part of the whole fold."""

    def test_matches_rank_part_random(self):
        for g, _ in _random_cases():
            for mode in GroupMode:
                mu = mu_star(g, mode)
                for k in range(g.gl_rank + 1):
                    part = mu_star(g, mode, k)
                    assert _same_output(part, _rank_part(mu, k)), (g, mode, k)
                    if k:
                        assert _same_output(part, jacquet_by_shape(g, (k,), mode)), \
                            (g, mode, k)

    @pytest.mark.slow
    def test_matches_rank_part_in_every_order(self):
        # The 3,082-term chi class, where terms whose twists differ only in
        # nu merge: each order and rank pins the nu a merged twist shows.
        (_, _, chi), sigma = make_mixed_labels()
        chid = chi.dual()
        segments = [seg(chid, -1, 1), seg(chi, -1, 1), seg(chid, 0, 1), seg(chi, -1, 0)]
        gl_rank = sum(s.rank for s in segments)
        for order in itertools.permutations(segments):
            for mode in GroupMode:
                mu = mu_star_of_segments(order, sigma, mode=mode)
                for k in range(gl_rank + 1):
                    part = mu_star_of_segments(order, sigma, mode=mode, rank=k)
                    assert _same_output(part, _rank_part(mu, k)), (order, mode, k)

    def test_rank_of_a_bare_anchor(self):
        g = GUClass([], SIGMA)
        assert mu_star(g, GroupMode.GU, 0) == mu_star(g)
        assert mu_star_of_segments([], SIGMA, rank=0) == mu_star(g)

    def test_empty_segments_fold_as_the_unit(self):
        # Segment.empty(RHO, 1) is d(1,0@rho); GUClass drops it as the unit.
        d = seg(RHO, 0, 1)
        for segments in ([Segment.empty(RHO, 1), d],
                         [d, Segment.empty(CHI), Segment.empty(RHO)],
                         [Segment.empty(RHO)]):
            g = GUClass(segments, SIGMA)
            for mode in GroupMode:
                for k in (None, *range(g.gl_rank + 1)):
                    assert _same_output(mu_star_of_segments(segments, SIGMA, mode=mode, rank=k),
                                        mu_star(g, mode, k)), (segments, mode, k)

    def test_bad_ranks_are_typed_errors(self):
        g = GUClass([seg(RHO, 0, 1), seg(CHI, 1, 2)], SIGMA)
        calls = {
            "mu_star": lambda rank: mu_star(g, GroupMode.GU, rank),
            "mu_star_of_segments":
                lambda rank: mu_star_of_segments(g.segments, SIGMA, TRIVIAL_TWIST,
                                                 GroupMode.GU, rank),
        }
        for name, call in calls.items():
            for junk in ("x", 1.5, True, False, [], object(), {"a": 1}, ["x"], (1.5,)):
                with pytest.raises(KindMismatchError, match=name):
                    call(junk)
            for out_of_range in (-1, 5, 10**6):
                with pytest.raises(InvalidParamsError, match=name):
                    call(out_of_range)
            assert call(4) == _rank_part(mu_star(g), 4)


def _compositions(n):
    """Every ordered tuple of positive ints summing to n."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        out, run = [], 1
        for cut in cuts:
            if cut:
                out.append(run)
                run = 0
            run += 1
        yield tuple(out + [run])


def _iterated_cases():
    """(class, n1, n2) for the two-block consistency check: 12 random
    classes of GL rank at least 2, with n1 + n2 at most that rank."""
    labels, sigma = make_mixed_labels()
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        segments = random_segments(rng, labels, max_segments=2, max_length=3)
        glrank = sum(s.rank for s in segments)
        if glrank < 2:
            continue
        n1 = rng.randrange(1, glrank)
        n2 = rng.randrange(1, glrank - n1 + 1)
        yield GUClass(segments, sigma), n1, n2
        checked += 1


def _random_cases():
    """(class, sorted shapes) for the randomized oracles: 25 random classes
    of up to three segments, each with (), its full rank, 1^n up to n = 6,
    every composition up to rank 5, and one random composition of each
    smaller total up to 5."""
    labels, sigma = make_mixed_labels()
    rng = random.Random(31)
    for _ in range(25):
        g = GUClass(random_segments(rng, labels, max_segments=3, max_length=3),
                    sigma)
        n = g.gl_rank
        shapes = {(), (n,) if n else ()}
        if n <= 6:  # 1^n of three overlapping rho segments runs to 1^9
            shapes.add((1,) * n)
        if 0 < n <= 5:
            shapes.update(_compositions(n))
        for total in range(1, min(n - 1, 5) + 1):
            shapes.add(rng.choice(list(_compositions(total))))
        yield g, sorted(shapes)


class TestJacquetByShape:
    def test_trivial_shape(self):
        g = GUClass([seg(RHO, 1, 2)], SIGMA)
        out = jacquet_by_shape(g, ())
        assert out == FormalSum.of(TensorTerm((g,)))

    def test_ordered_block_multiplicity(self):
        g = GUClass([seg(RHO, 1, 1), seg(RHO, 2, 2)], SIGMA)
        out = jacquet_by_shape(g, (1, 1))
        target = TensorTerm((
            mono(seg(RHO, 1, 1)), mono(seg(RHO, 2, 2)), GUClass([], SIGMA),
        ))
        assert out.coefficient(target) == 1
        # the reversed order is a different term, also present once
        swapped = TensorTerm((
            mono(seg(RHO, 2, 2)), mono(seg(RHO, 1, 1)), GUClass([], SIGMA),
        ))
        assert out.coefficient(swapped) == 1

    def test_full_gl_shape_of_point_segment(self):
        g = GUClass([seg(RHO, 1, 1)], SIGMA)
        out = jacquet_by_shape(g, (1,))
        assert len(out) == 2  # the two full-rank terms, one twisted
        assert out.coefficient(
            TensorTerm((mono(seg(RHO, 1, 1)), GUClass([], SIGMA)))
        ) == 1
        assert out.coefficient(
            TensorTerm((mono(seg(RHO, -1, -1)), GUClass([], SIGMA, _omega_rho())))
        ) == 1

    def test_shape_overflow(self):
        g = GUClass([seg(RHO, 1, 1)], SIGMA)
        for shape in ((2,), (1, 0), (-1, 3)):
            with pytest.raises(ShapeError):
                jacquet_by_shape(g, shape)
        g = GUClass([seg(RHO, 1, 3)], SIGMA)
        for shape in ((1.5,), (2.9, 1), "12", "1,2", (True,), 2, None):
            with pytest.raises(ShapeError):
                jacquet_by_shape(g, shape)

    def test_rejects_wrong_kinds(self):
        s = seg(RHO, 1, 1)
        anchored = FormalSum.of(TensorTerm((GLMonomial(), GUClass([s], SIGMA))))
        for x in (mono(s), s, anchored):
            with pytest.raises(KindMismatchError):
                jacquet_by_shape(x, (1,))

    def test_ordered_blocks_with_wider_label(self):
        tau = CuspidalGLLabel("tau", dim=2)
        g = GUClass([seg(tau, 1, 1), seg(tau, 2, 2)], SIGMA)
        out = jacquet_by_shape(g, (2, 2))
        target = TensorTerm((
            mono(seg(tau, 1, 1)), mono(seg(tau, 2, 2)), GUClass([], SIGMA),
        ))
        assert out.coefficient(target) == 1

    def test_iterated_consistency(self):
        for g, n1, n2 in _iterated_cases():
            full = jacquet_by_shape(g, (n1, n2))
            two_step = {}
            for t, m in jacquet_by_shape(g, (n1,)).items():
                x1, inner = t.factors
                for t2, m2 in jacquet_by_shape(inner, (n2,)).items():
                    x2, rest = t2.factors
                    key = TensorTerm((x1, x2, rest))
                    two_step[key] = two_step.get(key, 0) + m * m2
            assert dict(full.items()) == two_step

    def test_term_cap_fails_fast(self, monkeypatch):
        # mu* has at most 10**3 terms here, the module along 1^9 313,440.
        monkeypatch.setenv("JACQUET_MAX_TERMS", "2000")
        g = GUClass([seg(RHO, 0, 2), seg(RHO, 1, 3), seg(RHO, 2, 4)], SIGMA)
        with pytest.raises(TermLimitError) as err:
            jacquet_by_shape(g, (1,) * 9)
        found = re.match(r"jacquet_by_shape: partial module of (\d+) terms",
                         str(err.value))
        assert found and 2000 < int(found.group(1)) < 10_000

    def test_term_cap_stops_a_split(self, monkeypatch):
        # mu* has 3^8 = 6,561 terms; one rank-8 term of eight distinct
        # points alone splits into 8! = 40,320 terms along 1^8.
        monkeypatch.setenv("JACQUET_MAX_TERMS", "7000")
        g = GUClass([seg(RHO, 2 * i, 2 * i) for i in range(8)], SIGMA)
        with pytest.raises(TermLimitError) as err:
            jacquet_by_shape(g, (1,) * 8)
        assert str(err.value).startswith(
            "jacquet_by_shape: partial module of 7001 terms exceeds "
            "JACQUET_MAX_TERMS (7000 terms)")

    def test_term_cap_counts_only_the_rank_slice(self, monkeypatch):
        # The whole mu* of pattern A has 216 terms and stops at 61; the
        # module along (6,) folds only its 27 terms of GL rank 6.
        g = GUClass([seg(RHO, 0, 1), seg(RHO, 1, 2), seg(RHO, 2, 3)], SIGMA)
        monkeypatch.setenv("JACQUET_MAX_TERMS", "60")
        assert len(jacquet_by_shape(g, (6,))) == 27
        with pytest.raises(TermLimitError, match="partial sum of 61 terms"):
            mu_star(g)
        monkeypatch.setenv("JACQUET_MAX_TERMS", "5")
        with pytest.raises(TermLimitError) as err:
            jacquet_by_shape(g, (6,))
        assert str(err.value).startswith("mu_star: folding d(1,2@rho), partial sum of 6 terms")

    @pytest.mark.slow
    def test_matches_unpruned_oracle_random(self):
        for g, shapes in _random_cases():
            for mode in GroupMode:
                for shape in shapes:
                    assert _same_output(jacquet_by_shape(g, shape, mode),
                                        unpruned_jacquet_by_shape(g, shape, mode)), \
                        (g, shape, mode)

    @staticmethod
    def _check_patterns(patterns: dict):
        for name, (segments, shapes) in patterns.items():
            g = GUClass(segments, SIGMA)
            for mode in GroupMode:
                for shape in shapes:
                    assert _same_output(jacquet_by_shape(g, shape, mode),
                                        unpruned_jacquet_by_shape(g, shape, mode)), \
                        (name, shape, mode)

    @pytest.mark.slow
    def test_matches_unpruned_oracle_workload_patterns(self):
        tau = CuspidalGLLabel("tau", dim=2)
        self._check_patterns({
            "A": ([seg(RHO, 0, 1), seg(RHO, 1, 2), seg(RHO, 2, 3)],
                  [(6,), (3, 3), (1,) * 6, (2, 2, 2)]),
            "B": ([seg(RHO, 0, 2), seg(RHO, 1, 3)], [(2, 1), (1,) * 6, (3, 3)]),
            "C": ([seg(RHO, 0, 1), seg(tau, 1, 2)], [(2, 2, 2), (2, 4)]),
            "D": ([seg(RHO, 0, 3), seg(RHO, 1, 4)], [(2, 1), (8,), (4, 4)]),
        })

    def test_matches_unpruned_oracle_repeated_segments(self):
        # Coincident segments give coincident cut pairs that must be counted;
        # chi is not self-dual and starts at half-integers.
        self._check_patterns({
            "d(0,1)^2": ([seg(RHO, 0, 1)] * 2, [(1,) * 4, (2, 2)]),
            "d(0,2)^2 d(1,1)": ([seg(RHO, 0, 2)] * 2 + [seg(RHO, 1, 1)], [(1,) * 5]),
            "chi": ([seg(CHI, h(1), h(3)), seg(CHI, h(-1), h(3)), seg(CHI, h(1), h(1))],
                    [(1,) * 4, (2, 2), (3, 1), (1, 2, 2), (5,)]),
        })

    @staticmethod
    def _shuffle_count(g: GUClass, n: int, mode: GroupMode) -> int:
        """Sum of c * n! / prod(L_i!) over the mu* terms c * (gl (x) anchor)
        whose GL factor has rank n: cutting a product of rho segments into
        1^n gives every shuffle of the segments' exponent strings."""
        total = 0
        for term, c in mu_star(g, mode).items():
            gl = term.factors[0]
            if gl.rank == n:
                ways = math.factorial(n)
                for s in gl.segments:
                    ways //= math.factorial(s.length)
                total += c * ways
        return total

    def test_ones_shape_counts_shuffles(self):
        g = GUClass([seg(RHO, 0, 1), seg(RHO, 1, 2), seg(RHO, 2, 3)], SIGMA)
        for mode in GroupMode:
            for n, expected in ((4, 864), (6, 5_760)):
                out = jacquet_by_shape(g, (1,) * n, mode)
                assert out.total_multiplicity() == self._shuffle_count(g, n, mode) \
                    == expected, (n, mode)

    @pytest.mark.slow
    def test_ones_shape_counts_shuffles_rank_nine(self):
        g = GUClass([seg(RHO, 0, 2), seg(RHO, 1, 3), seg(RHO, 2, 4)], SIGMA)
        out = jacquet_by_shape(g, (1,) * 9)
        assert out.total_multiplicity() == self._shuffle_count(g, 9, GroupMode.GU)

    def test_multiplicity_lookup(self):
        g = GUClass([seg(RHO, 1, 1)], SIGMA)
        out = mu_star(g)
        absent = TensorTerm((mono(seg(RHO, 5, 5)), GUClass([], SIGMA)))
        assert out.coefficient(absent) == 0
        # recanonicalized target matches
        target = TensorTerm((
            GLMonomial([Segment.empty(RHO), seg(RHO, 1, 1)]),
            GUClass([], SIGMA, TRIVIAL_TWIST),
        ))
        assert out.coefficient(target) == 1


class TestModuleSize:
    """Total multiplicities against the generating function of
    ``helpers.predicted_module_size``."""

    def test_random_shapes(self):
        for g, shapes in _random_cases():
            for shape in shapes:
                want = predicted_module_size(g, shape)
                for mode in GroupMode:
                    assert jacquet_by_shape(g, shape, mode).total_multiplicity() \
                        == want, (g, shape, mode)
        for g, n1, n2 in _iterated_cases():
            for shape in ((n1, n2), (n1,)):
                assert jacquet_by_shape(g, shape).total_multiplicity() \
                    == predicted_module_size(g, shape), (g, shape)

    def test_mu_star_slices(self):
        for g, _ in _random_cases():
            entries = math.prod((s.length + 1) * (s.length + 2) // 2 for s in g.segments)
            slices = [predicted_module_size(g, (r,) if r else ())
                      for r in range(g.gl_rank + 1)]
            assert sum(slices) == entries
            for mode in GroupMode:
                mu = mu_star(g, mode)
                assert mu.total_multiplicity() == entries
                for r, want in enumerate(slices):
                    assert sum(c for t, c in mu.items() if t.factors[0].rank == r) \
                        == want, (g, r, mode)


def _absent_targets(g: GUClass, shape: tuple, term: TensorTerm) -> list:
    """Targets built from a term of the module of ``g`` along ``shape``
    that the module may not hold: its anchor twisted, with a segment
    added, or over another label; its first block made of a foreign
    segment or one rank too big; one factor too few or too many; its
    factors as GL monomials only; and no term at all."""
    *blocks, anchor = term.factors
    zeta = CuspidalGLLabel("zeta")
    rho = g.segments[0].rho if g.segments else RHO
    twist = TwistTag(((rho.name, 1, HalfInt(1)),))
    out = [
        TensorTerm((*blocks, GUClass(anchor.segments, anchor.sigma,
                                     anchor.twist.merge(twist)))),
        TensorTerm((*blocks, GUClass(anchor.segments + (seg(rho, 0, 0),),
                                     anchor.sigma, anchor.twist))),
        TensorTerm((*blocks, GUClass(anchor.segments, GUCuspidalLabel("other"),
                                     anchor.twist))),
        TensorTerm(tuple(blocks)),
        TensorTerm((*blocks, mono(seg(rho, 0, 0)), anchor)),
        TensorTerm(tuple(GLMonomial(f.segments) for f in term.factors)),
        None,
    ]
    if blocks:
        foreign = mono(seg(zeta, 0, shape[0] - 1))
        bigger = GLMonomial(blocks[0].segments + (seg(rho, 9, 9),))
        out += [TensorTerm((foreign, *blocks[1:], anchor)),
                TensorTerm((bigger, *blocks[1:], anchor))]
    return out


def _sp_anchor(a: str) -> GUCuspidalLabel:
    return GUCuspidalLabel("sigma", reducibility={RHO: HalfInt(a)}, twist_fixed={RHO})


class TestCoefficient:
    """``_coefficient`` against ``jacquet_by_shape(...).coefficient``."""

    def test_matches_module_random(self):
        rng = random.Random(7)
        for g, shapes in _random_cases():
            for mode in GroupMode:
                for shape in shapes:
                    module = jacquet_by_shape(g, shape, mode)
                    terms = sorted(module.terms(), key=lambda t: t.key)
                    targets = rng.sample(terms, min(len(terms), 40))
                    base = rng.choice(terms) if terms else TensorTerm(
                        tuple(mono(seg(RHO, 0, k - 1)) for k in shape)
                        + (GUClass([], g.sigma),))
                    targets += [base, *_absent_targets(g, shape, base)]
                    for target in targets:
                        assert _coefficient(g, shape, target, mode) \
                            == module.coefficient(target), (g, shape, mode, target)

    def test_matches_module_workload_patterns(self):
        tau = CuspidalGLLabel("tau", dim=2)
        patterns = {
            "B": ([seg(RHO, 0, 2), seg(RHO, 1, 3)], [(1, 1), (2, 1)]),
            "C": ([seg(RHO, 0, 1), seg(tau, 1, 2)], [(1, 2, 2), (2, 2, 2)]),
            "D": ([seg(RHO, 0, 3), seg(RHO, 1, 4)], [(4, 4), (1, 1, 1, 1)]),
            # A top made of pieces of the block, of the block's rank, that is
            # not the block: d(1,1) x d(1,1) where d(1,1) x d(2,2) is wanted.
            "points": ([seg(RHO, 1, 1)] * 3 + [seg(RHO, 2, 2)] * 3, [(2, 2, 2)]),
        }
        for name, (segments, shapes) in patterns.items():
            g = GUClass(segments, SIGMA)
            for mode in GroupMode:
                for shape in shapes:
                    module = jacquet_by_shape(g, shape, mode)
                    for target in module.terms():
                        assert _coefficient(g, shape, target, mode) \
                            == module.coefficient(target), (name, shape, mode, target)

    def test_matches_module_of_twisted_classes(self):
        labels, sigma = make_mixed_labels()
        twist = TwistTag((("tau", 1, HalfInt(1)), ("chi", -2, HalfInt(0))))
        for segments in ([seg(labels[0], 0, 1), seg(labels[2], h(1), h(3))],
                         [seg(labels[1], 1, 2), seg(labels[0], -1, 0)]):
            g = GUClass(segments, sigma, twist)
            for mode in GroupMode:
                for shape in ((g.gl_rank,), (1, g.gl_rank - 1)):
                    module = jacquet_by_shape(g, shape, mode)
                    for target in module.terms():
                        assert _coefficient(g, shape, target, mode) \
                            == module.coefficient(target), (g, shape, mode, target)

    @staticmethod
    def _check_sp(entries, mode):
        """Each entry's leading multiplicity is the module's coefficient,
        and so are those of a few other terms of the same module."""
        rng = random.Random(11)
        for e in entries:
            rep = e.inducing
            shape = tuple(s.rank for s in rep.segments)
            module = jacquet_by_shape(rep, shape, mode)
            leading = TensorTerm(tuple(mono(s) for s in rep.segments)
                                 + (GUClass((), rep.sigma),))
            assert e.leading_multiplicity == module.coefficient(leading) == 1, e
            terms = sorted(module.terms(), key=lambda t: t.key)
            for target in rng.sample(terms, min(len(terms), 3)):
                assert _coefficient(rep, shape, target, mode) \
                    == module.coefficient(target), (e, target)

    @pytest.mark.parametrize("a", ["1/2", "1", "3/2", "2"])
    def test_enumerate_sp_data_up_to_seven(self, a):
        for mode in GroupMode:
            entries = enumerate_sp([RHO], _sp_anchor(a), 7, mode)
            assert len(entries) == (8 if a in ("1/2", "1") else 28)
            self._check_sp(entries, mode)

    def test_two_label_data_up_to_three(self):
        rho2 = CuspidalGLLabel("rho2")
        sigma = GUCuspidalLabel("sigma", reducibility={RHO: HalfInt(2), rho2: h(3)},
                                twist_fixed={RHO, rho2})
        for mode in GroupMode:
            entries = enumerate_sp([RHO, rho2], sigma, 3, mode)
            assert len(entries) == 36
            self._check_sp(entries, mode)

    def test_leading_term_of_the_heavy_datum(self):
        # Its module along (2,3,3,3) holds 1,030,128 terms with multiplicity,
        # and the engine took 8 s to build it before reading a coefficient.
        rho2 = CuspidalGLLabel("rho2")
        g = GUClass([seg(RHO, 1, 2), seg(RHO, 2, 4), seg(rho2, h(1), h(5)),
                     seg(rho2, h(3), h(7))], _sp_anchor("2"))
        assert predicted_module_size(g, (2, 3, 3, 3)) == 1_030_128
        for mode in GroupMode:
            assert _leading_multiplicity(g, mode) == 1

    def test_trivial_shape(self):
        g = GUClass([seg(RHO, 1, 2)], SIGMA)
        assert _coefficient(g, (), TensorTerm((g,))) == 1
        assert _coefficient(g, [], TensorTerm((GUClass([], SIGMA),))) == 0
        bare = GUClass([], SIGMA)
        assert _coefficient(bare, (), TensorTerm((bare,))) == 1

    def test_checks_are_those_of_jacquet_by_shape(self):
        g = GUClass([seg(RHO, 1, 3)], SIGMA)
        target = TensorTerm((mono(seg(RHO, 1, 3)), GUClass([], SIGMA)))
        for shape in ((4,), (0,), (1.5,), "12", (True,), 2, None):
            with pytest.raises(ShapeError) as want:
                jacquet_by_shape(g, shape)
            with pytest.raises(ShapeError) as got:
                _coefficient(g, shape, target)
            assert str(got.value) == str(want.value)
        with pytest.raises(KindMismatchError):
            _coefficient(mono(seg(RHO, 1, 3)), (3,), target)
        with pytest.raises(JacquetError):
            _coefficient(g, (3,), target, "GL")

    def test_term_cap_names_the_coefficient_layer(self, monkeypatch):
        g = GUClass([seg(RHO, 0, 1), seg(RHO, 1, 2), seg(RHO, 2, 3)], SIGMA)
        target = TensorTerm(tuple(mono(s) for s in g.segments) + (GUClass([], SIGMA),))
        # mu* exceeds 10 terms at its second step; the pruned fold keeps
        # at most 2 entries per segment and stays within the cap.
        monkeypatch.setenv("JACQUET_MAX_TERMS", "10")
        with pytest.raises(TermLimitError):
            jacquet_by_shape(g, (2, 2, 2))
        assert _coefficient(g, (2, 2, 2), target) == 1
        monkeypatch.setenv("JACQUET_MAX_TERMS", "1")
        with pytest.raises(TermLimitError) as err:
            _coefficient(g, (2, 2, 2), target)
        assert str(err.value).startswith("coefficient: folding d(0,1@rho), partial sum of")

    @pytest.mark.parametrize("cap", range(1, 8))
    def test_coefficient_follows_one_cut_under_any_cap(self, cap, monkeypatch):
        # Repeated segments give many cuts with the target's ids in some
        # block; only the cut into exactly the target's blocks is counted,
        # so no cap of at least 1 stops the query.
        sigma = GUCuspidalLabel("sigma", rank=1)
        a, b = seg(RHO, 1, 1), seg(RHO, 2, 2)
        g = GUClass([a] * 3 + [b] * 3, sigma)
        target = TensorTerm((mono(a, b),) * 3 + (GUClass([], sigma),))
        monkeypatch.setenv("JACQUET_MAX_TERMS", str(cap))
        assert _coefficient(g, (2, 2, 2), target) == 36


def _cyclic_garbage(call) -> int:
    """The number of objects that ``call()`` leaves unreachable and only
    the cyclic collector can free; a ``TermLimitError`` it raises is
    dropped."""
    gc.collect()
    gc.disable()
    try:
        try:
            call()
        except TermLimitError:
            pass
        return gc.collect()
    finally:
        gc.enable()


class TestCollectorPause:
    """The engine pauses the cyclic garbage collector while it builds a
    result, which is safe because its objects form no cycle."""

    A = [seg(RHO, 0, 1), seg(RHO, 1, 2), seg(RHO, 2, 3)]

    def calls(self) -> dict:
        g = GUClass(self.A, SIGMA)
        leading = TensorTerm(tuple(mono(s) for s in self.A) + (GUClass([], SIGMA),))
        return {
            "mu_star GU": lambda: mu_star(g),
            "mu_star U": lambda: mu_star(g, GroupMode.U),
            "mu_star GU rank 3": lambda: mu_star(g, GroupMode.GU, 3),
            "mu_star U rank 3": lambda: mu_star(g, GroupMode.U, 3),
            "jacquet_by_shape 1^6": lambda: jacquet_by_shape(g, (1,) * 6),
            "coefficient": lambda: _coefficient(g, (2, 2, 2), leading),
            "mstar_gl": lambda: mstar_gl(GLMonomial(self.A)),
            "mstar_big": lambda: mstar_big(GLMonomial(self.A)),
            "enumerate_sp": lambda: enumerate_sp([RHO], _sp_anchor("2"), 4),
        }

    @pytest.mark.parametrize("name", [
        "mu_star GU", "mu_star U", "mu_star GU rank 3", "mu_star U rank 3",
        "jacquet_by_shape 1^6", "coefficient", "mstar_gl", "mstar_big", "enumerate_sp"])
    def test_a_call_leaves_no_cyclic_garbage(self, name):
        assert _cyclic_garbage(self.calls()[name]) == 0

    @pytest.mark.parametrize("name, cap", [
        ("mu_star GU", 60), ("jacquet_by_shape 1^6", 2000), ("coefficient", 1)])
    def test_a_stopped_call_leaves_no_cyclic_garbage(self, name, cap, monkeypatch):
        call = self.calls()[name]
        monkeypatch.setenv("JACQUET_MAX_TERMS", str(cap))
        with pytest.raises(TermLimitError):
            call()
        assert _cyclic_garbage(call) == 0

    def test_paused_during_a_call_and_resumed_after(self, monkeypatch):
        seen = []
        max_terms, split = structure._max_terms, structure._BlockCutter.split

        def spied_max_terms():
            seen.append(("fold", gc.isenabled()))
            return max_terms()

        def spied_split(cutter, *args):
            seen.append(("split", gc.isenabled()))
            return split(cutter, *args)

        # _max_terms is read by _fold, and by _BlockCutter before it builds.
        monkeypatch.setattr(structure, "_max_terms", spied_max_terms)
        monkeypatch.setattr(structure._BlockCutter, "split", spied_split)
        g = GUClass(self.A, SIGMA)
        mu_star(g)
        assert seen == [("fold", False)] and gc.isenabled()
        seen.clear()
        mstar_gl(GLMonomial(self.A))
        assert seen[0] == ("fold", True) and set(seen[1:]) == {("split", False)}
        assert gc.isenabled()
        monkeypatch.setenv("JACQUET_MAX_TERMS", "5")
        for call in (lambda: mu_star(g), lambda: mstar_gl(GLMonomial(self.A))):
            with pytest.raises(TermLimitError):
                call()
            assert gc.isenabled()

    def test_a_callers_disable_stays(self, monkeypatch):
        gc.disable()
        try:
            for call in self.calls().values():
                call()
            monkeypatch.setenv("JACQUET_MAX_TERMS", "5")
            with pytest.raises(TermLimitError):
                mu_star(GUClass(self.A, SIGMA))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_nested_pause_resumes_once(self, monkeypatch):
        # _coefficient folds with _fold inside its own pause, then splits.
        events = []

        def record(event, act):
            def recorded():
                events.append(event)
                act()
            return recorded

        monkeypatch.setattr(structure, "gc", types.SimpleNamespace(
            isenabled=gc.isenabled, disable=record("disable", gc.disable),
            enable=record("enable", gc.enable)))
        split = structure._BlockCutter.split

        def spied_split(cutter, *args):
            events.append(("split", gc.isenabled()))
            return split(cutter, *args)

        monkeypatch.setattr(structure._BlockCutter, "split", spied_split)
        assert self.calls()["coefficient"]() == 1
        assert events[0] == "disable" and events[-1] == "enable"
        assert set(events[1:-1]) == {("split", False)}
        assert gc.isenabled()

    def test_overlapping_calls_in_two_threads(self, monkeypatch):
        # Both folds meet at the barrier, inside the pause; the second
        # waits until the first call has returned, which must leave the
        # collector paused, and the second to leave resumes it.
        barrier, first_left = threading.Barrier(2, timeout=30), threading.Event()
        max_terms = structure._max_terms

        def meet():
            barrier.wait()
            if threading.current_thread() is second:
                assert first_left.wait(30)
            return max_terms()

        monkeypatch.setattr(structure, "_max_terms", meet)
        g = GUClass(self.A, SIGMA)
        seen = []

        def first_call():
            mu_star(g)
            seen.append(gc.isenabled())
            first_left.set()

        first = threading.Thread(target=first_call)
        second = threading.Thread(target=mu_star, args=(g,))
        first.start()
        second.start()
        first.join()
        second.join()
        assert seen == [False] and gc.isenabled()
