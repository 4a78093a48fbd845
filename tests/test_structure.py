"""The comultiplication engine against its defining formulas and oracles."""

import itertools
import json
import math
import random
import re

import pytest

from jacquet import (
    CuspidalGLLabel,
    FormalSum,
    GLMonomial,
    GroupMode,
    GUClass,
    GUCuspidalLabel,
    HalfInt,
    JacquetError,
    KindMismatchError,
    SegmentError,
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
    twisted_rtimes,
)
from jacquet.grothendieck import sum_to_obj
from helpers import (
    direct_single_segment_mu,
    h,
    make_mixed_labels,
    random_segments,
    reference_mu_star_of_segments,
    seg,
    strip_twists,
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

    def test_empty_rejected(self):
        with pytest.raises(SegmentError):
            mstar_gl(Segment.empty(RHO))

    def test_linear_and_multiplicative_on_sums(self):
        s, t = seg(RHO, 0, 1), seg(CHI, 1, 1)
        x, y = FormalSum.of(mono(s)), FormalSum.of(mono(t))
        assert mstar_gl(2 * x - y) == 2 * mstar_gl(s) - mstar_gl(t)
        assert mstar_gl(x * y) == mstar_gl(s) * mstar_gl(t) == mstar_gl(mono(s, t))
        square = mstar_gl(s) * mstar_gl(s)
        assert len(square) == 6 and square == mstar_gl(x * x)
        assert mstar_gl(FormalSum.zero()).is_zero

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

    def test_matches_reference_deep_folds(self):
        for k, length in ((3, 4), (4, 3)):
            segments = _alternating(k, length)
            for mode in GroupMode:
                got = mu_star_of_segments(segments, SIGMA, mode=mode)
                want = reference_mu_star_of_segments(segments, SIGMA, mode=mode)
                assert _same_output(got, want), (k, length, mode)

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
        labels, sigma = make_mixed_labels()
        rng = random.Random(43)
        for _ in range(30):
            segments = random_segments(rng, labels, max_segments=3, max_length=3)
            start = FormalSum.of(TensorTerm((GLMonomial(), GUClass((), sigma))))
            for mode in GroupMode:
                assert twisted_rtimes(mstar_big(GLMonomial(segments)), start, mode) == \
                    mu_star_of_segments(segments, sigma, mode=mode), (segments, mode)

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
            g = GUClass(segments, sigma)
            full = jacquet_by_shape(g, (n1, n2))
            two_step = {}
            for t, m in jacquet_by_shape(g, (n1,)).items():
                x1, inner = t.factors
                for t2, m2 in jacquet_by_shape(inner, (n2,)).items():
                    x2, rest = t2.factors
                    key = TensorTerm((x1, x2, rest))
                    two_step[key] = two_step.get(key, 0) + m * m2
            assert dict(full.items()) == two_step
            checked += 1

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

    def test_matches_unpruned_oracle_random(self):
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
            for mode in GroupMode:
                for shape in sorted(shapes):
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
