"""Classification data: enumeration, validation, inducing classes, diagnostics."""

import itertools

import pytest

from jacquet import (
    CuspidalGLLabel,
    GroupMode,
    GUClass,
    GUCuspidalLabel,
    HalfInt,
    InvalidDatumError,
    JordSequence,
    KindMismatchError,
    LJDatum,
    Segment,
    TwistFixednessWarning,
    UndeclaredReducibilityError,
    build_inducing_rep,
    check_inducing_constraints,
    enumerate_jord,
    enumerate_sp,
    leading_term_multiplicity,
    lj_from_obj,
    lj_to_obj,
    SPConditions,
    validate_lj,
)
from jacquet import spclassifier
from helpers import h, seg

RHO = CuspidalGLLabel("rho")
RHO2 = CuspidalGLLabel("rho2")
CHI = CuspidalGLLabel("chi", conj_self_dual=False)

SIGMA = GUCuspidalLabel(
    "sigma",
    rank=0,
    reducibility={RHO: HalfInt(2), RHO2: h(1), CHI: HalfInt(1)},
    twist_fixed={RHO, RHO2},
)


def brute_force_sequences(a, max_b, lo=-3):
    """Independent filter over a coarse half-integer grid."""
    a = HalfInt(a)
    max_b = HalfInt(max_b)
    k = a.ceil()
    grid = [HalfInt.from_twice(t) for t in range(2 * lo, max_b.twice + 1)]
    out = []
    for combo in itertools.combinations(grid, k):
        if any(not (b - a).is_integer() for b in combo):
            continue
        if combo and not combo[0] > -1:
            continue
        if any(x >= y for x, y in zip(combo, combo[1:])):
            continue
        out.append(combo)
    return out


class TestEnumerateJord:
    def test_integer_point_count(self):
        seqs = enumerate_jord(RHO, HalfInt(2), HalfInt(3))
        got = [tuple(s.b) for s in seqs]
        expected = [
            (HalfInt(0), HalfInt(1)), (HalfInt(0), HalfInt(2)),
            (HalfInt(0), HalfInt(3)), (HalfInt(1), HalfInt(2)),
            (HalfInt(1), HalfInt(3)), (HalfInt(2), HalfInt(3)),
        ]
        assert got == expected

    def test_half_point_count(self):
        seqs = enumerate_jord(RHO, h(1), h(5))
        assert [tuple(s.b) for s in seqs] == [
            (h(-1),), (h(1),), (h(3),), (h(5),),
        ]

    def test_zero_point(self):
        seqs = enumerate_jord(RHO, HalfInt(0), HalfInt(5))
        assert len(seqs) == 1 and seqs[0].b == ()

    @pytest.mark.parametrize("a,max_b", [("2", "3"), ("1/2", "5/2"),
                                         ("3/2", "7/2"), ("1", "4")])
    def test_against_brute_force(self, a, max_b):
        got = [tuple(s.b) for s in enumerate_jord(RHO, HalfInt(a), HalfInt(max_b))]
        assert got == brute_force_sequences(a, max_b)

    def test_strict_excludes_empty_encodings(self):
        permissive = enumerate_jord(RHO, HalfInt(2), HalfInt(3))
        strict = enumerate_jord(RHO, HalfInt(2), HalfInt(3), strict=True)
        # strict drops exactly the b_1 = 0 sequences (empty first segment)
        assert [tuple(s.b) for s in strict] == [
            (HalfInt(1), HalfInt(2)), (HalfInt(1), HalfInt(3)),
            (HalfInt(2), HalfInt(3)),
        ]
        assert set(map(lambda s: tuple(s.b), strict)) < set(
            map(lambda s: tuple(s.b), permissive)
        )


class TestBuildInducingRep:
    def test_two_point_example(self):
        datum = LJDatum(
            (JordSequence(RHO, HalfInt(2), (HalfInt(1), HalfInt(2))),), SIGMA
        )
        rep = build_inducing_rep(datum)
        assert rep == GUClass([seg(RHO, 1, 1), seg(RHO, 2, 2)], SIGMA)

    def test_empty_first_segment_dropped(self):
        datum = LJDatum(
            (JordSequence(RHO, HalfInt(2), (HalfInt(0), HalfInt(3))),), SIGMA
        )
        rep = build_inducing_rep(datum)
        assert rep == GUClass([seg(RHO, 2, 3)], SIGMA)

    def test_empty_datum(self):
        rep = build_inducing_rep(LJDatum((), SIGMA))
        assert rep == GUClass([], SIGMA)

    def test_invalid_rejected(self):
        datum = LJDatum(
            (JordSequence(RHO, HalfInt(2), (HalfInt(2), HalfInt(1))),), SIGMA
        )
        with pytest.raises(InvalidDatumError):
            build_inducing_rep(datum)

    def test_twist_fixedness_warning(self):
        loose = GUCuspidalLabel("sigma_loose", reducibility={RHO: HalfInt(1)})
        datum = LJDatum((JordSequence(RHO, HalfInt(1), (HalfInt(2),)),), loose)
        with pytest.warns(TwistFixednessWarning):
            build_inducing_rep(datum)


class TestInducingConstraints:
    def test_valid_ladder(self):
        assert check_inducing_constraints(
            [seg(RHO, 1, 1), seg(RHO, 2, 2)], HalfInt(2)
        )

    def test_ends_must_increase(self):
        assert not check_inducing_constraints(
            [seg(RHO, 1, 3), seg(RHO, 2, 2)], HalfInt(2)
        )

    def test_count_bound(self):
        segs = [seg(RHO, 0, 1), seg(RHO, 1, 2), seg(RHO, 2, 3)]
        assert not check_inducing_constraints(segs, HalfInt(2))

    def test_starts_must_form_ladder(self):
        assert not check_inducing_constraints(
            [seg(RHO, 2, 2), seg(RHO, 2, 3)], HalfInt(2)
        )

    def test_strong_positivity_required(self):
        assert not check_inducing_constraints([seg(RHO, 0, 0)], HalfInt(1))

    def test_empty_is_fine(self):
        assert check_inducing_constraints([], HalfInt(2))


class TestNecessaryConditions:
    def test_good_pair(self):
        report = SPConditions(RHO, SIGMA)
        assert (report.conj_self_dual, report.twist_fixed) == (True, True)
        assert report.sp_possible
        assert report.reducibility == HalfInt(2)

    def test_not_self_dual(self):
        report = SPConditions(CHI, SIGMA)
        assert not report.conj_self_dual
        assert not report.sp_possible

    def test_not_twist_fixed(self):
        sigma = GUCuspidalLabel("s2", reducibility={RHO: HalfInt(1)})
        report = SPConditions(RHO, sigma)
        assert not report.twist_fixed
        assert not report.sp_possible


class TestLeadingTerm:
    def test_two_point_datum(self):
        datum = LJDatum(
            (JordSequence(RHO, HalfInt(2), (HalfInt(1), HalfInt(2))),), SIGMA
        )
        assert leading_term_multiplicity(datum) == 1
        assert leading_term_multiplicity(datum, GroupMode.U) == 1

    def test_empty_datum(self):
        assert leading_term_multiplicity(LJDatum((), SIGMA)) == 1

    def test_invalid_rejected_before_computation(self):
        datum = LJDatum(
            (JordSequence(RHO, HalfInt(2), (HalfInt(2), HalfInt(1))),), SIGMA
        )
        with pytest.raises(InvalidDatumError):
            leading_term_multiplicity(datum)


class TestEnumerateSP:
    def test_single_label_count_and_diagnostics(self):
        entries = enumerate_sp([RHO], SIGMA, HalfInt(3))
        assert len(entries) == 6
        assert all(e.constraints_ok for e in entries)
        assert all(e.leading_multiplicity == 1 for e in entries)

    def test_product_rule_two_labels(self):
        singles = {
            RHO: enumerate_sp([RHO], SIGMA, HalfInt(3)),
            RHO2: enumerate_sp([RHO2], SIGMA, HalfInt(2)),
        }
        both = enumerate_sp([RHO, RHO2], SIGMA, [HalfInt(3), HalfInt(2)])
        assert len(both) == len(singles[RHO]) * len(singles[RHO2])

    def test_per_label_bounds_example(self):
        # reducibility 1/2 with bound 3/2 and reducibility 1 with bound 2
        s = GUCuspidalLabel(
            "s3", reducibility={RHO: h(1), RHO2: HalfInt(1)},
            twist_fixed={RHO, RHO2},
        )
        both = enumerate_sp([RHO, RHO2], s, [h(3), HalfInt(2)])
        ones = enumerate_sp([RHO], s, h(3))
        twos = enumerate_sp([RHO2], s, HalfInt(2))
        assert len(both) == len(ones) * len(twos)

    def test_string_bound(self):
        assert enumerate_sp([RHO2], SIGMA, "5/2") == \
            enumerate_sp([RHO2], SIGMA, h(5))

    def test_default_bound_two_labels(self):
        s = GUCuspidalLabel(
            "s7", reducibility={RHO: h(1), RHO2: h(1)}, twist_fixed={RHO, RHO2},
        )
        entries = enumerate_sp([RHO, RHO2], s)
        assert entries == enumerate_sp([RHO, RHO2], s, HalfInt(5))
        assert len(entries) == 6 * 6

    def test_two_labels_at_max_b_four(self):
        # a = 2 and 3/2 over a rank-0 anchor.  Building each datum's whole
        # Jacquet module ran past JACQUET_MAX_TERMS on one of these data.
        s = GUCuspidalLabel(
            "s4", reducibility={RHO: HalfInt(2), RHO2: h(3)}, twist_fixed={RHO, RHO2},
        )
        entries = enumerate_sp([RHO, RHO2], s, 4)
        assert len(entries) == 100
        assert all(e.leading_multiplicity == 1 for e in entries)

    def test_one_build_per_datum(self, monkeypatch, recwarn):
        validated = []

        def counting_validate(datum, strict=False):
            validated.append(datum)
            return validate_lj(datum, strict)

        monkeypatch.setattr(spclassifier, "validate_lj", counting_validate)
        entries = enumerate_sp([RHO2], SIGMA, h(3))
        assert len(entries) == 3
        assert validated == [e.datum for e in entries]
        assert len(recwarn.list) <= len(entries)
        assert all(w.category is TwistFixednessWarning for w in recwarn.list)

    def test_empty_label_list(self):
        entries = enumerate_sp([], SIGMA, HalfInt(3))
        assert len(entries) == 1
        assert entries[0].inducing == GUClass([], SIGMA)

    def test_zero_reducibility_contributes_nothing(self):
        s = GUCuspidalLabel("s4", reducibility={RHO: HalfInt(0)}, twist_fixed={RHO})
        entries = enumerate_sp([RHO], s, HalfInt(3))
        assert len(entries) == 1
        assert entries[0].datum.jord == ()

    def test_undeclared_reducibility(self):
        s = GUCuspidalLabel("s5", twist_fixed={RHO})
        with pytest.raises(UndeclaredReducibilityError):
            enumerate_sp([RHO], s, HalfInt(3))

    def test_failed_necessary_conditions(self):
        s = GUCuspidalLabel("s6", reducibility={CHI: HalfInt(1)}, twist_fixed={CHI})
        with pytest.raises(InvalidDatumError):
            enumerate_sp([CHI], s, HalfInt(3))

    @pytest.mark.parametrize("max_b", [HalfInt(1), HalfInt(3), "1/2"], ids=["1", "3", "1/2"])
    @pytest.mark.parametrize("labels", [[RHO, RHO], [RHO, RHO2, RHO]],
                             ids=["rho,rho", "rho,rho2,rho"])
    def test_repeated_label_refused_before_any_datum(self, monkeypatch, labels, max_b):
        built = []
        monkeypatch.setattr(spclassifier, "build_inducing_rep",
                            lambda datum, *args, **kwargs: built.append(datum))
        with pytest.raises(InvalidDatumError) as err:
            enumerate_sp(labels, SIGMA, max_b)
        assert str(err.value) == "condition (i) fails: labels are not mutually distinct"
        assert built == []

    def test_injectivity_at_data_level(self):
        entries = enumerate_sp([RHO], SIGMA, HalfInt(4))
        seen = {}
        for e in entries:
            assert e.inducing not in seen, (e.datum, seen[e.inducing])
            seen[e.inducing] = e.datum


class TestSPEntry:
    def test_rejects_wrong_kinds(self):
        entry = enumerate_sp([RHO], SIGMA, HalfInt(3))[0]
        fields = (entry.datum, entry.inducing, entry.constraints_ok,
                  entry.leading_multiplicity)
        assert spclassifier.SPEntry(*fields) == entry
        with pytest.raises(KindMismatchError):
            spclassifier.SPEntry(None, None, None, None)
        for i, bad in enumerate((entry.inducing, entry.datum, 1, True)):
            args = list(fields)
            args[i] = bad
            with pytest.raises(KindMismatchError):
                spclassifier.SPEntry(*args)


def test_jord_sequence_refuses_a_bare_str_b():
    with pytest.raises(KindMismatchError, match="sequence of bounds, got '13'"):
        JordSequence(RHO, 2, "13")
    assert JordSequence(RHO, 2, ("1", "3")).b == (1, 3)


class TestValidateLJ:
    def test_duplicate_label_fails_first_condition(self):
        j = JordSequence(RHO, HalfInt(2), (HalfInt(1), HalfInt(2)))
        report = validate_lj(LJDatum((j, j), SIGMA))
        assert not report.ok
        assert report.first_violation[0] == "i"

    def test_wrong_length_fails_second_condition(self):
        j = JordSequence(RHO, HalfInt(2), (HalfInt(1),))
        report = validate_lj(LJDatum((j,), SIGMA))
        assert report.first_violation[0] == "ii"

    def test_non_monotone_fails_third_condition(self):
        j = JordSequence(RHO, HalfInt(2), (HalfInt(2), HalfInt(1)))
        report = validate_lj(LJDatum((j,), SIGMA))
        assert report.first_violation[0] == "iii"

    def test_integrality_fails_third_condition(self):
        j = JordSequence(RHO, HalfInt(2), (h(1), HalfInt(2)))
        report = validate_lj(LJDatum((j,), SIGMA))
        assert report.first_violation[0] == "iii"

    def test_strict_floor(self):
        j = JordSequence(RHO, HalfInt(2), (HalfInt(0), HalfInt(2)))
        assert validate_lj(LJDatum((j,), SIGMA)).ok
        report = validate_lj(LJDatum((j,), SIGMA), strict=True)
        assert report.first_violation[0] == "iii"

    def test_valid_datum(self):
        j = JordSequence(RHO, HalfInt(2), (HalfInt(1), HalfInt(3)))
        report = validate_lj(LJDatum((j,), SIGMA))
        assert report.ok and report.first_violation is None


TAU = CuspidalGLLabel("tau")
S = GUCuspidalLabel("s", reducibility={RHO: 2, RHO2: 0, CHI: 1})


def _build(rho, a, *b):
    return lambda: build_inducing_rep(LJDatum((JordSequence(rho, a, b),), S))


@pytest.mark.parametrize("call, message", [
    (_build(CHI, 1, 1), "condition (i) fails: label 'chi' is not conjugate self-dual"),
    (_build(TAU, 1, 1), "condition (i) fails: no reducibility declared for 'tau' on 's'"),
    (_build(RHO, 1, 1), "condition (i) fails: datum uses a=1 for 'rho' but 's' declares 2"),
    (_build(RHO2, 0, 1),
     "condition (i) fails: label 'rho2' has reducibility 0 and must be omitted"),
    (_build(RHO, 2, -1, 0), "condition (iii) fails: 'rho': first exponent -1 is not > -1"),
    (lambda: enumerate_sp([RHO], S, ["1", "2"]), "one max_b bound per label is required"),
    (lambda: enumerate_jord(RHO, -1, 3), "reducibility point must be >= 0, got -1"),
])
def test_validation_messages(call, message):
    with pytest.raises(InvalidDatumError) as err:
        call()
    assert str(err.value) == message


DATUM = LJDatum((JordSequence(RHO, HalfInt(2), (HalfInt(1), HalfInt(2))),), SIGMA)

# Each public function that takes ``strict``.  Read for its truth, "no"
# would switch strict mode on.
STRICT_CALLS = {
    "enumerate_jord": lambda strict: enumerate_jord(RHO, 2, 3, strict),
    "validate_lj": lambda strict: validate_lj(DATUM, strict),
    "build_inducing_rep": lambda strict: build_inducing_rep(DATUM, strict),
    "leading_term_multiplicity":
        lambda strict: leading_term_multiplicity(DATUM, GroupMode.GU, strict),
    "enumerate_sp": lambda strict: enumerate_sp([RHO], SIGMA, 3, strict=strict),
}


@pytest.mark.parametrize("name", STRICT_CALLS)
def test_strict_must_be_a_bool(name):
    call = STRICT_CALLS[name]
    with pytest.raises(KindMismatchError, match="strict needs bool, got 'no'"):
        call("no")
    call(True)
    call(False)


class TestPartialCuspidalSupport:
    def test_anchor_survives_full_restriction(self):
        # every term of the fully cuspidal Jacquet module keeps the anchor,
        # up to a twist tag
        from jacquet import jacquet_by_shape

        datum = LJDatum(
            (JordSequence(RHO, HalfInt(2), (HalfInt(1), HalfInt(3))),), SIGMA
        )
        rep = build_inducing_rep(datum)
        shape = (1,) * rep.gl_rank
        for term, _ in jacquet_by_shape(rep, shape).items():
            anchor = term.factors[-1]
            assert anchor.segments == ()
            assert anchor.sigma == SIGMA

    def test_positive_leading_cuspidal_term(self):
        # among all-positive fully cuspidal terms matching the exponent
        # multiset, the canonical one (each segment split top-down, segments
        # in canonical order) occurs exactly once
        from jacquet import (
            GLMonomial,
            TensorTerm,
            TRIVIAL_TWIST,
            jacquet_by_shape,
        )

        datum = LJDatum(
            (JordSequence(RHO, HalfInt(2), (HalfInt(1), HalfInt(3))),), SIGMA
        )
        rep = build_inducing_rep(datum)
        shape = (1,) * rep.gl_rank
        blocks = []
        for s in rep.segments:
            for t in range(s.b.twice, s.a.twice - 1, -2):
                blocks.append(GLMonomial([Segment(s.rho, HalfInt.from_twice(t),
                                                  HalfInt.from_twice(t))]))
        target = TensorTerm(tuple(blocks) + (GUClass([], SIGMA, TRIVIAL_TWIST),))
        out = jacquet_by_shape(rep, shape)
        assert out.coefficient(target) == 1


class TestDatumJSON:
    def test_round_trip(self):
        datum = LJDatum(
            (
                JordSequence(RHO, HalfInt(2), (HalfInt(1), HalfInt(2))),
                JordSequence(RHO2, h(1), (h(3),)),
            ),
            SIGMA,
        )
        obj = lj_to_obj(datum)
        assert obj == {
            "sigma": "sigma",
            "jord": [
                {"rho": "rho", "a": "2", "b": ["1", "2"]},
                {"rho": "rho2", "a": "1/2", "b": ["3/2"]},
            ],
        }
        back = lj_from_obj(obj, lambda n: {"rho": RHO, "rho2": RHO2}[n],
                           lambda n: SIGMA)
        assert back == datum
