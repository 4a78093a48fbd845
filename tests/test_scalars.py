"""Scalars: exact half-integers, twist tags, labels and their registry."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jacquet import (
    CuspidalGLLabel,
    GUCuspidalLabel,
    HalfInt,
    InvalidParamsError,
    JordSequence,
    KindMismatchError,
    LabelConflictError,
    LabelRegistry,
    Segment,
    TRIVIAL_TWIST,
    TwistTag,
    UnknownLabelError,
    enumerate_sp,
)
from helpers import h


class TestHalfInt:
    def test_construction(self):
        assert HalfInt(3).twice == 6
        assert HalfInt("5/2").twice == 5
        assert HalfInt("-1/2").twice == -1
        assert HalfInt("-3").twice == -6
        assert HalfInt.from_twice(7) == HalfInt("7/2")
        # Arabic-Indic three is a decimal digit
        assert HalfInt("\u0663").twice == 6
        assert HalfInt("\u0663/2").twice == 3

    def test_from_twice_rejects_bool(self):
        with pytest.raises(KindMismatchError, match="from_twice needs int, got True"):
            HalfInt.from_twice(True)

    def test_rejects_bool(self):
        rho = CuspidalGLLabel("rho")
        sigma = GUCuspidalLabel("s", 0, {rho: 1})
        calls = [
            lambda: HalfInt(True),
            lambda: Segment(rho, True, 2),
            lambda: JordSequence(rho, True, ["1"]),
            lambda: GUCuspidalLabel("s", 0, {rho: True}),
            lambda: enumerate_sp([rho], sigma, True),
        ]
        for call in calls:
            with pytest.raises(KindMismatchError, match="HalfInt from True"):
                call()
        with pytest.raises(TypeError):
            HalfInt(3) + True
        with pytest.raises(TypeError):
            HalfInt(3) * True
        assert (HalfInt(1) == True) is False  # noqa: E712

    def test_hash_matches_int(self):
        for n in range(-5, 6):
            assert hash(HalfInt(n)) == hash(n)
        assert HalfInt(2) in {2}
        assert {2: "x"}.get(HalfInt(2)) == "x"
        assert {HalfInt(2): "x"}.get(2) == "x"

    def test_rejects_non_halves(self):
        with pytest.raises(ValueError):
            HalfInt("3/4")
        for text in ("\u00b2", "\u00b2/2", "1\u00b2"):
            with pytest.raises(ValueError, match="not a half-integer literal"):
                HalfInt(text)
        with pytest.raises(TypeError):
            HalfInt(1.5)

    @pytest.mark.parametrize("text, twice", [
        (" - - 3 / 2 ", 3), ("--5", 10),
        ("3 2", None), ("/2", None), ("3/02", None), ("3/2/2", None),
        ("\u00bd", None), ("", None),
    ])
    def test_literal_forms(self, text, twice):
        if twice is not None:
            assert HalfInt(text).twice == twice
            return
        with pytest.raises(InvalidParamsError) as err:
            HalfInt(text)
        assert str(err.value) == f"not a half-integer literal: {text!r}"

    def test_int_interop(self):
        assert HalfInt(2) + 1 == HalfInt(3)
        assert 1 - HalfInt("1/2") == HalfInt("1/2")
        assert -HalfInt("1/2") == HalfInt("-1/2")
        assert HalfInt("1/2") * 3 == HalfInt("3/2")
        assert HalfInt(2) == 2
        assert HalfInt("1/2") < 1
        assert HalfInt("5/2") >= 2
        assert 2 > HalfInt("1/2")
        assert 1 >= HalfInt(1)
        with pytest.raises(TypeError):
            HalfInt(1) <= "x"

    def test_is_integer(self):
        assert HalfInt(4).is_integer()
        assert not HalfInt("7/2").is_integer()

    def test_str(self):
        assert str(HalfInt(3)) == "3"
        assert str(HalfInt("5/2")) == "5/2"
        assert str(HalfInt("-1/2")) == "-1/2"
        assert str(HalfInt(0)) == "0"

    def test_ceil_examples(self):
        assert HalfInt("5/2").ceil() == 3
        assert HalfInt(2).ceil() == 2
        assert HalfInt(0).ceil() == 0
        assert HalfInt("-1/2").ceil() == 0
        assert HalfInt("-3/2").ceil() == -1

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_agrees_with_rationals(self, p, q):
        x, y = h(p), h(q)
        fx, fy = Fraction(p, 2), Fraction(q, 2)
        assert Fraction((x + y).twice, 2) == fx + fy
        assert Fraction((x - y).twice, 2) == fx - fy
        assert Fraction((-x).twice, 2) == -fx
        assert (x < y) == (fx < fy)
        assert (x <= y) == (fx <= fy)
        assert (x > y) == (fx > fy)
        assert (x >= y) == (fx >= fy)
        assert (x == y) == (fx == fy)
        assert x.ceil() == -((-fx) // 1)
        assert x.is_integer() == (fx.denominator == 1)


twist_entries = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(-3, 3),
        st.integers(-6, 6).map(h),
    ),
    max_size=4,
).map(lambda entries: TwistTag(tuple(entries)))


raw_entries = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "a~"]),
        st.integers(-3, 3),
        st.one_of(st.integers(-3, 3), st.integers(-6, 6).map(h)),
    ),
    max_size=6,
)


def group_law(entries) -> list:
    """The twist group law written out plainly: exponents and nu sums
    added up per name, zero exponents dropped, names sorted."""
    exps, nus = {}, {}
    for name, exp, nu in entries:
        exps[name] = exps.get(name, 0) + exp
        nus[name] = nus.get(name, 0) + (Fraction(nu.twice, 2) if isinstance(nu, HalfInt)
                                        else Fraction(nu))
    return [(name, exps[name], nus[name]) for name in sorted(exps) if exps[name] != 0]


def law_of(tag: TwistTag) -> list:
    """A tag's entries in the oracle's form, after checking its key."""
    assert tag.key == tuple((name, exp) for name, exp, _ in tag.entries)
    return [(name, exp, Fraction(nu.twice, 2)) for name, exp, nu in tag.entries]


class TestTwistTag:
    def test_inverse_cancels(self):
        t = TwistTag((("rho", 1, h(2)),))
        assert t.merge(t.inverse()) == TRIVIAL_TWIST

    def test_identity(self):
        t = TwistTag((("rho", 1, 0),))
        assert TRIVIAL_TWIST.merge(t) == t
        assert t.merge(TRIVIAL_TWIST) == t

    def test_two_labels(self):
        merged = TwistTag((("rho", 1, 0),)).merge(TwistTag((("rho2", 1, 0),)))
        assert merged.key == (("rho", 1), ("rho2", 1))

    def test_zero_exponents_pruned(self):
        t = TwistTag((("a", 1, h(2)), ("a", -1, h(0))))
        assert t.is_trivial

    def test_nu_is_display_only(self):
        assert TwistTag((("a", 1, h(2)),)) == TwistTag((("a", 1, h(4)),))
        assert hash(TwistTag((("a", 1, h(2)),))) == hash(TwistTag((("a", 1, h(4)),)))

    def test_merge_checks_its_tag(self):
        t = TwistTag((("rho", 1, 0),))
        for tag in (t, TRIVIAL_TWIST):
            for bad in ("x", None, (("rho", 1, 0),)):
                with pytest.raises(KindMismatchError, match="TwistTag.merge needs TwistTag"):
                    tag.merge(bad)

    def test_without_matches_whole_names(self):
        t = TwistTag((("ho", 1, 0), ("rho", 1, 0)))
        assert t.without(["rho"]).key == (("ho", 1),)
        assert t.without({"rho", "ho"}) == TRIVIAL_TWIST
        assert t.without(()) is t
        for bad in ("rho", None, 1, [None]):
            with pytest.raises(KindMismatchError, match="TwistTag.without needs"):
                t.without(bad)
        with pytest.raises(KindMismatchError):
            TRIVIAL_TWIST.without("rho")

    @pytest.mark.parametrize("entry", [("rho", 1.5, 0), ("rho", "2", 0), ("rho", True, 0),
                                       (1, 1, 0)],
                             ids=["float exponent", "str exponent", "bool exponent", "int name"])
    def test_entries_need_a_str_name_and_an_int_exponent(self, entry):
        with pytest.raises(KindMismatchError, match="str name and an int exponent"):
            TwistTag([entry])

    @pytest.mark.parametrize("entries", [5, "abc", [("rho", 1)], None, [None]],
                             ids=["int", "str", "pair", "None", "None entry"])
    def test_entries_must_be_triples(self, entries):
        with pytest.raises(KindMismatchError, match=r"needs \(name, exponent, nu\) triples"):
            TwistTag(entries)

    @given(twist_entries, twist_entries)
    def test_commutative(self, t1, t2):
        assert t1.merge(t2) == t2.merge(t1)

    @given(twist_entries, twist_entries)
    def test_merge_matches_the_constructor(self, t1, t2):
        # merge skips the constructor's checks; the constructor is the
        # reference, nu sums included.
        merged = t1.merge(t2)
        assert merged.entries == TwistTag(t1.entries + t2.entries).entries
        assert merged.key == tuple((n, e) for n, e, _ in merged.entries)

    @given(twist_entries, twist_entries, twist_entries)
    def test_associative(self, t1, t2, t3):
        assert t1.merge(t2).merge(t3) == t1.merge(t2.merge(t3))

    @given(raw_entries, raw_entries, st.sets(st.sampled_from(["a", "b", "c", "a~"])))
    def test_group_law_matches_a_plain_oracle(self, raw1, raw2, names):
        # A tag keeps no nu sum of a dropped name, so the operations are
        # checked against the law applied to the tags' own entries.
        t1, t2 = TwistTag(raw1), TwistTag(raw2)
        assert law_of(t1) == group_law(raw1)
        assert law_of(t1.merge(t2)) == group_law(t1.entries + t2.entries)
        assert law_of(t1.inverse()) == group_law((n, -e, -nu) for n, e, nu in t1.entries)
        assert law_of(t1.without(names)) == group_law(
            e for e in t1.entries if e[0] not in names)

    @given(twist_entries)
    def test_group_inverse(self, t):
        assert t.merge(t.inverse()) == TRIVIAL_TWIST
        assert TRIVIAL_TWIST.merge(t) == t


class TestLabels:
    def test_equality_by_name(self):
        assert CuspidalGLLabel("rho", 1) == CuspidalGLLabel("rho", 1)
        assert CuspidalGLLabel("rho") != CuspidalGLLabel("tau")

    def test_dual_is_involution(self):
        chi = CuspidalGLLabel("chi", dim=2, conj_self_dual=False)
        assert chi.dual().name == "chi~"
        assert chi.dual().dim == 2
        assert chi.dual().dual() == chi
        rho = CuspidalGLLabel("rho")
        assert rho.dual() is rho

    def test_partner_by_marker_parity(self):
        for name, partner in [("chi", "chi~"), ("chi~", "chi"),
                              ("chi~~", "chi~~~"), ("chi~~~", "chi~~")]:
            label = CuspidalGLLabel(name, 2, conj_self_dual=False)
            assert label.dual().name == partner
            assert label.dual().attributes == (2, False)
            assert label.dual().dual() == label

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            CuspidalGLLabel("bad", dim=0)

    def test_gu_reducibility_nonnegative(self):
        rho = CuspidalGLLabel("rho")
        with pytest.raises(ValueError):
            GUCuspidalLabel("sigma", reducibility={rho: h(-1)})


class TestRegistry:
    def test_idempotent_redeclaration(self):
        reg = LabelRegistry()
        a = reg.declare_gl("rho", 1, True)
        b = reg.declare_gl("rho", 1, True)
        assert a is b

    def test_conflicting_redeclaration(self):
        reg = LabelRegistry()
        reg.declare_gl("rho", 1, True)
        with pytest.raises(LabelConflictError):
            reg.declare_gl("rho", 2, True)
        with pytest.raises(LabelConflictError):
            reg.declare_gl("rho", 1, False)

    def test_dual_partner_registered(self):
        reg = LabelRegistry()
        chi = reg.declare_gl("chi", 1, False)
        assert reg.gl("chi~") == chi.dual()

    def test_partner_declared_in_either_order(self):
        for names in (("chi", "chi~"), ("chi~", "chi")):
            reg = LabelRegistry()
            first = reg.declare_gl(names[0], 1, False)
            second = reg.declare_gl(names[1], 1, False)
            assert second is reg.gl(names[1]) == first.dual()
            assert reg.gl("chi").dual() == reg.gl("chi~")
            assert reg.gl("chi~~") == reg.gl("chi")
            assert set(reg._gl) == {"chi", "chi~"}

    def test_conflicting_partner_holds_nothing(self):
        reg = LabelRegistry()
        reg.declare_gl("chi~", 1, True)
        with pytest.raises(LabelConflictError, match="'chi~'"):
            reg.declare_gl("chi", 1, False)
        with pytest.raises(UnknownLabelError):
            reg.gl("chi")
        reg = LabelRegistry()
        reg.declare_gl("chi", 1, False)
        with pytest.raises(LabelConflictError):
            reg.declare_gl("chi~", 2, False)
        with pytest.raises(LabelConflictError):
            reg.declare_gl("chi~", 1, True)
        assert [reg.gl(n).attributes for n in ("chi", "chi~")] == [(1, False)] * 2

    def test_unknown(self):
        reg = LabelRegistry()
        with pytest.raises(UnknownLabelError):
            reg.gl("nope")
        with pytest.raises(UnknownLabelError):
            reg.gu("nope")

    def test_lookup_needs_a_name(self):
        reg = LabelRegistry()
        with pytest.raises(KindMismatchError, match="LabelRegistry.gl needs str, got None"):
            reg.gl(None)
        with pytest.raises(KindMismatchError, match=r"LabelRegistry.gu needs str, got \['x'\]"):
            reg.gu(["x"])

    def test_reducibility_as_pairs(self):
        rho = CuspidalGLLabel("rho")
        label = LabelRegistry().declare_gu("sigma", 1, [(rho, 1)], [rho])
        assert dict(label.reducibility) == {rho: HalfInt(1)}
        assert label.twist_fixed == frozenset({rho})

    def test_gu_conflict(self):
        reg = LabelRegistry()
        reg.declare_gu("sigma", 0)
        with pytest.raises(LabelConflictError):
            reg.declare_gu("sigma", 1)
