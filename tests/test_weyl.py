"""Signed permutations, closed-form representatives, and the exhaustive oracle."""

import itertools
import math

import pytest

from jacquet import (
    GeomParams,
    InvalidParamsError,
    LeviBlock,
    SignedPermutation,
    brute_force_coset_reps,
    enumerate_geom_params,
    levi_action,
    p_rep,
    q_rep,
)
from jacquet.errors import BruteForceBoundError, KindMismatchError, LeviActionError
from jacquet.weyl import all_elements, length, simple_reflection


class TestSignedPermutation:
    def test_bijection_required(self):
        with pytest.raises(InvalidParamsError):
            SignedPermutation((1, 1, 3))

    def test_composition_and_inverse(self):
        w1 = SignedPermutation((2, 1, 3), (1, -1, 1))
        w2 = SignedPermutation((3, 2, 1), (-1, 1, 1))
        assert (w1 * w2) * w1.inverse() == w1 * (w2 * w1.inverse())
        assert w1 * w1.inverse() == SignedPermutation.identity(3)
        assert w2.inverse() * w2 == SignedPermutation.identity(3)

    def test_group_law_exhaustive_rank2(self):
        els = list(all_elements(2))
        assert len(els) == 8
        for u, v, w in itertools.product(els[:4], els[2:6], els[4:]):
            assert (u * v) * w == u * (v * w)

    def test_cycles(self):
        assert SignedPermutation((3, 2, 1)).cycles() == "(1 3)"
        assert SignedPermutation.identity(2).cycles() == "id"

    def test_from_window_rejects_non_bijections(self):
        for window in ((1, -1), (2, 2), (0, 1)):
            with pytest.raises(InvalidParamsError):
                SignedPermutation.from_window(window)

    def test_window_is_the_element_rank3(self):
        els = list(all_elements(3))
        assert len(set(els)) == 48
        identity = SignedPermutation.identity(3)
        letters = [j for j in range(-3, 4) if j]
        for w in els:
            assert SignedPermutation(w.perm, w.signs) == w
            assert SignedPermutation.from_window(w.window) == w
            assert w * w.inverse() == identity
        for u, v in itertools.product(els, repeat=2):
            uv = u * v
            assert all(uv(j) == u(v(j)) for j in letters)

    def test_ranks_must_agree(self):
        with pytest.raises(InvalidParamsError):
            SignedPermutation.identity(3) * SignedPermutation.identity(2)

    def test_identity_checks_its_rank(self):
        assert SignedPermutation.identity(0).window == ()
        assert SignedPermutation.identity(3) == SignedPermutation((1, 2, 3))
        for bad in ("x", None, 1.5, True):
            with pytest.raises(KindMismatchError, match="identity needs"):
                SignedPermutation.identity(bad)
        with pytest.raises(InvalidParamsError, match="n >= 0, got -1"):
            SignedPermutation.identity(-1)

    def test_call_checks_its_letter(self):
        w = SignedPermutation.from_window((2, -1, 3))
        assert [w(j) for j in (1, 2, 3, -1, -2, -3)] == [2, -1, 3, -2, 1, -3]
        for bad in ("x", None, 1.5, True):
            with pytest.raises(KindMismatchError, match="SignedPermutation needs int"):
                w(bad)
        for bad in (0, 4, -4):
            with pytest.raises(InvalidParamsError, match=f"no letter {bad} in rank 3"):
                w(bad)

    @pytest.mark.parametrize("window", [["x"], None], ids=["str letter", "none"])
    def test_from_window_rejected_kinds(self, window):
        with pytest.raises(KindMismatchError, match="from_window needs"):
            SignedPermutation.from_window(window)

    @pytest.mark.parametrize("make", [
        lambda: SignedPermutation.from_window([True, 2]),
        lambda: SignedPermutation((2, True)),
    ], ids=["from_window", "constructor"])
    def test_bool_letters_rejected(self, make):
        with pytest.raises(KindMismatchError, match="needs int, got True"):
            make()


class TestRoots:
    def test_simple_reflection_lengths(self):
        for n in (1, 2, 3, 4):
            for i in range(1, n + 1):
                assert length(simple_reflection(n, i)) == 1

    @pytest.mark.parametrize("n, i", [("x", 1), (2, None), (2.0, 1), (True, 1)])
    def test_simple_reflection_rejects_non_ints(self, n, i):
        with pytest.raises(KindMismatchError, match="simple_reflection needs int"):
            simple_reflection(n, i)

    def test_identity_length_zero(self):
        assert length(SignedPermutation.identity(4)) == 0

    def test_longest_element(self):
        # all signs flipped, identity permutation: every positive root dies
        for n in range(1, 6):
            w = SignedPermutation(range(1, n + 1), (-1,) * n)
            assert length(w) == n * n

    def test_matches_word_length(self):
        # The Coxeter word length, as the breadth-first distance from the
        # identity over right multiplication by the simple reflections.
        for n in range(1, 6):
            gens = [simple_reflection(n, i) for i in range(1, n + 1)]
            dist = {SignedPermutation.identity(n): 0}
            frontier = list(dist)
            while frontier:
                reached = []
                for w in frontier:
                    for s in gens:
                        ws = w * s
                        if ws not in dist:
                            dist[ws] = dist[w] + 1
                            reached.append(ws)
                frontier = reached
            assert len(dist) == 2 ** n * math.factorial(n)
            assert all(length(w) == d for w, d in dist.items()), n


class TestGeomParams:
    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            GeomParams(2, 0, 1, 0, 0)
        with pytest.raises(InvalidParamsError):
            GeomParams(2, 1, 1, 2, 0)
        with pytest.raises(InvalidParamsError):
            GeomParams(3, 2, 2, 0, 3)

    def test_enumeration_example(self):
        got = [(p.d, p.k) for p in enumerate_geom_params(2, 1, 1)]
        assert got == [(0, 0), (0, 1), (1, 0)]

    def test_enumeration_forced_diagonal(self):
        # i1 = i2 = n forces k = n - d
        for n in (1, 2, 3, 4):
            got = [(p.d, p.k) for p in enumerate_geom_params(n, n, n)]
            assert got == [(d, n - d) for d in range(n + 1)]

    def test_enumeration_nonempty(self):
        for n in (1, 2, 3, 4):
            for i1 in range(1, n + 1):
                for i2 in range(1, n + 1):
                    assert enumerate_geom_params(n, i1, i2)


class TestPRep:
    def test_hand_example(self):
        p = p_rep(GeomParams(3, 2, 2, 1, 0))
        assert p.perm == (3, 2, 1)
        assert p.signs == (1, 1, 1)

    def test_identity_example(self):
        assert p_rep(GeomParams(2, 1, 1, 0, 1)).is_identity()

    def test_all_admissible_are_bijections(self):
        for n in (1, 2, 3, 4):
            for i1 in range(1, n + 1):
                for i2 in range(1, n + 1):
                    for params in enumerate_geom_params(n, i1, i2):
                        p_rep(params)  # raises NonBijectionError on failure

    def test_branch_images_partition(self):
        params = GeomParams(4, 3, 2, 1, 1)
        p = p_rep(params)
        assert sorted(p.perm) == [1, 2, 3, 4]


class TestQRep:
    def test_sign_layout(self):
        q = q_rep(GeomParams(3, 2, 2, 1, 0))
        assert q.signs == (1, -1, 1)

    def test_d_zero_all_plus(self):
        for params in enumerate_geom_params(3, 2, 1):
            if params.d == 0:
                assert all(s == 1 for s in q_rep(params).signs)

    def test_sign_length(self):
        for params in enumerate_geom_params(4, 3, 2):
            assert len(q_rep(params).signs) == 4

    def test_rank_one(self):
        reps = {q_rep(p) for p in enumerate_geom_params(1, 1, 1)}
        flip = SignedPermutation((1,), (-1,))
        assert reps == {SignedPermutation.identity(1), flip}


def _right_descents(w: SignedPermutation) -> set:
    """The i with s_i a right descent of ``w``, read off the window in the
    order 1 < ... < n < -n < ... < -1: s_i (i < n) when w(i) > w(i+1)
    there, s_n when w(n) < 0.  ``test_descent_rule_matches_length`` checks
    this rule against ``length``."""
    n = w.n
    place = [v if v > 0 else 2 * n + 1 + v for v in w.window]
    out = {i for i in range(1, n) if place[i - 1] > place[i]}
    return out | {n} if w.window[-1] < 0 else out


class TestOracle:
    def test_matches_closed_form_small(self):
        for n in (1, 2, 3):
            for i1 in range(1, n + 1):
                for i2 in range(1, n + 1):
                    closed = {q_rep(p) for p in enumerate_geom_params(n, i1, i2)}
                    oracle = brute_force_coset_reps(n, i1, i2)
                    assert closed == oracle, (n, i1, i2)

    @pytest.mark.slow
    def test_matches_closed_form_rank4(self):
        for i1 in range(1, 5):
            for i2 in range(1, 5):
                closed = {q_rep(p) for p in enumerate_geom_params(4, i1, i2)}
                assert closed == brute_force_coset_reps(4, i1, i2), (i1, i2)

    def test_descent_rule_matches_length(self):
        # s is a right (left) descent of w exactly when w s (s w) is shorter.
        for n in range(1, 5):
            gens = [simple_reflection(n, i) for i in range(1, n + 1)]
            for w in all_elements(n):
                lw = length(w)
                assert _right_descents(w) == {
                    i for i, s in enumerate(gens, 1) if length(w * s) < lw}
                assert _right_descents(w.inverse()) == {
                    i for i, s in enumerate(gens, 1) if length(s * w) < lw}

    def test_matches_descent_rule_ranks_5_and_6(self):
        for n in (5, 6):
            # w is minimal in W_I w W_J exactly when its left descents lie
            # in {i1} and its right descents in {i2}.
            descents = [(_right_descents(w.inverse()), _right_descents(w), w)
                        for w in all_elements(n)]
            candidates = [d for d in descents if len(d[0]) <= 1 and len(d[1]) <= 1]
            for i1 in range(1, n + 1):
                for i2 in range(1, n + 1):
                    minimal = {w for left, right, w in candidates
                               if left <= {i1} and right <= {i2}}
                    closed = {q_rep(p) for p in enumerate_geom_params(n, i1, i2)}
                    assert closed == minimal, (n, i1, i2)

    def test_count_equals_param_count(self):
        for n in (1, 2, 3):
            for i1 in range(1, n + 1):
                for i2 in range(1, n + 1):
                    assert len(brute_force_coset_reps(n, i1, i2)) == \
                        len(enumerate_geom_params(n, i1, i2))

    def test_rank_one_reps(self):
        reps = brute_force_coset_reps(1, 1, 1)
        assert reps == {SignedPermutation.identity(1), SignedPermutation((1,), (-1,))}

    def test_bound(self):
        with pytest.raises(BruteForceBoundError):
            brute_force_coset_reps(5, 1, 1)

    def test_non_int_rank(self):
        with pytest.raises(InvalidParamsError, match="n, i1 and i2 must be ints"):
            brute_force_coset_reps("3", 1, 2)


class TestLeviAction:
    def test_identity(self):
        w = SignedPermutation.identity(3)
        blocks = (LeviBlock("g1", 1), LeviBlock("g2", 2))
        out = levi_action(w, blocks)
        assert out == blocks

    def test_five_block_display(self):
        # n = 4, i1 = 3, i2 = 3, d = 1, k = 1: all four GL blocks have size 1
        params = GeomParams(4, 3, 3, 1, 1)
        w = q_rep(params)
        blocks = tuple(LeviBlock(f"g{i}", 1) for i in range(1, 5))
        out = levi_action(w, blocks, mode="GU")
        assert [b.label for b in out] == ["g1", "g4", "g3", "g2"]
        g3 = out[2]
        assert g3.dual and g3.twisted
        assert all(not b.dual and not b.twisted for b in out if b.label != "g3")

    def test_u_mode_no_twist_mark(self):
        params = GeomParams(4, 3, 3, 1, 1)
        out = levi_action(q_rep(params),
                          [LeviBlock(f"g{i}", 1) for i in range(1, 5)],
                          mode="U")
        g3 = next(b for b in out if b.label == "g3")
        assert g3.dual and not g3.twisted

    def test_unknown_mode_rejected(self):
        blocks = (LeviBlock("g1", 1),)
        with pytest.raises(LeviActionError):
            levi_action(SignedPermutation.identity(2), blocks, mode="foo")

    def test_inverse_round_trip(self):
        params = GeomParams(4, 3, 3, 1, 1)
        w = q_rep(params)
        blocks = tuple(LeviBlock(f"g{i}", 1) for i in range(1, 5))
        once = levi_action(w, blocks)
        back = levi_action(w.inverse(), once)
        assert back == blocks

    def test_wide_blocks(self):
        # d = 2 moves a 2-wide block through the reversal branch
        params = GeomParams(4, 3, 3, 2, 1)
        w = q_rep(params)
        blocks = (LeviBlock("g1", 1), LeviBlock("g3", 2))
        out = levi_action(w, blocks)
        wide = next(b for b in out if b.label == "g3")
        assert wide.dual

    def test_incompatible(self):
        w = SignedPermutation((2, 3, 1))
        with pytest.raises(LeviActionError):
            levi_action(w, (LeviBlock("g", 2),))
        with pytest.raises(LeviActionError):
            # anchor slots not fixed
            levi_action(SignedPermutation((1, 3, 2)), (LeviBlock("g", 1),))

    @pytest.mark.parametrize("w, blocks, message", [
        (SignedPermutation.identity(2), (LeviBlock("g", 0),), "positive size"),
        (SignedPermutation.identity(2), (LeviBlock("g", 2), LeviBlock("h", 1)),
         "do not fit in rank 2"),
        (SignedPermutation((1, 2), (1, -1)), (LeviBlock("g", 2),), "mixed signs"),
        (SignedPermutation((1, 3, 2)), (LeviBlock("g", 2), LeviBlock("h", 1)),
         "contiguous run"),
    ], ids=["empty block", "too wide", "mixed signs", "not contiguous"])
    def test_rejected_blocks(self, w, blocks, message):
        with pytest.raises(LeviActionError, match=message):
            levi_action(w, blocks)

    @pytest.mark.parametrize("w, blocks, message", [
        (SignedPermutation.identity(2), ("g",), "LeviBlock, got 'g'"),
        ((1, 2), (LeviBlock("g", 1),), r"SignedPermutation, got \(1, 2\)"),
    ], ids=["str block", "window as w"])
    def test_rejected_kinds(self, w, blocks, message):
        with pytest.raises(KindMismatchError, match=message):
            levi_action(w, blocks)

    @pytest.mark.parametrize("dual, twisted, text", [
        (False, False, "g"), (True, False, "g^"), (False, True, "g*"), (True, True, "g^*"),
    ])
    def test_block_marks(self, dual, twisted, text):
        assert str(LeviBlock("g", 1, dual, twisted)) == text
