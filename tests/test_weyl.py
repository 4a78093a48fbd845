"""Signed permutations, closed-form representatives, and the exhaustive oracle."""

import itertools

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
from jacquet.errors import BruteForceBoundError, LeviActionError
from jacquet.weyl import (
    all_elements,
    length,
    positive_roots,
    root_image,
    simple_reflection,
    simple_roots,
)


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


class TestRoots:
    def test_counts(self):
        assert len(positive_roots(3)) == 9
        assert len(simple_roots(3)) == 3
        assert positive_roots(0) == simple_roots(0) == ()

    def test_simple_reflection_lengths(self):
        for n in (1, 2, 3, 4):
            for i in range(1, n + 1):
                assert length(simple_reflection(n, i)) == 1

    def test_sign_flip_negates_long_root(self):
        # the last simple root 2e_n - e_0 goes to its negative under s_n
        n = 3
        s = simple_reflection(n, n)
        c0, vec = root_image(s, simple_roots(n)[-1])
        assert (c0, vec) == (1, (0, 0, -2))

    def test_identity_length_zero(self):
        assert length(SignedPermutation.identity(4)) == 0

    def test_longest_element(self):
        # all signs flipped, identity permutation: every positive root dies
        n = 3
        w = SignedPermutation(range(1, n + 1), (-1,) * n)
        assert length(w) == n * n


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

    @pytest.mark.parametrize("dual, twisted, text", [
        (False, False, "g"), (True, False, "g^"), (False, True, "g*"), (True, True, "g^*"),
    ])
    def test_block_marks(self, dual, twisted, text):
        assert str(LeviBlock("g", 1, dual, twisted)) == text
