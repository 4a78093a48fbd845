"""Formal sums: canonical forms, ring axioms, grading, serialization."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from jacquet import (
    CuspidalGLLabel,
    FormalSum,
    GLMonomial,
    GUClass,
    GUCuspidalLabel,
    JacquetError,
    KindMismatchError,
    Segment,
    TensorTerm,
    TermLimitError,
    TwistTag,
    gl_multiply,
    sum_to_obj,
    tensor_multiply,
)
from helpers import h, seg

RHO = CuspidalGLLabel("rho")
TAU = CuspidalGLLabel("tau", dim=2)
SIGMA = GUCuspidalLabel("sigma", rank=1)

S1 = seg(RHO, 1, 1)
S2 = seg(RHO, 2, 2)
S3 = seg(TAU, 0, 1)


def test_monomial_canonicalization():
    m = GLMonomial([S2, S1, Segment.empty(RHO)])
    assert m.segments == (S1, S2)
    assert GLMonomial(m.segments) == m  # re-canonicalization is the identity


def test_reprs():
    tw = TwistTag.omega(RHO, h(4))
    m = GLMonomial([S3, S1])
    g = GUClass([S1], SIGMA, tw)
    assert repr(S1) == "Segment(d(1,1@rho))"
    assert repr(m) == "GLMonomial(d(1,1@rho) x d(0,1@tau))"
    assert repr(g) == "GUClass(d(1,1@rho) |x| w_rho sigma)"
    assert repr(TensorTerm([m, g])) == (
        "TensorTerm(d(1,1@rho) x d(0,1@tau) (x) d(1,1@rho) |x| w_rho sigma)"
    )
    assert repr(tw) == "TwistTag((('rho', 1, HalfInt('2')),))"


def test_monomial_unit_and_rank():
    assert GLMonomial().is_unit
    assert GLMonomial().rank == 0
    assert GLMonomial([S1, S3]).rank == 1 + 4


def test_guclass_canonicalization():
    g = GUClass([S2, S1], SIGMA)
    assert g.segments == (S1, S2)
    assert g.rank == 2 + SIGMA.rank


def test_guclass_twist_erasure():
    fixed = GUCuspidalLabel("sigma_fixed", rank=0, twist_fixed={RHO})
    g = GUClass([S1], fixed, TwistTag((("rho", 1, h(2)), ("tau", 1, h(0)))))
    assert g.twist.key == (("tau", 1),)


def test_tensor_term_gu_only_last():
    with pytest.raises(KindMismatchError):
        TensorTerm((GUClass([], SIGMA), GLMonomial()))


def test_sum_cancellation():
    t = GLMonomial([S1])
    s = FormalSum.of(t) + FormalSum.of(t, -1)
    assert s.is_zero
    assert len(s) == 0


def test_sum_identity_and_scalars():
    x = FormalSum.of(GLMonomial([S1]), 2)
    assert FormalSum.zero() + x == x
    assert FormalSum.of(GLMonomial([S1]), 2) + FormalSum.of(GLMonomial([S1]), 3) == \
        FormalSum.of(GLMonomial([S1]), 5)
    assert 3 * x == FormalSum.of(GLMonomial([S1]), 6)


def test_kind_mismatch():
    glsum = FormalSum.of(GLMonomial([S1]))
    gusum = FormalSum.of(GUClass([S1], SIGMA))
    with pytest.raises(KindMismatchError):
        glsum + gusum
    assert (-gusum).kind == (3 * gusum).kind == gusum.kind == ("gu",)
    cancelled = glsum - glsum
    assert cancelled.is_zero and cancelled.kind is None
    assert cancelled + gusum == gusum and gusum + cancelled == gusum


def test_arity_mismatch():
    t2 = FormalSum.of(TensorTerm((GLMonomial(), GLMonomial())))
    t3 = FormalSum.of(TensorTerm((GLMonomial(), GLMonomial(), GLMonomial())))
    with pytest.raises(KindMismatchError):
        t2 + t3
    with pytest.raises(KindMismatchError):
        tensor_multiply(t2, t3)


def test_gl_multiply_examples():
    d1, d2, d3 = (FormalSum.of(GLMonomial([s])) for s in (S1, S2, S3))
    assert gl_multiply(d1, d2) == gl_multiply(d2, d1)
    one = FormalSum.of(GLMonomial())
    assert gl_multiply(one, d1) == d1
    assert gl_multiply(d1 + d2, d3) == gl_multiply(d1, d3) + gl_multiply(d2, d3)


def test_tensor_multiply_examples():
    unit = TensorTerm((GLMonomial(),) * 3)
    t = TensorTerm((GLMonomial([S1]), GLMonomial([S2]), GLMonomial()))
    assert tensor_multiply(FormalSum.of(unit), FormalSum.of(t)) == FormalSum.of(t)
    u = TensorTerm((GLMonomial([S2]), GLMonomial(), GLMonomial([S3])))
    prod = tensor_multiply(FormalSum.of(t), FormalSum.of(u))
    expected = TensorTerm((
        GLMonomial([S1, S2]), GLMonomial([S2]), GLMonomial([S3]),
    ))
    assert prod == FormalSum.of(expected)


def test_sum_product_operator():
    d = FormalSum.of(GLMonomial([seg(RHO, 0, 1)]))
    square = d * d
    assert square == gl_multiply(d, d) == FormalSum.of(GLMonomial([seg(RHO, 0, 1)] * 2))
    assert len(square) == 1
    t = FormalSum.of(TensorTerm((GLMonomial([S1]), GLMonomial())))
    assert t * t == tensor_multiply(t, t)
    assert d * 2 == 2 * d == d + d


def test_sum_rejects_mixed_and_foreign_terms():
    with pytest.raises(KindMismatchError):
        FormalSum([(GLMonomial([S1]), 1), (GUClass([S1], SIGMA), 1)])
    with pytest.raises(KindMismatchError):
        FormalSum([(S1, 1)])
    with pytest.raises(KindMismatchError):
        TensorTerm(("x",))


def test_gl_multiply_accepts_segments_and_monomials():
    m = GLMonomial([S1])
    expected = FormalSum.of(GLMonomial([S1, S2]))
    assert gl_multiply(m, S2) == gl_multiply(S1, GLMonomial([S2])) == expected
    for bad in ("x", GUClass([S1], SIGMA), FormalSum.of(GUClass([S1], SIGMA))):
        with pytest.raises(KindMismatchError):
            gl_multiply(m, bad)


def test_tensor_multiply_of_zero():
    t = FormalSum.of(TensorTerm((GLMonomial([S1]), GLMonomial())))
    zero = FormalSum.zero()
    assert tensor_multiply(t, zero).is_zero and tensor_multiply(zero, t).is_zero


def test_term_limit(monkeypatch):
    monkeypatch.setenv("JACQUET_MAX_TERMS", "3")
    monos = [GLMonomial([seg(RHO, i, i)]) for i in range(5)]
    with pytest.raises(TermLimitError) as err:
        FormalSum((m, 1) for m in monos)
    assert str(err.value) == (
        "formal sum of 5 terms exceeds JACQUET_MAX_TERMS (3 terms)")


def test_tensor_multiply_checks_the_cap_while_it_grows(monkeypatch):
    x = FormalSum({TensorTerm((GLMonomial([seg(RHO, i, i)]), GLMonomial())): 1
                   for i in range(4)})
    y = FormalSum({TensorTerm((GLMonomial(), GLMonomial([seg(TAU, i, i)]))): 1
                   for i in range(4)})
    monkeypatch.setenv("JACQUET_MAX_TERMS", "10")
    with pytest.raises(TermLimitError) as err:
        tensor_multiply(x, y)
    assert str(err.value).startswith("tensor_multiply: partial product of 11 terms")


def test_gl_multiply_checks_the_cap_while_it_grows(monkeypatch):
    x = FormalSum({GLMonomial([seg(RHO, i, i)]): 1 for i in range(3)})
    y = FormalSum({GLMonomial([seg(TAU, i, i)]): 1 for i in range(3)})
    monkeypatch.setenv("JACQUET_MAX_TERMS", "5")
    with pytest.raises(TermLimitError) as err:
        gl_multiply(x, y)
    assert str(err.value) == (
        "gl_multiply: partial product of 6 terms exceeds JACQUET_MAX_TERMS (5 terms)")


def test_malformed_term_limit(monkeypatch):
    monkeypatch.setenv("JACQUET_MAX_TERMS", "1e6")
    with pytest.raises(JacquetError) as err:
        FormalSum.of(GLMonomial([S1]))
    assert "JACQUET_MAX_TERMS" in str(err.value) and "'1e6'" in str(err.value)


mono_strategy = st.lists(
    st.builds(
        lambda rho, start, length: Segment(rho, h(start), h(start) + (length - 1)),
        st.sampled_from([RHO, TAU]),
        st.integers(-3, 3),
        st.integers(1, 2),
    ),
    max_size=2,
).map(GLMonomial)

glsum_strategy = st.lists(
    st.tuples(mono_strategy, st.integers(-2, 2)), max_size=3
).map(FormalSum)


@settings(max_examples=60)
@given(glsum_strategy, glsum_strategy, glsum_strategy)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert gl_multiply(x, y) == gl_multiply(y, x)
    assert gl_multiply(gl_multiply(x, y), z) == gl_multiply(x, gl_multiply(y, z))
    assert gl_multiply(x + y, z) == gl_multiply(x, z) + gl_multiply(y, z)
    one = FormalSum.of(GLMonomial())
    assert gl_multiply(one, x) == x


@given(mono_strategy, mono_strategy)
def test_rank_grading(m1, m2):
    assert (m1 * m2).rank == m1.rank + m2.rank


def test_serialization_shape():
    g = GUClass([S1], SIGMA, TwistTag((("rho", 1, h(2)),)))
    s = FormalSum.of(TensorTerm((GLMonomial([S3]), g)), 2)
    obj = sum_to_obj(s)
    assert obj == [{
        "mult": 2,
        "term": [
            {"segments": [{"rho": "tau", "a": "0", "b": "1"}]},
            {
                "segments": [{"rho": "rho", "a": "1", "b": "1"}],
                "sigma": "sigma",
                "twist": {"rho": {"exp": 1, "nu": "1"}},
            },
        ],
    }]
    json.dumps(obj)  # must be JSON-clean


def test_serialization_shares_no_dicts():
    # Both terms hold S1; each must get a segment dict of its own.
    s = FormalSum({GLMonomial([S1]): 1, GLMonomial([S1, S2]): 3})
    obj = sum_to_obj(s)
    first, second = (t["term"][0]["segments"][0] for t in obj)
    assert first == second and first is not second
