"""The value types: constructor checks, immutability, copy and pickle."""

import copy
import pickle

import pytest

from jacquet import (
    CuspidalGLLabel,
    Expression,
    GeomParams,
    GLMonomial,
    GUClass,
    GUCuspidalLabel,
    HalfInt,
    InvalidDatumError,
    InvalidParamsError,
    JordSequence,
    KindMismatchError,
    LabelRegistry,
    LeviBlock,
    LJDatum,
    Segment,
    SignedPermutation,
    TensorTerm,
    TwistTag,
    enumerate_geom_params,
    enumerate_jord,
    enumerate_sp,
    jacquet_by_shape,
    mu_star,
    SPConditions,
    validate_lj,
)
from helpers import h, seg

RHO = CuspidalGLLabel("rho")
CHI = CuspidalGLLabel("chi", dim=2, conj_self_dual=False)
SIGMA = GUCuspidalLabel("sigma", rank=1, reducibility={RHO: h(2)}, twist_fixed={RHO})
TWIST = TwistTag((("chi", 1, h(3)),))
S1 = seg(RHO, 0, 2)
S2 = seg(CHI, h(1), h(3))
G = GUClass([S2, S1], SIGMA, TWIST)
JORD = JordSequence(RHO, 1, (h(1), 2))
# Built by trusted paths, without __init__: a mu* term whose factors both
# hold segments and whose anchor twist the fold merged, a two-block
# Jacquet term, and the two scalar shortcuts.
MU_TERM = next(t for t, _ in mu_star(G).sorted_items()
               if t.factors[0].segments and t.factors[1].segments
               and t.factors[1].twist != TWIST)
JACQUET_TERM = next(iter(jacquet_by_shape(G, (1, 2)).terms()))
MERGED = TWIST.merge(TwistTag((("chi", 1, h(1)), ("rho", -2, 3))))


# Bad constructor input: what it builds, the error and a pattern the
# message must match (a label's name, or the kind it needed).
BAD_INPUTS = {
    "gl dim str": (lambda: CuspidalGLLabel("x", "2"), ValueError, "'x'"),
    "declare_gl dim str": (lambda: LabelRegistry().declare_gl("x", "2"), ValueError, "'x'"),
    "gl dim bool": (lambda: CuspidalGLLabel("x", True), ValueError, "'x'"),
    "gl self-dual int": (lambda: CuspidalGLLabel("x", 1, 1), ValueError, "'x'"),
    "gl self-dual str": (lambda: CuspidalGLLabel("x", 1, "no"), ValueError, "'x'"),
    "gl none name dual": (lambda: CuspidalGLLabel(None, 1, False).dual(),
                          KindMismatchError, "name needs str, got None"),
    "gl list name hash": (lambda: hash(CuspidalGLLabel(["x"])),
                          KindMismatchError, r"name needs str, got \['x'\]"),
    "declare_gl none name": (lambda: LabelRegistry().declare_gl(None, 1, False),
                             KindMismatchError, "name needs str, got None"),
    "gu rank str": (lambda: GUCuspidalLabel("s", "1"), ValueError, "'s'"),
    "gu rank bool": (lambda: GUCuspidalLabel("s", True), ValueError, "'s'"),
    "gu none name": (lambda: GUCuspidalLabel(None), KindMismatchError,
                     "name needs str, got None"),
    "declare_gu none name": (lambda: LabelRegistry().declare_gu(None),
                             KindMismatchError, "name needs str, got None"),
    "gu str labels": (lambda: GUCuspidalLabel("s", 0, {"rho": 1}, {"rho"}),
                      KindMismatchError, "'s'"),
    "gu str reducibility": (lambda: GUCuspidalLabel("s", 0, {"rho": 1}),
                            KindMismatchError, "'s'"),
    "gu str twist_fixed": (lambda: GUCuspidalLabel("s", 0, None, {"rho"}),
                           KindMismatchError, "'s'"),
    "declare_gu str reducibility": (
        lambda: LabelRegistry().declare_gu("s", reducibility={"rho": 1}),
        KindMismatchError, "'s'"),
    "gu text reducibility": (lambda: GUCuspidalLabel("s", 0, "x"),
                             KindMismatchError, "reducibility needs a mapping"),
    "gu float reducibility": (lambda: GUCuspidalLabel("s", 0, 1.5),
                              KindMismatchError, "reducibility needs a mapping"),
    "declare_gu text reducibility": (lambda: LabelRegistry().declare_gu("s", 0, "x"),
                                     KindMismatchError, "reducibility needs a mapping"),
    "declare_gu int twist_fixed": (lambda: LabelRegistry().declare_gu("s", 0, None, 5),
                                   KindMismatchError, "twist_fixed needs an iterable"),
    "declare_gu none twist_fixed": (
        lambda: LabelRegistry().declare_gu("s", 0, None, twist_fixed=None),
        KindMismatchError, "twist_fixed needs an iterable"),
    "gu class str anchor": (lambda: GUClass([], "sigma"),
                            KindMismatchError, "GUCuspidalLabel"),
    "gu class str twist": (lambda: GUClass([], SIGMA, "w_rho"),
                           KindMismatchError, "TwistTag"),
    "segment str label": (lambda: Segment("rho", 0, 1),
                          KindMismatchError, "CuspidalGLLabel"),
    "jord str label": (lambda: JordSequence("rho", 1, (2,)),
                       KindMismatchError, "CuspidalGLLabel"),
    "datum str anchor": (lambda: LJDatum((JORD,), "sigma"),
                         KindMismatchError, "GUCuspidalLabel"),
    "datum str sequence": (lambda: LJDatum(("rho",), SIGMA),
                           KindMismatchError, "JordSequence"),
    "enumerate_sp str label": (lambda: enumerate_sp(["rho"], SIGMA, 2),
                               KindMismatchError, "CuspidalGLLabel"),
    "enumerate_sp str anchor": (lambda: enumerate_sp([RHO], "sigma", 2),
                                KindMismatchError, "GUCuspidalLabel"),
    "enumerate_sp float bound": (lambda: enumerate_sp([RHO], SIGMA, 1.5),
                                 InvalidDatumError, "1.5"),
    "enumerate_sp float bounds": (lambda: enumerate_sp([RHO], SIGMA, [1.5]),
                                  InvalidDatumError, "1.5"),
    "geom params str index": (lambda: GeomParams(3, "1", 2, 0, 0),
                              InvalidParamsError, "i1='1'"),
    "geom params str d": (lambda: GeomParams(3, 1, 2, "0", 0),
                          InvalidParamsError, "d='0'"),
    "enumerate_geom_params str index": (lambda: enumerate_geom_params(3, "1", 2),
                                        InvalidParamsError, "i1='1'"),
    "half int float": (lambda: HalfInt(1.5), KindMismatchError, "1.5"),
    "jord float exponent": (lambda: JordSequence(RHO, 1.5, ()), KindMismatchError, "1.5"),
    "enumerate_jord float exponent": (lambda: enumerate_jord(RHO, 1.5, 3),
                                      KindMismatchError, "1.5"),
    "segment float bound": (lambda: Segment(RHO, 1.5, 2), KindMismatchError, "1.5"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_constructors_check_their_inputs(case):
    build, error, match = BAD_INPUTS[case]
    with pytest.raises(error, match=match):
        build()


# Each value type with the attributes it exposes.
VALUES = {
    "half int": (h(3), ("twice",)),
    "gl label": (CHI, ("name", "dim", "conj_self_dual", "key")),
    "gu label": (SIGMA, ("name", "rank", "reducibility", "twist_fixed", "key")),
    "twist": (TWIST, ("entries", "key")),
    "segment": (S2, ("rho", "a", "b", "key", "text")),
    "gl monomial": (GLMonomial([S2, S1]), ("segments", "key")),
    "gu class": (G, ("segments", "sigma", "twist", "key")),
    "tensor term": (TensorTerm([GLMonomial([S1]), G]), ("factors", "key")),
    "signed permutation": (SignedPermutation((2, 1, 3), (1, -1, 1)), ("window", "key")),
    "geom params": (GeomParams(4, 3, 2, 1, 1), ("n", "i1", "i2", "d", "k", "key")),
    "levi block": (LeviBlock("g", 2, True), ("label", "size", "dual", "twisted", "key")),
    "jord sequence": (JORD, ("rho", "a", "b", "key")),
    "lj datum": (LJDatum((JORD,), SIGMA), ("jord", "sigma", "key")),
    "lj validation": (validate_lj(LJDatum((JORD,), SIGMA)), ("checks", "key")),
    "sp conditions": (SPConditions(RHO, SIGMA), ("rho", "sigma", "key")),
    "sp entry": (enumerate_sp([RHO], SIGMA, 2)[1],
                 ("datum", "inducing", "constraints_ok", "leading_multiplicity", "key")),
    "expression": (Expression((S1, S2), SIGMA), ("gl_part", "gu_anchor", "key")),
    "mu_star term": (MU_TERM, ("factors", "key")),
    "mu_star gl factor": (MU_TERM.factors[0], ("segments", "key")),
    "mu_star gu factor": (MU_TERM.factors[1], ("segments", "sigma", "twist", "key")),
    "jacquet_by_shape term": (JACQUET_TERM, ("factors", "key")),
    "half int from_twice": (HalfInt.from_twice(5), ("twice",)),
    "twist merge": (MERGED, ("entries", "key")),
}

# The values above built by a trusted path, each with the public
# constructor call that builds it from the same fields.
TRUSTED = {
    "mu_star term": lambda t: TensorTerm(t.factors),
    "mu_star gl factor": lambda m: GLMonomial(m.segments),
    "mu_star gu factor": lambda g: GUClass(g.segments, g.sigma, g.twist),
    "jacquet_by_shape term": lambda t: TensorTerm(t.factors),
    "half int from_twice": lambda x: HalfInt(f"{x.twice}/2"),
    "twist merge": lambda t: TwistTag(t.entries),
}

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "pickle protocol 0": lambda x: pickle.loads(pickle.dumps(x, 0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_values_are_frozen_and_round_trip(name, trip):
    value, attributes = VALUES[name]
    for attr in attributes:
        with pytest.raises(AttributeError):
            setattr(value, attr, getattr(value, attr))
        with pytest.raises(AttributeError):
            delattr(value, attr)
    back = ROUND_TRIPS[trip](value)
    assert back == value and hash(back) == hash(value)
    assert str(back) == str(value) and repr(back) == repr(value)
    for attr in attributes:
        assert getattr(back, attr) == getattr(value, attr)
        with pytest.raises(AttributeError):
            setattr(back, attr, getattr(back, attr))


@pytest.mark.parametrize("name", TRUSTED)
def test_trusted_values_match_the_public_constructor(name):
    value = VALUES[name][0]
    built = TRUSTED[name](value)
    assert type(built) is type(value)
    for slot in type(value).__slots__:
        assert getattr(built, slot) == getattr(value, slot), slot
        assert type(getattr(built, slot)) is type(getattr(value, slot)), slot
    assert hash(built) == hash(value) and str(built) == str(value)


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_mu_star_sum_round_trips(trip):
    total = mu_star(G)
    back = ROUND_TRIPS[trip](total)
    assert len(back) == len(total) > 1
    assert back == total and str(back) == str(total)


def test_reducibility_is_read_only():
    registry = LabelRegistry()
    rho = registry.declare_gl("rho")
    sigma = registry.declare_gu("sigma", reducibility={rho: 2}, twist_fixed={rho})
    with pytest.raises(TypeError):
        sigma.reducibility[rho] = HalfInt(-3)
    assert sigma.reducibility.get(rho) == 2 and dict(sigma.reducibility) == {rho: 2}
    assert registry.declare_gu("sigma", reducibility={rho: 2}, twist_fixed={rho}) is sigma
    assert len(enumerate_sp([rho], sigma, 3)) == 6
