"""The seven value types: constructor checks, immutability, copy and pickle."""

import copy
import pickle

import pytest

from jacquet import (
    CuspidalGLLabel,
    GLMonomial,
    GUClass,
    GUCuspidalLabel,
    KindMismatchError,
    LabelRegistry,
    Segment,
    TensorTerm,
    TwistTag,
    mu_star,
)
from helpers import h, seg

RHO = CuspidalGLLabel("rho")
CHI = CuspidalGLLabel("chi", dim=2, conj_self_dual=False)
SIGMA = GUCuspidalLabel("sigma", rank=1, reducibility={RHO: h(2)}, twist_fixed={RHO})
TWIST = TwistTag.omega(CHI, h(3))
S1 = seg(RHO, 0, 2)
S2 = seg(CHI, h(1), h(3))
G = GUClass([S2, S1], SIGMA, TWIST)


# Bad constructor input: what it builds, the error and a pattern the
# message must match (a label's name, or the kind it needed).
BAD_INPUTS = {
    "gl dim str": (lambda: CuspidalGLLabel("x", "2"), ValueError, "'x'"),
    "declare_gl dim str": (lambda: LabelRegistry().declare_gl("x", "2"), ValueError, "'x'"),
    "gl dim bool": (lambda: CuspidalGLLabel("x", True), ValueError, "'x'"),
    "gl self-dual int": (lambda: CuspidalGLLabel("x", 1, 1), ValueError, "'x'"),
    "gl self-dual str": (lambda: CuspidalGLLabel("x", 1, "no"), ValueError, "'x'"),
    "gu rank str": (lambda: GUCuspidalLabel("s", "1"), ValueError, "'s'"),
    "gu rank bool": (lambda: GUCuspidalLabel("s", True), ValueError, "'s'"),
    "gu str labels": (lambda: GUCuspidalLabel("s", 0, {"rho": 1}, {"rho"}),
                      KindMismatchError, "'s'"),
    "gu str reducibility": (lambda: GUCuspidalLabel("s", 0, {"rho": 1}),
                            KindMismatchError, "'s'"),
    "gu str twist_fixed": (lambda: GUCuspidalLabel("s", 0, None, {"rho"}),
                           KindMismatchError, "'s'"),
    "declare_gu str reducibility": (
        lambda: LabelRegistry().declare_gu("s", reducibility={"rho": 1}),
        KindMismatchError, "'s'"),
    "gu class str anchor": (lambda: GUClass([], "sigma"),
                            KindMismatchError, "GUCuspidalLabel"),
    "gu class str twist": (lambda: GUClass([], SIGMA, "w_rho"),
                           KindMismatchError, "TwistTag"),
    "segment str label": (lambda: Segment("rho", 0, 1),
                          KindMismatchError, "CuspidalGLLabel"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_constructors_check_their_inputs(case):
    build, error, match = BAD_INPUTS[case]
    with pytest.raises(error, match=match):
        build()


# Each value type with the attributes it exposes.
VALUES = {
    "gl label": (CHI, ("name", "dim", "conj_self_dual", "key")),
    "gu label": (SIGMA, ("name", "rank", "reducibility", "twist_fixed", "key")),
    "twist": (TWIST, ("entries", "key")),
    "segment": (S2, ("rho", "a", "b", "key", "text")),
    "gl monomial": (GLMonomial([S2, S1]), ("segments", "key")),
    "gu class": (G, ("segments", "sigma", "twist", "key")),
    "tensor term": (TensorTerm([GLMonomial([S1]), G]), ("factors", "key")),
}

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
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


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_mu_star_sum_round_trips(trip):
    total = mu_star(G)
    back = ROUND_TRIPS[trip](total)
    assert len(back) == len(total) > 1
    assert back == total and str(back) == str(total)
