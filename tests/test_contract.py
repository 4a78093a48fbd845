"""The typed-error contract of the public names.

Every callable that ``dir(jacquet)`` lists, error classes aside, is called
once per positional parameter and junk value, the other arguments valid.
A call may succeed or raise a ``JacquetError``; any other exception breaks
the contract.  ``OUTSIDE`` lists the parameters the contract does not
cover, each with its reason; README's "Errors" paragraph names the same
ones.  A new public name is covered without a new case: only its
parameters need valid values in ``VALID``.
"""

import inspect

import pytest

import jacquet
from jacquet import (
    CuspidalGLLabel,
    FormalSum,
    GeomParams,
    GLMonomial,
    GroupMode,
    GUClass,
    GUCuspidalLabel,
    JacquetError,
    JordSequence,
    LabelRegistry,
    LeviBlock,
    LJDatum,
    Segment,
    SignedPermutation,
    TensorTerm,
    lj_to_obj,
    mstar_big,
    mu_star,
)

JUNK = [None, "x", 1.5, True, [], -1, object(), {"a": 1}, ["x"], (1.5,)]

RHO = CuspidalGLLabel("rho")
SIGMA = GUCuspidalLabel("sigma", 1, {RHO: 1}, {RHO})
S = Segment(RHO, 0, 1)
G = GUClass([S], SIGMA)
DATUM = LJDatum((JordSequence(RHO, 1, (2,)),), SIGMA)
REGISTRY = LabelRegistry()
REGISTRY.declare_gl("rho")
REGISTRY.declare_gu("sigma", 1, {RHO: 1}, {RHO})
M = mstar_big(GLMonomial([S]))

# A valid argument for each parameter name that has no default, used for
# every public callable that does not override it in VALID_FOR; a
# parameter with a default that comes before the junk one takes it.
VALID = {
    "a": 1, "b": 2, "blocks": (LeviBlock("g", 1),), "d": 1, "datum": DATUM,
    "factors": (GLMonomial([S]), G), "g": G, "gl_part": (S,),
    "gl_resolver": REGISTRY.gl, "gu_anchor": SIGMA, "gu_resolver": REGISTRY.gu,
    "i1": 3, "i2": 2, "jord": DATUM.jord, "k": 1, "label": "g", "labels": (RHO,),
    "m": M, "max_b": 2, "mode": GroupMode.GU, "n": 4, "name": "x",
    "obj": lj_to_obj(DATUM), "params": GeomParams(4, 3, 2, 1, 1), "perm": (2, 1, 3),
    "rho": RHO, "s": mu_star(G), "segments": (S,), "shape": (1,), "sigma": SIGMA,
    "size": 1, "t": FormalSum.of(TensorTerm((GLMonomial(), G))),
    "text": "d(0,1@rho) |x| sigma", "w": SignedPermutation.identity(2),
    "x": GLMonomial([S]),
}
VALID_FOR = {
    ("GroupMode", "value"): "GU",
    ("GroupMode", "names"): None,
    ("JordSequence", "b"): (2,),
    ("brute_force_coset_reps", "n"): 2,
    ("brute_force_coset_reps", "i1"): 1,
    ("brute_force_coset_reps", "i2"): 2,
    ("tensor_multiply", "x"): M,
    ("tensor_multiply", "y"): M,
}

# (public name, parameter) -> why a junk value there may raise a builtin error.
OUTSIDE = {
    ("GroupMode", "names"): "the functional API of the standard Enum",
}


def _public() -> dict:
    """Public name -> its positional parameters, error classes left out."""
    out = {}
    for name in dir(jacquet):
        obj = getattr(jacquet, name)
        if name.startswith("_") or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        out[name] = [p for p in inspect.signature(obj).parameters.values()
                     if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return out


PUBLIC = _public()
CASES = [(name, p.name) for name, params in PUBLIC.items() for p in params
         if (name, p.name) not in OUTSIDE]


def _valid(name: str, param: inspect.Parameter):
    for table, key in ((VALID_FOR, (name, param.name)), (VALID, param.name)):
        if key in table:
            return table[key]
    if param.default is param.empty:
        pytest.fail(f"no valid value for {name}({param.name}): add one to VALID")
    return param.default


def _call_with(name: str, junk_at: str, junk):
    """Call ``name`` with ``junk`` for ``junk_at``, the parameters before it
    valid and the required ones after it valid too."""
    args, after = [], False
    for param in PUBLIC[name]:
        if param.name == junk_at:
            args.append(junk)
            after = True
        elif not after or param.default is param.empty:
            args.append(_valid(name, param))
    return getattr(jacquet, name)(*args)


def _leaks(name: str, param: str) -> list:
    """The junk values for which the call raises something not typed."""
    out = []
    for junk in JUNK:
        try:
            _call_with(name, param, junk)
        except JacquetError:
            pass
        except Exception as exc:  # the contract is about exactly these
            out.append(f"{junk!r}: {type(exc).__name__}: {exc}")
    return out


def test_valid_arguments_are_accepted():
    for name, params in PUBLIC.items():
        args = [_valid(name, p) for p in params if p.default is p.empty]
        getattr(jacquet, name)(*args)


@pytest.mark.parametrize("name, param", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_junk_raises_a_jacquet_error(name, param):
    leaks = _leaks(name, param)
    assert not leaks, f"{name}({param}=...) leaks builtin errors: {leaks}"


@pytest.mark.parametrize("name, param", VALID_FOR, ids=[f"{n}-{p}" for n, p in VALID_FOR])
def test_valid_for_entries_are_live(name, param):
    # An override names a public callable and one of its parameters, so a
    # deleted name or parameter leaves no stale entry behind.
    assert name in PUBLIC, f"{name} is not a public callable"
    assert param in [p.name for p in PUBLIC[name]]


@pytest.mark.parametrize("name, param", OUTSIDE, ids=[f"{n}-{p}" for n, p in OUTSIDE])
def test_outside_entries_are_live(name, param):
    # An exemption names a real parameter that still leaks; a mended one
    # leaves the table.
    assert param in [p.name for p in PUBLIC[name]]
    assert _leaks(name, param)
