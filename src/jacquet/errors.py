"""Exception types shared across the package."""

__all__ = [
    "JacquetError", "SegmentError", "KindMismatchError", "ShapeError",
    "TermLimitError", "LabelConflictError", "UnknownLabelError",
    "InvalidParamsError", "NonBijectionError", "LeviActionError",
    "BruteForceBoundError", "InvalidDatumError", "UndeclaredReducibilityError",
    "ExpressionError", "TwistFixednessWarning",
]


class JacquetError(Exception):
    """Base class for all domain errors raised by this package."""


class SegmentError(JacquetError):
    """Invalid segment bounds (mixed parity, or b < a - 1)."""


class KindMismatchError(JacquetError, TypeError):
    """An argument is not of the kind a public name takes, or formal sums
    over different monomial kinds (or tensor arities) were combined.  It
    is also a ``TypeError``, the builtin raised for such input."""


class ShapeError(JacquetError):
    """A parabolic shape does not fit the representation it is applied to."""


class TermLimitError(JacquetError):
    """A formal sum exceeded the JACQUET_MAX_TERMS cap."""


class LabelConflictError(JacquetError):
    """A label name was redeclared with conflicting attributes."""


class UnknownLabelError(JacquetError):
    """A label name does not resolve against the active declarations."""


class InvalidParamsError(JacquetError, ValueError):
    """A value of the right kind is out of range: a label's dim or rank,
    ``conj_self_dual``, a mu* rank, a reducibility point, a half-integer
    literal, or
    geometric parameters (n, i1, i2, d, k) violating their admissibility
    constraints.  It is also a ``ValueError``, the builtin raised for such
    input."""


class NonBijectionError(JacquetError):
    """The piecewise permutation branches failed to assemble a bijection.

    This is a loud safety net: it should be unreachable for admissible
    parameters, and if it ever fires the offending parameters are reported
    rather than silently repaired.
    """


class LeviActionError(JacquetError):
    """A signed permutation is incompatible with the block structure it is applied to."""


class BruteForceBoundError(JacquetError):
    """The exhaustive Weyl-group search was asked to exceed its configured rank bound."""


class InvalidDatumError(JacquetError):
    """A Jordan-block datum violates the classification conditions."""


class UndeclaredReducibilityError(JacquetError):
    """A cuspidal pair has no declared reducibility point."""


class ExpressionError(JacquetError):
    """Syntax or resolution error in the expression mini-language."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TwistFixednessWarning(UserWarning):
    """A label used in classification data has no declared twist-fixedness."""


def _checked(where: str, kind, values) -> tuple:
    """``values`` as a tuple.  Raises ``KindMismatchError`` naming
    ``where`` when ``values`` is not iterable or an item is not a ``kind``
    (a type or a tuple of types).  A ``bool`` passes only where ``bool`` is
    named: it is an ``int``, but ``True`` is no window letter or exponent."""
    try:
        values = tuple(values)
    except TypeError:
        raise KindMismatchError(f"{where} needs an iterable, got {values!r}") from None
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for value in values:
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            names = " or ".join(k.__name__ for k in kinds)
            raise KindMismatchError(f"{where} needs {names}, got {value!r}")
    return values
