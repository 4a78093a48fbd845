"""Exact Jacquet-module calculus for even (general) unitary groups.

A symbolic calculator over formal segment classes: comultiplications,
the structure formula for parabolic induction/restriction, shape-filtered
Jacquet modules, double-coset representatives of the hyperoctahedral Weyl
group, and the enumeration and validation of strongly positive
classification data.
"""

from .errors import (
    BruteForceBoundError,
    ExpressionError,
    InvalidDatumError,
    InvalidParamsError,
    JacquetError,
    KindMismatchError,
    LabelConflictError,
    LeviActionError,
    NonBijectionError,
    SegmentError,
    ShapeError,
    TermLimitError,
    TwistFixednessWarning,
    UndeclaredReducibilityError,
    UnknownLabelError,
)
from .scalars import (
    CuspidalGLLabel,
    GUCuspidalLabel,
    HalfInt,
    LabelRegistry,
    TRIVIAL_TWIST,
    TwistTag,
)
from .segments import Segment
from .grothendieck import (
    FormalSum,
    GLMonomial,
    GUClass,
    TensorTerm,
    gl_multiply,
    sum_to_obj,
    tensor_multiply,
)
from .structure import (
    GroupMode,
    jacquet_by_shape,
    mstar_big,
    mstar_gl,
    mu_star,
    mu_star_of_segments,
    twisted_rtimes,
)
from .weyl import (
    GeomParams,
    LeviBlock,
    SignedPermutation,
    brute_force_coset_reps,
    enumerate_geom_params,
    levi_action,
    p_rep,
    q_rep,
)
from .spclassifier import (
    JordSequence,
    LJDatum,
    SPConditions,
    build_inducing_rep,
    check_inducing_constraints,
    enumerate_jord,
    enumerate_sp,
    leading_term_multiplicity,
    lj_from_obj,
    lj_to_obj,
    validate_lj,
)
from .expressions import Expression, parse_expression

__version__ = "0.1.0"
