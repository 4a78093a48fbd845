"""Classification data for strongly positive classes.

A strongly positive class is parametrized, per conjugate-self-dual GL
label with declared reducibility point a > 0, by an increasing sequence of
ceil(a) exponents.  This module enumerates and validates such data, builds
the canonical inducing class each datum determines, and computes the
multiplicity diagnostics that certify the parametrization at desk scale
(the leading term of the shape-matched Jacquet module must occur exactly
once).

Two conventions for the exponent sequences are supported.  The permissive
default requires b_i congruent to a mod 1 with -1 < b_1 < ... < b_k, where
the lowest admissible value of b_i encodes an empty segment; the strict
variant additionally forces every segment nonempty.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable
from typing import Sequence

from .errors import (
    InvalidDatumError,
    JacquetError,
    KindMismatchError,
    TwistFixednessWarning,
    UndeclaredReducibilityError,
    _checked,
)
from .grothendieck import GLMonomial, GUClass, TensorTerm, factor_to_obj
from .scalars import (
    CuspidalGLLabel,
    GroupMode,
    GUCuspidalLabel,
    HalfInt,
    Keyed,
    TRIVIAL_TWIST,
)
from .segments import Segment
from .structure import _coefficient

__all__ = [
    "JordSequence",
    "LJDatum",
    "SPConditions",
    "enumerate_jord",
    "build_inducing_rep",
    "check_inducing_constraints",
    "leading_term_multiplicity",
    "enumerate_sp",
    "validate_lj",
    "lj_to_obj",
    "lj_from_obj",
]


class JordSequence(Keyed):
    """One label's exponent sequence.  Construction is permissive; use
    ``validate_lj`` to check the classification conditions.  A ``rho`` that
    is not a ``CuspidalGLLabel``, or a bare str ``b``, raises ``KindMismatchError``."""

    __slots__ = ("rho", "a", "b", "key")

    def __init__(self, rho: CuspidalGLLabel, a: "HalfInt | int | str", b):
        _checked("a JordSequence", CuspidalGLLabel, (rho,))
        if isinstance(b, str):
            raise KindMismatchError(f"a JordSequence needs a sequence of bounds, got {b!r}")
        b = _checked("a JordSequence", (HalfInt, int, str), b)
        a, b = HalfInt(a), tuple(map(HalfInt, b))
        self._fill(rho, a, b, (rho.name, a.twice, tuple(x.twice for x in b)))

    @property
    def k(self) -> int:
        return len(self.b)

    def is_fully_empty(self) -> bool:
        """True for a well-formed sequence whose every slot carries the
        empty-segment encoding b_i = a - k + i - 1 (in particular for a
        label with k = 0).  Malformed sequences are never considered empty,
        so they still reach the validator."""
        if self.k != self.a.ceil():
            return False
        return all(
            bj == self.a - self.k + i - 1
            for i, bj in enumerate(self.b, start=1)
        )

    def segments(self) -> list:
        """The inducing segments [a - k + j, b_j], empty ones dropped."""
        out = []
        for j, bj in enumerate(self.b, start=1):
            seg = Segment(self.rho, self.a - self.k + j, bj)
            if not seg.is_empty:
                out.append(seg)
        return out

    def __str__(self):
        seq = ", ".join(str(x) for x in self.b)
        return f"{self.rho.name}: a={self.a}, b=({seq})"


class LJDatum(Keyed):
    """A full classification datum: one sequence per label, over one anchor.

    Sequences that are fully empty-encoded are dropped at construction: a
    label whose every slot holds the empty encoding contributes nothing to
    the inducing class, and the classification identifies such a sequence
    with the label being absent (otherwise the parametrization could not be
    injective: all-empty data over different labels induce the same bare
    anchor).  Entries that are not ``JordSequence``s, or an anchor that is
    not a ``GUCuspidalLabel``, raise ``KindMismatchError``.
    """

    __slots__ = ("jord", "sigma", "key")

    def __init__(self, jord, sigma: GUCuspidalLabel):
        jord = _checked("an LJDatum", JordSequence, jord)
        _checked("an LJDatum", GUCuspidalLabel, (sigma,))
        jord = tuple(j for j in jord if not j.is_fully_empty())
        self._fill(jord, sigma, (tuple(j.key for j in jord), sigma.name))

    def __str__(self):
        if not self.jord:
            return f"[] |x| {self.sigma.name}"
        body = "; ".join(str(j) for j in self.jord)
        return f"[{body}] |x| {self.sigma.name}"


class LJValidation(Keyed):
    """Per-condition outcome of ``validate_lj``."""

    __slots__ = ("checks", "key")

    def __init__(self, checks: tuple):  # of (condition, ok, message)
        self._fill(checks, checks)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def first_violation(self):
        for cond, ok, message in self.checks:
            if not ok:
                return cond, message
        return None

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"condition": c, "ok": ok, "message": m} for c, ok, m in self.checks
            ],
        }

    def __str__(self):
        """One line per condition, as ``check-lj`` prints them."""
        return "\n".join(f"  ({c}) {'pass' if ok else 'FAIL'}: {m}"
                         for c, ok, m in self.checks)


def _grid(a: HalfInt, max_b: HalfInt) -> list:
    """The admissible exponent values a - ceil(a), a - ceil(a) + 1, ..., <= max_b."""
    lo = a - a.ceil()
    out = []
    t = lo.twice
    while t <= max_b.twice:
        out.append(HalfInt.from_twice(t))
        t += 2
    return out


def enumerate_jord(rho: CuspidalGLLabel, a: "HalfInt | int",
                   max_b: "HalfInt | int", strict: bool = False) -> list:
    """All exponent sequences for one label, in lexicographic order.

    a = 0 contributes the single empty sequence.  A ``strict`` that is not
    a bool raises ``KindMismatchError``.
    """
    _checked("enumerate_jord strict", bool, (strict,))
    a = HalfInt(a)
    max_b = HalfInt(max_b)
    if a < 0:
        raise InvalidDatumError(f"reducibility point must be >= 0, got {a}")
    k = a.ceil()
    out = []
    for combo in itertools.combinations(_grid(a, max_b), k):
        if strict and any(bj < a - k + j for j, bj in enumerate(combo, start=1)):
            continue
        out.append(JordSequence(rho, a, combo))
    return out


def validate_lj(datum: LJDatum, strict: bool = False) -> LJValidation:
    """Check the classification conditions, reporting each clause.  A
    ``strict`` that is not a bool raises ``KindMismatchError``."""
    _checked("validate_lj", LJDatum, (datum,))
    _checked("validate_lj strict", bool, (strict,))
    checks = []

    names = [j.rho.name for j in datum.jord]
    msgs = []
    if len(set(names)) != len(names):
        msgs.append("labels are not mutually distinct")
    for j in datum.jord:
        if not j.rho.conj_self_dual:
            msgs.append(f"label {j.rho.name!r} is not conjugate self-dual")
        declared = datum.sigma.reducibility.get(j.rho)
        if declared is None:
            msgs.append(
                f"no reducibility declared for {j.rho.name!r} on {datum.sigma.name!r}"
            )
        elif declared != j.a:
            msgs.append(
                f"datum uses a={j.a} for {j.rho.name!r} but {datum.sigma.name!r} "
                f"declares {declared}"
            )
        elif not declared > 0:
            msgs.append(
                f"label {j.rho.name!r} has reducibility 0 and must be omitted"
            )
    checks.append(("i", not msgs, "; ".join(msgs) or "labels admissible"))

    msgs = []
    for j in datum.jord:
        if j.k != j.a.ceil():
            msgs.append(
                f"{j.rho.name!r}: sequence length {j.k} != ceil({j.a}) = "
                f"{j.a.ceil()}"
            )
    checks.append(("ii", not msgs, "; ".join(msgs) or "sequence lengths match"))

    msgs = []
    for j in datum.jord:
        for bj in j.b:
            if not (bj - j.a).is_integer():
                msgs.append(f"{j.rho.name!r}: {bj} - {j.a} is not an integer")
        if any(x >= y for x, y in zip(j.b, j.b[1:])):
            msgs.append(f"{j.rho.name!r}: exponents not strictly increasing")
        if j.b and not j.b[0] > -1:
            msgs.append(f"{j.rho.name!r}: first exponent {j.b[0]} is not > -1")
        if strict:
            for idx, bj in enumerate(j.b, start=1):
                if bj < j.a - j.k + idx:
                    msgs.append(
                        f"{j.rho.name!r}: exponent {bj} below the strict floor "
                        f"{j.a - j.k + idx}"
                    )
    checks.append(("iii", not msgs, "; ".join(msgs) or "exponent sequences valid"))

    return LJValidation(tuple(checks))


def build_inducing_rep(datum: LJDatum, strict: bool = False, *,
                       _segments=None) -> GUClass:
    """The canonical inducing class of a valid datum, with trivial twist.

    Warns when a contributing label lacks declared twist-fixedness, which
    the necessary conditions require for a strongly positive subclass to
    exist at all.  ``_segments`` is for ``enumerate_sp``: the
    ``segments()`` of each sequence of ``datum.jord``, already built.  A
    ``strict`` that is not a bool raises ``KindMismatchError``.
    """
    _checked("build_inducing_rep strict", bool, (strict,))
    report = validate_lj(datum, strict)
    if not report.ok:
        cond, message = report.first_violation
        raise InvalidDatumError(f"condition ({cond}) fails: {message}")
    if _segments is None:
        _segments = [j.segments() for j in datum.jord]
    segments = []
    for j, segs in zip(datum.jord, _segments):
        if segs and j.rho not in datum.sigma.twist_fixed:
            warnings.warn(
                f"label {j.rho.name!r} is not declared twist-fixed on "
                f"{datum.sigma.name!r}",
                TwistFixednessWarning,
                stacklevel=2,
            )
        segments.extend(segs)
    return GUClass(segments, datum.sigma, TRIVIAL_TWIST)


def check_inducing_constraints(segments: Sequence[Segment], a: "HalfInt | int") -> bool:
    """Constraints on the inducing segments of one label: starts must form
    a-k+1, ..., a; ends strictly increase; k <= ceil(a); all strongly
    positive.  ``segments`` must be sorted by start ascending."""
    a = HalfInt(a)
    segments = _checked("check_inducing_constraints", Segment, segments)
    k = len(segments)
    if k == 0:
        return True
    if k > a.ceil():
        return False
    for idx, seg in enumerate(segments, start=1):
        if seg.is_empty or not seg.is_strongly_positive():
            return False
        if seg.a != a - k + idx:
            return False
    ends = [seg.b for seg in segments]
    return all(x < y for x, y in zip(ends, ends[1:]))


class SPConditions(Keyed):
    """Necessary conditions for a cuspidal pair to carry strongly positive data."""

    __slots__ = ("rho", "sigma", "key")

    def __init__(self, rho: CuspidalGLLabel, sigma: GUCuspidalLabel):
        _checked("SPConditions", CuspidalGLLabel, (rho,))
        _checked("SPConditions", GUCuspidalLabel, (sigma,))
        self._fill(rho, sigma, (rho.name, sigma.name))

    @property
    def conj_self_dual(self) -> bool:
        return self.rho.conj_self_dual

    @property
    def twist_fixed(self) -> bool:
        return self.rho in self.sigma.twist_fixed

    @property
    def reducibility(self) -> "HalfInt | None":
        return self.sigma.reducibility.get(self.rho)

    @property
    def sp_possible(self) -> bool:
        return self.conj_self_dual and self.twist_fixed

    def __str__(self):
        return f"conj_self_dual={self.conj_self_dual}, twist_fixed={self.twist_fixed}"


def leading_term_multiplicity(datum: LJDatum, mode: GroupMode = GroupMode.GU,
                              strict: bool = False) -> int:
    """Coefficient of the leading tensor term in the shape-matched Jacquet
    module of the inducing class.  The value 1 is the uniqueness signature
    of a valid datum.  Invalid data are rejected before any computation,
    and a ``strict`` that is not a bool raises ``KindMismatchError``."""
    _checked("leading_term_multiplicity strict", bool, (strict,))
    return _leading_multiplicity(build_inducing_rep(datum, strict), mode)


def _leading_multiplicity(rep: GUClass, mode: GroupMode) -> int:
    """Coefficient of (each segment in its own block, bare anchor) in the
    Jacquet module of ``rep`` along its segment ranks, computed by
    ``_coefficient`` without building the module."""
    shape = tuple(seg.rank for seg in rep.segments)
    # Built trusted: each block is one canonical segment, the anchor bare.
    blocks = tuple(GLMonomial._trusted((seg,), (seg.key,)) for seg in rep.segments)
    anchor = GUClass._trusted((), rep.sigma, TRIVIAL_TWIST, ())
    target = TensorTerm._trusted(blocks + (anchor,),
                                 tuple(b.key for b in blocks) + (anchor.key,))
    return _coefficient(rep, shape, target, mode)


class SPEntry(Keyed):
    """One enumerated datum with its inducing class and diagnostics.  An
    argument of another kind raises ``KindMismatchError``."""

    __slots__ = ("datum", "inducing", "constraints_ok", "leading_multiplicity", "key")

    def __init__(self, datum: LJDatum, inducing: GUClass, constraints_ok: bool,
                 leading_multiplicity: int):
        _checked("an SPEntry datum", LJDatum, (datum,))
        _checked("an SPEntry inducing class", GUClass, (inducing,))
        _checked("an SPEntry constraints flag", bool, (constraints_ok,))
        _checked("an SPEntry multiplicity", int, (leading_multiplicity,))
        self._fill(datum, inducing, constraints_ok, leading_multiplicity,
                   (datum.key, inducing.key, constraints_ok, leading_multiplicity))

    def to_obj(self) -> dict:
        return {
            "datum": lj_to_obj(self.datum),
            "inducing": factor_to_obj(self.inducing),
            "diagnostics": {
                "constraints_ok": self.constraints_ok,
                "leading_multiplicity": self.leading_multiplicity,
            },
        }

    def __str__(self):
        """The datum's line in ``enum-sp`` output."""
        flags = "ok" if self.constraints_ok else "CONSTRAINT-FAIL"
        return (f"{self.datum}  ->  {self.inducing}   [{flags}, leading mult "
                f"{self.leading_multiplicity}]")


def _per_label_bounds(labels: Sequence[CuspidalGLLabel], max_b) -> list:
    if isinstance(max_b, (HalfInt, int, str)):
        return [HalfInt(max_b)] * len(labels)
    try:
        bounds = [HalfInt(x) for x in max_b]
    except TypeError:
        raise InvalidDatumError(f"max_b must be one bound or one per label, got {max_b!r}") from None
    if len(bounds) != len(labels):
        raise InvalidDatumError("one max_b bound per label is required")
    return bounds


def enumerate_sp(labels: Sequence[CuspidalGLLabel], sigma: GUCuspidalLabel,
                 max_b=5, mode: GroupMode = GroupMode.GU,
                 strict: bool = False) -> list:
    """Enumerate all data over the given labels up to the exponent bound.

    ``max_b`` may be a single bound (a ``HalfInt``, an int or a literal
    such as ``"5/2"``) or one bound per label.  Labels with
    reducibility 0 contribute nothing.  Output order is the lexicographic
    product order and is deterministic.  A label that is not a
    ``CuspidalGLLabel``, or an anchor that is not a ``GUCuspidalLabel``,
    raises ``KindMismatchError``, as does a ``strict`` that is not a bool;
    a repeated label, or a bound of another type, raises
    ``InvalidDatumError``.
    """
    labels = _checked("enumerate_sp", CuspidalGLLabel, labels)
    _checked("enumerate_sp", GUCuspidalLabel, (sigma,))
    _checked("enumerate_sp strict", bool, (strict,))
    if len(set(labels)) != len(labels):
        raise InvalidDatumError("condition (i) fails: labels are not mutually distinct")
    mode = GroupMode(mode)
    bounds = _per_label_bounds(labels, max_b)
    per_label = []
    for rho, bound in zip(labels, bounds):
        a = sigma.reducibility.get(rho)
        if a is None:
            raise UndeclaredReducibilityError(
                f"no reducibility declared for {rho.name!r} on {sigma.name!r}"
            )
        conditions = SPConditions(rho, sigma)
        if not conditions.sp_possible:
            raise InvalidDatumError(
                f"label {rho.name!r} fails the necessary conditions ({conditions})")
        per_label.append(enumerate_jord(rho, a, bound, strict))
    # Each sequence recurs in many data: build its segments once.
    segments_of = {j: j.segments() for jords in per_label for j in jords}
    entries = []
    for combo in itertools.product(*per_label):
        datum = LJDatum(combo, sigma)
        segments = [segments_of[j] for j in datum.jord]
        rep = build_inducing_rep(datum, strict, _segments=segments)
        ok = all(
            check_inducing_constraints(segs, j.a)
            for j, segs in zip(datum.jord, segments)
        )
        entries.append(SPEntry(datum, rep, ok, _leading_multiplicity(rep, mode)))
    return entries


# ---------------------------------------------------------------------------
# JSON form of a datum: {"sigma": name, "jord": [{"rho": name, "a": "p/2",
# "b": ["q/2", ...]}]}

def lj_to_obj(datum: LJDatum) -> dict:
    _checked("lj_to_obj", LJDatum, (datum,))
    return {
        "sigma": datum.sigma.name,
        "jord": [
            {"rho": j.rho.name, "a": str(j.a), "b": [str(x) for x in j.b]}
            for j in datum.jord
        ],
    }


def lj_from_obj(obj: dict, gl_resolver, gu_resolver) -> LJDatum:
    """Rebuild a datum from its JSON form, resolving names via callables.
    Raises ``JacquetError`` naming the entry for anything not of that form;
    an exponent is a string or an int, never a bool or a float."""
    _checked("lj_from_obj", Callable, (gl_resolver, gu_resolver))
    entries = obj.get("jord", []) if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not isinstance(obj.get("sigma"), str):
        raise JacquetError("the top level must be an object with a string 'sigma' "
                           "and a list 'jord'")
    jord = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("rho"), str):
            raise JacquetError(f"jord[{i}] must be an object with a string 'rho'")
        a, b = entry.get("a"), entry.get("b")
        if not isinstance(b, list) or any(type(x) not in (str, int) for x in [a, *b]):
            raise JacquetError(f"jord[{i}] ({entry['rho']!r}): 'a' must be a string "
                               "or an int and 'b' a list of those")
        jord.append(JordSequence(gl_resolver(entry["rho"]), a, b))
    return LJDatum(tuple(jord), gu_resolver(obj["sigma"]))
