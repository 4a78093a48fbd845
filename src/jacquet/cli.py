"""Command-line front end.

Subcommands::

    mustar EXPR          full comultiplication of an anchored class
    mstar EXPR           three-factor comultiplication of the GL part
    jacquet EXPR --shape n1,n2,...   Jacquet module along a block shape
    mult EXPR --term T --shape ...   multiplicity of one tensor term
    weyl --n N --i1 A --i2 B [--oracle]   double-coset representatives
    enum-sp --decls F --sigma S --rhos R,...  classification enumeration
    check-lj --decls F --datum F     validate a classification datum

Exit codes: 0 success, 1 domain error (including an invalid datum in
``check-lj``), 2 usage error.  Diagnostics go to stderr.  With ``--format
json`` one document goes to stdout, in the bytes of ``json.dumps(doc,
indent=2, sort_keys=True)``; sum reports write its ``terms`` straight
from the sum.

Labels resolve against a declarations file (``--decls``).  Without one,
expression commands fall back to implicit declarations: segment labels
become rank-1 conjugate-self-dual GL labels and anchors become rank-0
cuspidal labels with nothing declared.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

# The engine modules are imported inside the commands that run them, so
# a command loads and compiles only its own modules.
from .errors import JacquetError, UnknownLabelError
from .scalars import DUAL_MARKER, GroupMode, HalfInt, LabelRegistry

__all__ = ["main", "run_command", "load_declarations", "make_resolvers"]


# Optional entry fields: the check a value must pass and what it must be.
_FIELDS = {
    "reducibility": (
        lambda v: isinstance(v, dict) and all(
            type(x) in (str, int) for x in v.values()
        ),
        "an object of name -> string or int",
    ),
    "twist_fixed": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
}


def _declared(path: str, data: dict, section: str) -> list:
    """The ``section`` entries of a declarations document, schema-checked,
    as (where, entry) with ``where`` naming the file and the entry."""
    entries = data.get(section, [])
    if not isinstance(entries, list):
        raise JacquetError(f"{path}: {section!r} must be a list of objects")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise JacquetError(
                f"{path}: {section}[{i}] must be an object with a string 'name'"
            )
        where = f"{path}: {section}[{i}] ({entry['name']!r})"
        for field, (ok, kind) in _FIELDS.items():
            if field in entry and not ok(entry[field]):
                raise JacquetError(f"{where}: {field!r} must be {kind}")
        out.append((where, entry))
    return out


def load_declarations(path: str) -> LabelRegistry:
    """Read a declarations JSON file into a fresh registry."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise JacquetError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise JacquetError(f"{path}: the top level must be a JSON object")
    registry = LabelRegistry()
    for where, entry in _declared(path, data, "gl"):
        try:
            registry.declare_gl(
                entry["name"], entry.get("dim", 1), entry.get("conj_self_dual", True)
            )
        except JacquetError as exc:
            raise JacquetError(f"{where}: {exc}") from None
    for where, entry in _declared(path, data, "gu"):
        try:
            reducibility = {
                registry.gl(name): HalfInt(value)
                for name, value in entry.get("reducibility", {}).items()
            }
            twist_fixed = {registry.gl(name) for name in entry.get("twist_fixed", ())}
            registry.declare_gu(
                entry["name"], entry.get("rank", 0), reducibility, twist_fixed
            )
        except JacquetError as exc:
            raise JacquetError(f"{where}: {exc}") from None
    return registry


def make_resolvers(registry: LabelRegistry, permissive: bool):
    """Name -> label callables; permissive mode auto-declares an unknown
    name's base (the name without trailing ``~``) with defaults."""

    def resolve_gl(name: str):
        try:
            return registry.gl(name)
        except UnknownLabelError:
            if not permissive:
                raise
            registry.declare_gl(name.rstrip(DUAL_MARKER))
            return registry.gl(name)

    def resolve_gu(name: str):
        try:
            return registry.gu(name)
        except UnknownLabelError:
            if permissive:
                return registry.declare_gu(name)
            raise

    return resolve_gl, resolve_gu


def _registry_for(args) -> tuple:
    if getattr(args, "decls", None):
        registry = load_declarations(args.decls)
        return make_resolvers(registry, permissive=False)
    return make_resolvers(LabelRegistry(), permissive=True)


def _anchored(args) -> tuple:
    """(expression, GL resolver, GU resolver) for ``args.expr``, which the
    command needs to be anchored."""
    from .expressions import parse_expression

    gl, gu = _registry_for(args)
    expr = parse_expression(args.expr, gl, gu)
    if expr.gu_anchor is None:
        raise JacquetError(
            f"{args.command} needs an anchored expression 'glpart |x| sigma'")
    return expr, gl, gu


def _mode(args) -> GroupMode:
    return GroupMode[getattr(args, "group", "GU")]


_SHAPE_BLOCK = re.compile(r"-?\d+")


def _parse_shape(text: str) -> tuple:
    """The blocks of ``n1,n2,...``, each an optional ``-`` and decimal
    digits; ``jacquet_by_shape`` rejects a block that is not positive."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not all(_SHAPE_BLOCK.fullmatch(part) for part in parts):
        raise JacquetError(f"invalid shape {text!r}; expected n1,n2,...")
    return tuple(map(int, parts))


def _wants_json(args) -> bool:
    return getattr(args, "format", "text") == "json"


_encode_str = json.encoder.encode_basestring_ascii


def _block(brackets: str, members, pad: str) -> str:
    """A container at indent ``pad`` holding the member texts ``members``,
    laid out as by ``json.dumps(..., indent=2)``."""
    if not members:
        return brackets
    inner = f"\n{pad}  "
    return f"{brackets[0]}{inner}{(',' + inner).join(members)}\n{pad}{brackets[1]}"


def _terms_text(s: FormalSum) -> str:
    """The ``sum_to_obj(s)`` list of a sum of tensor terms, written from the
    sum as it sits in a report: terms at indent 4, factors at 8, segments at
    12.  Each distinct segment and factor is rendered once; an anchor's memo
    key adds its twist's entries, whose printed ``nu`` sums ``key`` omits."""
    from .grothendieck import GUClass

    segments: dict = {}
    factors: dict = {}

    def seg_text(seg) -> str:
        text = segments.get(seg.key)
        if text is None:
            fields = (("a", str(seg.a)), ("b", str(seg.b)), ("rho", seg.rho.name))
            text = segments[seg.key] = _block(
                "{}", [f'"{k}": {_encode_str(v)}' for k, v in fields], " " * 12)
        return text

    def factor_text(f) -> str:
        memo = (f.key, f.twist.entries) if isinstance(f, GUClass) else f.key
        text = factors.get(memo)
        if text is None:
            members = [f'"segments": {_block("[]", [*map(seg_text, f.segments)], " " * 10)}']
            if isinstance(f, GUClass):
                twist = [f"{_encode_str(name)}: " + _block(
                    "{}", (f'"exp": {exp}', f'"nu": {_encode_str(str(nu))}'), " " * 12)
                    for name, exp, nu in f.twist.entries]
                members += (f'"sigma": {_encode_str(f.sigma.name)}',
                            '"twist": ' + _block("{}", twist, " " * 10))
            text = factors[memo] = _block("{}", members, " " * 8)
        return text

    def term_text(term, mult) -> str:
        factor_texts = _block("[]", [*map(factor_text, term.factors)], " " * 6)
        return _block("{}", (f'"mult": {mult}', f'"term": {factor_texts}'), " " * 4)

    return _block("[]", [term_text(term, mult) for term, mult in s.sorted_items()], "  ")


def _emit(args, obj: "dict | None", text_lines) -> None:
    if _wants_json(args):
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _sum_report(args, command: str, expr: Expression, result: FormalSum,
                shape=None) -> None:
    """Print ``result`` in the format asked for, building only that form;
    a ``shape`` goes into the JSON and the header."""
    text = str(expr)
    group = getattr(args, "group", "GU")
    if _wants_json(args):
        obj = {"command": command, "group": group, "input": text}
        if shape is not None:
            obj["shape"] = list(shape)
        head = json.dumps(obj, indent=2, sort_keys=True)  # "terms" sorts last
        print(f'{head[:-2]},\n  "terms": {_terms_text(result)}\n}}')
        return
    if shape is None:
        lines = [f"{command} of {text} [{group}]:"]
    else:
        lines = [f"{command} module of {text} along {list(shape)}:"]
    for term, mult in result.sorted_items():
        prefix = "" if mult == 1 else f"{mult}*"
        lines.append(f"  {prefix}{term}")
    lines.append(f"  ({len(result)} terms)")
    _emit(args, None, lines)


def _cmd_mustar(args) -> int:
    from .structure import mu_star

    expr, _, _ = _anchored(args)
    result = mu_star(expr.gu_class(), _mode(args))
    _sum_report(args, "mustar", expr, result)
    return 0


def _cmd_mstar(args) -> int:
    from .expressions import parse_expression
    from .structure import mstar_big

    gl, gu = _registry_for(args)
    expr = parse_expression(args.expr, gl, gu)
    result = mstar_big(expr.gl_monomial())
    _sum_report(args, "mstar", expr, result)
    return 0


def _cmd_jacquet(args) -> int:
    from .structure import jacquet_by_shape

    expr, _, _ = _anchored(args)
    shape = _parse_shape(args.shape)
    result = jacquet_by_shape(expr.gu_class(), shape, _mode(args))
    _sum_report(args, "jacquet", expr, result, shape)
    return 0


def _cmd_mult(args) -> int:
    from .expressions import parse_tensor_target, target_term
    from .structure import _coefficient

    expr, gl, gu = _anchored(args)
    shape = _parse_shape(args.shape)
    parts, anchor = parse_tensor_target(args.term, gl, gu)
    if anchor is None:
        raise JacquetError(
            "the multiplicity target must end with an anchored factor; "
            "write '... (x) 1 |x| sigma' for a bare anchor"
        )
    term = target_term(parts, anchor)
    if term.arity != len(shape) + 1:
        raise JacquetError(
            f"target has {term.arity} factors but shape {list(shape)} "
            f"needs {len(shape) + 1}"
        )
    mult = _coefficient(expr.gu_class(), shape, term, _mode(args))
    obj = {
        "command": "mult",
        "group": args.group,
        "input": str(expr),
        "shape": list(shape),
        "target": str(term),
        "multiplicity": mult,
    }
    _emit(args, obj, [f"multiplicity of {term} in r_{list(shape)}: {mult}"])
    return 0


def _cmd_weyl(args) -> int:
    from .weyl import brute_force_coset_reps, enumerate_geom_params, q_rep

    params_list = enumerate_geom_params(args.n, args.i1, args.i2)
    reps = [q_rep(params) for params in params_list]
    entries = [{
        "d": params.d,
        "k": params.k,
        "cycles": w.cycles(),
        "signs": list(w.signs),
        "window": list(w.window),
    } for params, w in zip(params_list, reps)]
    obj = {
        "command": "weyl",
        "n": args.n,
        "i1": args.i1,
        "i2": args.i2,
        "representatives": entries,
    }
    lines = [f"representatives for n={args.n}, i1={args.i1}, i2={args.i2}:"]
    for e in entries:
        signs = "".join("+" if s == 1 else "-" for s in e["signs"])
        lines.append(
            f"  d={e['d']} k={e['k']}  perm {e['cycles']}  signs {signs}"
            f"  window {e['window']}"
        )
    if args.oracle:
        oracle = brute_force_coset_reps(args.n, args.i1, args.i2)
        closed = set(reps)
        match = oracle == closed
        obj["oracle"] = {
            "match": match,
            "closed_count": len(closed),
            "oracle_count": len(oracle),
            "closed_only": sorted(
                [list(w.window) for w in closed - oracle]
            ),
            "oracle_only": sorted(
                [list(w.window) for w in oracle - closed]
            ),
        }
        lines.append("MATCH" if match else "MISMATCH")
        if not match:
            lines.append(f"  closed-form only: {obj['oracle']['closed_only']}")
            lines.append(f"  oracle only:      {obj['oracle']['oracle_only']}")
    _emit(args, obj, lines)
    return 0


def _cmd_enum_sp(args) -> int:
    from .spclassifier import enumerate_sp

    gl, gu = _registry_for(args)
    sigma = gu(args.sigma)
    rhos = [gl(name) for name in map(str.strip, args.rhos.split(",")) if name]
    entries = enumerate_sp(
        rhos, sigma, HalfInt(args.max_b), _mode(args), strict=args.strict_jord
    )
    obj = {
        "command": "enum-sp",
        "group": args.group,
        "sigma": args.sigma,
        "rhos": [rho.name for rho in rhos],
        "max_b": args.max_b,
        "strict": args.strict_jord,
        "count": len(entries),
        "entries": [e.to_obj() for e in entries],
    }
    lines = [f"{len(entries)} data for sigma={args.sigma}, rhos={obj['rhos']}:"]
    lines += [f"  {e}" for e in entries]
    _emit(args, obj, lines)
    return 0


def _cmd_check_lj(args) -> int:
    from .spclassifier import lj_from_obj, validate_lj

    gl, gu = _registry_for(args)
    try:
        with open(args.datum, encoding="utf-8") as handle:
            datum_obj = json.load(handle)
        datum = lj_from_obj(datum_obj, gl, gu)
    except (JacquetError, ValueError, RecursionError) as exc:
        raise JacquetError(f"{args.datum}: {exc}") from None
    report = validate_lj(datum, strict=args.strict_jord)
    obj = {"command": "check-lj", "datum": datum_obj, **report.to_obj()}
    _emit(args, obj, [f"datum {datum}:", str(report)])
    return 0 if report.ok else 1


def _add_common(sub, decls=True, group=True):
    if decls:
        sub.add_argument("--decls", help="declarations JSON file")
    if group:
        sub.add_argument("--group", choices=("GU", "U"), default="GU",
                         help="twist semantics (default GU)")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacquet",
        description="Exact Jacquet-module calculus for even (general) "
                    "unitary groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mustar", help="full comultiplication of a class")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(func=_cmd_mustar)

    p = subs.add_parser("mstar", help="three-factor comultiplication of the GL part")
    p.add_argument("expr")
    _add_common(p, group=False)
    p.set_defaults(func=_cmd_mstar)

    p = subs.add_parser("jacquet", help="Jacquet module along a block shape")
    p.add_argument("expr")
    p.add_argument("--shape", required=True, help="comma-separated block ranks")
    _add_common(p)
    p.set_defaults(func=_cmd_jacquet)

    p = subs.add_parser("mult", help="multiplicity of a tensor term")
    p.add_argument("expr")
    p.add_argument("--term", required=True, help="target, factors joined by (x)")
    p.add_argument("--shape", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_mult)

    p = subs.add_parser("weyl", help="double-coset representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i1", type=int, required=True)
    p.add_argument("--i2", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="compare against the exhaustive search")
    _add_common(p, decls=False, group=False)
    p.set_defaults(func=_cmd_weyl)

    p = subs.add_parser("enum-sp", help="enumerate classification data")
    p.add_argument("--decls", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--rhos", required=True, help="comma-separated GL label names")
    p.add_argument("--max-b", dest="max_b", default="5",
                   help="exponent bound, a half-integer literal (default 5)")
    p.add_argument("--strict-jord", dest="strict_jord", action="store_true",
                   help="forbid empty-segment exponents")
    _add_common(p, decls=False)
    p.set_defaults(func=_cmd_enum_sp)

    p = subs.add_parser("check-lj", help="validate a classification datum")
    p.add_argument("--decls", required=True)
    p.add_argument("--datum", required=True, help="datum JSON file")
    p.add_argument("--strict-jord", dest="strict_jord", action="store_true")
    _add_common(p, decls=False, group=False)
    p.set_defaults(func=_cmd_check_lj)

    return parser


def run_command(argv) -> int:
    """Parse and run one invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (JacquetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)
