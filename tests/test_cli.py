"""Expression language and command-line behavior."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import jacquet
from jacquet import (
    CuspidalGLLabel,
    ExpressionError,
    FormalSum,
    GLMonomial,
    GroupMode,
    GUClass,
    GUCuspidalLabel,
    JacquetError,
    LabelRegistry,
    UnknownLabelError,
    jacquet_by_shape,
    mstar_big,
    mu_star,
)
from jacquet.cli import _sum_report, build_parser, main, make_resolvers, run_command
from jacquet.expressions import _tokenize, parse_expression, parse_tensor_target
from jacquet.grothendieck import sum_to_obj
from helpers import h, seg
from test_structure import _random_cases


@pytest.fixture
def resolvers():
    registry = LabelRegistry()
    registry.declare_gl("rho", 1, True)
    registry.declare_gl("tau", 2, True)
    registry.declare_gl("chi", 1, False)
    registry.declare_gu("sigma", 0)
    return make_resolvers(registry, permissive=False)


DECLS = {
    "gl": [
        {"name": "rho", "dim": 1, "conj_self_dual": True},
        {"name": "rho2", "dim": 1, "conj_self_dual": True},
    ],
    "gu": [
        {
            "name": "sigma",
            "rank": 0,
            "reducibility": {"rho": "2", "rho2": "1/2"},
            "twist_fixed": ["rho", "rho2"],
        }
    ],
}


# Deeper than the interpreter's recursion limit lets json.load decode.
OVER_NESTED = "[" * 100000 + "]" * 100000


@pytest.fixture
def decls_file(tmp_path):
    path = tmp_path / "decls.json"
    path.write_text(json.dumps(DECLS))
    return str(path)


def _handler(*argv):
    """Run one subcommand's handler directly, so its error propagates."""
    args = build_parser().parse_args(argv)
    return args.func(args)


class TestParser:
    def test_anchored_segment(self, resolvers):
        gl, gu = resolvers
        expr = parse_expression("d(1/2,5/2@rho) |x| sigma", gl, gu)
        assert len(expr.gl_part) == 1
        s = expr.gl_part[0]
        assert (s.a, s.b, s.rho.name) == (h(1), h(5), "rho")
        assert expr.gu_anchor.name == "sigma"

    def test_two_segments(self, resolvers):
        gl, gu = resolvers
        expr = parse_expression("d(1,1@rho) x d(2,2@rho) |x| sigma", gl, gu)
        assert len(expr.gl_part) == 2

    def test_reversed_bounds_rejected(self, resolvers):
        gl, gu = resolvers
        with pytest.raises(ExpressionError):
            parse_expression("d(2,1@rho)", gl, gu)

    def test_unit(self, resolvers):
        gl, gu = resolvers
        expr = parse_expression("1 |x| sigma", gl, gu)
        assert expr.gl_part == ()

    def test_whitespace_insignificant(self, resolvers):
        gl, gu = resolvers
        a = parse_expression("d( 1 , 2 @ rho )\n x d(3,3@rho)|x|sigma", gl, gu)
        b = parse_expression("d(1,2@rho) x d(3,3@rho) |x| sigma", gl, gu)
        assert a == b

    def test_error_position(self, resolvers):
        gl, gu = resolvers
        with pytest.raises(ExpressionError) as err:
            parse_expression("d(1,1@rho) ?", gl, gu)
        assert err.value.col == 12

    def test_unknown_label(self, resolvers):
        gl, gu = resolvers
        with pytest.raises(ExpressionError):
            parse_expression("d(1,1@ghost) |x| sigma", gl, gu)

    def test_only_decimal_digits_are_numbers(self, resolvers):
        gl, gu = resolvers
        with pytest.raises(ExpressionError) as err:
            parse_expression("d(\u00b2,1@rho) |x| sigma", gl, gu)
        assert str(err.value) == "1:3: unexpected character '\u00b2'"
        # Arabic-Indic three is a decimal digit
        expr = parse_expression("d(\u0663,\u0663@rho) |x| sigma", gl, gu)
        assert (expr.gl_part[0].a, expr.gl_part[0].b) == (h(6), h(6))

    def test_mixed_parity_rejected(self, resolvers):
        gl, gu = resolvers
        with pytest.raises(ExpressionError):
            parse_expression("d(1/2,1@rho)", gl, gu)

    def test_dual_marker_resolves(self, resolvers):
        gl, gu = resolvers
        expr = parse_expression("d(0,0@chi~)", gl, gu)
        assert expr.gl_part[0].rho.name == "chi~"

    def test_long_dual_marker_run(self, resolvers):
        gl, gu = resolvers
        assert gl("rho" + "~" * 2000).name == "rho"
        assert gl("chi" + "~" * 2001).name == "chi~"
        with pytest.raises(UnknownLabelError):
            gl("ghost" + "~" * 2000)

    @pytest.mark.parametrize("call, message", [
        (lambda gl, gu: parse_expression("d(1,1@rho", gl, gu),
         "1:10: expected ')' but found 'end of input'"),
        (lambda gl, gu: parse_expression("d(1/3,1@rho)", gl, gu),
         "1:5: only halves are allowed, found denominator 3"),
        (lambda gl, gu: parse_expression("e(1,1@rho)", gl, gu),
         "1:1: expected a segment 'd(...)' but found 'e'"),
        (lambda gl, gu: parse_expression("2 |x| sigma", gl, gu),
         "1:1: the only numeric glpart is the unit '1', found '2'"),
        (lambda gl, gu: parse_expression("d(1,1@rho) |x| sigma extra", gl, gu),
         "1:22: unexpected trailing input 'extra'"),
        (lambda gl, gu: parse_expression("d(1,1@rho) |x| tau", gl, gu),
         "1:16: unknown GU label 'tau'"),
        (lambda gl, gu: parse_expression("d(1,1@rho)", gl, gu).gu_class(),
         "1:1: expression has no |x| anchor"),
        (lambda gl, gu: _handler("mustar", "d(1,1@rho)"),
         "mustar needs an anchored expression 'glpart |x| sigma'"),
        (lambda gl, gu: _handler("mult", "d(1,1@rho) |x| sigma",
                                 "--term", "d(1,1@rho)", "--shape", "1"),
         "the multiplicity target must end with an anchored factor; "
         "write '... (x) 1 |x| sigma' for a bare anchor"),
    ])
    def test_error_messages(self, resolvers, call, message):
        with pytest.raises(JacquetError) as err:
            call(*resolvers)
        assert str(err.value) == message

    def test_tensor_target(self, resolvers):
        gl, gu = resolvers
        parts, anchor = parse_tensor_target(
            "d(1,1@rho) (x) d(2,2@rho) (x) 1 |x| sigma", gl, gu
        )
        assert len(parts) == 3 and parts[2] == ()
        assert anchor.name == "sigma"


# Tokens of the grammar as (kind, text), for the lexer position test.
_LEXEMES = [(p, p) for p in ("|x|", "(x)", "(", ")", ",", "@", "/", "-")] + [
    ("INT", t) for t in ("0", "1", "12", "\u0663")] + [
    ("IDENT", t) for t in ("d", "x", "rho", "chi~", "chi~~", "_r2", "\u03c3", "r\u00f6~")]
_GAPS = st.text(" \t\n", max_size=3)


def _merge(left, right) -> bool:
    """Whether two tokens written side by side would lex otherwise."""
    return (left[0] in ("INT", "IDENT") and right[0] in ("INT", "IDENT")
            or left[1] == "(" and right[1].startswith("x"))


class TestLexer:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_GAPS, st.sampled_from(_LEXEMES)), max_size=12), _GAPS)
    def test_positions_match_the_joined_offsets(self, pieces, tail):
        # Join the tokens, recording the 1-based line and column at which
        # each one starts; a space is forced where two tokens would merge.
        text, line, col, expected, prev = "", 1, 1, [], None

        def skip(gap):
            nonlocal line, col
            for ch in gap:
                line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)

        for gap, lexeme in pieces:
            if not gap and prev and _merge(prev, lexeme):
                gap = " "
            skip(gap)
            expected.append((*lexeme, line, col))
            text += gap + lexeme[1]
            col += len(lexeme[1])
            prev = lexeme
        skip(tail)
        expected.append(("EOF", "", line, col))
        assert _tokenize(text + tail) == expected

    @pytest.mark.parametrize("text, tokens", [
        ("chi~~", [("IDENT", "chi~~", 1, 1), ("EOF", "", 1, 6)]),
        ("\u03c3\u00e9~ ", [("IDENT", "\u03c3\u00e9~", 1, 1), ("EOF", "", 1, 5)]),
        ("d(\n\t1", [("IDENT", "d", 1, 1), ("(", "(", 1, 2), ("INT", "1", 2, 2),
                      ("EOF", "", 2, 3)]),
    ])
    def test_tokens(self, text, tokens):
        assert _tokenize(text) == tokens

    @pytest.mark.parametrize("text, message", [
        ("d(\u00bdx", "1:3: unexpected character '\u00bd'"),
        ("d(1,1@rho)\n x ?", "2:4: unexpected character '?'"),
        ("1 |x| sigma\n\n  |", "3:3: unexpected character '|'"),
    ])
    def test_errors(self, text, message):
        with pytest.raises(ExpressionError) as err:
            _tokenize(text)
        assert str(err.value) == message


class TestRoundTrip:
    def test_generated_expressions(self, resolvers):
        gl, gu = resolvers
        labels = ["rho", "tau", "chi"]
        rng = random.Random(2024)
        for _ in range(100):
            chunks = []
            for _ in range(rng.randrange(0, 4)):
                name = rng.choice(labels)
                start = rng.randrange(-6, 7)
                length = rng.randrange(1, 5)
                if rng.random() < 0.5:
                    a = f"{start}/2" if start % 2 else str(start // 2)
                    b_t = start + 2 * (length - 1)
                    b = f"{b_t}/2" if b_t % 2 else str(b_t // 2)
                else:
                    a, b = str(start), str(start + length - 1)
                chunks.append(f"d({a},{b}@{name})")
            text = " x ".join(chunks) if chunks else "1"
            if rng.random() < 0.7:
                text += " |x| sigma"
            expr = parse_expression(text, gl, gu)
            assert parse_expression(str(expr), gl, gu) == expr


def _sum_reports():
    """(command, shape, sum) for the byte-identity check of the sum writer:
    mu* of ``_random_cases`` in both modes, Jacquet modules along two of
    their smallest multi-block shapes, three-factor M* of their GL parts,
    chi/chi~ labels, names that need escapes, and the zero sum."""
    for g, shapes in _random_cases():
        for mode in GroupMode:
            yield "mustar", None, mu_star(g, mode)
            for shape in sorted((s for s in shapes if len(s) > 1), key=sum)[:2]:
                yield "jacquet", shape, jacquet_by_shape(g, shape, mode)
        yield "mstar", None, mstar_big(GLMonomial(g.segments))
    rho = CuspidalGLLabel('r\u00f6"', conj_self_dual=True)
    chi = CuspidalGLLabel("chi", conj_self_dual=False)
    sigma = GUCuspidalLabel("\u03c3", rank=1)
    g = GUClass([seg(rho, 0, 1), seg(chi, 0, 0), seg(chi.dual(), -1, 0)], sigma)
    yield "mustar", None, mu_star(g)
    yield "jacquet", (1, 2), jacquet_by_shape(g, (1, 2))
    yield "mstar", None, mstar_big(GLMonomial(g.segments))
    yield "mstar", None, FormalSum()


def test_sum_report_bytes_are_json_dumps():
    count = 0
    for command, shape, result in _sum_reports():
        doc = {"command": command, "group": "GU", "input": "x", "terms": sum_to_obj(result)}
        if shape is not None:
            doc["shape"] = list(shape)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _sum_report(argparse.Namespace(format="json", group="GU"), command, "x",
                        result, shape)
        assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        count += 1
    assert count > 100


def _num(twice: int) -> str:
    """The literal of the half-integer twice / 2."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


# Random argv for the four expression subcommands: short segments, runs of
# the grammar's tokens, junk shapes, both formats and both groups, each
# option sometimes left out or given a bad value.
_SEGMENTS = st.builds(
    lambda a, length, name: f"d({_num(a)},{_num(a + 2 * length - 2)}@{name})",
    st.integers(-3, 4), st.integers(0, 3),
    st.sampled_from(["rho", "rho~", "chi", "chi~", "tau", "sigma"]),
)
_TOKENS = st.lists(st.sampled_from(
    ["d(", ")", ",", "@", "/", "-", "0", "1", "2", "x", " x ", "|x|", "(x)", "rho",
     "chi~", "sigma", "~", " ", "d(0,1@rho)"]), max_size=10).map("".join)
_GL_PARTS = st.one_of(st.just("1"), st.lists(_SEGMENTS, min_size=1, max_size=3).map(" x ".join))
_EXPRS = st.one_of(_TOKENS, st.builds(
    lambda gl, anchor: gl + anchor, _GL_PARTS,
    st.sampled_from([" |x| sigma", " |x| sigma", " |x| sigma", "", " |x| tau", " |x|"])))
_TARGETS = st.one_of(_TOKENS, st.builds(
    lambda gls, anchor: " (x) ".join(gls) + anchor,
    st.lists(_GL_PARTS, min_size=1, max_size=3),
    st.sampled_from([" |x| sigma", " |x| sigma", "", " |x| sigma_fixed"])))
_SHAPES = st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda b: ",".join(map(str, b))),
    st.lists(st.integers(-1, 4), max_size=4).map(lambda b: ",".join(map(str, b))),
    st.sampled_from(["", ",", "x", "1,,1", "1.5", "-", "10**9"]),
)


@st.composite
def _argv(draw) -> list:
    command = draw(st.sampled_from(["mustar", "mstar", "jacquet", "mult"]))
    argv = [command]
    if draw(st.integers(0, 9)):
        argv.append(draw(_EXPRS))
    if command in ("jacquet", "mult") and draw(st.integers(0, 9)):
        argv += ["--shape", draw(_SHAPES)]
    if command == "mult" and draw(st.integers(0, 9)):
        argv += ["--term", draw(_TARGETS)]
    if command != "mstar" or not draw(st.integers(0, 9)):
        argv += draw(st.sampled_from([[], [], ["--group", "U"], ["--group", "GU"],
                                      ["--group", "V"]]))
    argv += draw(st.sampled_from([[], [], ["--format", "json"], ["--format", "text"],
                                  ["--format", "xml"]]))
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["mult", "d(0,1@rho) |x| sigma", "--shape", "1", "--term", "d(0,0@rho) (x)"])
@example(["jacquet", "d(0,2@rho) x d(1,3@rho) |x| sigma", "--shape", "1,1,1"])
def test_cli_fuzz_exits_with_a_documented_code(argv):
    # A tiny cap keeps every run small and sends some of them down the
    # TermLimitError path; no run may raise.
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"JACQUET_MAX_TERMS": "40"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


class TestCommands:
    def test_mustar_text(self, capsys):
        assert main(["mustar", "d(1,1@rho) |x| sigma"]) == 0
        out = capsys.readouterr().out
        assert "w_rho sigma" in out
        assert "(3 terms)" in out

    def test_dual_name_resolves_in_any_order(self, capsys):
        terms = []
        for expr in ("d(0,0@rho~) x d(1,1@rho) |x| sigma",
                     "d(1,1@rho) x d(0,0@rho~) |x| sigma"):
            assert main(["mustar", expr]) == 0
            terms.append(capsys.readouterr().out.splitlines()[1:])
        assert terms[0] == terms[1]

    def test_mustar_json_single_document(self, capsys):
        assert main(["mustar", "d(1,1@rho) |x| sigma", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "mustar"
        assert len(doc["terms"]) == 3

    def test_mustar_u_mode_untwisted(self, capsys):
        assert main(["mustar", "d(1,1@rho) |x| sigma", "--group", "U",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(t["term"][-1]["twist"] == {} for t in doc["terms"])

    def test_mstar_term_count(self, capsys):
        assert main(["mstar", "d(1,3@rho)", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["terms"]) == 4 * 5 // 2

    def test_mstar_stops_at_the_cap(self, capsys, monkeypatch):
        # M* of this product has 100 terms; it stops as the 51st enters.
        monkeypatch.setenv("JACQUET_MAX_TERMS", "50")
        assert main(["mstar", "d(0,2@rho) x d(1,3@rho)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: mstar_big: partial sum of 51 terms exceeds JACQUET_MAX_TERMS (50 terms)"]

    def test_jacquet(self, capsys):
        assert main(["jacquet", "d(1,1@rho) x d(2,2@rho) |x| sigma",
                     "--shape", "1,1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shape"] == [1, 1]
        assert all(len(t["term"]) == 3 for t in doc["terms"])

    def test_mult(self, capsys):
        code = main([
            "mult", "d(1,1@rho) x d(2,2@rho) |x| sigma",
            "--term", "d(1,1@rho) (x) d(2,2@rho) (x) 1 |x| sigma",
            "--shape", "1,1", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["multiplicity"] == 1

    def test_mult_under_a_cap_the_module_exceeds(self, capsys, monkeypatch):
        # The module, and mu* on the way to it, pass 10 terms; the fold of
        # the target-compatible pieces does not.
        expr = "d(0,1@rho) x d(1,2@rho) x d(2,3@rho) |x| sigma"
        monkeypatch.setenv("JACQUET_MAX_TERMS", "10")
        assert main(["jacquet", expr, "--shape", "2,2,2"]) == 1
        assert "JACQUET_MAX_TERMS (10 terms)" in capsys.readouterr().err
        assert main(["mult", expr, "--shape", "2,2,2", "--term",
                     "d(0,1@rho) (x) d(1,2@rho) (x) d(2,3@rho) (x) 1 |x| sigma"]) == 0
        assert capsys.readouterr().out.endswith("in r_[2, 2, 2]: 1\n")

    def test_mult_arity_check(self, capsys):
        code = main([
            "mult", "d(1,1@rho) |x| sigma",
            "--term", "d(1,1@rho) (x) 1 |x| sigma",
            "--shape", "1,1",
        ])
        assert code == 1

    def test_weyl_oracle(self, capsys):
        assert main(["weyl", "--n", "3", "--i1", "2", "--i2", "2",
                     "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out and "MISMATCH" not in out

    def test_weyl_json(self, capsys):
        assert main(["weyl", "--n", "2", "--i1", "1", "--i2", "1",
                     "--oracle", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["match"] is True
        assert len(doc["representatives"]) == 3

    def test_enum_sp(self, decls_file, capsys):
        assert main(["enum-sp", "--decls", decls_file, "--sigma", "sigma",
                     "--rhos", "rho", "--max-b", "3",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 6
        assert all(e["diagnostics"]["leading_multiplicity"] == 1
                   for e in doc["entries"])

    def test_check_lj_valid(self, decls_file, tmp_path, capsys):
        datum = {"sigma": "sigma",
                 "jord": [{"rho": "rho", "a": "2", "b": ["1", "2"]}]}
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        assert main(["check-lj", "--decls", decls_file,
                     "--datum", str(path)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_enum_sp_resolves_dual_names(self, decls_file, capsys):
        outs = []
        for rhos in ("rho", "rho~"):
            assert main(["enum-sp", "--decls", decls_file, "--sigma", "sigma",
                         "--rhos", rhos, "--max-b", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_check_lj_resolves_dual_names(self, decls_file, tmp_path, capsys):
        datum = {"sigma": "sigma",
                 "jord": [{"rho": "rho~", "a": "2", "b": ["1", "2"]}]}
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        assert main(["check-lj", "--decls", decls_file,
                     "--datum", str(path)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_declared_partner_in_either_order(self, tmp_path, capsys):
        outs = []
        for names in (("chi",), ("chi", "chi~"), ("chi~", "chi")):
            path = tmp_path / "decls.json"
            path.write_text(json.dumps({
                "gl": [{"name": n, "conj_self_dual": False} for n in names],
                "gu": [{"name": "sigma"}],
            }))
            assert main(["mustar", "d(0,1@chi) x d(0,0@chi~) |x| sigma",
                         "--decls", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert "w_chi~ " in outs[0] and "chi~~" not in outs[0]

    def test_tilde_names_resolve_in_declarations(self, decls_file, tmp_path, capsys):
        doc = json.loads(json.dumps(DECLS))
        doc["gu"][0]["reducibility"] = {"rho~": "2", "rho2": "1/2"}
        doc["gu"][0]["twist_fixed"] = ["rho~", "rho2~~"]
        path = tmp_path / "tilde.json"
        path.write_text(json.dumps(doc))
        outs = []
        for decls in (decls_file, str(path)):
            assert main(["enum-sp", "--decls", decls, "--sigma", "sigma",
                         "--rhos", "rho,rho2", "--max-b", "2"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_enum_sp_strips_spaces_around_rho_names(self, decls_file, fmt, capsys):
        outs = []
        for rhos in ("rho,rho2", "rho, rho2", " rho ,  rho2 ,"):
            assert main(["enum-sp", "--decls", decls_file, "--sigma", "sigma",
                         "--rhos", rhos, "--max-b", "2", "--format", fmt]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("max_b", ["1", "3"])
    @pytest.mark.parametrize("rhos", ["rho,rho", "rho,rho~"])
    def test_enum_sp_refuses_a_repeated_label(self, decls_file, rhos, max_b, capsys):
        assert main(["enum-sp", "--decls", decls_file, "--sigma", "sigma",
                     "--rhos", rhos, "--max-b", max_b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: condition (i) fails: "
                                "labels are not mutually distinct\n")

    def test_unknown_tilde_name_reported_as_typed(self, decls_file, capsys):
        assert main(["enum-sp", "--decls", decls_file, "--sigma", "sigma",
                     "--rhos", "ghost~"]) == 1
        assert capsys.readouterr().err == "error: unknown GL label 'ghost~'\n"
        assert main(["mustar", "d(0,0@ghost~~) |x| sigma", "--decls", decls_file]) == 1
        assert capsys.readouterr().err == "error: 1:7: unknown GL label 'ghost~~'\n"

    def test_check_lj_invalid(self, decls_file, tmp_path, capsys):
        datum = {"sigma": "sigma",
                 "jord": [{"rho": "rho", "a": "2", "b": ["2", "1"]}]}
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        assert main(["check-lj", "--decls", decls_file,
                     "--datum", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_label_with_decls(self, decls_file, capsys):
        code = main(["mustar", "d(1,1@ghost) |x| sigma", "--decls", decls_file])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["mustar"]) == 2
        assert main(["no-such-command"]) == 2

    def test_domain_error_exit_code(self, capsys):
        assert main(["mustar", "d(2,1@rho) |x| sigma"]) == 1
        assert main(["jacquet", "d(1,1@rho) |x| sigma", "--shape", "5"]) == 1
        capsys.readouterr()
        assert main(["jacquet", "d(0,1@rho) |x| sigma", "--shape", "1,0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("shape, message", [
        ("1_1", "error: invalid shape '1_1'; expected n1,n2,..."),
        ("+1", "error: invalid shape '+1'; expected n1,n2,..."),
        ("0", "error: shape blocks must be positive ints, got (0,)"),
        ("-1", "error: shape blocks must be positive ints, got (-1,)"),
    ])
    def test_shape_blocks_are_decimal_ints(self, shape, message, capsys):
        assert main(["jacquet", "d(0,1@rho) |x| sigma", "--shape", shape]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    @pytest.mark.parametrize("doc", [
        [{"name": "rho"}],
        {"gl": [{"dim": 1}]},
        {"gl": [{"name": 3}]},
        {"gl": {"name": "rho"}},
        {"gl": ["rho"]},
        {"gl": [{"name": "rho"}], "gu": [{"rank": 0}]},
        {"gl": [{"name": "rho", "dim": "2"}]},
        {"gl": [{"name": "rho", "dim": 0}]},
        {"gl": [{"name": "rho", "conj_self_dual": "yes"}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "rank": True}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "reducibility": ["rho"]}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "reducibility": {"rho": [2]}}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "reducibility": {"rho": "x"}}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "twist_fixed": "rho"}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "twist_fixed": [1]}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "reducibility": {"ghost": "1"}}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "twist_fixed": ["ghost"]}]},
        {"gl": [{"name": "rho"}], "gu": [{"name": "sigma", "reducibility": {"rho": 2.0}}]},
        {"gl": [{"name": "rho"}, {"name": "rho", "dim": 2}]},
        "not json",
        {"gl": [{"name": "rho"}, {"name": "rho~", "conj_self_dual": False}]},
        pytest.param(OVER_NESTED, id="over-nested"),
    ])
    def test_malformed_declarations(self, doc, tmp_path, capsys):
        path = tmp_path / "decls.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(["enum-sp", "--decls", str(path), "--sigma", "sigma",
                     "--rhos", "rho"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0]

    @pytest.mark.parametrize("doc", [
        [{"sigma": "sigma"}],
        {"jord": [{"rho": "rho", "a": "2", "b": ["1", "2"]}]},
        {"sigma": 3, "jord": []},
        {"sigma": "sigma", "jord": {"rho": "rho"}},
        {"sigma": "sigma", "jord": ["rho"]},
        {"sigma": "sigma", "jord": [{"a": "2", "b": ["1", "2"]}]},
        {"sigma": "sigma", "jord": [{"rho": "rho", "b": ["1", "2"]}]},
        {"sigma": "sigma", "jord": [{"rho": "rho", "a": 2.0, "b": ["1", "2"]}]},
        {"sigma": "sigma", "jord": [{"rho": "rho", "a": True, "b": ["1", "2"]}]},
        {"sigma": "sigma", "jord": [{"rho": "rho", "a": "2"}]},
        {"sigma": "sigma", "jord": [{"rho": "rho", "a": "2", "b": "12"}]},
        {"sigma": "sigma", "jord": [{"rho": "rho", "a": "2", "b": ["1", 2.5]}]},
        {"sigma": "sigma", "jord": [{"rho": "rho", "a": "2", "b": ["1", None]}]},
        {"sigma": "sigma", "jord": [{"rho": "rho", "a": "x", "b": ["1", "2"]}]},
        {"sigma": "sigma", "jord": [{"rho": "ghost", "a": "2", "b": ["1", "2"]}]},
        {"sigma": "ghost", "jord": []},
        "not json",
        pytest.param(OVER_NESTED, id="over-nested"),
    ])
    def test_malformed_datum(self, doc, decls_file, tmp_path, capsys):
        path = tmp_path / "datum.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(["check-lj", "--decls", decls_file, "--datum", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0]

    @pytest.mark.parametrize("cap, words", [
        ("50", ["mu_star", "51 terms", "JACQUET_MAX_TERMS (50 terms)"]),
        ("abc", ["JACQUET_MAX_TERMS", "'abc'"]),
        ("0", ["JACQUET_MAX_TERMS", "positive", "'0'"]),
        ("-1", ["JACQUET_MAX_TERMS", "positive", "'-1'"]),
    ])
    def test_term_cap_exit(self, cap, words):
        src = str(Path(jacquet.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, JACQUET_MAX_TERMS=cap,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run(
            [sys.executable, "-m", "jacquet", "mustar",
             "d(0,2@rho) x d(1,3@rho) |x| sigma"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        for word in words:
            assert word in err[0]

    def test_errors_go_to_stderr(self, capsys):
        main(["mustar", "d(2,1@rho) |x| sigma"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
