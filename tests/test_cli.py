"""Expression language and command-line behavior."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import jacquet
from jacquet import ExpressionError, LabelRegistry
from jacquet.cli import main, make_resolvers
from jacquet.expressions import format_expression, parse_expression, parse_tensor_target
from helpers import h


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


@pytest.fixture
def decls_file(tmp_path):
    path = tmp_path / "decls.json"
    path.write_text(json.dumps(DECLS))
    return str(path)


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

    def test_mixed_parity_rejected(self, resolvers):
        gl, gu = resolvers
        with pytest.raises(ExpressionError):
            parse_expression("d(1/2,1@rho)", gl, gu)

    def test_dual_marker_resolves(self, resolvers):
        gl, gu = resolvers
        expr = parse_expression("d(0,0@chi~)", gl, gu)
        assert expr.gl_part[0].rho.name == "chi~"

    def test_tensor_target(self, resolvers):
        gl, gu = resolvers
        parts, anchor = parse_tensor_target(
            "d(1,1@rho) (x) d(2,2@rho) (x) 1 |x| sigma", gl, gu
        )
        assert len(parts) == 3 and parts[2] == ()
        assert anchor.name == "sigma"


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
            assert parse_expression(format_expression(expr), gl, gu) == expr


class TestCommands:
    def test_mustar_text(self, capsys):
        assert main(["mustar", "d(1,1@rho) |x| sigma"]) == 0
        out = capsys.readouterr().out
        assert "w_rho sigma" in out
        assert "(3 terms)" in out

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
    ])
    def test_malformed_declarations(self, doc, tmp_path, capsys):
        path = tmp_path / "decls.json"
        path.write_text(json.dumps(doc))
        code = main(["enum-sp", "--decls", str(path), "--sigma", "sigma",
                     "--rhos", "rho"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0]

    @pytest.mark.parametrize("cap, words", [
        ("50", ["mu_star", "51 terms", "JACQUET_MAX_TERMS (50 terms)"]),
        ("abc", ["JACQUET_MAX_TERMS", "'abc'"]),
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
