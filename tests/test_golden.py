"""Byte-for-byte CLI output against committed golden files.

The files in ``golden/`` pin canonical term order and formatting across
changes to the engine, and the JSON layout of every subcommand; regenerate
one only for an intended output change, with the command in ``GOLDENS``,
run in a directory holding the documents of ``FILES``.
"""

import json
from pathlib import Path

import pytest

from jacquet.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
MUSTAR = "d(1,2@rho) x d(-1/2,1/2@tau) x d(0,1@chi) |x| sigma"
JACQUET = "d(0,1@rho) x d(1,2@rho) |x| sigma"
# The anchor 1 |x| w_rho sigma shows nu 0 in one term and nu -1 in another.
NU_TRAP = "d(-1,-1@rho) x d(0,0@rho) |x| sigma"

# Input documents the commands read, written to the working directory.
FILES = {
    "decls.json": {
        "gl": [
            {"name": "rho", "dim": 1, "conj_self_dual": True},
            {"name": "rho2", "dim": 1, "conj_self_dual": True},
        ],
        "gu": [{
            "name": "sigma",
            "rank": 0,
            "reducibility": {"rho": "2", "rho2": "1/2"},
            "twist_fixed": ["rho", "rho2"],
        }],
    },
    "valid.json": {"sigma": "sigma",
                   "jord": [{"rho": "rho", "a": "2", "b": ["1", "2"]}]},
    "invalid.json": {"sigma": "sigma",
                     "jord": [{"rho": "rho", "a": "2", "b": ["2", "1"]}]},
}

# Golden file -> (exit code, argv).
GOLDENS = {
    "mustar_gu.json": (0, ["mustar", MUSTAR, "--group", "GU", "--format", "json"]),
    "mustar_u.json": (0, ["mustar", MUSTAR, "--group", "U", "--format", "json"]),
    "mustar_nu.json": (0, ["mustar", NU_TRAP, "--format", "json"]),
    "jacquet_2_2.txt": (0, ["jacquet", JACQUET, "--shape", "2,2"]),
    "jacquet_2_2.json": (0, ["jacquet", JACQUET, "--shape", "2,2", "--format", "json"]),
    "mstar.json": (0, ["mstar", "d(1,3@rho) x d(0,1@tau)", "--format", "json"]),
    "mult.json": (0, ["mult", JACQUET, "--shape", "2,2", "--term",
                      "d(0,1@rho) (x) d(1,2@rho) (x) 1 |x| sigma",
                      "--format", "json"]),
    "weyl_4_2_3.json": (0, ["weyl", "--n", "4", "--i1", "2", "--i2", "3",
                            "--oracle", "--format", "json"]),
    "enum_sp.json": (0, ["enum-sp", "--decls", "decls.json", "--sigma", "sigma",
                         "--rhos", "rho,rho2", "--max-b", "2", "--format", "json"]),
    "check_lj_valid.json": (0, ["check-lj", "--decls", "decls.json",
                                "--datum", "valid.json", "--format", "json"]),
    "check_lj_invalid.json": (1, ["check-lj", "--decls", "decls.json",
                                  "--datum", "invalid.json", "--format", "json"]),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name, tmp_path, monkeypatch, capsysbinary):
    for file, doc in FILES.items():
        (tmp_path / file).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, argv = GOLDENS[name]
    assert run_command(argv) == code
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
