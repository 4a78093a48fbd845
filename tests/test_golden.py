"""Byte-for-byte CLI output against committed golden files.

The files in ``golden/`` pin canonical term order and formatting across
changes to the engine; regenerate one only for an intended output change,
with the command in ``GOLDENS``.
"""

from pathlib import Path

import pytest

from jacquet.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
MUSTAR = "d(1,2@rho) x d(-1/2,1/2@tau) x d(0,1@chi) |x| sigma"

GOLDENS = {
    "mustar_gu.json": ["mustar", MUSTAR, "--group", "GU", "--format", "json"],
    "mustar_u.json": ["mustar", MUSTAR, "--group", "U", "--format", "json"],
    "jacquet_2_2.txt": ["jacquet", "d(0,1@rho) x d(1,2@rho) |x| sigma",
                        "--shape", "2,2"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name, capsysbinary):
    assert run_command(GOLDENS[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
