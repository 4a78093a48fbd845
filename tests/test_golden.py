"""Byte-for-byte CLI output against committed golden files.

The files in ``golden/`` pin canonical term order and formatting across
changes to the engine; regenerate one only for an intended output change,
with the command in ``GOLDENS``.
"""

from pathlib import Path

import pytest

from jacquet import structure
from jacquet.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
MUSTAR = "d(1,2@rho) x d(-1/2,1/2@tau) x d(0,1@chi) |x| sigma"

GOLDENS = {
    "mustar_gu.json": ["mustar", MUSTAR, "--group", "GU", "--format", "json"],
    "mustar_u.json": ["mustar", MUSTAR, "--group", "U", "--format", "json"],
    "jacquet_2_2.txt": ["jacquet", "d(0,1@rho) x d(1,2@rho) |x| sigma",
                        "--shape", "2,2"],
}


@pytest.fixture
def fresh_memos():
    """Run with empty per-segment memos, as a fresh ``jacquet`` process
    does, and leave them empty.  The memos are process-wide and match
    labels by name only, so a label ``chi`` declared not conjugate
    self-dual by another test would otherwise cross between that test and
    this one."""
    memos = (structure._mstar_big_segment, structure._mstar_gl_segment)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.mark.usefixtures("fresh_memos")
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name, capsysbinary):
    assert run_command(GOLDENS[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
