"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "devilsmenu"


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so an invariant checked with one
    # goes unchecked there; the library raises real errors instead.
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_leaves_the_draw_odds_to_the_library():
    # The CLI formats what the library computes: the Monte Carlo rows take
    # their odds from mechanism.selection_odds, not from status_odds.
    imported = {alias.name
                for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "selection_odds" in imported and "status_odds" not in imported
