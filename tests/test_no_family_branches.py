"""No code in ``src/msdsim`` tells the factory families apart by name,
except the family table, ``factory.LAYOUTS``.

A family-name string (as ``FAMILIES`` spells it, or lower-cased as the
CLI does) may not be an operand of a comparison, nor sit in a tuple, list
or set that is one, nor key a dict literal other than ``LAYOUTS``.  Names
passed as data, such as the family of a ``cli.TABLE1`` row or the block
that ``level1_output_error`` builds, are allowed.
"""
from __future__ import annotations

import ast
from pathlib import Path

from msdsim.factory import FAMILIES

SRC = Path(__file__).resolve().parent.parent / "src" / "msdsim"
NAMES = set(FAMILIES) | {f.lower() for f in FAMILIES}
TABLE = ("factory.py", "LAYOUTS")


def _names(node) -> bool:
    """Whether a node is a family name, or a literal collection holding
    one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in NAMES


def _branches(source: str, filename: str) -> list[str]:
    tree = ast.parse(source)
    table = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and (filename, getattr(node.targets[0], "id", None)) == TABLE]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            if any(_names(o) for o in [node.left, *node.comparators]):
                found.append(f"{filename}:{node.lineno} compares a family")
        elif isinstance(node, ast.Dict) and node not in table:
            if any(k is not None and _names(k) for k in node.keys):
                found.append(f"{filename}:{node.lineno} keys a dict by "
                             "family")
    return found


def test_no_family_branch_outside_the_table():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [b for path in files
             for b in _branches(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_guard_sees_a_branch():
    for source in ('x = family == "L2_15xCCZ"',
                   'x = family in ("L1_15to1", "L1_15to1_small")',
                   'x = "l2_15x20" != family',
                   'x = {"L2_15x15": 7.5}[family]',
                   'LAYOUTS = {"L2_15x15": 7.5}'):
        assert _branches(source, "cli.py"), source
    for source in ('row = TableRow("L1_15to1", (7, 3, 3))',
                   'LAYOUTS = {"L1_15to1": Layout("fifteen_to_one")}',
                   'x = family == "fifteen_to_one"'):
        assert not _branches(source, "factory.py"), source
