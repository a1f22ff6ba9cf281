"""The paper's tables live in ``reference.py`` and a family's input rule
in ``factory.py``, each written once.

No module in ``src/msdsim`` but ``factory.py`` reads a layout's ``keys``
(an uncalled ``.keys`` attribute, or a ``distance_keys`` helper), so
which inputs a family takes is decided by ``factory.check_family_inputs``
alone.  No module but ``reference.py`` defines or builds a ``TableRow``.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "msdsim"
HOMES = {"keys": "factory.py", "TableRow": "reference.py"}


def _strays(source: str, filename: str) -> list[str]:
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, ast.ClassDef):
            name = node.name
        if (name == "keys" and isinstance(node, ast.Attribute)
                and id(node) not in called) or name == "distance_keys":
            what = "keys"
        elif name == "TableRow" and (isinstance(node, ast.ClassDef)
                                     or id(node) in called):
            what = "TableRow"
        else:
            continue
        if filename != HOMES[what]:
            found.append(f"{filename}:{node.lineno} {what}")
    return found


def test_each_rule_has_one_home():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [s for path in files
             for s in _strays(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_guard_sees_a_stray():
    # the command-line module once decided a family's inputs and held the
    # paper's rows
    for source in ("keys = distance_keys(family)",
                   'wanted = "dX2" in layout.keys',
                   "keys = LAYOUTS[family].keys",
                   "class TableRow:\n    family: str",
                   'row = TableRow("L1_15to1", (7, 3, 3))',
                   'row = reference.TableRow("L1_15to1", (7, 3, 3))'):
        assert _strays(source, "cli.py"), source
    assert _strays("keys = LAYOUTS[family].keys", "reference.py")
    assert _strays('row = TableRow("L1_15to1")', "factory.py")
    for source, filename in (
            ("keys = LAYOUTS[family].keys", "factory.py"),
            ('row = TableRow("L1_15to1", (7, 3, 3))', "reference.py"),
            ("names = sorted(table.keys())", "cli.py"),
            ("rows = [r for r in TABLE1 if isinstance(r, TableRow)]",
             "cli.py")):
        assert not _strays(source, filename), source
