"""Every function, class and method in ``src/msdsim`` has a caller there.

A definition counts as used when its name is read (as a name or an
attribute) somewhere in ``src/msdsim`` outside its own body.  Names are
matched without types, so the check can miss a dead helper that shares a
name with a used one, but it never flags a used one.  Dunder methods are
exempt: Python calls them.
"""
from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "msdsim"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(node, enclosing, definitions, reads):
    """Collect definition nodes, and the enclosing definitions of each read.

    ``reads`` maps a name to one set of enclosing definitions per read.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            definitions.append(child)
            _scan(child, enclosing | {child}, definitions, reads)
            continue
        if isinstance(child, ast.Name):
            reads[child.id].append(enclosing)
        elif isinstance(child, ast.Attribute):
            reads[child.attr].append(enclosing)
        _scan(child, enclosing, definitions, reads)


def test_every_definition_has_a_caller_in_src():
    reads, per_file = defaultdict(list), {}
    for path in sorted(SRC.glob("*.py")):
        per_file[path.name] = []
        _scan(ast.parse(path.read_text(encoding="utf-8")), frozenset(),
              per_file[path.name], reads)
    assert per_file
    dead = [
        f"{filename}:{node.lineno} {node.name}"
        for filename, definitions in per_file.items()
        for node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and all(node in enclosing for enclosing in reads[node.name])
    ]
    assert dead == []
