"""Every function, class and method in ``src/msdsim`` has a caller there,
and every defaulted parameter a caller that sets it.

A definition counts as used when its name is read (as a name or an
attribute) somewhere in ``src/msdsim`` outside its own body.  Names are
matched without types, so the check can miss a dead helper that shares a
name with a used one, but it never flags a used one.  Dunder methods are
exempt: Python calls them.

A defaulted parameter counts as set when a call in ``src/msdsim`` outside
its function's body, matched by name, passes it by keyword or by
position; a call through a class name calls its ``__init__``.
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


# Parameters with a default that only a caller outside ``src`` passes:
# ``cli.main``'s ``argv`` is the console entry point's, which tests and
# the benchmark pass.
ENTRY_POINTS = {("cli.py", "main", "argv")}


def _scan_calls(node, enclosing, calls):
    """Map each callee name to (call, enclosing definitions) pairs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = getattr(func, "id", getattr(func, "attr", None))
            calls[name].append((child, enclosing))
        if isinstance(child, DEFINITIONS):
            _scan_calls(child, enclosing | {child}, calls)
        else:
            _scan_calls(child, enclosing, calls)


def _defaulted(node, in_class):
    """(name, position among the positional arguments a call passes, or
    None for keyword-only) of each parameter with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in node.decorator_list)
    bound = int(in_class and not static)  # self or cls
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], first):
        yield a.arg, i - bound
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _passes(call, name, position) -> bool:
    """Whether a call passes the parameter, by keyword or by position."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def test_every_default_is_overridden_in_src():
    # a defaulted parameter that no call in src passes is a knob with one
    # value, which a constant states more plainly
    calls, defs = defaultdict(list), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _scan_calls(tree, frozenset(), calls)
        for owner in ast.walk(tree):
            in_class = isinstance(owner, ast.ClassDef)
            for node in ast.iter_child_nodes(owner):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a call through a class name calls its __init__
                    callee = (owner.name if in_class
                              and node.name == "__init__" else node.name)
                    defs.append((path.name, node, in_class, callee))
    assert defs
    unused = [
        f"{filename}:{node.lineno} {node.name}({name})"
        for filename, node, in_class, callee in defs
        for name, position in _defaulted(node, in_class)
        if (filename, node.name, name) not in ENTRY_POINTS
        and not any(_passes(call, name, position)
                    for call, enclosing in calls[callee]
                    if node not in enclosing)
    ]
    assert unused == []
