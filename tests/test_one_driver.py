"""No code in ``src/msdsim`` builds a graded state, except the engine
itself (``density.py``) and its one driver, ``factory._run_schedule``.

A factory run and a bare circuit's run (``factory.simulate_circuit``, a
one-step schedule) both go through that driver, so its noiseless shortcut,
its kmax and its projection hold for both.  A call of
``GradedDensityMatrix`` or of any of its attributes (``init_plus``)
anywhere else fails, under whatever name it was imported.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "msdsim"
ENGINE = "GradedDensityMatrix"
ALLOWED = {("factory.py", "_run_schedule")}


def _builds(source: str, filename: str) -> list[str]:
    """Each call that builds a graded state, by line and enclosing
    definition."""
    if filename == "density.py":
        return []
    tree = ast.parse(source)
    names = {ENGINE} | {a.asname for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        for a in node.names if a.name == ENGINE and a.asname}
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Call)
                    and any(isinstance(n, ast.Name) and n.id in names
                            or isinstance(n, ast.Attribute) and n.attr in names
                            for n in ast.walk(child.func))
                    and (filename, scope) not in ALLOWED):
                found.append(f"{filename}:{child.lineno} {scope or 'module'}"
                             f" builds a graded state")
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_driver_builds_a_graded_state():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [b for path in files
             for b in _builds(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_guard_sees_a_build():
    for source in ("def simulate_circuit(c, noise, kmax):\n"
                   "    rho = GradedDensityMatrix.init_plus(c.n, kmax)",
                   "def f(pure):\n"
                   "    return GradedDensityMatrix(pure, 6)",
                   "from . import density\n"
                   "rho = density.GradedDensityMatrix.init_plus(3)",
                   "from .density import GradedDensityMatrix as G\n"
                   "def f():\n"
                   "    return G.init_plus(3)",
                   "def _run_schedule(schedule, inputs, kmax):\n"
                   "    def start(n):\n"
                   "        return GradedDensityMatrix.init_plus(n, kmax)"):
        assert _builds(source, "factory.py"), source
    # the driver's name in another module is no driver
    assert _builds("def _run_schedule(schedule, inputs, kmax):\n"
                   "    return GradedDensityMatrix.init_plus(3)",
                   "circuits.py")
    for source in ("def _run_schedule(schedule, inputs, kmax):\n"
                   "    rho = GradedDensityMatrix.init_plus(3, kmax)",
                   "def f(rho):\n"
                   "    return isinstance(rho, GradedDensityMatrix)",
                   "from .density import GradedDensityMatrix\n"
                   "from .noise import StorageRates\n"
                   "zero = StorageRates(0.0, 0.0)"):
        assert not _builds(source, "factory.py"), source
    assert not _builds("def init_plus(n):\n"
                       "    return GradedDensityMatrix(None, 6)", "density.py")
