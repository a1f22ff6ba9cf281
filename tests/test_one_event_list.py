"""No code in ``src/msdsim`` walks a factory schedule's steps, except the
builder of its one list of error channels, ``Schedule.__post_init__``,
and ``build_schedule``, which makes the steps from a family's layout.

Every other reader (the engine run, the screen's bound, the event sets'
classes and enumeration) takes a run's events from ``Schedule.events``.
A read of an attribute named ``steps``, ``stored`` or
``rotation_outputs`` (the last two being the per-step and per-rotation
walks that the list replaced) anywhere else fails.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "msdsim"
WALKS = {"steps", "stored", "rotation_outputs"}
ALLOWED = {("factory.py", "Schedule.__post_init__"),
           ("factory.py", "build_schedule")}


def _walks(source: str, filename: str) -> list[str]:
    """Each read of a schedule walk, by line and enclosing definition."""
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in WALKS
                    and isinstance(child.ctx, ast.Load)
                    and (filename, scope) not in ALLOWED):
                found.append(f"{filename}:{child.lineno} {scope or 'module'}"
                             f" reads .{child.attr}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_no_schedule_walk_outside_the_event_list():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [w for path in files
             for w in _walks(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_guard_sees_a_walk():
    for source in ("def kept_sets(schedule):\n"
                   "    for step in schedule.steps:\n"
                   "        pass",
                   "def _events(schedule):\n"
                   "    return [len(q) for q in schedule.stored]",
                   "class Schedule:\n"
                   "    def run(self):\n"
                   "        return self.rotation_outputs[0]",
                   "steps = build_schedule('L1_15to1').steps"):
        assert _walks(source, "factory.py"), source
    # the builder's name in another module is no builder
    assert _walks("class Schedule:\n"
                  "    def __post_init__(self):\n"
                  "        return self.steps", "eventsets.py")
    for source in ("class Schedule:\n"
                   "    def __post_init__(self):\n"
                   "        for step in self.steps:\n"
                   "            pass",
                   "def build_schedule(family):\n"
                   "    return [g for g in LAYOUTS[family].steps]",
                   "def _run_schedule(schedule):\n"
                   "    return schedule.events",
                   "def f(layout):\n"
                   "    layout.steps = ()"):
        assert not _walks(source, "factory.py"), source
