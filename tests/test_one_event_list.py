"""No code in ``src/msdsim`` walks a factory schedule's steps, except the
builder of its one list of error channels, ``Schedule.__post_init__``,
and ``build_schedule``, which makes the steps from a family's layout.

Every other reader (the engine run, the screen's bound, the event sets'
odds and enumeration) takes a run's events from ``Schedule.events``.
A read of an attribute named ``steps``, ``stored`` or
``rotation_outputs`` (the last two being the per-step and per-rotation
walks that the list replaced) anywhere else fails.

Only three readers walk ``Schedule.events`` itself: its builder, the
engine run (``_run_schedule``) and the enumeration (``kept_sets``), each
once per family or per run.  The per-candidate readers
(``_kind_probabilities``, read through ``Schedule.take``, and
``kind_odds``) read the maps the builder makes, so a read of an attribute
named ``events`` anywhere else fails.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "msdsim"
WALKS = {"steps", "stored", "rotation_outputs"}
ALLOWED = {("factory.py", "Schedule.__post_init__"),
           ("factory.py", "build_schedule")}
EVENT_READERS = {("factory.py", "Schedule.__post_init__"),
                 ("factory.py", "_run_schedule"),
                 ("eventsets.py", "kept_sets")}


def _walks(source: str, filename: str, walks=WALKS,
           allowed=ALLOWED) -> list[str]:
    """Each read of one of the ``walks`` attributes outside the ``allowed``
    definitions, by line and enclosing definition."""
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in walks
                    and isinstance(child.ctx, ast.Load)
                    and (filename, scope) not in allowed):
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


def _event_reads(source: str, filename: str) -> list[str]:
    return _walks(source, filename, {"events"}, EVENT_READERS)


def test_no_per_candidate_walk_of_the_events():
    files = sorted(SRC.glob("*.py"))
    found = [w for path in files
             for w in _event_reads(path.read_text(encoding="utf-8"),
                                   path.name)]
    assert found == []


def test_the_guard_sees_an_event_walk():
    for source in ("def _kind_probabilities(schedule, inputs):\n"
                   "    return tuple(p for _, p in schedule.events)",
                   "def kind_odds(schedule, profiles, kinds):\n"
                   "    return schedule.events[-1][-1]",
                   "def _run_schedule(schedule):\n"
                   "    def inner():\n"
                   "        return schedule.events"):
        assert _event_reads(source, "factory.py") or _event_reads(
            source, "eventsets.py"), source
    # the readers, each in its own module
    assert _event_reads("def kept_sets(schedule):\n"
                        "    return schedule.events", "factory.py")
    for source, filename in (
            ("def _run_schedule(schedule):\n"
             "    return schedule.events", "factory.py"),
            ("class Schedule:\n"
             "    def __post_init__(self):\n"
             "        return self.events", "factory.py"),
            ("def kept_sets(schedule):\n"
             "    for entry in schedule.events:\n"
             "        pass", "eventsets.py"),
            ("def f(schedule):\n"
             "    schedule.events = ()", "factory.py")):
        assert not _event_reads(source, filename), source
