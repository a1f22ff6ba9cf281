"""A faulty rotation's errors are described once, by
``density.RotationErrorProfile``.

The profile's ``branches`` pair each substitution probability with its
extra angle from ``density.SUBSTITUTIONS``, and ``p_error`` is their sum;
every other module reads those.  So no module in ``src/msdsim`` but
``density.py`` reads an attribute named ``p_half``, ``p_quarter`` or
``p_mquarter``, and none spells the substitution angles in units of pi/8:
a tuple, list or set literal of two or more integers, each 4, 2 or -2 (as
the event sets' ``(4, 2, -2)`` and the gadgets' corrections ``4, 2``
once were).  Passing the probabilities by keyword, as the noise model's
profile builders do, is no read.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "msdsim"
HOME = "density.py"
PROBABILITIES = {"p_half", "p_quarter", "p_mquarter"}
ANGLES = {4, 2, -2}


def _integer(node) -> int | None:
    """The value of an integer literal, negated or not; None otherwise."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _integer(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _strays(source: str, filename: str) -> list[str]:
    if filename == HOME:
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PROBABILITIES:
            found.append(f"{filename}:{node.lineno} reads .{node.attr}")
        elif (isinstance(node, (ast.Tuple, ast.List, ast.Set))
              and len(node.elts) > 1
              and all(_integer(e) in ANGLES for e in node.elts)):
            found.append(f"{filename}:{node.lineno} spells the substitution "
                         f"angles")
    return found


def test_the_profile_is_the_one_description_of_a_rotation_error():
    files = sorted(SRC.glob("*.py"))
    assert HOME in {path.name for path in files}
    found = [s for path in files
             for s in _strays(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_guard_sees_a_stray():
    # the four copies of the model that the profile replaced, and the
    # event sets' per-branch keys
    for source in ("for col, k in enumerate((4, 2, -2)):\n    pass",
                   "PAULI_FIX, CLIFFORD_FIX = 4, 2",
                   "angles = [-2, 4]",
                   "p = f.p_half + f.p_quarter + f.p_mquarter",
                   "keys = ((0, f.p_half / keep), (1, f.p_quarter / keep))",
                   "errors = [(profile.p_mquarter, -np.pi / 4)]"):
        assert _strays(source, "eventsets.py"), source
    for source in ("PAULI_FIX, CLIFFORD_FIX = SUBSTITUTIONS[:2]",
                   "for shift in (16, 8, 4, 2, 1):\n    pass",
                   "t = t.reshape((2,) * n)",
                   "out[:, 2] = t[:, :, 0, :, :, 1]",
                   "f = RotationErrorProfile(p_half=t, p_quarter=t,"
                   " p_mquarter=t)",
                   "p = [f.p_error for f in profiles]"):
        assert not _strays(source, "factory.py"), source
    assert not _strays("keep = 1.0 - f.p_half - f.p_quarter", HOME)
