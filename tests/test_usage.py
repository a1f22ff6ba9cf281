"""The ``Usage::`` block of each module's docstring runs as written."""
from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "msdsim"


def _usage(path: Path) -> str | None:
    """The indented block after ``Usage::`` in the module's docstring."""
    doc = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8")))
    _, found, rest = (doc or "").partition("Usage::\n")
    if not found:
        return None
    lines = []
    for line in rest.splitlines():
        if line and not line.startswith(" "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


USAGES = {path.stem: block for path in sorted(SRC.glob("*.py"))
          if (block := _usage(path)) is not None}


def _run(module: str) -> dict:
    namespace: dict = {}
    exec(compile(USAGES[module], f"{module} Usage::", "exec"), namespace)
    return namespace


def test_the_modules_show_their_usage():
    assert set(USAGES) == {"circuits", "density", "factory", "noise",
                           "pauli", "reference"}


@pytest.mark.parametrize("module", sorted(USAGES))
def test_usage_runs(module):
    _run(module)


def test_the_density_usage_reads_its_run():
    # a +pi/8 rotation would leave |m>, whose overlap with the read
    # |m~> = (|0> + e^{-i pi/4} |1>)/sqrt(2) is 1/2: the example rotates by
    # -pi/8, as the 15-to-1's target does, and reads about 3e-4
    assert 0.0 < _run("density")["p_out"] < 1e-3
