"""README's examples run as written.

Every console block that shows output is run through ``cli.main`` and
compared with whitespace collapsed (the sweep example pads its columns
differently from the real output), the JSON config example is loaded,
and the Python library example is executed.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from msdsim.cli import load_config, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README,
                      flags=re.MULTILINE | re.DOTALL)


def _console_examples() -> list[tuple[list[str], str]]:
    """(argv, shown output) of each console block that shows output."""
    examples = []
    for block in _blocks("console"):
        lines = block.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        assert command.startswith("$ msdsim ")
        if lines:
            examples.append((shlex.split(command)[2:], "\n".join(lines)))
    return examples


CONSOLE_EXAMPLES = _console_examples()


def _collapsed(text: str) -> str:
    return " ".join(text.split())


def test_readme_shows_the_circuit_factory_and_sweep_outputs():
    assert [argv[0] for argv, _ in CONSOLE_EXAMPLES] == [
        "circuit", "factory", "sweep"]


@pytest.mark.parametrize("argv, shown", CONSOLE_EXAMPLES,
                         ids=[argv[0] for argv, _ in CONSOLE_EXAMPLES])
def test_console_example(argv, shown, capsys):
    assert main(argv) == 0
    assert _collapsed(capsys.readouterr().out) == _collapsed(shown)


def test_json_config_example(tmp_path):
    (block,) = _blocks("json")
    path = tmp_path / "protocols.json"
    path.write_text(block, encoding="utf-8")
    configs = load_config(str(path))
    assert [c.family for c in configs] == ["L1_15to1", "L2_15x20"]
    assert {c.noise.p_phys for c in configs} == {1e-4}


def test_python_library_example(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    p_out, qubits, per_state = map(float, capsys.readouterr().out.split())
    assert 0.0 < p_out < 1e-9 and qubits > 0 and per_state > 0
