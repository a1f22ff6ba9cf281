"""Smoke test of the answer fingerprint, ``tools/fingerprint.py``: the
repository against itself, and against a copy with a changed band."""
from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", ROOT / "tools" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repository_matches_itself(capsys):
    assert _tool().main([str(ROOT), str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "rows", "grid_bounds", "verify", "table1", "table2",
        "sweep_l2_15x20", "sweep_l1_15to1", "circuit"]
    for line in lines:
        _, first, second = line.split()
        assert first == second and len(first) == 64
    assert not any(name.startswith("_fingerprint_") for name in sys.modules)


def test_a_changed_band_changes_the_tables(tmp_path, capsys):
    # the tables' tolerance band moves their pass/fail columns, and
    # nothing any other group prints
    src = tmp_path / "src" / "msdsim"
    shutil.copytree(ROOT / "src" / "msdsim", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    reference = src / "reference.py"
    text = reference.read_text(encoding="utf-8")
    assert "\n_B = 0.30\n" in text
    reference.write_text(text.replace("\n_B = 0.30\n", "\n_B = 0.31\n"),
                         encoding="utf-8")
    assert _tool().main([str(ROOT), str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "differ: table1, table2"
    assert [line.split()[0] for line in lines
            if line.endswith(" DIFFERS")] == ["table1", "table2"]
