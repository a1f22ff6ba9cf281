"""Smoke test of the layer harness, ``tools/layers.py``: one layer, the
repository timed against itself."""
from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _harness():
    spec = importlib.util.spec_from_file_location(
        "layers", ROOT / "tools" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_layer_runs_in_under_a_second(tmp_path, capsys):
    layers = _harness()
    out = tmp_path / "layers.json"
    start = time.perf_counter()
    assert layers.main([str(ROOT), str(ROOT), "--layers", "read_p_out",
                        "--rounds", "2", "--seconds", "0.01",
                        "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
    record = json.loads(out.read_text(encoding="utf-8"))
    assert [(run["layer"], run["pair"]) for run in record["runs"]] == [
        ("read_p_out", "parent/change"), ("read_p_out", "parent/copy")]
    for run in record["runs"]:
        assert run["rounds"] == 2
        assert run["parent_median_ms"] > 0 and run["other_median_ms"] > 0
        assert 0 <= run["other_faster_rounds"] <= 2
    # the harness leaves no package of its own loaded
    assert not any(name.startswith("_layers_")
                   for name in sys.modules)


def test_every_layer_sets_up_on_this_tree():
    # each layer's call runs once on the repository's package
    layers = _harness()
    m = layers.load(ROOT / "src" / "msdsim", "_layers_smoke")
    try:
        for setup in layers.LAYERS.values():
            setup(m)()
    finally:
        layers.unload("_layers_smoke")


def test_measure_leaves_the_bytecode_flag_as_it_found_it():
    # measure writes no bytecode while it loads its copies, then restores
    # the flag, so the rest of a session writes bytecode as before
    layers = _harness()
    saved = sys.dont_write_bytecode
    try:
        for flag in (False, True):
            sys.dont_write_bytecode = flag
            layers.measure(ROOT, ROOT, ["read_p_out"], 1, 0.001)
            assert sys.dont_write_bytecode is flag
    finally:
        sys.dont_write_bytecode = saved
