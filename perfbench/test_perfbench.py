"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench

The seed-order tests run every workload twice; ``-k "not sweep_l2"`` skips
the longest one.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def cli():
    return child.import_msdsim()


def test_every_reference_is_wrapped(cli):
    t = tracing.Tracer()
    t.install()
    try:
        assert t.originals
        for original in t.originals:
            left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                    for owner, attr in tracing.references(original)]
            assert not left, f"unwrapped references: {left}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify"]) == 0
    finally:
        t.uninstall()
    for original in t.originals:
        assert tracing.references(original), "uninstall left a wrapper"
    # parity_lookup is imported by name into circuits: its calls from there
    # must be seen, nested under the circuits span that made them.
    layers = tracing.summarize(t.spans)
    parents = layers["pauli.parity_lookup"]["parents"]
    assert parents["circuits.undetected_error_sets"] > 0
    assert layers["circuits.undetected_error_sets"]["parents"]["cli.main"] > 0


def test_empty_or_wrong_front_fails():
    reference = {"sweep_l1_15to1": [
        {"protocol": "(15-to-1)_{17,7,7}", "p_out": 5e-8}]}
    argv = ["sweep"]
    empty = child.evaluate_sweep("sweep_l1_15to1", [(argv, 0, "[]")], {},
                                 reference)
    assert empty["attempted"] >= 1 and empty["failed"] == empty["attempted"]
    wrong = json.dumps([{"protocol": "(15-to-1)_{19,7,7}", "p_out": 4e-8,
                         "p_phys": 1e-3}])
    result = child.evaluate_sweep("sweep_l1_15to1", [(argv, 0, wrong)], {},
                                  reference)
    assert result["failed"] == 1
    # With no reference at all, a front still cannot pass unchecked.
    alone = child.evaluate_sweep("sweep_l1_15to1", [(argv, 0, wrong)], {}, {})
    assert alone["failed"] == alone["attempted"] == 1


def _outputs(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed)], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_seed_changes_order_not_answers(workload):
    first = workloads.commands(workload, 0)
    other = next(s for s in range(1, 100)
                 if workloads.commands(workload, s) != first)
    a, b = _outputs(workload, 0), _outputs(workload, other)
    assert a["outputs"] == b["outputs"]
    assert a["failed"] == b["failed"] == 0


def test_unpaused_clock_skips_pauses():
    from run import unpause

    unpaused = unpause([(1.0, 2.0), (5.0, 7.0)])
    assert [unpaused(t) for t in (0.5, 1.5, 2.0, 6.0, 8.0)] == [
        0.5, 1.0, 1.0, 4.0, 5.0]
    assert unpause([])(3.0) == 3.0


def test_no_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper_check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
