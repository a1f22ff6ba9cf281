"""Time msdsim's layers in one process, a parent tree against a changed one.

    python tools/layers.py PARENT CHANGE [--layers rotation_n5,read_p_out]
        [--rounds 20] [--seconds 0.02] [--cpu 1] [--out layers.json]

PARENT and CHANGE are checkouts (each holds ``src/msdsim``).  Each tree's
package is copied into a temporary directory and imported under a name of
its own, along with a second copy of the parent's, so the three share one
interpreter and differ only in their source.  No bytecode is read or
written: each import compiles, as a ``perfbench`` child does.

Every layer (``LAYERS``) is timed on each side in rounds that alternate
which side runs first, after one warm-up call; a round calls a side's
layer for about ``--seconds`` and keeps its time per call.  Each layer
gets two runs: the parent against the change (A/B), and the parent
against its copy (A/A), whose spread says how far apart two identical
trees read on this host.  A layer's A/B ratio means something only
outside that spread.  ``--cpu`` pins this process, and only it, to one
CPU.

The output is JSON: ``harness`` says how it was measured, and ``runs``
holds, per layer and pair, the median time per call of each side over the
rounds, the ratio of the medians (second side over parent), and in how
many rounds the second side was the faster.  A layer that fails to set up
on a side (say, a name the parent lacks) gets an ``error`` entry instead.
This is no gate: ``perfbench/`` stays the end-to-end judge.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy

# the package's modules, each after the ones it imports
MODULES = ("pauli", "density", "noise", "circuits", "eventsets", "factory",
           "reference", "cli")


def load(src: Path, name: str):
    """Import the package at ``src`` (a copy of ``src/msdsim``) as ``name``,
    with every module; return a namespace of its modules."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in MODULES:
        setattr(package, module, importlib.import_module(f"{name}.{module}"))
    return package


def unload(name: str) -> None:
    for key in [k for k in sys.modules
                if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


# -- the layers: each takes a loaded package and returns a call to time ----

def _state(m, n: int, pair: bool):
    """A graded state on n qubits, every one live; on the pair, qubit n - 1
    released, leaving n - 1 live qubits in two stacks."""
    pauli, density = m.pauli, m.density
    rho = density.GradedDensityMatrix.init_plus(n, 6)
    profile = density.RotationErrorProfile(1e-3, 2e-4, 3e-4)
    rho = rho.apply_faulty_rotation(pauli.Rotation(
        pauli.PauliProduct("Z" * n), pauli.RotationAngle(1)), profile)
    if pair:
        rho = rho.release(n - 1, [2 ** -0.5, 2 ** -0.5])
    return rho, profile


def _repeat(rho, channel):
    """A call of ``channel`` on ``rho`` that first restores the state's
    scalar fields and its grade-1 store as they were at this call's
    making, so that repeated calls cost the same: the store gains a term
    per error event, and the scale shrinks, with every channel."""
    saved = rho.births, rho.pure, rho.pullback, rho.scale

    def call():
        rho.births, rho.pure, rho.pullback, rho.scale = saved
        channel()
    return call


def _rotation(n: int, pair: bool):
    def setup(m):
        rho, profile = _state(m, n, pair)
        width = n - pair
        rotation = m.pauli.Rotation(
            m.pauli.PauliProduct("Z" * width + "I" * pair),
            m.pauli.RotationAngle(1))
        return _repeat(rho, lambda: rho.apply_faulty_rotation(rotation,
                                                              profile))
    return setup


def _x_flip(n: int, pair: bool):
    def setup(m):
        rho, _ = _state(m, n, pair)
        return _repeat(rho, lambda: rho.apply_x_flip(0, 1e-3))
    return setup


def _z_pass(n: int, pair: bool):
    def setup(m):
        rho, _ = _state(m, n, pair)
        flips = [(q, 1e-3 * (q + 1)) for q in range(n - pair)]
        return _repeat(rho, lambda: rho.apply_z_flips(flips))
    return setup


def _run(table: str, index: int):
    """A row's top-level schedule run, its level-1 block cached."""
    def setup(m):
        config = m.reference.row_config(getattr(m.reference, table)[index])
        m.factory.simulate_factory(config)
        schedule = m.factory.build_schedule(config.family)
        inputs = m.factory._noise_inputs(config, 6)
        return lambda: m.factory._run_schedule(schedule, inputs, 6)
    return setup


def _first_row(m, family: str):
    return next(m.reference.row_config(row)
                for row in m.reference.TABLE1 + m.reference.TABLE2
                if row.family == family)


def _table_of(m, config):
    """(schedule, order, odds) of a configuration's screen."""
    f = m.factory
    schedule = f.build_schedule(config.family)
    inputs = f._noise_inputs(config, 6)
    odds = m.eventsets.class_odds(schedule, inputs[0],
                                  f._kind_probabilities(schedule, inputs))
    return schedule, f.LEADING_ORDER[schedule.circuit.name], odds


def _signature_sums(family: str):
    def setup(m):
        schedule = m.factory.build_schedule(family)
        order = m.factory.LEADING_ORDER[schedule.circuit.name]
        return lambda: m.eventsets.signature_sums(schedule, order)
    return setup


def _screen(m):
    """One p_out_lower_bound of the level-1 sweep's grid, tables built."""
    config = dataclasses.replace(
        _first_row(m, "L1_15to1"), noise=m.noise.PhysicalNoise(1e-3))
    m.factory.p_out_lower_bound(config)
    return lambda: m.factory.p_out_lower_bound(config)


def _read(m):
    config = _first_row(m, "L1_15to1")
    schedule, order, odds = _table_of(m, config)
    table = m.factory._event_sets(config.family, order)
    return lambda: m.eventsets.read_p_out(table, odds, 1)


def _pareto(m):
    """The Pareto filter over 200 reports of scattered costs."""
    report = m.factory.simulate_factory(_first_row(m, "L1_15to1"))
    reports = [(dataclasses.replace(
        report, qubits=1000.0 + (37 * i) % 200,
        qubitcycles_per_state=1e5 + (91 * i) % 300), (i,))
        for i in range(200)]
    return lambda: m.factory._pareto_front(reports)


def _undetected(m):
    c = m.circuits.catalog("fifteen_to_one")
    return lambda: m.circuits.undetected_error_sets(c, 3)


def _imports(m):
    """Compiling and running every module of a fresh copy of the package,
    each after the modules it imports."""
    src = Path(m.__path__[0])
    count = iter(range(1 << 30))

    def call():
        name = f"{m.__name__}_import{next(count)}"
        load(src, name)
        unload(name)
    return call


LAYERS = {
    **{f"{what}_n{n}{'_pair' * pair}": make(n, pair)
       for what, make in (("rotation", _rotation), ("x_flip", _x_flip),
                          ("z_pass", _z_pass))
       for n in (5, 7) for pair in (False, True)},
    "level1_run": _run("TABLE1", 0),
    "table1_4_run": _run("TABLE1", 3),
    **{f"signature_sums_{family}": _signature_sums(family)
       for family in ("L1_15to1", "L1_15to1_small", "L2_15x15", "L2_15x20",
                      "L2_15xCCZ", "L2_15x15_small")},
    "screen": _screen,
    "read_p_out": _read,
    "pareto_front": _pareto,
    "undetected_error_sets": _undetected,
    "import": _imports,
}


def per_call(call, seconds: float) -> float:
    """Seconds per call of ``call``, run for about ``seconds`` with the
    garbage collector off, as ``timeit`` runs."""
    calls, start = 0, time.perf_counter()
    gc.disable()
    try:
        while True:
            call()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / calls
    finally:
        gc.enable()


def compare(calls, rounds: int, seconds: float) -> dict:
    """Time the two ``calls`` (parent first) in alternating rounds."""
    times = ([], [])
    gc.collect()
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for side in order:
            times[side].append(per_call(calls[side], seconds))
    first, second = (statistics.median(t) * 1e3 for t in times)
    return {"parent_median_ms": round(first, 4),
            "other_median_ms": round(second, 4),
            "ratio": round(second / first, 4),
            "other_faster_rounds": sum(b < a for a, b in zip(*times)),
            "rounds": rounds}


def measure(parent: Path, change: Path, layers, rounds: int,
            seconds: float) -> dict:
    """Time ``layers`` of the two trees; return the JSON record."""
    sys.dont_write_bytecode = True
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        packages = {}
        for name, tree in (("parent", parent), ("copy", parent),
                           ("change", change)):
            src = Path(tmp) / name
            shutil.copytree(tree / "src" / "msdsim", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            packages[name] = load(src, f"_layers_{name}")
        for layer in layers:
            calls = {}
            for name, m in packages.items():
                try:
                    calls[name] = LAYERS[layer](m)
                    calls[name]()
                except Exception as e:  # report the layer, time the rest
                    calls[name] = f"{name}: {type(e).__name__}: {e}"
            for pair in ("change", "copy"):
                sides = calls["parent"], calls[pair]
                run = {"layer": layer, "pair": f"parent/{pair}"}
                errors = [s for s in sides if isinstance(s, str)]
                run.update({"error": "; ".join(errors)} if errors
                           else compare(sides, rounds, seconds))
                runs.append(run)
        for name in packages:
            unload(f"_layers_{name}")
    return {
        "harness": (
            "tools/layers.py: the parent, a copy of the parent and the "
            "change imported in one process under names of their own, "
            "compiled from source; each layer warmed once, then timed in "
            f"{rounds} rounds alternating which side runs first, each side "
            f"called for about {seconds} s a round with the garbage "
            "collector off; medians over rounds of the time per call"),
        "host": {"python": sys.version.split()[0],
                 "numpy": numpy.__version__,
                 "cpus": sorted(os.sched_getaffinity(0)),
                 "threads": {k: os.environ.get(k) for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")}},
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--layers", default=",".join(LAYERS),
                        help="comma-separated names (default: every layer)")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seconds", type=float, default=0.02,
                        help="time per side per round")
    parser.add_argument("--cpu", type=int,
                        help="pin this process to one CPU")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    layers = args.layers.split(",")
    unknown = [layer for layer in layers if layer not in LAYERS]
    if unknown:
        parser.error(f"unknown layers: {', '.join(unknown)}")
    if args.rounds < 1 or not args.seconds > 0:
        parser.error("--rounds and --seconds must be positive")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "msdsim" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/msdsim")
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    record = measure(args.parent, args.change, layers, args.rounds,
                     args.seconds)
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
