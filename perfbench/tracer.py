"""Spans around msdsim's public functions, installed from outside ``src/``.

Several msdsim modules import functions by name (``cli`` holds its own
``simulate_factory``, ``density`` and ``circuits`` each hold
``parity_lookup``), so a wrapper is put in place of every reference to the
original function object in every ``msdsim.*`` module and class, not only
in the defining module.
"""
from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  A target that no longer exists is
# skipped, so a later change may delete a function (for example the
# perturbative fallback) and its counts read 0.
TARGETS = (
    ("msdsim.pauli", "parity_lookup", "pauli.parity_lookup"),
    ("msdsim.noise", "single_qubit_rotation_profile", "noise.profile"),
    ("msdsim.noise", "multiqubit_rotation_profile", "noise.profile"),
    ("msdsim.noise", "level2_rotation_profile", "noise.profile"),
    ("msdsim.noise", "patch_storage_rates", "noise.profile"),
    ("msdsim.density", "GradedDensityMatrix.apply_storage",
     "density.apply_storage"),
    ("msdsim.density", "GradedDensityMatrix.apply_faulty_rotation",
     "density.apply_faulty_rotation"),
    ("msdsim.density", "GradedDensityMatrix.project_plus",
     "density.project_plus"),
    ("msdsim.density", "GradedDensityMatrix.infidelity_with_pure",
     "density.infidelity_with_pure"),
    ("msdsim.circuits", "catalog", "circuits.catalog"),
    ("msdsim.circuits", "undetected_error_sets",
     "circuits.undetected_error_sets"),
    ("msdsim.circuits", "verify_gadget", "circuits.verify_gadget"),
    ("msdsim.circuits", "compose_unitary", "circuits.compose_unitary"),
    ("msdsim.circuits", "simulate_circuit", "circuits.simulate_circuit"),
    ("msdsim.factory", "simulate_factory", "factory.simulate_factory"),
    ("msdsim.factory", "level1_output_error", "factory.level1_output_error"),
    ("msdsim.factory", "_run_level1", "factory.level1"),
    ("msdsim.factory", "build_schedule", "factory.build_schedule"),
    ("msdsim.factory", "_perturbative_p_out", "factory.perturbative"),
    ("msdsim.factory", "sweep", "factory.sweep"),
    ("msdsim.cli", "check_row", "cli.check_row"),
    ("msdsim.cli", "emit_reports", "cli.emit"),
    ("msdsim.cli", "main", "cli.main"),
)

# Engine channels whose spans carry the computed size of the grade stack.
SIZED = {"density.apply_storage", "density.apply_faulty_rotation"}


def resolve(module: str, path: str):
    """The object at ``module.path``, or None when it does not exist."""
    obj = sys.modules.get(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def references(original) -> list[tuple[object, str]]:
    """Every (owner, attribute) in msdsim's modules and classes that is original."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "msdsim" and not name.startswith("msdsim."):
            continue
        owners = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == name
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    found.append((owner, attr))
    return found


def patch(original, replacement) -> list[tuple[object, str, object]]:
    """Point every reference to original at replacement; return undo records."""
    undo = []
    for owner, attr in references(original):
        setattr(owner, attr, replacement)
        undo.append((owner, attr, original))
    return undo


def grade_stack_bytes(rho) -> int:
    """Computed bytes of a graded state's stack: kmax * 4**n complex128."""
    return rho.kmax * 4 ** rho.n * 16


class Tracer:
    """Records one span per wrapped call and keeps them in memory.

    A span is ``(id, parent id, name, start, end, bytes)``; parent id 0 marks
    a root, and ``bytes`` is the computed grade-stack size for engine
    channels (0 elsewhere).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.originals: list[object] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.monotonic  # run.py stamps its pauses of the child on it
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = grade_stack_bytes(args[0]) if sized else 0
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, size))

        return traced

    def install(self) -> None:
        for module, path, name in TARGETS:
            original = resolve(module, path)
            if original is None:
                continue
            self.originals.append(original)
            self._undo += patch(original, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive durations, self time, bytes, parents.

    Self time is a span's duration minus the time its child spans cover.
    ``parents`` counts, per name, the names of the spans that called it.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end, _ in spans:
        child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {
        "calls": 0, "self_s": 0.0, "durations": [], "bytes": 0,
        "parents": Counter()})
    for sid, parent, name, start, end, size in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["durations"].append(end - start)
        entry["self_s"] += end - start - child_time[sid]
        entry["bytes"] += size
        entry["parents"][by_id[parent][2] if parent in by_id else None] += 1
    return out
