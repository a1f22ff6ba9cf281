"""The benchmark's three workloads, as msdsim CLI argument lists.

The seed only permutes the order of the inputs: the order of the three
``paper_check`` commands and the order of every comma list of a sweep.
msdsim's answers must not depend on it (``test_perfbench.py`` checks that).
"""
from __future__ import annotations

import random

# paper_check: every self-check plus both paper tables, in one process.
PAPER_COMMANDS = (
    ("verify",),
    ("table", "--name", "table1"),
    ("table", "--name", "table2"),
)
VERIFY_CHECKS = 16

# Sweeps: fixed flags, then the comma lists the seed permutes.
SWEEPS = {
    # The 192-configuration level-2 grid of the ROADMAP; its front is
    # table1 row 4.
    "sweep_l2_15x20": (
        ("--family", "l2_15x20", "--pphys", "1e-4", "--target", "1e-14"),
        {
            "--dx": (7, 9), "--dz": (3, 5), "--dm": (3, 5),
            "--dx2": (13, 15, 17), "--dz2": (5, 7), "--dm2": (7, 9),
            "--n-l1": (4, 6),
        },
    ),
    # 225 level-1 combinations, 150 valid; its front is table1 row 6.
    # Target 1e-8 has an empty front at p=1e-3, hence 1e-7.
    "sweep_l1_15to1": (
        ("--family", "l1_15to1", "--pphys", "1e-3", "--target", "1e-7"),
        {
            "--dx": tuple(range(5, 22, 2)),
            "--dz": tuple(range(3, 12, 2)),
            "--dm": tuple(range(3, 12, 2)),
        },
    ),
}

NAMES = ("paper_check", *SWEEPS)

# Qubit count of the speed probe (speed.py) that rescales each workload's
# times.  On the defining machine, load from outside slowed sweep_l1_15to1
# as much as the n=5 probe, and the other two as much as the n=7 probe.
PROBE_QUBITS = {"paper_check": 7, "sweep_l2_15x20": 7, "sweep_l1_15to1": 5}

# DistanceSet field set by each sweep flag.
SWEEP_FIELDS = {"--dx": "dX", "--dz": "dZ", "--dm": "dm", "--dx2": "dX2",
                "--dz2": "dZ2", "--dm2": "dm2", "--n-l1": "nL1"}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one workload run, ordered by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper_check":
        order = [list(c) for c in PAPER_COMMANDS]
        rng.shuffle(order)
        return order
    fixed, lists = SWEEPS[workload]
    argv = ["sweep", *fixed, "--format", "json"]
    for flag, values in lists.items():
        values = list(values)
        rng.shuffle(values)
        argv += [flag, ",".join(map(str, values))]
    return [argv]
