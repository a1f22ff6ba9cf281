"""Record the outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the p_out of every paper-table row and
the front of each sweep, as the checkout computes them now.  The sweep
fronts decide which runs count as correct, and every p_out is the base of
``factory.pout_drift_max``, so record again only when a change moves an
answer on purpose, and say so where the change is described.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from child import REFERENCE

CHILD = Path(__file__).resolve().parent / "child.py"


def main() -> None:
    reference = {}
    for workload in workloads.NAMES:
        done = subprocess.run(
            [sys.executable, str(CHILD), "--workload", workload],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        # Without a reference only the paper checks can fail; a sweep must
        # at least have a front.
        if not result["outputs"] or (workload == "paper_check"
                                     and result["failed"]):
            raise SystemExit(f"{workload}: not recorded, {result}")
        reference[workload] = result["outputs"]
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
