"""One benchmark sample in a fresh process: set up, run one workload, check it.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload NAME --seed N [--trace]

Imports msdsim from the ``src/`` directory next to ``perfbench/``, runs the
workload's commands through ``msdsim.cli.main`` and prints one JSON object:
the moment set-up ended, the workload's wall time and peak memory, and the
outcome of its correctness checks (plus every span when tracing).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def import_msdsim():
    """Import numpy and the msdsim CLI from this checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of the set-up a CLI user pays)

    import msdsim.cli

    home = Path(msdsim.cli.__file__).resolve().parent.parent
    if home != SRC.resolve():
        raise SystemExit(f"msdsim was imported from {home}, not {SRC}")
    return msdsim.cli


def paper(cli):
    """The paper tables, their row checks and row configurations.

    This is the one place the benchmark takes them from msdsim.
    """
    tables = {"table1": cli.TABLE1, "table2": cli.TABLE2}
    return tables, cli.check_row, cli.row_config


def record_rows(tables, check_row) -> dict:
    """Wrap check_row so each checked table row leaves (p_out, all passed)."""
    where = {id(row): (name, i)
             for name, rows in tables.items() for i, row in enumerate(rows)}
    seen: dict[tuple[str, int], tuple[float, bool]] = {}

    def recording(row, report):
        checks = check_row(row, report)
        seen[where[id(row)]] = (report.p_out,
                                all(passed for _, passed, _ in checks))
        return checks

    tracing.patch(check_row, recording)
    return seen


def run_commands(cli, argvs) -> list[tuple[list[str], int, str]]:
    """(arguments, exit status, standard output) of each CLI command."""
    results = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        results.append((argv, status, out.getvalue()))
    return results


def quoted_p_out(tables, row_config) -> dict:
    """Quoted p_out of every paper row, keyed by (protocol, p_phys, c_T)."""
    from msdsim.factory import protocol_name

    return {(protocol_name(row_config(row)), row.p_phys, row.c_t): row.p_out
            for rows in tables.values() for row in rows}


def rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def evaluate_paper(results, seen, tables, reference) -> dict:
    """Operations: each verify check and each table row's check set."""
    dev, drift = [], []
    (_, _, verify_out), = [r for r in results if r[0] == ["verify"]]
    marks = [line.split()[0] for line in verify_out.splitlines()
             if line.startswith(("PASS ", "FAIL "))]
    attempted = max(workloads.VERIFY_CHECKS, len(marks))
    failed = attempted - marks.count("PASS")
    outputs = {}
    for name, rows in tables.items():
        outputs[name] = []
        for i, row in enumerate(rows):
            attempted += 1
            if (name, i) not in seen:
                failed += 1
                outputs[name].append(None)
                continue
            p_out, ok = seen[name, i]
            failed += not ok
            outputs[name].append(p_out)
            dev.append(rel(p_out, row.p_out))
            ref = reference.get("paper_check", {}).get(name)
            if ref:
                drift.append(rel(p_out, ref[i]))
    return {"attempted": attempted, "failed": failed, "dev": dev,
            "drift": drift, "outputs": outputs}


def evaluate_sweep(workload, results, quoted, reference) -> dict:
    """Operations: the front entries; an empty front fails the run."""
    (_, status, out), = results
    try:
        front = json.loads(out) if status == 0 else []
    except json.JSONDecodeError:
        front = []
    ref = reference.get(workload, [])
    attempted = max(len(ref), len(front), 1)
    passed = sum(
        got["protocol"] == want["protocol"]
        and math.isfinite(got["p_out"]) and got["p_out"] > 0.0
        for got, want in zip(front, ref))
    ref_p_out = {e["protocol"]: e["p_out"] for e in ref}
    dev, drift = [], []
    for e in front:
        key = (e["protocol"], e["p_phys"], 1.0)
        if key in quoted:
            dev.append(rel(e["p_out"], quoted[key]))
        if e["protocol"] in ref_p_out:
            drift.append(rel(e["p_out"], ref_p_out[e["protocol"]]))
    outputs = [{"protocol": e["protocol"], "p_out": e["p_out"]} for e in front]
    return {"attempted": attempted, "failed": attempted - passed, "dev": dev,
            "drift": drift, "outputs": outputs}


def valid_candidates(cli, workload: str) -> int:
    """Grid points of a sweep that form a valid factory configuration."""
    if workload not in workloads.SWEEPS:
        return 0
    from msdsim.factory import FactoryConfig
    from msdsim.noise import DistanceSet, PhysicalNoise

    fixed, lists = workloads.SWEEPS[workload]
    opts = dict(zip(fixed[::2], fixed[1::2]))
    family = cli.FAMILY_NAMES[opts["--family"]]
    noise = PhysicalNoise(float(opts["--pphys"]))
    fields = [workloads.SWEEP_FIELDS[flag] for flag in lists]
    count = 0
    for combo in itertools.product(*lists.values()):
        try:
            FactoryConfig(family, DistanceSet(**dict(zip(fields, combo))),
                          noise)
        except ValueError:
            continue
        count += 1
    return count


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


def sample(cli, workload: str, seed: int, trace: bool) -> dict:
    """Run one workload in this process and check its outputs."""
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    tables, check_row, row_config = paper(cli)
    seen = record_rows(tables, check_row)
    argvs = workloads.commands(workload, seed)
    start = time.monotonic()
    results = run_commands(cli, argvs)
    end = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer.uninstall()

    reference = load_reference()
    if workload == "paper_check":
        result = evaluate_paper(results, seen, tables, reference)
    else:
        result = evaluate_sweep(workload, results,
                                quoted_p_out(tables, row_config), reference)
    dev, drift = result.pop("dev"), result.pop("drift")
    result.update(
        wall_s=end - start,
        timed=(start, end),
        peak_rss_mb=peak_kb / 1024.0,
        pout_max_rel_dev=max(dev) if dev else None,
        pout_drift_max=max(drift) if drift else None,
    )
    if trace:
        result["spans"] = tracer.spans
        result["valid_candidates"] = valid_candidates(cli, workload)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    cli = import_msdsim()
    setup_done = time.monotonic()
    if args.setup_only:
        import numpy

        result = {"numpy": numpy.__version__}
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        result = sample(cli, args.workload, args.seed, args.trace)
    result["setup_done"] = setup_done
    print(json.dumps(result))


if __name__ == "__main__":
    main()
