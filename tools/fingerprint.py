"""Fingerprint msdsim's answers: one SHA-256 per group of outputs.

    python tools/fingerprint.py TREE [TREE2]

TREE and TREE2 are checkouts (each holds ``src/msdsim``).  Each tree's
package is imported under a name of its own (``tools/layers.py``'s
``load``), with no bytecode written, and computes every group:

- ``rows``: the ``repr`` of p_out, p_fail_L1, p_fail_L2 and
  ``p_out_lower_bound`` on every row of both paper tables;
- ``grid_bounds``: ``p_out_lower_bound`` at every point of both benchmark
  sweep grids (``perfbench/workloads.py``), or why the point has none;
- ``verify``, ``table1``, ``table2``: the output and exit status of
  ``msdsim verify`` and of ``msdsim table --name NAME --verbose``;
- one group per benchmark sweep: ``msdsim sweep ... --format json``;
- ``circuit``: ``msdsim circuit`` for every circuit kind at the noises
  ``CIRCUIT_NOISES``, with the ``repr`` of each run, which the command
  rounds.

One tree: print each group's digest.  Two trees: print both digests of
each group, and exit 1, naming each group that differs, if any does.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from layers import load, unload  # noqa: E402

CIRCUIT_NOISES = ("z:1e-3", "pauli:1e-3", "coherent:0.01", "z:0")


def _workloads():
    """The benchmark's workload definitions, read as they are."""
    spec = importlib.util.spec_from_file_location(
        "_fingerprint_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli(m, *argv: str) -> str:
    """The output and exit status of ``msdsim ARGV``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = m.cli.main(list(argv))
    return f"exit {status}\n{out.getvalue()}"


def _rows(m) -> str:
    lines = []
    for row in m.reference.TABLE1 + m.reference.TABLE2:
        config = m.reference.row_config(row)
        report = m.factory.simulate_factory(config)
        lines.append(f"{report.protocol} {report.p_out!r} "
                     f"{report.p_fail_L1!r} {report.p_fail_L2!r} "
                     f"{m.factory.p_out_lower_bound(config)!r}\n")
    return "".join(lines)


def _grid_bounds(m, workloads) -> str:
    lines = []
    for fixed, lists in workloads.SWEEPS.values():
        flags = dict(zip(fixed[::2], fixed[1::2]))
        family = m.cli.FAMILY_NAMES[flags["--family"]]
        noise = m.noise.PhysicalNoise(float(flags["--pphys"]))
        fields = [workloads.SWEEP_FIELDS[flag] for flag in lists]
        for combo in itertools.product(*lists.values()):
            try:
                config = m.factory.FactoryConfig(family, m.noise.DistanceSet(
                    **dict(zip(fields, combo))), noise)
            except ValueError:
                lines.append(f"{family} {combo} invalid\n")
                continue
            try:
                bound = repr(m.factory.p_out_lower_bound(config))
            except m.factory.NoiseDomainError:
                bound = "out of range"
            lines.append(f"{family} {combo} {bound}\n")
    return "".join(lines)


def _circuits(m) -> str:
    lines = []
    for kind, name in sorted(m.cli.CIRCUIT_KINDS.items()):
        for noise in CIRCUIT_NOISES:
            run = m.factory.simulate_circuit(m.circuits.catalog(name),
                                             m.cli.parse_noise_spec(noise))
            lines.append(_cli(m, "circuit", "--kind", kind, "--noise", noise)
                         + f"{run!r}\n")
    return "".join(lines)


def groups(m) -> dict[str, str]:
    """Each group's output, computed by the loaded package ``m``."""
    workloads = _workloads()
    outputs = {"rows": _rows(m), "grid_bounds": _grid_bounds(m, workloads),
               "verify": _cli(m, "verify")}
    for name in ("table1", "table2"):
        outputs[name] = _cli(m, "table", "--name", name, "--verbose")
    for name in workloads.SWEEPS:
        outputs[name] = "".join(_cli(m, *argv)
                                for argv in workloads.commands(name, 0))
    outputs["circuit"] = _circuits(m)
    return outputs


def fingerprint(tree: Path, name: str) -> dict[str, str]:
    """The SHA-256 of each group of the package in ``tree``."""
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        m = load(tree / "src" / "msdsim", name)
        return {group: hashlib.sha256(text.encode()).hexdigest()
                for group, text in groups(m).items()}
    finally:
        unload(name)
        sys.dont_write_bytecode = write


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    for tree in args.trees:
        if not (tree / "src" / "msdsim" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/msdsim")
    digests = [fingerprint(tree, f"_fingerprint_{i}")
               for i, tree in enumerate(args.trees)]
    differ = [group for group in digests[0]
              if any(d[group] != digests[0][group] for d in digests)]
    for group in digests[0]:
        print(group, *(d[group] for d in digests),
              *["DIFFERS"] * (group in differ))
    if differ:
        print(f"differ: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
