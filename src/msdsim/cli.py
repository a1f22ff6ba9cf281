"""Command-line interface for the magic-state factory simulator.

Commands::

    msdsim circuit --kind 15to1 --noise z:1e-4
        Simulate one distillation circuit under circuit-level noise and
        print its output error and failure probability.

    msdsim factory --family l1_15to1 --d 7,3,3 --pphys 1e-4
    msdsim factory --family l2_15x15 --d 9,3,3 --d2 25,9,9 --n-l1 4 \
            --pphys 1e-4 --ct 10
    msdsim factory --config protocols.json --format csv
        Produce a full factory resource report (plain, csv, or json).

    msdsim table --name table1
        Re-derive every row of a built-in reference table and print
        pass/fail deltas.  Exit status 0 iff every check passes.

    msdsim sweep --family l1_15to1 --pphys 1e-4 --target 1e-9 \
            --dx 7,9,11 --dz 3,5 --dm 3,5
        Print the Pareto-minimal configurations meeting a target output
        error.

    msdsim verify
        Run the self-checks: circuit identities, gadget branch rules, and
        undetected-error counts.  Exit status 0 iff every check passes.

Config file schema (JSON)::

    {
      "defaults": {"p_phys": 1e-4, "c_t": 1.0,
                   "consumption_prefactor": "half"},
      "protocols": [
        {"family": "l1_15to1", "d": [7, 3, 3]},
        {"family": "l2_15x15", "d": [9, 3, 3], "d2": [25, 9, 9],
         "n_l1": 4, "p_phys": 1e-4}
      ]
    }

Per-protocol keys: family (required), d (required, three odd ints),
d2 (three odd ints, level-2 families), n_l1 (even int), p_phys, c_t,
consumption_prefactor ("half" or "full").  Unknown keys are errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, fields

from .circuits import NoiseSpec, catalog, coherent, random_pauli, z_only
from .density import DEFAULT_MAX_GRADE
from .factory import (FAMILIES, FactoryConfig, FactoryReport,
                      check_family_inputs, simulate_circuit, simulate_factory,
                      sweep)
from .noise import DistanceSet, PhysicalNoise
# the benchmark harness (perfbench/child.py) reads TABLE1, TABLE2 and
# row_config here, and check_row, which it wraps where cmd_table calls it
from .reference import (TABLE1, TABLE2, TABLES, check_row,  # noqa: F401
                        fmt_pout, fmt_sig, row_config, self_checks)

FAMILY_NAMES = {f.lower(): f for f in FAMILIES}

CIRCUIT_KINDS = {
    "15to1": "fifteen_to_one",
    "20to4": "twenty_to_four",
    "8toccz": "eight_to_ccz",
    "identity16": "identity16",
    "identity15_4q": "identity15_4q",
    "ccz7": "ccz7",
}

NOISE_KINDS = {"z": z_only, "pauli": random_pauli, "coherent": coherent}

KMAX_HELP = "highest error order kept by the engine"

# every report field but the failure rates
CSV_COLUMNS = tuple(f.name for f in fields(FactoryReport)
                    if not f.name.startswith("p_fail"))


class ConfigError(ValueError):
    """A config-file problem, with file/line or field-path diagnostics."""


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def format_report_plain(report: FactoryReport) -> str:
    lines = [
        f"protocol:             {report.protocol}",
        f"p_phys:               {report.p_phys:g}",
        f"p_out per state:      {fmt_pout(report.p_out)}",
        f"p_fail level 1:       {report.p_fail_L1:.4e}",
        f"p_fail level 2:       {report.p_fail_L2:.4e}",
        f"qubits:               {fmt_sig(report.qubits)}",
        f"cycles per round:     {fmt_sig(report.cycles)}",
        f"qubitcycles/state:    {fmt_sig(report.qubitcycles_per_state)}",
    ]
    for scale, d, cost in (
        ("100-qubit", report.d_full_100, report.cost_d3_100),
        ("10^4-qubit", report.d_full_10k, report.cost_d3_10k),
    ):
        if d is None:
            lines.append(f"full distance ({scale}):  none <= 99")
        else:
            lines.append(
                f"full distance ({scale}):  {d}  "
                f"(cost {fmt_sig(cost)} d^3 qubitcycles/state)"
            )
    return "\n".join(lines)


def reports_to_csv(reports: list[FactoryReport]) -> str:
    """Serialize reports with full-precision fields (round-trip safe)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        values = [getattr(r, column) for column in CSV_COLUMNS[1:]]
        writer.writerow([r.protocol] + ["" if v is None else repr(v)
                                        for v in values])
    return out.getvalue()


def emit_reports(reports: list[FactoryReport], fmt: str) -> str:
    if fmt == "csv":
        return reports_to_csv(reports)
    if fmt == "json":
        return json.dumps([asdict(r) for r in reports], indent=2)
    return "\n\n".join(format_report_plain(r) for r in reports)


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def parse_noise_spec(text: str) -> NoiseSpec:
    """Parse 'z:1e-4', 'pauli:1e-4', or 'coherent:0.01' (excess radians)."""
    kind, sep, value = text.partition(":")
    if not sep or kind not in NOISE_KINDS:
        raise ValueError(
            f"noise must look like z:<p>, pauli:<p>, or coherent:<angle>; "
            f"got {text!r}"
        )
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"bad noise value {value!r}") from None
    return NOISE_KINDS[kind](number)


def parse_int_triple(text: str, label: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{label} must be three comma-separated integers")
    try:
        triple = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{label} must be three comma-separated "
                         "integers") from None
    return triple  # type: ignore[return-value]


def parse_int_list(text: str, label: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise ValueError(f"{label} must be comma-separated integers") from None
    if not values:
        raise ValueError(f"{label} must list at least one integer")
    return values


def _build_config(
    family_cli: str,
    d: tuple[int, int, int],
    d2: tuple[int, int, int] | None,
    n_l1: int | None,
    p_phys: float,
    c_t: float,
    consumption_full: bool,
    names: tuple[str, str, str] = ("--d2", "--n-l1", "--consumption-full"),
) -> FactoryConfig:
    """The configuration of these inputs.

    ``names`` spell d2, n_l1 and the full prefactor as the user wrote them
    (flags or config keys), for the error when the family needs one that
    is missing or takes none.
    """
    family = FAMILY_NAMES[family_cli]
    values = dict(zip((f.name for f in fields(DistanceSet)),
                      (*d, *(d2 or (None, None, None)), n_l1)))
    check_family_inputs(
        family, {**values, "full": consumption_full},
        {"dX2": names[0], "dZ2": names[0], "dm2": names[0],
         "nL1": names[1], "full": names[2]}, family_cli)
    noise = PhysicalNoise(p_phys, c_t)
    return FactoryConfig(family, DistanceSet(**values), noise,
                         consumption_full)


# ---------------------------------------------------------------------------
# config file loading
# ---------------------------------------------------------------------------

_DEFAULT_KEYS = {"p_phys", "c_t", "consumption_prefactor"}
_PROTOCOL_KEYS = {"family", "d", "d2", "n_l1"} | _DEFAULT_KEYS


def _config_triple(value, path: str) -> tuple[int, int, int]:
    if (
        not isinstance(value, list)
        or len(value) != 3
        or not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in value)
    ):
        raise ConfigError(f"{path}: expected a list of three integers")
    return tuple(value)  # type: ignore[return-value]


def _config_number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: number too large") from None


def _config_prefactor(value, path: str) -> bool:
    if value not in ("half", "full"):
        raise ConfigError(f'{path}: expected "half" or "full"')
    return value == "full"


def load_config(path: str) -> list[FactoryConfig]:
    """Load factory configurations from a JSON config file.

    Raises ConfigError with a line/column position for syntax errors and a
    field path (e.g. protocols[2].d2) for schema errors.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}:{e.lineno}:{e.colno}: {e.msg}"
        ) from None
    except (ValueError, RecursionError) as e:  # too many digits or too deep
        raise ConfigError(f"{path}: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(data) - {"defaults", "protocols"}
    if unknown:
        raise ConfigError(f"{path}: unknown key {sorted(unknown)[0]!r}")

    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError("defaults: must be an object")
    unknown = set(defaults) - _DEFAULT_KEYS
    if unknown:
        raise ConfigError(f"defaults: unknown key {sorted(unknown)[0]!r}")

    entries = data.get("protocols")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("protocols: must be a non-empty list")

    configs = []
    for i, entry in enumerate(entries):
        where = f"protocols[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: must be an object")
        unknown = set(entry) - _PROTOCOL_KEYS
        if unknown:
            raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")

        merged = {**defaults, **entry}
        family_cli = merged.get("family")
        if not isinstance(family_cli, str) or family_cli not in FAMILY_NAMES:
            raise ConfigError(
                f"{where}.family: expected one of "
                f"{', '.join(sorted(FAMILY_NAMES))}; got {family_cli!r}"
            )
        if "d" not in merged:
            raise ConfigError(f"{where}.d: required")
        d = _config_triple(merged["d"], f"{where}.d")
        d2 = None
        if "d2" in merged:
            d2 = _config_triple(merged["d2"], f"{where}.d2")
        n_l1 = merged.get("n_l1")
        if n_l1 is not None and (isinstance(n_l1, bool)
                                 or not isinstance(n_l1, int)):
            raise ConfigError(f"{where}.n_l1: expected an integer")
        if "p_phys" not in merged:
            raise ConfigError(f"{where}.p_phys: required "
                              "(set it here or in defaults)")
        p_phys = _config_number(merged["p_phys"], f"{where}.p_phys")
        c_t = _config_number(merged.get("c_t", 1.0), f"{where}.c_t")
        toggle = _config_prefactor(
            merged.get("consumption_prefactor", "half"),
            f"{where}.consumption_prefactor",
        )
        try:
            configs.append(
                _build_config(family_cli, d, d2, n_l1, p_phys, c_t, toggle,
                              ("d2", "n_l1", 'consumption_prefactor "full"'))
            )
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
    return configs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_circuit(args: argparse.Namespace) -> int:
    kind = CIRCUIT_KINDS[args.kind]
    noise = parse_noise_spec(args.noise)
    p_out, p_fail = simulate_circuit(catalog(kind), noise, kmax=args.kmax)
    print(f"circuit:                {kind}")
    print(f"noise:                  {noise.kind} {noise.value:g}")
    print(f"p_out per output state: {p_out:.6e}")
    print(f"p_fail:                 {p_fail:.6e}")
    return 0


def cmd_factory(args: argparse.Namespace) -> int:
    given = [flag for flag in ("--family", "--d", "--d2", "--n-l1", "--pphys",
                               "--ct", "--consumption-full")
             if (v := getattr(args, flag[2:].replace("-", "_"))) is not None
             and v is not False]
    if args.config:
        if given:
            raise ValueError(f"--config takes no {', '.join(given)}: the "
                             "file sets every protocol")
        configs = load_config(args.config)
    else:
        if args.family is None or args.d is None or args.pphys is None:
            raise ValueError(
                "--family, --d, and --pphys are required without --config"
            )
        d = parse_int_triple(args.d, "--d")
        d2 = parse_int_triple(args.d2, "--d2") if args.d2 else None
        configs = [
            _build_config(args.family, d, d2, args.n_l1, args.pphys,
                          1.0 if args.ct is None else args.ct,
                          args.consumption_full)
        ]
    reports = [simulate_factory(c, kmax=args.kmax) for c in configs]
    print(emit_reports(reports, args.format), end="")
    if args.format == "plain":
        print()
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    rows = TABLES[args.name]
    all_ok = True
    print(f"{args.name}: re-deriving {len(rows)} configurations\n")
    for i, row in enumerate(rows, start=1):
        report = simulate_factory(row_config(row), kmax=args.kmax)
        checks = check_row(row, report)
        ok = all(passed for _, passed, _ in checks)
        all_ok &= ok
        pout_detail = checks[0][2]
        status = "PASS" if ok else "FAIL"
        print(f"{i:3d}  {report.protocol:<46s} p_out {pout_detail:<44s} {status}")
        for label, passed, detail in checks[1:]:
            if not passed or args.verbose:
                mark = "ok" if passed else "MISMATCH"
                print(f"     - {label}: {detail}  [{mark}]")
    print(f"\n{args.name}: "
          f"{'all rows pass' if all_ok else 'some rows FAILED'} "
          f"({len(rows)} rows checked)")
    return 0 if all_ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    family = FAMILY_NAMES[args.family]
    flags = {"dX": "--dx", "dZ": "--dz", "dm": "--dm", "dX2": "--dx2",
             "dZ2": "--dz2", "dm2": "--dm2", "nL1": "--n-l1"}
    ranges = {key: parse_int_list(text, flag) for key, flag in flags.items()
              if (text := getattr(args, flag[2:].replace("-", "_")))
              is not None}
    check_family_inputs(family, {**ranges, "full": args.consumption_full},
                        {**flags, "full": "--consumption-full"}, args.family)
    noise = PhysicalNoise(args.pphys, args.ct)
    reports = sweep(family, ranges, noise, args.target,
                    args.consumption_full, kmax=args.kmax)
    if args.format != "plain":
        print(emit_reports(reports, args.format), end="")
        return 0
    if not reports:
        print("no configuration meets the target")
        return 0
    print(f"{len(reports)} Pareto-minimal configuration(s) with "
          f"p_out <= {args.target:g}:\n")
    for r in reports:
        print(f"  {r.protocol:<46s} p_out {fmt_pout(r.p_out)}  "
              f"qubits {fmt_sig(r.qubits):>7s}  cycles {fmt_sig(r.cycles):>6s}  "
              f"qubitcycles/state {fmt_sig(r.qubitcycles_per_state)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks = self_checks()
    all_ok = True
    for label, ok in checks:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    print(f"\n{sum(ok for _, ok in checks)}/{len(checks)} checks pass")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msdsim",
        description="Simulate magic-state distillation circuits and "
                    "surface-code factories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("circuit", help="simulate one distillation circuit")
    p.add_argument("--kind", required=True, choices=sorted(CIRCUIT_KINDS))
    p.add_argument("--noise", required=True,
                   help="z:<p>, pauli:<p>, or coherent:<angle>")
    p.add_argument("--kmax", type=int, default=DEFAULT_MAX_GRADE,
                   help=KMAX_HELP)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("factory", help="produce a factory resource report")
    p.add_argument("--family", choices=sorted(FAMILY_NAMES))
    p.add_argument("--d", help="level-1 distances dX,dZ,dm")
    p.add_argument("--d2", help="level-2 distances dX2,dZ2,dm2")
    p.add_argument("--n-l1", type=int, default=None,
                   help="number of level-1 blocks feeding level 2")
    p.add_argument("--pphys", type=float, help="physical error rate")
    p.add_argument("--ct", type=float,
                   help="faulty-T-measurement cost factor (default 1)")
    p.add_argument("--consumption-full", action="store_true",
                   help="use the full consumption-storage prefactor "
                        "(default: half)")
    p.add_argument("--config", help="JSON config file with protocol entries")
    p.add_argument("--format", choices=("plain", "csv", "json"),
                   default="plain")
    p.add_argument("--kmax", type=int, default=DEFAULT_MAX_GRADE,
                   help=KMAX_HELP)
    p.set_defaults(func=cmd_factory)

    p = sub.add_parser("table", help="re-derive a built-in reference table")
    p.add_argument("--name", required=True, choices=sorted(TABLES))
    p.add_argument("--verbose", action="store_true",
                   help="print every sub-check, not only mismatches")
    p.add_argument("--kmax", type=int, default=DEFAULT_MAX_GRADE,
                   help=KMAX_HELP)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sweep", help="Pareto sweep over code distances")
    p.add_argument("--family", required=True, choices=sorted(FAMILY_NAMES))
    p.add_argument("--pphys", type=float, required=True)
    p.add_argument("--ct", type=float, default=1.0)
    p.add_argument("--target", type=float, required=True,
                   help="largest acceptable p_out per state")
    p.add_argument("--dx", required=True, help="comma list of dX values")
    p.add_argument("--dz", required=True, help="comma list of dZ values")
    p.add_argument("--dm", required=True, help="comma list of dm values")
    p.add_argument("--dx2", help="comma list of dX2 values")
    p.add_argument("--dz2", help="comma list of dZ2 values")
    p.add_argument("--dm2", help="comma list of dm2 values")
    p.add_argument("--n-l1", help="comma list of level-1 block counts")
    p.add_argument("--consumption-full", action="store_true")
    p.add_argument("--format", choices=("plain", "csv", "json"),
                   default="plain")
    p.add_argument("--kmax", type=int, default=DEFAULT_MAX_GRADE,
                   help=KMAX_HELP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run circuit and gadget self-checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every subcommand with --kmax checks it, including the paths (such
        # as coherent circuit noise) that never build a graded state
        if getattr(args, "kmax", 1) < 1:
            raise ValueError(f"--kmax must be at least 1, got {args.kmax}")
        return args.func(args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
