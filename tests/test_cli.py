"""Tests for the command-line interface, formats, and config loading."""
from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import msdsim.cli as cli
import msdsim.reference as reference
from msdsim.cli import (
    CSV_COLUMNS,
    ConfigError,
    FAMILY_NAMES,
    load_config,
    main,
    parse_int_list,
    parse_int_triple,
    parse_noise_spec,
    reports_to_csv,
)
from msdsim.factory import FactoryConfig, simulate_factory
from msdsim.noise import DistanceSet, PhysicalNoise
from msdsim.reference import (
    TABLE1,
    TABLE2,
    check_row,
    fmt_pout,
    fmt_sig,
    round_sig,
    row_config,
)


VERIFY_LABELS = [
    "identity16 composes to the identity",
    "15-to-1 composes to a -pi/8 Z-rotation on its output",
    "20-to-4 noiseless output fidelity >= 1 - 1e-10",
    "8-to-CCZ composes to the 7-rotation CCZ decomposition",
    "15-rotation 4-qubit identity composes to the identity",
    "consumption gadget branch rules",
    "t_measurement gadget branch rules",
    "delayed_choice gadget branch rules",
    "auto_corrected gadget branch rules",
    "15-to-1 undetected single errors = 0",
    "15-to-1 undetected error pairs = 0",
    "15-to-1 undetected error triples = 35",
    "20-to-4 undetected single errors = 0",
    "20-to-4 undetected error pairs = 22",
    "8-to-CCZ undetected single errors = 0",
    "8-to-CCZ undetected error pairs = 28",
]


class TestDisplayRounding:
    def test_round_sig(self):
        assert round_sig(14628.585, 3) == 14600
        assert round_sig(18.0599, 3) == 18.1
        assert round_sig(0.0, 3) == 0.0
        assert round_sig(4.331820452545726e-08, 2) == 4.3e-08

    def test_fmt_sig(self):
        assert fmt_sig(14628.585) == "14,600"
        assert fmt_sig(18.0599) == "18.1"
        assert fmt_sig(90.366) == "90.4"
        assert fmt_sig(468.326) == "468"
        assert fmt_sig(1262641.15) == "1,260,000"

    def test_fmt_pout(self):
        assert fmt_pout(4.331820452545726e-08) == "4.3e-08"
        assert fmt_pout(8.192460937670754e-25) == "8.2e-25"


class TestArgumentParsing:
    def test_noise_spec(self):
        spec = parse_noise_spec("z:1e-4")
        assert (spec.kind, spec.value) == ("z_only", 1e-4)
        spec = parse_noise_spec("pauli:0.001")
        assert (spec.kind, spec.value) == ("random_pauli", 0.001)
        spec = parse_noise_spec("coherent:0.01")
        assert (spec.kind, spec.value) == ("coherent", 0.01)

    def test_noise_spec_errors(self):
        for bad in ("z", "w:1e-4", "z:abc", "1e-4"):
            with pytest.raises(ValueError):
                parse_noise_spec(bad)

    def test_noise_spec_rejects_non_finite_values(self):
        for kind in ("z", "pauli", "coherent"):
            for value in ("inf", "-inf", "nan"):
                with pytest.raises(ValueError, match="finite"):
                    parse_noise_spec(f"{kind}:{value}")

    def test_int_triple(self):
        assert parse_int_triple("9,3,3", "--d") == (9, 3, 3)
        for bad in ("9,3", "9,3,3,3", "a,3,3"):
            with pytest.raises(ValueError):
                parse_int_triple(bad, "--d")

    def test_int_list(self):
        assert parse_int_list("5,7", "--dx") == [5, 7]
        for bad in ("5,,7", "5,", ",5", ",", "5,a"):
            with pytest.raises(ValueError, match=(
                    "^--dx must be comma-separated integers$")):
                parse_int_list(bad, "--dx")
        with pytest.raises(ValueError, match="at least one integer"):
            parse_int_list("", "--dx")


def reports_from_csv(text: str) -> list[dict]:
    """Parse reports_to_csv output back into typed dictionaries."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ValueError("empty CSV input") from None
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header!r}")
    rows = []
    for fields in reader:
        if not fields:
            continue
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"row has {len(fields)} fields, "
                             f"expected {len(CSV_COLUMNS)}")
        row: dict = {"protocol": fields[0]}
        for name, value in zip(CSV_COLUMNS[1:5 + 1], fields[1:5 + 1]):
            row[name] = float(value)
        for name, value, kind in (
            ("d_full_100", fields[6], int),
            ("cost_d3_100", fields[7], float),
            ("d_full_10k", fields[8], int),
            ("cost_d3_10k", fields[9], float),
        ):
            row[name] = None if value == "" else kind(value)
        rows.append(row)
    return rows


class TestCsvRoundTrip:
    def test_fields_survive(self):
        reports = [
            simulate_factory(FactoryConfig(
                "L1_15to1", DistanceSet(7, 3, 3), PhysicalNoise(1e-4))),
            simulate_factory(FactoryConfig(
                "L2_15xCCZ", DistanceSet(7, 3, 3, 15, 7, 9, 4),
                PhysicalNoise(1e-4))),
        ]
        parsed = reports_from_csv(reports_to_csv(reports))
        assert len(parsed) == len(reports)
        for row, report in zip(parsed, reports):
            assert row["protocol"] == report.protocol
            assert row["d_full_100"] == report.d_full_100
            assert row["d_full_10k"] == report.d_full_10k
            for field in ("p_phys", "p_out", "qubits", "cycles",
                          "qubitcycles_per_state", "cost_d3_100",
                          "cost_d3_10k"):
                np.testing.assert_allclose(row[field],
                                           getattr(report, field),
                                           rtol=1e-12)

    def test_header_is_exact(self):
        text = reports_to_csv([])
        assert text.splitlines()[0] == (
            "protocol,p_phys,p_out,qubits,cycles,qubitcycles_per_state,"
            "d_full_100,cost_d3_100,d_full_10k,cost_d3_10k"
        )

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            reports_from_csv("nonsense,header\n")
        good = reports_to_csv([])
        with pytest.raises(ValueError):
            reports_from_csv(good + "only,three,fields\n")
        with pytest.raises(ValueError):
            reports_from_csv("")


class TestLoadConfig:
    def _write(self, tmp_path, text):
        path = tmp_path / "protocols.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_defaults_and_overrides(self, tmp_path):
        path = self._write(tmp_path, json.dumps({
            "defaults": {"p_phys": 1e-4, "c_t": 2.0},
            "protocols": [
                {"family": "l1_15to1", "d": [7, 3, 3]},
                {"family": "l2_15x15", "d": [9, 3, 3], "d2": [25, 9, 9],
                 "n_l1": 4, "p_phys": 1e-3, "c_t": 1.0,
                 "consumption_prefactor": "full"},
            ],
        }))
        configs = load_config(path)
        assert len(configs) == 2
        first, second = configs
        assert first.family == "L1_15to1"
        assert first.noise.p_phys == 1e-4
        assert first.noise.c_T == 2.0
        assert not first.consumption_prefactor_toggle
        assert second.family == "L2_15x15"
        assert second.distances.nL1 == 4
        assert second.noise.p_phys == 1e-3
        assert second.consumption_prefactor_toggle

    def test_unknown_keys_are_errors(self, tmp_path):
        path = self._write(tmp_path, json.dumps({
            "protocols": [{"family": "l1_15to1", "d": [7, 3, 3],
                           "p_phys": 1e-4, "bogus": 1}],
        }))
        with pytest.raises(ConfigError, match=r"protocols\[0\].*bogus"):
            load_config(path)
        path = self._write(tmp_path, json.dumps({
            "defaults": {"speed": 11}, "protocols": [],
        }))
        with pytest.raises(ConfigError, match="defaults.*speed"):
            load_config(path)
        path = self._write(tmp_path, json.dumps({"stuff": 1}))
        with pytest.raises(ConfigError, match="stuff"):
            load_config(path)

    def test_even_distance_is_field_error(self, tmp_path):
        path = self._write(tmp_path, json.dumps({
            "protocols": [{"family": "l1_15to1", "d": [8, 3, 3],
                           "p_phys": 1e-4}],
        }))
        with pytest.raises(ConfigError,
                           match=r"protocols\[0\].*odd integer"):
            load_config(path)

    def test_syntax_error_reports_line(self, tmp_path):
        path = self._write(tmp_path, '{\n  "protocols": [,]\n}')
        with pytest.raises(ConfigError, match=r":2:\d+"):
            load_config(path)

    def test_missing_required_fields(self, tmp_path):
        path = self._write(tmp_path, json.dumps({
            "protocols": [{"family": "l1_15to1", "d": [7, 3, 3]}],
        }))
        with pytest.raises(ConfigError, match="p_phys"):
            load_config(path)
        path = self._write(tmp_path, json.dumps({
            "protocols": [{"family": "l1_15to1", "p_phys": 1e-4}],
        }))
        with pytest.raises(ConfigError, match=r"protocols\[0\]\.d"):
            load_config(path)

    def test_type_errors(self, tmp_path):
        path = self._write(tmp_path, json.dumps({
            "protocols": [{"family": "l1_15to1", "d": [7, 3, True],
                           "p_phys": 1e-4}],
        }))
        with pytest.raises(ConfigError, match="three integers"):
            load_config(path)
        path = self._write(tmp_path, json.dumps({
            "protocols": [{"family": "l1_15to1", "d": [7, 3, 3],
                           "p_phys": 1e-4,
                           "consumption_prefactor": "most"}],
        }))
        with pytest.raises(ConfigError, match="half.*full"):
            load_config(path)


# A JSON number too large for a float
_HUGE = 10 ** 400

_json_scalars = (st.none() | st.booleans() | st.floats() | st.integers()
                 | st.integers(_HUGE, 10 * _HUGE) | st.text(max_size=8))
_json = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)
_numbers = st.floats() | st.integers() | st.integers(_HUGE, 10 * _HUGE)


def _either(valid):
    return valid | _json_scalars | st.lists(_json_scalars, max_size=3)


_protocol = st.fixed_dictionaries(
    {"family": _either(st.sampled_from(sorted(FAMILY_NAMES))),
     "d": _either(st.lists(st.integers(-3, 31), min_size=3, max_size=3))},
    optional={
        "d2": _either(st.lists(st.integers(-3, 31), min_size=3, max_size=3)),
        "n_l1": _either(st.integers(-2, 8)),
        "p_phys": _either(_numbers),
        "c_t": _either(_numbers),
        "consumption_prefactor": _either(st.sampled_from(["half", "full"])),
    })
_config_text = st.one_of(
    st.fixed_dictionaries(
        {"protocols": st.lists(_protocol, max_size=3)},
        optional={"defaults": st.fixed_dictionaries({}, optional={
            "p_phys": _either(_numbers), "c_t": _either(_numbers)})},
    ).map(json.dumps),
    _json.map(json.dumps),
    st.text(),
)
_int_lists = st.text(st.sampled_from("0123456789,-+ _x"), max_size=12)


class TestParsersNeverCrash:
    """Any input either parses or raises the parser's own error type."""

    @settings(max_examples=100)
    @given(text=st.text() | st.builds(
        "{}:{}".format, st.sampled_from(["z", "pauli", "coherent", "w"]),
        st.text() | st.floats().map(repr)))
    def test_noise_spec(self, text):
        try:
            parse_noise_spec(text)
        except ValueError:
            pass

    @settings(max_examples=100)
    @given(text=st.text() | _int_lists)
    def test_int_triple_and_list(self, text):
        for parse in (parse_int_triple, parse_int_list):
            try:
                parse(text, "--d")
            except ValueError:
                pass

    @settings(max_examples=50,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_config_text)
    @example(text=json.dumps({"protocols": [
        {"family": "l1_15to1", "d": [7, 3, 3], "p_phys": _HUGE}]}))
    @example(text=json.dumps({"protocols": [
        {"family": "l1_15to1", "d": [7, 3, 3], "p_phys": 1e-4,
         "c_t": _HUGE}]}))
    # nested deeper than the JSON parser recurses, and an integer with more
    # digits than Python converts
    @example(text="[" * 100_000)
    @example(text="1" * 5000)
    def test_load_config(self, tmp_path, text):
        path = tmp_path / "fuzz.json"
        path.write_text(text, encoding="utf-8")
        try:
            load_config(str(path))
        except ConfigError:
            pass


class TestMainExitCodes:
    def test_circuit_command(self, capsys):
        assert main(["circuit", "--kind", "15to1", "--noise", "z:1e-4"]) == 0
        out = capsys.readouterr().out
        assert "3.501050e-11" in out
        assert "p_fail" in out

    def test_factory_command(self, capsys):
        assert main(["factory", "--family", "l1_15to1", "--d", "7,3,3",
                     "--pphys", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "(15-to-1)_{7,3,3}" in out
        assert "4.3e-08" in out
        assert "14,600" in out

    def test_noiseless_factory_has_no_full_distance(self, capsys):
        assert main(["factory", "--family", "l1_15to1", "--d", "7,3,3",
                     "--pphys", "0"]) == 0
        out = capsys.readouterr().out
        assert "p_out per state:      0.0e+00" in out
        assert out.count("none <= 99") == 2

    def test_zero_noise_reads_exactly_zero_everywhere(self, capsys):
        # one driver runs circuits and factories, and a noiseless run of
        # it reads 0, not the engine's round-off
        for kind in cli.CIRCUIT_KINDS:
            for noise in ("z:0", "pauli:0", "coherent:0"):
                assert main(["circuit", "--kind", kind, "--noise",
                             noise]) == 0
                out = capsys.readouterr().out
                assert "p_out per output state: 0.000000e+00\n" in out, (
                    kind, noise)
                assert "p_fail:                 0.000000e+00\n" in out, (
                    kind, noise)
        for family in ("l1_15to1", "l2_15x20"):
            assert main(["factory", "--family", family, "--d", "9,3,3",
                         *(["--d2", "15,7,9", "--n-l1", "4"]
                           if family.startswith("l2") else []),
                         "--pphys", "0"]) == 0
            out = capsys.readouterr().out
            assert "p_out per state:      0.0e+00\n" in out, family
            assert out.count("e+00\n") == 3, family  # p_out and p_fails

    def test_factory_json_mirrors_report(self, capsys):
        assert main(["factory", "--family", "l1_15to1", "--d", "7,3,3",
                     "--pphys", "1e-4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = simulate_factory(FactoryConfig(
            "L1_15to1", DistanceSet(7, 3, 3), PhysicalNoise(1e-4)))
        assert payload[0].keys() == report.__dataclass_fields__.keys()
        np.testing.assert_allclose(payload[0]["p_out"], report.p_out,
                                   rtol=1e-12)

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["circuit", "--kind", "15to1", "--noise", "zz:1"]) == 2
        assert main(["factory", "--family", "l1_15to1", "--d", "7,3",
                     "--pphys", "1e-4"]) == 2
        assert main(["factory", "--pphys", "1e-4"]) == 2
        assert main(["factory", "--family", "l1_15to1", "--d", "8,3,3",
                     "--pphys", "1e-4"]) == 2
        capsys.readouterr()

    def test_non_finite_noise_exit_2(self, capsys):
        for kind in ("z", "pauli", "coherent"):
            for value in ("inf", "-inf", "nan"):
                assert main(["circuit", "--kind", "15to1", "--noise",
                             f"{kind}:{value}"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.splitlines() == [
                    f"error: noise value must be finite, got {value}"]

    def test_pphys_outside_model_range_exit_2(self, capsys):
        assert main(["factory", "--family", "l1_15to1", "--d", "7,3,3",
                     "--pphys", "9e-3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "error: p_phys=0.009 is outside the noise model's range for "
            "(15-to-1)_{7,3,3} (")

    def test_ct_outside_model_range_names_ct(self, capsys):
        # p_phys = 1e-4 is in range; c_T = 1e308 takes the T-measurement
        # rate out of it
        assert main(["factory", "--family", "l1_15to1", "--d", "7,3,3",
                     "--pphys", "1e-4", "--ct", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: p_phys=0.0001 with c_T=1e+308 is outside the noise "
            "model's range for (15-to-1)_{7,3,3} (p_half=")
        assert captured.err.count("\n") == 1
        # a level-2 family's level-1 block names it too
        assert main(["factory", "--family", "l2_15x15", "--d", "9,3,3",
                     "--d2", "25,9,9", "--n-l1", "4", "--pphys", "1e-4",
                     "--ct", "1e300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: p_phys=0.0001 with c_T=1e+300 is outside the noise "
            "model's range for (15-to-1)_{9,3,3} (")
        # and the protocol requested
        assert err.endswith(
            "), the level-1 block of (15-to-1)^4_{9,3,3} x "
            "(15-to-1)_{25,9,9}\n")
        assert err.count("\n") == 1

    def test_non_finite_ct_exit_2(self, capsys):
        for value in ("nan", "inf"):
            assert main(["factory", "--family", "l1_15to1", "--d", "7,3,3",
                         "--pphys", "1e-4", "--ct", value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: c_T must be finite and positive, got {value}\n")

    def test_failed_allocation_exits_2(self, capsys, monkeypatch):
        for message, shown in (("Unable to allocate 15 TiB", None),
                               ("", "MemoryError")):
            def too_big(config, kmax):
                raise MemoryError(message)

            monkeypatch.setattr(cli, "simulate_factory", too_big)
            assert main(["factory", "--family", "l1_15to1", "--d", "7,3,3",
                         "--pphys", "1e-4", "--kmax", "1000000000"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {shown or message}\n"

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["factory", "--config", str(path)]) == 2
        assert main(["factory", "--config", str(tmp_path / "missing.json")]
                    ) == 2
        capsys.readouterr()

    def test_config_number_too_large_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        for field, entry in (
            ("p_phys", {"p_phys": _HUGE}),
            ("c_t", {"p_phys": 1e-4, "c_t": _HUGE}),
        ):
            path.write_text(json.dumps({"protocols": [
                {"family": "l1_15to1", "d": [7, 3, 3], **entry}]}),
                encoding="utf-8")
            assert main(["factory", "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: protocols[0].{field}: number too large\n")

    def test_flags_the_family_does_not_use_exit_2(self, capsys):
        sweep = ["sweep", "--pphys", "1e-3", "--target", "1e-7"]
        for argv, message in (
            (sweep + ["--family", "l1_15to1", "--dx", "7", "--dz", "3",
                      "--dm", "3", "--dx2", "x"],
             "--dx2 must be comma-separated integers"),
            (sweep + ["--family", "l1_15to1", "--dx", "7", "--dz", "3",
                      "--dm", "3", "--dx2", "15", "--dz2", "7", "--dm2", "9"],
             "l1_15to1 takes no --dx2, --dz2, --dm2"),
            (sweep + ["--family", "l2_15x15_small", "--dx", "9", "--dz", "5",
                      "--dm", "5", "--dx2", "21", "--dz2", "9", "--dm2", "11",
                      "--n-l1", "4"],
             "l2_15x15_small takes no --n-l1"),
            (["factory", "--family", "l1_15to1", "--d", "7,3,3",
              "--d2", "15,7,9", "--pphys", "1e-4"],
             "l1_15to1 takes no --d2"),
            (["factory", "--family", "l1_15to1", "--d", "7,3,3",
              "--n-l1", "4", "--pphys", "1e-4"],
             "l1_15to1 takes no --n-l1"),
            (["factory", "--family", "l2_15x15_small", "--d", "9,5,5",
              "--d2", "21,9,11", "--n-l1", "4", "--pphys", "1e-3"],
             "l2_15x15_small takes no --n-l1"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_verify_command(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_verify_prints_its_sixteen_labels(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"PASS  {label}" for label in VERIFY_LABELS] + [
            "", "16/16 checks pass"]

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--family", "l1_15to1", "--pphys", "1e-4",
                     "--target", "1e-7", "--dx", "7,9", "--dz", "3",
                     "--dm", "3"]) == 0
        out = capsys.readouterr().out
        assert "(15-to-1)_{7,3,3}" in out

    def test_sweep_prints_a_repeated_distance_once(self, capsys):
        assert main(["sweep", "--family", "l1_15to1", "--pphys", "1e-4",
                     "--target", "1e-3", "--dx", "7,7", "--dz", "3,3",
                     "--dm", "3", "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["protocol"] for r in reports] == ["(15-to-1)_{7,3,3}"]

    def test_sweep_skips_distances_outside_the_noise_range(self, capsys):
        argv = ["sweep", "--family", "l1_15to1", "--pphys", "7e-3",
                "--target", "1e-2", "--dz", "3", "--dm", "9"]
        assert main(argv + ["--dx", "13,15"]) == 0
        captured = capsys.readouterr()
        assert "(15-to-1)_{13,3,9}" in captured.out
        assert captured.err == ""
        # with nothing in range, the first range error names the input
        assert main(argv + ["--dx", "15"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: p_phys=0.007 is outside the noise model's range for "
            "(15-to-1)_{15,3,9} (accumulated storage probability reaches 1)"]

    def test_sweep_rejects_bad_target(self, capsys):
        for target in ("nan", "-1", "0", "inf"):
            assert main(["sweep", "--family", "l1_15to1", "--pphys", "1e-4",
                         "--target", target, "--dx", "7", "--dz", "3",
                         "--dm", "3"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: target p_out")
            assert captured.err.count("\n") == 1

    def test_empty_list_items_exit_2(self, capsys):
        # an empty item is no distance: neither is dropped
        sweep = ["sweep", "--family", "l1_15to1", "--pphys", "1e-4",
                 "--target", "1e-7", "--dz", "3", "--dm", "3"]
        listed = "--dx must be comma-separated integers"
        for argv, message in (
            (sweep + ["--dx", "5,,7"], listed),
            (sweep + ["--dx", "5,"], listed),
            (["factory", "--family", "l1_15to1", "--d", "7,,3", "--pphys",
              "1e-4"], "--d must be three comma-separated integers"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_kmax_below_one_exits_2(self, capsys):
        for argv in (
            ["circuit", "--kind", "15to1", "--noise", "z:1e-4"],
            ["circuit", "--kind", "15to1", "--noise", "coherent:0.01"],
            ["factory", "--family", "l1_15to1", "--d", "7,3,3",
             "--pphys", "1e-4"],
            ["table", "--name", "table2"],
            ["sweep", "--family", "l1_15to1", "--pphys", "1e-4",
             "--target", "1e-7", "--dx", "7", "--dz", "3", "--dm", "3"],
        ):
            for kmax in ("0", "-3"):
                assert main(argv + ["--kmax", kmax]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    f"error: --kmax must be at least 1, got {kmax}\n")

    def test_kmax_above_170_runs(self, capsys):
        # (kmax + 1)! no longer fits a float; the higher grades add nothing
        # at p = 1e-4, so the report is the kmax = 6 one
        argv = ["factory", "--family", "l1_15to1", "--d", "7,3,3",
                "--pphys", "1e-4", "--format", "json"]
        assert main(argv + ["--kmax", "200"]) == 0
        deep = json.loads(capsys.readouterr().out)[0]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)[0]
        np.testing.assert_allclose(deep["p_out"], default["p_out"],
                                   rtol=1e-12)

    def test_sweep_level2_requires_ranges(self, capsys):
        argv = ["sweep", "--family", "l2_15x15", "--pphys", "1e-4",
                "--target", "1e-10", "--dx", "9", "--dz", "3", "--dm", "3"]
        for extra, missing in (
            ([], "--dx2, --dz2, --dm2, --n-l1"),
            (["--dx2", "25", "--dz2", "9", "--dm2", "9"], "--n-l1"),
        ):
            assert main(argv + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: l2_15x15 requires {missing}\n"

    def test_config_with_protocol_flags_exits_2(self, tmp_path, capsys):
        # the file sets every protocol, so a protocol flag beside it would
        # be dropped without a word
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"protocols": [
            {"family": "l1_15to1", "d": [7, 3, 3], "p_phys": 1e-4}]}),
            encoding="utf-8")
        config = ["factory", "--config", str(path)]
        for extra, named in (
            (["--family", "l2_15x15", "--d", "9,9,9", "--pphys", "5e-3",
              "--ct", "10"], "--family, --d, --pphys, --ct"),
            (["--d2", "15,7,9", "--n-l1", "4"], "--d2, --n-l1"),
            (["--pphys", "0"], "--pphys"),
            (["--ct", "1"], "--ct"),
            (["--consumption-full"], "--consumption-full"),
        ):
            assert main(config + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: --config takes no {named}: "
                                    "the file sets every protocol\n")
        assert main(config + ["--format", "csv", "--kmax", "6"]) == 0
        assert "(15-to-1)_{7,3,3}" in capsys.readouterr().out

    def test_config_names_its_own_keys(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        for entry, message in (
            ({"family": "l1_15to1", "d": [7, 3, 3], "n_l1": 4},
             "l1_15to1 takes no n_l1"),
            ({"family": "l2_15x15", "d": [9, 3, 3], "n_l1": 4},
             "l2_15x15 requires d2"),
        ):
            path.write_text(json.dumps({"defaults": {"p_phys": 1e-4},
                                        "protocols": [entry]}),
                            encoding="utf-8")
            assert main(["factory", "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: protocols[0]: {message}\n"

    def test_sweep_of_no_configuration_exits_2(self, capsys):
        # the distances that factory rejects reject the sweep too, not a
        # front that nothing could have met
        for extra, message in (
            (["--family", "l1_15to1", "--dx", "3", "--dz", "5", "--dm", "3"],
             "level-1 requires dZ <= dX"),
            (["--family", "l2_15x15", "--dx", "9", "--dz", "3", "--dm", "3",
              "--dx2", "25", "--dz2", "9", "--dm2", "9", "--n-l1", "3"],
             "nL1 must be a positive even integer"),
            (["--family", "l1_15to1", "--dx", "7", "--dz", "3", "--dm", "3",
              "--consumption-full"],
             "l1_15to1 takes no --consumption-full"),
        ):
            for fmt in ("plain", "json"):
                assert main(["sweep", "--pphys", "1e-3", "--target", "1e-7",
                             "--format", fmt] + extra) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: {message}\n"

    def test_level1_consumption_full_exits_2(self, tmp_path, capsys):
        # a level-1 output is always charged half, so asking for the full
        # charge is an input error
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"protocols": [
            {"family": "l1_15to1_small", "d": [9, 3, 3], "p_phys": 1e-4,
             "consumption_prefactor": "full"}]}), encoding="utf-8")
        for argv, message in (
            (["factory", "--family", "l1_15to1", "--d", "7,3,3",
              "--pphys", "1e-4", "--consumption-full"],
             "l1_15to1 takes no --consumption-full"),
            (["factory", "--config", str(path)],
             'protocols[0]: l1_15to1_small takes no consumption_prefactor '
             '"full"'),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        with pytest.raises(ConfigError, match=r"^protocols\[0\]: "):
            load_config(str(path))

    def test_huge_distance_exits_2(self, tmp_path, capsys):
        # 401 digits: the rate formulas used to overflow a float
        huge = 10 ** 400 + 1
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"protocols": [
            {"family": "l1_15to1", "d": [huge, 3, huge], "p_phys": 1e-4}]}),
            encoding="utf-8")
        for argv, where in (
            (["factory", "--family", "l1_15to1", "--d", f"{huge},3,{huge}",
              "--pphys", "1e-4"], ""),
            (["factory", "--config", str(path)], "protocols[0]: "),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {where}level-1 dX must be below 2**53\n")


class TestTableCommand:
    def test_table2_passes_and_is_deterministic(self, capsys):
        assert main(["table", "--name", "table2"]) == 0
        first = capsys.readouterr().out
        assert main(["table", "--name", "table2"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "FAIL" not in first
        assert first.count("PASS") == len(TABLE2)

    def test_cli_reads_the_reference_objects(self):
        # the benchmark harness reads the tables and row checks through cli
        for name in ("TABLE1", "TABLE2", "TABLES", "check_row", "row_config"):
            assert getattr(cli, name) is getattr(reference, name), name

    def test_every_row_check_passes(self):
        for row in TABLE1 + TABLE2:
            report = simulate_factory(row_config(row))
            assert report.p_out > 0.0, report.protocol
            for label, ok, detail in check_row(row, report):
                assert ok, f"{report.protocol}: {label}: {detail}"


class TestHelp:
    def test_every_kmax_has_the_same_help(self, capsys):
        for command in ("circuit", "factory", "table", "sweep"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = " ".join(capsys.readouterr().out.split())
            assert ("--kmax KMAX highest error order kept by the engine"
                    in out), command

    def test_factory_and_sweep_document_the_noise_flags_alike(self, capsys):
        shown = {}
        for command in ("factory", "sweep"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            shown[command] = " ".join(capsys.readouterr().out.split())
        for flag, words in (
                ("--pphys PPHYS", "physical error rate"),
                ("--ct CT", "faulty-T-measurement cost factor (default 1)"),
                ("--consumption-full", "use the full consumption-storage "
                                       "prefactor (default: half)")):
            for command, out in shown.items():
                assert f"{flag} {words}" in out, (command, flag)


class TestConsoleScript:
    def test_entry_point_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "msdsim.cli", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        for command in ("circuit", "factory", "table", "sweep", "verify"):
            assert command in result.stdout

    def test_verify_leaves_numpy_random_unloaded(self):
        # the checks draw no random states, so a verify run need not pay
        # for importing numpy.random
        code = ("import contextlib, io, sys, numpy\n"
                "before = 'numpy.random' in sys.modules\n"
                "from msdsim.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    status = main(['verify'])\n"
                "print(before, status, 'numpy.random' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True)
        before, status, after = result.stdout.split()
        if before == "True":
            pytest.skip("importing numpy loads numpy.random here")
        assert (status, after) == ("0", "False")


class TestOneParser:
    """``main`` parses with one parser per process (``build_parser`` is
    memoized): what it prints must not depend on the calls before it."""

    # two table runs, help and usage texts, an argparse error, and errors
    # pinned by the tests above
    COMMANDS = (
        ["table", "--name", "table1", "--verbose"],
        ["table", "--name", "table2"],
        ["--help"],
        ["sweep", "--help"],
        ["factory", "--family", "l1_15to1", "--d", "7,3,3", "--pphys",
         "1e-4", "--format", "json"],
        ["factory", "--family", "l1_15to9"],
        ["sweep", "--family", "l1_15to1"],
        ["circuit", "--kind", "15to1", "--noise", "zz:1"],
        ["factory", "--family", "l1_15to1", "--d", "7,3,3", "--pphys",
         "1e-4", "--ct", "1e308"],
        ["circuit", "--kind", "15to1", "--noise", "z:1e-3", "--kmax", "0"],
        ["table", "--name", "table1"],
    )

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_print_what_fresh_processes_print(
            self, capsys, monkeypatch):
        # help wraps at the terminal's width: the same in both
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for argv in self.COMMANDS:
            fresh = subprocess.run(
                [sys.executable, "-m", "msdsim.cli", *argv],
                capture_output=True, text=True, env=env)
            try:
                status = main(argv)
            except SystemExit as e:
                status = e.code
            captured = capsys.readouterr()
            assert (status, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
