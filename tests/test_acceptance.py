"""Acceptance gate: one test per headline requirement.

Each test prints a single PASS line when its criterion holds at the
stated tolerance; run with ``pytest -v`` to see one line per criterion.
"""
from __future__ import annotations

import math
import time

import numpy as np

from msdsim.circuits import (
    catalog,
    coherent,
    random_pauli,
    undetected_error_sets,
    verify_equivalence,
    verify_gadget,
    z_only,
)
from msdsim.density import GradedDensityMatrix, RotationErrorProfile
from msdsim.factory import (
    FactoryConfig,
    cycle_cost,
    d3_cost,
    full_distance,
    qubit_cost,
    simulate_circuit,
    simulate_factory,
)
from msdsim.noise import DistanceSet, PhysicalNoise, StorageRates
from msdsim.pauli import PauliProduct, Rotation, RotationAngle
from oracle import materialize


def _config(family, d, d2=None, n_l1=None, p=1e-4, ct=1.0):
    dist = DistanceSet(*d) if d2 is None else DistanceSet(*d, *d2, n_l1)
    return FactoryConfig(family, dist, PhysicalNoise(p, ct))


def _dev(value, target):
    return abs(value - target) / target


class TestAcceptance:
    def test_criterion_1_circuit_error_rates(self):
        c15 = catalog("fifteen_to_one")
        p_out, _ = simulate_circuit(c15, z_only(1e-4))
        assert _dev(p_out, 3.501e-11) <= 1e-3
        p_out, _ = simulate_circuit(c15, random_pauli(1e-4))
        assert _dev(p_out, 1.03724e-11) <= 1e-3
        p_out, _ = simulate_circuit(catalog("twenty_to_four"), z_only(1e-4))
        assert _dev(p_out, 5.505e-8) <= 2e-3
        p_out, _ = simulate_circuit(c15, coherent(math.asin(0.01)))
        assert _dev(p_out, 1.22e-9) <= 2e-2
        print("PASS criterion 1: circuit-level error rates "
              "(3.501e-11, 1.03724e-11, 5.505e-8, 1.22e-9)")

    def test_criterion_2_undetected_error_enumeration(self):
        start = time.monotonic()
        c15 = catalog("fifteen_to_one")
        assert [undetected_error_sets(c15, k) for k in (1, 2, 3)] == [0, 0, 35]
        c20 = catalog("twenty_to_four")
        assert undetected_error_sets(c20, 2) == 22
        c8 = catalog("eight_to_ccz")
        assert [undetected_error_sets(c8, k) for k in (1, 2)] == [0, 28]
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        for c, order in ((c15, 3), (c20, 2), (c8, 2)):
            subsets = sum(math.comb(len(c.rotations), k)
                          for k in range(1, order + 1))
            assert subsets <= 2 ** 20
        print(f"PASS criterion 2: undetected Z-error sets 35/22/28 "
              f"in {elapsed:.2f} s, subset budget within 2^20")

    def test_criterion_3_circuit_identities(self):
        assert verify_equivalence(catalog("identity16"), [])
        assert verify_equivalence(catalog("identity15_4q"), [])
        assert verify_equivalence(
            catalog("fifteen_to_one"),
            [Rotation(PauliProduct("ZIIII"), RotationAngle(-1))],
        )
        p_out, _ = simulate_circuit(catalog("twenty_to_four"), z_only(0.0),
                                    kmax=1)
        assert 4 * p_out <= 1e-10
        assert verify_equivalence(catalog("eight_to_ccz"), catalog("ccz7"))
        for kind in ("consumption", "t_measurement", "delayed_choice",
                     "auto_corrected"):
            assert verify_gadget(kind)
        print("PASS criterion 3: distillation identities and "
              "four consumption gadgets verified")

    def test_criterion_4_footprints_and_base_cycles(self):
        exact = [
            (_config("L1_15to1", (7, 3, 3)), 810),
            (_config("L1_15to1", (9, 3, 3)), 1146),
            (_config("L1_15to1", (11, 5, 5)), 2066),
            (_config("L2_15x20", (9, 3, 3), (15, 7, 9), 4), 16410),
            (_config("L2_15x15", (9, 3, 3), (25, 9, 9), 4), 18630),
            (_config("L2_15xCCZ", (7, 3, 3), (15, 7, 9), 4), 12384),
            (_config("L1_15to1_small", (9, 3, 3)), 762),
        ]
        for config, expected in exact:
            assert qubit_cost(config) == expected
        small2 = _config("L2_15x15_small", (9, 5, 5), (21, 9, 11), p=1e-3)
        assert _dev(qubit_cost(small2), 7780) <= 5e-3
        assert cycle_cost(_config("L1_15to1", (7, 3, 3)), 0.0) == 18
        assert cycle_cost(_config("L1_15to1", (11, 5, 5)), 0.0) == 30
        assert cycle_cost(_config("L1_15to1_small", (9, 3, 3)), 0.0) == 36
        print("PASS criterion 4: qubit footprints exact "
              "(810/1146/2066/16410/18630/12384/762, small two-level "
              "within 0.5%), base cycles 18/30/36")

    def test_criterion_5_full_distances_and_costs(self):
        pairs = [
            (4.4e-8, 1e-4, 11, 13), (9.3e-10, 1e-4, 13, 15),
            (1.9e-11, 1e-4, 15, 17), (2.4e-15, 1e-4, 19, 21),
            (6.3e-25, 1e-4, 29, 31), (4.5e-8, 1e-3, 25, 29),
            (1.4e-10, 1e-3, 29, 33), (2.6e-11, 1e-3, 31, 35),
            (2.7e-12, 1e-3, 33, 37), (3.3e-14, 1e-3, 37, 41),
            (4.5e-20, 1e-3, 49, 53), (1.5e-9, 1e-4, 13, 15),
            (6.1e-10, 1e-3, 29, 33),
            (7.2e-14 / 4, 1e-4, 19, 21), (5.2e-11 / 4, 1e-3, 31, 35),
        ]
        for p_out, p_phys, d100, d10k in pairs:
            assert full_distance(p_out, "qubits100", p_phys) == d100
            assert full_distance(p_out, "qubits10k", p_phys) == d10k
        costs = [
            (810, 18.1, 1, 11, 5.49), (810, 18.1, 1, 13, 3.33),
            (1146, 18.06, 1, 13, 4.71), (1146, 18.06, 1, 15, 3.07),
            (4620, 42.6, 1, 25, 6.30), (4620, 42.6, 1, 29, 4.04),
            (16410, 90.3, 4, 19, 27.0), (16410, 90.3, 4, 21, 20.0),
            (18630, 67.8, 1, 29, 25.9), (18630, 67.8, 1, 31, 21.2),
        ]
        for qubits, cycles, outputs, d, expected in costs:
            assert _dev(d3_cost(qubits, cycles, outputs, d), expected) <= 1e-2
        print("PASS criterion 5: full code distances at quoted error "
              "rates and d^3 space-time costs within 1%")

    def test_criterion_6_factory_error_rates_and_cycles(self):
        rows = [
            (_config("L1_15to1", (7, 3, 3)), 4.4e-8, 18.1),
            (_config("L1_15to1", (9, 3, 3)), 9.3e-10, None),
            (_config("L1_15to1", (11, 5, 5)), 1.9e-11, None),
            (_config("L1_15to1", (17, 7, 7), p=1e-3), 4.5e-8, 42.6),
            (_config("L2_15x20", (9, 3, 3), (15, 7, 9), 4), 2.4e-15, 90.3),
            (_config("L2_15xCCZ", (13, 7, 7), (25, 15, 15), 6, p=1e-3),
             5.2e-11, None),
            (_config("L1_15to1_small", (9, 3, 3)), 1.5e-9, 36.2),
        ]
        for config, expected_p, expected_cycles in rows:
            report = simulate_factory(config)
            assert _dev(report.p_out, expected_p) <= 0.30, report.protocol
            if expected_cycles is not None:
                assert _dev(report.cycles, expected_cycles) <= 0.03, \
                    report.protocol
        deep = simulate_factory(
            _config("L2_15x15", (9, 3, 3), (25, 9, 9), 4))
        assert _dev(deep.cycles, 67.8) <= 0.03
        print("PASS criterion 6: factory output error rates within 30% "
              "and cycle counts within 3% of the quoted values")

    def test_criterion_7_slow_t_gates(self):
        report = simulate_factory(_config("L1_15to1", (9, 3, 3), ct=10.0))
        assert _dev(report.p_out, 2.1e-8) <= 0.30
        report = simulate_factory(
            _config("L2_15x15", (11, 5, 5), (25, 11, 11), 6, p=1e-3,
                    ct=10.0))
        assert _dev(report.p_out, 6.4e-12) <= 0.30
        for config_fast, config_slow in [
            (_config("L1_15to1", (7, 3, 3)),
             _config("L1_15to1", (7, 3, 3), ct=10.0)),
            (_config("L1_15to1", (11, 5, 5)),
             _config("L1_15to1", (11, 5, 5), ct=10.0)),
            (_config("L2_15x20", (9, 3, 3), (15, 7, 9), 4),
             _config("L2_15x20", (9, 3, 3), (15, 7, 9), 4, ct=10.0)),
        ]:
            assert (simulate_factory(config_slow).p_out
                    > simulate_factory(config_fast).p_out)
        print("PASS criterion 7: ten-cycle T gates reproduce quoted rates "
              "within 30% and strictly increase the output error")

    def test_criterion_8_channel_and_scaling_robustness(self):
        rng = np.random.default_rng(20240817)
        applications = 0
        for _ in range(10):
            n = int(rng.integers(2, 5))
            # every channel adds at most two error events, so this kmax
            # keeps the whole state
            rho = GradedDensityMatrix.init_plus(n, kmax=40)
            for _ in range(20):
                choice = rng.choice(["rotation", "storage"])
                mask = int(rng.integers(1, 1 << n))
                axis = PauliProduct("".join(
                    "Z" if mask >> i & 1 else "I" for i in range(n)))
                if choice == "rotation":
                    probs = rng.uniform(0.0, 0.03, size=3)
                    profile = RotationErrorProfile(
                        probs[0], probs[1], probs[2],
                        p_z_output=float(rng.uniform(0.0, 0.02)))
                    rho = rho.apply_faulty_rotation(
                        axis, profile, sign=int(rng.choice([1, -1])))
                    if mask & 1:  # qubit 0 is the output
                        rho = rho.apply_z_flips([(0, profile.p_z_output)])
                else:
                    rates = StorageRates(float(rng.uniform(0.0, 0.01)),
                                         float(rng.uniform(0.0, 0.01)))
                    q = int(rng.integers(0, n))
                    cycles = float(rng.uniform(0.5, 3.0))
                    rho = rho.apply_x_flip(q, cycles * rates.pX)
                    rho = rho.apply_z_flips([(q, cycles * rates.pZ)])
                materialize(rho).validate()
                applications += 1
        assert applications == 200

        p = 1e-6
        p_out, _ = simulate_circuit(catalog("fifteen_to_one"), z_only(p))
        assert _dev(p_out, 35 * p ** 3) <= 1e-2
        p_out, _ = simulate_circuit(catalog("twenty_to_four"), z_only(p))
        assert _dev(p_out, 22 * p ** 2 / 4) <= 1e-2
        p_out, _ = simulate_circuit(catalog("eight_to_ccz"), z_only(p))
        assert _dev(p_out, 28 * p ** 2) <= 1e-2

        for kind in ("fifteen_to_one", "twenty_to_four", "eight_to_ccz"):
            c = catalog(kind)
            rates = [simulate_circuit(c, z_only(pp))[0]
                     for pp in (2e-5, 5e-5, 1e-4, 2e-4, 5e-4)]
            assert all(a < b for a, b in zip(rates, rates[1:]))
        print("PASS criterion 8: 200 randomized channel applications stay "
              "valid, leading-order coefficients within 1%, output error "
              "monotone in the physical rate")
