"""Tests for factory schedules, cost formulas, and resource reports."""
from __future__ import annotations

import collections
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import msdsim.factory as factory
from msdsim import eventsets, noise as noise_model
from msdsim.circuits import (CATALOG_KINDS, catalog, coherent,
                             random_pauli, z_only)
from msdsim.density import (SUBSTITUTIONS, GradedDensityMatrix,
                            RotationErrorProfile)
from msdsim.factory import (
    FAMILIES,
    LAYOUTS,
    FactoryConfig,
    FactoryReport,
    Schedule,
    build_schedule,
    cycle_cost,
    check_family_inputs,
    d3_cost,
    family_outputs,
    full_distance,
    p_out_lower_bound,
    protocol_name,
    qubit_cost,
    simulate_factory,
    sweep,
)
from msdsim.noise import DistanceSet, PhysicalNoise, StorageRates
from msdsim.pauli import equal_up_to_phase, phase_exponents
from msdsim.reference import TABLE1, TABLE2, row_config
from eventsets_reference import kept_sets as chunked_kept_sets
from oracle import DensityMatrix


def _l1(dx, dz, dm, p, ct=1.0, family="L1_15to1"):
    return FactoryConfig(family, DistanceSet(dx, dz, dm),
                         PhysicalNoise(p, ct))


def _l2(family, dx, dz, dm, dx2, dz2, dm2, n_l1, p, ct=1.0):
    return FactoryConfig(
        family, DistanceSet(dx, dz, dm, dx2, dz2, dm2, n_l1),
        PhysicalNoise(p, ct),
    )


def _shape_numbers(c) -> list[int]:
    """Each rotation's shape's index among the circuit's distinct shapes
    (whether its axis holds an output, whether it holds more than one
    qubit), in order of first appearance, its axis tested rotation by
    rotation: the reference for ``Schedule.shapes``."""
    shapes = [(bool(c.output_qubits & set(r.axis.support)),
               len(r.axis.support) > 1) for r in c.rotations]
    seen = list(dict.fromkeys(shapes))
    return [seen.index(shape) for shape in shapes]


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            FactoryConfig("L3_bogus", DistanceSet(7, 3, 3),
                          PhysicalNoise(1e-4))

    def test_level2_requirements(self):
        with pytest.raises(ValueError):
            FactoryConfig("L2_15x15", DistanceSet(9, 3, 3),
                          PhysicalNoise(1e-4))
        with pytest.raises(ValueError):
            FactoryConfig("L2_15x15", DistanceSet(9, 3, 3, 25, 9, 9),
                          PhysicalNoise(1e-4))  # nL1 missing
        for distances in (DistanceSet(7, 3, 3, 15, 7, 9),
                          DistanceSet(7, 3, 3, nL1=4)):
            with pytest.raises(ValueError, match="L1_15to1 takes no"):
                FactoryConfig("L1_15to1", distances, PhysicalNoise(1e-4))

    def test_small_two_level_needs_no_block_count(self):
        FactoryConfig("L2_15x15_small", DistanceSet(9, 5, 5, 21, 9, 11),
                      PhysicalNoise(1e-3))
        with pytest.raises(ValueError, match="takes no nL1"):
            FactoryConfig("L2_15x15_small",
                          DistanceSet(9, 5, 5, 21, 9, 11, 4),
                          PhysicalNoise(1e-3))


    def test_family_inputs_are_named_as_the_caller_spells_them(self):
        level1 = {"dX": 7, "dZ": 3, "dm": 3}
        d2 = {"dX2": "--d2", "dZ2": "--d2", "dm2": "--d2", "nL1": "--n-l1",
              "full": "--consumption-full"}
        for family, given, message in (
            # the missing inputs first, in the layout's order, each once
            ("L2_15x15", {**level1, "full": True},
             "l2_15x15 requires --d2, --n-l1"),
            ("L2_15x15_small", {**level1, "nL1": 4},
             "l2_15x15_small requires --d2"),
            # then the extra ones, as given; None and False are not given
            ("L1_15to1", {**level1, "full": True, "dX2": 15, "dZ2": 7,
                          "dm2": 9, "nL1": None},
             "l1_15to1 takes no --consumption-full, --d2"),
            ("L1_15to1", {**level1, "dX2": None, "nL1": 0, "full": False},
             "l1_15to1 takes no --n-l1"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check_family_inputs(family, given, d2, family.lower())
        check_family_inputs("L2_15x15_small", {**level1, "dX2": 21, "dZ2": 9,
                                               "dm2": 11, "full": True}, {})
        # unspelled inputs, and the family, read as given
        with pytest.raises(ValueError, match="^L1_15to1 takes no bogus$"):
            check_family_inputs("L1_15to1", {**level1, "bogus": 1}, {})
        with pytest.raises(
                ValueError,
                match="^L2_15x20 requires level-2 distances, nL1$"):
            FactoryConfig("L2_15x20", DistanceSet(9, 3, 3),
                          PhysicalNoise(1e-4))

    def test_level1_takes_no_consumption_prefactor(self):
        # a level-1 output is always charged half of dX p_L(p, dX)
        for family in ("L1_15to1", "L1_15to1_small"):
            with pytest.raises(ValueError,
                               match=f"{family} takes no consumption"):
                FactoryConfig(family, DistanceSet(7, 3, 3),
                              PhysicalNoise(1e-4), True)


class TestSchedules:
    def test_level1_shape(self):
        # six steps, one per dm of the block's 6 dm cycles
        s = build_schedule("L1_15to1")
        assert len(s.steps) == 6
        covered = sorted(r for rotations in s.steps for r in rotations)
        assert covered == list(range(15))

    def test_level2_shapes(self):
        assert len(build_schedule("L2_15x15").steps) == 8
        assert len(build_schedule("L2_15x20").steps) == 10
        assert len(build_schedule("L2_15xCCZ").steps) == 4
        assert len(build_schedule("L2_15x15_small").steps) == 15

    def test_initialization_covers_all_qubits(self):
        for family in factory.FAMILIES:
            s = build_schedule(family)
            init = set()
            for step, rotations in enumerate(s.steps):
                init.update(s.initialize.get(step, ()))
                for r in rotations:
                    axis = s.circuit.rotations[r].axis
                    assert set(axis.support) <= init
            assert init == set(range(s.circuit.n))

    @pytest.mark.parametrize("family, steps_stored", [
        ("L1_15to1", [5, 6, 6, 6, 4]),
        ("L1_15to1_small", [5, 6, 6, 6, 4]),
        ("L2_15x15", [8] * 5),
        ("L2_15x20", [9] + [10] * 6),
        ("L2_15xCCZ", [4] * 4),
        ("L2_15x15_small", [15] * 5),
    ])
    def test_every_initialized_qubit_is_stored_each_step(self, family,
                                                         steps_stored):
        # qubit q is stored in steps_stored[q] steps, those from the one
        # that initializes it on, that one included
        s = build_schedule(family)
        stored = [[q for step, source, operator, q, _ in s.events
                   if (step, source, operator) == (i, "storage", "Z")]
                  for i in range(len(s.steps))]
        assert all(qubits == sorted(qubits) for qubits in stored)
        counts = collections.Counter(q for qubits in stored for q in qubits)
        assert [counts[q] for q in range(s.circuit.n)] == steps_stored

    @pytest.mark.parametrize("family, counts", [
        ("L1_15to1", (15, 7, 27, 1, 78)),
        ("L1_15to1_small", (15, 7, 27, 1, 78)),
        ("L2_15x15", (15, 7, 40, 1, 104)),
        ("L2_15x20", (20, 28, 69, 4, 194)),
        ("L2_15xCCZ", (8, 12, 16, 3, 58)),
        ("L2_15x15_small", (15, 7, 75, 1, 174)),
    ])
    def test_a_run_lists_its_error_channels_in_time_order(self, family,
                                                          counts):
        # counts: the rotations, output Z flips, stored qubit-steps and
        # consumed outputs, a storage or consumption channel being an X
        # and a Z entry, and all the entries
        s = build_schedule(family)
        c = s.circuit
        rotations, outputs, stored, consumed, channels = counts
        assert len(s.events) == channels
        assert collections.Counter(
            (source, operator if source != "rotation" else None)
            for _, source, operator, _, _ in s.events) == {
            ("rotation", None): rotations, ("output", "Z"): outputs,
            ("storage", "X"): stored, ("storage", "Z"): stored,
            ("consumption", "X"): consumed, ("consumption", "Z"): consumed}
        steps = [step for step, *_ in s.events]
        assert steps == sorted(steps)
        assert {source for _, source, *_ in s.events[-2 * consumed:]} == {
            "consumption"}
        # a rotation of the s-th shape has the kind 4s, then the Z kinds
        # of storage and consumption, then the X kinds
        shapes = _shape_numbers(c)
        storage = 4 * (max(shapes) + 1)
        flips = {"Z": storage, "X": storage + c.n + 1}
        for before, (step, source, operator, target, kind) in zip(
                [None, *s.events], s.events):
            if source == "rotation":
                assert operator is c.rotations[target]
                assert target in s.steps[step]
                assert kind == 4 * shapes[target]
                axis = operator.axis.support
                # after the last step's storage, or this step's rotations
                assert (before is None or before[1] == "storage"
                        or before[0] == step)
            elif source == "output":
                # right after its rotation, or that rotation's other flips
                assert operator == "Z" and kind % 4 == 3
                assert before[1] in ("rotation", "output")
                assert before[4] // 4 == kind // 4 and before[0] == step
                assert target in c.output_qubits and target in axis
                assert before[1] == "rotation" or before[3] < target
            elif operator == "X":
                assert kind == flips["X"] + (
                    target if source == "storage" else c.n)
                if before[1] == source:  # the previous qubit's channel
                    assert before[0] == step
                    assert before[2] == "Z" and before[3] < target
                elif source == "storage":  # a step's follows its rotations
                    assert before[1] in ("rotation", "output")
                    assert before[0] == step
                else:  # the consumption follows the last step's storage
                    assert before[1] == "storage"
                    assert before[0] + 1 == step == len(s.steps)
            else:  # the Z flip right after the channel's X flip
                assert before[:4] == (step, source, "X", target)
                assert kind == flips["Z"] + (
                    target if source == "storage" else c.n)

    @pytest.mark.parametrize("step, replacement, message", [
        (2, (3, 7, 8), "rotation 3 touches an uninitialized"),
        (3, (9, 10, 11), "exactly once"),
        (5, (13,), "exactly once"),
    ], ids=["uninitialized", "twice", "never"])
    def test_schedule_rejects_a_bad_step(self, step, replacement, message):
        # the level-1 schedule with one step replaced by rotations that
        # initialize no qubit: qubit 4 never initialized, rotation 11
        # applied twice, or rotation 14 never
        s = build_schedule("L1_15to1")
        steps = list(s.steps)
        steps[step] = replacement
        initialize = {i: qubits for i, qubits in s.initialize.items()
                      if i != step}
        with pytest.raises(ValueError, match=message):
            Schedule(catalog("fifteen_to_one"), tuple(steps), initialize)

    def test_schedules_are_built_once_and_shared_read_only(self):
        s = build_schedule("L2_15x20")
        assert build_schedule("L2_15x20") is s
        with pytest.raises(ValueError):
            s.circuit.ideal_output[0] = 0.0


class TestQubitCost:
    """Closed-form footprints, exact before display rounding."""

    def test_level1(self):
        assert qubit_cost(_l1(7, 3, 3, 1e-4)) == 810
        assert qubit_cost(_l1(9, 3, 3, 1e-4)) == 1146
        assert qubit_cost(_l1(11, 5, 5, 1e-4)) == 2066
        assert qubit_cost(_l1(17, 7, 7, 1e-3)) == 4618

    def test_level1_small(self):
        assert qubit_cost(_l1(9, 3, 3, 1e-4, family="L1_15to1_small")) == 762

    def test_level2(self):
        assert qubit_cost(
            _l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4)) == 16410
        assert qubit_cost(
            _l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4)) == 18630
        assert qubit_cost(
            _l2("L2_15xCCZ", 7, 3, 3, 15, 7, 9, 4, 1e-4)) == 12384
        assert qubit_cost(
            _l2("L2_15xCCZ", 13, 7, 7, 25, 15, 15, 6, 1e-4)) == 47046
        assert qubit_cost(
            _l2("L2_15x15", 17, 7, 7, 41, 17, 17, 6, 1e-3)) == 73460

    def test_level2_small(self):
        cost = qubit_cost(FactoryConfig(
            "L2_15x15_small", DistanceSet(9, 5, 5, 21, 9, 11),
            PhysicalNoise(1e-3)))
        assert cost == 7804
        assert abs(cost / 7780 - 1.0) <= 0.005


class TestCycleCost:
    def test_base_cycles_without_failures(self):
        assert cycle_cost(_l1(7, 3, 3, 1e-4), 0.0) == 18
        assert cycle_cost(_l1(11, 5, 5, 1e-4), 0.0) == 30
        assert cycle_cost(_l1(9, 3, 3, 1e-4, family="L1_15to1_small"),
                          0.0) == 36

    def test_retry_scaling(self):
        base = cycle_cost(_l1(7, 3, 3, 1e-4), 0.0)
        np.testing.assert_allclose(cycle_cost(_l1(7, 3, 3, 1e-4), 0.1),
                                   base / 0.9)

    def test_level2_multipliers(self):
        # with dm2 dominating the level-1 turnaround, cycles reduce to
        # multiplier * dm2 (7.5 / 10 / 4 for 15-to-1 / 20-to-4 / 8-to-CCZ)
        cfg = _l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4)
        np.testing.assert_allclose(cycle_cost(cfg, 0.0), 7.5 * 9)
        cfg = _l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4)
        np.testing.assert_allclose(cycle_cost(cfg, 0.0), 10 * 9)
        cfg = _l2("L2_15xCCZ", 9, 3, 3, 15, 7, 9, 4, 1e-4)
        np.testing.assert_allclose(cycle_cost(cfg, 0.0), 4 * 9)
        # the small footprint consumes one level-1 state per 2 dm2 cycles
        # over its 15 steps: 15 * 2 * 11
        small = FactoryConfig("L2_15x15_small",
                              DistanceSet(9, 3, 3, 21, 9, 11),
                              PhysicalNoise(1e-3))
        assert cycle_cost(small, 0.0) == 330.0
        assert cycle_cost(small, 0.125) == 330.0

    def test_level2_limited_by_level1_supply(self):
        # when level-1 rounds are the bottleneck the turnaround time is
        # 6 dm / (1 - p_fail) / (n_L1 / 2) per consumed state
        cfg = _l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4)
        p_fail = 0.0041119
        t_l1 = 6 * 3 / (1 - p_fail) / (4 / 2)
        np.testing.assert_allclose(cycle_cost(cfg, p_fail), 7.5 * t_l1)
        # 20-to-4: 10 * 6 dm / (1 - p_fail) / (nL1 / 2), above 10 dm2 = 70
        cfg = _l2("L2_15x20", 9, 5, 5, 15, 7, 7, 4, 1e-4)
        assert cycle_cost(cfg, 0.0) == 150.0
        assert cycle_cost(cfg, 0.25) == 200.0
        # the small footprint's own block: 15 * 6 dm / (1 - p_fail), above
        # 15 * 2 dm2 = 330
        small = FactoryConfig("L2_15x15_small",
                              DistanceSet(9, 5, 5, 21, 9, 11),
                              PhysicalNoise(1e-3))
        assert cycle_cost(small, 0.0) == 450.0
        assert cycle_cost(small, 0.25) == 600.0


class TestFullDistance:
    def test_quoted_pairs_small_scale(self):
        # (p_out, p_phys) -> smallest adequate distance, 231 stored patches
        cases = [
            (4.4e-8, 1e-4, 11), (9.3e-10, 1e-4, 13), (1.9e-11, 1e-4, 15),
            (2.4e-15, 1e-4, 19), (6.3e-25, 1e-4, 29), (4.5e-8, 1e-3, 25),
            (1.5e-9, 1e-4, 13), (6.1e-10, 1e-3, 29),
        ]
        for p_out, p_phys, d in cases:
            assert full_distance(p_out, "qubits100", p_phys) == d

    def test_quoted_pairs_large_scale(self):
        cases = [
            (4.4e-8, 1e-4, 13), (9.3e-10, 1e-4, 15), (1.9e-11, 1e-4, 17),
            (2.4e-15, 1e-4, 21), (6.3e-25, 1e-4, 31), (4.5e-8, 1e-3, 29),
            (1.5e-9, 1e-4, 15), (6.1e-10, 1e-3, 33),
        ]
        for p_out, p_phys, d in cases:
            assert full_distance(p_out, "qubits10k", p_phys) == d

    def test_ccz_pairs_use_quarter_error(self):
        assert full_distance(7.2e-14 / 4, "qubits100", 1e-4) == 19
        assert full_distance(7.2e-14 / 4, "qubits10k", 1e-4) == 21
        assert full_distance(5.2e-11 / 4, "qubits100", 1e-3) == 31
        assert full_distance(5.2e-11 / 4, "qubits10k", 1e-3) == 35

    def test_validation_and_bounds(self):
        with pytest.raises(ValueError):
            full_distance(0.0, "qubits100", 1e-4)
        assert full_distance(1e-60, "qubits100", 5e-3) is None

    def test_d3_cost_quoted_values(self):
        cases = [
            (810, 18.1, 1, 11, 5.49), (810, 18.1, 1, 13, 3.33),
            (1150, 18.1, 1, 13, 4.71), (1150, 18.1, 1, 15, 3.07),
            (4620, 42.6, 1, 25, 6.30), (4620, 42.6, 1, 29, 4.04),
            (16400, 90.3, 4, 19, 27.0), (16400, 90.3, 4, 21, 20.0),
            (18600, 67.8, 1, 29, 25.9), (18600, 67.8, 1, 31, 21.2),
        ]
        for qubits, cycles, outputs, d, want in cases:
            np.testing.assert_allclose(
                d3_cost(qubits, cycles, outputs, d), want, rtol=0.01
            )


class TestNames:
    def test_protocol_names(self):
        assert protocol_name(_l1(7, 3, 3, 1e-4)) == "(15-to-1)_{7,3,3}"
        assert protocol_name(
            _l1(9, 3, 3, 1e-4, family="L1_15to1_small")
        ) == "(15-to-1)_{9,3,3} small footprint"
        assert protocol_name(
            _l2("L2_15x20", 13, 5, 5, 23, 11, 13, 6, 1e-3)
        ) == "(15-to-1)^6_{13,5,5} x (20-to-4)_{23,11,13}"
        assert protocol_name(
            _l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4)
        ) == "(15-to-1)^4_{9,3,3} x (15-to-1)_{25,9,9}"
        assert protocol_name(
            _l2("L2_15xCCZ", 7, 3, 3, 15, 7, 9, 4, 1e-4)
        ) == "(15-to-1)^4_{7,3,3} x (8-to-CCZ)_{15,7,9}"
        assert protocol_name(FactoryConfig(
            "L2_15x15_small", DistanceSet(9, 5, 5, 21, 9, 11),
            PhysicalNoise(1e-3))
        ) == "(15-to-1)_{9,5,5} x (15-to-1)_{21,9,11} small footprint"

    def test_distance_keys(self):
        level1 = ("dX", "dZ", "dm")
        level2 = level1 + ("dX2", "dZ2", "dm2")
        assert {f: LAYOUTS[f].keys for f in FAMILIES} == {
            "L1_15to1": level1,
            "L1_15to1_small": level1,
            "L2_15x15": level2 + ("nL1",),
            "L2_15x20": level2 + ("nL1",),
            "L2_15xCCZ": level2 + ("nL1",),
            "L2_15x15_small": level2,
        }
        with pytest.raises(ValueError, match="unknown family"):
            check_family_inputs("L3_bogus", {}, {})

    def test_family_outputs(self):
        assert family_outputs("L2_15x20") == 4
        assert family_outputs("L2_15xCCZ") == 1
        assert family_outputs("L1_15to1") == 1


class TestSimulatedErrors:
    """Frozen factory-level output errors; the engine is deterministic."""

    def test_level1(self):
        cases = [
            (_l1(7, 3, 3, 1e-4), 4.331820452545726e-08),
            (_l1(9, 3, 3, 1e-4), 1.0946318974287541e-09),
            (_l1(11, 5, 5, 1e-4), 1.8837478790945815e-11),
            (_l1(17, 7, 7, 1e-3), 4.978326945221143e-08),
            (_l1(9, 3, 3, 1e-4, family="L1_15to1_small"),
             1.7628342448563551e-09),
        ]
        for cfg, want in cases:
            np.testing.assert_allclose(simulate_factory(cfg).p_out, want,
                                       rtol=1e-9)

    def test_level1_failure_rate(self):
        report = simulate_factory(_l1(9, 3, 3, 1e-4))
        np.testing.assert_allclose(report.p_fail_L1, 0.004051949329868743,
                                   rtol=1e-9)
        assert report.p_fail_L2 == 0.0

    def test_level2(self):
        cases = [
            (_l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4),
             1.9161636517121426e-15),
            (_l2("L2_15xCCZ", 7, 3, 3, 15, 7, 9, 4, 1e-4),
             7.049050456916525e-14),
            (FactoryConfig("L2_15x15_small",
                           DistanceSet(9, 5, 5, 21, 9, 11),
                           PhysicalNoise(1e-3)),
             7.189846474524639e-10),
        ]
        for cfg, want in cases:
            np.testing.assert_allclose(simulate_factory(cfg).p_out, want,
                                       rtol=1e-9)

    def test_deep_row(self):
        # Far below float64 epsilon of the trace: the readout takes squared
        # norms of deviation vectors, so it stays positive and exact.
        report = simulate_factory(_l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4,
                                      1e-4))
        np.testing.assert_allclose(report.p_out, 8.192461502530438e-25,
                                   rtol=1e-9)
        assert report.p_out > 0.0

    def test_deep_rows_match_event_enumeration(self):
        # Values of the third-order error-event enumeration that msdsim
        # used as its readout below p_out = 1e-18 until the engine could
        # resolve these rows alone.  The enumeration counts quarter-angle
        # branches as axis flips at half probability and leaves out
        # fourth-order terms and interference.
        cases = [
            # table1 row 5
            (_l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4),
             8.192460937670754e-25),
            # table1 row 11
            (_l2("L2_15x15", 17, 7, 7, 41, 17, 17, 6, 1e-3),
             4.687344038357969e-20),
            # table2 row 4
            (_l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4, ct=10.0),
             5.557665386905996e-22),
        ]
        for cfg, enumerated in cases:
            np.testing.assert_allclose(simulate_factory(cfg).p_out,
                                       enumerated, rtol=2e-3)

    def test_storage_order_within_a_step_does_not_move_p_out(
            self, monkeypatch):
        # Storage channels on different qubits commute, so running a step's
        # storage in reverse qubit order is the same physics.  The last
        # config is table1 row 5, whose stated floor is 8e-8 of its p_out;
        # a reversal moves it by 1.5e-8.
        configs = [_l1(11, 5, 5, 1e-4),
                   _l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4),
                   _l2("L2_15x15", 13, 5, 5, 29, 11, 13, 6, 1e-3),
                   _l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4)]
        forward = [simulate_factory(c).p_out for c in configs]
        monkeypatch.setattr(factory, "sorted",
                            lambda qubits: sorted(qubits, reverse=True),
                            raising=False)
        factory._LEVEL1_RUNS.clear()
        try:
            backward = [simulate_factory(c).p_out for c in configs]
        finally:
            factory._LEVEL1_RUNS.clear()
        np.testing.assert_allclose(backward[:3], forward[:3], rtol=1e-10)
        np.testing.assert_allclose(backward[3], forward[3], rtol=1e-6)

    def test_t_cost_factor_increases_error(self):
        report = simulate_factory(_l1(9, 3, 3, 1e-4, ct=10.0))
        np.testing.assert_allclose(report.p_out, 2.3544300211451547e-08,
                                   rtol=1e-9)

    def test_consumption_prefactor_toggle(self):
        half = simulate_factory(_l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4))
        full = simulate_factory(FactoryConfig(
            "L2_15x15", DistanceSet(9, 3, 3, 25, 9, 9, 4),
            PhysicalNoise(1e-4), consumption_prefactor_toggle=True))
        assert full.p_out > half.p_out


# Every table row's p_out as recorded at f061273, and its stated floor
# (the top-level run's round-off floor per output, as the engine stated it
# then) relative to it
RECORDED_P_OUT = [
    (4.331820452625028e-08, 8.7e-15),  # table1 row 1
    (1.0946318974287547e-09, 5.6e-13),
    (1.883747879097231e-11, 1.6e-12),
    (1.9161636517121434e-15, 4.2e-16),
    (8.192463875269003e-25, 8.0e-08),
    (4.9783269461285136e-08, 1.5e-13),
    (1.5305144257677854e-10, 3.8e-16),
    (3.668238495196345e-11, 2.5e-16),
    (2.6379666873430433e-12, 7.3e-13),
    (3.526257069225591e-14, 4.1e-12),
    (4.687344437410655e-20, 1.2e-10),
    (1.7628342455790438e-09, 4.0e-13),
    (7.189846471625695e-10, 2.4e-13),
    (7.049050456916468e-14, 2.2e-16),
    (5.467870472872384e-11, 2.1e-16),
    (2.3544300216223393e-08, 2.2e-13),  # table2 row 1
    (1.314879594345384e-12, 5.2e-15),
    (6.868651363766698e-15, 3.4e-16),
    # table2 row 4, recorded again once the grade stack was stored over
    # the branch store's scale: its grade-2 term is cancellation round-off
    (5.557665799573985e-22, 1.6e-10),
    (6.835733362553666e-09, 2.3e-16),
    (2.086431976644897e-10, 5.0e-14),
    (2.5217318133505404e-11, 7.8e-14),
    (7.251918868387085e-12, 3.1e-13),
    (1.5389901007352774e-13, 2.8e-13),
]


class TestRecordedTables:
    """Every table row's p_out stays where it was recorded, up to 16 of its
    floors: a reordering of the run's channels may move its round-off,
    never its physics."""

    @pytest.mark.parametrize("row, recorded", zip(TABLE1 + TABLE2,
                                                  RECORDED_P_OUT),
                             ids=[f"table1-{i}" for i in range(1, 16)]
                             + [f"table2-{i}" for i in range(1, 10)])
    def test_p_out_is_within_sixteen_floors(self, row, recorded):
        p_out, floor = recorded
        np.testing.assert_allclose(
            simulate_factory(row_config(row)).p_out, p_out,
            rtol=max(16 * floor, 1e-12))


def _counted(monkeypatch, config):
    """Run the top-level schedule of ``config`` at kmax 6 and count its
    engine calls, and those of a level-1 block not yet in the memo: X
    flips, absorbed X flips and rotations by (kind, live qubits, stacks) of
    the state they ran on; the flips of each Z pass; and each release's
    (qubit, folded Z flips, folded X flips)."""
    counted = collections.Counter()
    passes, releases = [], []
    engine = GradedDensityMatrix

    def count(name, kind, size=lambda *args: 1):
        method = getattr(engine, name)

        def counting(state, *args, **kwargs):
            state = method(state, *args, **kwargs)
            stacks = state._stacks.shape[1]
            counted[kind, len(state.live), stacks] += size(*args)
            return state
        monkeypatch.setattr(engine, name, counting)

    count("apply_x_flip", "x")
    count("apply_absorbed_flips", "absorbed", lambda probs: len(probs))
    count("apply_faulty_rotation", "rotation")
    z_pass, release = engine.apply_z_flips, engine.release

    def counted_z(state, flips):
        passes.append(len(flips))
        return z_pass(state, flips)

    def counted_release(state, qubit, factor, flips):
        releases.append((qubit, sum(letter == "Z" for letter, _ in flips),
                         sum(letter == "X" for letter, _ in flips)))
        return release(state, qubit, factor, flips)

    monkeypatch.setattr(engine, "apply_z_flips", counted_z)
    monkeypatch.setattr(engine, "release", counted_release)
    run = factory._run_schedule(build_schedule(config.family),
                                factory._noise_inputs(config, 6), 6)
    assert run.p_out > 0.0
    return counted, passes, releases


def test_a_20_to_4_run_applies_its_z_flips_in_two_passes(monkeypatch):
    # storage, output and consumption Z flips: one pass at the checks and
    # one before the readout, except a released output's, which fold into
    # its release; the 15-to-1 level-1 run's 35 flips (34 + 1), then the
    # 20-to-4's 101 (64 + 2, and 17 + 18 for outputs 0 and 1).  The
    # level-1 run releases nothing: it has 5 qubits, below
    # LIVE_MIN_QUBITS, and outputs 2 and 3 of the 20-to-4 would leave 5
    factory._LEVEL1_RUNS.clear()
    try:
        _, passes, releases = _counted(
            monkeypatch, _l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4))
    finally:
        factory._LEVEL1_RUNS.clear()
    assert passes == [34, 1, 64, 2]
    assert releases == [(0, 17, 7), (1, 18, 5)]


@pytest.mark.parametrize("config, flips", [
    (_l1(17, 7, 7, 1e-3), {("x", 3, 1): 2, ("x", 4, 1): 1, ("x", 5, 1): 18,
                           ("x", 1, 1): 3, ("absorbed", 1, 1): 4}),
    (_l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4),
     {("x", 7, 1): 15, ("x", 4, 1): 10, ("x", 2, 1): 2, ("x", 6, 2): 8,
      ("x", 5, 2): 18, ("x", 2, 2): 5, ("absorbed", 2, 2): 3,
      ("folded", 0): 7, ("folded", 1): 5}),
    (_l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4),
     {("x", 2, 1): 1, ("x", 3, 1): 1, ("x", 4, 1): 7, ("x", 5, 1): 24,
      ("x", 1, 1): 3, ("absorbed", 1, 1): 5}),
], ids=["L1_15to1", "L2_15x20", "L2_15x15"])
def test_x_flips_wait_for_the_next_rotation_on_their_qubit(config, flips,
                                                           monkeypatch):
    # table1 rows 6, 4 and 5: of the 28, 73 and 41 storage and consumption
    # X flips of a run, those after the last rotation on their qubit wait:
    # a released output's fold into its release, the rest past the
    # projection, where a check's are absorbed; counted by the live
    # qubits and stacks of the state they run on.  A qubit enters the
    # stack at its first rotation or Z flip: an X flip before those is a
    # grade shift on the qubits already in (7 of the 20-to-4's flips and
    # 4 of the 15x15's), which it does not widen.  The 20-to-4's outputs
    # 0 and 1 leave the stack after their last rotations, so some flips
    # run on fewer qubits than the block has
    factory.level1_output_error(config)  # level 1 runs uncounted
    counted, _, releases = _counted(monkeypatch, config)
    counted = {key: m for key, m in counted.items() if key[0] != "rotation"}
    counted.update({("folded", q): x for q, _, x in releases})
    assert counted == flips


def test_a_20_to_4_run_applies_most_rotations_below_seven_qubits(
        monkeypatch):
    # table1 row 4's 20-to-4 run by (live qubits, stacks): four of its 20
    # rotations see all seven qubits; the rest run on the qubits entered so
    # far, or, once outputs 0 and 1 have left, on the trace and fidelity
    # stacks of the others
    config = _l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4)
    factory.level1_output_error(config)  # level 1 runs uncounted
    counted, _, _ = _counted(monkeypatch, config)
    assert {key[1:]: m for key, m in counted.items()
            if key[0] == "rotation"} == {
        (1, 1): 1, (2, 1): 1, (4, 1): 3, (7, 1): 4, (6, 2): 5, (5, 2): 6}


@pytest.mark.parametrize("config, releases", [
    (_l1(17, 7, 7, 1e-3), []),
    (_l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4), []),
    (_l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4), [0, 1]),
], ids=["L1_15to1", "L2_15x15", "L2_15x20"])
def test_outputs_leave_from_six_live_qubits_on(config, releases,
                                               monkeypatch):
    # every output with a single-qubit ideal state may leave after its
    # last rotation, but a release pays only on a wide stack: the 20-to-4
    # releases outputs 0 and 1 (at 7 and 6 live qubits), not 2 and 3 (5
    # live), and a 15-to-1 run (5 qubits) releases nothing
    leaving = build_schedule(config.family).leaving
    assert sorted(q for outputs in leaving.values() for q, _ in outputs) == (
        [0, 1, 2, 3] if config.family == "L2_15x20" else [0])
    assert build_schedule("L2_15xCCZ").leaving == {}
    factory.level1_output_error(config)  # level 1 runs uncounted
    _, _, released = _counted(monkeypatch, config)
    assert [q for q, _, _ in released] == releases


def _one_step(kind: str) -> Schedule:
    """A catalog circuit's schedule as ``simulate_circuit`` runs it."""
    c = catalog(kind)
    return Schedule(c, (tuple(range(len(c.rotations))),),
                    {0: tuple(range(c.n))})


@pytest.mark.parametrize("family", ["L2_15xCCZ", "L1_15to1", "L2_15x20",
                                    "identity16", "ccz7"])
def test_a_schedule_run_matches_the_dense_oracle(family):
    # the oracle applies every channel when the schedule lists it, at full
    # dimension, then traces the checks out; every qubit stores at its own
    # rates, so a waiting flip run on the wrong qubit shows.  The two
    # circuits without checks run as one step and skip the projection;
    # identity16 has no outputs, and ccz7's padding qubit 3 is neither
    schedule = (build_schedule(family) if family in FAMILIES
                else _one_step(family))
    c = schedule.circuit
    profiles = [RotationErrorProfile(1e-3 * (1 + s), 2e-3, 1e-3, 3e-3)
                for s in range(len(schedule.shapes))]
    shapes = _shape_numbers(c)
    rates = {q: StorageRates(1e-3 * (q + 1), 5e-4 * (c.n - q))
             for q in range(c.n)}
    consumption = StorageRates(4e-3, 2e-3)
    run = factory._run_schedule(schedule, (profiles, rates, 1.5, consumption),
                                kmax=16 if c.n < 7 else 12)
    dense, initialized = DensityMatrix.init_plus(c.n), set()
    for step, rotations in enumerate(schedule.steps):
        initialized.update(schedule.initialize.get(step, ()))
        for ri in rotations:
            r, profile = c.rotations[ri], profiles[shapes[ri]]
            dense = dense.apply_faulty_rotation(r, profile)
            outputs = sorted(c.output_qubits & set(r.axis.support))
            dense = dense.apply_z_flips([(q, profile.p_z_output)
                                         for q in outputs])
        for q in sorted(initialized):
            dense = dense.apply_storage(q, rates[q], 1.5)
    p_fail = 0.0
    if c.check_qubits:
        dense, p_fail = dense.project_plus(c.check_qubits)
    kept = [q for q in range(c.n) if q not in c.check_qubits]
    for i, q in enumerate(kept):
        if q in c.output_qubits:
            dense = dense.apply_storage(i, consumption, 1.0)
    p_out = (1.0 - dense.fidelity_with_pure(c.ideal_kept)) / c.outputs
    # the 20-to-4 run drops about 2e-12 of its mass above kmax = 12
    assert run.p_fail == pytest.approx(p_fail, rel=1e-11, abs=0)
    assert run.p_out == pytest.approx(p_out, rel=1e-9, abs=0)


def test_kmax_is_clamped_to_the_event_count(monkeypatch):
    # a run of E events of nonzero probability holds at most E errors, so
    # it builds E grades at any larger kmax, and reads the same; a request
    # for more than 100 grades fails here before it allocates
    seen, init_plus = [], GradedDensityMatrix.init_plus

    def spy(n, kmax):
        seen.append(kmax)
        assert kmax <= 100, f"a stack of {kmax} grades"
        return init_plus(n, kmax)

    monkeypatch.setattr(GradedDensityMatrix, "init_plus", spy)
    schedule = build_schedule("L1_15to1")
    inputs = factory._noise_inputs(_l1(7, 3, 3, 1e-4), 6)
    events = sum(p > 0.0 for p in _probabilities(schedule, inputs))
    assert events == 78
    c = catalog("fifteen_to_one")  # one event per rotation
    for kmax in (events + 1, 10**12):
        assert factory._run_schedule(schedule, inputs, kmax) == (
            factory._run_schedule(schedule, inputs, events))
        assert factory.simulate_circuit(c, random_pauli(1e-3), kmax) == (
            factory.simulate_circuit(c, random_pauli(1e-3), 15))
    assert seen == [events, events, 15, 15] * 2
    assert factory._run_schedule(schedule, inputs, 3) != (
        factory._run_schedule(schedule, inputs, events))


@pytest.mark.parametrize("kmax", [0, -3])
@pytest.mark.parametrize("call", [
    lambda kmax: simulate_factory(_l1(7, 3, 3, 0.0), kmax),
    lambda kmax: simulate_factory(
        _l2("L2_15x20", 7, 3, 3, 13, 5, 7, 4, 0.0), kmax),
    lambda kmax: factory.simulate_circuit(
        catalog("fifteen_to_one"), coherent(0.01), kmax),
    lambda kmax: factory.simulate_circuit(
        catalog("fifteen_to_one"), z_only(0.0), kmax),
    lambda kmax: p_out_lower_bound(_l1(7, 3, 3, 0.0), kmax),
    lambda kmax: sweep("L1_15to1", {"dX": [7], "dZ": [3], "dm": [3]},
                       PhysicalNoise(0.0), 1e-10, kmax=kmax),
], ids=["factory_l1", "factory_l2", "circuit_coherent", "circuit_z0",
        "bound", "sweep"])
def test_kmax_below_one_is_rejected_on_every_path(call, kmax):
    # at p_phys = 0 or under coherent noise no graded state is built, and
    # the run still rejects the kmax
    with pytest.raises(ValueError,
                       match=f"^kmax must be at least 1, got {kmax}$"):
        call(kmax)


class TestNoiseless:
    """At p_phys = 0 no error event can happen, so p_out is exactly 0."""

    @pytest.mark.parametrize("config", [
        _l1(7, 3, 3, 0.0),
        _l1(9, 5, 5, 0.0, family="L1_15to1_small"),
        _l2("L2_15x15", 9, 3, 3, 15, 7, 9, 4, 0.0),
        _l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 0.0),
        _l2("L2_15xCCZ", 7, 3, 3, 13, 5, 7, 4, 0.0),
        FactoryConfig("L2_15x15_small", DistanceSet(9, 5, 5, 21, 9, 11),
                      PhysicalNoise(0.0)),
    ], ids=FAMILIES)
    def test_p_out_is_zero(self, config, monkeypatch):
        factory._LEVEL1_RUNS.clear()
        monkeypatch.setattr(GradedDensityMatrix, "init_plus", None)
        try:
            report = simulate_factory(config)
        finally:
            factory._LEVEL1_RUNS.clear()
        assert report.p_out == 0.0
        assert report.p_fail_L1 == report.p_fail_L2 == 0.0
        assert report.d_full_100 is None and report.d_full_10k is None


class TestNoiseModelDomain:
    """p_phys that PhysicalNoise accepts but the rate model cannot use."""

    @pytest.mark.parametrize("config, where", [
        # a rotation's P_{-pi/4} rate exceeds 1
        (_l1(7, 3, 3, 9e-3), "(15-to-1)_{7,3,3}"),
        # every rotation is valid, but dm cycles of storage reach 1
        (_l1(15, 3, 9, 7e-3), "(15-to-1)_{15,3,9}"),
        # a level-2 request fails in its level-1 block
        (_l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 9e-3), "(15-to-1)_{9,3,3}"),
    ])
    def test_rejected_before_the_engine_runs(self, config, where,
                                              monkeypatch):
        def engine(*args):
            raise AssertionError("engine ran")

        monkeypatch.setattr(factory, "_run_schedule", engine)
        # the screen reads no engine run, and checks the same
        for run in (simulate_factory, p_out_lower_bound):
            with pytest.raises(factory.NoiseDomainError) as info:
                run(config)
            assert str(info.value).startswith(
                f"p_phys={config.noise.p_phys} is outside the noise model's "
                f"range for {where} (")


class TestReports:
    def test_report_fields(self):
        r = simulate_factory(_l1(7, 3, 3, 1e-4))
        assert r.protocol == "(15-to-1)_{7,3,3}"
        assert r.qubits == 810
        np.testing.assert_allclose(r.cycles, 18.059982063044945, rtol=1e-9)
        np.testing.assert_allclose(r.qubitcycles_per_state,
                                   r.qubits * r.cycles, rtol=1e-12)
        assert (r.d_full_100, r.d_full_10k) == (11, 13)
        np.testing.assert_allclose(r.cost_d3_100, 5.495336390332985,
                                   rtol=1e-9)

    def test_ccz_report_uses_quarter_for_distances(self):
        r = simulate_factory(_l2("L2_15xCCZ", 7, 3, 3, 15, 7, 9, 4, 1e-4))
        assert (r.d_full_100, r.d_full_10k) == (19, 21)
        # the cost itself still counts one CCZ state as one output
        np.testing.assert_allclose(
            r.cost_d3_100, r.qubits * r.cycles / (2 * 19**3), rtol=1e-12
        )

    def test_twenty_to_four_divides_by_four_states(self):
        r = simulate_factory(_l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4))
        np.testing.assert_allclose(r.qubitcycles_per_state,
                                   r.qubits * r.cycles / 4, rtol=1e-12)


# (family, p_phys, ranges) of perfbench's two sweep workloads
_BENCHMARK_GRIDS = [
    ("L1_15to1", 1e-3, {"dX": range(5, 22, 2), "dZ": range(3, 12, 2),
                        "dm": range(3, 12, 2)}),
    ("L2_15x20", 1e-4, {"dX": (7, 9), "dZ": (3, 5), "dm": (3, 5),
                        "dX2": (13, 15, 17), "dZ2": (5, 7), "dm2": (7, 9),
                        "nL1": (4, 6)}),
]


class TestSweep:
    def test_pareto_front_keeps_undominated(self):
        noise = PhysicalNoise(1e-4)
        ranges = {"dX": [7, 9], "dZ": [3], "dm": [3]}
        front = sweep("L1_15to1", ranges, noise, target_p_out=1e-7)
        names = [r.protocol for r in front]
        assert names == ["(15-to-1)_{7,3,3}"]

    def test_target_filters(self):
        noise = PhysicalNoise(1e-4)
        ranges = {"dX": [7, 9], "dZ": [3], "dm": [3]}
        front = sweep("L1_15to1", ranges, noise, target_p_out=1e-8)
        names = [r.protocol for r in front]
        assert names == ["(15-to-1)_{9,3,3}"]

    def test_invalid_combinations_are_skipped(self):
        noise = PhysicalNoise(1e-4)
        ranges = {"dX": [7, 9], "dZ": [3, 9], "dm": [3]}  # dZ=9 > dX=7
        front = sweep("L1_15to1", ranges, noise, target_p_out=1.0)
        assert len(front) >= 1

    def test_a_grid_of_no_configuration_raises_its_first_error(self):
        # every combination fails to make a configuration: the first
        # combination's error, not an empty front
        noise = PhysicalNoise(1e-3)
        with pytest.raises(ValueError, match=r"requires dZ <= dX"):
            sweep("L1_15to1", {"dX": [3], "dZ": [5], "dm": [3, 1]},
                  noise, 1e-7)
        with pytest.raises(ValueError, match="nL1 must be a positive even"):
            sweep("L2_15x15", {"dX": [9], "dZ": [3], "dm": [3],
                               "dX2": [25], "dZ2": [9], "dm2": [9],
                               "nL1": [3, 5]}, noise, 1e-7)
        with pytest.raises(ValueError, match="takes no consumption"):
            sweep("L1_15to1", {"dX": [7], "dZ": [3], "dm": [3]}, noise,
                  1e-7, consumption_prefactor_toggle=True)

    def test_range_key_validation(self):
        noise = PhysicalNoise(1e-4)
        with pytest.raises(ValueError, match="^L1_15to1 requires dZ, dm$"):
            sweep("L1_15to1", {"dX": [7]}, noise, 1e-7)
        with pytest.raises(ValueError, match="^L1_15to1 takes no dX2$"):
            sweep("L1_15to1", {"dX": [7], "dZ": [3], "dm": [3],
                               "dX2": [15]}, noise, 1e-7)

    def test_candidates_outside_the_noise_range_are_skipped(self):
        # dm = 9 cycles of storage reach probability 1 at dX = 15, p = 7e-3
        noise = PhysicalNoise(7e-3)
        ranges = {"dX": [13, 15], "dZ": [3], "dm": [9]}
        front = sweep("L1_15to1", ranges, noise, target_p_out=1e-2)
        assert [r.protocol for r in front] == ["(15-to-1)_{13,3,9}"]
        with pytest.raises(factory.NoiseDomainError,
                           match=r"\(15-to-1\)_\{15,3,9\}"):
            sweep("L1_15to1", {**ranges, "dX": [15]}, noise, 1e-2)

    def test_level2_candidates_outside_the_noise_range_are_skipped(self):
        # the level-1 block (15, 3, 9) is out of range at p = 7e-3
        noise = PhysicalNoise(7e-3)
        ranges = {"dX": [13, 15], "dZ": [3], "dm": [9], "dX2": [25],
                  "dZ2": [25], "dm2": [25], "nL1": [4]}
        front = sweep("L2_15x15", ranges, noise, target_p_out=1.0)
        assert [r.protocol for r in front] == [
            "(15-to-1)^4_{13,3,9} x (15-to-1)_{25,25,25}"]

    def test_other_simulation_errors_still_raise(self, monkeypatch):
        def broken(config, kmax):
            raise ValueError("not a range error")

        monkeypatch.setattr(factory, "simulate_factory", broken)
        with pytest.raises(ValueError, match="not a range error"):
            sweep("L1_15to1", {"dX": [7], "dZ": [3], "dm": [3]},
                  PhysicalNoise(1e-4), 1e-7)

    def test_target_validation(self):
        noise = PhysicalNoise(1e-4)
        ranges = {"dX": [7], "dZ": [3], "dm": [3]}
        for target in (float("nan"), float("inf"), 0.0, -1e-7):
            with pytest.raises(ValueError, match="target"):
                sweep("L1_15to1", ranges, noise, target)

    def test_repeated_range_values_count_once(self, monkeypatch):
        # equal configurations tie in both costs, so none dominates another
        screened, simulated = [], []

        def bound(config, kmax=6):
            screened.append(config)
            return p_out_lower_bound(config, kmax)

        def simulate(config, kmax=6):
            simulated.append(config)
            return _simulate_once(config, kmax)

        monkeypatch.setattr(factory, "p_out_lower_bound", bound)
        monkeypatch.setattr(factory, "simulate_factory", simulate)
        noise = PhysicalNoise(1e-4)
        front = sweep("L1_15to1", {"dX": [7, 9, 7], "dZ": [3, 3], "dm": [3]},
                      noise, target_p_out=1e-3)
        config = _l1(7, 3, 3, 1e-4)
        assert [r.protocol for r in front] == ["(15-to-1)_{7,3,3}"]
        assert screened == [config]
        assert simulated == [config]

    @pytest.mark.parametrize("family, p, ranges, target, front", [
        # 150 valid level-1 candidates; the front is table1 row 6
        ("L1_15to1", 1e-3, {"dX": range(5, 22, 2), "dZ": range(3, 12, 2),
                            "dm": range(3, 12, 2)}, 1e-7,
         [("(15-to-1)_{17,7,7}", 4.978326946133358e-08)]),
        # 192 level-2 candidates; the front is table1 row 4
        ("L2_15x20", 1e-4, {"dX": (7, 9), "dZ": (3, 5), "dm": (3, 5),
                            "dX2": (13, 15, 17), "dZ2": (5, 7),
                            "dm2": (7, 9), "nL1": (4, 6)}, 1e-14,
         [("(15-to-1)^4_{9,3,3} x (20-to-4)_{15,7,9}",
           1.916163651712136e-15)]),
    ], ids=["sweep_l1_15to1", "sweep_l2_15x20"])
    def test_benchmark_fronts(self, family, p, ranges, target, front):
        # the grids of perfbench's two sweep workloads, with their recorded
        # fronts: a screen that rules out a front configuration, or lets a
        # cheaper one through wrongly, moves them
        got = sweep(family, ranges, PhysicalNoise(p), target)
        assert [r.protocol for r in got] == [name for name, _ in front]
        assert [r.p_out for r in got] == pytest.approx(
            [p_out for _, p_out in front], rel=1e-12, abs=0)

    @pytest.mark.parametrize("family, p, ranges, target, simulated", [
        ("L1_15to1", 1e-3, {"dX": range(5, 22, 2), "dZ": range(3, 12, 2),
                            "dm": range(3, 12, 2)}, 1e-7,
         [_l1(17, 7, 7, 1e-3)]),
        ("L2_15x20", 1e-4, {"dX": (7, 9), "dZ": (3, 5), "dm": (3, 5),
                            "dX2": (13, 15, 17), "dZ2": (5, 7),
                            "dm2": (7, 9), "nL1": (4, 6)}, 1e-14,
         [_l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4)]),
    ], ids=["sweep_l1_15to1", "sweep_l2_15x20"])
    def test_benchmark_grids_simulate_these_candidates(
            self, family, p, ranges, target, simulated, monkeypatch):
        # the candidates the screen lets through on perfbench's two sweep
        # grids: a weaker bound would cost simulations here
        calls = []

        def simulate(config, kmax=6):
            calls.append(config)
            return _simulate_once(config, kmax)

        monkeypatch.setattr(factory, "simulate_factory", simulate)
        sweep(family, ranges, PhysicalNoise(p), target)
        assert calls == simulated

    @pytest.mark.parametrize("family, p, ranges, valid", [
        (*grid, valid) for grid, valid in zip(_BENCHMARK_GRIDS, (150, 192))
    ], ids=["sweep_l1_15to1", "sweep_l2_15x20"])
    def test_benchmark_grids_bound_no_lower_than_the_ratio_bound(
            self, family, p, ranges, valid):
        # at every valid point of perfbench's two sweep grids, the bound
        # is at least the one that divided by the table's success mass
        configs = _valid_configs(family, ranges, PhysicalNoise(p))
        assert len(configs) == valid
        order = _leading_order(family)
        for config in configs:
            inputs = factory._noise_inputs(config, 6)
            assert p_out_lower_bound(config) >= _ratio_bound(family, inputs,
                                                             order)


_REPORTS: dict[tuple[FactoryConfig, int], FactoryReport] = {}
# the entry point itself, which tests patch on the module
_SIMULATE_FACTORY = factory.simulate_factory


def _simulate_once(config: FactoryConfig, kmax: int = 6) -> FactoryReport:
    """simulate_factory memoized across tests; the engine is deterministic.

    It runs the unpatched engine, so a test that patches
    ``factory.simulate_factory`` with it may run first or alone.
    """
    if (config, kmax) not in _REPORTS:
        _REPORTS[config, kmax] = _SIMULATE_FACTORY(config, kmax)
    return _REPORTS[config, kmax]


def _valid_configs(family, ranges, noise) -> list[FactoryConfig]:
    """Each valid configuration of the grid once, first occurrences first."""
    configs = []
    for combo in itertools.product(*ranges.values()):
        try:
            configs.append(FactoryConfig(
                family, DistanceSet(**dict(zip(ranges, combo))), noise))
        except ValueError:
            continue
    return list(dict.fromkeys(configs))


def _brute_force_front(family, ranges, noise, target,
                       simulate=_simulate_once) -> list[FactoryReport]:
    """Simulate every valid candidate, then apply the plain dominance rule."""
    feasible = []
    for config in _valid_configs(family, ranges, noise):
        report = simulate(config)
        if report.p_out <= target:
            d = config.distances
            key = tuple(v for v in (d.dX, d.dZ, d.dm, d.dX2, d.dZ2, d.dm2,
                                    d.nL1) if v is not None)
            feasible.append((report, key))

    def dominates(a: FactoryReport, b: FactoryReport) -> bool:
        return (a.qubits <= b.qubits
                and a.qubitcycles_per_state <= b.qubitcycles_per_state
                and (a.qubits < b.qubits
                     or a.qubitcycles_per_state < b.qubitcycles_per_state))

    front = [(r, k) for r, k in feasible
             if not any(dominates(o, r) for o, _ in feasible)]
    front.sort(key=lambda rk: (rk[0].qubitcycles_per_state, rk[0].qubits,
                               rk[1]))
    return [r for r, _ in front]


_L2_SMALL = {"dX": [7, 9], "dZ": [3], "dm": [3], "dX2": [13, 15],
             "dZ2": [5], "dm2": [7], "nL1": [4]}

# (family, p_phys, ranges, target): small grids on which some candidates
# miss the target and some are dominated by a cheaper feasible one.
_PRUNING_CASES = [
    ("L1_15to1", 1e-4, {"dX": [7, 9, 11], "dZ": [3, 5], "dm": [3, 5]},
     1.05e-9),
    ("L1_15to1_small", 1e-4, {"dX": [7, 9], "dZ": [3, 5], "dm": [3, 5]},
     1.5e-9),
    ("L2_15x15", 1e-4, _L2_SMALL, 1e-13),
    ("L2_15x20", 1e-4, {**_L2_SMALL, "dX2": [13]}, 1e-12),
    ("L2_15xCCZ", 1e-4, _L2_SMALL, 5e-12),
    ("L2_15x15_small", 1e-3, {"dX": [9], "dZ": [5], "dm": [5],
                              "dX2": [17, 21], "dZ2": [7, 9], "dm2": [11]},
     5e-8),
]


class TestSweepPruning:
    """Cost-first pruning returns exactly the brute-force front."""

    @pytest.mark.parametrize("family, p, ranges, target", _PRUNING_CASES,
                             ids=[case[0] for case in _PRUNING_CASES])
    def test_front_equals_brute_force(self, family, p, ranges, target,
                                      monkeypatch):
        noise = PhysicalNoise(p)
        want = _brute_force_front(family, ranges, noise, target)
        assert want
        # the memo returns the reference's own reports, so each candidate
        # is simulated once
        monkeypatch.setattr(factory, "simulate_factory", _simulate_once)
        assert sweep(family, ranges, noise, target) == want

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_screened_front_equals_brute_force(self, data):
        # families whose sweeps were first screened when every family was:
        # a loose target, one nothing meets, and a candidate's own p_out
        family, ranges = data.draw(st.sampled_from([
            ("L1_15to1_small", {"dX": [7, 9], "dZ": [3, 5], "dm": [3, 5]}),
            ("L2_15x15", _L2_SMALL),
            ("L2_15xCCZ", _L2_SMALL),
        ]))
        noise = PhysicalNoise(data.draw(st.sampled_from([1e-4, 1e-3])))
        p_outs = [_simulate_once(c).p_out
                  for c in _valid_configs(family, ranges, noise)]
        target = data.draw(st.sampled_from([1.0, 1e-12] + p_outs))
        with mock.patch.object(factory, "simulate_factory", _simulate_once):
            front = sweep(family, ranges, noise, target)
        assert front == _brute_force_front(family, ranges, noise, target)

    def test_front_ignores_input_order(self):
        noise = PhysicalNoise(1e-4)
        family, _, ranges, target = _PRUNING_CASES[0]
        reversed_ranges = {k: v[::-1] for k, v in reversed(ranges.items())}
        front = sweep(family, reversed_ranges, noise, target)
        assert [r.protocol for r in front] == [
            "(15-to-1)_{9,5,3}", "(15-to-1)_{9,3,5}"]
        assert front == _brute_force_front(family, ranges, noise, target)

    def test_front_pass_handles_ties(self):
        def report(name, qubits, per_state):
            return FactoryReport(name, 1e-4, 1e-9, 0.0, 0.0, qubits, 1.0,
                                 per_state, None, None, None, None)

        costs = {"A": (10, 5.0), "B": (10, 6.0), "C": (8, 7.0),
                 "D": (8, 7.0), "E": (12, 5.0), "F": (7, 9.0),
                 "G": (9, 9.0)}
        reports = [(report(name, q, c), (i,))
                   for i, (name, (q, c)) in enumerate(costs.items())]
        front = factory._pareto_front(reports[::-1])
        assert [r.protocol for r in front] == ["A", "C", "D", "F"]

    def test_dominated_candidates_are_not_simulated(self, monkeypatch):
        family, p, ranges, _ = _PRUNING_CASES[0]
        noise = PhysicalNoise(p)
        valid = _valid_configs(family, ranges, noise)
        calls, bounds = [], []

        def counted(config, kmax=6):
            calls.append(config)
            return _simulate_once(config, kmax)

        def screened(config, kmax=6):
            bounds.append((config, p_out_lower_bound(config, kmax)))
            return bounds[-1][1]

        monkeypatch.setattr(factory, "simulate_factory", counted)
        monkeypatch.setattr(factory, "p_out_lower_bound", screened)
        front = sweep(family, ranges, noise, 1e-7)
        assert [r.protocol for r in front] == ["(15-to-1)_{7,3,3}"]
        assert len(calls) < len(valid)
        # no candidate is simulated twice, nor one that a report meeting the
        # target dominates by its costed (qubits, qubitcycles/state)
        for target in (1e-7, _PRUNING_CASES[0][3], 1.0):
            calls.clear()
            sweep(family, ranges, noise, target)
            assert len(calls) == len(set(calls))
            met = []
            for config in calls:
                qubits = qubit_cost(config)
                per_state = qubits * cycle_cost(config, 0.0)
                assert not any(factory._dominates(
                    r.qubits, r.qubitcycles_per_state, qubits, per_state)
                    for r in met)
                report = _simulate_once(config)
                if report.p_out <= target:
                    met.append(report)
        # with nothing feasible, nothing can be pruned: every valid
        # candidate is screened out or simulated, none twice
        calls.clear()
        bounds.clear()
        assert sweep(family, ranges, noise, 1e-12) == []
        screened_configs = [config for config, _ in bounds]
        assert len(set(screened_configs)) == len(bounds) == len(valid)
        assert set(screened_configs) == set(valid)
        assert calls == [config for config, bound in bounds
                         if bound <= 1e-12]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_level1_subgrids(self, data):
        noise = PhysicalNoise(data.draw(st.sampled_from([1e-4, 1e-3])))
        ranges = {
            key: data.draw(st.lists(st.sampled_from(values), min_size=1,
                                    max_size=len(values), unique=True))
            for key, values in (("dX", [7, 9, 11, 13]), ("dZ", [3, 5, 7]),
                                ("dm", [3, 5, 7]))
        }
        p_outs = [_simulate_once(c).p_out
                  for c in _valid_configs("L1_15to1", ranges, noise)]
        target = data.draw(st.sampled_from(p_outs + [1e-12, 1.0]))
        if not p_outs:  # a grid of no configuration is an input error
            with pytest.raises(ValueError, match="level-1 requires"):
                sweep("L1_15to1", ranges, noise, target)
            return
        with mock.patch.object(factory, "simulate_factory", _simulate_once):
            front = sweep("L1_15to1", ranges, noise, target)
        assert front == _brute_force_front("L1_15to1", ranges, noise, target)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_failure_rates(self, data):
        # The engine is replaced by drawn outcomes, so a level-1 candidate's
        # cycles may exceed their p_fail = 0 bound by any amount, or not at
        # all, and repeated range values, which tie exactly in cost, must
        # not repeat a configuration on the front.
        family = data.draw(st.sampled_from(["L1_15to1", "L1_15to1_small"]))
        noise = PhysicalNoise(1e-3)
        ranges = {
            key: data.draw(st.lists(st.sampled_from(values), min_size=1,
                                    max_size=3))
            for key, values in (("dX", [7, 9, 11]), ("dZ", [3, 5]),
                                ("dm", [3, 5]))
        }
        # each drawn screen bound is at most the drawn p_out, 0 and
        # equality included, so the screen runs together with pruning
        outcomes = {}
        for config in _valid_configs(family, ranges, noise):
            p_out = data.draw(st.sampled_from([1e-9, 1e-8, 1e-7]))
            bounds = [b for b in (0.0, 1e-9, 1e-8, 1e-7) if b <= p_out]
            outcomes[config] = (
                p_out, data.draw(st.sampled_from([0.0, 0.01, 0.05, 0.3])),
                data.draw(st.sampled_from(bounds)))

        def drawn_bound(config, kmax=6):
            return outcomes[config][2]

        def drawn(config, kmax=6):
            p_out, p_fail, *_ = outcomes[config]
            qubits, cycles = qubit_cost(config), cycle_cost(config, p_fail)
            return FactoryReport(
                protocol_name(config), noise.p_phys, p_out, p_fail, 0.0,
                qubits, cycles, qubits * cycles / family_outputs(family),
                None, None, None, None)

        target = data.draw(st.sampled_from([1e-9, 1e-8, 1e-7]))
        if not outcomes:  # a grid of no configuration is an input error
            with pytest.raises(ValueError, match="level-1 requires"):
                sweep(family, ranges, noise, target)
            return
        with mock.patch.object(factory, "simulate_factory", drawn), \
                mock.patch.object(factory, "p_out_lower_bound", drawn_bound):
            front = sweep(family, ranges, noise, target)
            want = _brute_force_front(family, ranges, noise, target,
                                      simulate=drawn)
        assert front == want



@st.composite
def _configs(draw, family=None) -> FactoryConfig:
    """A valid configuration of a family (any, by default) at p_phys 1e-4
    to 1e-3."""
    family = family or draw(st.sampled_from(FAMILIES))

    def triple(dxs, dzs, dms):
        dx = draw(st.sampled_from(dxs))
        return (dx, draw(st.sampled_from([v for v in dzs if v <= dx])),
                draw(st.sampled_from([v for v in dms if 3 * v >= dx])))

    values = triple([5, 7, 9, 11, 13], [3, 5, 7], [3, 5, 7])
    if "dX2" in LAYOUTS[family].keys:
        values += triple([9, 13, 17, 21, 25], [5, 7, 9, 11], [5, 7, 9, 11])
    if "nL1" in LAYOUTS[family].keys:
        values += (draw(st.sampled_from([2, 4, 6])),)
    noise = PhysicalNoise(draw(st.sampled_from([1e-4, 5e-4, 1e-3])),
                          draw(st.sampled_from([1.0, 10.0])))
    return FactoryConfig(family, DistanceSet(*values), noise)


@st.composite
def _edge_inputs(draw, family):
    """(config, noise inputs) of a configuration of ``family``.

    The inputs of a drawn configuration, p_phys = 0 included, where some
    storage (consumption included) does not decay, and where some flips X,
    or X and Z, half the time, so that grades above kmax hold much of the
    run's mass.  A rotation always keeps some probability
    (``RotationErrorProfile`` rejects a profile that leaves none).
    """
    config = draw(_configs(family))
    if draw(st.booleans()):
        config = dataclasses.replace(
            config, noise=PhysicalNoise(0.0, config.noise.c_T))
    try:
        inputs = factory._noise_inputs(config, 6)
    except factory.NoiseDomainError:
        assume(False)
    profiles, rates, cycles, consumption = inputs
    quiet, half = StorageRates(0.0, 0.0), 0.5 / cycles
    rates = {q: draw(st.sampled_from([r, quiet, StorageRates(half, 0.0),
                                      StorageRates(half, half)]))
             for q, r in rates.items()}
    consumption = draw(st.sampled_from([consumption, quiet,
                                        StorageRates(0.5, 0.5)]))
    return config, (profiles, rates, cycles, consumption)


def _leading_order(family: str) -> int:
    return factory.LEADING_ORDER[build_schedule(family).circuit.name]


def _odds(schedule, inputs) -> list[float]:
    """The odds of each Z kind of ``schedule.events`` in the run."""
    return eventsets.kind_odds(schedule, inputs[0],
                               factory._kind_probabilities(schedule, inputs))


def _probabilities(schedule, inputs) -> tuple[float, ...]:
    """The probability of each entry of ``schedule.events`` in the run."""
    return schedule.take(factory._kind_probabilities(schedule, inputs))


def _p_out_of(table: eventsets.EventSets, odds, outputs: int
              ) -> tuple[float, float]:
    """The order-K (p_out, floor) of a run without X flips from its
    table's sums: N / (outputs T) and the engine's floor over T, with N
    and T the sums of weight * dev and weight * mass over the signatures
    (``eventsets.read_p_out`` reads N / outputs and the floor, each times
    T)."""
    odds = np.array([*odds, 1.0])
    weights = odds[table.terms[0]]
    for row in table.terms[1:]:
        weights *= odds[row]
    dev, mass = (table.sums * weights).tolist()
    total = math.fsum(mass)
    eps = factory._EPS
    return (math.fsum(dev) / total / outputs,
            (eps**2 * math.fsum(mass[:table.low])
             + eps * math.fsum(mass[table.low:])) / total)


def _table_p_out(family: str, inputs, order: int) -> tuple[float, float]:
    """The table's order-K (p_out, floor) of the family's run without X
    flips."""
    schedule = build_schedule(family)
    return _p_out_of(factory._event_sets(family, order),
                     _odds(schedule, inputs), schedule.circuit.outputs)


def _table_read(family: str, inputs, order: int) -> tuple[float, float]:
    """The screen's read of the family's run without X flips: its p_out
    and floor times its success mass T (``eventsets.read_p_out``)."""
    schedule = build_schedule(family)
    return eventsets.read_p_out(factory._event_sets(family, order),
                                _odds(schedule, inputs),
                                schedule.circuit.outputs)


def _set_by_set(family: str, inputs, order: int
                ) -> tuple[tuple[float, float], tuple[float, float]]:
    """The (p_out, floor) of the run without X flips summed over the kept
    event sets one by one, each set weighing the product of its events'
    odds and counted as often as the sets of the run it stands for, with
    math.fsum; and each of the two times the run's success mass T, as
    ``eventsets.read_p_out`` reads them."""
    schedule = build_schedule(family)
    odds = _odds(schedule, inputs)
    dev, low, high = [], [], []
    for labels, norms, ways in eventsets.kept_sets(schedule, order):
        for events, d, m, w in zip(labels.T.tolist(), *norms.tolist(),
                                   ways.tolist()):
            weight = math.prod(odds[e] for e in events)
            dev += [weight * d] * w
            (low if len(events) <= 1 else high).extend([weight * m] * w)
    total = math.fsum(low + high)
    eps = factory._EPS
    read = (math.fsum(dev) / family_outputs(family),
            eps**2 * math.fsum(low) + eps * math.fsum(high))
    return (read[0] / total, read[1] / total), read


def _ratio_bound(family: str, inputs, order: int) -> float:
    """The bound the screen took before it dropped T: Z times the table's
    order-K p_out, N / (outputs T), less a slack of the same form."""
    schedule = build_schedule(family)
    p_out, floor = _table_p_out(family, inputs, order)
    z, slack = _slack(schedule, inputs, p_out, floor)
    return z * (p_out - slack)


def _slack(schedule, inputs, value: float, floor: float
           ) -> tuple[float, float]:
    """Z, the product of every channel's keep, and the slack the screen
    takes for a read ``value`` of p_out with this ``floor``."""
    outputs = schedule.circuit.outputs
    probabilities = _probabilities(schedule, inputs)
    z = math.prod(1.0 - p for p in probabilities)
    return z, (16 * (floor / outputs + factory._EPS * value)
               + 8 * factory._EPS * sum(probabilities)**2 / z / outputs)


def _assert_table_matches_the_engine(family: str, inputs) -> None:
    """The table's order-K p_out is the engine's at order K with every
    storage and consumption X flip at rate 0, within the slack the bound
    takes for that run, and the bound is Z times the screen's read less
    the slack, Z and the slack taken over the run with the X flips.

    The engine reads grades 2 and up to about eps of their mass before the
    checks (1.2e-12 of p_out on an L2_15x15 case, where the table is
    within 1e-16 of an extended-precision sum).  Its zero-error branch
    also deviates by its rounding, about eps per channel in norm, which
    its floor does not state (23 eps^2 of infidelity on a noiseless
    20-to-4 run, where the table reads 1.2 eps^2), so the engine may read
    higher by that much more.
    """
    profiles, rates, cycles, consumption = inputs
    schedule = build_schedule(family)
    c = schedule.circuit
    order = _leading_order(family)
    p_out, floor = _table_p_out(family, inputs, order)
    no_x = (profiles, {q: StorageRates(0.0, r.pZ) for q, r in rates.items()},
            cycles, StorageRates(0.0, consumption.pZ))
    # the run's channels at their probabilities, every X flip's at 0
    assert _probabilities(schedule, no_x) == tuple(
        0.0 if operator == "X" else p for (_, _, operator, _, _), p in zip(
            schedule.events, _probabilities(schedule, inputs)))
    run = factory._run_schedule(schedule, no_x, order)
    channels = 1 + sum(source in ("rotation", "output")
                       for _, source, *_ in schedule.events)
    pure = (channels * factory._EPS)**2 / c.outputs
    slack = _slack(schedule, no_x, p_out, floor)[1]
    assert -slack <= run.p_out - p_out <= slack + pure
    read, read_floor = _table_read(family, inputs, order)
    z, full = _slack(schedule, inputs, read, read_floor)
    assert factory._table_bound(family, inputs, order) == pytest.approx(
        z * (read - full), rel=1e-12, abs=1e-300)


def _rotation_profiles(schedule, inputs) -> list[RotationErrorProfile]:
    """Each rotation's profile among the noise ``inputs``' ones, one per
    shape, its shape read from its axis (:func:`_shape_numbers`)."""
    return [inputs[0][s] for s in _shape_numbers(schedule.circuit)]


def _walked_probabilities(schedule, inputs) -> tuple[float, ...]:
    """The probability of each entry of ``schedule.events``, entry by
    entry, an output flip's from the profile of the rotation it follows:
    the reference for the map that ``Schedule.take`` reads."""
    _, rates, cycles, consumption = inputs
    profiles = _rotation_profiles(schedule, inputs)
    stored = {"X": {q: cycles * r.pX for q, r in rates.items()},
              "Z": {q: cycles * r.pZ for q, r in rates.items()}}
    consumed = {"X": consumption.pX, "Z": consumption.pZ}
    walked = []
    for _, source, operator, target, _ in schedule.events:
        if source == "rotation":
            f = profiles[target]
            walked.append(f.p_half + f.p_quarter + f.p_mquarter)
        else:
            walked.append(f.p_z_output if source == "output"
                          else stored[operator][target]
                          if source == "storage" else consumed[operator])
    return tuple(walked)


def _walked_odds(schedule, inputs) -> dict[int, set[float]]:
    """Each Z kind that some Z-type entry of ``schedule.events`` holds,
    with the odds p / keep that its entries read, entry by entry."""
    profiles = _rotation_profiles(schedule, inputs)
    read = collections.defaultdict(set)
    for (_, source, operator, target, kind), p in zip(
            schedule.events, _walked_probabilities(schedule, inputs)):
        if source == "rotation":
            f, keep = profiles[target], 1.0 - p
            for col, branch in enumerate((f.p_half, f.p_quarter,
                                          f.p_mquarter)):
                read[kind + col].add(branch / keep)
        elif operator == "Z":
            read[kind].add(p / (1.0 - p))
    return read


def _assert_one_odds_per_kind(schedule, inputs) -> None:
    """The noise ``inputs`` hold one profile per shape, and every entry of
    one Z kind reads one odds value, the kind's in the screen's read
    (``eventsets.kind_odds``)."""
    assert len(inputs[0]) == len(schedule.shapes)
    odds = _odds(schedule, inputs)
    assert len(odds) == 4 * len(schedule.shapes) + schedule.circuit.n + 1
    walked = _walked_odds(schedule, inputs)
    assert walked == {label: {odds[label]} for label in walked}


def _walked_profiles(config: FactoryConfig) -> list[RotationErrorProfile]:
    """Each rotation's error profile, its axis tested rotation by rotation:
    the reference for ``factory._noise_inputs``' use of
    ``Schedule.shapes``."""
    layout, d, noise = LAYOUTS[config.family], config.distances, config.noise
    c = build_schedule(config.family).circuit
    profiles = []
    for r in c.rotations:
        outputs = not c.output_qubits.isdisjoint(r.axis.support)
        if layout.level == 2:
            profiles.append(noise_model.level2_rotation_profile(
                noise, factory.level1_output_error(config, 6).p_out,
                layout.l_anc(d), d.dX2, d.dm2, layout.l_move(d), outputs))
        elif len(r.axis.support) > 1:
            profiles.append(noise_model.multiqubit_rotation_profile(
                noise, layout.l_anc(d), d.dX, d.dm, outputs))
        else:
            profiles.append(noise_model.single_qubit_rotation_profile(
                noise, d.dZ, d.dm))
    return profiles


def _assert_maps_match_a_walk(schedule, inputs) -> None:
    """The schedule's maps give the walk's probabilities, value for
    value."""
    assert _probabilities(schedule, inputs) == (
        _walked_probabilities(schedule, inputs))


def _coinciding(inputs) -> tuple:
    """Level-1 15-to-1 noise ``inputs`` with the first shape (single-qubit
    rotations, on checks) given the second shape's profile: the two
    shapes' kinds read equal odds."""
    profiles = inputs[0]
    assert len(profiles) == 3
    return ([profiles[1], *profiles[1:]], *inputs[1:])


class TestEventMaps:
    """``Schedule.take`` and ``shapes``, and the kinds of
    ``Schedule.events``, stand for walks of the events and of the
    rotations."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_maps_match_a_walk_of_the_events(self, data):
        # at p_phys = 0 or not, c_T 1 or 10, with edge storage rates, and
        # with the shapes sharing profile objects, or equal copies of
        # them, in any pattern: the walk's probabilities, and one odds
        # value per kind
        for family in FAMILIES:
            _, inputs = data.draw(_edge_inputs(family))
            profiles = inputs[0]
            if data.draw(st.booleans()):
                pool = list(profiles) + [dataclasses.replace(f)
                                         for f in profiles]
                profiles = [data.draw(st.sampled_from(pool))
                            for _ in profiles]
            inputs = (profiles, *inputs[1:])
            _assert_maps_match_a_walk(build_schedule(family), inputs)
            _assert_one_odds_per_kind(build_schedule(family), inputs)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p, ct", [(0.0, 1.0), (1e-4, 10.0),
                                       (1e-3, 1.0)])
    def test_maps_match_at_zero_noise_and_high_ct(self, family, p, ct):
        values = {"dX": 13, "dZ": 5, "dm": 5, "dX2": 25, "dZ2": 9, "dm2": 9,
                  "nL1": 4}
        config = FactoryConfig(family, DistanceSet(
            **{k: values[k] for k in LAYOUTS[family].keys}),
            PhysicalNoise(p, ct))
        inputs = factory._noise_inputs(config, 6)
        schedule = build_schedule(family)
        assert _rotation_profiles(schedule, inputs) == (
            _walked_profiles(config))
        _assert_maps_match_a_walk(schedule, inputs)
        _assert_one_odds_per_kind(schedule, inputs)

    def test_maps_match_with_coinciding_profiles(self):
        # test_coinciding_profiles_read_the_family_table's run: the first
        # shape's kinds read the odds of the second's, each its own
        inputs = _coinciding(factory._noise_inputs(_l1(13, 3, 5, 5e-4), 6))
        schedule = build_schedule("L1_15to1")
        _assert_maps_match_a_walk(schedule, inputs)
        _assert_one_odds_per_kind(schedule, inputs)
        odds = _odds(schedule, inputs)
        assert odds[:4] == odds[4:8] and odds[:4] != odds[8:12]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_classes_follow_the_shapes(self, family):
        # the rotations are classed by shape, in order of first
        # appearance (Schedule.shapes): every rotation of the s-th shape
        # has the kind 4s and its output flips 4s + 3 (the storage and
        # consumption kinds that follow: TestSchedules)
        schedule = build_schedule(family)
        shapes = _shape_numbers(schedule.circuit)
        assert len(schedule.shapes) == max(shapes) + 1
        for _, source, _, target, kind in schedule.events:
            if source == "rotation":
                rotation = target
                assert kind == 4 * shapes[rotation]
            elif source == "output":
                assert kind == 4 * shapes[rotation] + 3

    @pytest.mark.parametrize("name", [*FAMILIES, *CATALOG_KINDS])
    def test_one_profile_per_shape(self, name, monkeypatch):
        # the noise inputs of a family's run (_noise_inputs) and of a bare
        # circuit's (simulate_circuit) hold one profile per shape, every
        # rotation of one shape has one kind, and the kept sets of one
        # event are labelled by the Z kinds of exactly the entries the
        # checks let through: the branches and flips whose Z support
        # holds no check, and the P_{+-pi/4} branches, which keep a term
        if name in FAMILIES:
            schedule = build_schedule(name)
            values = {"dX": 13, "dZ": 5, "dm": 5, "dX2": 25, "dZ2": 9,
                      "dm2": 9, "nL1": 4}
            inputs = factory._noise_inputs(FactoryConfig(name, DistanceSet(
                **{k: values[k] for k in LAYOUTS[name].keys}),
                PhysicalNoise(1e-4)), 6)
        else:
            runs = []
            monkeypatch.setattr(factory, "_run_schedule",
                                lambda *run: runs.append(run))
            factory.simulate_circuit(catalog(name), random_pauli(1e-3))
            [(schedule, inputs, _)] = runs
        assert len(inputs[0]) == len(schedule.shapes)
        checks = schedule.circuit.check_qubits
        shapes = _shape_numbers(schedule.circuit)
        kinds, passed = collections.defaultdict(set), set()
        for _, source, operator, target, kind in schedule.events:
            if source == "rotation":
                kinds[shapes[target]].add(kind)
                clear = checks.isdisjoint(operator.axis.support)
                passed.update(kind + col for col, k in enumerate(
                    SUBSTITUTIONS) if clear or k % 8 != 4)
            elif operator == "Z" and target not in checks:
                passed.add(kind)
        assert all(len(k) == 1 for k in kinds.values())
        assert len(set.union(*kinds.values())) == len(kinds)
        labels = {label for labels, _, _ in eventsets.kept_sets(schedule, 1)
                  for label in labels.ravel().tolist()}
        assert labels == passed

    @pytest.mark.parametrize("kind", CATALOG_KINDS)
    def test_maps_match_on_a_bare_circuit(self, kind):
        # simulate_circuit's one-step schedules, some without outputs
        schedule = _one_step(kind)
        c = schedule.circuit
        profiles = [RotationErrorProfile(1e-3 * (s % 3), 2e-4, 3e-4,
                                         1e-4 * (s % 2))
                    for s in range(len(schedule.shapes))]
        rates = {q: StorageRates(1e-5 * q, 2e-5) for q in range(c.n)}
        _assert_maps_match_a_walk(schedule, (profiles, rates, 3.0,
                                             StorageRates(1e-4, 2e-4)))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_one_probability_per_kind(self, data):
        # every entry has a kind, and entries of one kind are one
        # channel's: Schedule.take, reading one value per kind, gives the
        # walk's probability of every entry
        rate = st.sampled_from([0.0, 1e-5, 2e-4, 0.1])
        runs = [(build_schedule(family), data.draw(_edge_inputs(family))[1])
                for family in FAMILIES]
        for kind in CATALOG_KINDS:
            schedule = _one_step(kind)
            c = schedule.circuit
            profiles = [RotationErrorProfile(1e-3 * (s % 3), 2e-4, 3e-4,
                                             1e-4 * (s % 2))
                        for s in range(len(schedule.shapes))]
            runs.append((schedule, (
                profiles, {q: StorageRates(data.draw(rate), data.draw(rate))
                           for q in range(c.n)},
                3.0, StorageRates(data.draw(rate), data.draw(rate)))))
        for schedule, inputs in runs:
            c = schedule.circuit
            walked = _walked_probabilities(schedule, inputs)
            kinds = [0.0] * (4 * len(schedule.shapes) + 2 * c.n + 2)
            for (*_, kind), p in zip(schedule.events, walked):
                assert type(kind) is int
                kinds[kind] = p
            assert schedule.take(kinds) == walked


class TestScreen:
    """The sweep's screen bound never exceeds the simulated p_out."""

    @settings(max_examples=30)
    @given(config=_configs())
    def test_bound_is_below_p_out(self, config):
        try:
            p_out = _simulate_once(config).p_out
        except factory.NoiseDomainError:
            assume(False)
        assert p_out_lower_bound(config) <= p_out

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_table_bound_is_below_p_out(self, data):
        for family in FAMILIES:
            config, inputs = data.draw(_edge_inputs(family))
            run = factory._run_schedule(build_schedule(family), inputs, 6)
            bound = factory._table_bound(family, inputs,
                                         _leading_order(family))
            assert bound <= run.p_out

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_bound_lies_between_the_ratio_bound_and_the_engine(self, data):
        # dropping the table's success mass T >= 1 only raises the bound:
        # it screens out all the ratio N / T did (both may read below 0
        # where the slack exceeds the read), and it stays at or below the
        # engine's p_out at every kmax from K to K + 2
        for family in FAMILIES:
            config, inputs = data.draw(_edge_inputs(family))
            order = _leading_order(family)
            bound = factory._table_bound(family, inputs, order)
            assert max(bound, 0.0) >= max(
                _ratio_bound(family, inputs, order), 0.0)
            for kmax in range(order, order + 3):
                run = factory._run_schedule(build_schedule(family), inputs,
                                            kmax)
                assert bound <= run.p_out

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_table_matches_the_engine(self, data):
        for family in FAMILIES:
            config, inputs = data.draw(_edge_inputs(family))
            _assert_table_matches_the_engine(family, inputs)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_table_read_is_within_4_eps_of_a_sum_over_sets(self, data):
        # the signature sums are read within 4 eps of each set's weighted
        # dev and mass summed with math.fsum; at p_phys = 0 every rotation
        # has the same odds
        for family in FAMILIES:
            config, inputs = data.draw(_edge_inputs(family))
            order = _leading_order(family)
            got = (_table_p_out(family, inputs, order)
                   + _table_read(family, inputs, order))
            want = sum(_set_by_set(family, inputs, order), ())
            for value, exact in zip(got, want):
                assert abs(value - exact) <= 4 * factory._EPS * exact

    @pytest.mark.parametrize("config", [
        _l1(13, 3, 5, 5e-4),
        _l2("L2_15x20", 7, 3, 3, 13, 5, 7, 4, 1e-4),
    ], ids=["L1_15to1", "L2_15x20"])
    def test_signature_sums_are_correctly_rounded(self, config):
        # each signature's dev and mass are the math.fsum of its sets',
        # each set counted as often as the sets of the run it stands for,
        # and the signatures of at most one event come first
        family = config.family
        schedule = build_schedule(family)
        pad = len(_odds(schedule, factory._noise_inputs(config, 6)))
        order = _leading_order(family)
        groups, most = {}, 1
        for labels, norms, ways in eventsets.kept_sets(schedule, order):
            for events, dev, mass, w in zip(labels.T.tolist(),
                                            *norms.tolist(), ways.tolist()):
                key = tuple(sorted(events)) + (pad,) * (order - len(events))
                devs, masses = groups.setdefault(key, ([], []))
                devs += [dev] * w
                masses += [mass] * w
                most = max(most, w)
        assert most > 1  # some set stands for several of the run
        table = factory._event_sets(family, order)
        got = {tuple(terms): (dev, mass) for terms, dev, mass in zip(
            table.terms.T.tolist(), *table.sums.tolist())}
        assert got == {key: (math.fsum(devs), math.fsum(masses))
                       for key, (devs, masses) in groups.items()}
        sizes = [sum(label < pad for label in terms)
                 for terms in table.terms.T.tolist()]
        assert sizes[:table.low] == sorted(sizes[:table.low])
        assert max(sizes[:table.low]) == 1 < min(sizes[table.low:])

    def test_coinciding_profiles_read_the_family_table(self):
        # three shapes at level 1: single-qubit rotations, and multi-qubit
        # ones without and with the output qubit.  Give the first shape the
        # second's profile: the two shapes' kinds read equal odds, and
        # the run reads the family's one table, built for the drawn run
        family, order = "L1_15to1", 3
        inputs = factory._noise_inputs(_l1(13, 3, 5, 5e-4), 6)
        coinciding = _coinciding(inputs)
        factory._event_sets.cache_clear()
        factory._table_bound(family, inputs, order)
        factory._table_bound(family, coinciding, order)
        p_out, floor = _table_p_out(family, coinciding, order)
        info = factory._event_sets.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        want = _set_by_set(family, coinciding, order)[0]
        assert (p_out, floor) == pytest.approx(want, rel=4 * factory._EPS,
                                               abs=0)

    def test_one_table_per_family(self):
        # the screens of both benchmark grids, of the 24 table rows, of
        # each family at p_phys = 0 (where every rotation's odds are 0) and
        # of coinciding profiles all read one table per family
        factory._event_sets.cache_clear()
        configs = [config for family, p, ranges in _BENCHMARK_GRIDS
                   for config in _valid_configs(family, ranges,
                                                PhysicalNoise(p))]
        for row in TABLE1 + TABLE2:
            configs += [row_config(row), dataclasses.replace(
                row_config(row), noise=PhysicalNoise(0.0))]
        for config in configs:
            p_out_lower_bound(config)
        inputs = factory._noise_inputs(_l1(13, 3, 5, 5e-4), 6)
        factory._table_bound("L1_15to1", _coinciding(inputs), 3)
        info = factory._event_sets.cache_info()
        assert {config.family for config in configs} == set(FAMILIES)
        assert (info.misses, info.currsize) == (len(FAMILIES),) * 2

    @pytest.mark.parametrize("config", [
        _l1(7, 3, 3, 1e-4),
        _l1(9, 5, 5, 1e-3, family="L1_15to1_small"),
        _l2("L2_15x15", 7, 3, 3, 13, 5, 7, 4, 1e-4),
        _l2("L2_15x20", 7, 3, 3, 13, 5, 7, 4, 1e-4),
        _l2("L2_15xCCZ", 7, 3, 3, 13, 5, 7, 4, 1e-4),
        FactoryConfig("L2_15x15_small", DistanceSet(9, 5, 5, 21, 9, 11),
                      PhysicalNoise(1e-3)),
    ], ids=FAMILIES)
    def test_storage_free_bound_is_z_times_p_out(self, config):
        # Z = prod(1 - p_e) over every event of the run, recomputed here
        # from the schedule and the noise inputs, times the screen's read.
        # On these configurations the slack is below 1e-9 of the read,
        # while the storage and consumption events alone take over 4e-6
        # off Z, so a bound without Z, or with Z over the rotations'
        # events only, fails.
        profiles, rates, cycles, consumption = inputs = (
            factory._noise_inputs(config, 6))
        schedule = build_schedule(config.family)
        c = schedule.circuit
        applied, stored, initialized = [], [], set()
        shapes = _shape_numbers(c)
        for step, rotations in enumerate(schedule.steps):
            initialized.update(schedule.initialize.get(step, ()))
            for ri in rotations:
                p = profiles[shapes[ri]]
                applied.append(1.0 - p.p_half - p.p_quarter - p.p_mquarter)
                outputs = c.output_qubits & set(c.rotations[ri].axis.support)
                applied += [1.0 - p.p_z_output] * len(outputs)
            stored += [1.0 - cycles * r for q in initialized
                       for r in (rates[q].pX, rates[q].pZ)]
        stored += [1.0 - consumption.pX,
                   1.0 - consumption.pZ] * len(c.output_qubits)
        z_storage = math.prod(stored)
        z = math.prod(applied) * z_storage
        order = factory.LEADING_ORDER[c.name]
        read, _ = _table_read(config.family, inputs, order)
        bound = factory._table_bound(config.family, inputs, order)
        assert 1.0 - z_storage > 4e-6
        assert bound <= z * read
        assert bound == pytest.approx(z * read, rel=1e-9)

    @pytest.mark.parametrize("row", TABLE1 + TABLE2,
                             ids=[f"table1-{i}" for i in range(1, 16)]
                             + [f"table2-{i}" for i in range(1, 10)])
    def test_table_rows_are_not_screened(self, row, monkeypatch):
        # the bound reads the row's order-K run without its X flips, which
        # the engine confirms; it is 0.918 to 1.000 of the rows' p_out
        # (0.916 to 1.000 when it divided by the run's success mass, which
        # it is never below)
        config = row_config(row)
        report = _simulate_once(config)
        bound = p_out_lower_bound(config)
        assert _ratio_bound(row.family, factory._noise_inputs(config, 6),
                            _leading_order(row.family)) <= bound
        assert bound <= report.p_out
        _assert_table_matches_the_engine(row.family,
                                         factory._noise_inputs(config, 6))
        d = config.distances
        ranges = {key: [getattr(d, key)] for key in LAYOUTS[row.family].keys}
        monkeypatch.setattr(factory, "simulate_factory", _simulate_once)
        assert sweep(row.family, ranges, config.noise, report.p_out) == [
            report]

    def test_every_family_is_screened(self, monkeypatch):
        # each candidate gets its own schedule run, so a screen that rules
        # it out saves a simulation in every family
        screened = []

        def bound(config, kmax=6):
            screened.append(config.family)
            return 0.0

        monkeypatch.setattr(factory, "p_out_lower_bound", bound)
        monkeypatch.setattr(factory, "simulate_factory", _simulate_once)
        for family, p, ranges, target in _PRUNING_CASES:
            sweep(family, ranges, PhysicalNoise(p), target)
        assert set(screened) == set(FAMILIES)

    def test_no_bound_below_the_leading_order(self):
        # at kmax >= K the run holds every set of the table
        for config, order in ((_l1(7, 3, 3, 1e-4), 3),
                              (_l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4),
                               2)):
            assert p_out_lower_bound(config, kmax=order - 1) == 0.0
            assert 0.0 < p_out_lower_bound(config, kmax=order) <= (
                simulate_factory(config, kmax=order).p_out)

    @pytest.mark.parametrize("rules_out", [False, True])
    def test_one_screen_per_screened_candidate(self, rules_out,
                                               monkeypatch):
        # with nothing feasible, every valid candidate is screened, once,
        # and simulated right after its screen if the screen lets it through
        family, p, ranges, _ = _PRUNING_CASES[3]
        noise = PhysicalNoise(p)
        calls = []

        def bound(config, kmax=6):
            calls.append(("screen", config))
            return 1.0 if rules_out else 0.0

        def simulate(config, kmax=6):
            calls.append(("simulate", config))
            return _simulate_once(config, kmax)

        monkeypatch.setattr(factory, "p_out_lower_bound", bound)
        monkeypatch.setattr(factory, "simulate_factory", simulate)
        assert sweep(family, ranges, noise, 1e-30) == []
        valid = _valid_configs(family, ranges, noise)
        screened = [config for what, config in calls if what == "screen"]
        assert len(screened) == len(set(screened)) == len(valid)
        assert set(screened) == set(valid)
        assert calls == [(what, config) for config in screened
                         for what in ("screen",) + ("simulate",) * (
                             not rules_out)]

    def test_out_of_range_candidates_of_a_screened_sweep_are_skipped(
            self, monkeypatch):
        # at p = 3e-3 a (25, 5, 9) 20-to-4 block's storage reaches
        # probability 1 over its cycles; a (25, 7, 9) one's does not
        noise = PhysicalNoise(3e-3)
        ranges = {"dX": [9], "dZ": [3], "dm": [3], "dX2": [25],
                  "dZ2": [5, 7], "dm2": [9], "nL1": [2]}
        screened = []

        def bound(config, kmax=6):
            screened.append(config.distances.dZ2)
            return p_out_lower_bound(config, kmax)

        monkeypatch.setattr(factory, "p_out_lower_bound", bound)
        front = sweep("L2_15x20", ranges, noise, 1.0)
        assert [r.protocol for r in front] == [
            "(15-to-1)^2_{9,3,3} x (20-to-4)_{25,7,9}"]
        # the first screen raised, and the next candidate was screened
        assert screened[:2] == [5, 7]
        with pytest.raises(factory.NoiseDomainError,
                           match=r"\(20-to-4\)_\{25,5,9\}"):
            sweep("L2_15x20", {**ranges, "dZ2": [5]}, noise, 1.0)


@pytest.mark.parametrize("family, counts", [
    ("L1_15to1", [0, 0, 35]),
    ("L2_15x20", [0, 22]),
    ("L2_15xCCZ", [0, 28]),
], ids=["fifteen_to_one", "twenty_to_four", "eight_to_ccz"])
def test_event_sets_hold_the_undetected_error_sets(family, counts):
    # verify's counts (undetected_error_sets) from the screen's enumerator:
    # the kept sets of P_{pi/2} branches alone that spoil the output.  The
    # recorded LEADING_ORDER is the first order with such a set
    schedule = build_schedule(family)
    # the P_{pi/2} branches' kinds are 4s, s below the number of shapes
    shapes = len(schedule.shapes)
    got = [0] * len(counts)
    for labels, norms, _ in eventsets.kept_sets(schedule, len(counts)):
        if len(labels):
            # a set of P_{pi/2} branches is one Pauli term: kept, it reads
            # mass 1 and dev 0 (the term is the identity) or 1
            dev, mass = norms[:, ((labels < 4 * shapes)
                                  & (labels % 4 == 0)).all(axis=0)]
            assert (mass == 1.0).all() and np.isin(dev, (0.0, 1.0)).all()
            got[len(labels) - 1] += int(np.count_nonzero(dev))
    assert got == counts
    assert got.index(next(filter(None, got))) + 1 == _leading_order(family)


def _same_table(got: eventsets.EventSets, want: eventsets.EventSets) -> bool:
    return (got.low == want.low
            and all(a.dtype == b.dtype and a.shape == b.shape
                    and a.tobytes() == b.tobytes()
                    for a, b in ((got.terms, want.terms),
                                 (got.sums, want.sums))))


def _on_the_lattice(norms: np.ndarray, order: int) -> np.ndarray:
    """Each read rounded to the nearest multiple of 2^-order."""
    return np.ldexp(np.rint(np.ldexp(norms, order)), -order)


def _lattice_kept_sets(schedule, order: int):
    """The chunked reference's kept sets, their float reads on the lattice
    of multiples of 2^-order that the exact reads lie on."""
    for labels, norms, ways in chunked_kept_sets(schedule, order):
        yield labels, _on_the_lattice(norms, order), ways


def _reference_table(family: str, order: int) -> eventsets.EventSets:
    """signature_sums as it sums the sets of the chunked enumeration that
    reads every set, their reads rounded to the lattice."""
    with mock.patch.object(eventsets, "kept_sets", _lattice_kept_sets):
        return eventsets.signature_sums(build_schedule(family), order)


def _assert_the_screen_reads_the_reference(family: str, inputs) -> None:
    """The screen's run at the noise ``inputs`` builds the family's one
    table, and it is the reference's, byte for byte."""
    order = _leading_order(family)
    factory._event_sets.cache_clear()
    factory._table_bound(family, inputs, order)
    assert factory._event_sets.cache_info().misses == 1
    assert _same_table(factory._event_sets(family, order),
                       _reference_table(family, order))


class TestEventSets:
    """The enumeration reads only the sets that the checks can pass, each
    exactly, and its tables are the chunked reference's, byte for byte,
    once the reference's reads are rounded to the exact lattice."""

    def test_tables_match_the_reference(self):
        # each family's one table at every order up to K
        for family in FAMILIES:
            schedule = build_schedule(family)
            for order in range(1, _leading_order(family) + 1):
                assert _same_table(
                    eventsets.signature_sums(schedule, order),
                    _reference_table(family, order)), (family, order)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tables_match_the_reference_at_zero_noise(self, family):
        # at p_phys = 0 every rotation's odds are 0, and the screen reads
        # the family's one table all the same
        row = next(r for r in TABLE1 + TABLE2 if r.family == family)
        config = dataclasses.replace(row_config(row),
                                     noise=PhysicalNoise(0.0))
        _assert_the_screen_reads_the_reference(
            family, factory._noise_inputs(config, 6))

    def test_tables_match_the_reference_at_coinciding_profiles(self):
        _assert_the_screen_reads_the_reference("L1_15to1", _coinciding(
            factory._noise_inputs(_l1(13, 3, 5, 5e-4), 6)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_only_sets_that_pass_are_read(self, family, monkeypatch):
        # the kept sets are the reference's, set by set, so every set the
        # filter skips reads |r|^2 below ``rejected`` there; and each set
        # read is kept
        schedule, order = build_schedule(family), _leading_order(family)

        def sets(chunks):
            return sorted((tuple(labels), dev, mass, w)
                          for labels, norms, ways in chunks
                          for labels, dev, mass, w in zip(
                              labels.T.tolist(), *norms.tolist(),
                              ways.tolist()))

        read = []

        def counting(re, im, powers):
            read.append(len(re))
            return exact(re, im, powers)

        exact = eventsets._read
        monkeypatch.setattr(eventsets, "_read", counting)
        got = sets(eventsets.kept_sets(schedule, order))
        assert got == sets(_lattice_kept_sets(schedule, order))
        assert sum(read) == len(got)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_reference_reads_within_4_eps_of_the_exact_reads(self,
                                                                 family):
        # the reference's float reads, rounded to the lattice, are the
        # exact reads set by set (test_only_sets_that_pass_are_read)
        schedule, order = build_schedule(family), _leading_order(family)
        eps = factory._EPS
        for _, norms, _ in chunked_kept_sets(schedule, order):
            exact = _on_the_lattice(norms, order)
            assert (abs(norms - exact) <= 4 * eps * exact[1]).all()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_read_is_exact(self, family):
        # each kept set's dev and mass are multiples of 2^-order, and the
        # empty set reads the ideal output exactly, with no round-off
        schedule, order = build_schedule(family), _leading_order(family)
        chunks = list(eventsets.kept_sets(schedule, order))
        labels, norms, ways = chunks[0]
        assert labels.shape == (0, 1)
        assert norms.tolist() == [[0.0], [1.0]] and ways.tolist() == [1]
        for labels, norms, ways in chunks:
            units = np.ldexp(norms, order)
            assert (units == np.rint(units)).all()
            assert ((0.0 <= norms[0]) & (norms[0] <= norms[1])
                    & (0.0 < norms[1]) & (norms[1] <= 1.0)).all()

    def test_orders_past_the_int8_bound_are_rejected(self):
        # each coefficient's parts are at most 2^order, which int8 holds
        # up to order 6
        with pytest.raises(ValueError, match="at most 6, got 7"):
            next(eventsets.kept_sets(build_schedule("L2_15xCCZ"), 7))

    @pytest.mark.parametrize("kind", sorted(factory.LEADING_ORDER))
    def test_the_noiseless_run_leaves_the_ideal_output_and_plus(self, kind):
        # the one assumption of kept_sets: the noiseless run of each
        # family's circuit leaves ideal_kept on the qubits other than the
        # checks and |+> on the checks, up to global phase
        c = catalog(kind)
        state = np.exp(1j * np.pi / 8 * phase_exponents(c.rotations, c.n))
        rest = [q for q in range(c.n) if q not in c.check_qubits]
        x = np.arange(1 << c.n)
        y = sum(((x >> q) & 1) << i for i, q in enumerate(rest))
        want = c.ideal_kept[y] * 2.0 ** ((c.n - len(c.check_qubits)) / 2)
        assert equal_up_to_phase(state, want)
        dropped = phase_exponents(c.rotations[1:], c.n)
        assert not equal_up_to_phase(np.exp(1j * np.pi / 8 * dropped), want)
