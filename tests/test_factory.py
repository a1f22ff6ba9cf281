"""Tests for factory schedules, cost formulas, and resource reports."""
from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import msdsim.factory as factory
from msdsim.factory import (
    FactoryConfig,
    FactoryReport,
    build_schedule,
    cycle_cost,
    d3_cost,
    family_outputs,
    full_distance,
    protocol_name,
    qubit_cost,
    simulate_factory,
    sweep,
)
from msdsim.noise import DistanceSet, PhysicalNoise


def _l1(dx, dz, dm, p, ct=1.0, family="L1_15to1"):
    return FactoryConfig(family, DistanceSet(dx, dz, dm),
                         PhysicalNoise(p, ct))


def _l2(family, dx, dz, dm, dx2, dz2, dm2, n_l1, p, ct=1.0):
    return FactoryConfig(
        family, DistanceSet(dx, dz, dm, dx2, dz2, dm2, n_l1),
        PhysicalNoise(p, ct),
    )


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

    def test_small_two_level_needs_no_block_count(self):
        FactoryConfig("L2_15x15_small", DistanceSet(9, 5, 5, 21, 9, 11),
                      PhysicalNoise(1e-3))


class TestSchedules:
    def test_level1_shape(self):
        s = build_schedule("L1_15to1")
        assert len(s.steps) == 7
        covered = sorted(r for step in s.steps for r in step.rotations)
        assert covered == list(range(15))
        assert s.steps[-1].measure == frozenset({1, 2, 3, 4})
        assert not s.steps[-1].storage

    def test_level2_shapes(self):
        assert len(build_schedule("L2_15x15").steps) == 8
        assert len(build_schedule("L2_15x20").steps) == 10
        assert len(build_schedule("L2_15xCCZ").steps) == 4
        assert len(build_schedule("L2_15x15_small").steps) == 15

    def test_initialization_covers_all_qubits(self):
        for family in factory.FAMILIES:
            s = build_schedule(family)
            init = set()
            for step in s.steps:
                for r in step.rotations:
                    axis = s.circuit.rotations[r].axis
                    assert set(axis.support) <= init | step.initialize
                init |= step.initialize
            assert init == set(range(s.circuit.n))


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

    def test_level2_limited_by_level1_supply(self):
        # when level-1 rounds are the bottleneck the turnaround time is
        # 6 dm / (1 - p_fail) / (n_L1 / 2) per consumed state
        cfg = _l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4)
        p_fail = 0.0041119
        t_l1 = 6 * 3 / (1 - p_fail) / (4 / 2)
        np.testing.assert_allclose(cycle_cost(cfg, p_fail), 7.5 * t_l1)


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
        np.testing.assert_allclose(report.p_out, 8.192463875269003e-25,
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
        # config is table1 row 5: its limit is the dense grade-2 readout,
        # whose floor (about eps x its 7e-17 mass) is about 4e-8 of this p_out.
        configs = [_l1(11, 5, 5, 1e-4),
                   _l2("L2_15x20", 9, 3, 3, 15, 7, 9, 4, 1e-4),
                   _l2("L2_15x15", 13, 5, 5, 29, 11, 13, 6, 1e-3),
                   _l2("L2_15x15", 9, 3, 3, 25, 9, 9, 4, 1e-4)]
        forward = [simulate_factory(c).p_out for c in configs]
        monkeypatch.setattr(factory, "sorted",
                            lambda qubits: sorted(qubits, reverse=True),
                            raising=False)
        factory._level1_cached.cache_clear()
        try:
            backward = [simulate_factory(c).p_out for c in configs]
        finally:
            factory._level1_cached.cache_clear()
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
        with pytest.raises(ValueError) as info:
            simulate_factory(config)
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

    def test_range_key_validation(self):
        noise = PhysicalNoise(1e-4)
        with pytest.raises(ValueError):
            sweep("L1_15to1", {"dX": [7]}, noise, 1e-7)
        with pytest.raises(ValueError):
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


_REPORTS: dict[tuple[FactoryConfig, int], FactoryReport] = {}


def _simulate_once(config: FactoryConfig, kmax: int = 6) -> FactoryReport:
    """simulate_factory memoized across tests; the engine is deterministic."""
    if (config, kmax) not in _REPORTS:
        _REPORTS[config, kmax] = simulate_factory(config, kmax)
    return _REPORTS[config, kmax]


def _valid_configs(family, ranges, noise) -> list[FactoryConfig]:
    configs = []
    for combo in itertools.product(*ranges.values()):
        try:
            configs.append(FactoryConfig(
                family, DistanceSet(**dict(zip(ranges, combo))), noise))
        except ValueError:
            continue
    return configs


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
        valid = len(_valid_configs(family, ranges, noise))
        calls = []

        def counted(config, kmax=6):
            calls.append(config)
            return _simulate_once(config, kmax)

        monkeypatch.setattr(factory, "simulate_factory", counted)
        front = sweep(family, ranges, noise, 1e-7)
        assert [r.protocol for r in front] == ["(15-to-1)_{7,3,3}"]
        assert len(calls) < valid
        # with nothing feasible, nothing can be pruned
        calls.clear()
        assert sweep(family, ranges, noise, 1e-12) == []
        assert len(calls) == valid

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
        with mock.patch.object(factory, "simulate_factory", _simulate_once):
            front = sweep("L1_15to1", ranges, noise, target)
        assert front == _brute_force_front("L1_15to1", ranges, noise, target)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_failure_rates(self, data):
        # The engine is replaced by drawn outcomes, so a level-1 candidate's
        # cycles may exceed their p_fail = 0 bound by any amount, or not at
        # all, and repeated range values give exact cost ties.
        family = data.draw(st.sampled_from(["L1_15to1", "L1_15to1_small"]))
        noise = PhysicalNoise(1e-3)
        ranges = {
            key: data.draw(st.lists(st.sampled_from(values), min_size=1,
                                    max_size=3))
            for key, values in (("dX", [7, 9, 11]), ("dZ", [3, 5]),
                                ("dm", [3, 5]))
        }
        outcomes = {
            config: (data.draw(st.sampled_from([1e-9, 1e-8, 1e-7])),
                     data.draw(st.sampled_from([0.0, 0.01, 0.05, 0.3])))
            for config in _valid_configs(family, ranges, noise)
        }

        def drawn(config, kmax=6):
            p_out, p_fail = outcomes[config]
            qubits, cycles = qubit_cost(config), cycle_cost(config, p_fail)
            return FactoryReport(
                protocol_name(config), noise.p_phys, p_out, p_fail, 0.0,
                qubits, cycles, qubits * cycles / family_outputs(family),
                None, None, None, None)

        target = data.draw(st.sampled_from([1e-9, 1e-8, 1e-7]))
        with mock.patch.object(factory, "simulate_factory", drawn):
            front = sweep(family, ranges, noise, target)
            want = _brute_force_front(family, ranges, noise, target,
                                      simulate=drawn)
        assert front == want
