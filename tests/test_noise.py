"""Tests for the closed-form surface-code error model."""
from __future__ import annotations

import numpy as np
import pytest

from msdsim.noise import (
    DistanceSet,
    PhysicalNoise,
    level2_rotation_profile,
    logical_error_rate,
    multiqubit_rotation_profile,
    patch_storage_rates,
    single_qubit_rotation_profile,
)


class TestLogicalErrorRate:
    def test_closed_form(self):
        # 0.1 * (100 p)^((d+1)/2) with integer halving of d+1
        np.testing.assert_allclose(logical_error_rate(1e-4, 7), 1e-9)
        np.testing.assert_allclose(logical_error_rate(1e-4, 3), 1e-5)
        np.testing.assert_allclose(logical_error_rate(1e-3, 5), 1e-4)
        # even distances round (d+1)//2 down
        np.testing.assert_allclose(
            logical_error_rate(1e-3, 4), logical_error_rate(1e-3, 3)
        )

    def test_zero_noise(self):
        assert logical_error_rate(0.0, 9) == 0.0

    def test_threshold_and_distance_validation(self):
        with pytest.raises(ValueError):
            logical_error_rate(0.01, 5)
        with pytest.raises(ValueError):
            logical_error_rate(0.02, 5)
        with pytest.raises(ValueError):
            logical_error_rate(1e-4, 0)


class TestPhysicalNoise:
    def test_accepts_range(self):
        PhysicalNoise(0.0)
        PhysicalNoise(0.01)
        PhysicalNoise(1e-4, c_T=10.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PhysicalNoise(-1e-4)
        with pytest.raises(ValueError):
            PhysicalNoise(0.02)
        with pytest.raises(ValueError):
            PhysicalNoise(1e-4, c_T=0.0)
        for c_T in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="c_T must be finite"):
                PhysicalNoise(1e-4, c_T=c_T)


class TestDistanceSet:
    def test_valid_sets(self):
        d = DistanceSet(9, 3, 3)
        assert (d.dX2, d.dZ2, d.dm2, d.nL1) == (None,) * 4
        d2 = DistanceSet(9, 3, 3, 25, 9, 9, 4)
        assert (d2.dX2, d2.dZ2, d2.dm2, d2.nL1) == (25, 9, 9, 4)

    def test_rejects_even_or_nonpositive(self):
        with pytest.raises(ValueError):
            DistanceSet(8, 3, 3)
        with pytest.raises(ValueError):
            DistanceSet(9, 4, 3)
        with pytest.raises(ValueError):
            DistanceSet(9, 3, -3)

    def test_rejects_counts_at_or_above_2_53(self):
        big = 2**53 - 1
        assert DistanceSet(big, 3, big, big, 3, big, big - 1).nL1 == big - 1
        for args in ((big + 2, 3, big + 2), (9, 3, 3, 9, 3, big + 2),
                     (9, 3, 3, 9, 3, 3, big + 1)):
            with pytest.raises(ValueError, match="below 2\\*\\*53"):
                DistanceSet(*args)

    def test_rejects_inconsistent_triples(self):
        with pytest.raises(ValueError):
            DistanceSet(3, 9, 3)  # dZ > dX
        with pytest.raises(ValueError):
            DistanceSet(31, 3, 3)  # dX > 3*dm

    def test_level2_must_be_complete(self):
        with pytest.raises(ValueError):
            DistanceSet(9, 3, 3, dX2=25)
        with pytest.raises(ValueError):
            DistanceSet(9, 3, 3, 25, 9, 9, nL1=3)  # odd block count


class TestPatchStorageRates:
    def test_rectangular_patch(self):
        rates = patch_storage_rates(PhysicalNoise(1e-4), 9, 3)
        np.testing.assert_allclose(rates.pX, 0.5 * (3 / 9) * 1e-11)
        np.testing.assert_allclose(rates.pZ, 0.5 * (9 / 3) * 1e-5)

    def test_square_patch_is_symmetric(self):
        rates = patch_storage_rates(PhysicalNoise(1e-3), 5, 5)
        np.testing.assert_allclose(rates.pX, rates.pZ)
        np.testing.assert_allclose(rates.pX, 0.5 * 1e-4)

    def test_orientation_guard(self):
        with pytest.raises(ValueError):
            patch_storage_rates(PhysicalNoise(1e-4), 3, 9)


class TestRotationProfiles:
    def test_multiqubit_hand_values(self):
        # l = 21, dX = 9, dm = 3 at p = 1e-4: p_L(p,3) = 1e-5, p_L(p,9) = 1e-11
        prof = multiqubit_rotation_profile(PhysicalNoise(1e-4), 21, 9, 3,
                                           involves_output=True)
        np.testing.assert_allclose(prof.p_half, 1e-4 / 3 + 1.5e-5)
        np.testing.assert_allclose(prof.p_quarter, 1e-4 / 3)
        np.testing.assert_allclose(
            prof.p_mquarter, 1e-4 / 3 + 0.5 * 21 * 3 * 1e-5 + 1.5e-5
        )
        np.testing.assert_allclose(prof.p_z_output,
                                   0.5 * (21 / 9) * 1e-11 * 3)
        silent = multiqubit_rotation_profile(PhysicalNoise(1e-4), 21, 9, 3,
                                             involves_output=False)
        assert silent.p_z_output == 0.0

    def test_multiqubit_t_cost_factor(self):
        base = multiqubit_rotation_profile(PhysicalNoise(1e-4), 21, 9, 3,
                                           involves_output=False)
        expensive = multiqubit_rotation_profile(
            PhysicalNoise(1e-4, c_T=10.0), 21, 9, 3, involves_output=False
        )
        extra = 9 * 1e-4 / 3
        np.testing.assert_allclose(expensive.p_half - base.p_half, extra)
        np.testing.assert_allclose(expensive.p_quarter - base.p_quarter,
                                   extra)
        np.testing.assert_allclose(expensive.p_mquarter - base.p_mquarter,
                                   extra)

    def test_multiqubit_requires_room(self):
        with pytest.raises(ValueError):
            multiqubit_rotation_profile(PhysicalNoise(1e-4), 5, 9, 3, False)

    def test_single_qubit_hand_values(self):
        prof = single_qubit_rotation_profile(PhysicalNoise(1e-4), 3, 3)
        np.testing.assert_allclose(prof.p_half, 1e-4 / 3 + 0.5 * 3 * 1e-5)
        np.testing.assert_allclose(prof.p_quarter, 1e-4 / 3)
        np.testing.assert_allclose(prof.p_mquarter, 1e-4 / 3 + 0.5 * 3 * 1e-5)
        assert prof.p_z_output == 0.0

    def test_level2_hand_values(self):
        # l = 38, dX2 = 25, dm2 = 9, l_move = 120 at p = 1e-4
        p_l1 = 1.1e-9
        prof = level2_rotation_profile(PhysicalNoise(1e-4), p_l1, 38, 25, 9,
                                       120.0, involves_output=True)
        pl_m2 = 0.1 * (1e-2) ** 5
        move = 0.5 * 120.0 * pl_m2
        np.testing.assert_allclose(prof.p_half, p_l1 + move)
        assert prof.p_quarter == 0.0
        np.testing.assert_allclose(
            prof.p_mquarter, move + 0.5 * (38 * 25 / 9) * pl_m2
        )
        np.testing.assert_allclose(
            prof.p_z_output, 0.5 * (38 * 9 / 25) * 0.1 * (1e-2) ** 13
        )
