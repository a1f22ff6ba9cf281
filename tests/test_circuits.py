"""Tests for the distillation-circuit catalog and circuit-level noise."""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

import msdsim.circuits as circuits
from msdsim.circuits import (
    LEADING_ORDER,
    CATALOG_KINDS,
    NoiseSpec,
    catalog,
    coherent,
    random_pauli,
    undetected_error_sets,
    verify_equivalence,
    verify_gadget,
    verify_noiseless_output,
    z_only,
)
from msdsim.factory import simulate_circuit
from msdsim.pauli import PauliProduct, Rotation, RotationAngle


# the rotation the 15-to-1 circuit composes to: P_{-pi/8} on its output
FIFTEEN_TARGET = [Rotation(PauliProduct("ZIIII"), RotationAngle(-1))]


class TestCatalog:
    def test_all_kinds_build(self):
        for kind in CATALOG_KINDS:
            c = catalog(kind)
            assert c.name == kind
        with pytest.raises(ValueError):
            catalog("nonsense")

    def test_rotation_counts(self):
        assert len(catalog("fifteen_to_one").rotations) == 15
        assert len(catalog("identity16").rotations) == 16
        assert len(catalog("twenty_to_four").rotations) == 20
        assert len(catalog("eight_to_ccz").rotations) == 8
        assert len(catalog("ccz7").rotations) == 7

    def test_identity16_composes_to_identity(self):
        assert verify_equivalence(catalog("identity16"), [])

    def test_identity15_4q_composes_to_identity(self):
        assert verify_equivalence(catalog("identity15_4q"), [])

    def test_fifteen_to_one_is_single_rotation(self):
        assert verify_equivalence(catalog("fifteen_to_one"), FIFTEEN_TARGET)

    def test_eight_to_ccz_matches_ccz_decomposition(self):
        assert verify_equivalence(
            catalog("eight_to_ccz"), catalog("ccz7")
        )

    @pytest.mark.parametrize("kind, target", [
        ("fifteen_to_one", FIFTEEN_TARGET),
        ("eight_to_ccz", catalog("ccz7")),
        ("identity16", []),
        ("identity15_4q", []),
    ], ids=["15to1", "8toccz", "identity16", "identity15_4q"])
    def test_a_dropped_or_negated_rotation_fails(self, kind, target):
        # negative controls: no single rotation of a checked circuit is
        # redundant, and none may change sign
        rotations = catalog(kind).rotations
        for i, r in enumerate(rotations):
            flipped = Rotation(r.axis, RotationAngle(-r.angle.k))
            dropped = rotations[:i] + rotations[i + 1:]
            negated = rotations[:i] + (flipped,) + rotations[i + 1:]
            assert not verify_equivalence(dropped, target), (kind, i)
            assert not verify_equivalence(negated, target), (kind, i)

    def test_equivalence_is_up_to_a_global_phase_only(self):
        z = PauliProduct("ZIIII")
        c15 = catalog("fifteen_to_one")
        # a Pauli Z, four pi/8 steps, is no global phase
        pauli = [Rotation(z, RotationAngle(-1)), Rotation(z, RotationAngle(4))]
        assert not verify_equivalence(c15, pauli)
        # two circuits with one rotation in common differ
        assert not verify_equivalence(c15.rotations[:1], c15.rotations[1:2])
        # an empty list on each side is the identity
        assert verify_equivalence([], [])

    @pytest.mark.parametrize("letters, match", [
        ("XIIZ", "Z-type"), ("ZIIZI", "qubits")])
    def test_circuit_rejects_a_bad_axis(self, letters, match):
        c = catalog("eight_to_ccz")
        bad = (Rotation(PauliProduct(letters), RotationAngle(1)),)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(c, rotations=c.rotations + bad)

    def test_equivalence_rejects_bad_axes_and_widths(self):
        x = [Rotation(PauliProduct("XIIII"), RotationAngle(1))]
        with pytest.raises(ValueError, match="Z-type"):
            verify_equivalence(catalog("fifteen_to_one"), x)
        with pytest.raises(ValueError, match="qubits"):
            verify_equivalence(catalog("fifteen_to_one"), catalog("ccz7"))
        mixed = [Rotation(PauliProduct("ZIII"), RotationAngle(1)),
                 Rotation(PauliProduct("ZIIII"), RotationAngle(1))]
        with pytest.raises(ValueError, match="qubits"):
            verify_equivalence(mixed, [])

    def test_twenty_to_four_noiseless_fidelity(self):
        c = catalog("twenty_to_four")
        p_out, p_fail = simulate_circuit(c, z_only(0.0), kmax=1)
        assert p_out == p_fail == 0.0

    def test_noiseless_outputs_are_exact(self):
        # |m~> = P_{-pi/8}|+> on every kept qubit, in Z[e^{i pi/8}]; a
        # dropped or negated rotation, or a wrong ideal, fails
        def magic(k, angle=-1):
            return [Rotation(PauliProduct("".join(
                "Z" if i == q else "I" for i in range(k))),
                RotationAngle(angle)) for q in range(k)]

        for kind, k in (("twenty_to_four", 4), ("fifteen_to_one", 1)):
            c = catalog(kind)
            assert verify_noiseless_output(c, magic(k))
            assert not verify_noiseless_output(c, magic(k, angle=1))
            assert not verify_noiseless_output(c, magic(k)[1:])
            for i, r in enumerate(c.rotations):
                negated = Rotation(r.axis, RotationAngle(-r.angle.k))
                for rotations in (c.rotations[:i] + c.rotations[i + 1:],
                                  c.rotations[:i] + (negated,)
                                  + c.rotations[i + 1:]):
                    changed = dataclasses.replace(c, rotations=rotations)
                    assert not verify_noiseless_output(changed, magic(k)), (
                        kind, i)

    def test_output_factors_are_read_from_the_ideal_output(self):
        def same_state(f, g):
            return abs(abs(np.vdot(f, g)) - 1.0) < 1e-12

        c = catalog("twenty_to_four")
        assert sorted(c.output_factors) == [0, 1, 2, 3]
        assert all(same_state(f, circuits.MAGIC_CONJ)
                   for f in c.output_factors.values())
        assert not c.output_factors[0].flags.writeable
        assert list(catalog("fifteen_to_one").output_factors) == [0]
        assert catalog("eight_to_ccz").output_factors == {}
        # outputs 0 and 1 entangled, output 2 in |1>: its first column of
        # amplitudes is zero
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        one = np.array([0.0, 1.0])
        changed = dataclasses.replace(c, ideal_output=circuits.product_state(
            [bell, one, circuits.MAGIC_CONJ] + [circuits.PLUS] * 3))
        assert sorted(changed.output_factors) == [2, 3]
        assert same_state(changed.output_factors[2], one)

    def test_noiseless_runs_reproduce_ideal_outputs(self):
        # a noiseless run reads exactly 0 under every noise kind, as a
        # factory's does, not the engine's or the statevector's round-off
        for kind in CATALOG_KINDS:
            for noise in (z_only(0.0), random_pauli(0.0), coherent(0.0),
                          coherent(-0.0)):
                p_out, p_fail = simulate_circuit(catalog(kind), noise, kmax=1)
                assert p_out == p_fail == 0.0, (kind, noise)


class TestUndetectedErrorSets:
    def test_counts(self):
        c15 = catalog("fifteen_to_one")
        c20 = catalog("twenty_to_four")
        c8 = catalog("eight_to_ccz")
        start = time.monotonic()
        assert undetected_error_sets(c15, 1) == 0
        assert undetected_error_sets(c15, 2) == 0
        assert undetected_error_sets(c15, 3) == 35
        assert undetected_error_sets(c20, 1) == 0
        assert undetected_error_sets(c20, 2) == 22
        assert undetected_error_sets(c8, 1) == 0
        assert undetected_error_sets(c8, 2) == 28
        assert time.monotonic() - start < 10.0

    def test_subset_budget(self):
        total = sum(math.comb(15, k) for k in (1, 2, 3))
        total += sum(math.comb(20, k) for k in (1, 2))
        total += sum(math.comb(8, k) for k in (1, 2))
        assert total <= 2**20

    def test_order_bound(self):
        with pytest.raises(ValueError):
            undetected_error_sets(catalog("eight_to_ccz"), 9)

    def test_leading_orders(self):
        # each recorded order is the first with an undetected error set
        for kind, order in LEADING_ORDER.items():
            counts = [undetected_error_sets(catalog(kind), k)
                      for k in range(1, order + 1)]
            assert counts[-1] > 0 and not any(counts[:-1]), kind


GADGETS = ("consumption", "t_measurement", "delayed_choice",
           "auto_corrected")


class TestGadgets:
    def test_branch_rules(self):
        for kind in GADGETS:
            assert verify_gadget(kind)

    @pytest.mark.parametrize("correction, failing", [
        ("PAULI_FIX", GADGETS),
        ("CLIFFORD_FIX", ("consumption", "delayed_choice")),
    ], ids=["pauli", "clifford"])
    def test_a_dropped_correction_fails(self, correction, failing,
                                        monkeypatch):
        # negative controls: every gadget has a branch that needs the Pauli
        # P correction, and two of them a branch that needs P_{pi/4}
        monkeypatch.setattr(circuits, correction, 0)
        for kind in GADGETS:
            assert verify_gadget(kind) == (kind not in failing), kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_gadget("bogus")


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("bogus", 0.1)
        with pytest.raises(ValueError):
            NoiseSpec("z_only", 0.5)
        # the coherent kind carries an angle, not a probability
        NoiseSpec("coherent", 0.3)

    @pytest.mark.parametrize("make", [z_only, random_pauli, coherent])
    def test_non_finite_values_are_rejected(self, make):
        # a nan or infinite excess angle used to run, to a nan p_out (or a
        # RuntimeWarning from NumPy); every kind now rejects it up front
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                make(value)


class TestSimulateCircuit:
    """Frozen circuit-level results; the engine is deterministic."""

    def test_fifteen_to_one_z_only(self):
        p_out, p_fail = simulate_circuit(catalog("fifteen_to_one"),
                                         z_only(1e-4))
        np.testing.assert_allclose(p_out, 3.5010503771183636e-11, rtol=1e-9)
        np.testing.assert_allclose(p_fail, 0.0014989504198946735, rtol=1e-9)

    def test_fifteen_to_one_random_pauli(self):
        p_out, p_fail = simulate_circuit(catalog("fifteen_to_one"),
                                         random_pauli(1e-4))
        np.testing.assert_allclose(p_out, 1.0372444942152906e-11, rtol=1e-9)
        np.testing.assert_allclose(p_fail, 0.0009995334577566073, rtol=1e-9)

    def test_twenty_to_four_z_only(self):
        p_out, p_fail = simulate_circuit(catalog("twenty_to_four"),
                                         z_only(1e-4))
        np.testing.assert_allclose(p_out, 5.505101426495561e-08, rtol=1e-9)
        np.testing.assert_allclose(p_fail, 0.001997881375392363, rtol=1e-9)
        p_out3, _ = simulate_circuit(catalog("twenty_to_four"), z_only(1e-3))
        np.testing.assert_allclose(p_out3, 5.5511417342829176e-06, rtol=1e-9)

    def test_eight_to_ccz_z_only(self):
        p_out, _ = simulate_circuit(catalog("eight_to_ccz"), z_only(1e-4))
        np.testing.assert_allclose(p_out, 2.800559355719528e-07, rtol=1e-9)

    def test_fifteen_to_one_coherent(self):
        p_out, _ = simulate_circuit(catalog("fifteen_to_one"),
                                    coherent(math.asin(0.01)))
        np.testing.assert_allclose(p_out, 1.2241891177506528e-09, rtol=1e-9)

    @pytest.mark.parametrize("kind", ["fifteen_to_one", "twenty_to_four",
                                      "eight_to_ccz"])
    def test_coherent_p_fail_is_the_rejected_mass(self, kind):
        # p_fail sums the rejected mass: no excess angle, nor one that
        # turns every rotation into a Clifford, gives a negative one, and
        # p_fail ~ x^2 holds down to small x, where 1 - p_success cancels
        # (p_fail / x^2 moved 2e-3 to 6e-3 from x = 1e-5 to 1e-7)
        c = catalog(kind)
        for x in (0.0, -math.pi / 8, 3 * math.pi / 8):
            assert simulate_circuit(c, coherent(x))[1] >= 0.0
        small, large = (simulate_circuit(c, coherent(x))[1] / x**2
                        for x in (1e-7, 1e-5))
        assert small == pytest.approx(large, rel=1e-8)

    def test_leading_order_coefficients(self):
        # At p = 1e-6 the undetected-set counts dominate: 35 p^3 for
        # 15-to-1, 22 p^2 / 4 per state for 20-to-4, 28 p^2 for 8-to-CCZ.
        p = 1e-6
        p15, _ = simulate_circuit(catalog("fifteen_to_one"), z_only(p))
        np.testing.assert_allclose(p15, 35 * p**3, rtol=0.01)
        p20, _ = simulate_circuit(catalog("twenty_to_four"), z_only(p))
        np.testing.assert_allclose(p20, 22 * p**2 / 4, rtol=0.01)
        p8, _ = simulate_circuit(catalog("eight_to_ccz"), z_only(p))
        np.testing.assert_allclose(p8, 28 * p**2, rtol=0.01)

    def test_monotone_in_noise(self):
        previous = 0.0
        for p in (2e-5, 5e-5, 1e-4, 2e-4, 5e-4):
            p_out, _ = simulate_circuit(catalog("fifteen_to_one"), z_only(p))
            assert p_out > previous
            previous = p_out
