"""Tests for the Pauli-product and rotation algebra."""
from __future__ import annotations

import numpy as np
import pytest

from msdsim.pauli import (
    PauliProduct,
    Rotation,
    RotationAngle,
    equal_up_to_phase,
    matrix_of,
    parity_lookup,
    phase_exponents,
    rotation_phases,
    z_signs,
)


def dense_rotation(r: Rotation) -> np.ndarray:
    """exp(-i * axis * k*pi/8) as a dense matrix, via the cos/sin closed
    form (a reference that shares no code with phase_exponents)."""
    phi = r.angle.radians
    m = matrix_of(r.axis)
    return np.cos(phi) * np.eye(len(m)) - 1j * np.sin(phi) * m


def random_z_rotations(rng, n: int, count: int) -> list[Rotation]:
    rotations = []
    for _ in range(count):
        mask = int(rng.integers(0, 1 << n))
        letters = "".join("Z" if mask >> i & 1 else "I" for i in range(n))
        k = int(rng.choice([-2, -1, 1, 2, 3, 4, 5]))
        rotations.append(Rotation(PauliProduct(letters), RotationAngle(k)))
    return rotations


class TestPauliProduct:
    def test_basic_properties(self):
        p = PauliProduct("ZIZ")
        assert p.n == 3
        assert p.support == (0, 2)
        assert PauliProduct("II").support == ()

    def test_invalid_letters_rejected(self):
        with pytest.raises(ValueError):
            PauliProduct("ZA")
        with pytest.raises(ValueError):
            PauliProduct("")

    def test_matrix_little_endian(self):
        # basis-index bit i is qubit i: Z on qubit 0 of two flips the sign
        # of every odd basis index.
        z0 = matrix_of(PauliProduct("ZI"))
        np.testing.assert_allclose(z0, np.diag([1, -1, 1, -1]).astype(complex))
        # X on qubit 1 of two maps |00> -> |10>, i.e. index 0 -> index 2.
        x1 = matrix_of(PauliProduct("IX"))
        expected = np.zeros((4, 4))
        expected[2, 0] = expected[0, 2] = 1.0
        expected[3, 1] = expected[1, 3] = 1.0
        np.testing.assert_allclose(x1, expected.astype(complex))

    def test_matrix_squares_to_identity(self):
        rng = np.random.default_rng(11)
        letters = np.array(list("IXYZ"))
        for _ in range(20):
            word = "".join(rng.choice(letters, size=4))
            m = matrix_of(PauliProduct(word))
            np.testing.assert_allclose(m @ m, np.eye(16), atol=1e-12)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)


class TestRotation:
    def test_angle_lattice(self):
        assert RotationAngle(1).radians == pytest.approx(np.pi / 8)
        assert RotationAngle(-2).radians == pytest.approx(-np.pi / 4)
        with pytest.raises(ValueError):
            RotationAngle(0)
        with pytest.raises(ValueError):
            RotationAngle(8)

    def test_unitary_closed_form(self):
        # exp(-i Z pi/8) = diag(e^{-i pi/8}, e^{i pi/8}): exponents -1 and 1
        r = Rotation(PauliProduct("Z"), RotationAngle(1))
        np.testing.assert_array_equal(phase_exponents([r], 1), [15, 1])
        expected = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
        np.testing.assert_allclose(dense_rotation(r), expected, atol=1e-12)

    def test_inverse_pairs_cancel(self):
        axis = PauliProduct("ZZ")
        pair = [Rotation(axis, RotationAngle(1)),
                Rotation(axis, RotationAngle(-1))]
        np.testing.assert_array_equal(phase_exponents(pair, 2), [0] * 4)
        np.testing.assert_allclose(
            dense_rotation(pair[0]) @ dense_rotation(pair[1]), np.eye(4),
            atol=1e-12)

    def test_rotation_phases_matches_unitary_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            (r,) = random_z_rotations(rng, n, 1)
            mask, k = r.axis.mask, r.angle.k
            diag = rotation_phases(mask, n, k * np.pi / 8)
            np.testing.assert_allclose(np.diag(dense_rotation(r)), diag,
                                       atol=1e-12)
            np.testing.assert_array_equal(
                z_signs(mask, n), np.diag(matrix_of(r.axis)))


class TestPhaseExponents:
    def test_matches_a_dense_product(self):
        # the diagonal of the product is exp(i pi/8 a(x)), and nothing
        # else: Z-type rotations are diagonal
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            rotations = random_z_rotations(rng, n, int(rng.integers(0, 12)))
            u = np.eye(1 << n, dtype=complex)
            for r in rotations:
                u = dense_rotation(r) @ u
            a = phase_exponents(rotations, n)
            assert a.dtype == np.uint8 and a.max(initial=0) < 16
            np.testing.assert_allclose(u, np.diag(np.exp(1j * np.pi / 8 * a)),
                                       atol=1e-12)

    def test_mask_is_the_support(self):
        assert PauliProduct("ZIZI").mask == 0b0101
        assert PauliProduct("IIY").mask == 0b100
        assert PauliProduct("II").mask == 0

    @pytest.mark.parametrize("letters", ["XI", "ZY", "IX"])
    def test_non_z_axis_raises(self, letters):
        r = Rotation(PauliProduct(letters), RotationAngle(1))
        with pytest.raises(ValueError, match="Z-type"):
            phase_exponents([r], 2)

    def test_mixed_widths_raise(self):
        rotations = [Rotation(PauliProduct("ZZ"), RotationAngle(1)),
                     Rotation(PauliProduct("ZIZ"), RotationAngle(1))]
        with pytest.raises(ValueError, match="qubits"):
            phase_exponents(rotations, 2)
        with pytest.raises(ValueError, match="qubits"):
            phase_exponents(rotations[:1], 3)


class TestHelpers:
    def test_parity_lookup(self):
        # mask 0b101 over 3 qubits: parity of bits 0 and 2
        par = parity_lookup(0b101, 3)
        np.testing.assert_array_equal(par, [0, 1, 0, 1, 1, 0, 1, 0])

    def test_z_signs_are_memoized_read_only(self):
        signs = z_signs(0b101, 3)
        assert z_signs(0b101, 3) is signs
        np.testing.assert_array_equal(signs, [1, -1, 1, -1, -1, 1, -1, 1])
        with pytest.raises(ValueError):
            signs[0] = 0.0

    def test_equal_up_to_phase(self):
        a = np.array([1.0, 1j]) / np.sqrt(2)
        assert equal_up_to_phase(a, np.exp(0.7j) * a)
        assert not equal_up_to_phase(a, np.array([1.0, 0.0]))
