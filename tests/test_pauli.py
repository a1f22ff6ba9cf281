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
    rotation_phases,
    rotation_unitary,
    z_signs,
)


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
        r = Rotation(PauliProduct("Z"), RotationAngle(1))
        u = rotation_unitary(r)
        expected = np.diag(
            [np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]
        )
        np.testing.assert_allclose(u, expected, atol=1e-12)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_inverse_pairs_cancel(self):
        axis = PauliProduct("ZZ")
        u1 = rotation_unitary(Rotation(axis, RotationAngle(1)))
        u2 = rotation_unitary(Rotation(axis, RotationAngle(-1)))
        np.testing.assert_allclose(u1 @ u2, np.eye(4), atol=1e-12)

    def test_rotation_phases_matches_unitary_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            mask = int(rng.integers(0, 1 << n))
            letters = "".join(
                "Z" if mask >> i & 1 else "I" for i in range(n)
            )
            k = int(rng.choice([-2, -1, 1, 2, 4]))
            u = rotation_unitary(
                Rotation(PauliProduct(letters), RotationAngle(k))
            )
            diag = rotation_phases(mask, n, k * np.pi / 8)
            np.testing.assert_allclose(np.diag(u), diag, atol=1e-12)
            np.testing.assert_array_equal(
                z_signs(mask, n), np.diag(matrix_of(PauliProduct(letters))))


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
