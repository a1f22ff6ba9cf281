"""Dense density-matrix reference for the graded engine's tests.

:class:`DensityMatrix` holds the whole ``2^n x 2^n`` matrix and applies
every channel as its textbook sum of Kraus terms, built from
:func:`msdsim.pauli.matrix_of`, so it shares no kernel with
:class:`msdsim.density.GradedDensityMatrix`.  Any Pauli axis is accepted.
:func:`materialize` sums a graded state back into one dense matrix, and
:func:`full_grades` widens its grade stack to all of its qubits.

Usage::

    from msdsim.noise import StorageRates
    from oracle import DensityMatrix, materialize

    rho = DensityMatrix.init_plus(3)
    rho = rho.apply_storage(0, StorageRates(0.01, 0.01), 2.0)
    rho, p_fail = rho.project_plus(frozenset({1, 2}))  # qubit 0 alone
"""
from __future__ import annotations

import numpy as np

from msdsim.density import RotationErrorProfile
from msdsim.noise import StorageRates
from msdsim.pauli import MAX_QUBITS, PauliProduct, matrix_of


def _single(letter: str, qubit: int, n: int) -> np.ndarray:
    """Matrix of one Pauli letter on ``qubit`` of n qubits."""
    return matrix_of(PauliProduct(
        "".join(letter if i == qubit else "I" for i in range(n))))


class DensityMatrix:
    """Plain dense density matrix on n <= 10 qubits."""

    def __init__(self, n: int, data: np.ndarray):
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")
        data = np.asarray(data, dtype=np.complex128)
        if data.shape != (1 << n, 1 << n):
            raise ValueError(f"shape {data.shape} does not match n={n}")
        self.n = n
        self.data = data

    @classmethod
    def init_plus(cls, n: int) -> DensityMatrix:
        dim = 1 << n
        return cls(n, np.full((dim, dim), 1.0 / dim, dtype=np.complex128))

    # -- invariant checks -------------------------------------------------
    def validate(self, tol: float = 1e-10, eig_tol: float = 1e-9) -> None:
        if np.max(np.abs(self.data - self.data.conj().T)) > tol:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(self.data).real - 1.0) > tol:
            raise ValueError("trace differs from 1")
        if np.linalg.eigvalsh(self.data).min() < -eig_tol:
            raise ValueError("state has a significantly negative eigenvalue")

    # -- channels ----------------------------------------------------------
    def apply_faulty_rotation(
        self,
        axis: PauliProduct,
        profile: RotationErrorProfile,
        sign: int = 1,
    ) -> DensityMatrix:
        if axis.n != self.n:
            raise ValueError("axis length differs from qubit count")
        if sign not in (1, -1):
            raise ValueError(f"rotation sign must be +1 or -1, got {sign}")
        m = matrix_of(axis)
        eye = np.eye(1 << self.n, dtype=np.complex128)

        def unitary(theta: float) -> np.ndarray:
            return np.cos(theta) * eye - 1j * np.sin(theta) * m

        base = sign * np.pi / 8
        branches = [
            (1.0 - profile.p_half - profile.p_quarter - profile.p_mquarter, base),
            (profile.p_half, base + np.pi / 2),
            (profile.p_quarter, base + np.pi / 4),
            (profile.p_mquarter, base - np.pi / 4),
        ]
        out = np.zeros_like(self.data)
        for prob, theta in branches:
            if prob == 0.0:
                continue
            u = unitary(theta)
            out += prob * (u @ self.data @ u.conj().T)
        return DensityMatrix(self.n, out)

    def _pauli_channel(self, letter: str, qubit: int, prob: float) -> DensityMatrix:
        if prob == 0.0:
            return self
        m = _single(letter, qubit, self.n)
        return DensityMatrix(
            self.n, (1.0 - prob) * self.data + prob * (m @ self.data @ m)
        )

    def apply_x_flip(self, qubit: int, p: float) -> DensityMatrix:
        return self._pauli_channel("X", qubit, p)

    def apply_z_flips(self, flips) -> DensityMatrix:
        """Each (qubit, p) flip of ``flips`` as its own channel, in order."""
        result = self
        for q, p in flips:
            result = result._pauli_channel("Z", q, p)
        return result

    def apply_storage(
        self, qubit: int, rates: StorageRates, cycles: float
    ) -> DensityMatrix:
        if qubit >= self.n:
            raise ValueError("qubit index out of range")
        px, pz = cycles * rates.pX, cycles * rates.pZ
        if px >= 1.0 or pz >= 1.0:
            raise ValueError("accumulated storage probability reaches 1")
        return self._pauli_channel("X", qubit, px)._pauli_channel("Z", qubit, pz)

    def project_plus(
        self, check_qubits: frozenset[int]
    ) -> tuple[DensityMatrix, float]:
        """Post-select |+> on the check qubits, prod_q (I + X_q)/2, and
        trace them out: the state of the other qubits, numbered in order."""
        if not check_qubits:
            raise ValueError("check set is empty")
        eye = np.eye(1 << self.n, dtype=np.complex128)
        proj = eye
        for q in sorted(check_qubits):
            proj = proj @ ((eye + _single("X", q, self.n)) / 2)
        projected = proj @ self.data @ proj
        p_success = np.trace(projected).real
        if p_success <= 1e-300:
            raise ValueError("success probability is numerically zero")
        # the highest check first, so the lower ones keep their axes
        n, t = self.n, projected.reshape((2,) * (2 * self.n))
        for q in sorted(check_qubits, reverse=True):
            t = np.trace(t, axis1=n - 1 - q, axis2=2 * n - 1 - q)
            n -= 1
        kept = t.reshape(1 << n, 1 << n)
        return DensityMatrix(n, kept / p_success), 1.0 - p_success

    def fidelity_with_pure(self, psi: np.ndarray) -> float:
        psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if psi.shape[0] != 1 << self.n:
            raise ValueError("dimension mismatch")
        return float(np.real(psi.conj() @ self.data @ psi))


def full_grades(state) -> np.ndarray:
    """A graded state's (kmax, 2^n, 2^n) stored grades at full width: a
    qubit that has not entered the stack is |+> in every grade, and the
    stack holds the entries, which do not depend on its bits, once."""
    if state.released:
        raise ValueError("a released qubit's grades are contracted away")
    n, live = state.n, state.live
    grades = state.grades.reshape(
        (state.kmax,) + tuple(2 if q in live else 1
                              for q in reversed(range(n))) * 2)
    return np.broadcast_to(grades, (state.kmax,) + (2,) * (2 * n)).reshape(
        state.kmax, 1 << n, 1 << n)


def materialize(state) -> DensityMatrix:
    """Dense form of a graded state: pure pure^dagger plus every grade,
    which the state stores divided by its ``scale``, on all its qubits.
    A state with a released qubit has no dense form."""
    total = np.outer(state.pure, state.pure.conj())
    for g in full_grades(state):
        total = total + state.scale * g
    return DensityMatrix(state.n, total)
