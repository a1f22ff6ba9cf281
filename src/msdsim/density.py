"""Density-matrix engines for noisy Pauli-rotation circuits.

Two engines share one operation set:

* :class:`DensityMatrix` — a plain dense matrix.  Simple, fully general
  (any Pauli axes), used for property tests and cross-checks.
* :class:`GradedDensityMatrix` — the same state split by exact error count:
  the zero-error branch is kept as a pure statevector and each grade k holds
  the exactly-k-error mass.  Because the ideal branch never mixes with error
  terms, output infidelities far below float epsilon of the trace (1e-15 and
  smaller) are extracted without catastrophic cancellation.  Restricted to
  Z-type axes (all catalog circuits are Z-type).

All operations are functional: they return a new state and leave the input
untouched.

Usage::

    from msdsim.density import GradedDensityMatrix, RotationErrorProfile
    from msdsim.pauli import PauliProduct

    rho = GradedDensityMatrix.init_plus(5)
    prof = RotationErrorProfile(1e-4, 0.0, 0.0, 0.0)
    rho = rho.apply_faulty_rotation(PauliProduct("ZIIII"), prof, frozenset())
    rho, p_fail = rho.project_plus(frozenset({1, 2, 3, 4}))
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import MAX_QUBITS, PauliProduct, matrix_of, parity_lookup

DEFAULT_MAX_GRADE = 6


@dataclass(frozen=True)
class RotationErrorProfile:
    """Error probabilities of one faulty pi/8 rotation.

    p_half / p_quarter / p_mquarter are the probabilities of an extra
    P_{pi/2} / P_{pi/4} / P_{-pi/4} rotation on the rotation's axis;
    p_z_output is the probability of an extra Pauli Z on each designated
    output qubit in the rotation's support.
    """

    p_half: float
    p_quarter: float
    p_mquarter: float
    p_z_output: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_half", "p_quarter", "p_mquarter", "p_z_output"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name}={v} outside [0, 1)")
        if self.p_half + self.p_quarter + self.p_mquarter > 1.0:
            raise ValueError("substitution probabilities sum above 1")

    def scaled(self, factor: float) -> RotationErrorProfile:
        return RotationErrorProfile(
            self.p_half * factor,
            self.p_quarter * factor,
            self.p_mquarter * factor,
            self.p_z_output * factor,
        )


ZERO_PROFILE = RotationErrorProfile(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class StorageRates:
    """Per-code-cycle X and Z flip probabilities of an idle patch."""

    pX: float
    pZ: float

    def __post_init__(self) -> None:
        for name in ("pX", "pZ"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name}={v} outside [0, 1)")


# ---------------------------------------------------------------------------
# array helpers (little-endian: basis-index bit i is qubit i)
# ---------------------------------------------------------------------------


def _axis_of(qubit: int, n: int) -> int:
    """Tensor axis of a qubit once a length-2**n vector is reshaped to (2,)*n."""
    return n - 1 - qubit


def _mask_of(p: PauliProduct) -> int:
    return sum(1 << i for i in p.support)


def _vec_zsigns(mask: int, n: int) -> np.ndarray:
    """(-1)^<x, mask> for every basis index x, as float."""
    return 1.0 - 2.0 * parity_lookup(mask, n).astype(np.float64)


def _vec_xflip(vec: np.ndarray, qubit: int, n: int) -> np.ndarray:
    t = vec.reshape((2,) * n)
    return np.flip(t, axis=_axis_of(qubit, n)).reshape(-1)


def _mat_xflip(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    t = mat.reshape((2,) * (2 * n))
    ax = _axis_of(qubit, n)
    return np.flip(np.flip(t, axis=ax), axis=n + ax).reshape(mat.shape)


def _vec_project_checks(vec: np.ndarray, checks: tuple[int, ...], n: int) -> np.ndarray:
    """Apply prod_q (I + X_q)/2 over the check qubits to a statevector."""
    t = vec.reshape((2,) * n)
    for q in checks:
        t = t.mean(axis=_axis_of(q, n), keepdims=True)
    return np.broadcast_to(t, (2,) * n).reshape(-1).copy()


def _mat_project_checks(mat: np.ndarray, checks: tuple[int, ...], n: int) -> np.ndarray:
    t = mat.reshape((2,) * (2 * n))
    for q in checks:
        ax = _axis_of(q, n)
        t = t.mean(axis=ax, keepdims=True)
        t = t.mean(axis=n + ax, keepdims=True)
    return np.broadcast_to(t, (2,) * (2 * n)).reshape(mat.shape).copy()


def _require_z_axis(axis: PauliProduct) -> None:
    if set(axis.letters) - {"I", "Z"}:
        raise ValueError("graded engine supports Z-type axes only")


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"rotation sign must be +1 or -1, got {sign}")


# ---------------------------------------------------------------------------
# plain dense engine
# ---------------------------------------------------------------------------


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
        output_qubits: frozenset[int] = frozenset(),
        sign: int = 1,
    ) -> DensityMatrix:
        if axis.n != self.n:
            raise ValueError("axis length differs from qubit count")
        _check_sign(sign)
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
        result = DensityMatrix(self.n, out)
        if profile.p_z_output:
            for q in sorted(set(axis.support) & set(output_qubits)):
                result = result._pauli_channel("Z", q, profile.p_z_output)
        return result

    def apply_coherent_rotation(
        self, axis: PauliProduct, excess_angle: float, sign: int = 1
    ) -> DensityMatrix:
        if axis.n != self.n:
            raise ValueError("axis length differs from qubit count")
        _check_sign(sign)
        theta = sign * np.pi / 8 + excess_angle
        m = matrix_of(axis)
        u = np.cos(theta) * np.eye(1 << self.n) - 1j * np.sin(theta) * m
        return DensityMatrix(self.n, u @ self.data @ u.conj().T)

    def _pauli_channel(self, letter: str, qubit: int, prob: float) -> DensityMatrix:
        if prob == 0.0:
            return self
        p = PauliProduct(
            "".join(letter if i == qubit else "I" for i in range(self.n))
        )
        m = matrix_of(p)
        return DensityMatrix(
            self.n, (1.0 - prob) * self.data + prob * (m @ self.data @ m)
        )

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
        checks = tuple(sorted(check_qubits))
        if not checks:
            raise ValueError("check set is empty")
        projected = _mat_project_checks(self.data, checks, self.n)
        p_success = np.trace(projected).real
        if p_success <= 1e-300:
            raise ValueError("success probability is numerically zero")
        return DensityMatrix(self.n, projected / p_success), 1.0 - p_success

    def fidelity_with_pure(self, psi: np.ndarray) -> float:
        psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if psi.shape[0] != 1 << self.n:
            raise ValueError("dimension mismatch")
        return float(np.real(psi.conj() @ self.data @ psi))


# ---------------------------------------------------------------------------
# graded engine
# ---------------------------------------------------------------------------


class GradedDensityMatrix:
    """State split by exact error count, with a pure zero-error branch.

    ``pure`` is the subnormalized statevector of the no-error branch;
    ``grades[k]`` (k = 1..kmax) is the subnormalized density matrix of the
    exactly-(k)-error mass.  Branches with more than ``kmax`` errors are
    dropped; their total probability is bounded by ``1 - trace_total()``
    and is negligible for the error rates in scope.
    """

    def __init__(self, n: int, pure: np.ndarray, grades: list[np.ndarray]):
        self.n = n
        self.pure = pure
        self.grades = grades

    @property
    def kmax(self) -> int:
        return len(self.grades)

    @classmethod
    def init_plus(cls, n: int, kmax: int = DEFAULT_MAX_GRADE) -> GradedDensityMatrix:
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")
        if kmax < 1:
            raise ValueError(f"kmax must be at least 1, got {kmax}")
        dim = 1 << n
        pure = np.full(dim, dim ** -0.5, dtype=np.complex128)
        grades = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(kmax)]
        return cls(n, pure, grades)

    def copy(self) -> GradedDensityMatrix:
        return GradedDensityMatrix(
            self.n, self.pure.copy(), [g.copy() for g in self.grades]
        )

    def trace_total(self) -> float:
        t = float(np.vdot(self.pure, self.pure).real)
        for g in self.grades:
            t += float(np.trace(g).real)
        return t

    def materialize(self) -> DensityMatrix:
        total = np.outer(self.pure, self.pure.conj())
        for g in self.grades:
            total = total + g
        return DensityMatrix(self.n, total)

    # -- internal channel machinery ---------------------------------------
    def _mixture(
        self, keep_prob: float, branch_ops: list[tuple[float, object, object]]
    ) -> GradedDensityMatrix:
        """Generic one-event channel.

        With probability ``keep_prob`` nothing happens; each entry of
        ``branch_ops`` is (prob, vec_op, mat_op) promoting the state one
        grade.  Ideal-branch unitaries must be applied separately first.
        """
        new_pure = np.sqrt(keep_prob) * self.pure
        new_grades = [keep_prob * g for g in self.grades]
        for prob, vec_op, mat_op in branch_ops:
            if prob == 0.0:
                continue
            v = vec_op(self.pure)
            new_grades[0] = new_grades[0] + prob * np.outer(v, v.conj())
            for k in range(1, self.kmax):
                new_grades[k] = new_grades[k] + prob * mat_op(self.grades[k - 1])
        return GradedDensityMatrix(self.n, new_pure, new_grades)

    def _apply_diag_all(self, diag: np.ndarray) -> GradedDensityMatrix:
        pure = diag * self.pure
        grades = [diag[:, None] * g * diag.conj()[None, :] for g in self.grades]
        return GradedDensityMatrix(self.n, pure, grades)

    # -- channels ----------------------------------------------------------
    def apply_faulty_rotation(
        self,
        axis: PauliProduct,
        profile: RotationErrorProfile,
        output_qubits: frozenset[int] = frozenset(),
        sign: int = 1,
    ) -> GradedDensityMatrix:
        if axis.n != self.n:
            raise ValueError("axis length differs from qubit count")
        _require_z_axis(axis)
        _check_sign(sign)
        mask = _mask_of(axis)
        signs = _vec_zsigns(mask, self.n)
        ideal = np.exp(-1j * (sign * np.pi / 8) * signs)
        state = self._apply_diag_all(ideal)

        branch_ops = []
        for prob, extra in (
            (profile.p_half, np.pi / 2),
            (profile.p_quarter, np.pi / 4),
            (profile.p_mquarter, -np.pi / 4),
        ):
            if prob == 0.0:
                continue
            d = np.exp(-1j * extra * signs)
            branch_ops.append(
                (
                    prob,
                    (lambda v, d=d: d * v),
                    (lambda g, d=d: d[:, None] * g * d.conj()[None, :]),
                )
            )
        keep = 1.0 - profile.p_half - profile.p_quarter - profile.p_mquarter
        state = state._mixture(keep, branch_ops)

        if profile.p_z_output:
            for q in sorted(set(axis.support) & set(output_qubits)):
                state = state._z_channel(q, profile.p_z_output)
        return state

    def apply_coherent_rotation(
        self, axis: PauliProduct, excess_angle: float, sign: int = 1
    ) -> GradedDensityMatrix:
        if axis.n != self.n:
            raise ValueError("axis length differs from qubit count")
        _require_z_axis(axis)
        _check_sign(sign)
        signs = _vec_zsigns(_mask_of(axis), self.n)
        return self._apply_diag_all(
            np.exp(-1j * (sign * np.pi / 8 + excess_angle) * signs)
        )

    def _z_channel(self, qubit: int, prob: float) -> GradedDensityMatrix:
        signs = _vec_zsigns(1 << qubit, self.n)
        return self._mixture(
            1.0 - prob,
            [
                (
                    prob,
                    lambda v: signs * v,
                    lambda g: signs[:, None] * g * signs[None, :],
                )
            ],
        )

    def _x_channel(self, qubit: int, prob: float) -> GradedDensityMatrix:
        return self._mixture(
            1.0 - prob,
            [
                (
                    prob,
                    lambda v: _vec_xflip(v, qubit, self.n),
                    lambda g: _mat_xflip(g, qubit, self.n),
                )
            ],
        )

    def apply_storage(
        self, qubit: int, rates: StorageRates, cycles: float
    ) -> GradedDensityMatrix:
        if qubit >= self.n:
            raise ValueError("qubit index out of range")
        px, pz = cycles * rates.pX, cycles * rates.pZ
        if px >= 1.0 or pz >= 1.0:
            raise ValueError("accumulated storage probability reaches 1")
        state = self
        if px:
            state = state._x_channel(qubit, px)
        if pz:
            state = state._z_channel(qubit, pz)
        return state

    def project_plus(
        self, check_qubits: frozenset[int]
    ) -> tuple[GradedDensityMatrix, float]:
        checks = tuple(sorted(check_qubits))
        if not checks:
            raise ValueError("check set is empty")
        total = self.trace_total()
        pure = _vec_project_checks(self.pure, checks, self.n)
        grades = [_mat_project_checks(g, checks, self.n) for g in self.grades]
        p_success = float(np.vdot(pure, pure).real)
        for g in grades:
            p_success += float(np.trace(g).real)
        if p_success <= 1e-300:
            raise ValueError("success probability is numerically zero")
        scale = 1.0 / p_success
        state = GradedDensityMatrix(
            self.n, np.sqrt(scale) * pure, [scale * g for g in grades]
        )
        return state, 1.0 - p_success / total

    def fidelity_with_pure(self, psi: np.ndarray) -> float:
        return 1.0 - self.infidelity_with_pure(psi)

    def infidelity_with_pure(self, psi: np.ndarray) -> float:
        """1 - <psi|rho|psi>, accumulated grade-wise to avoid cancellation.

        The zero-error branch contributes the squared norm of its deviation
        from psi (exactly zero when the branch is proportional to psi);
        grade k >= 1 contributes tr(rho_k) - <psi|rho_k|psi>, which is a
        difference of already-small numbers.
        """
        psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if psi.shape[0] != 1 << self.n:
            raise ValueError("dimension mismatch")
        norm = float(np.vdot(psi, psi).real)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("reference state is not normalized")
        residual = self.pure - (psi.conj() @ self.pure) * psi
        dev = float(np.vdot(residual, residual).real)
        for g in self.grades:
            dev += float(np.trace(g).real - np.real(psi.conj() @ g @ psi))
        total = self.trace_total()
        return dev / total


def pure_state_infidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """1 - |<psi|phi/|phi|>|^2 via the deviation vector (cancellation-free)."""
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    nphi = float(np.vdot(phi, phi).real)
    residual = phi - (psi.conj() @ phi) * psi
    return float(np.vdot(residual, residual).real) / nphi
