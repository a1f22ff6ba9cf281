"""Density-matrix engines for noisy Pauli-rotation circuits.

Two engines share one operation set:

* :class:`DensityMatrix` — a plain dense matrix.  Simple, fully general
  (any Pauli axes), used for property tests and cross-checks.
* :class:`GradedDensityMatrix` — the same state split by exact error count:
  the zero-error branch is kept as a pure statevector and each grade k holds
  the exactly-k-error mass.  Grade 1 is also kept as a store of pure
  branches, one per single error event.  Output infidelities far below
  float epsilon of the trace (1e-15 and smaller) are read as squared norms
  of deviation vectors, without catastrophic cancellation.  Restricted to
  Z-type axes (all catalog circuits are Z-type).

All operations are functional: they return a new state and leave the input
untouched.  The graded engine's grades are one ``(kmax, dim, dim)`` stack,
updated in cache-sized blocks, in place only in a channel's own
intermediates.  Complex products keep the operand order of
``d[:, None] * g * d.conj()[None, :]`` and ``np.outer(v, v.conj())``:
NumPy's SIMD loops round ``a * b`` and ``b * a`` differently in the last
bit, and the fixed order keeps the grades bit-identical from one version of
the engine to the next.  Real factors (probabilities, +-1 signs) and
permutations are exact in any order.

The branch store keeps each grade-1 branch as it was born, pulled back
through the ideal operations applied since: storage and error channels only
scale grade 1, and every ideal operation is diagonal.  A stored ``(w, row)``
is read as weight ``scale * w`` and vector ``conj(pullback) * row``; only a
projection and the readout materialize the rows.

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

from .pauli import MAX_QUBITS, PauliProduct, matrix_of, rotation_phases, z_signs

DEFAULT_MAX_GRADE = 6

# Graded channels walk the grade stack in blocks of at most this many bytes
# (one grade at n=7, all six at n=5): passes over the whole 1.5 MB stack at
# n=7 fall out of a core's cache and are slower.
_BLOCK_BYTES = 256 * 1024


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
# array helpers (little-endian: basis-index bit i is qubit i, so once a
# length-2**n axis is reshaped to (2,)*n, qubit i is axis -1 - i)
# ---------------------------------------------------------------------------


def _mask_of(p: PauliProduct) -> int:
    return sum(1 << i for i in p.support)


def _vec_xflip(vec: np.ndarray, qubit: int) -> np.ndarray:
    """X on one qubit of a statevector: basis-index bit ``qubit`` flipped."""
    return vec.reshape(-1, 2, 1 << qubit)[:, ::-1].reshape(-1)


def _stack_xflip(stack: np.ndarray, qubit: int) -> np.ndarray:
    """View of X rho X for every matrix of a (b, dim, dim) stack."""
    b, dim, _ = stack.shape
    hi, lo = dim >> (qubit + 1), 1 << qubit
    return stack.reshape(b, hi, 2, lo, hi, 2, lo)[:, :, ::-1, :, :, ::-1]


def _vec_project_checks(vec: np.ndarray, checks: tuple[int, ...], n: int) -> np.ndarray:
    """prod_q (I + X_q)/2 over the check qubits, on a statevector or on rows."""
    shape = vec.shape[:-1] + (2,) * n
    t = vec.reshape(shape)
    for q in checks:
        t = t.mean(axis=-1 - q, keepdims=True)
    return np.broadcast_to(t, shape).reshape(vec.shape).copy()


def _mat_project_checks(mat: np.ndarray, checks: tuple[int, ...], n: int) -> np.ndarray:
    """prod_q (I + X_q)/2 rho prod_q (I + X_q)/2 on a matrix or a stack of them."""
    shape = mat.shape[:-2] + (2,) * (2 * n)
    t = mat.reshape(shape)
    for q in checks:
        t = t.mean(axis=-1 - q - n, keepdims=True)  # row axis of qubit q
        t = t.mean(axis=-1 - q, keepdims=True)
    out = np.empty_like(mat)
    out.reshape(shape)[...] = t
    return out


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
    ``grades[k - 1]`` (k = 1..kmax) is the subnormalized density matrix of
    the exactly-k-error mass.  Branches with more than ``kmax`` errors are
    dropped; their total probability is bounded by ``1 - trace_total()``
    and is negligible for the error rates in scope.

    ``births`` holds grade 1 once more, as ``(weight, row)`` pairs, one per
    single error event, to be read through ``pullback`` (the conjugated
    ideal diagonals) and ``scale`` (see the module docstring).
    """

    def __init__(self, n: int, pure: np.ndarray, grades: np.ndarray,
                 births: tuple = (), pullback=1.0, scale: float = 1.0):
        self.n = n
        self.pure = pure
        self.grades = grades
        self.births = births
        self.pullback = pullback
        self.scale = scale

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
        return cls(n, pure, np.zeros((kmax, dim, dim), dtype=np.complex128))

    def grade1_branches(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, b) with grades[0] = sum_i w_i b_i b_i^dagger; b is (m, dim)."""
        weights = self.scale * np.array([w for w, _ in self.births])
        rows = np.array([r for _, r in self.births], dtype=np.complex128)
        return weights, np.conj(self.pullback) * rows.reshape(-1, len(self.pure))

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
    def _blocks(self) -> list[tuple[int, int]]:
        """Grade ranges [lo, hi) of at most _BLOCK_BYTES each, top block first."""
        per = max(1, _BLOCK_BYTES // self.grades[0].nbytes)
        return [(lo, min(lo + per, self.kmax))
                for lo in reversed(range(0, self.kmax, per))]

    def _mixture(self, keep_prob: float, branches: list,
                 out: np.ndarray) -> GradedDensityMatrix:
        """Generic one-event channel, writing the new grades into ``out``.

        With probability ``keep_prob`` nothing happens; each branch
        (prob, op) promotes the state one grade, op being a diagonal d
        (d rho d^dagger) or an int qubit (X rho X).  ``out`` is a fresh stack
        or, if the channel created it, ``self.grades``: blocks run from the
        top grade down, so the grades below a block are still unscaled, and
        a block holding its own inputs reads a copy.  Ideal-branch unitaries
        must be applied separately first.
        """
        grades, pure, dim = self.grades, self.pure, len(self.pure)
        branches = [
            (prob, op, op * pure if isinstance(op, np.ndarray)
             else _vec_xflip(pure, op))
            for prob, op in branches if prob != 0.0
        ]
        blocks = self._blocks()
        buf = np.empty((blocks[-1][1], dim, dim), np.complex128)
        for lo, hi in blocks:
            src = grades[max(lo - 1, 0):hi - 1]
            if out is grades and lo < hi - 1:
                src = src.copy()
            block = np.multiply(grades[lo:hi], keep_prob, out=out[lo:hi])
            term = buf[:hi - lo]
            below = term[1:] if lo == 0 else term
            for prob, op, v in branches:
                if isinstance(op, np.ndarray):
                    np.multiply(op[:, None], src, out=below)
                    below *= op.conj()[None, :]
                    below *= prob
                else:
                    flipped = _stack_xflip(src, op)
                    np.multiply(flipped, prob,
                                out=below.reshape(flipped.shape))
                if lo == 0:
                    np.multiply(v[:, None], v.conj()[None, :], out=term[0])
                    term[0] *= prob
                block += term
        # grade 1 is scaled by keep_prob and each event adds one branch; at
        # keep_prob = 0 every earlier branch is gone and the store restarts
        scale, pullback, births = self.scale * keep_prob, self.pullback, self.births
        if keep_prob == 0.0:
            scale, pullback, births = 1.0, 1.0, ()
        births += tuple([(p / scale, pullback * v) for p, _, v in branches])
        return GradedDensityMatrix(self.n, np.sqrt(keep_prob) * pure, out,
                                   births, pullback, scale)

    def _apply_diag_all(self, diag: np.ndarray) -> GradedDensityMatrix:
        """d rho d^dagger on every branch, into a fresh stack."""
        out = np.empty_like(self.grades)
        row, col = diag[:, None], diag.conj()[None, :]
        for lo, hi in self._blocks():
            block = np.multiply(row, self.grades[lo:hi], out=out[lo:hi])
            block *= col
        return GradedDensityMatrix(self.n, diag * self.pure, out, self.births,
                                   diag.conj() * self.pullback, self.scale)

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
        signs = z_signs(_mask_of(axis), self.n)
        state = self._apply_diag_all(np.exp(-1j * (sign * np.pi / 8) * signs))
        branches = [(prob, np.exp(-1j * extra * signs)) for prob, extra in (
            (profile.p_half, np.pi / 2),
            (profile.p_quarter, np.pi / 4),
            (profile.p_mquarter, -np.pi / 4),
        )]
        keep = 1.0 - profile.p_half - profile.p_quarter - profile.p_mquarter
        state = state._mixture(keep, branches, state.grades)
        p = profile.p_z_output
        if p:
            for q in sorted(set(axis.support) & set(output_qubits)):
                state = state._mixture(
                    1.0 - p, [(p, z_signs(1 << q, self.n))], state.grades)
        return state

    def apply_coherent_rotation(
        self, axis: PauliProduct, excess_angle: float, sign: int = 1
    ) -> GradedDensityMatrix:
        if axis.n != self.n:
            raise ValueError("axis length differs from qubit count")
        _require_z_axis(axis)
        _check_sign(sign)
        return self._apply_diag_all(rotation_phases(
            _mask_of(axis), self.n, sign * np.pi / 8 + excess_angle))

    def apply_storage(
        self, qubit: int, rates: StorageRates, cycles: float
    ) -> GradedDensityMatrix:
        if qubit >= self.n:
            raise ValueError("qubit index out of range")
        px, pz = cycles * rates.pX, cycles * rates.pZ
        if px >= 1.0 or pz >= 1.0:
            raise ValueError("accumulated storage probability reaches 1")
        state, out = self, np.empty_like(self.grades)
        if px:
            state = state._mixture(1.0 - px, [(px, qubit)], out)
        if pz:
            state = state._mixture(
                1.0 - pz, [(pz, z_signs(1 << qubit, self.n))], out)
        return state

    def project_plus(
        self, check_qubits: frozenset[int]
    ) -> tuple[GradedDensityMatrix, float]:
        checks = tuple(sorted(check_qubits))
        if not checks:
            raise ValueError("check set is empty")
        pure = _vec_project_checks(self.pure, checks, self.n)
        grades = _mat_project_checks(self.grades, checks, self.n)
        p_success = GradedDensityMatrix(self.n, pure, grades).trace_total()
        if p_success <= 1e-300:
            raise ValueError("success probability is numerically zero")
        scale = 1.0 / p_success
        grades *= scale
        # projection is linear: project the rows, keep their weights
        weights, rows = self.grade1_branches()
        births = tuple(zip(weights, _vec_project_checks(rows, checks, self.n)))
        state = GradedDensityMatrix(self.n, np.sqrt(scale) * pure, grades,
                                    births, 1.0, scale)
        return state, 1.0 - p_success / self.trace_total()

    def fidelity_with_pure(self, psi: np.ndarray) -> float:
        return 1.0 - self.infidelity_with_pure(psi)

    def infidelity_with_pure(self, psi: np.ndarray) -> float:
        """1 - <psi|rho|psi>, accumulated branch-wise to avoid cancellation.

        The zero-error branch and each grade-1 branch contribute the squared
        norm of their deviation from psi (exactly zero for a branch
        proportional to psi), so their error is about eps^2 of their mass.
        Grade k >= 2 contributes tr(rho_k) - <psi|rho_k|psi>, a difference of
        already-small numbers with an error of about eps of its mass.
        """
        psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if psi.shape[0] != 1 << self.n:
            raise ValueError("dimension mismatch")
        norm = float(np.vdot(psi, psi).real)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("reference state is not normalized")
        residual = self.pure - (psi.conj() @ self.pure) * psi
        dev = float(np.vdot(residual, residual).real)
        weights, rows = self.grade1_branches()
        rows -= np.outer(rows @ psi.conj(), psi)
        dev += float(weights @ (rows.real**2 + rows.imag**2).sum(1))
        for g in self.grades[1:]:
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
