"""Graded density-matrix engine for noisy Pauli-rotation circuits.

:class:`GradedDensityMatrix` splits the state by exact error count: the
zero-error branch is kept as a pure statevector and each grade k holds the
exactly-k-error mass.  Grade 1 is also kept as a store of pure branches,
one per single error event.  Output infidelities far below float epsilon
of the trace (1e-15 and smaller) are read as squared norms of deviation
vectors, without catastrophic cancellation.  Restricted to Z-type axes
(all catalog circuits are Z-type).

All operations are functional: they return a new state and leave the input
untouched, except on a state a caller took as its own (``_owned``, for a
schedule run that keeps no earlier state): its channels update its stack
in place.  The grades are one ``(kmax, dim, dim)`` stack, updated in
cache-sized blocks.  Each channel is one elementwise kernel,
``out_k = A o g_k + B o P(g_{k-1})`` with ``g_0 = pure pure^dagger``: P
permutes for an X flip; a Z-type operation scales ``rho_ij`` by a value set
by the class ``c_ij = 1 + (s_i - s_j)/2`` of the axis's Z signs s, so A and
B are 3-entry tables looked up by c (a faulty rotation folds its ideal
phase D and error branches W into ``A = keep D`` and ``B = D W``).  Real
factors (probabilities, +-1 signs) and permutations are exact in any order,
so X and Z flips give bit-identical grades from one engine version to the
next.  Products of complex phases are not: NumPy's SIMD loops round
``a * b`` and ``b * a`` differently in the last bit, so rotations move in
the last bits when their operand order changes.

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
from functools import lru_cache

import numpy as np

from .pauli import MAX_QUBITS, PauliProduct, rotation_phases, z_signs

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


def _mat_project_checks(mat: np.ndarray, checks: tuple[int, ...], n: int,
                        out: np.ndarray) -> np.ndarray:
    """prod_q (I + X_q)/2 rho prod_q (I + X_q)/2 on a stack, into ``out``.

    ``out`` may be ``mat``: the averages are taken before it is written.
    """
    shape = mat.shape[:-2] + (2,) * (2 * n)
    t = mat.reshape(shape)
    for q in checks:
        t = t.mean(axis=-1 - q - n, keepdims=True)  # row axis of qubit q
        t = t.mean(axis=-1 - q, keepdims=True)
    out.reshape(shape)[...] = t
    return out


# s_i - s_j and s_i s_j for the entries of each class c_ij under Z signs s;
# complex, since a real operand makes NumPy's complex loops cast in buffers
_CLASS_STEP = np.array([-2.0, 0.0, 2.0])
_CLASS_SIGN = np.array([-1.0, 1.0, -1.0], dtype=np.complex128)


@lru_cache(maxsize=None)
def _z_classes(mask: int, n: int) -> np.ndarray:
    """c_ij = 1 + (s_i - s_j)/2 of every entry; memoized, read-only int8."""
    s = z_signs(mask, n)
    c = (1.0 + (s[:, None] - s[None, :]) / 2).astype(np.int8)
    c.flags.writeable = False
    return c


def _phase_table(theta: float) -> np.ndarray:
    """By class: exp(-i theta (s_i - s_j)), the factor of d rho d^dagger."""
    return np.exp(-1j * theta * _CLASS_STEP)


def _z_mask(axis: PauliProduct, n: int, sign: int) -> int:
    """Bitmask of a rotation's Z-type axis on n qubits, once both are valid."""
    if axis.n != n:
        raise ValueError("axis length differs from qubit count")
    if set(axis.letters) - {"I", "Z"}:
        raise ValueError("graded engine supports Z-type axes only")
    if sign not in (1, -1):
        raise ValueError(f"rotation sign must be +1 or -1, got {sign}")
    return _mask_of(axis)


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

    # an owned state's channels write its grade stack in place (``_owned``)
    _in_place = False

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

    def _owned(self) -> GradedDensityMatrix:
        """This state, whose channels from now on write its stack in place.

        For a caller that keeps no earlier state, such as a schedule run:
        the run allocates one stack instead of one per channel, and each
        state it returns shares that stack, so the next channel changes it.
        """
        self._in_place = True
        return self

    def _out(self) -> np.ndarray:
        """The stack a channel writes: this one if owned, else a new one."""
        return self.grades if self._in_place else np.empty_like(self.grades)

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

    # -- internal channel machinery ---------------------------------------
    def _blocks(self) -> list[tuple[int, int]]:
        """Grade ranges [lo, hi) of at most _BLOCK_BYTES each, top block first."""
        per = max(1, _BLOCK_BYTES // self.grades[0].nbytes)
        return [(lo, min(lo + per, self.kmax))
                for lo in reversed(range(0, self.kmax, per))]

    def _channel(self, a, b, out, qubit=None, mask=0) -> np.ndarray:
        """Grades of a one-event channel: out_k = A o g_k + B o P(g_{k-1}).

        P is X rho X on ``qubit``, or the identity for None.  a and b are
        scalars or 3-entry tables, which the classes of Z_mask turn into A
        and B.  ``out`` is a fresh stack or, if the caller created it,
        ``self.grades``: blocks run from the top grade down, each reading
        the grades below it before it overwrites itself.
        """
        grades, blocks = self.grades, self._blocks()
        v = self.pure if qubit is None else _vec_xflip(self.pure, qubit)
        # one scratch allocation for A, B and a block of terms: freeing
        # several of this size per call makes malloc return and refault pages
        work = np.empty((blocks[-1][1] + 2, *grades.shape[1:]), grades.dtype)
        if np.ndim(a):
            a = np.take(a, _z_classes(mask, self.n), out=work[0], mode="clip")
        if np.ndim(b):
            b = np.take(b, _z_classes(mask, self.n), out=work[1], mode="clip")
        buf = work[2:]
        for lo, hi in blocks:
            term = buf[:hi - lo]
            below = term[1:] if lo == 0 else term
            src = grades[max(lo - 1, 0):hi - 1]
            if qubit is not None:
                src = _stack_xflip(src, qubit)
                below = below.reshape(src.shape)
            np.multiply(src, b, out=below)
            if lo == 0:
                np.multiply(v[:, None], v.conj()[None, :], out=term[0])
                term[0] *= b
            block = np.multiply(grades[lo:hi], a, out=out[lo:hi])
            block += term
        return out

    def _event(self, keep: float, branches: list, grades: np.ndarray,
               pure: np.ndarray, pullback) -> GradedDensityMatrix:
        """The state with new grades after one event of probability 1 - keep.

        Each branch (prob, v) turns ``pure`` into v and joins the store; at
        keep = 0 every earlier branch is gone and the store restarts.
        """
        scale, births = self.scale * keep, self.births
        if keep == 0.0:
            scale, pullback, births = 1.0, 1.0, ()
        births += tuple([(p / scale, pullback * v) for p, v in branches if p])
        return self._successor(np.sqrt(keep) * pure, grades, births,
                               pullback, scale)

    def _successor(self, pure, grades, births, pullback,
                   scale) -> GradedDensityMatrix:
        """A new state with these fields, owned if this one is."""
        state = GradedDensityMatrix(self.n, pure, grades, births, pullback,
                                    scale)
        state._in_place = self._in_place
        return state

    def _flip(self, letter: str, qubit: int, p: float,
              out: np.ndarray) -> GradedDensityMatrix:
        """(1 - p) rho + p P rho P for P = X or Z on ``qubit``."""
        if letter == "X":
            b, v, xq = p, _vec_xflip(self.pure, qubit), qubit
        else:
            b, xq = p * _CLASS_SIGN, None
            v = z_signs(1 << qubit, self.n) * self.pure
        grades = self._channel(1.0 - p, b, out, xq, 1 << qubit)
        return self._event(1.0 - p, [(p, v)], grades, self.pure, self.pullback)

    # -- channels ----------------------------------------------------------
    def apply_faulty_rotation(
        self,
        axis: PauliProduct,
        profile: RotationErrorProfile,
        output_qubits: frozenset[int] = frozenset(),
        sign: int = 1,
    ) -> GradedDensityMatrix:
        mask = _z_mask(axis, self.n, sign)
        signs = z_signs(mask, self.n)
        theta = sign * np.pi / 8
        errors = [(profile.p_half, np.pi / 2), (profile.p_quarter, np.pi / 4),
                  (profile.p_mquarter, -np.pi / 4)]
        keep = 1.0 - profile.p_half - profile.p_quarter - profile.p_mquarter
        ideal = _phase_table(theta)
        errs = sum(p * _phase_table(extra) for p, extra in errors)
        grades = self._channel(keep * ideal, ideal * errs, self._out(),
                               mask=mask)
        d = rotation_phases(mask, self.n, theta)
        pure = d * self.pure
        born = [(p, np.exp(-1j * extra * signs) * pure) for p, extra in errors]
        state = self._event(keep, born, grades, pure, d.conj() * self.pullback)
        p = profile.p_z_output
        if p:
            for q in sorted(set(axis.support) & set(output_qubits)):
                state = state._flip("Z", q, p, state.grades)
        return state

    def apply_storage(
        self, qubit: int, rates: StorageRates, cycles: float
    ) -> GradedDensityMatrix:
        if qubit >= self.n:
            raise ValueError("qubit index out of range")
        px, pz = cycles * rates.pX, cycles * rates.pZ
        if px >= 1.0 or pz >= 1.0:
            raise ValueError("accumulated storage probability reaches 1")
        state, out = self, self._out()
        if px:
            state = state._flip("X", qubit, px, out)
        if pz:
            state = state._flip("Z", qubit, pz, out)
        return state

    def project_plus(
        self, check_qubits: frozenset[int]
    ) -> tuple[GradedDensityMatrix, float]:
        checks = tuple(sorted(check_qubits))
        if not checks:
            raise ValueError("check set is empty")
        before = self.trace_total()
        pure = _vec_project_checks(self.pure, checks, self.n)
        grades = _mat_project_checks(self.grades, checks, self.n, self._out())
        p_success = GradedDensityMatrix(self.n, pure, grades).trace_total()
        if p_success <= 1e-300:
            raise ValueError("success probability is numerically zero")
        scale = 1.0 / p_success
        grades *= scale
        # projection is linear: project the rows, keep their weights
        weights, rows = self.grade1_branches()
        births = tuple(zip(weights, _vec_project_checks(rows, checks, self.n)))
        state = self._successor(np.sqrt(scale) * pure, grades, births, 1.0,
                                scale)
        return state, 1.0 - p_success / before

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

    def infidelity_floor(self) -> float:
        """Round-off floor of :meth:`infidelity_with_pure`.

        eps^2 times the mass of the zero-error branch and grade 1 (read as
        squared deviation norms) plus eps times the mass of grades 2 and
        above (read as differences), over the trace.
        """
        eps = np.finfo(float).eps
        low = float(np.vdot(self.pure, self.pure).real)
        low += float(np.trace(self.grades[0]).real)
        high = sum(float(np.trace(g).real) for g in self.grades[1:])
        return (eps**2 * low + eps * high) / self.trace_total()


def pure_state_infidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """1 - |<psi|phi/|phi|>|^2 via the deviation vector (cancellation-free)."""
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    nphi = float(np.vdot(phi, phi).real)
    residual = phi - (psi.conj() @ phi) * psi
    return float(np.vdot(residual, residual).real) / nphi
