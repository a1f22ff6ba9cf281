"""Graded density-matrix engine for noisy Pauli-rotation circuits.

:class:`GradedDensityMatrix` splits the state by exact error count: the
zero-error branch is kept as a pure statevector and each grade k holds the
exactly-k-error mass.  Grade 1 is also kept as a store of pure branches,
one per single error event.  Output infidelities far below float epsilon
of the trace (1e-15 and smaller) are read as squared norms of deviation
vectors, without catastrophic cancellation.  Restricted to Z-type axes
(all catalog circuits are Z-type).

A state owns its grades, one ``(kmax, dim, dim)`` stack, and its
channels' scratch, in one allocation.  Every channel updates the state in
place, the stack in cache-sized blocks, and returns it, so ``rho =
rho.apply_...(...)`` reads as a step; a caller that wants an earlier state
too copies it first.  A projection returns a new state of the kept qubits,
with its own stack and scratch, and leaves the old one's branch store
empty.

The stack is held divided by ``scale``, as the branch store is: grade k
is ``scale * H_k`` for the stored ``H_k``, and ``scale`` is 1/p_success
of the last projection times the keep factors (1 minus the channel's
error probability) of every channel since, so no channel spends a pass
on its keep term.  A rotation or an X flip is one elementwise kernel on
the stored grades, ``out_k = A o H_k + B o P(H_{k-1})`` with
``H_0 = pure pure^dagger / scale``.  P permutes for an X flip, whose A is
1 and B its odds p/(1 - p): an X flip is one scaled permuted read and one
add.  A rotation scales ``rho_ij`` by a value set by the class
``c_ij = 1 + (s_i - s_j)/2`` of its axis's Z signs s, so A and B are
3-entry tables looked up by c: its ideal phase D and error branches W give
``A = D`` and ``B = D W / keep`` (at keep = 0 the scale restarts at 1,
with ``A = 0`` and ``B = scale D W``).  A Z flip scales ``rho_ij`` by
``(1 - p) + p s(i ^ j)``, so Z flips commute with each other, with X
flips and with rotations, and :meth:`apply_z_flips` applies a whole list
of them in one pass, from tables over ``i ^ j``.  Real factors
(probabilities, +-1 signs) and permutations are exact in any order, so X
flips, and a lone Z flip, give bit-identical stored grades from one
engine version to the next; a pass of several Z flips multiplies their
probabilities, so regrouping them moves grades in the last bits.
Products of complex phases are not exact either: NumPy's SIMD loops round
``a * b`` and ``b * a`` differently in the last bit, so rotations move in
the last bits when their operand order changes.

The branch store keeps each grade-1 branch as it was born, pulled back
through the ideal operations applied since: flips and error channels only
scale grade 1, and every ideal operation is diagonal.  A stored ``(w, row)``
is read as weight ``scale * w`` and vector ``conj(pullback) * row``; only a
projection and the readout materialize the rows.

Usage::

    from msdsim.density import GradedDensityMatrix, RotationErrorProfile
    from msdsim.pauli import PauliProduct

    rho = GradedDensityMatrix.init_plus(5)
    prof = RotationErrorProfile(1e-4, 0.0, 0.0, 0.0)
    rho = rho.apply_faulty_rotation(PauliProduct("ZIIII"), prof)
    rho = rho.apply_x_flip(1, 1e-4).apply_z_flips([(0, 1e-4), (1, 2e-4)])
    rho, p_fail = rho.project_plus(frozenset({1, 2, 3, 4}))  # rho.n == 1
    rho = rho.apply_absorbed_flips([1e-4])  # an X flip that waited on a check
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import MAX_QUBITS, PauliProduct, rotation_phases, z_mask, z_signs

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
    output qubit in the rotation's support, which the caller applies with
    ``GradedDensityMatrix.apply_z_flips``.
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


def _vec_xflip(vec: np.ndarray, qubit: int) -> np.ndarray:
    """X on one qubit of (a stack of) statevectors: index bit ``qubit``
    flipped."""
    t = vec.reshape(vec.shape[:-1] + (-1, 2, 1 << qubit))
    return t[..., ::-1, :].reshape(vec.shape)


def _stack_xflip(stack: np.ndarray, qubit: int) -> np.ndarray:
    """View of X rho X for every matrix of a (..., dim, dim) stack."""
    dim = stack.shape[-1]
    hi, lo = dim >> (qubit + 1), 1 << qubit
    t = stack.reshape(stack.shape[:-2] + (hi, 2, lo, hi, 2, lo))
    return t[..., ::-1, :, :, ::-1, :]


def _sum_checks(t: np.ndarray, checks: tuple[int, ...], n: int,
                sides: int = 1) -> np.ndarray:
    """Sums over the check qubits' bits of the last ``sides`` axes, each of
    length 2**n: 2**(len(checks)/2) times what <+| on every check leaves of
    a statevector or of rows (sides 1), or of a matrix stack (sides 2), on
    the other qubits in order."""
    lead = t.shape[:t.ndim - sides]
    axes = tuple(len(lead) + side * n + n - 1 - q
                 for side in range(sides) for q in checks)
    t = t.reshape(lead + (2,) * (sides * n)).sum(axis=axes)
    return t.reshape(lead + (1 << (n - len(checks)),) * sides)


def _rejected(psi: np.ndarray, checks: tuple[int, ...], n: int) -> float:
    """The squared norm of what <+| on the check qubits rejects of the
    statevector psi: psi less its mean over the check bits.  A sum, where
    |psi|^2 less the kept norm would cancel."""
    t = psi.reshape((2,) * n)
    t = t - t.mean(axis=tuple(n - 1 - q for q in checks), keepdims=True)
    return float(np.vdot(t, t).real)


# s_i - s_j for the entries of each class c_ij under Z signs s
_CLASS_STEP = np.array([-2.0, 0.0, 2.0])


@lru_cache(maxsize=None)
def _z_classes(mask: int, n: int) -> np.ndarray:
    """c_ij = 1 + (s_i - s_j)/2 of every entry; memoized, read-only int8."""
    s = z_signs(mask, n)
    c = (1.0 + (s[:, None] - s[None, :]) / 2).astype(np.int8)
    c.flags.writeable = False
    return c


@lru_cache(maxsize=None)
def _xor_index(n: int) -> np.ndarray:
    """i ^ j of every entry (i, j); memoized, read-only, in the smallest
    unsigned type that holds it."""
    i = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    x = i[:, None] ^ i[None, :]
    x.flags.writeable = False
    return x


def _z_flip_tables(counts: Counter, n: int, kmax: int) -> np.ndarray:
    """(depth + 1, 2**n) complex, depth <= kmax: at x, the coefficients of
    t^0..t^depth of prod_(mask, p) ((1 - p) + p s(x) t)^m over the m flips
    of each (mask, p) in ``counts``, with s(x) the sign of Z_mask at basis
    index x.

    Complex, since a real operand makes NumPy's complex loops cast in
    buffers.
    """
    depth = min(kmax, sum(counts.values()))
    table = np.zeros((depth + 1, 1 << n), dtype=np.complex128)
    table[0] = 1.0
    for (mask, p), m in counts.items():
        s = z_signs(mask, n)
        grown = np.zeros_like(table)
        for j in range(min(m, depth) + 1):
            c = math.comb(m, j) * (1.0 - p)**(m - j) * p**j
            grown[j:] += (c * s if j % 2 else c) * table[:depth + 1 - j]
        table = grown
    return table


def _flip_p(p: float, qubit: int | None = None, n: int = 0) -> float:
    """A flip's probability as a float, once it and its qubit, if it has
    one, are valid."""
    if qubit is not None and not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range")
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"flip probability {p} outside [0, 1)")
    return p


@lru_cache(maxsize=None)
def _phase_table(theta: float) -> np.ndarray:
    """By class: exp(-i theta (s_i - s_j)), the factor of d rho d^dagger.

    Memoized and read-only.
    """
    table = np.exp(-1j * theta * _CLASS_STEP)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _diagonal(mask: int, n: int, theta: float) -> np.ndarray:
    """``rotation_phases(mask, n, theta)``, memoized and read-only."""
    d = rotation_phases(mask, n, theta)
    d.flags.writeable = False
    return d


def _per_block(kmax: int, dim: int) -> int:
    """Grades in one block: at most _BLOCK_BYTES of them, or one grade."""
    return min(kmax, max(1, _BLOCK_BYTES // (16 * dim * dim)))


@lru_cache(maxsize=None)
def _blocks(kmax: int, dim: int):
    """How a channel walks the stack, as precomputed slices, top block first.

    A block of grades [lo, hi) is (src, term, below, block, lo): the grades
    it reads, its terms within the scratch, those that P(g_{k-1}) fills,
    and the grades it writes.
    """
    per = _per_block(kmax, dim)
    return [(slice(max(lo - 1, 0), hi - 1), slice(0, hi - lo),
             slice(1 if lo == 0 else 0, hi - lo), slice(lo, hi), lo)
            for lo, hi in ((lo, min(lo + per, kmax))
                           for lo in reversed(range(0, kmax, per)))]


def _scratch(kmax: int, dim: int) -> int:
    """Matrices of scratch a channel takes: A, B and a block of terms, and
    at least the kmax + 2 rows of a Z-flip pass (see ``apply_z_flips``)."""
    return max(2 + _per_block(kmax, dim), -(-(kmax + 2) // dim))


# ---------------------------------------------------------------------------
# graded engine
# ---------------------------------------------------------------------------

class GradedDensityMatrix:
    """State split by exact error count, with a pure zero-error branch.

    ``pure`` is the subnormalized statevector of the no-error branch;
    ``scale * grades[k - 1]`` (k = 1..kmax) is the subnormalized density
    matrix of the exactly-k-error mass: the stack is stored divided by
    ``scale``, like the branch store (see the module docstring).  Branches
    with more than ``kmax`` errors are dropped.  ``1 - trace_total()``
    does not measure them: it is round-off (between -1.6e-15 and 1.3e-14
    on the paper's tables).  Nothing bounds their share yet (ROADMAP.md,
    item 3).

    ``births`` holds grade 1 once more, as ``(weight, row)`` pairs, one per
    single error event, to be read through ``pullback`` (the conjugated
    ideal diagonals) and ``scale`` (see the module docstring).
    """

    def __init__(self, pure: np.ndarray, kmax: int):
        """The error-free state ``pure`` with kmax empty grades, which it
        holds with its channels' scratch in one allocation."""
        dim = len(pure)
        self.n = dim.bit_length() - 1
        self.pure = pure
        stack = np.zeros((kmax + _scratch(kmax, dim), dim, dim),
                         dtype=np.complex128)
        self.grades, self._work = stack[:kmax], stack[kmax:]
        self.births, self.pullback, self.scale = (), 1.0, 1.0

    @property
    def kmax(self) -> int:
        return len(self.grades)

    @classmethod
    def init_plus(cls, n: int,
                  kmax: int = DEFAULT_MAX_GRADE) -> GradedDensityMatrix:
        """|+>^n."""
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")
        if kmax < 1:
            raise ValueError(f"kmax must be at least 1, got {kmax}")
        dim = 1 << n
        return cls(np.full(dim, dim ** -0.5, dtype=np.complex128), kmax)

    def grade1_branches(self, births=None) -> tuple[np.ndarray, np.ndarray]:
        """(w, b) with grades[0] = sum_i w_i b_i b_i^dagger; b is (m, dim).

        ``births`` reads only those of the store's branches.
        """
        births = self.births if births is None else births
        weights = self.scale * np.array([w for w, _ in births], dtype=float)
        rows = np.array([r for _, r in births], dtype=np.complex128)
        rows = rows.reshape(-1, len(self.pure))
        np.multiply(np.conj(self.pullback), rows, out=rows)
        return weights, rows

    def trace_total(self) -> float:
        t = float(np.vdot(self.pure, self.pure).real)
        for g in self.grades:
            t += float(self.scale * np.trace(g).real)
        return t

    # -- internal channel machinery ---------------------------------------
    def _table(self, x, out: np.ndarray, mask: int):
        """x if a scalar, else the matrix that the classes of Z_mask make of
        the 3-entry table x, held in ``out``."""
        if not isinstance(x, np.ndarray):
            return x
        return x.take(_z_classes(mask, self.n), out=out, mode="clip")

    def _channel(self, a, b, v, qubit=None, mask=0) -> None:
        """Update the stored grades by a one-event channel:
        H_k <- A o H_k + B o P(H_{k-1}), with H_0 = pure pure^dagger / scale.

        P is X rho X on ``qubit``, or the identity for None, and v is
        P pure.  a and b are scalars or 3-entry tables, which the classes
        of Z_mask turn into A and B; an A of 1 takes no multiply.  Blocks
        run from the top grade down, each reading the grades below it
        before it overwrites itself.
        """
        grades, dim, work = self.grades, len(self.pure), self._work
        a = self._table(a, work[0], mask)
        b = self._table(b, work[1], mask)
        identity = not isinstance(a, np.ndarray) and a == 1.0
        table = isinstance(b, np.ndarray)
        lead = v * ((1.0 if table else b) / self.scale)
        terms = work[2:]
        for src, term, below, block, lo in _blocks(self.kmax, dim):
            term = terms[term]
            below = term[below]
            src = grades[src]
            if qubit is not None:
                src = _stack_xflip(src, qubit)
                below = below.reshape(src.shape)
            np.multiply(src, b, out=below)
            if lo == 0:
                np.multiply(lead[:, None], v.conj(), out=term[:1])
                if table:
                    term[0] *= b
            block = grades[block]
            if not identity:
                block *= a
            block += term

    def _event(self, keep: float, branches: list, pure: np.ndarray,
               pullback) -> GradedDensityMatrix:
        """This state, once its grades hold one event of probability
        1 - keep.

        Each branch (prob, v) turns ``pure`` into v and joins the store.  At
        keep = 0 every earlier branch is gone: the store and its scale
        restart.
        """
        scale, births = self.scale * keep, self.births
        if keep == 0.0:
            scale, births = 1.0, ()
        births += tuple([(p / scale, pullback * v) for p, v in branches if p])
        self.pure, self.births = math.sqrt(keep) * pure, births
        self.pullback, self.scale = pullback, scale
        return self

    # -- channels ----------------------------------------------------------
    def apply_faulty_rotation(
        self,
        axis: PauliProduct,
        profile: RotationErrorProfile,
        sign: int = 1,
    ) -> GradedDensityMatrix:
        """The pi/8 rotation on ``axis`` with its substitution errors.

        The profile's output Z flips are the caller's to apply, with
        :meth:`apply_z_flips`: they commute with every later Z-type
        operation, so a schedule applies them all in one pass.
        """
        if sign not in (1, -1):
            raise ValueError(f"rotation sign must be +1 or -1, got {sign}")
        mask = z_mask(axis, self.n)
        theta = sign * np.pi / 8
        errors = [(profile.p_half, np.pi / 2), (profile.p_quarter, np.pi / 4),
                  (profile.p_mquarter, -np.pi / 4)]
        keep = 1.0 - profile.p_half - profile.p_quarter - profile.p_mquarter
        ideal = _phase_table(theta)
        errs = ideal * sum(p * _phase_table(extra) for p, extra in errors)
        # stored grades: keep divides out, or restarts the scale at 1
        a, b = (ideal, errs / keep) if keep else (0.0, self.scale * errs)
        self._channel(a, b, self.pure, mask=mask)
        d = _diagonal(mask, self.n, theta)
        pure = d * self.pure
        born = [(p, _diagonal(mask, self.n, extra) * pure)
                for p, extra in errors]
        return self._event(keep, born, pure, d.conj() * self.pullback)

    def apply_x_flip(self, qubit: int, p: float) -> GradedDensityMatrix:
        """(1 - p) rho + p X rho X on ``qubit``."""
        p = _flip_p(p, qubit, self.n)
        if not p:
            return self
        v = _vec_xflip(self.pure, qubit)
        keep = 1.0 - p
        self._channel(1.0, p / keep, v, qubit)
        return self._event(keep, [(p, v)], self.pure, self.pullback)

    def apply_z_flips(self, flips) -> GradedDensityMatrix:
        """Every Z flip of ``flips``, (qubit, p) pairs, in one pass.

        A flip is (1 - p) rho + p Z rho Z, which scales rho_ij by
        ``(1 - p) + p s(i ^ j)`` for the sign s of Z on its qubit, so the
        flips commute and together give
        ``out_k = K g_k + sum_{j=1..k} E_j o g_{k-j}``, with K = prod(1 - p)
        and E_j the degree-j coefficient of prod_e((1 - p_e) + p_e s_e t),
        a table over i ^ j (:func:`_z_flip_tables`).  The scale takes K,
        so the stored grades take ``H_k + sum_j (E_j / K) o H_{k-j}``.
        Each flipped qubit adds one branch to the store, Z_q pure, weighted
        by K times the summed odds p/(1 - p) of its flips.
        """
        return self._flips([(_flip_p(p, q, self.n), 1 << q) for q, p in flips])

    def apply_absorbed_flips(self, probs) -> GradedDensityMatrix:
        """X flips on checks that a projection measured: each is the
        identity's flip, (1 - p) rho + p rho with p of it a grade up, so
        all take one pass of :meth:`apply_z_flips`'s, with signs of 1."""
        return self._flips([(_flip_p(p), 0) for p in probs])

    def _flips(self, flips) -> GradedDensityMatrix:
        """(p, mask) flips of Z_mask in one pass (:meth:`apply_z_flips`)."""
        n, dim, kmax = self.n, len(self.pure), self.kmax
        counts = Counter((mask, p) for p, mask in flips if p)
        if not counts:
            return self
        table = _z_flip_tables(counts, n, kmax)
        keep, depth = table[0, 0].real, len(table) - 1
        table = table[1:] / keep
        # the E_j of a slab of rows, its g_0 and a term fill the scratch
        work = self._work.reshape(-1, dim)
        rows = min(dim, len(work) // (depth + 2))
        grades, xor = self.grades, _xor_index(n)
        lead, conj = self.pure / self.scale, self.pure.conj()
        for r in (slice(lo, lo + rows) for lo in range(0, dim, rows)):
            h = len(xor[r])
            e = work[:depth * h].reshape(depth, h, dim)
            for j in range(depth):
                np.take(table[j], xor[r], out=e[j], mode="clip")
            g0 = work[depth * h:(depth + 1) * h]
            np.multiply(lead[r, None], conj, out=g0)
            term = work[(depth + 1) * h:(depth + 2) * h]
            # from the top grade down: each reads only grades below it
            for k in range(kmax, 0, -1):
                block = grades[k - 1, r]
                for j in range(1, min(k, depth) + 1):
                    below = grades[k - j - 1, r] if k > j else g0
                    block += np.multiply(e[j - 1], below, out=term)
        odds = Counter()
        for (mask, p), m in counts.items():
            odds[mask] += m * p / (1.0 - p)
        born = [(keep * o, z_signs(mask, n) * self.pure)
                for mask, o in odds.items()]
        return self._event(keep, born, self.pure, self.pullback)

    def project_plus(
        self, check_qubits: frozenset[int]
    ) -> tuple[GradedDensityMatrix, float]:
        """The checks' |+> outcome, and its failure probability.

        The outcome is the state of the other qubits, numbered in order:
        each side of each branch is summed over the check bits, which is
        <+| on the checks times 2**(c/2) for c checks, and the factor
        2**-c of a density matrix joins the scale.  The outcome is a new
        state; this one gives its branch store up to it.
        """
        checks = tuple(sorted(check_qubits))
        if not checks:
            raise ValueError("check set is empty")
        before, unit = self.trace_total(), 0.5 ** len(checks)
        state = GradedDensityMatrix(_sum_checks(self.pure, checks, self.n),
                                    self.kmax)
        grades, state.scale = state.grades, self.scale
        grades[...] = _sum_checks(self.grades, checks, self.n, 2)
        p_success = unit * state.trace_total()
        if p_success <= 1e-300:
            raise ValueError("success probability is numerically zero")
        # the rejected mass, summed rather than read as 1 - p_success/before
        # (which cancels): the pure branch's, and each grade's trace less
        # what the outcome keeps of it
        rejected = _rejected(self.pure, checks, self.n) + float(self.scale * (
            np.trace(self.grades, axis1=1, axis2=2).real
            - unit * np.trace(grades, axis1=1, axis2=2).real).sum())
        # the projected grades, stored over the new scale 1/p_success
        grades *= unit * self.scale
        state.scale = 1.0 / p_success
        state.pure = math.sqrt(unit * state.scale) * state.pure
        # projection is linear: sum the rows, and their weights take 2**-c;
        # a chunk of rows at a time, whose temporaries take about four
        # times its bytes, and this state lets go of each chunk's old rows
        births, old = [], list(self.births)
        self.births = ()
        per = max(1, _BLOCK_BYTES // (4 * self.pure.nbytes))
        while old:
            chunk, old[:per] = old[:per], []
            weights, rows = self.grade1_branches(chunk)
            births += zip((unit * weights).tolist(),
                          _sum_checks(rows, checks, self.n))
        state.births = tuple(births)
        return state, rejected / before

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
            dev += float(self.scale * (np.trace(g).real
                                       - np.real(psi.conj() @ g @ psi)))
        return dev / self.trace_total()


def pure_state_infidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """1 - |<psi|phi/|phi|>|^2 via the deviation vector (cancellation-free)."""
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    nphi = float(np.vdot(phi, phi).real)
    residual = phi - (psi.conj() @ phi) * psi
    return float(np.vdot(residual, residual).real) / nphi
