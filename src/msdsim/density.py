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
cache-sized blocks.

A batch of C candidates (``init_plus(n, kmax, candidates=C)``) runs one
channel sequence with its own probabilities per candidate: the stack
becomes ``(C, kmax, dim, dim)``, ``pure`` ``(C, dim)``, each channel takes
one profile per candidate, and each readout returns one value per
candidate.  Every candidate's arithmetic is elementwise the arithmetic of
a single state, and each is read out on its own in the same order, so a
batch gives every candidate the bits it gets alone (a batch of one is a
single state).  One batch pays a channel's per-call overhead once; at
n = 5 that overhead is a large part of a schedule run.  ``window_size``
caps a batch at ``_WINDOW_BYTES`` of grade stack.

Each channel is one elementwise kernel,
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

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, mul, truediv

import numpy as np

from .pauli import MAX_QUBITS, PauliProduct, rotation_phases, z_signs

DEFAULT_MAX_GRADE = 6

# Graded channels walk the grade stack in blocks of at most this many bytes
# (one grade at n=7, all six of two candidates at n=5): passes over the
# whole 1.5 MB stack at n=7 fall out of a core's cache and are slower.
_BLOCK_BYTES = 256 * 1024

# A batch (see ``window_size``) holds at most this many bytes of grade stack:
# ten candidates at n = 5 and kmax = 6, one at n = 7.
_WINDOW_BYTES = 1024 * 1024


def window_size(n: int, kmax: int) -> int:
    """Candidates of n qubits and kmax grades that one batch may hold."""
    return max(1, _WINDOW_BYTES // (kmax * 16 * 4**n))


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


@lru_cache(maxsize=None)
def _blocks(candidates: int, kmax: int, dim: int):
    """How a channel walks C candidates' stacks, as precomputed indices.

    A block holds grades [lo, hi) of a group of candidates and at most
    _BLOCK_BYTES, or one grade of one candidate: the whole stacks of two
    candidates at n = 5, kmax = 6 (a batch's whole stack in one block ran
    1.1x slower), one grade at n = 7.  Returns (groups, group, per,
    outer): each group is (index, count, blocks), index selecting its
    count candidates (None for all of them) and each block (src, term,
    below, block, lo) holding indices into their stacks and terms, top
    grade first; a group holds at most ``group`` candidates and a block
    ``per`` grades; outer indexes v v^dagger of the zero-error rows.
    """
    grade_bytes = 16 * dim * dim
    per = max(1, _BLOCK_BYTES // grade_bytes)
    if per >= kmax:
        group, per = max(1, _BLOCK_BYTES // (kmax * grade_bytes)), kmax
    else:
        group = 1
    group = min(group, candidates)
    every = (slice(None),) if candidates > 1 else ()  # the candidate axis
    blocks = [(every + (slice(max(lo - 1, 0), hi - 1),),
               every + (slice(0, hi - lo),),
               every + (slice(1 if lo == 0 else 0, hi - lo),),
               every + (slice(lo, hi),), lo)
              for lo, hi in ((lo, min(lo + per, kmax))
                             for lo in reversed(range(0, kmax, per)))]
    groups = [(None if group == candidates else (slice(c, c + group),),
               min(group, candidates - c), blocks)
              for c in range(0, candidates, group)]
    outer = (every + (None,) * len(every) + (slice(None), None),
             every + (None,) * len(every) + (None, slice(None)))
    return groups, group, per, outer


def _scratch(candidates: int, kmax: int, dim: int) -> int:
    """Matrices of scratch a channel on these stacks takes: A, B and the
    terms of one group of candidates."""
    _, group, per, _ = _blocks(candidates, kmax, dim)
    return group * (2 + per)


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

_PROFILE = attrgetter("p_half", "p_quarter", "p_mquarter", "p_z_output")
_RATES = attrgetter("pX", "pZ")


class GradedDensityMatrix:
    """State split by exact error count, with a pure zero-error branch.

    ``pure`` is the subnormalized statevector of the no-error branch;
    ``grades[k - 1]`` (k = 1..kmax) is the subnormalized density matrix of
    the exactly-k-error mass.  Branches with more than ``kmax`` errors are
    dropped; their total probability is bounded by ``1 - trace_total()``
    and is negligible for the error rates in scope.

    ``births`` holds grade 1 once more, as ``(weights, row)`` pairs, one per
    single error event, to be read through ``pullback`` (the conjugated
    ideal diagonals) and ``scale`` (see the module docstring).  Weights and
    scale are tuples with one float per candidate.

    A batch of C candidates (``init_plus(n, kmax, candidates=C)``) puts a
    leading candidate axis on ``pure`` (C, dim), ``grades``
    (C, kmax, dim, dim) and every branch row; the ideal diagonals, and so
    ``pullback``, are shared.  A single state has no such axis, and its
    tuples hold one float.
    """

    # an owned state's channels write its grade stack in place, and use
    # one scratch (``_owned``)
    _in_place = False
    _work = None

    def __init__(self, n: int, pure: np.ndarray, grades: np.ndarray,
                 births: tuple = (), pullback=1.0, scale: tuple = (1.0,)):
        self.n = n
        self.pure = pure
        self.grades = grades
        self.births = births
        self.pullback = pullback
        self.scale = scale

    @property
    def kmax(self) -> int:
        return self.grades.shape[-3]

    @classmethod
    def init_plus(cls, n: int, kmax: int = DEFAULT_MAX_GRADE,
                  candidates: int = 1,
                  stack: np.ndarray | None = None) -> GradedDensityMatrix:
        """|+>^n, or a batch of ``candidates`` copies of it.

        A batch of one has no candidate axis: it is a single state, since
        a length-1 axis would only put NumPy on its slower broadcasting
        paths.  ``stack``, from :meth:`workspace` for at least as many
        candidates, holds the grades (zeroed here) and the channels'
        scratch of an owned state, so that successive runs reuse one
        allocation.
        """
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")
        if kmax < 1:
            raise ValueError(f"kmax must be at least 1, got {kmax}")
        if candidates < 1:
            raise ValueError(f"a batch needs a candidate, got {candidates}")
        dim = 1 << n
        lead = (candidates,) if candidates > 1 else ()
        pure = np.full(lead + (dim,), dim ** -0.5, dtype=np.complex128)
        shape = lead + (kmax, dim, dim)
        if stack is None:
            return cls(n, pure, np.zeros(shape, dtype=np.complex128),
                       scale=(1.0,) * candidates)
        need = candidates * kmax + _scratch(candidates, kmax, dim)
        if stack.shape[1:] != (dim, dim) or len(stack) < need:
            raise ValueError(f"stack of shape {stack.shape} cannot hold "
                             f"grades of shape {shape} and their scratch")
        grades = stack[:candidates * kmax].reshape(shape)
        grades.fill(0.0)
        state = cls(n, pure, grades, scale=(1.0,) * candidates)
        state._work = stack[candidates * kmax:need].reshape(-1)
        return state

    @staticmethod
    def workspace(n: int, kmax: int, candidates: int = 1) -> np.ndarray:
        """A stack for :meth:`init_plus`: the grades of a batch of up to
        ``candidates`` and its channels' scratch, in one allocation."""
        dim = 1 << n
        need = candidates * kmax + _scratch(candidates, kmax, dim)
        return np.empty((need, dim, dim), dtype=np.complex128)

    def _owned(self) -> GradedDensityMatrix:
        """This state, whose channels from now on write its stack in place.

        For a caller that keeps no earlier state, such as a schedule run:
        the run allocates one stack and one channel scratch instead of one
        of each per channel, and each state it returns shares them, so the
        next channel changes them.
        """
        self._in_place = True
        if self._work is None:
            dim = self.grades.shape[-1]
            self._work = np.empty(
                _scratch(len(self.scale), self.kmax, dim) * dim * dim,
                dtype=np.complex128)
        return self

    def _out(self) -> np.ndarray:
        """The stack a channel writes: this one if owned, else a new one."""
        return self.grades if self._in_place else np.empty_like(self.grades)

    def _each(self, value):
        """value(i, c) of each candidate i, whose arrays c indexes: a float
        for a single state, else an array."""
        if self.pure.ndim == 1:
            return value(0, ())
        return np.array([value(i, (i,)) for i in range(len(self.pure))])

    def _columns(self, rows: list) -> list:
        """Rows of per-candidate values as columns, shaped (..., 1).

        A batch of several gets complex arrays, since a real operand makes
        NumPy's complex loops cast in buffers; one candidate gets plain
        floats, which NumPy broadcasts the same way at less cost.
        """
        if len(self.scale) == 1:
            return [row[0] for row in rows]
        return list(np.array(rows, np.complex128)[..., None])

    def _values(self, items, get) -> list[tuple]:
        """Fields of ``items`` (one object, or a sequence of one per
        candidate), read by the attrgetter ``get``: per field, a tuple of
        one float per candidate."""
        if not isinstance(items, (list, tuple)):
            items = [items]
        if len(items) != len(self.scale):
            raise ValueError(f"{len(items)} values for {len(self.scale)} "
                             f"candidates")
        return list(zip(*map(get, items)))

    def grade1_branches(self, births=None) -> tuple[np.ndarray, np.ndarray]:
        """(w, b) with grades[0] = sum_i w_i b_i b_i^dagger; b is (m, dim).

        In a batch, w is (m, C) and b (m, C, dim); a branch born to some
        candidates has weight 0 in the others.  ``births`` reads only those
        of the store's branches.
        """
        births = self.births if births is None else births
        weights = np.array([w for w, _ in births], dtype=float)
        weights = np.array(self.scale) * weights.reshape(-1, len(self.scale))
        rows = np.array([r for _, r in births], dtype=np.complex128)
        rows = rows.reshape((-1,) + self.pure.shape)
        np.multiply(np.conj(self.pullback), rows, out=rows)
        return weights.reshape((-1,) + self.pure.shape[:-1]), rows

    def _branches(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """grade1_branches of candidate i alone, without the branches born
        to other candidates (weight 0)."""
        c = (i,) if self.pure.ndim > 1 else ()
        scale = self.scale[i]
        own = [(scale * w[i], r[c]) for w, r in self.births if w[i] != 0.0]
        rows = np.array([r for _, r in own], dtype=np.complex128)
        rows = rows.reshape(-1, self.pure.shape[-1])
        np.multiply(np.conj(self.pullback), rows, out=rows)
        return np.array([w for w, _ in own], dtype=float), rows

    def _trace(self, c: tuple) -> float:
        t = float(np.vdot(self.pure[c], self.pure[c]).real)
        for g in self.grades[c]:
            t += float(np.trace(g).real)
        return t

    def trace_total(self):
        """The trace: a float, or one per candidate of a batch."""
        return self._each(lambda _, c: self._trace(c))

    # -- internal channel machinery ---------------------------------------
    def _factor(self, x, out: np.ndarray | None, mask: int):
        """x shaped to scale blocks of grades.

        x is a column of one scalar per candidate, or one 3-entry table per
        candidate, which the classes of Z_mask turn into a matrix held in
        ``out``, a flat scratch of at least that many matrices.
        """
        if not isinstance(x, np.ndarray):
            return x
        if x.shape[-1] == 1:
            return x[:, :, None, None]
        dim = self.grades.shape[-1]
        out = out[:x.size // 3 * dim * dim].reshape(x.shape[:-1] + (dim, dim))
        table = x.take(_z_classes(mask, self.n), axis=-1, out=out,
                       mode="clip")
        return table[:, None] if x.ndim > 1 else table

    def _channel(self, a, b, out, v, qubit=None, mask=0) -> np.ndarray:
        """Grades of a one-event channel: out_k = A o g_k + B o P(g_{k-1}).

        P is X rho X on ``qubit``, or the identity for None, and v is
        P pure (for g_0 = pure pure^dagger).  a and b are scalars or 3-entry
        tables, one per candidate, which the classes of Z_mask turn into A
        and B.  ``out`` is a fresh stack or, if the caller created it,
        ``self.grades``: blocks run from the top grade down, each reading
        the grades below it before it overwrites itself.
        """
        grades, batch = self.grades, self.pure.ndim > 1
        dim = grades.shape[-1]
        size = dim * dim
        groups, group, per, (row, col) = _blocks(len(self.scale), self.kmax,
                                                 dim)
        # one scratch for A, B and a block of terms, the run's own if owned:
        # freeing several of this size per call makes malloc return and
        # refault pages
        work = (self._work if self._in_place
                else np.empty(group * (2 + per) * size, grades.dtype))
        table_a, table_b = work[:group * size], work[group * size:]
        terms_all = work[2 * group * size:(2 + per) * group * size].reshape(
            (group, per, dim, dim) if batch else (per, dim, dim))
        for c, count, blocks in groups:
            g, o, w, fa, fb = grades, out, v, a, b
            if c is not None:  # a group of a batch's candidates
                g, o, w, fa, fb = g[c], o[c], w[c], fa[c], fb[c]
            fa = self._factor(fa, table_a, mask)
            fb = self._factor(fb, table_b, mask)
            terms = terms_all[:count] if batch else terms_all
            for src, term, below, block, lo in blocks:
                term = terms[term]
                below = term[below]
                src = g[src]
                factor = fb
                if qubit is not None:
                    src = _stack_xflip(src, qubit)
                    below = below.reshape(src.shape)
                    if batch:
                        # an X flip's factor is one scalar per candidate
                        factor = factor.reshape(src.shape[:1] + (1,) * 7)
                np.multiply(src, factor, out=below)
                if lo == 0:
                    first = term[..., :1, :, :]
                    np.multiply(w[row], w.conj()[col], out=first)
                    first *= fb
                block = np.multiply(g[block], fa, out=o[block])
                block += term
        return out

    def _event(self, keep: tuple, branches: list, grades: np.ndarray,
               pure: np.ndarray, pullback, root: np.ndarray):
        """The state with new grades after one event of probability 1 - keep.

        Each branch (probs, v) turns ``pure`` into v and joins the store;
        root is the column of sqrt(keep).  At keep = 0 every earlier branch
        of that candidate is gone: its weights drop to 0 and its scale
        restarts.
        """
        scale = tuple(map(mul, self.scale, keep))
        births = self.births
        if 0.0 in keep:
            gone = [k == 0.0 for k in keep]
            scale = tuple(1.0 if g else s for g, s in zip(gone, scale))
            births = tuple((w, row) for w, row in (
                (tuple(0.0 if g else x for g, x in zip(gone, w)), row)
                for w, row in births) if any(w))
        births += tuple([(tuple(map(truediv, p, scale)), pullback * v)
                         for p, v in branches if any(p)])
        return self._successor(root * pure, grades, births, pullback, scale)

    def _successor(self, pure, grades, births, pullback,
                   scale) -> GradedDensityMatrix:
        """A new state with these fields, owned if this one is."""
        state = GradedDensityMatrix(self.n, pure, grades, births, pullback,
                                    scale)
        if self._in_place:
            state._in_place, state._work = True, self._work
        return state

    def _flip(self, letter: str, qubit: int, p: tuple,
              out: np.ndarray) -> GradedDensityMatrix:
        """(1 - p) rho + p P rho P for P = X or Z on ``qubit``."""
        keep = [1.0 - x for x in p]
        a, b, root = self._columns([keep, p, list(map(math.sqrt, keep))])
        if letter == "X":
            v, xq = _vec_xflip(self.pure, qubit), qubit
            moved = v
        else:
            b, xq = b * _CLASS_SIGN, None
            v, moved = z_signs(1 << qubit, self.n) * self.pure, self.pure
        grades = self._channel(a, b, out, moved, xq, 1 << qubit)
        return self._event(keep, [(p, v)], grades, self.pure, self.pullback,
                           root)

    # -- channels ----------------------------------------------------------
    def apply_faulty_rotation(
        self,
        axis: PauliProduct,
        profile,
        output_qubits: frozenset[int] = frozenset(),
        sign: int = 1,
    ) -> GradedDensityMatrix:
        """The rotation with one RotationErrorProfile, or one per candidate."""
        mask = _z_mask(axis, self.n, sign)
        theta = sign * np.pi / 8
        p_half, p_quarter, p_mquarter, p_z = self._values(profile, _PROFILE)
        keep = [1.0 - a - b - c
                for a, b, c in zip(p_half, p_quarter, p_mquarter)]
        errors = [(p_half, np.pi / 2), (p_quarter, np.pi / 4),
                  (p_mquarter, -np.pi / 4)]
        *columns, kept, root = self._columns(
            [p for p, _ in errors] + [keep, list(map(math.sqrt, keep))])
        ideal = _phase_table(theta)
        errs = sum(column * _phase_table(extra)
                   for column, (_, extra) in zip(columns, errors))
        grades = self._channel(kept * ideal, ideal * errs, self._out(),
                               self.pure, mask=mask)
        d = _diagonal(mask, self.n, theta)
        pure = d * self.pure
        born = [(p, _diagonal(mask, self.n, extra) * pure)
                for p, extra in errors]
        state = self._event(keep, born, grades, pure,
                            d.conj() * self.pullback, root)
        if any(p_z):
            for q in sorted(set(axis.support) & set(output_qubits)):
                state = state._flip("Z", q, p_z, state.grades)
        return state

    def apply_storage(self, qubit: int, rates, cycles) -> GradedDensityMatrix:
        """Storage with one StorageRates, or one per candidate; ``cycles``
        is one number or, in a batch, one per candidate."""
        if qubit >= self.n:
            raise ValueError("qubit index out of range")
        rate_x, rate_z = self._values(rates, _RATES)
        if np.ndim(cycles) == 0:
            cycles = (cycles,) * len(rate_x)
        px = tuple(map(mul, cycles, rate_x))
        pz = tuple(map(mul, cycles, rate_z))
        if max(px) >= 1.0 or max(pz) >= 1.0:
            raise ValueError("accumulated storage probability reaches 1")
        state, out = self, self._out()
        if any(px):
            state = state._flip("X", qubit, px, out)
        if any(pz):
            state = state._flip("Z", qubit, pz, out)
        return state

    def project_plus(self, check_qubits: frozenset[int]):
        """The checks' |+> outcome, and its failure probability (one per
        candidate of a batch)."""
        checks = tuple(sorted(check_qubits))
        if not checks:
            raise ValueError("check set is empty")
        before = self.trace_total()
        pure = _vec_project_checks(self.pure, checks, self.n)
        grades, dim = self._out(), self.pure.shape[-1]
        # a block at a time, as the channels go, for small temporaries
        groups, *_ = _blocks(len(self.scale), self.kmax, dim)
        for c, _, blocks in groups:
            g, o = (self.grades, grades) if c is None else (self.grades[c],
                                                            grades[c])
            for *_, block, _ in blocks:
                _mat_project_checks(g[block], checks, self.n, o[block])
        p_success = GradedDensityMatrix(self.n, pure, grades).trace_total()
        if np.any(p_success <= 1e-300):
            raise ValueError("success probability is numerically zero")
        scale = tuple(1.0 / p for p in np.atleast_1d(p_success).tolist())
        column, root = self._columns([scale, list(map(math.sqrt, scale))])
        grades *= self._factor(column, None, 0)
        # projection is linear: project the rows, keep their weights; a
        # chunk of rows at a time, whose temporaries take about four times
        # its bytes, and an owned state, which is not read again, lets go
        # of each chunk's old rows (projecting a window's rows all at once
        # raised a level-1 sweep's peak memory by a further 1.6 MB)
        births, old = [], list(self.births)
        if self._in_place:
            self.births = ()
        per = max(1, _BLOCK_BYTES // (4 * self.pure.nbytes))
        while old:
            chunk, old[:per] = old[:per], []
            weights, rows = self.grade1_branches(chunk)
            weights = weights.reshape(len(weights), -1).tolist()
            births += zip(map(tuple, weights),
                          _vec_project_checks(rows, checks, self.n))
        state = self._successor(root * pure, grades, tuple(births), 1.0,
                                scale)
        return state, 1.0 - p_success / before

    def infidelity_with_pure(self, psi: np.ndarray):
        """1 - <psi|rho|psi>, accumulated branch-wise to avoid cancellation.

        The zero-error branch and each grade-1 branch contribute the squared
        norm of their deviation from psi (exactly zero for a branch
        proportional to psi), so their error is about eps^2 of their mass.
        Grade k >= 2 contributes tr(rho_k) - <psi|rho_k|psi>, a difference of
        already-small numbers with an error of about eps of its mass.  A
        batch reads each candidate on its own, in this order, so that its
        value is the one a batch of one gives.
        """
        psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if psi.shape[0] != 1 << self.n:
            raise ValueError("dimension mismatch")
        norm = float(np.vdot(psi, psi).real)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("reference state is not normalized")

        def infidelity(i: int, c: tuple) -> float:
            residual = self.pure[c] - (psi.conj() @ self.pure[c]) * psi
            dev = float(np.vdot(residual, residual).real)
            # only the candidate's own branches, so its sum has their terms
            weights, rows = self._branches(i)
            rows -= np.outer(rows @ psi.conj(), psi)
            dev += float(weights @ (rows.real**2 + rows.imag**2).sum(1))
            for g in self.grades[c][1:]:
                dev += float(np.trace(g).real - np.real(psi.conj() @ g @ psi))
            return dev / self._trace(c)

        return self._each(infidelity)

    def infidelity_floor(self):
        """Round-off floor of :meth:`infidelity_with_pure`.

        eps^2 times the mass of the zero-error branch and grade 1 (read as
        squared deviation norms) plus eps times the mass of grades 2 and
        above (read as differences), over the trace.
        """
        eps = np.finfo(float).eps

        def floor(_, c: tuple) -> float:
            grades = self.grades[c]
            low = float(np.vdot(self.pure[c], self.pure[c]).real)
            low += float(np.trace(grades[0]).real)
            high = sum(float(np.trace(g).real) for g in grades[1:])
            return (eps**2 * low + eps * high) / self._trace(c)

        return self._each(floor)


def pure_state_infidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """1 - |<psi|phi/|phi|>|^2 via the deviation vector (cancellation-free)."""
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    nphi = float(np.vdot(phi, phi).real)
    residual = phi - (psi.conj() @ phi) * psi
    return float(np.vdot(residual, residual).real) / nphi
