"""Graded density-matrix engine for noisy Pauli-rotation circuits.

:class:`GradedDensityMatrix` splits the state by exact error count: grade
k of one dense stack holds the exactly-k-error mass, grade 0 the
zero-error branch.  That branch is also kept as a pure statevector, and
grade 1 as a store of pure branches, one per single error event: output
infidelities far below float epsilon of the trace (1e-15 and smaller) are
read from them as squared norms of deviation vectors, without
catastrophic cancellation.  Restricted to Z-type axes (all catalog
circuits are Z-type).

The dense grade stack holds only the live qubits, those that a channel
other than an X flip has acted on; ``pure`` and the branch store keep all
``n``.  A qubit that none has touched is |+> in every grade, so the full
matrix's entries do not depend on its bits: it enters the stack, at its
index position, when one first acts on it, as copies of the entries
already stored, and an entry leaves every later grade and output
byte-identical.  :meth:`GradedDensityMatrix.release` takes a qubit
out of the stack for good once only flips will act on it: the stack
becomes a pair, its trace over the qubit and its fidelity with the
qubit's ideal single-qubit state, with the qubit's remaining flips folded
in; every later channel updates both.

A state holds its stacks and its channels' scratch in one allocation,
sized for the full-width stack: live-qubit stacks, and the pair, fit in
it.  Every channel updates the state in place, the stack in cache-sized
blocks, and returns it, so ``rho = rho.apply_...(...)`` reads as a step;
a caller that wants an earlier state too copies it first.  A projection
returns a new state of the kept qubits, with its own allocation, and
leaves the old one's branch store empty.

The stack is held divided by ``scale``, as the branch store is: grade k
is ``scale * H_k`` for the stored ``H_k``, and ``scale`` is 1/p_success
of the last projection times the keep factors (1 minus the channel's
error probability) of every channel since, so no channel spends a pass
on its keep term.  A rotation or an X flip is one elementwise kernel on
the stored grades, ``out_k = A o H_k + B o P(H_{k-1})`` for k >= 1, then
``out_0 = A o H_0``.  P permutes for an X flip, whose A is
1 and B its odds p/(1 - p): an X flip is one gather of the grades below
through a memoized flat index, one scale and one add.  On a qubit outside
the stack X is the identity, so there the flip is a grade shift (P the
identity) and the qubit stays out.  A rotation scales ``rho_ij`` by a
value set by the class ``c_ij = 1 + (s_i - s_j)/2`` of its axis's Z signs
s, so A and B are 3-entry tables looked up by c, memoized per profile and
angle: its ideal phase D and error branches W give ``A = D`` and
``B = D W / keep``.  A Z flip scales ``rho_ij`` by
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
    from msdsim.pauli import PauliProduct, Rotation, RotationAngle

    rho = GradedDensityMatrix.init_plus(5)
    prof = RotationErrorProfile(1e-4, 0.0, 0.0, 0.0)
    rotation = Rotation(PauliProduct("ZIIII"), RotationAngle(-1))
    rho = rho.apply_faulty_rotation(rotation, prof)
    rho = rho.apply_x_flip(1, 1e-4).apply_z_flips([(0, 1e-4), (1, 2e-4)])
    rho = rho.release(0, [2**-0.5, 0.5 - 0.5j], [("Z", 1e-4)])
    rho, p_fail = rho.project_plus(frozenset({1, 2, 3, 4}))  # rho.n == 1
    rho = rho.apply_absorbed_flips([1e-4])  # an X flip that waited on a check
    p_out = rho.infidelity_with_pure([2**-0.5, 0.5 - 0.5j])
"""
from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import MAX_QUBITS, Rotation, rotation_phases, z_mask, z_signs

DEFAULT_MAX_GRADE = 6

# Graded channels walk the grade stack in blocks of at most this many bytes
# (one grade at n=7, all six at n=5): passes over the whole 1.5 MB stack at
# n=7 fall out of a core's cache and are slower.
_BLOCK_BYTES = 256 * 1024


# the extra angles of a rotation's substitution errors, P_{pi/2}, P_{pi/4}
# and P_{-pi/4}, in units of pi/8
SUBSTITUTIONS = (4, 2, -2)


@dataclass(frozen=True)
class RotationErrorProfile:
    """Error probabilities of one faulty pi/8 rotation.

    p_half / p_quarter / p_mquarter are the probabilities of an extra
    P_{pi/2} / P_{pi/4} / P_{-pi/4} rotation on the rotation's axis;
    p_z_output is the probability of an extra Pauli Z on each designated
    output qubit in the rotation's support, which the caller applies with
    ``GradedDensityMatrix.apply_z_flips``.

    ``branches`` pairs each substitution probability with its extra angle
    in units of pi/8 (``SUBSTITUTIONS``), and ``p_error`` is their sum.
    The substitutions must leave a keep probability above 0.
    """

    p_half: float
    p_quarter: float
    p_mquarter: float
    p_z_output: float = 0.0
    branches: tuple[tuple[float, int], ...] = field(
        init=False, repr=False, compare=False)
    p_error: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("p_half", "p_quarter", "p_mquarter", "p_z_output"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name}={v} outside [0, 1)")
        # the engine's keep, in its order
        if 1.0 - self.p_half - self.p_quarter - self.p_mquarter <= 0.0:
            raise ValueError("substitution probabilities leave no keep "
                             "probability")
        probs = (self.p_half, self.p_quarter, self.p_mquarter)
        object.__setattr__(self, "branches", tuple(zip(probs, SUBSTITUTIONS)))
        object.__setattr__(self, "p_error", sum(probs))


# ---------------------------------------------------------------------------
# array helpers (little-endian: basis-index bit i is qubit i, so once a
# length-2**n axis is reshaped to (2,)*n, qubit i is axis -1 - i)
# ---------------------------------------------------------------------------


def _vec_xflip(vec: np.ndarray, qubit: int) -> np.ndarray:
    """X on one qubit of (a stack of) statevectors: index bit ``qubit``
    flipped."""
    t = vec.reshape(vec.shape[:-1] + (-1, 2, 1 << qubit))
    return t[..., ::-1, :].reshape(vec.shape)


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


@lru_cache(maxsize=None)
def _xflip_index(qubit: int, d: int) -> np.ndarray:
    """Where X rho X reads each entry of a d x d matrix, as flat indices:
    entry k = i d + j reads entry k ^ ((1 << qubit) (d + 1)), row and
    column bit ``qubit`` flipped; memoized, read-only, in the smallest
    unsigned type that holds it, as :func:`_xor_index` is."""
    k = np.arange(d * d, dtype=np.min_scalar_type(d * d - 1))
    x = k ^ k.dtype.type((1 << qubit) * (d + 1))
    x.flags.writeable = False
    return x


def _z_flip_tables(counts: Counter, n: int, kmax: int
                   ) -> tuple[float, np.ndarray]:
    """(K, E / K) of the m flips of each (mask, p) in ``counts``: E_j is at
    x the coefficient of t^j of prod_(mask, p) ((1 - p) + p s(x) t)^m, with
    s(x) the sign of Z_mask at basis index x, and E / K is E_1..E_depth,
    depth <= kmax, over the keep K = E_0 = prod (1 - p)^m, which must not
    underflow to 0.  Complex, since a real operand makes NumPy's complex
    loops cast in buffers."""
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
    keep = table[0, 0].real
    if keep == 0.0:
        raise ValueError("the flips' keep is numerically zero")
    return keep, table[1:] / keep


def check_kmax(kmax: int) -> None:
    """Reject a top grade below 1, on every path of a run."""
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")


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


@lru_cache(maxsize=None)
def _rotation_tables(profile: RotationErrorProfile, k: int):
    """(keep, ideal, odds) of a k pi/8 rotation by class: its keep
    probability, its ideal phase D and its summed error branches D W over
    keep.  Memoized and read-only."""
    keep = 1.0 - profile.p_half - profile.p_quarter - profile.p_mquarter
    ideal = _phase_table(k * np.pi / 8)
    odds = ideal * sum(p * _phase_table(extra * np.pi / 8)
                       for p, extra in profile.branches) / keep
    odds.flags.writeable = False
    return keep, ideal, odds


def _per_block(kmax: int, entries: int) -> int:
    """Grades in one block of grades of ``entries`` entries each: at most
    _BLOCK_BYTES of them, or one grade."""
    return min(kmax, max(1, _BLOCK_BYTES // (16 * entries)))


@lru_cache(maxsize=None)
def _blocks(kmax: int, entries: int):
    """How a channel walks grades 1..kmax of a stack of grades of
    ``entries`` entries each: the grades per block, and each block as
    precomputed slices, top block first.

    A block of grades [lo, hi) is (src, term, block): the grades below it
    that it reads, its terms within the scratch, and the grades it writes.
    """
    per = _per_block(kmax, entries)
    return per, [(slice(lo - 1, hi - 1), slice(0, hi - lo), slice(lo, hi))
                 for lo, hi in ((lo, min(lo + per, kmax + 1))
                                for lo in reversed(range(1, kmax + 1, per)))]


def _scratch(kmax: int, dim: int) -> int:
    """Matrices of scratch a channel takes at full width: A, B and a block
    of terms, and at least kmax + 2 rows, more than a Z-flip pass takes
    (see ``apply_z_flips``).  A narrower stack, or a pair of stacks half
    as wide, takes no more."""
    return max(2 + _per_block(kmax, dim * dim), -(-(kmax + 2) // dim))


@lru_cache(maxsize=None)
def _compress(mask: int, live: tuple[int, ...]) -> int:
    """A bitmask of live qubits as bits of their positions in ``live``."""
    return sum(1 << i for i, q in enumerate(live) if mask >> q & 1)


# ---------------------------------------------------------------------------
# graded engine
# ---------------------------------------------------------------------------

# the views and tables that a state's layout sets from the rest of it
_LAYOUT = ("_stacks", "_work", "_walk", "_tables", "_terms", "_live_bits",
           "_released_bits", "_spread")


class GradedDensityMatrix:
    """State split by exact error count, grade 0 the zero-error branch.

    ``scale * _stacks[k]`` (k = 0..kmax) is the subnormalized density
    matrix of the exactly-k-error mass on the ``live`` qubits, the qubits
    that a channel other than an X flip has acted on: every other qubit
    is still |+> in every grade, and the stack holds the full matrix's
    entries, which do not depend on those qubits' bits (see the module
    docstring).  ``grades`` is grades 1..kmax.  The stack is stored divided
    by ``scale``, like the branch store.  Branches with more than ``kmax``
    errors are dropped.
    ``1 - trace_total()`` does not measure them: it is round-off (between
    -1.6e-15 and 1.3e-14 on the paper's tables).  Nothing bounds their
    share yet (ROADMAP.md, item 3).

    ``pure`` holds grade 0 once more, as the subnormalized statevector of
    the no-error branch on all ``n`` qubits, and ``births`` grade 1, as
    ``(weight, row)`` pairs, one per single error event, to be read
    through ``pullback`` (the conjugated ideal diagonals) and ``scale``
    (see the module docstring).  The readout reads grades 0 and 1 from
    them, and a projection's rejected mass grade 0.
    """

    def __init__(self, pure: np.ndarray, kmax: int,
                 live: tuple[int, ...] = (), released: dict | None = None,
                 stacks: int = 1):
        """The error-free state ``pure`` with kmax + 1 empty grades,
        ``stacks`` stacks of them on the ``live`` qubits (see
        :meth:`_layout`), in one allocation that holds them at full width
        with their channels' scratch; the caller fills grade 0."""
        dim = len(pure)
        self.n = dim.bit_length() - 1
        self.pure = pure
        self._buffer = np.zeros((kmax + 1 + _scratch(kmax, dim)) * dim * dim,
                                dtype=np.complex128)
        self._kmax = kmax
        self._layout(live, {} if released is None else released, stacks)
        self.births, self.pullback, self.scale = (), 1.0, 1.0

    def _layout(self, live: tuple[int, ...], released: dict,
                stacks: int) -> None:
        """Hold ``stacks`` stacks on the ``live`` qubits, after the
        ``released`` ones left with their factors: the
        (kmax + 1, stacks, d, d) view ``_stacks`` at the start of the
        allocation, d = 2**len(live), and the scratch after the
        full-width stack."""
        self.live, self.released = live, released
        d, grades = 1 << len(live), self._kmax + 1
        self._stacks = self._buffer[:grades * stacks * d * d].reshape(
            grades, stacks, d, d)
        work = self._work = self._buffer[grades * len(self.pure)**2:]
        # a channel's A and B tables, its walk and its block of terms
        per, self._walk = _blocks(self._kmax, stacks * d * d)
        self._tables = (work[:d * d].reshape(d, d),
                        work[d * d:2 * d * d].reshape(d, d))
        self._terms = work[2 * d * d:(2 + per * stacks) * d * d].reshape(
            per, stacks, d, d)
        self._live_bits = sum(1 << q for q in live)
        self._released_bits = sum(1 << q for q in released)
        # each entry of the stack stands for 2**m diagonal entries of the
        # full matrix, for the m qubits outside it
        self._spread = 1 << (self.n - len(live) - len(released))

    def __deepcopy__(self, memo) -> GradedDensityMatrix:
        """A copy with an allocation of its own, and its views into it."""
        state = object.__new__(type(self))
        state.__dict__.update(copy.deepcopy(
            {k: v for k, v in vars(self).items() if k not in _LAYOUT}, memo))
        state._layout(state.live, state.released, self._stacks.shape[1])
        return state

    @property
    def kmax(self) -> int:
        return self._kmax

    @property
    def grades(self) -> np.ndarray:
        """The (kmax, d, d) stack of grades 1..kmax on the live qubits; after
        a release, their trace over the released qubits."""
        return self._stacks[1:, 0]

    @classmethod
    def init_plus(cls, n: int,
                  kmax: int = DEFAULT_MAX_GRADE) -> GradedDensityMatrix:
        """|+>^n, with no qubit live yet: grade 0 is one entry, 2**-n."""
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")
        check_kmax(kmax)
        dim = 1 << n
        pure = np.full(dim, dim ** -0.5, dtype=np.complex128)
        state = cls(pure, kmax)
        state._stacks[0] = pure[0] * pure[0].conj()
        return state

    def grade1_branches(self, births=None) -> tuple[np.ndarray, np.ndarray]:
        """(w, b) with grade 1 = sum_i w_i b_i b_i^dagger; b is (m, 2**n).

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
        traces = np.trace(self.grades, axis1=1, axis2=2).real
        for g in (self.scale * traces).tolist():
            t += g * self._spread
        return t

    # -- the live qubits --------------------------------------------------
    def _enter(self, mask: int) -> None:
        """Widen the stack to hold the qubits of ``mask`` too, each at its
        index position among the live qubits.

        A qubit outside the stack is |+> in every grade, so its entries
        are copies: the matrices are broadcast over the new qubits' bits in
        place, from the top down, each chunk of them landing above every
        matrix not yet moved, and the lowest through the scratch.
        """
        new = mask & ~self._live_bits
        if not new:
            return
        if new & self._released_bits:
            q = (new & self._released_bits).bit_length() - 1
            raise ValueError(f"qubit {q} was released")
        live = tuple(q for q in range(self.n)
                     if (self._live_bits | new) >> q & 1)
        shape = tuple(1 if new >> q & 1 else 2 for q in reversed(live)) * 2
        wide = (2,) * (2 * len(live))
        s, d = self._stacks.shape[1:3]
        d2 = 1 << len(live)
        buf, hi = self._buffer, (self._kmax + 1) * s
        while hi:
            # matrices [lo, hi) land at or above lo * d2**2 >= hi * d**2
            lo = max(1, -(-hi * d * d // (d2 * d2))) if hi > 1 else 0
            src = buf[lo * d * d:hi * d * d]
            if not lo:
                src = self._work[:d * d]
                src[...] = buf[:d * d]
            np.copyto(buf[lo * d2 * d2:hi * d2 * d2].reshape((-1,) + wide),
                      src.reshape((-1,) + shape))
            hi = lo
        self._layout(live, self.released, s)

    def _live(self, mask: int) -> int:
        """A full-width bitmask, its qubits entered, on the live qubits."""
        if len(self.live) == self.n:
            return mask
        self._enter(mask)
        return _compress(mask, self.live)

    # -- internal channel machinery ---------------------------------------
    def _table(self, x, out: np.ndarray, mask: int):
        """x if a scalar, else the matrix that the classes of Z_mask make of
        the 3-entry table x, held in ``out``; mask is on the live qubits."""
        if not isinstance(x, np.ndarray):
            return x
        return x.take(_z_classes(mask, len(self.live)), out=out, mode="clip")

    def _channel(self, a, b, mask: int, flip: bool = False) -> None:
        """Update the stored grades by a one-event channel on the qubits of
        the full-width ``mask``, which enter first:
        H_k <- A o H_k + B o P(H_{k-1}) for k >= 1, then H_0 <- A o H_0.

        P is X rho X on the one qubit of ``mask`` for ``flip``, one gather
        through :func:`_xflip_index` into the terms, else the identity.  a
        and b are scalars or 3-entry tables, which the classes of Z_mask
        turn into A and B; an A of 1 takes no multiply.  Blocks run from
        the top grade down, each reading the grades below it before it
        overwrites itself.
        """
        mask = self._live(mask)
        stacks, terms = self._stacks, self._terms
        a = self._table(a, self._tables[0], mask)
        b = self._table(b, self._tables[1], mask)
        identity = not isinstance(a, np.ndarray) and a == 1.0
        if flip:
            # a flip's a and b are scalars, so its index takes the tables'
            # scratch, cast once to intp (which np.take would allocate and
            # fill on every call)
            d = stacks.shape[-1]
            index = self._tables[0].reshape(-1).view(np.intp)[:d * d]
            index[...] = _xflip_index(mask.bit_length() - 1, d)
        for src, term, block in self._walk:
            term = terms[term]
            src = stacks[src]
            if flip:
                flat = term.reshape(term.shape[:2] + (-1,))
                np.take(src.reshape(flat.shape), index, axis=-1, out=flat,
                        mode="clip")
                src = term
            np.multiply(src, b, out=term)
            block = stacks[block]
            if not identity:
                block *= a
            block += term
        if not identity:
            stacks[0] *= a

    def _event(self, keep: float, branches: list, pure: np.ndarray,
               pullback) -> GradedDensityMatrix:
        """This state, once its grades hold one event of probability
        1 - keep.

        Each branch (prob, v) turns ``pure`` into v and joins the store.
        """
        self.scale = scale = self.scale * keep
        self.births += tuple([(p / scale, pullback * v)
                              for p, v in branches if p])
        self.pure, self.pullback = math.sqrt(keep) * pure, pullback
        return self

    # -- channels ----------------------------------------------------------
    def apply_faulty_rotation(self, rotation: Rotation,
                              profile: RotationErrorProfile
                              ) -> GradedDensityMatrix:
        """The Z-type ``rotation`` with the substitution errors of
        ``profile``.

        The profile's output Z flips are the caller's to apply, with
        :meth:`apply_z_flips`: they commute with every later Z-type
        operation, so a schedule applies them all in one pass.
        """
        mask = z_mask(rotation.axis, self.n)
        keep, ideal, odds = _rotation_tables(profile, rotation.angle.k)
        # stored grades: keep divides out
        self._channel(ideal, odds, mask)
        d = _diagonal(mask, self.n, rotation.angle.radians)
        pure = d * self.pure
        born = [(p, _diagonal(mask, self.n, extra * np.pi / 8) * pure)
                for p, extra in profile.branches]
        return self._event(keep, born, pure, d.conj() * self.pullback)

    def apply_x_flip(self, qubit: int, p: float) -> GradedDensityMatrix:
        """(1 - p) rho + p X rho X on ``qubit``."""
        p = _flip_p(p, qubit, self.n)
        if not p:
            return self
        v = _vec_xflip(self.pure, qubit)
        keep = 1.0 - p
        # a qubit outside the stack is |+> in every grade, where X is the
        # identity: the flip is a grade shift, and the qubit stays out (a
        # released one is not outside, and raises)
        if (self._live_bits | self._released_bits) >> qubit & 1:
            self._channel(1.0, p / keep, 1 << qubit, flip=True)
        else:
            self._channel(1.0, p / keep, 0)
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
        kmax = self.kmax
        counts = Counter((mask, p) for p, mask in flips if p)
        if not counts:
            return self
        odds, union = Counter(), 0
        for (mask, p), m in counts.items():
            odds[mask] += m * p / (1.0 - p)
            union |= mask
        if len(self.live) < self.n:
            self._enter(union)
            counts = {(_compress(mask, self.live), p): m
                      for (mask, p), m in counts.items()}
        n = len(self.live)
        keep, table = _z_flip_tables(counts, n, kmax)
        depth = len(table)
        # the E_j of a slab of rows and a term fill the scratch
        stacks, work, xor = self._stacks, self._work, _xor_index(n)
        s, d = stacks.shape[1:3]
        rows = min(d, len(work) // ((depth + s) * d))
        for r in (slice(lo, lo + rows) for lo in range(0, d, rows)):
            h = len(xor[r])
            # with the stacks' axis, which NumPy then need not broadcast
            e = work[:depth * h * d].reshape(depth, 1, h, d)
            for j in range(depth):
                np.take(table[j], xor[r], out=e[j, 0], mode="clip")
            term = work[depth * h * d:(depth + s) * h * d].reshape(s, h, d)
            # from the top grade down: each reads only grades below it
            for k in range(kmax, 0, -1):
                block = stacks[k, :, r]
                for j in range(1, min(k, depth) + 1):
                    block += np.multiply(e[j - 1], stacks[k - j, :, r],
                                         out=term)
        born = [(keep * o, z_signs(mask, self.n) * self.pure)
                for mask, o in odds.items()]
        return self._event(keep, born, self.pure, self.pullback)

    def release(self, qubit: int, factor,
                flips=()) -> GradedDensityMatrix:
        """Contract ``qubit`` out of the stack, once only X and Z flips act
        on it any more.

        The stack becomes a pair of stacks on the other live qubits: its
        trace over the qubit, which :meth:`trace_total` and
        :meth:`project_plus` read, and its fidelity with the single-qubit
        state ``factor``, which :meth:`infidelity_with_pure` reads.  Every
        later channel updates both; ``pure`` and the branch store keep the
        qubit.

        ``flips`` are the (letter, p) X and Z flips on the qubit that have
        not run.  They commute with every channel left and fold into the
        contraction as one Pauli channel, which takes each Pauli component
        of the qubit's blocks H_ab, c_I = H00 + H11, c_Z = H00 - H11,
        c_X = H01 + H10 and c_Y = H01 - H10, times its own grade polynomial
        (:func:`_z_flip_tables` on two bits).  The trace is c_I; the
        fidelity is (c_I + r_Z c_Z + r_X c_X + i r_Y c_Y)/2 for the factor's
        Bloch vector r, or (c_I + r_Z c_Z + G + G^dagger)/2, with G the
        folded (r_X + i r_Y) H01, since every grade is Hermitian.
        """
        if not 0 <= qubit < self.n:
            raise ValueError(f"qubit index {qubit} out of range")
        if qubit in self.released:
            raise ValueError(f"qubit {qubit} was released")
        factor = np.asarray(factor, dtype=np.complex128).reshape(-1)
        if factor.shape != (2,) or abs(np.vdot(factor, factor).real
                                       - 1.0) > 1e-9:
            raise ValueError("factor is not a normalized one-qubit state")
        flips = [(letter, _flip_p(p)) for letter, p in flips]
        if any(letter not in ("X", "Z") for letter, _ in flips):
            raise ValueError(f"flips {flips} are not all X or Z")
        # the Pauli components (I, Z, X, Y) are the sign patterns 0..3 of
        # two bits that an X flip (bit 0) and a Z flip (bit 1) each flip
        keep, lam = _z_flip_tables(Counter(({"X": 1, "Z": 2}[letter], p)
                                            for letter, p in flips if p),
                                   2, self._kmax)
        lo = self._live(1 << qubit)
        work, buf = self._work, self._buffer
        grades = self._kmax + 1
        s, d = self._stacks.shape[1:3]
        hi, h = d // (2 * lo), d // 2
        r_z = float(abs(factor[0])**2 - abs(factor[1])**2)
        mu0 = 2.0 * np.conj(factor[0]) * factor[1]  # r_X + i r_Y
        parts = 3 if r_z else 2
        # every matrix, in place: its quarters take c_I, H01 and, for a
        # factor off the equator, c_Z; as many matrices at a time as the
        # scratch holds
        per = max(1, min(s * grades, len(work) // (d * d)))
        for g in range(0, s * grades, per):
            chunk = buf[g * d * d:min(g + per, s * grades) * d * d]
            t = work[:len(chunk)].reshape(-1, hi, 2, lo, hi, 2, lo)
            t.reshape(-1)[...] = chunk
            out = chunk.reshape(-1, 4, hi, lo, hi, lo)
            np.add(t[:, :, 0, :, :, 0], t[:, :, 1, :, :, 1], out=out[:, 0])
            np.copyto(out[:, 1], t[:, :, 0, :, :, 1])
            if r_z:
                np.subtract(t[:, :, 0, :, :, 0], t[:, :, 1, :, :, 1],
                            out=out[:, 2])
        # the fold, from the top grade down: each reads grades below it
        # before it takes its own term; H01 takes r_X lam_X + i r_Y lam_Y
        coef = np.stack([lam[:, 0], mu0.real * lam[:, 2]
                         + 1j * mu0.imag * lam[:, 3], lam[:, 1]], axis=1)
        coef = coef[:, :parts]
        c = buf[:grades * s * d * d].reshape(grades, s, 4, h * h)
        term = work[:s * parts * h * h].reshape(s, parts, h * h)
        for k in reversed(range(grades)):
            c[k, :, 1] *= mu0
            for j in range(1, min(k, len(coef)) + 1):
                c[k, :, :parts] += np.multiply(coef[j - 1, :, None],
                                               c[k - j, :, :parts], out=term)
        # the fidelity, from the last stack, beside the trace in the first
        f, fid = c[:, -1], c[:, 0, 3]
        np.conj(f[:, 1].reshape(grades, h, h).swapaxes(1, 2),
                out=fid.reshape(grades, h, h))
        fid += f[:, 1]
        fid += f[:, 0]
        if r_z:
            f[:, 2] *= r_z
            fid += f[:, 2]
        fid *= 0.5
        # the pairs down to the start of the allocation: grades [a, b)
        # land below grade a's old place, at 2 a h**2 <= a s d**2
        c[0, 0, 1] = fid[0]
        a = 1
        while a < grades:
            b = min(grades, 2 * s * a)
            pairs = buf[2 * a * h * h:2 * b * h * h].reshape(b - a, 2, -1)
            np.copyto(pairs[:, 0], c[a:b, 0, 0])
            np.copyto(pairs[:, 1], c[a:b, 0, 3])
            a = b
        self._layout(tuple(q for q in self.live if q != qubit),
                     {**self.released, qubit: factor}, 2)
        odds = Counter()
        for letter, p in flips:
            odds[letter] += p / (1.0 - p)
        v = {"X": _vec_xflip(self.pure, qubit),
             "Z": z_signs(1 << qubit, self.n) * self.pure}
        return self._event(keep, [(keep * o, v[letter])
                                  for letter, o in odds.items()],
                           self.pure, self.pullback)

    def project_plus(
        self, check_qubits: frozenset[int]
    ) -> tuple[GradedDensityMatrix, float]:
        """The checks' |+> outcome, and its failure probability.

        The outcome is the state of the other qubits, numbered in order:
        each side of each branch is summed over the check bits, which is
        <+| on the checks times 2**(c/2) for c checks, and the factor
        2**-c of a density matrix joins the scale.  The checks enter the
        stack first.  The outcome is a new state; this one gives its branch
        store up to it.
        """
        checks = tuple(sorted(check_qubits))
        if not checks:
            raise ValueError("check set is empty")
        if not 0 <= checks[0] <= checks[-1] < self.n:
            raise ValueError(f"check qubits {checks} out of range")
        self._live(sum(1 << q for q in checks))
        before, unit = self.trace_total(), 0.5 ** len(checks)
        kept = [q for q in range(self.n) if q not in checks]
        state = GradedDensityMatrix(
            _sum_checks(self.pure, checks, self.n), self.kmax,
            tuple(kept.index(q) for q in self.live if q in kept),
            {kept.index(q): f for q, f in self.released.items()},
            self._stacks.shape[1])
        stacks, state.scale = state._stacks, self.scale
        stacks[...] = _sum_checks(self._stacks, tuple(
            self.live.index(q) for q in checks), len(self.live), 2)
        grades = state.grades
        p_success = unit * state.trace_total()
        if p_success <= 1e-300:
            raise ValueError("success probability is numerically zero")
        # the rejected mass, summed rather than read as 1 - p_success/before
        # (which cancels): the pure branch's, and each grade's trace less
        # what the outcome keeps of it
        rejected = _rejected(self.pure, checks, self.n) + float(self.scale * (
            np.trace(self.grades, axis1=1, axis2=2).real
            - unit * np.trace(grades, axis1=1, axis2=2).real).sum()
        ) * self._spread
        # the projected grades, stored over the new scale 1/p_success
        stacks *= unit * self.scale
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

    def _reference(self, psi: np.ndarray) -> np.ndarray:
        """psi as the fidelity stack reads it: contracted with the released
        factors, of which it must be the product with a state of the other
        qubits, and summed over the bits of the qubits outside the
        stack."""
        t = psi.reshape((2,) * self.n)
        # the lowest qubit first: the higher ones keep their axes
        for q in sorted(self.released):
            axis = self.n - 1 - q
            f = self.released[q].conj().reshape((2,) + (1,) * (t.ndim - 1
                                                                - axis))
            t = (t * f).sum(axis=axis)
        others = [q for q in range(self.n) if q not in self.released]
        chi = t.reshape(-1)
        if abs(np.vdot(chi, chi).real - 1.0) > 1e-9:
            raise ValueError(
                "reference state does not factor over the released qubits")
        return _sum_checks(chi, tuple(i for i, q in enumerate(others)
                                      if q not in self.live), len(others))

    def infidelity_with_pure(self, psi: np.ndarray) -> float:
        """1 - <psi|rho|psi>, accumulated branch-wise to avoid cancellation.

        The zero-error branch and each grade-1 branch contribute the squared
        norm of their deviation from psi (exactly zero for a branch
        proportional to psi), so their error is about eps^2 of their mass.
        Grade k >= 2 contributes tr(rho_k) - <psi|rho_k|psi>, a difference of
        already-small numbers with an error of about eps of its mass; psi
        is summed over the bits of the qubits outside the stack, whose
        entries the stack holds once.
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
        chi = self._reference(psi)
        stacks = self._stacks
        for t, f in zip(stacks[2:, 0], stacks[2:, -1]):
            dev += float(self.scale * (np.trace(t).real * self._spread
                                       - np.real(chi.conj() @ f @ chi)))
        return dev / self.trace_total()


def pure_state_infidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """1 - |<psi|phi/|phi|>|^2 via the deviation vector (cancellation-free)."""
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    nphi = float(np.vdot(phi, phi).real)
    residual = phi - (psi.conj() @ phi) * psi
    return float(np.vdot(residual, residual).real) / nphi
