"""Catalog of distillation circuits, their algebraic checks, and noisy runs.

The catalog holds six Z-type rotation sequences: the 16-rotation identity,
the 15-to-1 circuit, the 20-to-4 circuit, the 15-rotation 4-qubit identity,
the 8-to-CCZ circuit, and the 7-rotation CCZ decomposition.  All angles are
+-pi/8.  Qubit order inside each axis string: letter i is qubit i; check and
output qubit indices are 0-based.

Also here: exact equivalence checks of Z-type circuits as phase
polynomials, an exact check of a circuit's noiseless output in
Z[e^{i pi/8}], brute-force undetected-error-set counting, the three
circuit-level noise models (``NoiseSpec``; ``factory.simulate_circuit``
runs a circuit under one), and an exact check of each branch of the four
lattice-surgery gadgets (state consumption, faulty T measurement,
delayed-choice rotation, and the auto-corrected rotation) on the
branch's linear map.

Usage::

    from msdsim.circuits import catalog, verify_equivalence
    c = catalog("identity16")
    assert verify_equivalence(c, [])
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .density import SUBSTITUTIONS, _sum_checks
from .pauli import (
    PauliProduct,
    Rotation,
    RotationAngle,
    equal_up_to_phase,
    matrix_of,
    parity_lookup,
    phase_exponents,
    rotation_phases,
    z_mask,
)

SQ2 = np.sqrt(0.5)
PLUS = np.array([SQ2, SQ2], dtype=np.complex128)
# |m> consumed by pi/8 gadgets, and the conjugate |m~> produced by distillation
MAGIC = np.array([SQ2, SQ2 * np.exp(1j * np.pi / 4)], dtype=np.complex128)
MAGIC_CONJ = np.array([SQ2, SQ2 * np.exp(-1j * np.pi / 4)], dtype=np.complex128)
ZERO = np.array([1.0, 0.0], dtype=np.complex128)


def product_state(qubit_states: list[np.ndarray]) -> np.ndarray:
    """Kron of per-qubit states, little-endian (qubit 0 = lowest index bit)."""
    return reduce(np.kron, reversed([np.asarray(s) for s in qubit_states]))


def ccz_plus_state() -> np.ndarray:
    """CCZ applied to |+++> on qubits 0-2, i.e. signed uniform amplitudes."""
    idx = np.arange(8)
    signs = np.where((idx & 1) * ((idx >> 1) & 1) * ((idx >> 2) & 1) == 1, -1.0, 1.0)
    return signs / np.sqrt(8.0)


@dataclass(frozen=True)
class Circuit:
    """A post-selected Z-type rotation circuit with designated outputs;
    ``ideal_kept`` is the ideal output on the qubits other than the checks.
    ``output_factors`` holds, for each output whose qubit is a factor of
    ``ideal_output``, that qubit's normalized state (up to global phase).
    """

    name: str
    n: int
    rotations: tuple[Rotation, ...]
    check_qubits: frozenset[int]
    output_qubits: frozenset[int]
    outputs: int
    ideal_output: np.ndarray
    output_factors: Mapping[int, np.ndarray] = field(
        init=False, repr=False, compare=False)
    ideal_kept: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        touched: set[int] = set()
        for r in self.rotations:
            z_mask(r.axis, self.n)  # Z-type, of the circuit's width
            touched.update(r.axis.support)
        if self.check_qubits & self.output_qubits:
            raise ValueError("check and output sets overlap")
        for q in self.check_qubits:
            if q not in touched:
                raise ValueError(f"check qubit {q} appears in no rotation")
        if self.ideal_output.shape != (1 << self.n,):
            raise ValueError("ideal output has the wrong dimension")
        # Circuits are shared (factory schedules are cached), so the
        # reference states must not be writable through any of them.
        ideal = self.ideal_output.copy()
        kept = _sum_checks(ideal, tuple(sorted(self.check_qubits)), self.n)
        kept /= np.linalg.norm(kept)
        # q is a factor iff the (2, rest) matrix of its bit against the
        # others' has rank 1: then its first column of at least half the
        # largest norm, normalized, is q's state and takes all of the norm
        factors = {}
        for q in sorted(self.output_qubits):
            rest = np.moveaxis(ideal.reshape((2,) * self.n), self.n - 1 - q,
                               0).reshape(2, -1)
            norms = np.linalg.norm(rest, axis=0)
            f = rest[:, np.argmax(norms >= norms.max() / 2)]
            f = f / np.linalg.norm(f)
            if abs(np.linalg.norm(f.conj() @ rest) - 1.0) <= 1e-9:
                factors[q] = f
        for state in (ideal, kept, *factors.values()):
            state.setflags(write=False)
        object.__setattr__(self, "ideal_output", ideal)
        object.__setattr__(self, "ideal_kept", kept)
        object.__setattr__(self, "output_factors", MappingProxyType(factors))


def _zrot(n: int, qubits: tuple[int, ...], sign: int) -> Rotation:
    letters = "".join("Z" if i in qubits else "I" for i in range(n))
    return Rotation(PauliProduct(letters), RotationAngle(sign))


# --- 15-to-1: five qubits, checks on 2-5 (indices 1-4), output on 1 (index 0)
_FIFTEEN = [
    ((1,), 1), ((2,), 1), ((3,), 1), ((4,), 1),
    ((1, 2, 3), 1),
    ((0, 1, 2), 1), ((0, 1, 3), 1),
    ((2, 3, 4), 1), ((0, 3, 4), 1),
    ((0, 2, 3), 1), ((0, 2, 4), 1),
    ((0, 1, 4), 1), ((0, 1, 2, 3, 4), 1),
    ((1, 3, 4), 1), ((1, 2, 4), 1),
]

# --- 20-to-4: seven qubits, checks on 5-7 (indices 4-6), outputs 1-4 (0-3).
# The first two rotations avoid qubit 1, which is initialized one step later.
_TWENTY = [
    ((4,), -1), ((5,), -1),
    ((0, 4, 5), 1), ((0, 4, 6), -1), ((0, 5, 6), -1),
    ((0, 1, 2, 3, 4), 1), ((0, 1, 2, 3, 5), 1), ((0, 1, 2, 3, 6), -1),
    ((0, 1, 2, 3, 4, 5, 6), -1),
    ((6,), 1), ((4, 5, 6), 1),
    ((1, 4, 5), 1), ((1, 4, 6), -1), ((1, 5, 6), -1),
    ((2, 4, 5), 1), ((2, 4, 6), -1), ((2, 5, 6), -1),
    ((3, 4, 5), 1), ((3, 4, 6), -1), ((3, 5, 6), -1),
]

# --- 8-to-CCZ: four qubits, check on 4 (index 3), outputs 1-3 (0-2)
_EIGHT = [
    ((0, 3), 1), ((1, 3), 1), ((2, 3), 1),
    ((3,), -1),
    ((0, 1, 3), -1), ((0, 2, 3), -1), ((1, 2, 3), -1),
    ((0, 1, 2, 3), 1),
]

# --- 7-rotation CCZ decomposition (padded to four qubits for comparisons)
_CCZ7 = [
    ((0,), 1), ((1,), 1), ((2,), 1),
    ((0, 1), -1), ((0, 2), -1), ((1, 2), -1),
    ((0, 1, 2), 1),
]

# --- 15-rotation identity on 4 qubits: the 8-to-CCZ rotations flanked by the
# rotations that cancel against the CCZ decomposition
_IDENTITY15_4Q = (
    [((0,), -1), ((1,), -1), ((2,), -1)]
    + _EIGHT
    + [((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((0, 1, 2), -1)]
)


# every catalog circuit: kind -> (width, rotations as (qubits, sign), check
# qubits, output qubits, output count, per-qubit states of the ideal output)
_CATALOG = {
    "identity16": (5, [((0,), 1)] + _FIFTEEN, (), (), 1, [PLUS] * 5),
    "fifteen_to_one": (5, _FIFTEEN, (1, 2, 3, 4), (0,), 1,
                       [MAGIC_CONJ] + [PLUS] * 4),
    "twenty_to_four": (7, _TWENTY, (4, 5, 6), (0, 1, 2, 3), 4,
                       [MAGIC_CONJ] * 4 + [PLUS] * 3),
    "identity15_4q": (4, _IDENTITY15_4Q, (), (), 1, [PLUS] * 4),
    "eight_to_ccz": (4, _EIGHT, (3,), (0, 1, 2), 1, [ccz_plus_state(), PLUS]),
    "ccz7": (4, _CCZ7, (), (0, 1, 2), 1, [ccz_plus_state(), PLUS]),
}

CATALOG_KINDS = tuple(_CATALOG)


def catalog(kind: str) -> Circuit:
    """Return one of the six cataloged circuits by name."""
    if kind not in _CATALOG:
        raise ValueError(f"unknown circuit kind: {kind}")
    n, spec, checks, outs, outputs, states = _CATALOG[kind]
    return Circuit(
        name=kind,
        n=n,
        rotations=tuple(_zrot(n, q, s) for q, s in spec),
        check_qubits=frozenset(checks),
        output_qubits=frozenset(outs),
        outputs=outputs,
        ideal_output=product_state(states),
    )


# The fewest P_{pi/2} errors that pass every check and spoil the output,
# and how many sets of that many do: the leading order is the smallest
# with undetected_error_sets > 0, and with such a set among the screen's
# event sets (eventsets.kept_sets).  Recorded; the tests derive the order
# both ways, and ``reference.self_checks`` counts every order up to it.
UNDETECTED = {"fifteen_to_one": (3, 35), "twenty_to_four": (2, 22),
              "eight_to_ccz": (2, 28)}
LEADING_ORDER = {kind: order for kind, (order, _) in UNDETECTED.items()}


# ---------------------------------------------------------------------------
# algebraic checks
# ---------------------------------------------------------------------------


def verify_equivalence(a, b) -> bool:
    """True iff two Z-type circuits (a Circuit or a rotation list) on one
    width agree up to global phase: their :func:`pauli.phase_exponents`
    differ by one constant mod 16.  The check is exact integer arithmetic."""
    a, b = (x.rotations if isinstance(x, Circuit) else tuple(x)
            for x in (a, b))
    if not a + b:
        return True
    n = (a + b)[0].axis.n
    # uint8 differences wrap mod 256, a multiple of 16
    d = (phase_exponents(a, n) - phase_exponents(b, n)) % 16
    return bool(np.all(d == d[0]))


def verify_noiseless_output(c: Circuit, ideal) -> bool:
    """True iff the noiseless circuit passes its checks with certainty and
    leaves its other qubits exactly in the state that the Z-type
    rotations ``ideal`` make of |+> on them, up to global phase.

    Exact arithmetic in Z[w], w = e^{i pi/8}: the circuit leaves
    w^a(x) / 2^(n/2) at basis state x (:func:`pauli.phase_exponents`), so
    the kept amplitude at y, <+| on the checks times 2^(c/2), is
    r_y / 2^(n/2), with r_y the sum of w^a(x) over the check bits: eight
    integers, once w^8 = -1 folds the sixteen powers.  The output is the
    ideal state iff r_y times the conjugate ideal phase is one nonzero
    element r for every y, and no run fails the checks iff also
    |r|^2 = 2^(n + c - k) for the k kept qubits.
    """
    kept = [q for q in range(c.n) if q not in c.check_qubits]
    x = np.arange(1 << c.n)
    y = sum(((x >> q) & 1) << i for i, q in enumerate(kept))
    e = (phase_exponents(c.rotations, c.n).astype(np.int64)
         - phase_exponents(tuple(ideal), len(kept))[y]) % 16
    counts = np.zeros((1 << len(kept), 16), dtype=np.int64)
    np.add.at(counts, (y, e), 1)
    r = counts[:, :8] - counts[:, 8:]
    if not (r == r[0]).all() or not r[0].any():
        return False
    square = np.zeros(16, dtype=np.int64)
    powers = np.arange(8)
    np.add.at(square, (powers[:, None] - powers) % 16, np.outer(r[0], r[0]))
    norm = square[:8] - square[8:]
    return (norm[0] == 1 << (c.n + len(c.check_qubits) - len(kept))
            and not norm[1:].any())


def undetected_error_sets(c: Circuit, order: int) -> int:
    """Count order-sized rotation subsets whose joint P_{pi/2} error passes.

    For each subset, a P_{pi/2} (Pauli Z-product) error is inserted at those
    rotations in the noiseless circuit; the subset counts if every check
    X-measurement still returns +1 and the output state's fidelity with the
    ideal output drops below 1 - 1e-9.
    """
    if order > len(c.rotations):
        raise ValueError("order exceeds the rotation count")
    checks = tuple(sorted(c.check_qubits))
    masks = np.array([r.axis.mask for r in c.rotations])
    subsets = itertools.combinations(range(len(masks)), order)
    count = 0
    # a chunk of subsets at a time, one state row each
    while chunk := list(itertools.islice(subsets, 4096)):
        em = np.bitwise_xor.reduce(masks[np.array(chunk, dtype=int)], axis=1)
        # the Z-product error commutes with every rotation, so the final
        # state is the error applied to the noiseless output
        states = (1.0 - 2.0 * parity_lookup(em[:, None], c.n)) * c.ideal_output
        # <+| on the checks, which leaves the kept qubits; a row that lost
        # norm had some check flipped: detected
        states = _sum_checks(states, checks, c.n) * 0.5 ** (len(checks) / 2)
        states = states[(abs(states) ** 2).sum(axis=1) >= 1.0 - 1e-9]
        overlaps = abs(states @ c.ideal_kept.conj()) ** 2
        count += int(np.count_nonzero(overlaps < 1.0 - 1e-9))
    return count


# ---------------------------------------------------------------------------
# circuit-level noise models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Circuit-level noise model: kind in {z_only, random_pauli, coherent}."""

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("z_only", "random_pauli", "coherent"):
            raise ValueError(f"unknown noise kind: {self.kind}")
        if not math.isfinite(self.value):
            raise ValueError(f"noise value must be finite, got {self.value!r}")
        if self.kind != "coherent" and not 0.0 <= self.value <= 0.1:
            raise ValueError("probability outside [0, 0.1]")


def z_only(p: float) -> NoiseSpec:
    return NoiseSpec("z_only", p)


def random_pauli(p: float) -> NoiseSpec:
    return NoiseSpec("random_pauli", p)


def coherent(phi: float) -> NoiseSpec:
    return NoiseSpec("coherent", phi)


# ---------------------------------------------------------------------------
# gadget verification
# ---------------------------------------------------------------------------
#
# All four gadgets perform P_{pi/8} on a data register via Pauli product
# measurements and destructive ancilla read-outs, with Pauli (and for two
# of them Clifford) corrections.  P is Z on every data qubit.  A branch's
# linear map of the data register is <read-outs| projectors |preparation>
# over the ancillas, built on the identity of the data qubits: after the
# branch's corrections it must be c * U for one constant c != 0, where U
# is the rotation the branch performs.  That is exact, and it holds on
# every input state at once.

# corrections, in units of pi/8 on P: the Pauli P and the Clifford P_{pi/4}
PAULI_FIX, CLIFFORD_FIX = SUBSTITUTIONS[:2]
MINUS = np.array([SQ2, -SQ2], dtype=np.complex128)
ONE = np.array([0.0, 1.0], dtype=np.complex128)
# an ancilla read in X, by outcome
X_OUT = {1: PLUS, -1: MINUS}
SIGNS = (1, -1)


def verify_gadget(kind: str) -> bool:
    """Check a gadget's branch rules on its branch maps, for 1 and 2 data
    qubits."""
    if kind not in GADGETS:
        raise ValueError(f"unknown gadget kind: {kind}")
    for data_n in (1, 2):
        mask = (1 << data_n) - 1
        for prep, middle, bra, fix, k8 in GADGETS[kind](data_n):
            # <bra| middle |prep> on the ancillas, the high qubits
            m = middle.reshape(len(prep), 1 << data_n, len(prep), -1)
            branch = np.einsum("a,adbe,b->de", bra, m, prep)
            branch *= rotation_phases(mask, data_n, fix * np.pi / 8)[:, None]
            want = np.diag(rotation_phases(mask, data_n, k8 * np.pi / 8))
            if not _proportional(branch, want):
                return False
    return True


def _proportional(actual: np.ndarray, expected: np.ndarray) -> bool:
    na, ne = np.linalg.norm(actual), np.linalg.norm(expected)
    if na < 1e-8 or ne < 1e-8:
        return False
    return equal_up_to_phase(actual / na, expected / ne)


def _projectors(letters: str) -> dict[int, np.ndarray]:
    """The projectors onto the +1 and -1 outcomes of a Pauli product."""
    meas = matrix_of(PauliProduct(letters))
    eye = np.eye(len(meas))
    return {s: 0.5 * (eye + s * meas) for s in SIGNS}


# Each gadget yields its branches for data_n data qubits, as (ancilla
# preparation, projectors, ancilla read-out bra, correction, U) with the
# correction and U = P_{k pi/8} given by k.


def _consumption(data_n: int):
    """data (x) |m>; measure P(x)Z -> s; measure the ancilla in X -> t;
    corrections: Pauli P iff t = -1, P_{pi/4} iff s = -1."""
    proj = _projectors("Z" * (data_n + 1))
    for s, t in itertools.product(SIGNS, SIGNS):
        fix = PAULI_FIX * (t == -1) + CLIFFORD_FIX * (s == -1)
        yield MAGIC, proj[s], X_OUT[t].conj(), fix, 1


def _t_measurement(data_n: int):
    """data (x) |+>; measure P(x)Z -> s; apply T (s = +1) or T-dagger
    (s = -1) to the ancilla, measure it in X -> t; correction: Pauli P iff
    t = -1 (never a Clifford).  An ancilla X error before the T step turns
    every branch into P_{-pi/8} (an S-dagger error); a Z error gives a
    Pauli P error."""
    proj = _projectors("Z" * (data_n + 1))
    errors = ((matrix_of(PauliProduct(e)), k8)
              for e, k8 in (("I", 1), ("X", -1), ("Z", 1 + PAULI_FIX)))
    for (error, k8), s, t in itertools.product(errors, SIGNS, SIGNS):
        tgate = np.diag([1.0, np.exp(1j * s * np.pi / 4)])
        yield (PLUS, proj[s], X_OUT[t].conj() @ tgate @ error,
               PAULI_FIX * (t == -1), k8)


def _delayed_choice(data_n: int):
    """data (x) |m> (x) |+>; measure P(x)Z(x)Z -> s; measure the magic
    ancilla in X -> t; afterwards EITHER read the extra qubit in Z (outcome
    e = +-1): rotation performed, corrections Pauli P iff t = -1 and
    P_{pi/4} iff s*e = -1; OR read it in X (outcome x): no operation,
    correction Pauli P iff x = -1."""
    proj = _projectors("Z" * (data_n + 2))
    prep = product_state([MAGIC, PLUS])
    for s, t in itertools.product(SIGNS, SIGNS):
        for e, ket in zip(SIGNS, (ZERO, ONE)):
            fix = PAULI_FIX * (t == -1) + CLIFFORD_FIX * (s * e == -1)
            yield prep, proj[s], product_state([X_OUT[t], ket]).conj(), fix, 1
        for x in SIGNS:
            yield (prep, proj[s], product_state([X_OUT[t], X_OUT[x]]).conj(),
                   PAULI_FIX * (x == -1), 0)


def _auto_corrected(data_n: int):
    """data (x) |m> (x) |0>; measure P(x)Z (data, magic) -> a and Z(x)Y
    (magic, zero) -> b simultaneously; measure magic in X -> c; read the
    zero qubit in Z if a = +1 (outcome z in {0, 1}), in X if a = -1
    (outcome x); correction: Pauli P iff (a = +1 and (c = -1) xor (z = 1))
    or (a = -1 and (c = -1) xor (x = -1) xor (b = -1)).  Never a Clifford
    correction."""
    proj_a = _projectors("Z" * (data_n + 1) + "I")
    proj_b = _projectors("I" * data_n + "ZY")
    prep = product_state([MAGIC, ZERO])
    for a, b, c in itertools.product(SIGNS, SIGNS, SIGNS):
        middle = proj_b[b] @ proj_a[a]
        if a == 1:
            reads = ((ZERO, False), (ONE, True))
        else:
            reads = ((X_OUT[x], (x == -1) ^ (b == -1)) for x in SIGNS)
        for ket, flip in reads:
            yield (prep, middle, product_state([X_OUT[c], ket]).conj(),
                   PAULI_FIX * ((c == -1) ^ flip), 1)


GADGETS = {"consumption": _consumption, "t_measurement": _t_measurement,
           "delayed_choice": _delayed_choice, "auto_corrected": _auto_corrected}
