"""Exact algebra for n-qubit Pauli products and pi/8-multiple rotations.

A :class:`PauliProduct` is a string over ``{I, X, Y, Z}``; a
:class:`Rotation` pairs a Pauli axis with an angle ``k*pi/8`` and has the
unitary ``exp(-i * axis * k*pi/8)``.  A product of Z-type rotations is
diagonal, a phase polynomial: :func:`phase_exponents` gives its diagonal
exactly, as integer powers of exp(i pi/8).  Dense matrices (at most 10
qubits) serve the lattice-surgery gadget checks.

Usage::

    from msdsim.pauli import PauliProduct, Rotation, RotationAngle
    from msdsim.pauli import phase_exponents
    zz = PauliProduct("ZZ")
    a = phase_exponents([Rotation(zz, RotationAngle(1))], 2)  # [15, 1, 1, 15]
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

MAX_QUBITS = 10

_SINGLE = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

_ALLOWED_K = frozenset({-2, -1, 1, 2, 3, 4, 5})


@dataclass(frozen=True)
class PauliProduct:
    """An n-qubit Pauli product, e.g. ``PauliProduct("ZIZ")``."""

    letters: str

    def __post_init__(self) -> None:
        if len(self.letters) < 1:
            raise ValueError("PauliProduct needs at least one qubit")
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Indices (0-based) with a non-identity letter, computed once."""
        return tuple(i for i, c in enumerate(self.letters) if c != "I")

    @cached_property
    def mask(self) -> int:
        """The support as a bitmask: bit i marks qubit i."""
        return sum(1 << i for i in self.support)


def matrix_of(p: PauliProduct) -> np.ndarray:
    """Dense matrix of a Pauli product.

    Convention: basis index bit i (little-endian) is qubit i, and qubit i is
    ``letters[i]``; hence the Kronecker product runs over the letters in
    reverse (qubit n-1 contributes the leftmost factor).
    """
    if p.n > MAX_QUBITS:
        raise ValueError(f"too many qubits: {p.n} > {MAX_QUBITS}")
    return reduce(np.kron, (_SINGLE[c] for c in reversed(p.letters)))


@dataclass(frozen=True)
class RotationAngle:
    """An angle ``k * pi/8`` on the discrete lattice used by the circuits.

    k covers every rotation and error in scope: +-pi/8 rotations, and errors
    that shift k by -2, +2 or +4 (P_{-pi/4}, P_{pi/4}, P_{pi/2}).
    """

    k: int

    def __post_init__(self) -> None:
        if self.k not in _ALLOWED_K:
            raise ValueError(f"k={self.k} outside supported set {sorted(_ALLOWED_K)}")

    @property
    def radians(self) -> float:
        return self.k * np.pi / 8


@dataclass(frozen=True)
class Rotation:
    """A Pauli product rotation P_phi = exp(-i * P * phi) with phi = k*pi/8."""

    axis: PauliProduct
    angle: RotationAngle


def z_mask(axis: PauliProduct, n: int) -> int:
    """The bitmask of a Z-type axis on n qubits; a ValueError otherwise."""
    if axis.n != n:
        raise ValueError(f"axis {axis.letters} is not on {n} qubits")
    if set(axis.letters) - {"I", "Z"}:
        raise ValueError(f"axis {axis.letters} is not Z-type")
    return axis.mask


def phase_exponents(rotations, n: int) -> np.ndarray:
    """Diagonal of a product of Z-type rotations on n qubits, as exponents
    a(x) of exp(i pi/8), mod 16, for every basis index x (uint8).

    A rotation with axis Z_mask and angle k*pi/8 multiplies basis state x
    by exp(-i k pi/8 z(x)), z(x) = (-1)^parity(x & mask) (:func:`z_signs`),
    so it adds -k z(x).
    """
    a = np.zeros(1 << n, dtype=np.int64)
    for r in rotations:
        a -= r.angle.k * z_signs(z_mask(r.axis, n), n).astype(np.int64)
    return (a % 16).astype(np.uint8)


def rotation_phases(mask: int, n: int, phi: float) -> np.ndarray:
    """Diagonal of exp(-i * Z_mask * phi) for a Z-type axis given as a bitmask.

    Bit i of ``mask`` marks a Z on qubit i; basis index bit i is qubit i's
    computational value.  Z-type rotations are diagonal, so circuits made of
    them can be applied as elementwise phase multiplications.
    """
    return np.exp(-1j * phi * z_signs(mask, n))


@lru_cache(maxsize=None)
def z_signs(mask: int, n: int) -> np.ndarray:
    """Diagonal of Z_mask: (-1)^parity(x & mask) for every basis index x.

    The entries are exactly +1.0 and -1.0 (float64), so multiplying by them
    is exact in any order.  Memoized per (mask, n); the array is read-only.
    """
    signs = 1.0 - 2.0 * parity_lookup(mask, n).astype(np.float64)
    signs.flags.writeable = False
    return signs


def parity_lookup(mask, n: int) -> np.ndarray:
    """parity(popcount(x & mask)) for every basis index x in [0, 2^n).

    ``mask`` may be an integer array, which broadcasts against the indices
    (a column of masks gives one row per mask).
    """
    x = np.arange(1 << n, dtype=np.uint32) & np.uint32(mask)
    # O(N log N) parity fold
    for shift in (16, 8, 4, 2, 1):
        x ^= x >> np.uint32(shift)
    return (x & 1).astype(np.int8)


# how far apart equal_up_to_phase lets two entries be
_PHASE_TOL = 1e-9


def equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff matrices (or vectors) agree up to a single global phase,
    within _PHASE_TOL in every entry."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return False
    ia = np.argmax(np.abs(a))
    if abs(a.flat[ia]) < _PHASE_TOL or abs(b.flat[ia]) < _PHASE_TOL:
        # fall back: both (near) zero at the reference entry
        return bool(np.allclose(a, b, atol=_PHASE_TOL))
    phase = b.flat[ia] / a.flat[ia]
    if abs(abs(phase) - 1.0) > _PHASE_TOL:
        return False
    return bool(np.max(np.abs(a * phase - b)) <= _PHASE_TOL)
