"""Closed-form surface-code error model.

Logical error rate per code cycle, storage rates for rectangular patches,
and per-rotation error profiles for the three ways a pi/8 rotation is
executed: lattice surgery on multiple qubits with a faulty T measurement,
a single-qubit rotation on a check qubit, and a level-2 rotation consuming
a level-1 distilled state.

The four builders (``patch_storage_rates`` and the three profiles) are
memoized by their arguments, since a sweep's candidates share most of
them; each returns a frozen record, so every caller may share the one
object a cache hands out.

Usage::

    from msdsim.noise import PhysicalNoise, logical_error_rate
    noise = PhysicalNoise(1e-4)
    rate = logical_error_rate(noise.p_phys, 9)
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .density import RotationErrorProfile


@dataclass(frozen=True)
class PhysicalNoise:
    """Physical error rate and the faulty-T-measurement multiplier.

    p_phys must lie in [0, 0.01]; zero is the noiseless edge case.  c_T
    scales only the T-measurement Pauli rate (1 or 10 in the reproduced
    tables, any finite positive value accepted).
    """

    p_phys: float
    c_T: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_phys <= 0.01:
            raise ValueError("p_phys must lie in [0, 0.01]")
        if not 0.0 < self.c_T < float("inf"):
            raise ValueError(f"c_T must be finite and positive, got {self.c_T}")


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


# Distances and nL1 stay below this, so that the rate and cost formulas,
# which mix them with floats, see them exactly and stay finite.
MAX_COUNT = 2**53


@dataclass(frozen=True)
class DistanceSet:
    """Code distances of a factory: level-1 (dX, dZ, dm), optional level-2.

    All distances are positive odd integers below MAX_COUNT with dZ <= dX
    and dX <= 3*dm (likewise at level 2); nL1 is the even number of
    level-1 blocks feeding a level-2 block, also below MAX_COUNT.
    """

    dX: int
    dZ: int
    dm: int
    dX2: int | None = None
    dZ2: int | None = None
    dm2: int | None = None
    nL1: int | None = None

    def __post_init__(self) -> None:
        self._check_triple(self.dX, self.dZ, self.dm, "level-1")
        level2 = (self.dX2, self.dZ2, self.dm2)
        if any(v is not None for v in level2):
            if any(v is None for v in level2):
                raise ValueError("level-2 distances must be given together")
            self._check_triple(self.dX2, self.dZ2, self.dm2, "level-2")
        if self.nL1 is not None:
            if self.nL1 <= 0 or self.nL1 % 2:
                raise ValueError("nL1 must be a positive even integer")
            if self.nL1 >= MAX_COUNT:
                raise ValueError("nL1 must be below 2**53")

    @staticmethod
    def _check_triple(dx: int, dz: int, dm: int, label: str) -> None:
        for name, v in (("dX", dx), ("dZ", dz), ("dm", dm)):
            if not isinstance(v, int) or v <= 0 or v % 2 == 0:
                raise ValueError(f"{label} {name} must be a positive odd integer")
            if v >= MAX_COUNT:
                raise ValueError(f"{label} {name} must be below 2**53")
        if dz > dx:
            raise ValueError(f"{label} requires dZ <= dX")
        if dx > 3 * dm:
            raise ValueError(f"{label} requires dX <= 3*dm")


def logical_error_rate(p_phys: float, d: int) -> float:
    """Logical error probability per code cycle: 0.1 * (100*p_phys)^((d+1)/2).

    Logical X and Z errors each occur at half this rate.  Valid below the
    threshold only (p_phys < 0.01).
    """
    if p_phys >= 0.01:
        raise ValueError("p_phys must be below the 0.01 threshold")
    if d < 1:
        raise ValueError("distance must be at least 1")
    return 0.1 * (100.0 * p_phys) ** ((d + 1) // 2)


@lru_cache(maxsize=None)
def patch_storage_rates(noise: PhysicalNoise, dX: int, dH: int) -> StorageRates:
    """Per-cycle X/Z storage error rates of a dX-by-dH patch (dH <= dX).

    X errors: 0.5*(dH/dX)*p_L(p, dX); Z errors: 0.5*(dX/dH)*p_L(p, dH).
    Square patches (dH = dX) give the symmetric rate 0.5*p_L(p, dX).
    """
    if dH > dX:
        raise ValueError("patch requires dH <= dX")
    p = noise.p_phys
    return StorageRates(
        pX=0.5 * (dH / dX) * logical_error_rate(p, dX),
        pZ=0.5 * (dX / dH) * logical_error_rate(p, dH),
    )


@lru_cache(maxsize=None)
def multiqubit_rotation_profile(
    noise: PhysicalNoise, l: int, dX: int, dm: int, involves_output: bool
) -> RotationErrorProfile:
    """Error profile of a lattice-surgery pi/8 rotation with ancilla length l.

    The faulty T measurement contributes c_T*p/3 to each error class; the
    dm-cycle ancilla region adds P_{pi/2} and P_{-pi/4} terms, and (when the
    rotation involves an output qubit) an independent Z error on it.
    """
    if l < dX:
        raise ValueError("ancilla length must be at least dX")
    p, t = noise.p_phys, noise.c_T * noise.p_phys / 3.0
    pl_m = logical_error_rate(p, dm)
    return RotationErrorProfile(
        p_half=t + 0.5 * pl_m * dm,
        p_quarter=t,
        p_mquarter=t + 0.5 * (l * dX / dm**2) * pl_m * dm + 0.5 * pl_m * dm,
        p_z_output=(
            0.5 * (l / dX) * logical_error_rate(p, dX) * dm
            if involves_output else 0.0
        ),
    )


@lru_cache(maxsize=None)
def single_qubit_rotation_profile(
    noise: PhysicalNoise, dZ: int, dm: int
) -> RotationErrorProfile:
    """Error profile of a single-qubit pi/8 rotation on a dZ-by-dm patch."""
    p, t = noise.p_phys, noise.c_T * noise.p_phys / 3.0
    return RotationErrorProfile(
        p_half=t + 0.5 * (dm**2 / dZ) * logical_error_rate(p, dZ),
        p_quarter=t,
        p_mquarter=t + 0.5 * dZ * logical_error_rate(p, dm),
        p_z_output=0.0,
    )


@lru_cache(maxsize=None)
def level2_rotation_profile(
    noise: PhysicalNoise,
    p_L1: float,
    l: int,
    dX2: int,
    dm2: int,
    l_move: float,
    involves_output: bool,
) -> RotationErrorProfile:
    """Error profile of a level-2 rotation consuming one level-1 state.

    The level-1 state's own infidelity p_L1 acts as a P_{pi/2} error; moving
    it over a length-l_move region adds to both the P_{pi/2} and P_{-pi/4}
    rates; X errors in the length-l ancilla region add to P_{-pi/4}; Z
    errors in the ancilla add an independent Z to each output qubit in the
    rotation's support.  The footprint-optimized two-level factory reuses
    this profile with l_move = 10*dm2, which reproduces its transport
    penalty of 5*dm2*p_L(p, dm2) on each of X and Z.
    """
    p = noise.p_phys
    pl_m2 = logical_error_rate(p, dm2)
    move = 0.5 * l_move * pl_m2
    return RotationErrorProfile(
        p_half=p_L1 + move,
        p_quarter=0.0,
        p_mquarter=move + 0.5 * (l * dX2 / dm2) * pl_m2,
        p_z_output=(
            0.5 * (l * dm2 / dX2) * logical_error_rate(p, dX2)
            if involves_output else 0.0
        ),
    )
