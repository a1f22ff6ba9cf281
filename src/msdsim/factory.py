"""Factory-level simulation: schedules, costs, and resource reports.

Six protocol families are supported:

- ``L1_15to1``        one-level 15-to-1 block
- ``L1_15to1_small``  footprint-optimized one-level 15-to-1
- ``L2_15x15``        two-level (15-to-1)^nL1 x (15-to-1)
- ``L2_15x20``        two-level (15-to-1)^nL1 x (20-to-4)
- ``L2_15xCCZ``       two-level (15-to-1)^nL1 x (8-to-CCZ)
- ``L2_15x15_small``  footprint-optimized two-level 15-to-1 x 15-to-1

Each family maps a cataloged circuit onto a step schedule (which rotations
run together, when qubits enter, how long everything is stored), attaches
surface-code error profiles to every rotation, and runs the graded
density-matrix engine to get the output infidelity and failure rates.
Closed-form qubit/cycle costs and full-distance metrics complete the
report.

Usage::

    from msdsim.factory import FactoryConfig, simulate_factory
    from msdsim.noise import DistanceSet, PhysicalNoise
    cfg = FactoryConfig("L1_15to1", DistanceSet(7, 3, 3), PhysicalNoise(1e-4))
    report = simulate_factory(cfg)
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Iterable, NamedTuple

from .circuits import LEADING_ORDER, Circuit, catalog
from .density import DEFAULT_MAX_GRADE, GradedDensityMatrix, StorageRates
from .eventsets import _EPS, EventSets, classes, read_p_out, signature_sums
from .noise import (
    DistanceSet,
    PhysicalNoise,
    level2_rotation_profile,
    logical_error_rate,
    multiqubit_rotation_profile,
    patch_storage_rates,
    single_qubit_rotation_profile,
)

FAMILIES = (
    "L1_15to1",
    "L1_15to1_small",
    "L2_15x15",
    "L2_15x20",
    "L2_15xCCZ",
    "L2_15x15_small",
)

_LEVEL2_CIRCUIT = {
    "L2_15x15": "fifteen_to_one",
    "L2_15x20": "twenty_to_four",
    "L2_15xCCZ": "eight_to_ccz",
    "L2_15x15_small": "fifteen_to_one",
}

_LEVEL2_MULTIPLIER = {"L2_15x15": 7.5, "L2_15x20": 10.0, "L2_15xCCZ": 4.0}

FULL_DISTANCE_PATCHES = {"qubits100": 231, "qubits10k": 20284}


@dataclass(frozen=True)
class FactoryConfig:
    """A factory family with its distances, physical noise, and toggles.

    consumption_prefactor_toggle selects how much storage error the level-2
    output picks up while being consumed: False (default) uses half of
    dX2 * p_L(p, dX2) per axis, True uses the full amount.
    """

    family: str
    distances: DistanceSet
    noise: PhysicalNoise
    consumption_prefactor_toggle: bool = False

    def __post_init__(self) -> None:
        keys = distance_keys(self.family)
        for key, what in (("dX2", "level-2 distances"), ("nL1", "nL1")):
            if (key in keys) != (getattr(self.distances, key) is not None):
                verb = "requires" if key in keys else "takes no"
                raise ValueError(f"{self.family} {verb} {what}")


def distance_keys(family: str) -> tuple[str, ...]:
    """The DistanceSet fields a family's configurations set."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    keys = ("dX", "dZ", "dm")
    if family in _LEVEL2_CIRCUIT:
        keys += ("dX2", "dZ2", "dm2")
        if family != "L2_15x15_small":
            keys += ("nL1",)
    return keys


class NoiseDomainError(ValueError):
    """p_phys lies outside the noise model's range for a configuration."""


class ScheduleRun(NamedTuple):
    """One schedule run's output error and failure rate."""

    p_out: float
    p_fail: float


@dataclass(frozen=True)
class FactoryReport:
    """Unrounded simulation results for one factory configuration."""

    protocol: str
    p_phys: float
    p_out: float
    p_fail_L1: float
    p_fail_L2: float
    qubits: float
    cycles: float
    qubitcycles_per_state: float
    d_full_100: int | None
    cost_d3_100: float | None
    d_full_10k: int | None
    cost_d3_10k: float | None


@dataclass(frozen=True)
class ScheduleStep:
    """One factory step: rotations applied, qubits entering, then storage."""

    rotations: tuple[int, ...]
    initialize: frozenset[int] = frozenset()
    measure: frozenset[int] = frozenset()
    storage: bool = True


@dataclass(frozen=True)
class Schedule:
    """A circuit's steps.  ``rotation_outputs`` holds each rotation's
    output qubits (those of its axis), sorted, computed once.  It measures
    the checks in its last step alone, so no step sees the renumbered
    qubits that the projection keeps: the outputs."""

    circuit: Circuit
    steps: tuple[ScheduleStep, ...]
    rotation_outputs: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen: list[int] = []
        initialized: set[int] = set()
        for step in self.steps:
            initialized |= step.initialize
            seen.extend(step.rotations)
            for ri in step.rotations:
                if not set(self.circuit.rotations[ri].axis.support) <= initialized:
                    raise ValueError(
                        f"rotation {ri} touches an uninitialized qubit")
        if sorted(seen) != list(range(len(self.circuit.rotations))):
            raise ValueError("schedule must apply every rotation exactly once")
        c = self.circuit
        if (any(step.measure for step in self.steps[:-1])
                or self.steps[-1].measure != c.check_qubits
                or len(c.check_qubits | c.output_qubits) != c.n):
            raise ValueError("schedule must measure the checks in its last "
                             "step alone, and keep only outputs")
        object.__setattr__(self, "rotation_outputs", tuple(
            tuple(sorted(c.output_qubits.intersection(r.axis.support)))
            for r in c.rotations))


def _fs(*qubits: int) -> frozenset[int]:
    return frozenset(qubits)


@lru_cache(maxsize=None)
def build_schedule(family: str) -> Schedule:
    """The step-to-rotation mapping of each family (part of the contract).

    Built once per family; the cached schedule is shared, and its circuit's
    ideal output is read-only.
    """
    if family in ("L1_15to1", "L1_15to1_small"):
        c = catalog("fifteen_to_one")
        steps = (
            ScheduleStep((0, 1, 2, 4), initialize=_fs(1, 2, 3)),
            ScheduleStep((5, 6), initialize=_fs(0)),
            ScheduleStep((3, 7, 8), initialize=_fs(4)),
            ScheduleStep((9, 10)),
            ScheduleStep((11, 12)),
            ScheduleStep((13, 14)),
            ScheduleStep((), measure=_fs(1, 2, 3, 4), storage=False),
        )
        return Schedule(c, steps)
    if family in ("L2_15x15", "L2_15x15_small"):
        c = catalog("fifteen_to_one")
        everyone = _fs(0, 1, 2, 3, 4)
        if family == "L2_15x15":
            groups = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11),
                      (12, 13), (14,)]
        else:
            groups = [(i,) for i in range(15)]
        steps = tuple(
            ScheduleStep(g, initialize=everyone if i == 0 else frozenset(),
                         measure=_fs(1, 2, 3, 4) if i == len(groups) - 1
                         else frozenset())
            for i, g in enumerate(groups)
        )
        return Schedule(c, steps)
    if family == "L2_15x20":
        c = catalog("twenty_to_four")
        groups = [(0, 1), (3, 4), (2, 5), (6, 7), (8, 9), (10, 11),
                  (12, 13), (14, 15), (16, 17), (18, 19)]
        inits = [_fs(1, 2, 3, 4, 5, 6), _fs(0)] + [frozenset()] * 8
        steps = tuple(
            ScheduleStep(g, initialize=init,
                         measure=_fs(4, 5, 6) if i == len(groups) - 1
                         else frozenset())
            for i, (g, init) in enumerate(zip(groups, inits))
        )
        return Schedule(c, steps)
    if family == "L2_15xCCZ":
        c = catalog("eight_to_ccz")
        groups = [(0, 1), (2, 3), (4, 5), (6, 7)]
        steps = tuple(
            ScheduleStep(g, initialize=_fs(0, 1, 2, 3) if i == 0 else frozenset(),
                         measure=_fs(3) if i == len(groups) - 1 else frozenset())
            for i, g in enumerate(groups)
        )
        return Schedule(c, steps)
    raise ValueError(f"unknown family: {family}")


# ---------------------------------------------------------------------------
# closed-form costs
# ---------------------------------------------------------------------------


def qubit_cost(config: FactoryConfig) -> float:
    """Physical qubit count (including measurement ancillas)."""
    d = config.distances
    fam = config.family
    if fam == "L1_15to1":
        return 2 * (d.dX + 4 * d.dZ) * 3 * d.dX + 4 * d.dm
    if fam == "L1_15to1_small":
        return 4 * (d.dX + 4 * d.dZ) * d.dX + 2 * d.dm
    l1_blocks = (d.dX + 4 * d.dZ) * (3 * d.dX + d.dm2 / 2) + 2 * d.dm
    if fam == "L2_15x15":
        block = 2 * (d.dX2 + 4 * d.dZ2) * 3 * d.dX2
    elif fam == "L2_15x20":
        block = 2 * (4 * d.dX2 + 3 * d.dZ2) * 3 * d.dX2
    elif fam == "L2_15xCCZ":
        block = 2 * (3 * d.dX2 + d.dZ2) * 3 * d.dX2
    else:  # L2_15x15_small
        return (2 * (d.dX2 + 4 * d.dZ2) * 2 * d.dX2
                + 2 * (d.dX + 4 * d.dZ) * 3 * d.dX + 4 * d.dm
                + 2 * (4 * d.dm2**2 + d.dm2 * d.dX2))
    return (block + 2 * d.nL1 * l1_blocks
            + 2 * (20 * d.dm2**2 + 2 * d.dX2 * d.dm2))


def _t_level1(config: FactoryConfig, p_fail_L1: float) -> float:
    """Cadence at which the level-2 block can consume level-1 states."""
    d = config.distances
    if config.family == "L2_15x15_small":
        return max(2 * d.dm2, 6 * d.dm / (1.0 - p_fail_L1))
    return max(d.dm2, 6 * d.dm / (1.0 - p_fail_L1) / (d.nL1 / 2))


def cycle_cost(config: FactoryConfig, p_fail_L1: float) -> float:
    """Code cycles per protocol round (level-2 time is not retry-adjusted)."""
    if p_fail_L1 >= 1.0:
        raise ValueError("p_fail_L1 must be below 1")
    d = config.distances
    fam = config.family
    if fam == "L1_15to1":
        return 6 * d.dm / (1.0 - p_fail_L1)
    if fam == "L1_15to1_small":
        return 12 * d.dm / (1.0 - p_fail_L1)
    if fam == "L2_15x15_small":
        return 15 * _t_level1(config, p_fail_L1)
    return _LEVEL2_MULTIPLIER[fam] * _t_level1(config, p_fail_L1)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _events(schedule: Schedule, inputs: tuple) -> list[float]:
    """Each error event's probability in a run of ``schedule``, in the
    order of its steps.

    A rotation's substitution branches count as one event, each output Z
    flip as one, and each storage or consumption channel as two (its X and
    its Z flip).  ``inputs`` is as for :func:`_run_schedule`.
    """
    profiles, rates, cycles, consumption = inputs
    initialized: set[int] = set()
    events: list[float] = []
    for step in schedule.steps:
        initialized |= step.initialize
        for ri in step.rotations:
            profile = profiles[ri]
            events.append(profile.p_half + profile.p_quarter
                          + profile.p_mquarter)
            events += [profile.p_z_output] * len(schedule.rotation_outputs[ri])
        if step.storage:
            for q in sorted(initialized):
                events += [cycles * rates[q].pX, cycles * rates[q].pZ]
    for q in sorted(schedule.circuit.output_qubits):
        events += [consumption.pX, consumption.pZ]
    return events


def _run_schedule(schedule: Schedule, inputs: tuple, kmax: int) -> ScheduleRun:
    """Run one factory schedule on one graded state, whose channels update
    it in place.

    ``inputs`` is the (profiles, storage rates, storage cycles,
    consumption) of one configuration.

    A flip waits while it commutes, grade counts included.  Z flips wait
    for one pass before the checks.  An X flip on q waits for the next
    rotation on q, or past the projection, which keeps the outputs alone:
    there it runs at their dimension, as do the consumption flips and the
    readout, or on a check it is absorbed (Pi X_c = Pi), a grade shift.
    """
    c = schedule.circuit
    profiles, rates, cycles, consumption = inputs
    if not any(_events(schedule, inputs)):
        # noiseless: the engine would read its round-off
        return ScheduleRun(0.0, 0.0)
    rho = GradedDensityMatrix.init_plus(c.n, kmax)
    initialized: set[int] = set()
    z_flips, x_flips = [], {q: [] for q in range(c.n)}
    for step in schedule.steps:
        initialized |= step.initialize
        for ri in step.rotations:
            r = c.rotations[ri]
            for q in r.axis.support:
                for p in x_flips[q]:
                    rho = rho.apply_x_flip(q, p)
                x_flips[q] = []
            rho = rho.apply_faulty_rotation(r.axis, profiles[ri],
                                            sign=1 if r.angle.k > 0 else -1)
            z_flips += [(q, profiles[ri].p_z_output)
                        for q in schedule.rotation_outputs[ri]]
        if step.storage:
            for q in sorted(initialized):
                x_flips[q].append(cycles * rates[q].pX)
                z_flips.append((q, cycles * rates[q].pZ))
    rho = rho.apply_z_flips(z_flips)
    rho, p_fail = rho.project_plus(c.check_qubits)
    rho = rho.apply_absorbed_flips(
        [p for q in sorted(c.check_qubits) for p in x_flips.pop(q)])
    # the projection kept the outputs, numbered in order
    for i, flips in enumerate(x_flips.values()):
        for p in flips + [consumption.pX]:
            rho = rho.apply_x_flip(i, p)
    rho = rho.apply_z_flips([(i, consumption.pZ) for i in range(rho.n)])
    return ScheduleRun(rho.infidelity_with_pure(c.ideal_kept) / c.outputs,
                       p_fail)


@lru_cache(maxsize=None)
def _event_sets(family: str, order: int,
                partition: tuple[int, ...]) -> EventSets:
    """Memoized :func:`eventsets.signature_sums` of a family's schedule."""
    return signature_sums(build_schedule(family), order, partition)


def _table_bound(family: str, inputs: tuple, order: int) -> float:
    """A lower bound on the p_out of the family's schedule run with the
    noise ``inputs`` at any kmax >= ``order``, with no engine run.

    The bound reads the run's order-``order`` p_out without its X flips
    from the family's event sets (:mod:`eventsets`) of its partition into
    classes of equal odds.  A partition not seen before, such as that of
    p_phys = 0, where every rotation has the same odds, enumerates the
    sets again.  That read rounds by a few eps of p_out: a signature's
    weight is a product of at most ``order`` odds, and both the sums
    within a signature and those over signatures are correctly rounded
    (``math.fsum``), so p_out lands within 4 eps of the correctly rounded
    sum over the sets, and the floor likewise.  The slack's eps term, 16
    eps of p_out, covers it.

    That p_out bounds the run with the X flips.  A run at any kmax reads
    p_out = N/T, with T <= 1 its success mass and N the sum over its kept
    event sets s of w_s dev_s, every dev_s >= 0.  Every set the table
    holds is a set of at most ``order`` events of that run with no X flip
    in it, and weighs there prod over the X flips of (1 - p_e) times its
    weight in the run without them.  Keeping only those sets, and taking
    that run's success mass as at least its zero-event mass, gives
    p_out(with X flips) >= Z * (p_out - slack), where Z is prod(1 - p_e)
    over every event of the run (:func:`_events`).  No tail is needed.
    The run holds up to (S^2/2)/Z in grades 2 and up, with S the sum of
    those probabilities, so its floor may exceed this one's by eps times
    that; the slack includes it.
    """
    schedule = build_schedule(family)
    events = _events(schedule, inputs)
    zero_mass = math.prod(1.0 - e for e in events)
    if zero_mass == 0.0:  # a rotation's substitution probabilities sum to 1
        return 0.0
    partition, odds = classes(schedule, inputs)
    outputs = schedule.circuit.outputs
    p_out, floor = read_p_out(_event_sets(family, order, partition), odds,
                              outputs)
    # this read and an engine run's each round by about the floor plus a
    # few eps of p_out (table1 row 5's engine readouts at two orders
    # differed by 0.1 floor; other float orders moved it by up to 2.6)
    slack = (16 * (floor / outputs + _EPS * p_out)
             + 8 * _EPS * sum(events)**2 / zero_mass / outputs)
    return zero_mass * (p_out - slack)


def _run_level1(config: FactoryConfig, kmax: int) -> ScheduleRun:
    return _run_factory(config, kmax, _level1_inputs)


def _level1_inputs(config: FactoryConfig, schedule: Schedule):
    """(profiles, storage rates, storage cycles, consumption) of level 1."""
    d, noise, c = config.distances, config.noise, schedule.circuit
    l_anc = d.dX + 4 * d.dZ

    # one profile object per distinct kind of rotation
    single = cache(lambda: single_qubit_rotation_profile(noise, d.dZ, d.dm))
    multi = cache(lambda outputs: multiqubit_rotation_profile(
        noise, l_anc, d.dX, d.dm, outputs))
    profiles = [
        single() if len(r.axis.support) == 1 else multi(bool(outputs))
        for r, outputs in zip(c.rotations, schedule.rotation_outputs)
    ]
    rates = {
        q: patch_storage_rates(noise, d.dX, d.dX if q in c.output_qubits else d.dZ)
        for q in range(c.n)
    }
    half_consume = 0.5 * logical_error_rate(noise.p_phys, d.dX) * d.dX
    consumption = StorageRates(half_consume, half_consume)
    storage_cycles = 2 * d.dm if config.family == "L1_15to1_small" else d.dm
    return profiles, rates, storage_cycles, consumption


# level-1 runs by (dX, dZ, dm, p_phys, c_T, kmax), shared by the L1_15to1
# rows and every level-2 family's block
_LEVEL1_RUNS: dict[tuple, ScheduleRun] = {}


def level1_output_error(config: FactoryConfig,
                        kmax: int = DEFAULT_MAX_GRADE) -> ScheduleRun:
    """Output error and failure rate of the (embedded) one-level 15-to-1
    block, memoized."""
    d, noise = config.distances, config.noise
    key = (d.dX, d.dZ, d.dm, noise.p_phys, noise.c_T, kmax)
    if key not in _LEVEL1_RUNS:
        block = FactoryConfig("L1_15to1", DistanceSet(d.dX, d.dZ, d.dm),
                              noise)
        _LEVEL1_RUNS[key] = _run_level1(block, kmax)
    return _LEVEL1_RUNS[key]


def _level2_inputs(config: FactoryConfig, schedule: Schedule, kmax: int):
    """(profiles, storage rates, storage cycles, consumption) of level 2.

    The level-1 input is the block's kmax run, from the cache.
    """
    d, noise, c = config.distances, config.noise, schedule.circuit
    level1 = level1_output_error(config, kmax)
    if config.family == "L2_15xCCZ":
        l_anc = 3 * d.dX2 + d.dZ2 + d.dm2
    else:
        l_anc = d.dX2 + 4 * d.dZ2 + d.dm2
    if config.family == "L2_15x15_small":
        l_move = 10.0 * d.dm2
    else:
        l_move = d.nL1 / 4 * (d.dX + 4 * d.dZ) + 10.0 * d.dm2
    # one profile object per distinct kind of rotation
    profile = cache(lambda outputs: level2_rotation_profile(
        noise, level1.p_out, l_anc, d.dX2, d.dm2, l_move, outputs))
    profiles = [profile(bool(outputs))
                for outputs in schedule.rotation_outputs]
    rates = {
        q: patch_storage_rates(noise, d.dX2,
                               d.dX2 if q in c.output_qubits else d.dZ2)
        for q in range(c.n)
    }
    prefactor = 1.0 if config.consumption_prefactor_toggle else 0.5
    consume = prefactor * d.dX2 * logical_error_rate(noise.p_phys, d.dX2)
    consumption = StorageRates(consume, consume)
    t_l1 = _t_level1(config, level1.p_fail)
    return profiles, rates, t_l1, consumption


def _noise_inputs(config: FactoryConfig, inputs, *args) -> tuple:
    """The noise inputs ``inputs`` builds for ``config``'s schedule.

    For some distances the closed-form noise model leaves its domain (a
    probability reaches 1) below p_phys = 0.01; there it raises a
    NoiseDomainError naming its inputs.
    """
    try:
        noise_inputs = inputs(config, build_schedule(config.family), *args)
        _, rates, cycles, _ = noise_inputs
        if any(cycles * max(r.pX, r.pZ) >= 1.0 for r in rates.values()):
            raise ValueError("accumulated storage probability reaches 1")
    except NoiseDomainError:  # from a level-2 family's level 1
        raise
    except ValueError as e:
        raise NoiseDomainError(
            f"p_phys={config.noise.p_phys} is outside the noise model's "
            f"range for {protocol_name(config)} ({e})") from None
    return noise_inputs


def _run_factory(config: FactoryConfig, kmax: int, inputs,
                 *args) -> ScheduleRun:
    """Run a family's schedule on the noise inputs ``inputs`` builds.

    Shared by both levels; a range error raises as in
    :func:`_noise_inputs`, before the engine runs.
    """
    return _run_schedule(build_schedule(config.family),
                         _noise_inputs(config, inputs, *args), kmax)


def protocol_name(config: FactoryConfig) -> str:
    d = config.distances
    base = f"(15-to-1)_{{{d.dX},{d.dZ},{d.dm}}}"
    if config.family == "L1_15to1":
        return base
    if config.family == "L1_15to1_small":
        return base + " small footprint"
    top = {
        "L2_15x15": "(15-to-1)",
        "L2_15x20": "(20-to-4)",
        "L2_15xCCZ": "(8-to-CCZ)",
        "L2_15x15_small": "(15-to-1)",
    }[config.family]
    top = f"{top}_{{{d.dX2},{d.dZ2},{d.dm2}}}"
    if config.family == "L2_15x15_small":
        return f"{base} x {top} small footprint"
    return f"(15-to-1)^{d.nL1}_{{{d.dX},{d.dZ},{d.dm}}} x {top}"


def family_outputs(family: str) -> int:
    """Magic states produced per round (the 20-to-4 family produces four)."""
    return 4 if family == "L2_15x20" else 1


def full_distance(p_out: float, scale: str, p_phys: float) -> int | None:
    """Smallest odd d whose storage error stays below 1% of p_out.

    scale selects the stored-patch count: 231 for a 100-qubit computation,
    20,284 for a 10^4-qubit one.  Search is bounded at d <= 99; returns
    None when no bounded distance satisfies the condition.
    """
    if p_out <= 0.0:
        raise ValueError("p_out must be positive")
    n_patches = FULL_DISTANCE_PATCHES[scale]
    for d in range(1, 100, 2):
        if n_patches * d * logical_error_rate(p_phys, d) < 0.01 * p_out:
            return d
    return None


def d3_cost(qubits: float, cycles: float, outputs: int, d: int) -> float:
    """Space-time cost in units of d^3 qubitcycles (half qubit counting)."""
    return qubits * cycles / (2.0 * outputs * d**3)


def _costs(config: FactoryConfig,
           p_fail_L1: float) -> tuple[float, float, float]:
    """(qubits, cycles, qubitcycles per state) of one configuration."""
    qubits = qubit_cost(config)
    cycles = cycle_cost(config, p_fail_L1)
    return qubits, cycles, qubits * cycles / family_outputs(config.family)


def simulate_factory(config: FactoryConfig,
                     kmax: int = DEFAULT_MAX_GRADE) -> FactoryReport:
    """Full factory run: error simulation plus closed-form cost metrics.

    Each schedule run allocates its graded state's stack (see
    :func:`_run_schedule`); a level-1 run is memoized.
    """
    if config.family in _LEVEL2_CIRCUIT:
        run = _run_factory(config, kmax, _level2_inputs, kmax)
        p_fail_l1 = level1_output_error(config, kmax).p_fail
        p_fail_l2 = run.p_fail
    else:
        if config.family == "L1_15to1":
            run = level1_output_error(config, kmax)
        else:
            run = _run_level1(config, kmax)
        p_fail_l1, p_fail_l2 = run.p_fail, 0.0
    p_out = run.p_out
    qubits, cycles, per_state = _costs(config, p_fail_l1)
    outputs = family_outputs(config.family)
    # One CCZ resource state substitutes four T-gate magic states, so the
    # full-distance normalization uses the per-T-equivalent error p_out/4.
    p_equiv = p_out / 4 if config.family == "L2_15xCCZ" else p_out
    d100 = d10k = None
    cost100 = cost10k = None
    if p_out > 0.0:
        d100 = full_distance(p_equiv, "qubits100", config.noise.p_phys)
        d10k = full_distance(p_equiv, "qubits10k", config.noise.p_phys)
        if d100 is not None:
            cost100 = d3_cost(qubits, cycles, outputs, d100)
        if d10k is not None:
            cost10k = d3_cost(qubits, cycles, outputs, d10k)
    return FactoryReport(
        protocol=protocol_name(config),
        p_phys=config.noise.p_phys,
        p_out=p_out,
        p_fail_L1=p_fail_l1,
        p_fail_L2=p_fail_l2,
        qubits=qubits,
        cycles=cycles,
        qubitcycles_per_state=per_state,
        d_full_100=d100,
        cost_d3_100=cost100,
        d_full_10k=d10k,
        cost_d3_10k=cost10k,
    )


def p_out_lower_bound(config: FactoryConfig,
                      kmax: int = DEFAULT_MAX_GRADE) -> float:
    """A lower bound on ``simulate_factory(config, kmax).p_out``, with no
    engine run.

    The bound is :func:`_table_bound`: the family's top-level schedule run
    at order K, its circuit's leading undetected order (3 for 15-to-1, 2
    for 20-to-4 and 8-to-CCZ), without its storage and consumption X
    flips, read from the family's sums over event sets; a level-2
    family's level-1 input is the kmax one, from the cache.  It misses
    what the X flips and the orders above K add: on the paper's 24 table
    rows it is 0.916 to 1.000 of p_out.  At kmax < K the run holds no set
    of K events, and the bound is 0.
    """
    order = LEADING_ORDER[build_schedule(config.family).circuit.name]
    if kmax < order:
        return 0.0
    if config.family in _LEVEL2_CIRCUIT:
        inputs, args = _level2_inputs, (kmax,)
    else:
        inputs, args = _level1_inputs, ()
    return _table_bound(config.family, _noise_inputs(config, inputs, *args),
                        order)


def sweep(
    family: str,
    ranges: dict[str, Iterable[int]],
    noise: PhysicalNoise,
    target_p_out: float,
    consumption_prefactor_toggle: bool = False,
    kmax: int = DEFAULT_MAX_GRADE,
) -> list[FactoryReport]:
    """Pareto-minimal configurations meeting the output-error target.

    ranges maps DistanceSet field names (dX, dZ, dm, and for level-2
    families dX2, dZ2, dm2, nL1) to iterables of values.  Combinations
    without a valid DistanceSet, or outside the noise model's range
    (:class:`NoiseDomainError`), are skipped; if no combination can be
    run, the first range error is raised.  The result is the Pareto
    front in (qubits, qubitcycles_per_state) of the configurations with
    p_out <= target_p_out, sorted by qubitcycles_per_state, ties broken by
    qubits then distances.

    Candidates are costed before they are simulated, and simulated
    cheapest first.  Qubits are closed-form; qubitcycles/state are exact
    for level-2 families (their cycles need only the memoized level-1
    p_fail) and bounded below by the p_fail = 0 value for level-1 families
    (cycles grow with the block's own p_fail).  A candidate whose costs an
    already simulated, target-meeting configuration strictly dominates can
    never reach the front and is not simulated.  Dominance is transitive,
    so the front -- and every reported p_out -- is the same as simulating
    the whole grid, whatever the order of the ranges.

    Each candidate left is screened before it is simulated: one whose
    :func:`p_out_lower_bound` (at the top circuit's leading order)
    exceeds the target cannot meet it and is not simulated.  Skipping it
    changes neither the feasible set nor any pruning decision.  The
    screen runs no engine: it reads sums over event sets built once per
    family and partition of the events into classes of equal odds.  A
    value repeated in a range counts once.
    """
    if not (math.isfinite(target_p_out) and target_p_out > 0.0):
        raise ValueError(
            f"target p_out must be finite and positive, got {target_p_out}")
    keys = distance_keys(family)
    level2 = family in _LEVEL2_CIRCUIT
    unknown = set(ranges) - set(keys)
    if unknown:
        raise ValueError(f"unexpected range keys: {sorted(unknown)}")
    missing = set(keys) - set(ranges)
    if missing:
        raise ValueError(f"missing range keys: {sorted(missing)}")
    candidates = []
    out_of_range = []
    for combo in itertools.product(*(dict.fromkeys(ranges[k]) for k in keys)):
        kwargs = dict(zip(keys, combo))
        try:
            distances = DistanceSet(**kwargs)
            config = FactoryConfig(family, distances, noise,
                                   consumption_prefactor_toggle)
        except ValueError:
            continue
        try:
            p_fail = level1_output_error(config, kmax).p_fail if level2 else 0.0
        except NoiseDomainError as e:
            out_of_range.append(e)
            continue
        qubits, _, per_state = _costs(config, p_fail)
        candidates.append((per_state, qubits, combo, config))
    candidates.sort(key=lambda c: c[:3])
    feasible = []
    ran = False
    for per_state, qubits, combo, config in candidates:
        if any(_dominates(r.qubits, r.qubitcycles_per_state, qubits,
                          per_state) for r, _ in feasible):
            continue
        try:
            if p_out_lower_bound(config, kmax) <= target_p_out:
                report = simulate_factory(config, kmax)
                if report.p_out <= target_p_out:
                    feasible.append((report, combo))
            ran = True
        except NoiseDomainError as e:
            out_of_range.append(e)
    if out_of_range and not ran:
        raise out_of_range[0]
    return _pareto_front(feasible)


def _dominates(qubits: float, per_state: float, other_qubits: float,
               other_per_state: float) -> bool:
    """No worse in both costs and strictly better in one."""
    return (qubits <= other_qubits and per_state <= other_per_state
            and (qubits < other_qubits or per_state < other_per_state))


def _pareto_front(
    reports: list[tuple[FactoryReport, tuple[int, ...]]],
) -> list[FactoryReport]:
    """Undominated reports, by (qubitcycles/state, qubits, distances)."""
    ordered = sorted(reports, key=lambda rk: (rk[0].qubitcycles_per_state,
                                              rk[0].qubits, rk[1]))
    front = []
    fewest_cheaper = math.inf  # fewest qubits at lower qubitcycles/state
    for _, tied in itertools.groupby(
            ordered, key=lambda rk: rk[0].qubitcycles_per_state):
        tied = [report for report, _ in tied]
        fewest = tied[0].qubits
        if fewest < fewest_cheaper:
            front += [r for r in tied if r.qubits == fewest]
            fewest_cheaper = fewest
    return front
