"""Factory-level simulation: schedules, costs, and resource reports.

Six protocol families are supported:

- ``L1_15to1``        one-level 15-to-1 block
- ``L1_15to1_small``  footprint-optimized one-level 15-to-1
- ``L2_15x15``        two-level (15-to-1)^nL1 x (15-to-1)
- ``L2_15x20``        two-level (15-to-1)^nL1 x (20-to-4)
- ``L2_15xCCZ``       two-level (15-to-1)^nL1 x (8-to-CCZ)
- ``L2_15x15_small``  footprint-optimized two-level 15-to-1 x 15-to-1

A family's layout (Litinski, arXiv:1905.06903) lives in one record of
``LAYOUTS`` and nowhere else: its circuit and step schedule (which
rotations run together, when qubits enter), the distances it takes, and
its qubit, cycle, storage, ancilla and transport formulas.  The
simulation attaches surface-code error profiles to every rotation and
runs the graded density-matrix engine to get the output infidelity and
failure rates.  Closed-form qubit/cycle costs and full-distance metrics
complete the report.  A bare catalog circuit under circuit-level noise
(:func:`simulate_circuit`) runs as a one-step schedule on the same driver.

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
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple

from .circuits import (LEADING_ORDER, PLUS, Circuit, NoiseSpec, catalog,
                       product_state)
from .density import (DEFAULT_MAX_GRADE, GradedDensityMatrix,
                      RotationErrorProfile, _rejected, _sum_checks,
                      check_kmax, pure_state_infidelity)
from .eventsets import (_EPS, EventSets, class_odds, read_p_out,
                        signature_sums)
from .noise import (
    DistanceSet,
    PhysicalNoise,
    StorageRates,
    level2_rotation_profile,
    logical_error_rate,
    multiqubit_rotation_profile,
    patch_storage_rates,
    single_qubit_rotation_profile,
)
from .pauli import rotation_phases

_LEVEL1_KEYS = ("dX", "dZ", "dm")
_LEVEL2_KEYS = _LEVEL1_KEYS + ("dX2", "dZ2", "dm2")


@dataclass(frozen=True)
class Layout:
    """One family's layout: its schedule, and its closed forms, each one
    expression of its DistanceSet ``d`` and the level-1 p_fail ``p``.

    ``steps`` are the rotations of ``circuit`` by step, ``initialize`` the
    qubits entering at a step, and ``keys`` the DistanceSet fields set (it
    is level 2 if they hold dX2).  Each step stores its qubits for
    ``storage`` cycles, which at level 2 is the cadence of level-1 states,
    and a round takes ``periods`` of them (retried at level 1).  ``l_anc``
    is a rotation's ancilla length and ``l_move`` a level-1 state's route.
    A protocol is named by ``top``, the level-2 circuit, and ``suffix``;
    an output substitutes ``t_states`` T states.
    """

    circuit: str
    steps: tuple[tuple[int, ...], ...]
    initialize: dict[int, tuple[int, ...]]
    keys: tuple[str, ...]
    qubits: Callable[[DistanceSet], float]
    storage: Callable[[DistanceSet, float], float]
    periods: float
    l_anc: Callable[[DistanceSet], float]
    l_move: Callable[[DistanceSet], float] | None = None
    top: str = ""
    suffix: str = ""
    t_states: int = 1

    @property
    def level(self) -> int:
        return 2 if "dX2" in self.keys else 1


_LEVEL1_STEPS = ((0, 1, 2, 4), (5, 6), (3, 7, 8), (9, 10), (11, 12),
                 (13, 14))
_LEVEL1_INIT = {0: (1, 2, 3), 1: (0,), 2: (4,)}


def _fed(circuit: str, steps, initialize, *, top: str, periods: float,
         block, l_anc, t_states: int = 1) -> Layout:
    """A level-2 ``block`` of qubits, and routing, fed by nL1 level-1
    blocks: a state every max(dm2, 6 dm / (1 - p) / (nL1 / 2)) cycles."""
    return Layout(
        circuit, steps, initialize, _LEVEL2_KEYS + ("nL1",),
        qubits=lambda d: (
            block(d)
            + 2 * d.nL1 * ((d.dX + 4 * d.dZ) * (3 * d.dX + d.dm2 / 2)
                           + 2 * d.dm)
            + 2 * (20 * d.dm2**2 + 2 * d.dX2 * d.dm2)),
        storage=lambda d, p: max(d.dm2, 6 * d.dm / (1.0 - p) / (d.nL1 / 2)),
        periods=periods, l_anc=l_anc,
        l_move=lambda d: d.nL1 / 4 * (d.dX + 4 * d.dZ) + 10.0 * d.dm2,
        top=top, t_states=t_states)


# every family's layout, and the one place that tells the families apart
LAYOUTS = {
    "L1_15to1": Layout(
        "fifteen_to_one", _LEVEL1_STEPS, _LEVEL1_INIT, _LEVEL1_KEYS,
        qubits=lambda d: 2 * (d.dX + 4 * d.dZ) * 3 * d.dX + 4 * d.dm,
        storage=lambda d, p: d.dm, periods=6,
        l_anc=lambda d: d.dX + 4 * d.dZ),
    "L1_15to1_small": Layout(
        "fifteen_to_one", _LEVEL1_STEPS, _LEVEL1_INIT, _LEVEL1_KEYS,
        qubits=lambda d: 4 * (d.dX + 4 * d.dZ) * d.dX + 2 * d.dm,
        storage=lambda d, p: 2 * d.dm, periods=6,
        l_anc=lambda d: d.dX + 4 * d.dZ, suffix=" small footprint"),
    "L2_15x15": _fed(
        "fifteen_to_one",
        ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14,)),
        {0: (0, 1, 2, 3, 4)}, top="(15-to-1)", periods=7.5,
        block=lambda d: 2 * (d.dX2 + 4 * d.dZ2) * 3 * d.dX2,
        l_anc=lambda d: d.dX2 + 4 * d.dZ2 + d.dm2),
    "L2_15x20": _fed(
        "twenty_to_four",
        ((0, 1), (3, 4), (2, 5), (6, 7), (8, 9), (10, 11), (12, 13),
         (14, 15), (16, 17), (18, 19)),
        {0: (1, 2, 3, 4, 5, 6), 1: (0,)}, top="(20-to-4)", periods=10.0,
        block=lambda d: 2 * (4 * d.dX2 + 3 * d.dZ2) * 3 * d.dX2,
        l_anc=lambda d: d.dX2 + 4 * d.dZ2 + d.dm2),
    "L2_15xCCZ": _fed(
        "eight_to_ccz", ((0, 1), (2, 3), (4, 5), (6, 7)), {0: (0, 1, 2, 3)},
        top="(8-to-CCZ)", periods=4.0, t_states=4,
        block=lambda d: 2 * (3 * d.dX2 + d.dZ2) * 3 * d.dX2,
        l_anc=lambda d: 3 * d.dX2 + d.dZ2 + d.dm2),
    # one level-1 block feeding a level-2 block that applies one rotation
    # per step, a level-1 state every max(2 dm2, 6 dm / (1 - p)) cycles
    "L2_15x15_small": Layout(
        "fifteen_to_one", tuple((i,) for i in range(15)),
        {0: (0, 1, 2, 3, 4)}, _LEVEL2_KEYS,
        qubits=lambda d: (2 * (d.dX2 + 4 * d.dZ2) * 2 * d.dX2
                          + 2 * (d.dX + 4 * d.dZ) * 3 * d.dX + 4 * d.dm
                          + 2 * (4 * d.dm2**2 + d.dm2 * d.dX2)),
        storage=lambda d, p: max(2 * d.dm2, 6 * d.dm / (1.0 - p)),
        periods=15, l_anc=lambda d: d.dX2 + 4 * d.dZ2 + d.dm2,
        l_move=lambda d: 10.0 * d.dm2, top="(15-to-1)",
        suffix=" small footprint"),
}

FAMILIES = tuple(LAYOUTS)


def _layout(family: str) -> Layout:
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    return LAYOUTS[family]


def check_family_inputs(family: str, given: Mapping[str, object],
                        names: Mapping[str, str],
                        shown: str | None = None) -> None:
    """Raise ValueError unless ``given`` holds the inputs ``family`` takes:
    its layout's ``keys``, and at level 2 "full", the full consumption
    prefactor.  ``given`` maps an input to its value, None or False if not
    given; ``names`` (several inputs may share one) and ``shown`` spell an
    input and the family as the caller's user wrote them.  Missing inputs
    are named first, in the layout's order, then extra ones, as given.
    """
    layout = _layout(family)
    present = [k for k, v in given.items() if v is not None and v is not False]
    takes = layout.keys + (("full",) if layout.level == 2 else ())
    for verb, wrong in (("requires", [k for k in layout.keys
                                      if k not in present]),
                        ("takes no", [k for k in present if k not in takes])):
        if wrong:
            spelled = dict.fromkeys(names.get(k, k) for k in wrong)
            raise ValueError(f"{shown or family} {verb} {', '.join(spelled)}")


FULL_DISTANCE_PATCHES = {"qubits100": 231, "qubits10k": 20284}


@dataclass(frozen=True)
class FactoryConfig:
    """A factory family with its distances, physical noise, and toggles.

    consumption_prefactor_toggle selects how much storage error the level-2
    output picks up while being consumed: False (default) uses half of
    dX2 * p_L(p, dX2) per axis, True uses the full amount.  A level-1
    output is always charged half, and takes no toggle.
    """

    family: str
    distances: DistanceSet
    noise: PhysicalNoise
    consumption_prefactor_toggle: bool = False

    def __post_init__(self) -> None:
        check_family_inputs(
            self.family,
            {**vars(self.distances), "full": self.consumption_prefactor_toggle},
            {**dict.fromkeys(_LEVEL2_KEYS[3:], "level-2 distances"),
             "full": "consumption prefactor"})


class NoiseDomainError(ValueError):
    """p_phys, at its c_T, lies outside the noise model's range for a
    configuration."""


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
class Schedule:
    """A circuit's steps, after which its checks, if any, are measured: no
    step sees the qubits that the projection keeps, renumbered.  A qubit
    that is neither a check nor an output (ccz7's padding) is not consumed.
    ``steps`` and ``initialize`` are as in :class:`Layout`: at step i the
    qubits ``initialize.get(i, ())`` enter, then the rotations ``steps[i]``
    run, then every qubit initialized by then is stored.

    ``events`` lists the run's error channels once, in time order: each
    rotation, then a Z flip on each output of its axis; after a step's
    rotations, an X and a Z flip on each qubit initialized by then; last,
    an X and a Z flip on each output, consumed at step ``len(steps)``.  An
    entry is (step, source, operator, target, kind): source "rotation",
    "output", "storage" or "consumption"; operator the ``Rotation``, "X"
    or "Z"; target the rotation's index or the qubit; kind, with R
    rotations and n qubits, 4i for rotation i (its branches 4i to 4i+2),
    4i+3 for its output flips, 4R+q for q's storage Z flips, 4R+n for the
    consumption Z flips, 4R+n+1+q for q's storage X flips and 4R+2n+1 for
    the consumption X flips.  Entries of one kind have one probability.

    ``leaving`` maps the index in ``events`` of each rotation that is the
    last on an output whose ideal state is a single-qubit factor
    (``Circuit.output_factors``) to those outputs, each with the indices
    of the flips that its release would fold in: every Z flip on it, and
    every X flip on it after that rotation.  Whether it leaves is the
    run's to decide (:func:`_run_schedule`).

    The per-configuration readers take what they need of ``events`` from
    maps made here, with no walk of their own.  ``take`` reads each
    entry's probability, in order, from a list of one value per kind
    (:func:`_probabilities`).  ``shapes`` holds each rotation's shape
    (whether its axis holds an output, whether it holds more than one
    qubit), on which its error profile and its output flips depend.
    ``classes`` maps each Z kind to its class in the event sets
    (:mod:`eventsets`): with S distinct shapes, in order of first
    appearance, kind 4i+col of a rotation of the s-th to 4s+col, and the
    storage Z kind 4R+q to 4S+q and the consumption Z kind to 4S+n.
    """

    circuit: Circuit
    steps: tuple[tuple[int, ...], ...]
    initialize: dict[int, tuple[int, ...]]
    events: tuple[tuple, ...] = field(init=False, repr=False, compare=False)
    leaving: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = field(
        init=False, repr=False, compare=False)
    take: Callable[[list[float]], tuple[float, ...]] = field(
        init=False, repr=False, compare=False)
    shapes: tuple[tuple[bool, bool], ...] = field(init=False, repr=False,
                                                  compare=False)
    classes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = self.circuit
        storage = 4 * len(c.rotations)
        flips = storage + c.n + 1  # the X kinds follow the Z kinds
        events = []
        initialized: set[int] = set()
        for step, rotations in enumerate(self.steps):
            initialized.update(self.initialize.get(step, ()))
            for ri in rotations:
                r = c.rotations[ri]
                if not set(r.axis.support) <= initialized:
                    raise ValueError(
                        f"rotation {ri} touches an uninitialized qubit")
                events.append((step, "rotation", r, ri, 4 * ri))
                events += [(step, "output", "Z", q, 4 * ri + 3) for q in
                           sorted(c.output_qubits & set(r.axis.support))]
            for q in sorted(initialized):
                events += [(step, "storage", "X", q, flips + q),
                           (step, "storage", "Z", q, storage + q)]
        if sorted(ri for _, source, _, ri, _ in events
                  if source == "rotation") != list(range(len(c.rotations))):
            raise ValueError("schedule must apply every rotation exactly once")
        for q in sorted(c.output_qubits):
            events += [(len(self.steps), "consumption", "X", q, flips + c.n),
                       (len(self.steps), "consumption", "Z", q, storage + c.n)]
        object.__setattr__(self, "events", tuple(events))
        kinds = [kind for *_, kind in events]
        object.__setattr__(self, "take", itemgetter(*kinds))
        object.__setattr__(self, "shapes", tuple(
            (not c.output_qubits.isdisjoint(r.axis.support),
             len(r.axis.support) > 1) for r in c.rotations))
        distinct = list(dict.fromkeys(self.shapes))
        object.__setattr__(self, "classes", tuple(
            [4 * distinct.index(shape) + col for shape in self.shapes
             for col in range(4)]
            + [4 * len(distinct) + q for q in range(c.n + 1)]))
        last = {q: i for i, (_, source, r, _, _) in enumerate(events)
                if source == "rotation" for q in r.axis.support}
        leaving = {}
        for q in c.output_factors:
            leaving.setdefault(last[q], []).append((q, tuple(
                i for i, (_, source, operator, target, _) in enumerate(events)
                if source != "rotation" and target == q
                and (operator == "Z" or i > last[q]))))
        object.__setattr__(self, "leaving", {
            i: tuple(outputs) for i, outputs in leaving.items()})


@lru_cache(maxsize=None)
def build_schedule(family: str) -> Schedule:
    """The step-to-rotation mapping of each family (part of the contract).

    Built once per family; the cached schedule is shared, and its circuit's
    ideal output is read-only.
    """
    layout = _layout(family)
    return Schedule(catalog(layout.circuit), layout.steps, layout.initialize)


# ---------------------------------------------------------------------------
# closed-form costs
# ---------------------------------------------------------------------------


def qubit_cost(config: FactoryConfig) -> float:
    """Physical qubit count (including measurement ancillas)."""
    return LAYOUTS[config.family].qubits(config.distances)


def cycle_cost(config: FactoryConfig, p_fail_L1: float) -> float:
    """Code cycles per protocol round, a level-1 round retried until its
    checks pass (level-2 time is not retry-adjusted)."""
    if p_fail_L1 >= 1.0:
        raise ValueError("p_fail_L1 must be below 1")
    layout = LAYOUTS[config.family]
    cycles = layout.periods * layout.storage(config.distances, p_fail_L1)
    return cycles / (1.0 - p_fail_L1) if layout.level == 1 else cycles


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

# A run releases an output only from a stack of at least this many live
# qubits.  Below it a channel costs about the same at any width (NumPy's
# per-call cost dominates), so a release costs more than it saves: on a
# 2-vCPU host a level-1 15-to-1 run took 4.8 ms with its output released
# against 4.1 ms without, and a 20-to-4 run 24.8 ms releasing all four
# outputs against 24.0 ms releasing the two that leave 7 and 6 live qubits.
LIVE_MIN_QUBITS = 6


def _kind_probabilities(schedule: Schedule, inputs: tuple) -> list[float]:
    """The probability of each kind of channel of ``schedule.events`` under
    the noise ``inputs`` (:func:`_noise_inputs`), a rotation's being that
    of its three substitution branches together, and 0 at the branch
    kinds, which no entry has."""
    profiles, rates, cycles, consumption = inputs
    stored = list(map(rates.__getitem__, range(schedule.circuit.n)))
    rotations = [0.0] * (4 * len(profiles))
    rotations[::4] = [f.p_error for f in profiles]
    rotations[3::4] = [f.p_z_output for f in profiles]
    return (rotations + [cycles * r.pZ for r in stored] + [consumption.pZ]
            + [cycles * r.pX for r in stored] + [consumption.pX])


def _probabilities(schedule: Schedule, inputs: tuple) -> tuple[float, ...]:
    """The probability of each entry of ``schedule.events`` under the
    noise ``inputs``: one read, through ``Schedule.take``, of
    :func:`_kind_probabilities`."""
    return schedule.take(_kind_probabilities(schedule, inputs))


def _run_schedule(schedule: Schedule, inputs: tuple, kmax: int) -> ScheduleRun:
    """Run one schedule, of a factory or of a bare circuit
    (:func:`simulate_circuit`), on one graded state, whose channels update
    it in place: the one driver of the graded engine.

    The run applies the channels of ``schedule.events`` in order, at their
    :func:`_probabilities` under the noise ``inputs`` (:func:`_noise_inputs`).
    Its E events of nonzero probability hold at most E errors, so it keeps
    min(kmax, E) grades; with none it reads 0 and builds no state.

    A flip waits while it commutes, grade counts included.  Z flips wait
    for one pass before the checks.  An X flip on q waits for the next
    rotation on q, or past the projection, which keeps the outputs alone:
    there it runs at their dimension, as do the consumption flips and the
    readout, or on a check it is absorbed (Pi X_c = Pi), a grade shift.
    A circuit without checks skips the projection and keeps every qubit.

    An output in ``Schedule.leaving`` leaves the grade stack after its
    last rotation (:meth:`GradedDensityMatrix.release`) if the stack then
    holds at least ``LIVE_MIN_QUBITS`` qubits, with every Z flip
    on it and every X flip after that rotation folded in; the rotations
    after it run on the other qubits.  A narrower stack keeps it: there a
    channel costs about the same at any width, and the release would not
    pay for itself.
    """
    check_kmax(kmax)
    c = schedule.circuit
    probabilities = _probabilities(schedule, inputs)
    events = sum(p > 0.0 for p in probabilities)
    if not events:
        # noiseless: the engine would read its round-off
        return ScheduleRun(0.0, 0.0)
    leaving, folded = schedule.leaving, set()
    profiles = inputs[0]
    rho = GradedDensityMatrix.init_plus(c.n, min(kmax, events))
    z_flips, x_flips, consumed = [], {q: [] for q in range(c.n)}, []
    for i, ((_, source, operator, target, _), p) in enumerate(
            zip(schedule.events, probabilities)):
        if source == "rotation":
            for q in operator.axis.support:
                for x in x_flips[q]:
                    rho = rho.apply_x_flip(q, x)
                x_flips[q] = []
            rho = rho.apply_faulty_rotation(operator, profiles[target])
            for q, flips in leaving.get(i, ()):
                if len(rho.live) >= LIVE_MIN_QUBITS:
                    z_flips = [f for f in z_flips if f[0] != q]
                    rho = rho.release(q, c.output_factors[q], [
                        (schedule.events[j][2], probabilities[j])
                        for j in flips])
                    folded.update(flips)
        elif i in folded:
            continue
        elif operator == "X":
            x_flips[target].append(p)
        else:
            (consumed if source == "consumption" else z_flips).append(
                (target, p))
    rho, p_fail = rho.apply_z_flips(z_flips), 0.0
    if c.check_qubits:  # project_plus takes a nonempty check set
        rho, p_fail = rho.project_plus(c.check_qubits)
    rho = rho.apply_absorbed_flips(
        [p for q in sorted(c.check_qubits) for p in x_flips.pop(q)])
    # the projection kept the other qubits, numbered in order
    kept = {q: i for i, q in enumerate(x_flips)}
    for q, flips in x_flips.items():
        for p in flips:
            rho = rho.apply_x_flip(kept[q], p)
    rho = rho.apply_z_flips([(kept[q], p) for q, p in consumed])
    return ScheduleRun(rho.infidelity_with_pure(c.ideal_kept) / c.outputs,
                       p_fail)


def simulate_circuit(c: Circuit, noise: NoiseSpec,
                     kmax: int = DEFAULT_MAX_GRADE) -> ScheduleRun:
    """Run a catalog circuit under circuit-level noise: (p_out per output
    state, the infidelity of the projected state with the ideal output
    over the number of output states; p_fail).

    z_only applies a P_{pi/2} error with probability p after each rotation;
    random_pauli applies each of P_{pi/2}, P_{pi/4}, P_{-pi/4} with
    probability p/3: the circuit's one step (every qubit initialized, then
    every rotation) run by :func:`_run_schedule`, with no storage or
    consumption noise.  coherent over-rotates every gate by a fixed excess
    angle, on a statevector; an angle of 0 is the noiseless schedule run.
    """
    check_kmax(kmax)
    if noise.kind == "coherent" and noise.value:
        psi = product_state([PLUS] * c.n)
        for r in c.rotations:
            psi = rotation_phases(r.axis.mask, c.n, r.angle.radians + (
                noise.value if r.angle.k > 0 else -noise.value)) * psi
        # <+| on the checks, times 2**(c/2); with none, psi is kept whole
        checks = tuple(sorted(c.check_qubits))
        p_fail = _rejected(psi, checks, c.n)  # psi has norm 1
        psi = _sum_checks(psi, checks, c.n)
        return ScheduleRun(
            pure_state_infidelity(psi, c.ideal_kept) / c.outputs, p_fail)
    third = noise.value / 3.0
    profile = (RotationErrorProfile(third, third, third)
               if noise.kind == "random_pauli"
               else RotationErrorProfile(noise.value, 0.0, 0.0))
    zero = StorageRates(0.0, 0.0)
    schedule = Schedule(c, (tuple(range(len(c.rotations))),),
                        {0: tuple(range(c.n))})
    return _run_schedule(schedule, (
        [profile] * len(c.rotations), dict.fromkeys(range(c.n), zero), 0.0,
        zero), kmax)


@lru_cache(maxsize=None)
def _event_sets(family: str, order: int) -> EventSets:
    """Memoized :func:`eventsets.signature_sums` of a family's schedule."""
    return signature_sums(build_schedule(family), order)


def _table_bound(family: str, inputs: tuple, order: int) -> float:
    """A lower bound on the p_out of the family's schedule run with the
    noise ``inputs`` at any kmax >= ``order``, with no engine run.

    The bound reads the run's order-``order`` sums without its X flips
    from the family's one table of event sets (:mod:`eventsets`), whose
    classes the schedule fixes (``Schedule.classes``), at each class's
    odds in this run (:func:`eventsets.class_odds`).  The read is
    N / outputs, N the sum over the table's sets s of rho_s dev_s,
    rho_s the product of their odds.  The table's sums are exact, each
    term, an exact sum times at most K <= 3 odds, rounds at most K times,
    and the sum (``math.fsum``) once more, so N lands within 4 eps of the
    exact sum over the sets, and the floor likewise; the slack's 16 eps of
    N covers it.

    N bounds the run with the X flips.  A run at any kmax reads p_out =
    N'/(outputs T), with T <= 1 its success mass and N' the sum over its
    kept event sets s of w_s dev_s, every dev_s >= 0.  Every set the table
    holds is a set of at most ``order`` events of that run with no X flip
    in it, and weighs there Z rho_s, Z being prod(1 - p_e) over every
    error channel of the run (:func:`_probabilities`).  So p_out(with X
    flips) >= Z * (N / outputs - slack), with no tail and no success mass
    (the table's own, >= 1, would only lower it).  The run holds up to
    (S^2/2)/Z in grades 2 and up, with S the sum of those probabilities,
    so its floor may exceed this one's by eps times that; the slack
    includes it.
    """
    schedule = build_schedule(family)
    kinds = _kind_probabilities(schedule, inputs)
    probabilities = schedule.take(kinds)
    zero_mass = math.prod([1.0 - p for p in probabilities])
    # the keeps' product underflows, or a keep, summed in another order
    # than the profile checks it in, rounds to 0
    if zero_mass == 0.0:
        return 0.0
    outputs = schedule.circuit.outputs
    read, floor = read_p_out(_event_sets(family, order),
                             class_odds(schedule, inputs[0], kinds), outputs)
    # this read and an engine run's each round by about the floor plus a
    # few eps of p_out (table1 row 5's engine readouts at two orders
    # differed by 0.1 floor; other float orders moved it by up to 2.6)
    slack = (16 * (floor / outputs + _EPS * read)
             + 8 * _EPS * sum(probabilities)**2 / zero_mass / outputs)
    return zero_mass * (read - slack)


def _run_level1(config: FactoryConfig, kmax: int) -> ScheduleRun:
    """Run a level-1 family's schedule (not memoized)."""
    return _run_schedule(build_schedule(config.family),
                         _noise_inputs(config, kmax), kmax)


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
        _LEVEL1_RUNS[key] = _run_level1(_level1_block(config), kmax)
    return _LEVEL1_RUNS[key]


def _level1_block(config: FactoryConfig) -> FactoryConfig:
    """The one-level 15-to-1 block of ``config``'s level-1 distances."""
    d = config.distances
    return FactoryConfig("L1_15to1", DistanceSet(d.dX, d.dZ, d.dm),
                         config.noise)


def _noise_inputs(config: FactoryConfig, kmax: int) -> tuple:
    """(profiles, storage rates, storage cycles, consumption) of
    ``config``'s schedule.

    A level-1 rotation is lattice surgery with a faulty T measurement, or
    a single-qubit rotation on a check; a level-2 one consumes a state of
    the level-1 block's ``kmax`` run, from the cache.  Storage and
    consumption are charged at the top level's distances.

    For some distances the closed-form noise model leaves its domain (a
    probability reaches 1) below p_phys = 0.01; there it raises a
    NoiseDomainError naming its inputs, and the run they would feed does
    not start.
    """
    schedule = build_schedule(config.family)
    layout = LAYOUTS[config.family]
    d, noise, c = config.distances, config.noise, schedule.circuit
    level2 = layout.level == 2
    if level2:
        level1 = _level1_input(config, kmax)
        dx, dz, p_fail = d.dX2, d.dZ2, level1.p_fail
    else:
        dx, dz, p_fail = d.dX, d.dZ, 0.0
    try:
        # one profile per shape of rotation (Schedule.shapes), built in
        # order of first appearance, as eventsets.class_odds requires; at
        # level 1 a single-qubit rotation is on a check
        shapes = schedule.shapes
        l_anc, made = layout.l_anc(d), {}
        for outputs, multi in dict.fromkeys(shapes):
            made[outputs, multi] = (
                level2_rotation_profile(noise, level1.p_out, l_anc, d.dX2,
                                        d.dm2, layout.l_move(d), outputs)
                if level2
                else multiqubit_rotation_profile(noise, l_anc, d.dX, d.dm,
                                                 outputs)
                if multi else single_qubit_rotation_profile(noise, d.dZ, d.dm))
        profiles = list(map(made.__getitem__, shapes))
        rate = {dh: patch_storage_rates(noise, dx, dh) for dh in (dx, dz)}
        rates = {q: rate[dx if q in c.output_qubits else dz]
                 for q in range(c.n)}
        prefactor = 1.0 if config.consumption_prefactor_toggle else 0.5
        consume = prefactor * dx * logical_error_rate(noise.p_phys, dx)
        cycles = layout.storage(d, p_fail)
        # every family stores outputs (at dx) and checks (at dz), so both
        # rates are in use
        if any(cycles * max(r.pX, r.pZ) >= 1.0 for r in rate.values()):
            raise ValueError("accumulated storage probability reaches 1")
    except ValueError as e:
        # c_T scales the T-measurement rates, so it is named when it is set
        at = "" if noise.c_T == 1.0 else f" with c_T={noise.c_T}"
        raise NoiseDomainError(
            f"p_phys={noise.p_phys}{at} is outside the noise model's "
            f"range for {protocol_name(config)} ({e})") from None
    return profiles, rates, cycles, StorageRates(consume, consume)


def _level1_input(config: FactoryConfig, kmax: int) -> ScheduleRun:
    """The run of a level-2 ``config``'s level-1 block
    (:func:`level1_output_error`); if it is outside the noise model's
    range, the NoiseDomainError names the requested protocol too."""
    try:
        return level1_output_error(config, kmax)
    except NoiseDomainError as e:
        raise NoiseDomainError(
            f"{e}, the level-1 block of {protocol_name(config)}") from None


def protocol_name(config: FactoryConfig) -> str:
    layout, d = LAYOUTS[config.family], config.distances
    blocks = "" if d.nL1 is None else f"^{d.nL1}"
    name = f"(15-to-1){blocks}_{{{d.dX},{d.dZ},{d.dm}}}"
    if layout.level == 2:
        name += f" x {layout.top}_{{{d.dX2},{d.dZ2},{d.dm2}}}"
    return name + layout.suffix


def family_outputs(family: str) -> int:
    """Magic states produced per round (the 20-to-4 family produces four)."""
    return build_schedule(family).circuit.outputs


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
    layout = LAYOUTS[config.family]
    if layout.level == 2:
        run = _run_schedule(build_schedule(config.family),
                            _noise_inputs(config, kmax), kmax)
        p_fail_l1 = level1_output_error(config, kmax).p_fail
        p_fail_l2 = run.p_fail
    else:  # a configuration that is the block itself reads its memo
        run = (level1_output_error(config, kmax)
               if config == _level1_block(config)
               else _run_level1(config, kmax))
        p_fail_l1, p_fail_l2 = run.p_fail, 0.0
    p_out, p_phys = run.p_out, config.noise.p_phys
    qubits, cycles, per_state = _costs(config, p_fail_l1)
    outputs = family_outputs(config.family)
    # the full-distance normalization uses the per-T-equivalent error (one
    # CCZ resource state substitutes four T states); (d, cost) per scale
    full = []
    for scale in ("qubits100", "qubits10k"):
        d = (full_distance(p_out / layout.t_states, scale, p_phys)
             if p_out > 0.0 else None)
        full += [d, None if d is None else d3_cost(qubits, cycles, outputs, d)]
    return FactoryReport(protocol_name(config), p_phys, p_out, p_fail_l1,
                         p_fail_l2, qubits, cycles, per_state, *full)


def p_out_lower_bound(config: FactoryConfig,
                      kmax: int = DEFAULT_MAX_GRADE) -> float:
    """A lower bound on ``simulate_factory(config, kmax).p_out``, with no
    engine run.

    The bound is :func:`_table_bound`: the family's top-level schedule run
    at order K, its circuit's leading undetected order (3 for 15-to-1, 2
    for 20-to-4 and 8-to-CCZ), without its storage and consumption X
    flips, read from the family's one table of sums over event sets,
    built at its first screen; a level-2 family's level-1 input is the
    kmax one, from the cache.  It misses what the X flips and the orders
    above K add: on the paper's 24 table rows it is 0.918 to 1.000 of
    p_out.  At kmax < K the run holds no set of K events, and the bound
    is 0.
    """
    check_kmax(kmax)
    order = LEADING_ORDER[build_schedule(config.family).circuit.name]
    if kmax < order:
        return 0.0
    return _table_bound(config.family, _noise_inputs(config, kmax), order)


def sweep(
    family: str,
    ranges: dict[str, Iterable[int]],
    noise: PhysicalNoise,
    target_p_out: float,
    consumption_prefactor_toggle: bool = False,
    kmax: int = DEFAULT_MAX_GRADE,
) -> list[FactoryReport]:
    """Pareto-minimal configurations meeting the output-error target.

    ranges maps DistanceSet field names (the family's layout ``keys``) to
    iterables of values; a missing or extra key, or the toggle at level 1,
    is a ValueError (:func:`check_family_inputs`).  Combinations
    that make no valid FactoryConfig, or lie outside the noise model's
    range (:class:`NoiseDomainError`), are skipped.  If no combination
    makes a configuration, the first configuration's ValueError is
    raised; if none can be run, the first NoiseDomainError.  The result
    is the Pareto front in (qubits, qubitcycles_per_state) of the
    configurations with p_out <= target_p_out, sorted by
    qubitcycles_per_state, ties broken by qubits then distances.

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
    family, whose classes of events the schedule fixes.  A value repeated
    in a range counts once.
    """
    if not (math.isfinite(target_p_out) and target_p_out > 0.0):
        raise ValueError(
            f"target p_out must be finite and positive, got {target_p_out}")
    check_kmax(kmax)
    check_family_inputs(family,
                        {**ranges, "full": consumption_prefactor_toggle},
                        {"full": "consumption prefactor"})
    keys, level2 = LAYOUTS[family].keys, LAYOUTS[family].level == 2
    candidates = []
    invalid, out_of_range = [], []
    for combo in itertools.product(*(dict.fromkeys(ranges[k]) for k in keys)):
        kwargs = dict(zip(keys, combo))
        try:
            distances = DistanceSet(**kwargs)
            config = FactoryConfig(family, distances, noise,
                                   consumption_prefactor_toggle)
        except ValueError as e:
            invalid.append(e)
            continue
        try:
            p_fail = _level1_input(config, kmax).p_fail if level2 else 0.0
        except NoiseDomainError as e:
            out_of_range.append(e)
            continue
        qubits, _, per_state = _costs(config, p_fail)
        candidates.append((per_state, qubits, combo, config))
    if invalid and not candidates and not out_of_range:
        raise invalid[0]
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
    """The reports that no other report dominates, by (qubitcycles/state,
    qubits, distances)."""
    front = [(r, combo) for r, combo in reports
             if not any(_dominates(o.qubits, o.qubitcycles_per_state,
                                   r.qubits, r.qubitcycles_per_state)
                        for o, _ in reports)]
    front.sort(key=lambda rk: (rk[0].qubitcycles_per_state, rk[0].qubits,
                               rk[1]))
    return [r for r, _ in front]
