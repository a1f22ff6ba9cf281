"""Sums over the sets of error events of a factory schedule without its X
flips, from which ``factory.sweep``'s screen reads a run's order-K p_out.

Leave out a schedule's storage and consumption X flips, and every error
event of a run (a rotation's substitution branch, an output, storage or
consumption Z flip) is a sum of Z-type Paulis, which commute with each
other and with the ideal rotations, and the run projects once, at its
end.  So each set of events leaves one pure branch, a sum of Pauli terms
on the ideal output, whose deviation from the ideal output and success
mass depend on the schedule alone and are read exactly
(:func:`kept_sets`).  The events and their kinds are the entries of
``Schedule.events``, and the schedule fixes each kind's class
(``Schedule.classes``): a branch or the output flips of the rotations of
one shape, or one storage or consumption Z kind.  So a family has one
table (:func:`signature_sums`), and a run reads it at its classes' odds
(:func:`class_odds`).
"""
from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from typing import NamedTuple

import numpy as np

from .density import SUBSTITUTIONS, _BLOCK_BYTES

_EPS = sys.float_info.epsilon
# 2^-j, the scale of a set of j <= 6 mixes (kept_sets' int8 bound)
_HALVES = np.array([0.5**j for j in range(7)])


class EventSets(NamedTuple):
    """A schedule's runs without X flips, summed by signature.

    A set of error events weighs the product of its events' odds, and
    events of one class have equal odds, so every set of one signature,
    the sorted multiset of its events' classes, weighs the same.
    ``terms`` is an (order, signatures) array of each signature's classes,
    padded with the number of classes, which the read points at odds 1:
    a signature's classes are a column, so the read takes a row at a time.
    ``sums`` is a (2, signatures) array of the deviation from the ideal
    output and the success mass of its sets, each set counted as often as
    the sets of the run it stands for and each sum exact.  The first
    ``low`` signatures are those of at most one event.
    """

    terms: np.ndarray
    sums: np.ndarray
    low: int


def class_odds(schedule, profiles, kinds: list[float]) -> list[float]:
    """The odds of each class of ``schedule.classes`` in a run of
    ``schedule`` whose rotations have the error ``profiles`` and whose
    kinds of channel the probabilities ``kinds``
    (``factory._kind_probabilities``).

    An event's odds are p / keep, keep being 1 less the probability of its
    channel (a rotation's three branches, or one flip), which must be
    above 0.  A shape's classes, one per branch and one for its output
    flips, read the profile of its first rotation: every rotation of one
    shape must have one profile, as ``factory._noise_inputs`` builds one
    per shape.  Each storage or consumption Z kind is a class of its own.
    """
    shapes = schedule.shapes
    odds = []
    for shape in dict.fromkeys(shapes):
        f = profiles[shapes.index(shape)]
        keep = 1.0 - f.p_error
        odds += [p / keep for p, _ in f.branches]
        odds.append(f.p_z_output / (1.0 - f.p_z_output))
    storage = 4 * len(shapes)  # the first storage Z kind
    return odds + [p / (1.0 - p) for p in
                   kinds[storage:storage + schedule.circuit.n + 1]]


def kept_sets(schedule, order: int):
    """Yield the runs of ``schedule`` without X flips, one per set of up to
    ``order`` error events that the checks let through, in chunks.

    The events are the Z-type entries of ``schedule.events``: each
    rotation's three substitution branches, a set holding at most one per
    rotation, and the Z flips, a rotation's output flips and every storage
    and consumption Z flip.  Each kind of event is of class
    ``schedule.classes[kind]``.  All Z flips on one qubit are the same
    operator, so the m flips of one class on qubit q (the output flips of
    one shape's rotations, or one kind's storage flips) enter as one event
    of multiplicity m: a set that holds it j <= m times stands for C(m, j)
    sets of the run, each with the same branch.  A chunk is ``(labels,
    norms, ways)``, each with one column per set and the sets of one chunk
    of one size: ``labels`` holds each event's class, ``norms`` each set's
    deviation from the ideal output and success mass, and ``ways`` how
    many sets of the run it stands for, the product of its flips' C(m, j).
    The sizes come in increasing order.

    The one assumption: the noiseless run leaves phi on the qubits other
    than the checks (``Circuit.ideal_kept``) and |+> on the checks.
    ``verify``'s checks that the 15-to-1 and the 8-to-CCZ compose to their
    target rotations and that the 20-to-4's noiseless output is exact
    (``reference.self_checks``) establish it, and ``tests/test_factory.py``
    asserts it of each family's circuit.  Every event commutes with the
    ideal rotations and multiplies the state by a I + b Z_m, m its Z
    support: a P_{pi/2} branch by -i Z_m, a P_{+-pi/4} branch by
    (I -+ i Z_m) / sqrt(2) and a flip by Z_m.  Up to a phase b, which no
    read sees, that is Z_m + t i I with t = 0, or t = +-1 and a factor
    1/sqrt(2) for a P_{+-pi/4} branch, a mix.  So a set of j mixes leaves
    2^(-j/2) sum_a C_a Z_a (phi |+>), its Pauli-term coefficients C_a
    Gaussian integers over the 2^n Z patterns a.  A term that flips a check
    projects to 0, and the states Z_a phi of the others are orthonormal
    (phi's amplitudes, phases of the |+> start, have one modulus), so over
    the a that flip no check a set reads mass = 2^-j sum |C_a|^2 and
    dev = mass - 2^-j |C_0|^2: multiples of 2^-order, read exactly.  The
    consumption flips, on the outputs, commute with the projection.

    Only the sets the checks can let through are read.  Z_m moves a term
    a to a ^ m, and t i I keeps it, so a growth by an event has a term
    that flips no check only if its parent has a nonzero term at the
    event's check pattern (the checks in m), or, for a mix, at pattern 0;
    the other growths are neither read nor kept, and a set read with mass
    0 all the same is left out.  The sets below ``order`` events are grown
    whole, and the last size's growths only at the terms that flip no
    check, in blocks of sets whose growths' index arrays take at most
    ``_BLOCK_BYTES``.

    The coefficients are int8: a Pauli moves them and a mix at most
    doubles the largest real or imaginary part, so each part is at most
    2^order in modulus, which int8 holds for every order up to 6.
    """
    if order > 6:
        raise ValueError(f"order must be at most 6, got {order}")
    c, classes = schedule.circuit, schedule.classes
    checks = sorted(c.check_qubits)
    rest = [q for q in range(c.n) if q not in c.check_qubits]
    # each qubit's bit in a term's Z pattern, the other qubits' first: the
    # terms that flip no check are the first ``free``, and a pattern's
    # checks are its bits from len(rest) on
    bit = {q: 1 << i for i, q in enumerate(rest + checks)}
    free, dim = 1 << len(rest), 1 << c.n
    # each event's class, Z pattern and t, and the event that starts the
    # next channel (a rotation's branches are adjacent)
    labels, masks, turns, ends = [], [], [], []
    flips = Counter()  # the multiplicity of each (qubit, class) of Z flips
    for _, source, operator, target, kind in schedule.events:
        if source == "rotation":
            labels += classes[kind:kind + 3]
            masks += [sum(map(bit.get, operator.axis.support))] * 3
            # k pi/8 more about P: -i P at k = 4, (I -+ i P) / sqrt(2) at
            # k = +-2
            turns += [0 if k % 8 == 4 else np.sign(k) for k in SUBSTITUTIONS]
            ends += [len(labels)] * 3
        elif operator == "Z":  # the X flips are left out
            flips[target, classes[kind]] += 1
    mults = np.array([1] * len(labels) + list(flips.values()))
    for q, label in flips:
        labels.append(label)
        masks.append(bit[q])
        turns.append(0)
        ends.append(len(labels))
    labels = np.array(labels, dtype=np.uint8)
    masks = np.array(masks)
    # t and -t, for the imaginary and the real part of t i C
    turns = np.array([turns, [-t for t in turns]], dtype=np.int8)
    ends = np.array(ends, dtype=np.uint8)
    patterns, mixes = masks >> len(rest), turns[0] != 0

    def grow(rows, new, width: int):
        """The sets ``rows`` of the last size grown by the events ``new``:
        their events, the sets of the run each stands for, their mixes, and
        the first ``width`` of their coefficients' real and imaginary
        parts."""
        sets = np.empty((len(every) + 1, len(rows)), dtype=np.uint8)
        sets[:-1], sets[-1] = every.take(rows, axis=1), new
        # C(m, j) = C(m, j - 1) (m - j + 1) / j, j the new event's count
        j = (sets == new).sum(axis=0)
        grown_ways = ways.take(rows) * (mults.take(new) - j + 1) // j
        # Z_m moves the parent's term at a ^ m to a, and t i I keeps it
        at = np.arange(width) ^ masks.take(new)[:, None]
        at += (rows * dim)[:, None]
        grown_re, grown_im = re.take(at), im.take(at)
        grown_re += turns[1].take(new)[:, None] * im[rows, :width]
        grown_im += turns[0].take(new)[:, None] * re[rows, :width]
        return (sets, grown_ways, powers.take(rows) + mixes.take(new),
                grown_re, grown_im)

    # every set of the last size, the sets of the run each stands for, its
    # mixes j, its coefficients and its first event to add
    every = np.zeros((0, 1), dtype=np.uint8)
    ways = np.ones(1, dtype=np.int64)
    powers = np.zeros(1, dtype=np.int8)
    re, im = np.zeros((2, 1, dim), dtype=np.int8)
    re[0, 0] = 1
    start = np.zeros(1, dtype=np.uint8)
    yield labels.take(every), _read(re[:, :free], im[:, :free], powers), ways
    events = np.arange(len(labels))
    for k in range(1, order + 1):
        last = k == order
        width = free if last else dim
        # a growth's index: its terms', its set's and its event's
        block = max(1, _BLOCK_BYTES // (8 * (width + 2) * len(labels)))
        grown = []
        for lo in range(0, len(start), block):
            valid = events >= start[lo:lo + block, None]
            # the check patterns at which each set has a nonzero term
            reach = ((re[lo:lo + block] != 0) | (im[lo:lo + block] != 0)
                     ).reshape(len(valid), -1, free).any(axis=2)
            can = reach.take(patterns, axis=1)
            can |= reach[:, :1] & mixes
            can &= valid
            rows, new = np.nonzero(can if last else valid)
            through = can[rows, new]
            rows += lo
            sets, grown_ways, grown_powers, grown_re, grown_im = grow(
                rows, new, width)
            norms = _read(grown_re[through, :free], grown_im[through, :free],
                          grown_powers[through])
            passed = norms[1] > 0
            kept = np.flatnonzero(through)[passed]
            yield (labels.take(sets[:, kept]), norms[:, passed],
                   grown_ways[kept])
            if not last:
                grown.append((sets, grown_ways, grown_powers, grown_re,
                              grown_im))
        if not last:
            sets, grown_ways, grown_powers, grown_re, grown_im = zip(*grown)
            every = np.concatenate(sets, axis=1)
            ways, powers, re, im = map(np.concatenate, (
                grown_ways, grown_powers, grown_re, grown_im))
            final = every[-1]
            count = (every == final).sum(axis=0)
            start = np.where(count < mults.take(final), final,
                             ends.take(final))


def _read(re: np.ndarray, im: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The (dev, mass) rows of the sets whose terms that flip no check have
    the coefficients ``re`` + i ``im`` (one row per set, the identity's
    first) and whose mixes number ``powers``."""
    norms = np.zeros((2, len(re)))
    for part in re, im:
        part = part.astype(float)
        norms[0] -= part[:, 0] * part[:, 0]
        norms[1] += np.einsum("ij,ij->i", part, part)
    norms[0] += norms[1]
    norms *= _HALVES.take(powers)
    return norms


def signature_sums(schedule, order: int) -> EventSets:
    """The runs of ``schedule`` without X flips up to ``order`` events
    (:func:`kept_sets`), summed by signature, each kind of event of class
    ``schedule.classes[kind]``, in read-only arrays: the table every run
    of the schedule reads, whatever its noise.

    Each set's dev and mass, times the sets of the run it stands for, is
    an exact multiple of 2^-order (:func:`kept_sets`), so one
    ``np.bincount`` per size sums them exactly: its float64 totals stay
    exact while every integer total, in units of 2^-order, is below 2^53
    (a set's mass is at most 1).
    """
    width = max(schedule.classes) + 1
    terms, sums, low = [], [], 0
    for k, chunks in itertools.groupby(kept_sets(schedule, order),
                                       key=lambda chunk: len(chunk[0])):
        labels, norms, ways = (np.concatenate(part, axis=-1)
                               for part in zip(*chunks))
        labels = np.sort(labels, axis=0)
        # each set's signature as one integer, its labels the digits
        key = np.zeros(labels.shape[1], dtype=np.int64)
        for row in labels:
            key = key * width + row
        key, first, signature = np.unique(key, return_index=True,
                                          return_inverse=True)
        count = len(key)
        sums.append(np.bincount(
            np.concatenate([signature, signature + count]),
            (norms * ways).ravel(), 2 * count).reshape(2, count))
        padded = np.full((order, count), width, dtype=np.intp)
        padded[:k] = labels[:, first]
        terms.append(padded)
        if k <= 1:
            low += count
    table = EventSets(np.concatenate(terms, axis=1),
                      np.concatenate(sums, axis=1), low)
    table.terms.flags.writeable = table.sums.flags.writeable = False
    return table


def read_p_out(table: EventSets, odds: list[float], outputs: int
               ) -> tuple[float, float]:
    """(p_out, its floor) of a run without X flips from its signature
    sums, each times the run's success mass T relative to its zero-event
    branch's, each class of events having the odds ``odds[i]``
    (:func:`class_odds`).

    A set E weighs prod over E of the odds p_e / keep_e relative to the
    zero-event run, and every set of one signature weighs the same.  The
    read is N / outputs, N = sum(weight * dev) over the signatures' exact
    sums, a correctly rounded sum (``math.fsum``); the run's p_out is
    N / (outputs * T), T = sum(weight * mass) >= 1, which the read does not
    sum, since a bound from a run's zero-event mass up needs only N
    (``factory._table_bound``).  The floor is that of an engine readout of
    the run, which reads grades 0 and 1 as squared deviation norms and the
    rest as differences, times T: eps^2 of the mass of zero and one event
    plus eps of the rest.  The weights multiply one row of ``terms`` at a
    time, in order, as a product along each signature would.
    """
    odds = np.array([*odds, 1.0])
    weights = odds[table.terms[0]]
    for row in table.terms[1:]:
        weights *= odds[row]
    dev, mass = map(memoryview, table.sums * weights)
    floor = (_EPS**2 * math.fsum(mass[:table.low])
             + _EPS * math.fsum(mass[table.low:]))
    return math.fsum(dev) / outputs, floor
