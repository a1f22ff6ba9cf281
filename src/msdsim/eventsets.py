"""Sums over the sets of error events of a factory schedule without its X
flips, from which ``factory.sweep``'s screen reads a run's order-K p_out.

Leave out a schedule's storage and consumption X flips, and every error
event of a run (a rotation's substitution branch, an output, storage or
consumption Z flip) is a diagonal phase that commutes with the others and
with the ideal rotations, and the run projects once, at its end.  So each
set of events leaves one pure branch whose deviation from the ideal output
and success mass depend on the schedule alone (:func:`kept_sets`).
"""
from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from typing import NamedTuple

import numpy as np

from .density import _BLOCK_BYTES
from .pauli import z_signs

_EPS = sys.float_info.epsilon

# every phase of a run without X flips is a power of exp(i pi/8); _PAIRS
# holds the sum of powers a and b at 16 a + b
_ROOTS = np.exp(1j * np.pi / 8 * np.arange(16))
_PAIRS = (_ROOTS[:, None] + _ROOTS[None, :]).ravel()


class EventSets(NamedTuple):
    """A schedule's runs without X flips, summed by signature.

    A set of error events weighs the product of its events' odds, and
    events of one class have equal odds, so every set of one signature,
    the sorted multiset of its events' classes, weighs the same.
    ``terms`` is a (signatures, order) array of each signature's classes,
    padded with the number of classes, which the read points at odds 1.
    ``sums`` is a (2, signatures) array of the deviation from the ideal
    output and the success mass of its sets, each set counted as often as
    the sets of the run it stands for and each sum a ``math.fsum``.  The
    first ``low`` signatures are those of at most one event.
    """

    terms: np.ndarray
    sums: np.ndarray
    low: int


def classes(schedule, inputs: tuple) -> tuple[tuple[int, ...], list[float]]:
    """The class of each kind of error event the event sets hold, in a run
    of ``schedule`` on the noise ``inputs``, and each class's odds.

    The kinds are rotation i's three substitution branches and its output
    Z flip at 4 i to 4 i + 3, then each qubit's storage Z flip, then the
    consumption Z flip; an event's odds are p / keep, keep being 1 less
    the probabilities of its channel (a rotation's three branches, or one
    flip), which must be above 0.  The kinds of one branch of the
    rotations are grouped by equal odds, in order of first appearance, and
    each storage and consumption kind is a class of its own, so that
    distances at which two qubits' storage odds coincide read the same
    table.
    """
    profiles, rates, cycles, consumption = inputs
    odds = []
    for f in profiles:
        keep = 1.0 - (f.p_half + f.p_quarter + f.p_mquarter)
        odds += [f.p_half / keep, f.p_quarter / keep, f.p_mquarter / keep,
                 f.p_z_output / (1.0 - f.p_z_output)]
    flips = [cycles * rates[q].pZ for q in range(schedule.circuit.n)]
    odds += [p / (1.0 - p) for p in flips + [consumption.pZ]]
    rotations = 4 * len(profiles)
    seen: dict = {}
    partition = tuple(
        seen.setdefault((kind % 4 if kind < rotations else kind, o),
                        len(seen))
        for kind, o in enumerate(odds))
    return partition, [o for _, o in seen]


def kept_sets(schedule, order: int, partition: tuple[int, ...]):
    """Yield the runs of ``schedule`` without X flips, one per set of up to
    ``order`` error events that the checks let through, in chunks.

    The events are each rotation's three substitution branches, a set
    holding at most one per rotation, and the Z flips: a rotation's output
    flips and every storage and consumption flip.  Each kind of event of
    :func:`classes` is of class ``partition[kind]``.  All Z flips on one
    qubit are the same operator, so the m flips of one class on qubit q
    enter as one event of multiplicity m: a set that holds it j <= m times
    stands for C(m, j) sets of the run, each with the same branch.  A
    chunk is ``(labels, norms, ways)``, each with one column per set and
    the sets of one chunk of one size: ``labels`` holds each event's
    class, ``norms`` each set's deviation from the ideal output and
    success mass, and ``ways`` how many sets of the run it stands for, the
    product of its flips' C(m, j).  The sizes come in increasing order.

    Every event and every ideal rotation is a diagonal phase, a power of
    exp(i pi/8), so the pre-measurement state a set leaves has amplitudes
    exp(i pi/8 a) / sqrt(2^n), where the integer a (mod 16) sums the
    exponents of the ideal rotations and of the set's events.  The
    checks' projection averages over the check qubits, and the ideal
    output is a vector phi of the other qubits (``Circuit.ideal_kept``)
    times |+> on the checks, so a branch reads through its sums r over
    the check bits: mass |r|^2 and deviation |r - <phi|r> phi|^2, scaled
    so that the zero-event branch has mass 1.  The consumption flips, on
    the outputs, commute with the projection.  Sets are read in chunks of
    at most ``_BLOCK_BYTES``, their phases looked up two check bits at a
    time.

    A set the checks reject (most 15-to-1 triples) has r = 0 exactly, so
    its dev and mass are 0, and it is left out; its growths are still
    read.
    """
    c = schedule.circuit
    checks = sorted(c.check_qubits)
    rest = [q for q in range(c.n) if q not in c.check_qubits]
    index = np.arange(1 << c.n)
    # the basis index of each position, with the check bits fastest
    basis = sum(((index >> pos) & 1) << q
                for pos, q in enumerate(checks + rest))
    pre = np.zeros(1 << c.n, dtype=np.int64)
    # each event's exponents and class, and the event that starts the next
    # channel (a rotation's branches are adjacent)
    steps, labels, ends = [], [], []
    flips = Counter()  # the multiplicity of each (qubit, class) of Z flips
    for ri, r in enumerate(c.rotations):
        mask = sum(1 << q for q in r.axis.support)
        z = z_signs(mask, c.n)[basis].astype(np.int64)
        pre -= r.angle.k * z
        for col, k in enumerate((4, 2, -2)):  # P_{pi/2}, P_{pi/4}, P_{-pi/4}
            steps.append(-k * z)
            labels.append(partition[4 * ri + col])
        ends += [len(steps)] * 3
        for q in schedule.rotation_outputs[ri]:
            flips[q, partition[4 * ri + 3]] += 1
    storage = 4 * len(c.rotations)
    for stored in schedule.stored:
        for q in stored:
            flips[q, partition[storage + q]] += 1
    for q in c.output_qubits:
        flips[q, partition[-1]] += 1
    mults = [1] * len(steps)
    for (q, label), m in flips.items():
        steps.append(8 * ((basis >> q) & 1))
        labels.append(label)
        mults.append(m)
        ends.append(len(steps))
    pre = (pre % 16).astype(np.uint8)
    steps = (np.array(steps) % 16).astype(np.uint8)
    ends = np.array(ends, dtype=np.int32)
    labels = np.array(labels, dtype=np.uint8)
    mults = np.array(mults, dtype=np.int64)
    shape = (1 << len(rest), 1 << len(checks))
    phi = c.ideal_kept
    unit = 2.0 ** -(c.n + len(checks))  # |r|^2 of a pure |+>^n start is 1
    # each entry of r is a sum of 2^nc unit roots, an algebraic integer:
    # 0, or of norm (the product of its 8 conjugates, each at most 2^nc in
    # modulus) a nonzero integer and so at least 2^(-7 nc) in modulus.  A
    # 0 reads within about 4^nc eps, so a branch the checks reject reads
    # |r|^2 below this, and any other above it
    rejected = 2.0 ** (-14 * len(checks) - 2)

    ones = np.ones(shape[1] // 2, dtype=complex)

    def read(expo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (dev, mass) rows of the branches of these exponents, and
        whether the checks let each through."""
        # positions 2j and 2j + 1 differ in the first check bit only
        pairs = expo[:, ::2] << 4
        pairs |= expo[:, 1::2]
        r = (_PAIRS.take(pairs).reshape((-1, len(ones))) @ ones).reshape(
            (len(expo), shape[0]))
        norms = np.empty((2, len(expo)))
        squares = r.view(np.float64)
        np.einsum("ij,ij->i", squares, squares, out=norms[1])
        r -= np.multiply.outer(r @ phi.conj(), phi)
        np.einsum("ij,ij->i", squares, squares, out=norms[0])
        return norms * unit, norms[1] > rejected

    # every set of the last size, their exponents, and the sets of the run
    # each stands for
    every, expo = np.zeros((0, 1), dtype=np.uint8), pre[None]
    ways = np.ones(1, dtype=np.int64)
    yield labels.take(every), read(expo)[0], ways
    start = np.zeros(1, dtype=np.int32)  # each set's first event to add
    per = max(1, _BLOCK_BYTES // (16 << c.n))
    for k in range(1, order + 1):
        # each set grows by each event from its start on, in order: the
        # sets grown from set i take the positions from cum[i] - counts[i]
        # on, and a position's new event is the position less first[i]
        counts = len(steps) - start
        cum = np.cumsum(counts)
        first = cum - counts - start
        grown = []
        for lo in range(0, int(cum[-1]), per):
            at = np.arange(lo, min(lo + per, int(cum[-1])))
            rows = np.searchsorted(cum, at, side="right")
            sets = np.empty((k, len(at)), dtype=np.uint8)
            sets[:-1], sets[-1] = every.take(rows, axis=1), at - first[rows]
            # C(m, j) = C(m, j - 1) (m - j + 1) / j, j the new event's count
            j = (sets == sets[-1]).sum(axis=0)
            grown_ways = ways.take(rows) * (mults.take(sets[-1]) - j + 1) // j
            chunk = expo.take(rows, axis=0) + steps.take(sets[-1], axis=0)
            chunk &= 15
            norms, through = read(chunk)
            yield (labels.take(sets[:, through]), norms[:, through],
                   grown_ways[through])
            if k < order:
                grown.append((sets, chunk, grown_ways))
        if k < order:
            sets, chunks, ways = zip(*grown)
            every, expo = np.concatenate(sets, axis=1), np.concatenate(chunks)
            ways, last = np.concatenate(ways), every[-1]
            held = (every == last).sum(axis=0)
            start = np.where(held < mults.take(last), last, ends.take(last))


def signature_sums(schedule, order: int,
                   partition: tuple[int, ...]) -> EventSets:
    """The runs of ``schedule`` without X flips up to ``order`` events
    (:func:`kept_sets`), summed by signature, each kind of event of class
    ``partition[kind]``, in read-only arrays.

    Each signature's dev and mass are correctly rounded sums
    (``math.fsum``) of its sets', each set counted as often as the sets of
    the run it stands for.
    """
    width = max(partition) + 1
    terms, sums, low = [], [], 0
    for k, chunks in itertools.groupby(
            kept_sets(schedule, order, partition),
            key=lambda chunk: len(chunk[0])):
        labels, norms, ways = (np.concatenate(part, axis=-1)
                               for part in zip(*chunks))
        labels = np.sort(labels, axis=0)
        # each set's signature as one integer, its labels the digits
        key = np.zeros(labels.shape[1], dtype=np.int64)
        for row in labels:
            key = key * width + row
        by_key = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[by_key], prepend=-1))
        # a norm splits into two halves of 26 bits (Veltkamp), so each
        # half's product with the set's ways is exact
        lower = norms[:, by_key]
        upper = lower * 134217729.0
        upper -= upper - lower
        lower -= upper
        ways = ways[by_key]
        upper *= ways
        lower *= ways
        bounds = starts.tolist() + [len(key)]
        sums += [[math.fsum(u[lo:hi].tolist() + v[lo:hi].tolist())
                  for u, v in zip(upper, lower)]
                 for lo, hi in zip(bounds, bounds[1:])]
        padded = np.full((len(starts), order), width, dtype=np.uint8)
        padded[:, :k] = labels[:, by_key[starts]].T
        terms.append(padded)
        if k <= 1:
            low += len(starts)
    table = EventSets(np.concatenate(terms), np.array(sums).T.copy(), low)
    table.terms.flags.writeable = table.sums.flags.writeable = False
    return table


def read_p_out(table: EventSets, odds: list[float], outputs: int
               ) -> tuple[float, float]:
    """(p_out, its floor) of a run without X flips from its signature
    sums, each class of events having the odds ``odds[i]``.

    A set E weighs prod over E of the odds p_e / keep_e relative to the
    zero-event run, and every set of one signature weighs the same; p_out
    is sum(weight * dev) / (outputs * sum(weight * mass)), both sums over
    the signatures and each a correctly rounded one (``math.fsum``).  The
    floor is that of an engine readout of the run, which reads grades 0
    and 1 as squared deviation norms and the rest as differences: eps^2 of
    the mass of zero and one event plus eps of the rest, over the total.
    """
    weights = np.append(odds, 1.0).take(table.terms).prod(axis=1)
    dev, mass = (table.sums * weights).tolist()
    total = math.fsum(mass)
    floor = (_EPS**2 * math.fsum(mass[:table.low])
             + _EPS * math.fsum(mass[table.low:])) / total
    return math.fsum(dev) / total / outputs, floor
