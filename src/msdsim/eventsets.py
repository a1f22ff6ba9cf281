"""Sums over the sets of error events of a factory schedule without its X
flips, from which ``factory.sweep``'s screen reads a run's order-K p_out.

Leave out a schedule's storage and consumption X flips, and every error
event of a run (a rotation's substitution branch, an output, storage or
consumption Z flip) is a diagonal phase that commutes with the others and
with the ideal rotations, and the run projects once, at its end.  So each
set of events leaves one pure branch whose deviation from the ideal output
and success mass depend on the schedule alone (:func:`kept_sets`).  The
events and their kinds are the entries of ``Schedule.events``.
"""
from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from typing import NamedTuple

import numpy as np

from .density import SUBSTITUTIONS, _BLOCK_BYTES
from .pauli import Rotation, RotationAngle, phase_exponents, z_signs

_EPS = sys.float_info.epsilon

# every phase of a run without X flips is a power of exp(i pi/8); _PAIRS
# holds the sum of powers a and b at 16 a + b
_ROOTS = np.exp(1j * np.pi / 8 * np.arange(16))
_PAIRS = (_ROOTS[:, None] + _ROOTS[None, :]).ravel()
# the (set, event) positions that kept_sets tests for passing at a time
_POSITIONS = 4096


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
    the sets of the run it stands for and each sum a ``math.fsum``.  The
    first ``low`` signatures are those of at most one event.
    """

    terms: np.ndarray
    sums: np.ndarray
    low: int


def classes(schedule, profiles, probabilities: tuple[float, ...]
            ) -> tuple[tuple[int, ...], list[float]]:
    """The class of each kind of error event the event sets hold, in a run
    of ``schedule`` whose rotations have the error ``profiles`` and whose
    channels (``schedule.events``) the ``probabilities``, and each class's
    odds.

    An event's odds are p / keep, keep being 1 less the probability of its
    channel (a rotation's three branches, or one flip), which must be
    above 0.  The kinds of one branch of the rotations, keyed by its index
    in the profile's ``branches``, are grouped by equal odds, in order of
    first appearance, and each Z kind of storage or consumption, 4R to 4R+n
    for R rotations and n qubits, is a class of its own, so that distances
    at which two qubits' storage odds coincide read the same table.

    A rotation's kinds depend only on its profile and its shape
    (``Schedule.shapes``), so their keys are built once per distinct pair,
    at its first rotation, and each flip kind's at its first entry
    (``Schedule.first``).
    """
    first, rotations = schedule.first, len(profiles)
    # each class's key and number, in order of first appearance; a kind no
    # entry has, as a rotation's output flips if its axis holds no output,
    # reads as an output flip of odds 0
    none = (3, 0.0)
    number = {}
    pairs = list(zip(map(id, profiles), schedule.shapes))
    groups = {}
    for pair in dict.fromkeys(pairs):
        ri = pairs.index(pair)
        f, keep = profiles[ri], 1.0 - probabilities[first[4 * ri]]
        z = 0.0 if first[4 * ri + 3] is None else probabilities[
            first[4 * ri + 3]]
        keys = [(col, p / keep) for col, (p, _) in enumerate(f.branches)]
        keys.append((3, z / (1.0 - z)))
        groups[pair] = [number.setdefault(key, len(number)) for key in keys]
    partition = list(itertools.chain.from_iterable(map(groups.__getitem__,
                                                       pairs)))
    z_kinds = range(4 * rotations, 4 * rotations + schedule.circuit.n + 1)
    for kind, i in zip(z_kinds, first[z_kinds.start:z_kinds.stop]):
        key = none if i is None else (kind, probabilities[i]
                                      / (1.0 - probabilities[i]))
        partition.append(number.setdefault(key, len(number)))
    return tuple(partition), [o for _, o in number]


def kept_sets(schedule, order: int, partition: tuple[int, ...]):
    """Yield the runs of ``schedule`` without X flips, one per set of up to
    ``order`` error events that the checks let through, in chunks.

    The events are the Z-type entries of ``schedule.events``: each
    rotation's three substitution branches, a set holding at most one per
    rotation, and the Z flips, a rotation's output flips and every storage
    and consumption Z flip.  Each kind of event of :func:`classes` is of
    class ``partition[kind]``.  All Z flips on one qubit are the same
    operator, so the m flips of one class on qubit q enter as one event of
    multiplicity m: a set that holds it j <= m times stands for C(m, j)
    sets of the run, each with the same branch.  A chunk is ``(labels,
    norms, ways)``, each with one column per set and the sets of one chunk
    of one size: ``labels`` holds each event's class, ``norms`` each set's
    deviation from the ideal output and success mass, and ``ways`` how
    many sets of the run it stands for, the product of its flips' C(m, j).
    The sizes come in increasing order.

    Every event and every ideal rotation is a diagonal phase, a power of
    exp(i pi/8), so the pre-measurement state a set leaves has amplitudes
    exp(i pi/8 a) / sqrt(2^n), where the integer a (mod 16) sums the
    exponents of the ideal rotations (:func:`pauli.phase_exponents`) and
    of the set's events.  The checks' projection averages over the check
    qubits, and the ideal output is a vector phi of the other qubits
    (``Circuit.ideal_kept``) times |+> on the checks, so a branch reads
    through its sums r over the check bits: mass |r|^2 and deviation
    |r - <phi|r> phi|^2, scaled so that the zero-event branch has mass 1.
    The consumption flips, on the outputs, commute with the projection.

    Only the sets the checks can let through are read.  An event is a
    Pauli P of Z type (a P_{pi/2} branch, or a flip) or a mix of I and P
    (a P_{+-pi/4} branch), and P flips the checks of its check pattern, the
    checks in its support.  So a set's branch expands into Pauli terms,
    each flipping the XOR of its Paulis' patterns, and a term that flips a
    check projects to 0.  A set none of whose terms reaches pattern 0 has
    r = 0 exactly (most 15-to-1 triples) and is skipped; every set below
    ``order`` events carries the patterns its terms reach, from which its
    growths' are read.  The sets that can pass are grown, in order, from
    blocks of sets and events, and read in chunks of ``_BLOCK_BYTES``, one
    chunk across sizes, their phases looked up two check bits at a time.
    A set read with r = 0 all the same is left out.
    """
    c = schedule.circuit
    checks = sorted(c.check_qubits)
    rest = [q for q in range(c.n) if q not in c.check_qubits]
    index = np.arange(1 << c.n)
    # the basis index of each position, with the check bits fastest
    basis = sum(((index >> pos) & 1) << q
                for pos, q in enumerate(checks + rest))
    # the ideal rotations' exponents at each position
    pre = phase_exponents(c.rotations, c.n)[basis]
    bits = {q: 1 << i for i, q in enumerate(checks)}
    # each event's class and check pattern, and the event that starts the
    # next channel (a rotation's branches are adjacent), with each
    # rotation's exponents of a pi/8 turn about its axis
    labels, patterns, ends, turns = [], [], [], []
    flips = Counter()  # the multiplicity of each (qubit, class) of Z flips
    for _, source, operator, target, kind in schedule.events:
        if source == "rotation":
            turns.append(phase_exponents(
                [Rotation(operator.axis, RotationAngle(1))], c.n))
            labels += partition[kind:kind + 3]
            patterns += [sum(bits.get(q, 0)
                             for q in operator.axis.support)] * 3
            ends += [len(labels)] * 3
        elif operator == "Z":  # the X flips are left out
            flips[target, partition[kind]] += 1
    mults = np.array([1] * len(labels) + list(flips.values()),
                     dtype=np.int64)
    for q, label in flips:
        labels.append(label)
        patterns.append(bits.get(q, 0))
        ends.append(len(labels))
    # a substitution of k pi/8 adds k pi/8 turns; a flip adds 8 where its
    # Z reads -1
    dim = 1 << c.n
    steps = np.concatenate([
        np.multiply.outer(np.array(turns, dtype=np.int64), SUBSTITUTIONS
                          ).transpose(0, 2, 1).reshape(-1, dim),
        4 * (1 - np.array([z_signs(1 << q, c.n) for q, _ in flips],
                          dtype=np.int64).reshape(-1, dim))])
    steps = (steps[:, basis] % 16).astype(np.uint8)
    # a P_{+-pi/4} branch mixes I and P; a P_{pi/2} branch and a flip are
    # Paulis
    quarters = np.array([k % 8 != 4 for k in SUBSTITUTIONS] * len(turns)
                        + [False] * len(flips))
    ends = np.array(ends, dtype=np.int32)
    labels = np.array(labels, dtype=np.uint8)
    patterns = np.array(patterns)
    # the pattern a Pauli of each event's pattern turns each pattern into
    moves = np.arange(1 << len(checks)) ^ patterns[:, None]
    shape = (1 << len(rest), 1 << len(checks))
    phi = c.ideal_kept
    unit = 2.0 ** -(c.n + len(checks))  # |r|^2 of a pure |+>^n start is 1
    # each entry of r is a sum of 2^nc unit roots, an algebraic integer:
    # 0, or of norm (the product of its 8 conjugates, each at most 2^nc in
    # modulus) a nonzero integer and so at least 2^(-7 nc) in modulus.  A
    # 0 reads within about 4^nc eps, so a branch the checks reject reads
    # |r|^2 below this, and any other above it
    rejected = 2.0 ** (-14 * len(checks) - 2)

    def read(expo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (dev, mass) rows of the branches of these exponents, and
        whether the checks let each through."""
        # positions 2j and 2j + 1 differ in the first check bit only
        pairs = expo[:, ::2] << 4
        pairs |= expo[:, 1::2]
        # einsum's own loop: no BLAS call, and 6x .sum's speed on these rows
        r = np.einsum("ijk->ij", _PAIRS.take(pairs).reshape(
            (len(expo), shape[0], -1)))
        norms = np.empty((2, len(expo)))
        squares = r.view(np.float64)
        np.einsum("ij,ij->i", squares, squares, out=norms[1])
        r -= np.multiply.outer(r @ phi.conj(), phi)
        np.einsum("ij,ij->i", squares, squares, out=norms[0])
        return norms * unit, norms[1] > rejected

    def flush(pieces):
        """Read the pieces' sets in one chunk, and yield each piece's kept
        sets."""
        expo = np.concatenate([piece[1] for piece in pieces])
        # r @ phi rounds a lone row otherwise (BLAS's dot) than the rows of
        # a matrix, so a lone set is read twice; only the empty set, of
        # its own size, is read alone
        norms, through = read(np.concatenate([expo, expo]) if len(expo) == 1
                              else expo)
        lo = 0
        for sets, _, ways in pieces:
            at = np.flatnonzero(through[lo:lo + len(ways)])
            yield labels.take(sets[:, at]), norms[:, lo + at], ways[at]
            lo += len(ways)

    def grow(rows, new):
        """The sets ``rows`` of the last size grown by the events ``new``,
        their exponents, and the sets of the run each stands for."""
        sets = np.empty((len(every) + 1, len(rows)), dtype=np.uint8)
        sets[:-1], sets[-1] = every.take(rows, axis=1), new
        # C(m, j) = C(m, j - 1) (m - j + 1) / j, j the new event's count
        j = (sets == new).sum(axis=0)
        grown_ways = ways.take(rows) * (mults.take(new) - j + 1) // j
        grown = expo.take(rows, axis=0) + steps.take(new, axis=0)
        grown &= 15
        return sets, grown, grown_ways

    # every set of the last size, their exponents, the sets of the run each
    # stands for, its first event to add and the patterns its terms reach
    every, expo = np.zeros((0, 1), dtype=np.uint8), pre[None]
    ways = np.ones(1, dtype=np.int64)
    start = np.zeros(1, dtype=np.int32)
    reach = np.arange(1 << len(checks))[None] == 0
    yield labels.take(every), read(expo)[0], ways
    events = np.arange(len(labels))
    per = max(1, _BLOCK_BYTES // (16 << c.n))
    block = max(1, _POSITIONS // len(labels))
    pieces, held = [], 0
    for k in range(1, order + 1):
        # each set grows by each event from its start on; a growth can pass
        # if a term of the set reaches the new Pauli's pattern, or, for a
        # mix, pattern 0
        grown = []
        for lo in range(0, len(start), block):
            valid = events >= start[lo:lo + block, None]
            can = reach[lo:lo + block].take(patterns, axis=1)
            can |= reach[lo:lo + block, :1] & quarters
            can &= valid
            rows, new = np.nonzero(can)
            rows += lo
            at = 0
            while at < len(rows):
                end = at + per - held
                pieces.append(grow(rows[at:end], new[at:end]))
                held += len(pieces[-1][2])
                at = end
                if held == per:
                    yield from flush(pieces)
                    pieces, held = [], 0
            if k < order:
                rows, new = np.nonzero(valid)
                grown.append((rows + lo, new))
        if k < order:
            rows, new = map(np.concatenate, zip(*grown))
            parents = reach.take(rows, axis=0)
            reach = np.take_along_axis(parents, moves.take(new, axis=0),
                                       axis=1)
            reach |= parents & quarters.take(new)[:, None]
            every, expo, ways = grow(rows, new)
            last = every[-1]
            count = (every == last).sum(axis=0)
            start = np.where(count < mults.take(last), last, ends.take(last))
    if pieces:
        yield from flush(pieces)


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
        # each signature's slices of a row, read in place: no list of the
        # whole row (a 15-to-1's would add 0.8 MB to a sweep's peak) and no
        # list per slice
        rows = list(zip(map(memoryview, upper), map(memoryview, lower)))
        sums += [[math.fsum(itertools.chain(u[lo:hi], v[lo:hi]))
                  for u, v in rows]
                 for lo, hi in zip(bounds, bounds[1:])]
        padded = np.full((order, len(starts)), width, dtype=np.intp)
        padded[:k] = labels[:, by_key[starts]]
        terms.append(padded)
        if k <= 1:
            low += len(starts)
    table = EventSets(np.concatenate(terms, axis=1), np.array(sums).T.copy(),
                      low)
    table.terms.flags.writeable = table.sums.flags.writeable = False
    return table


def read_p_out(table: EventSets, odds: list[float], outputs: int
               ) -> tuple[float, float]:
    """(p_out, its floor) of a run without X flips from its signature
    sums, each times the run's success mass T relative to its zero-event
    branch's, each class of events having the odds ``odds[i]``.

    A set E weighs prod over E of the odds p_e / keep_e relative to the
    zero-event run, and every set of one signature weighs the same.  The
    read is N / outputs, N = sum(weight * dev), a correctly rounded sum
    (``math.fsum``) over the signatures; the run's p_out is N / (outputs
    * T), T = sum(weight * mass) >= 1, which the read does not sum, since a
    bound from a run's zero-event mass up needs only N
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
