"""The event-set enumeration as it was before it learned to skip the sets
that the checks reject and to read them as Pauli terms: it grows and
reads every set of up to ``order`` events in float, from its phases, in
chunks of positions, and drops a set only once it reads |r|^2 below
``rejected``.  The tests compare ``eventsets.kept_sets`` and
``eventsets.signature_sums`` against it, set by set and byte by byte,
once its reads are rounded to the exact ones' lattice of multiples of
2^-order.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from msdsim.density import SUBSTITUTIONS, _BLOCK_BYTES
from msdsim.pauli import Rotation, RotationAngle, phase_exponents, z_signs

# every phase of a run without X flips is a power of exp(i pi/8); _PAIRS
# holds the sum of powers a and b at 16 a + b
_ROOTS = np.exp(1j * np.pi / 8 * np.arange(16))
_PAIRS = (_ROOTS[:, None] + _ROOTS[None, :]).ravel()


def kept_sets(schedule, order: int):
    """Yield the runs of ``schedule`` without X flips, one per set of up to
    ``order`` error events that the checks let through, in chunks.

    The events are the Z-type entries of ``schedule.events``: each
    rotation's three substitution branches, a set holding at most one per
    rotation, and the Z flips, a rotation's output flips and every storage
    and consumption Z flip, each labelled by its kind: a rotation's
    branches ``kind`` to ``kind + 2``.  All Z flips on one qubit are the
    same operator, so the m flips of one kind on qubit q enter as one
    event of multiplicity m: a set that holds it j <= m times stands for
    C(m, j) sets of the run, each with the same branch.  A chunk is
    ``(labels, norms, ways)``, each with one column per set and the sets
    of one chunk of one size: ``labels`` holds each event's kind, ``norms``
    each set's deviation from the ideal output and success mass, and
    ``ways`` how many sets of the run it stands for, the product of its
    flips' C(m, j).  The sizes come in increasing order.

    Every event and every ideal rotation is a diagonal phase, a power of
    exp(i pi/8), so the pre-measurement state a set leaves has amplitudes
    exp(i pi/8 a) / sqrt(2^n), where the integer a (mod 16) sums the
    exponents of the ideal rotations (:func:`pauli.phase_exponents`) and
    of the set's events.  The
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
    # the ideal rotations' exponents at each position
    pre = phase_exponents(c.rotations, c.n)[basis]
    # each event's exponents and kind, and the event that starts the next
    # channel (a rotation's branches are adjacent)
    steps, labels, ends = [], [], []
    flips = Counter()  # the multiplicity of each (qubit, kind) of Z flips
    for _, source, operator, target, kind in schedule.events:
        if source == "rotation":
            for col, k in enumerate(SUBSTITUTIONS):
                steps.append(phase_exponents(
                    [Rotation(operator.axis, RotationAngle(k))], c.n)[basis])
                labels.append(kind + col)
            ends += [len(steps)] * 3
        elif operator == "Z":  # the X flips are left out
            flips[target, kind] += 1
    mults = [1] * len(steps)
    for (q, label), m in flips.items():
        steps.append((4 * (1 - z_signs(1 << q, c.n)[basis])).astype(np.int64))
        labels.append(label)
        mults.append(m)
        ends.append(len(steps))
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
