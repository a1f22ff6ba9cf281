"""The speed of the host, measured with a fixed reference computation.

The benchmark runs on shared virtual machines whose speed is set by load from
outside them: the same sample can take 1.5 s or 3 s, and slow stretches come
in bursts of a second and in phases of minutes.  ``run.py`` therefore runs
``probe`` right before and right after every child process, and every half
second while the child is stopped, and rescales the child's times to a
reference speed: it multiplies them by ``REFERENCE_S`` over the mean of the
probes around and during the child.

The reference work is the kind of work msdsim's engine does: diagonal
rotations and one-grade mixtures on a stack of six density matrices, at the
qubit count each workload names in ``workloads.PROBE_QUBITS``.  Load from
outside slows it by about as much as it slows that workload.  It never calls
msdsim, so a change to msdsim leaves it as it is.
"""
from __future__ import annotations

import time

import numpy as np

# Steps of one probe, and the seconds one probe takes on the machine the
# benchmark was defined on ("Intel Xeon Processor", 2.0 GHz) when nothing
# else slows it, by qubit count.
STEPS = {5: 300, 7: 28}
REFERENCE_S = {5: 0.038, 7: 0.032}


def _flip(mat: np.ndarray, axis: int, n: int) -> np.ndarray:
    t = mat.reshape((2,) * (2 * n))
    return np.flip(np.flip(t, axis=axis), axis=n + axis).reshape(mat.shape)


def work(n: int) -> float:
    """One probe's work on 2^n x 2^n matrices."""
    dim = 1 << n
    pure = np.full(dim, dim ** -0.5, dtype=complex)
    grades = [np.zeros((dim, dim), complex) for _ in range(6)]
    signs_of: dict[int, np.ndarray] = {}
    out = 0.0
    for step in range(STEPS[n]):
        mask = (step * 7 + 3) % dim
        if mask not in signs_of:
            parity = [bin(i & mask).count("1") & 1 for i in range(dim)]
            signs_of[mask] = 1.0 - 2.0 * np.array(parity, dtype=float)
        signs = signs_of[mask]
        d = np.exp(-1j * (np.pi / 8) * signs)
        pure = d * pure
        grades = [d[:, None] * g * d.conj()[None, :] for g in grades]
        p, qubit = 1e-3, step % n
        v = signs * pure
        mixed = [(1 - p) * g for g in grades]
        mixed[0] = mixed[0] + p * np.outer(v, v.conj())
        for k in range(1, len(grades)):
            mixed[k] = mixed[k] + p * _flip(grades[k - 1], n - 1 - qubit, n)
        grades = mixed
        pure = np.sqrt(1 - p) * pure
        out += sum(float(np.trace(g).real) for g in grades)
    return out


def probe(n: int) -> float:
    """Seconds one probe at n qubits takes now."""
    start = time.perf_counter()
    work(n)
    return time.perf_counter() - start
