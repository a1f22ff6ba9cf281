"""Tests for the graded density-matrix engine against the dense oracle.

The dense reference in ``oracle.py`` implements the same channels; on any
Z-type channel sequence whose error-event count stays within the graded
engine's kmax, materializing the graded state must reproduce the dense
state exactly.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msdsim.density import (
    GradedDensityMatrix,
    RotationErrorProfile,
    StorageRates,
    _z_classes,
    pure_state_infidelity,
)
from msdsim.pauli import PauliProduct, z_signs
from oracle import DensityMatrix, materialize


def _random_z_axis(rng: np.random.Generator, n: int) -> PauliProduct:
    mask = int(rng.integers(1, 1 << n))
    return PauliProduct("".join("Z" if mask >> i & 1 else "I"
                                for i in range(n)))


def _random_ops(rng: np.random.Generator, n: int, count: int):
    """A list of (kind, args) channel applications on n qubits."""
    ops = []
    for _ in range(count):
        if rng.choice(["rotation", "storage"]) == "rotation":
            probs = rng.uniform(0.0, 0.03, size=3)
            profile = RotationErrorProfile(
                probs[0], probs[1], probs[2],
                p_z_output=float(rng.uniform(0.0, 0.02)),
            )
            ops.append((
                "rotation",
                (_random_z_axis(rng, n), profile, frozenset({0}),
                 int(rng.choice([1, -1]))),
            ))
        else:
            rates = StorageRates(float(rng.uniform(0.0, 0.01)),
                                 float(rng.uniform(0.0, 0.01)))
            ops.append(("storage", (int(rng.integers(0, n)), rates,
                                    float(rng.uniform(0.5, 3.0)))))
    return ops


def _draw_ops(draw, n: int):
    """A shuffled channel sequence with a rotation and storage on every qubit.

    Probabilities come from the small range the circuits use or, in about
    half the sequences, also from the whole allowed range, where the error
    branches outweigh the kept branch (keep probability 0, a large output
    Z, storage next to its bound).  Every op adds at most two error events
    (a rotation has one output qubit), so kmax = 2 * len(ops) truncates
    nothing.
    """
    prob = st.floats(0.0, 0.03)
    wide = draw(st.booleans())

    def either(small, large):
        return st.one_of(small, large) if wide else small

    def z_axis():
        mask = draw(st.integers(1, (1 << n) - 1))
        return PauliProduct("".join("Z" if mask >> i & 1 else "I"
                                    for i in range(n)))

    def rotation():
        big = st.floats(0.0, 1.0 / 3.0)
        profile = draw(either(
            st.builds(RotationErrorProfile, prob, prob, prob,
                      p_z_output=st.floats(0.0, 0.02)),
            st.builds(RotationErrorProfile, big, big, big,
                      p_z_output=st.floats(0.0, 0.99))
            | st.just(RotationErrorProfile(0.5, 0.25, 0.25, 0.9)),
        ))
        return ("rotation", (z_axis(), profile,
                             frozenset({draw(st.integers(0, n - 1))}),
                             draw(st.sampled_from([1, -1]))))

    def storage(qubit):
        cycles = draw(st.floats(0.5, 3.0))
        # a rate below 1 whose flip probability cycles * rate is at least
        # 0.45 and, from one cycle on, at least 0.9
        near_bound = st.floats(0.9, 0.999).map(lambda p: p / max(cycles, 1.0))
        rate = either(st.floats(0.0, 0.01), near_bound)
        return ("storage", (qubit, StorageRates(draw(rate), draw(rate)),
                            cycles))

    ops = [storage(q) for q in range(n)] + [rotation()]
    for kind in draw(st.lists(st.sampled_from("rs"), max_size=3)):
        if kind == "r":
            ops.append(rotation())
        else:
            ops.append(storage(draw(st.integers(0, n - 1))))
    return draw(st.permutations(ops))


def _state_bytes(state) -> tuple:
    """Raw bytes of every array a graded state holds, branch store included."""
    return (state.pure.tobytes(), state.grades.tobytes(),
            np.asarray(state.pullback).tobytes(), state.scale,
            tuple((w, row.tobytes()) for w, row in state.births))


def _apply(state, op):
    kind, args = op
    if kind == "rotation":
        return state.apply_faulty_rotation(args[0], args[1], args[2],
                                           sign=args[3])
    return state.apply_storage(*args)


class TestDensityMatrix:
    def test_init_plus_is_valid(self):
        rho = DensityMatrix.init_plus(3)
        rho.validate()
        plus = np.full(8, 8.0 ** -0.5)
        np.testing.assert_allclose(rho.fidelity_with_pure(plus), 1.0,
                                   rtol=1e-12)

    def test_qubit_count_bounds(self):
        with pytest.raises(ValueError):
            DensityMatrix.init_plus(0)
        with pytest.raises(ValueError):
            DensityMatrix.init_plus(11)

    def test_channels_preserve_state_invariants(self):
        # Randomized channel applications keep the state a density matrix:
        # unit trace, Hermitian, positive semidefinite.
        rng = np.random.default_rng(42)
        applications = 0
        for _ in range(10):
            rho = DensityMatrix.init_plus(3)
            for op in _random_ops(rng, 3, 20):
                rho = _apply(rho, op)
                rho.validate()
                applications += 1
        assert applications == 200

    def test_projection_renormalizes(self):
        rng = np.random.default_rng(7)
        rho = DensityMatrix.init_plus(3)
        for op in _random_ops(rng, 3, 12):
            rho = _apply(rho, op)
        projected, p_fail = rho.project_plus(frozenset({1, 2}))
        projected.validate()
        assert 0.0 <= p_fail < 1.0
        with pytest.raises(ValueError):
            rho.project_plus(frozenset())

    def test_full_strength_pauli_channels(self):
        # A certain Z flip turns |+> into |->; a certain X flip fixes |+>.
        rho = DensityMatrix.init_plus(1)
        flipped = rho.apply_storage(0, StorageRates(0.0, 0.5), 1.9999)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        assert flipped.fidelity_with_pure(minus) == pytest.approx(
            0.99995, rel=1e-9)
        fixed = rho.apply_storage(0, StorageRates(0.5, 0.0), 1.5)
        assert fixed.fidelity_with_pure(plus) == pytest.approx(1.0)

    def test_storage_probability_bound(self):
        rho = DensityMatrix.init_plus(1)
        with pytest.raises(ValueError):
            rho.apply_storage(0, StorageRates(0.3, 0.0), 4.0)
        with pytest.raises(ValueError):
            rho.apply_storage(1, StorageRates(0.1, 0.1), 1.0)


class TestProfiles:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RotationErrorProfile(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            RotationErrorProfile(0.5, 0.4, 0.2)

    def test_storage_rates_validation(self):
        with pytest.raises(ValueError):
            StorageRates(-0.1, 0.0)
        with pytest.raises(ValueError):
            StorageRates(0.0, 1.5)


class TestGradedAgainstDense:
    def test_materialized_sequences_agree(self):
        rng = np.random.default_rng(2024)
        for trial in range(6):
            n = int(rng.integers(2, 4))
            ops = _random_ops(rng, n, 10)
            dense = DensityMatrix.init_plus(n)
            # every op contributes at most two error events (branch plus
            # output Z, or X plus Z storage), so this kmax loses nothing
            graded = GradedDensityMatrix.init_plus(n, kmax=2 * len(ops))
            for op in ops:
                dense = _apply(dense, op)
                graded = _apply(graded, op)
            np.testing.assert_allclose(graded.trace_total(), 1.0, rtol=1e-12)
            np.testing.assert_allclose(
                materialize(graded).data, dense.data, atol=1e-12
            )

    # n=7 updates one grade per block, n=5 several, n=2 all; every case
    # checks kmax = 2 * len(ops) against the dense oracle, and kmax 1 and 2
    # also run truncated
    @pytest.mark.parametrize("kmax", [1, 2, None])
    @pytest.mark.parametrize("n", [2, 5, 7])
    @settings(max_examples=5)
    @given(data=st.data())
    def test_any_channel_sequence_agrees(self, n, kmax, data):
        ops = _draw_ops(data.draw, n)
        states = [DensityMatrix.init_plus(n),
                  GradedDensityMatrix.init_plus(n, kmax=2 * len(ops))]
        if kmax is not None:
            states.append(GradedDensityMatrix.init_plus(n, kmax=kmax))
        for op in ops:
            states = [_apply(state, op) for state in states]
        dense, graded, *truncated = states
        np.testing.assert_allclose(graded.trace_total(), 1.0, rtol=1e-12)
        assert np.max(np.abs(materialize(graded).data - dense.data)) <= 1e-12
        for cut in truncated:
            # grades up to k do not depend on kmax: the truncated run is
            # the full run's prefix, bit for bit
            assert cut.pure.tobytes() == graded.pure.tobytes()
            assert cut.grades.tobytes() == graded.grades[:kmax].tobytes()
            dropped = 1.0 - cut.trace_total()
            assert dropped >= -1e-12
            gap = np.max(np.abs(materialize(cut).data - dense.data))
            assert gap <= dropped + 1e-12

    def test_channels_leave_their_input_unchanged(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 7):
            state = GradedDensityMatrix.init_plus(n, kmax=3)
            for op in _random_ops(rng, n, 6):
                state = _apply(state, op)
            axis = PauliProduct("Z" * n)
            channels = [
                lambda s: s.apply_faulty_rotation(
                    axis, RotationErrorProfile(0.01, 0.02, 0.03, 0.01),
                    frozenset({0, n - 1})),
            ] + [
                lambda s, q=q, rates=rates: s.apply_storage(q, rates, 2.0)
                for q in range(n)
                for rates in (StorageRates(0.01, 0.0), StorageRates(0.0, 0.01),
                              StorageRates(0.01, 0.02), StorageRates(0.0, 0.0))
            ] + [lambda s: s.project_plus(frozenset({n - 1}))]
            for channel in channels:
                before = _state_bytes(state)
                channel(state)
                assert _state_bytes(state) == before

    def test_owned_state_matches_the_functional_one(self):
        # an owned state's channels update its stack in place and give the
        # same state bit for bit, projection included
        rng = np.random.default_rng(13)
        for n, kmax in ((2, 1), (5, 3), (7, 2)):
            functional = GradedDensityMatrix.init_plus(n, kmax=kmax)
            owned = GradedDensityMatrix.init_plus(n, kmax=kmax)._owned()
            stack = owned.grades
            ops = _random_ops(rng, n, 8)
            for i, op in enumerate(ops):
                functional, owned = _apply(functional, op), _apply(owned, op)
                if i == len(ops) // 2:
                    functional, fail = functional.project_plus(
                        frozenset({n - 1}))
                    owned, owned_fail = owned.project_plus(frozenset({n - 1}))
                    assert owned_fail == fail
                assert _state_bytes(owned) == _state_bytes(functional)
            assert owned.grades is stack

    def test_branch_store_rebuilds_grade_one(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 7):
            state = GradedDensityMatrix.init_plus(n, kmax=2)
            weights, rows = state.grade1_branches()
            assert weights.shape == (0,) and rows.shape == (0, 1 << n)
            assert rows.dtype == np.complex128
            for op in _random_ops(rng, n, 8):
                state = _apply(state, op)
            state, _ = state.project_plus(frozenset({n - 1}))
            if n == 5:  # keep probability 0: every earlier branch is gone
                state = state.apply_faulty_rotation(
                    PauliProduct("ZZIII"),
                    RotationErrorProfile(0.5, 0.25, 0.25))
            for op in _random_ops(rng, n, 4):
                state = _apply(state, op)
            weights, rows = state.grade1_branches()
            assert len(weights) == len(rows) > 0
            rebuilt = np.einsum("i,ij,ik->jk", weights, rows, rows.conj())
            np.testing.assert_allclose(rebuilt, state.grades[0], rtol=0,
                                       atol=1e-12)

    def test_z_flip_is_exact(self):
        # +-p factors are exact in any operand order, so a Z flip's grades
        # equal the textbook (1 - p) g_k + p (s s^T) o g_{k-1} bit for bit
        rng = np.random.default_rng(8)
        for n in (2, 5, 7):
            state = GradedDensityMatrix.init_plus(n, kmax=3)
            for op in _random_ops(rng, n, 6):
                state = _apply(state, op)
            for q, rate, cycles in ((0, 0.01, 2.0), (n - 1, 0.3, 1.5)):
                p = cycles * rate
                s = z_signs(1 << q, n)
                below = np.concatenate(
                    [np.outer(state.pure, state.pure.conj())[None],
                     state.grades[:-1]])
                want = (1.0 - p) * state.grades + (p * np.outer(s, s)) * below
                got = state.apply_storage(q, StorageRates(0.0, rate), cycles)
                assert got.grades.tobytes() == want.tobytes()

    def test_z_classes_are_memoized_and_read_only(self):
        classes = _z_classes(0b101, 3)
        assert _z_classes(0b101, 3) is classes
        assert classes.dtype == np.int8 and not classes.flags.writeable
        s = z_signs(0b101, 3)
        np.testing.assert_array_equal(classes, 1 + (s[:, None] - s) / 2)
        with pytest.raises(ValueError):
            classes[0, 0] = 1

    def test_noiseless_state_has_an_empty_branch_store(self):
        state = GradedDensityMatrix.init_plus(3, kmax=1)
        state = state.apply_faulty_rotation(
            PauliProduct("ZZI"), RotationErrorProfile(0.0, 0.0, 0.0))
        state, _ = state.project_plus(frozenset({2}))
        assert state.births == ()
        assert state.infidelity_with_pure(state.pure / np.linalg.norm(
            state.pure)) == pytest.approx(0.0, abs=1e-30)

    def test_projection_agrees(self):
        rng = np.random.default_rng(99)
        n = 3
        ops = _random_ops(rng, n, 8)
        dense = DensityMatrix.init_plus(n)
        graded = GradedDensityMatrix.init_plus(n, kmax=2 * len(ops))
        for op in ops:
            dense = _apply(dense, op)
            graded = _apply(graded, op)
        dense_p, dense_fail = dense.project_plus(frozenset({0, 2}))
        graded_p, graded_fail = graded.project_plus(frozenset({0, 2}))
        np.testing.assert_allclose(graded_fail, dense_fail, rtol=1e-10)
        np.testing.assert_allclose(
            materialize(graded_p).data, dense_p.data, atol=1e-11
        )

    def test_infidelity_agrees_with_materialized(self):
        rng = np.random.default_rng(31)
        n = 2
        ops = _random_ops(rng, n, 6)
        graded = GradedDensityMatrix.init_plus(n, kmax=2 * len(ops))
        for op in ops:
            graded = _apply(graded, op)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        direct = graded.infidelity_with_pure(psi)
        dense = materialize(graded)
        reference = 1.0 - dense.fidelity_with_pure(psi) / graded.trace_total()
        np.testing.assert_allclose(direct, reference, rtol=1e-9)

    def test_truncation_error_is_bounded(self):
        rng = np.random.default_rng(17)
        ops = _random_ops(rng, 2, 12)
        full = GradedDensityMatrix.init_plus(2, kmax=24)
        cut = GradedDensityMatrix.init_plus(2, kmax=2)
        for op in ops:
            full = _apply(full, op)
            cut = _apply(cut, op)
        dropped = 1.0 - cut.trace_total()
        assert dropped >= -1e-12
        gap = np.max(np.abs(materialize(full).data - materialize(cut).data))
        assert gap <= dropped + 1e-12

    def test_graded_requires_one_grade(self):
        with pytest.raises(ValueError, match="kmax"):
            GradedDensityMatrix.init_plus(2, kmax=0)
        GradedDensityMatrix.init_plus(2, kmax=1)

    def test_graded_rejects_non_z_axes(self):
        graded = GradedDensityMatrix.init_plus(2, kmax=2)
        with pytest.raises(ValueError):
            graded.apply_faulty_rotation(
                PauliProduct("XI"), RotationErrorProfile(0.01, 0.0, 0.0)
            )


class TestPureStateInfidelity:
    def test_exact_match_is_zero(self):
        psi = np.array([1.0, 1j]) / np.sqrt(2)
        assert pure_state_infidelity(psi, psi) == pytest.approx(0.0, abs=1e-15)
        assert pure_state_infidelity(0.3 * psi, psi) == pytest.approx(
            0.0, abs=1e-15)

    def test_orthogonal_states(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert pure_state_infidelity(a, b) == pytest.approx(1.0)

    def test_requires_normalized_reference(self):
        graded = GradedDensityMatrix.init_plus(1, kmax=1)
        with pytest.raises(ValueError):
            graded.infidelity_with_pure(np.array([1.0, 1.0]))


class TestWorkspace:
    def test_any_real_scalar_is_one_cycle_count(self):
        # NumPy scalars, 0-d arrays and Fractions count cycles as an int does
        rates = StorageRates(1e-3, 2e-3)
        state = GradedDensityMatrix.init_plus(2, kmax=2)
        want = state.apply_storage(1, rates, 3)
        for cycles in (np.int64(3), np.float64(3.0), np.array(3),
                       Fraction(3)):
            got = state.apply_storage(1, rates, cycles)
            assert np.array_equal(got.grades, want.grades)
            assert got.scale == want.scale

    def test_stack_must_hold_the_grades(self):
        stack = GradedDensityMatrix.workspace(3, 4)
        for kmax in (2, 4):
            state = GradedDensityMatrix.init_plus(3, kmax, stack=stack)
            assert np.shares_memory(state.grades, stack)
            assert not state.grades.any()
        for n, kmax in ((3, 5), (4, 2)):
            with pytest.raises(ValueError, match="cannot hold"):
                GradedDensityMatrix.init_plus(n, kmax, stack)
