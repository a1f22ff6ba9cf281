"""Tests for the graded density-matrix engine against the dense oracle.

The dense reference in ``oracle.py`` implements the same channels; on any
Z-type channel sequence whose error-event count stays within the graded
engine's kmax, materializing the graded state must reproduce the dense
state exactly.
"""
from __future__ import annotations

import copy
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msdsim.density import (
    GradedDensityMatrix,
    RotationErrorProfile,
    _rotation_tables,
    _scratch,
    _xflip_index,
    _xor_index,
    _z_classes,
    pure_state_infidelity,
)
from msdsim.noise import StorageRates
from msdsim.pauli import PauliProduct, Rotation, RotationAngle, z_signs
from oracle import DensityMatrix, full_grades, materialize


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
            axis = _random_z_axis(rng, n)
            ops.append((
                "rotation",
                (Rotation(axis, RotationAngle(int(rng.choice([1, -1])))),
                 profile, frozenset({0})),
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
    branches outweigh the kept branch (keep probability at its float
    floor, a large output Z, storage next to its bound).  Every op adds at
    most two error events (a rotation has one output qubit), so
    kmax = 2 * len(ops) truncates nothing.
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
            | st.just(RotationErrorProfile(0.5, 0.25, 0.25 - 2**-54, 0.9)),
        ))
        axis = z_axis()
        outputs = frozenset({draw(st.integers(0, n - 1))})
        angle = RotationAngle(draw(st.sampled_from([1, -1])))
        return ("rotation", (Rotation(axis, angle), profile, outputs))

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


def _apply(state, op):
    """One op on a dense or graded state.

    A rotation's output Z flips follow it as flips; storage is the oracle's
    own channel on a dense state, and an X flip then a Z flip on a graded
    one.
    """
    kind, args = op
    if kind == "rotation":
        rotation, profile, outputs = args
        state = state.apply_faulty_rotation(rotation, profile)
        return state.apply_z_flips([
            (q, profile.p_z_output)
            for q in sorted(outputs & set(rotation.axis.support))])
    qubit, rates, cycles = args
    if isinstance(state, DensityMatrix):
        return state.apply_storage(qubit, rates, cycles)
    state = state.apply_x_flip(qubit, cycles * rates.pX)
    return state.apply_z_flips([(qubit, cycles * rates.pZ)])


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


def _reference_tables(profile, sign: int):
    """(keep, ideal, odds) of a +-pi/8 rotation by class, from its error
    branches written out as (probability, extra angle in radians) pairs:
    the reference for the tables that the engine builds from
    ``profile.branches``."""
    step = np.array([-2.0, 0.0, 2.0])  # s_i - s_j of each class
    keep = 1.0 - profile.p_half - profile.p_quarter - profile.p_mquarter
    ideal = np.exp(-1j * (sign * np.pi / 8) * step)
    errors = [(profile.p_half, np.pi / 2), (profile.p_quarter, np.pi / 4),
              (profile.p_mquarter, -np.pi / 4)]
    errs = ideal * sum(p * np.exp(-1j * extra * step) for p, extra in errors)
    return keep, ideal, errs / keep


class TestProfiles:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RotationErrorProfile(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            RotationErrorProfile(0.5, 0.4, 0.2)

    def test_a_profile_must_leave_a_keep_probability(self):
        # the keep, 1 - p_half - p_quarter - p_mquarter in that order, is
        # the engine's; the profile rejects it at 0, and also where exact
        # arithmetic leaves 2**-55 but the rounded subtractions leave 0
        with pytest.raises(ValueError, match="keep"):
            RotationErrorProfile(0.5, 0.25, 0.25)
        probs = (3 * 2.0**-55, 0.5, 0.5 - 2.0**-53)
        assert 1 - sum(map(Fraction, probs)) == Fraction(2)**-55
        with pytest.raises(ValueError, match="keep"):
            RotationErrorProfile(*probs)
        # the smallest keep above 0 stands
        RotationErrorProfile(0.5, 0.25, 0.25 - 2.0**-54)

    def test_branches_pair_each_probability_with_its_angle(self):
        f = RotationErrorProfile(0.01, 0.02, 0.03, 0.04)
        assert f.branches == ((0.01, 4), (0.02, 2), (0.03, -2))
        assert f.p_error == 0.01 + 0.02 + 0.03
        # fields of their own, outside equality, hash and repr
        assert f == RotationErrorProfile(0.01, 0.02, 0.03, 0.04)
        assert hash(f) == hash(RotationErrorProfile(0.01, 0.02, 0.03, 0.04))
        assert "branches" not in repr(f) and "p_error" not in repr(f)
        # the extra angles in radians, exactly
        assert [k * np.pi / 8 for _, k in f.branches] == [
            np.pi / 2, np.pi / 4, -np.pi / 4]

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
            if n == 5:  # keep probability 1e-4: the new branches outweigh
                state = state.apply_faulty_rotation(
                    Rotation(PauliProduct("ZZII"), RotationAngle(1)),
                    RotationErrorProfile(0.5, 0.25, 0.2499))
            for op in _random_ops(rng, n - 1, 4):
                state = _apply(state, op)
            weights, rows = state.grade1_branches()
            assert len(weights) == len(rows) > 0
            rebuilt = np.einsum("i,ij,ik->jk", weights, rows, rows.conj())
            np.testing.assert_allclose(rebuilt, state.scale * state.grades[0],
                                       rtol=0, atol=1e-12)

    def test_z_flip_is_exact(self):
        # the stack is stored divided by the scale, which a flip multiplies
        # by 1 - p; +-p/(1 - p) factors are exact in any operand order, so
        # a lone Z flip's stored grades equal
        # H_k + (p/(1 - p)) (s s^T) o H_{k-1}, with H_0 the stored grade 0,
        # and a lone X flip's grades k >= 2 equal
        # H_k + (p/(1 - p)) X H_{k-1} X, bit for bit
        rng = np.random.default_rng(8)
        for n in (2, 5, 7):
            state = GradedDensityMatrix.init_plus(n, kmax=3)
            for op in _random_ops(rng, n, 6):
                state = _apply(state, op)
            # every qubit in the stack, so that it is the full matrix (an X
            # flip on a qubit outside the stack leaves it out)
            state._enter((1 << n) - 1)
            for q, p in ((0, 0.02), (n - 1, 0.45)):
                odds = p / (1.0 - p)
                s = z_signs(1 << q, n)
                below = state._stacks[:-1, 0]
                want = state.grades + (odds * np.outer(s, s)) * below
                got = copy.deepcopy(state).apply_z_flips([(q, p)])
                assert got.grades.tobytes() == want.tobytes()
                assert got.scale == state.scale * (1.0 - p)
                flip = np.arange(1 << n) ^ (1 << q)
                want = (state.grades[1:]
                        + state.grades[:-1][:, flip][:, :, flip] * odds)
                got = copy.deepcopy(state).apply_x_flip(q, p)
                assert got.grades[1:].tobytes() == want.tobytes()
                assert got.scale == state.scale * (1.0 - p)

    def test_z_classes_are_memoized_and_read_only(self):
        classes = _z_classes(0b101, 3)
        assert _z_classes(0b101, 3) is classes
        assert classes.dtype == np.int8 and not classes.flags.writeable
        s = z_signs(0b101, 3)
        np.testing.assert_array_equal(classes, 1 + (s[:, None] - s) / 2)
        with pytest.raises(ValueError):
            classes[0, 0] = 1

    def test_rotation_tables_are_memoized_and_read_only(self):
        # by (profile, k): an equal profile reads the same tables
        tables = _rotation_tables(RotationErrorProfile(0.01, 0.02, 0.03), -1)
        assert _rotation_tables(RotationErrorProfile(0.01, 0.02, 0.03),
                                -1) is tables
        keep, ideal, odds = tables
        assert keep == 1.0 - 0.01 - 0.02 - 0.03
        assert not any(t.flags.writeable for t in (ideal, odds))

    @settings(max_examples=60)
    @given(profile=st.builds(RotationErrorProfile, st.floats(0.0, 0.33),
                             st.floats(0.0, 0.33), st.floats(0.0, 0.33)),
           k=st.sampled_from([1, -1]))
    def test_rotation_tables_are_the_bytes_of_a_list_of_branches(
            self, profile, k):
        # the tables from the profile's branches are those of its three
        # branches written out in radians, byte for byte
        keep, ideal, odds = _rotation_tables(profile, k)
        want_keep, want_ideal, want_odds = _reference_tables(profile, k)
        assert keep == want_keep
        assert ideal.tobytes() == want_ideal.tobytes()
        assert odds.tobytes() == want_odds.tobytes()

    def test_noiseless_state_has_an_empty_branch_store(self):
        state = GradedDensityMatrix.init_plus(3, kmax=1)
        state = state.apply_faulty_rotation(
            Rotation(PauliProduct("ZZI"), RotationAngle(1)),
            RotationErrorProfile(0.0, 0.0, 0.0))
        state, _ = state.project_plus(frozenset({2}))
        assert state.births == ()
        assert state.infidelity_with_pure(state.pure / np.linalg.norm(
            state.pure)) == pytest.approx(0.0, abs=1e-30)

    def test_projection_agrees(self):
        # the graded projection keeps the unmeasured qubits: the oracle's
        # projection traced down to them
        rng = np.random.default_rng(99)
        for n, checks in ((3, {0, 2}), (3, {1}), (5, {1, 2, 3, 4}),
                          (7, {4, 5, 6})):
            ops = _random_ops(rng, n, 8)
            dense = DensityMatrix.init_plus(n)
            graded = GradedDensityMatrix.init_plus(n, kmax=2 * len(ops))
            for op in ops:
                dense = _apply(dense, op)
                graded = _apply(graded, op)
            dense_p, dense_fail = dense.project_plus(frozenset(checks))
            graded_p, graded_fail = graded.project_plus(frozenset(checks))
            assert graded_p.n == dense_p.n == n - len(checks)
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

    @pytest.mark.parametrize("channel", [
        lambda rho: rho.apply_z_flips([(0, 1 - 2**-52)] * 25),
        lambda rho: rho.apply_absorbed_flips([1 - 2**-52] * 25),
        lambda rho: rho.apply_z_flips([(0, 1e-3), (1, 1e-3)]).release(
            0, np.array([1.0, 1.0]) / np.sqrt(2.0), [("Z", 1 - 2**-52)] * 25),
    ], ids=["z_flips", "absorbed", "release"])
    def test_a_flip_pass_whose_keep_underflows_raises(self, channel):
        # prod (1 - p)^m = 2**-1300 rounds to 0, and the pass would divide
        # by it; the release's state has both qubits in the stack
        rho = GradedDensityMatrix.init_plus(2, kmax=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="keep is numerically zero"):
                channel(rho)

    def test_graded_rejects_non_z_axes(self):
        graded = GradedDensityMatrix.init_plus(2, kmax=2)
        with pytest.raises(ValueError):
            graded.apply_faulty_rotation(
                Rotation(PauliProduct("XI"), RotationAngle(1)),
                RotationErrorProfile(0.01, 0.0, 0.0))


def _masses(state) -> list[float]:
    """The trace of each grade of a graded state, the zero-error branch
    as grade 0."""
    return [np.vdot(state.pure, state.pure).real] + [
        state.scale * np.trace(g).real for g in state.grades]


def _assert_same_state(a, b, masses=None):
    """Two graded states agree within 4 eps of ``masses[k]`` in each grade
    k, which are a's own by default: the zero-error branch as grade 0,
    each stored grade, and grade 1 as the branch store rebuilds it."""
    assert a is not b
    eps = np.finfo(float).eps
    masses = _masses(a) if masses is None else masses

    def grades(state):
        w, rows = state.grade1_branches()
        return [np.outer(state.pure, state.pure.conj()),
                *(state.scale * state.grades),
                np.einsum("i,ij,ik->jk", w, rows, rows.conj())]

    for mass, ga, gb in zip(masses + masses[1:2], grades(a), grades(b)):
        assert np.max(np.abs(ga - gb)) <= 4 * eps * mass


class TestWaitingFlips:
    """The identities that let a schedule run hold its X flips back."""

    def test_an_x_flip_commutes_with_what_lacks_its_qubit(self):
        # with a rotation whose axis lacks its qubit and with Z flips on
        # any qubit, its own included
        rng = np.random.default_rng(23)
        for n in (2, 5, 7):
            state = GradedDensityMatrix.init_plus(n, kmax=3)
            for op in _random_ops(rng, n, 6):
                state = _apply(state, op)
            for q in range(n):
                mask = int(rng.integers(1, 1 << (n - 1)))
                mask = (mask >> q << (q + 1)) | (mask & ((1 << q) - 1))
                axis = PauliProduct("".join("Z" if mask >> i & 1 else "I"
                                            for i in range(n)))
                others = [
                    lambda s: s.apply_faulty_rotation(
                        Rotation(axis, RotationAngle(-1)),
                        RotationErrorProfile(0.01, 0.02, 0.03)),
                    lambda s: s.apply_z_flips([(q, 0.03),
                                               ((q + 1) % n, 0.01)]),
                ]
                for other in others:
                    _assert_same_state(
                        other(copy.deepcopy(state).apply_x_flip(q, 0.02)),
                        other(copy.deepcopy(state)).apply_x_flip(q, 0.02))

    @pytest.mark.parametrize("n, checks", [
        (2, {1}), (4, {0, 2}), (5, {1, 2, 3, 4}), (7, {4, 5, 6})])
    def test_an_x_flip_passes_the_projection(self, n, checks):
        # on a kept qubit it runs on the projected state, on that qubit's
        # number among the kept ones; on a check, (I + X)/2 X = (I + X)/2:
        # the flip leaves the projected state as it is and moves p of it
        # up a grade, an absorbed flip.  No grade is dropped here,
        # which would change the trace that p_fail divides by.  After two
        # flips, grade k agrees within 4 eps of the mass that grades k - 2
        # to k held before the projection: the checks reject most of it
        rng = np.random.default_rng(29)
        ops = _random_ops(rng, n, 6)
        state = GradedDensityMatrix.init_plus(n, kmax=2 * len(ops) + 2)
        for op in ops:
            state = _apply(state, op)
        checks = frozenset(checks)
        kept, kept_fail = copy.deepcopy(state).project_plus(checks)
        before = [0.0, 0.0] + _masses(state)
        masses = [sum(before[k:k + 3]) / (1.0 - kept_fail)
                  for k in range(state.kmax + 1)]
        for q in checks:
            flipped, fail = (copy.deepcopy(state).apply_x_flip(q, 0.03)
                             .apply_x_flip(max(checks), 0.01)
                             .project_plus(checks))
            assert fail == pytest.approx(kept_fail, rel=1e-13)
            _assert_same_state(
                flipped,
                copy.deepcopy(kept).apply_absorbed_flips([0.03, 0.01]),
                masses)
        outputs = [q for q in range(n) if q not in checks]
        for i, q in enumerate(outputs):
            flipped, fail = (copy.deepcopy(state).apply_x_flip(q, 0.03)
                             .project_plus(checks))
            assert fail == pytest.approx(kept_fail, rel=1e-13)
            _assert_same_state(flipped,
                               copy.deepcopy(kept).apply_x_flip(i, 0.03),
                               masses)

    def test_an_absorbed_flip_needs_no_qubit(self):
        # with every qubit measured, the kept state has none, and a flip
        # that waited on a check is still only a grade shift
        state = GradedDensityMatrix.init_plus(2, kmax=2).apply_x_flip(0, 0.02)
        kept, _ = state.project_plus(frozenset({0, 1}))
        assert kept.n == 0
        shifted = copy.deepcopy(kept).apply_absorbed_flips([0.03])
        np.testing.assert_allclose(shifted.trace_total(), kept.trace_total(),
                                   rtol=1e-13)
        with pytest.raises(ValueError, match="probability"):
            kept.apply_absorbed_flips([1.0])


@st.composite
def _z_flip_cases(draw):
    """(n, kmax, prefix ops, flips): a state made by rotations, X flips and
    projections, then a list of Z flips on it.

    Each projection measures one qubit and leaves the state on the others,
    so the ops and flips after it draw their qubits from the lower count.
    Flips repeat qubits and whole (qubit, p) pairs, and their
    probabilities include 0 and values close to 1, where most of the mass
    leaves the kept branch.
    """
    n = m = draw(st.integers(1, 5))
    kmax = draw(st.integers(1, 4))
    prob = st.floats(0.0, 0.03)
    ops = []
    for kind in draw(st.lists(st.sampled_from("rxp"), max_size=5)):
        if kind == "r":
            mask = draw(st.integers(1, (1 << m) - 1))
            axis = PauliProduct("".join("Z" if mask >> i & 1 else "I"
                                        for i in range(m)))
            profile = draw(st.builds(RotationErrorProfile, prob, prob, prob))
            angle = RotationAngle(draw(st.sampled_from([1, -1])))
            ops.append(("rotation", (Rotation(axis, angle), profile)))
        elif kind == "x":
            ops.append(("x", (draw(st.integers(0, m - 1)),
                              draw(st.floats(0.0, 0.5)))))
        elif m > 1:
            ops.append(("project", frozenset({draw(st.integers(0, m - 1))})))
            m -= 1
    p = st.one_of(st.just(0.0), prob, st.floats(0.0, 0.999),
                  st.floats(0.999, 1.0, exclude_max=True))
    flips = draw(st.lists(st.tuples(st.integers(0, m - 1), p), max_size=4))
    flips += flips[:draw(st.integers(0, len(flips)))]
    return n, kmax, ops, draw(st.permutations(flips))


def _run_prefix(state, ops):
    for kind, args in ops:
        if kind == "rotation":
            state = state.apply_faulty_rotation(*args)
        elif kind == "x":
            state = state.apply_x_flip(*args)
        else:
            state, _ = state.project_plus(args)
    return state


@pytest.mark.parametrize("p", [1e-3, 1e-12, 3e-14])
def test_p_fail_is_the_rejected_mass(p):
    # a Z flip on a check is rejected whole and one on the kept qubit never,
    # so p_fail is p or 0, to a few eps of p; 1 - p_success would cancel,
    # 2.2e-5 of p off at p = 1e-12
    for qubit, want in ((1, p), (2, p), (0, 0.0)):
        state = GradedDensityMatrix.init_plus(3).apply_z_flips([(qubit, p)])
        _, p_fail = state.project_plus(frozenset({1, 2}))
        assert abs(p_fail - want) <= 4 * np.finfo(float).eps * p, qubit


class TestZFlips:
    """One pass of Z flips against the oracle's channel-by-channel ones."""

    @settings(max_examples=60, deadline=None)
    @given(case=_z_flip_cases())
    def test_one_pass_agrees_with_the_oracle(self, case):
        n, kmax, ops, flips = case
        # every op and flip adds at most one error event, so this loses
        # nothing, and it holds the kmax grades of the cut state
        full = kmax + len(ops) + len(flips)
        dense = _run_prefix(DensityMatrix.init_plus(n), ops)
        states = [_run_prefix(GradedDensityMatrix.init_plus(n, k), ops)
                  for k in (full, kmax)]
        apart = copy.deepcopy(states[1])
        graded, cut = [state.apply_z_flips(flips) for state in states]
        dense = dense.apply_z_flips(flips)

        np.testing.assert_allclose(graded.trace_total(), 1.0, rtol=1e-12)
        assert np.max(np.abs(materialize(graded).data - dense.data)) <= 1e-12
        # at kmax, the pass is the flips one at a time, and without a
        # projection (which scales by the kept trace) it is the full
        # state's prefix, bit for bit
        for flip in flips:
            apart = apart.apply_z_flips([flip])
        np.testing.assert_allclose(cut.scale * cut.grades,
                                   apart.scale * apart.grades, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(cut.pure, apart.pure, rtol=1e-13)
        if all(kind != "project" for kind, _ in ops):
            assert cut.pure.tobytes() == graded.pure.tobytes()
            assert cut.grades.tobytes() == graded.grades[:kmax].tobytes()
        assert 1.0 - cut.trace_total() >= -1e-12
        for state in (graded, cut):
            weights, rows = state.grade1_branches()
            rebuilt = np.einsum("i,ij,ik->jk", weights, rows, rows.conj())
            np.testing.assert_allclose(rebuilt,
                                       state.scale * full_grades(state)[0],
                                       rtol=0, atol=1e-12)

    def test_no_flip_leaves_the_state(self):
        state = GradedDensityMatrix.init_plus(3, kmax=2)
        state = state.apply_x_flip(1, 0.01)
        for flips in ([], [(0, 0.0)], [(2, 0.0), (1, 0.0)]):
            assert state.apply_z_flips(flips) is state
        assert state.apply_x_flip(2, 0.0) is state

    def test_flips_are_checked(self):
        state = GradedDensityMatrix.init_plus(2, kmax=2)
        for q, p in ((2, 0.1), (-1, 0.1), (0, 1.0), (0, -0.1),
                     (0, float("nan"))):
            with pytest.raises(ValueError):
                state.apply_z_flips([(1, 0.1), (q, p)])
            with pytest.raises(ValueError):
                state.apply_x_flip(q, p)

    def test_an_owned_pass_works_in_its_own_scratch(self):
        # a flip list's E_j are built in the channel scratch: at n = 7 with
        # kmax = 6, six flips on distinct qubits fill six tables of rows,
        # and the scratch holds the kmax + 2 rows a pass needs at any kmax
        for kmax in (1, 6, 400, 5000):
            for n in (1, 5, 7, 10):
                assert _scratch(kmax, 1 << n) << n >= kmax + 2
        n = 7
        state = GradedDensityMatrix.init_plus(n, kmax=6)
        allocation = state._buffer
        flips = [(q, 0.01 * (q + 1)) for q in range(6)]
        got = state.apply_z_flips(flips)
        assert got is state and got._buffer is allocation
        assert np.shares_memory(got.grades, allocation)
        assert _xor_index(n).dtype == np.uint8
        assert not _xor_index(n).flags.writeable


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
        # NumPy scalars, 0-d arrays and Fractions count cycles as an int
        # does, and are flip probabilities as their floats are
        rates = StorageRates(1e-3, 2e-3)

        def store(cycles, to=lambda p: p):
            state = GradedDensityMatrix.init_plus(2, kmax=2)
            flipped = state.apply_x_flip(1, to(cycles * rates.pX))
            return flipped.apply_z_flips([(1, to(cycles * rates.pZ))])

        want = store(3)
        for cycles in (np.int64(3), np.float64(3.0), np.array(3),
                       Fraction(3)):
            for got in (store(cycles), store(cycles, np.array),
                        store(cycles, Fraction)):
                assert np.array_equal(got.grades, want.grades)
                assert got.scale == want.scale


@st.composite
def _sparse_cases(draw):
    """(n, kmax, ops, checks): channels on a drawn subset of n qubits, so
    that some qubits may never enter the stack, and checks to project on,
    drawn from all n qubits."""
    n = draw(st.integers(2, 7))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    prob = st.floats(0.0, 0.05)
    ops = []
    for kind in draw(st.lists(st.sampled_from("rxz"), max_size=6)):
        if kind == "r":
            axis = draw(st.lists(st.sampled_from(used), min_size=1,
                                 unique=True))
            letters = "".join("Z" if q in axis else "I" for q in range(n))
            profile = draw(st.builds(RotationErrorProfile, prob, prob, prob))
            angle = RotationAngle(draw(st.sampled_from([1, -1])))
            ops.append(("rotation", (Rotation(PauliProduct(letters), angle),
                                     profile)))
        elif kind == "x":
            ops.append(("x", (draw(st.sampled_from(used)), draw(prob))))
        else:
            ops.append(("z", draw(st.lists(st.tuples(st.sampled_from(used),
                                                     prob), max_size=3))))
    checks = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return n, draw(st.integers(1, 4)), ops, frozenset(checks)


def _run_ops(state, ops):
    for kind, args in ops:
        if kind == "rotation":
            state = state.apply_faulty_rotation(*args)
        elif kind == "x":
            state = state.apply_x_flip(*args)
        else:
            state = state.apply_z_flips(args)
    return state


def _grade_zero(state) -> np.ndarray:
    """What each stack of a graded state holds of pure pure^dagger / scale:
    its entries on the live qubits, read at bit 0 of every qubit outside
    the stack, and after a release their trace over the released qubits
    (one outer product per pattern of their bits) and their fidelity with
    the released factors (the outer product of the contracted rows)."""
    def spread(qubits):
        i = np.arange(1 << len(qubits))
        return sum((((i >> j) & 1) << q for j, q in enumerate(qubits)),
                   np.zeros_like(i))
    # row b holds the released qubits' bits b, the newest the highest
    rows = state.pure[spread(list(state.released))[:, None]
                      + spread(state.live)] / np.sqrt(state.scale)
    trace = np.einsum("bi,bj->ij", rows, rows.conj())
    if not state.released:
        return trace[None]
    phi = np.ones(1)
    for f in state.released.values():
        phi = np.outer(f.conj(), phi).ravel()
    return np.stack([trace, np.outer(phi @ rows, (phi @ rows).conj())])


@st.composite
def _release_cases(draw):
    """(n, before, releases, after, checks, psi): channels on some of n
    qubits, then releases of one or more qubits, each with a one-qubit
    factor (the magic state or a drawn one) and the X and Z flips folded
    into it, then channels on the qubits left, at least one of which the
    projection measures; psi is a readout reference that holds each
    released factor.  A qubit that the first channels leave alone enters
    the stack after the releases, or at its own release."""
    n = draw(st.integers(2, 6))
    prob = st.floats(0.0, 0.05)
    magic = np.array([1.0, np.exp(-0.25j * np.pi)]) / np.sqrt(2)

    def ops(qubits):
        drawn = []
        for kind in draw(st.lists(st.sampled_from("rxz"), max_size=4)):
            if kind == "r":
                axis = draw(st.lists(st.sampled_from(qubits), min_size=1,
                                     unique=True))
                letters = "".join("Z" if q in axis else "I"
                                  for q in range(n))
                profile = draw(st.builds(RotationErrorProfile, prob, prob,
                                         prob))
                angle = RotationAngle(draw(st.sampled_from([1, -1])))
                drawn.append(("rotation", (
                    Rotation(PauliProduct(letters), angle), profile)))
            elif kind == "x":
                drawn.append(("x", (draw(st.sampled_from(qubits)),
                                    draw(prob))))
            else:
                drawn.append(("z", draw(st.lists(st.tuples(
                    st.sampled_from(qubits), prob), max_size=3))))
        return drawn

    def state():
        theta, phase = draw(st.floats(0.0, np.pi)), draw(st.floats(-3, 3))
        return np.array([np.cos(theta / 2),
                         np.exp(1j * phase) * np.sin(theta / 2)])

    before = ops(draw(st.lists(st.integers(0, n - 1), min_size=1,
                               unique=True)))
    leaving = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1,
                            max_size=n - 1))
    releases = [(q, draw(st.just(magic) | st.builds(state)), draw(st.lists(
        st.tuples(st.sampled_from("XZ"), prob), max_size=6)))
        for q in leaving]
    rest = [q for q in range(n) if q not in leaving]
    checks = frozenset(draw(st.lists(st.sampled_from(rest), min_size=1,
                                     max_size=len(rest) - (not leaving),
                                     unique=True)))
    kept = [q for q in range(n) if q not in checks]
    factors = dict((q, f) for q, f, _ in releases)
    psi = np.ones(1)
    for q in kept:  # the highest kept qubit is the leftmost factor
        psi = np.kron(factors[q] if q in factors else state(), psi)
    return n, before, releases, ops(rest), checks, psi


class TestLiveQubits:
    """The stack holds the qubits that a channel has acted on; every other
    qubit is |+> in every grade."""

    @settings(max_examples=40)
    @given(case=_sparse_cases())
    def test_entry_leaves_every_entry_as_it_was(self, case):
        # the same channels on a state whose qubits all entered first (the
        # full-width engine) give the same bytes, and a qubit outside the
        # stack is one that no rotation and no Z flip touched: an X flip
        # on it is a grade shift, which leaves it out
        n, kmax, ops, checks = case
        live = _run_ops(GradedDensityMatrix.init_plus(n, kmax), ops)
        wide = GradedDensityMatrix.init_plus(n, kmax)
        wide._enter((1 << n) - 1)
        wide = _run_ops(wide, ops)
        touched = {q for kind, args in ops if kind != "x" for q in (
            args[0].axis.support if kind == "rotation"
            else [q for q, p in args if p])}
        assert set(live.live) == touched
        assert full_grades(live).tobytes() == full_grades(wide).tobytes()
        assert live.pure.tobytes() == wide.pure.tobytes()
        assert live.scale == wide.scale
        for state in (live, wide):
            _, rows = state.grade1_branches()
            assert rows.tobytes() == wide.grade1_branches()[1].tobytes()
        np.testing.assert_allclose(live.trace_total(), wide.trace_total(),
                                   rtol=1e-14)
        # a projection sums the same entries, in an order that follows the
        # stack's shape: equal bytes when every qubit has entered (as in a
        # schedule run), to round-off otherwise, a few eps of the unit
        # trace (an untouched check read 0.0 and 1.05e-16)
        (live, live_fail), (wide, wide_fail) = (
            s.project_plus(checks) for s in (live, wide))
        np.testing.assert_allclose(full_grades(live), full_grades(wide),
                                   rtol=1e-14, atol=1e-17)
        assert live_fail == pytest.approx(wide_fail, rel=1e-12, abs=1e-15)
        if live.n:
            psi = np.exp(1j * np.arange(1 << live.n)) * 2.0 ** (-live.n / 2)
            assert live.infidelity_with_pure(psi) == pytest.approx(
                wide.infidelity_with_pure(psi), rel=1e-12, abs=1e-15)

    @settings(max_examples=30)
    @given(case=_release_cases())
    def test_releases_agree_with_the_oracle(self, case):
        # channels, releases with their flips folded, channels on the
        # qubits left, the projection and the readout; the oracle runs each
        # folded flip as a channel at its release.  Nothing is truncated
        n, before, releases, after, checks, psi = case
        events = sum(len(args) if kind == "z" else 1
                     for kind, args in before + after) + sum(
            len(flips) for _, _, flips in releases)
        graded = _run_ops(GradedDensityMatrix.init_plus(n, events + 1),
                          before)
        dense = _run_ops(DensityMatrix.init_plus(n), before)
        for qubit, factor, flips in releases:
            graded = graded.release(qubit, factor, flips)
            dense = _run_ops(dense, [("x", (qubit, p)) if letter == "X"
                                     else ("z", [(qubit, p)])
                                     for letter, p in flips])
        graded, dense = _run_ops(graded, after), _run_ops(dense, after)
        np.testing.assert_allclose(graded.trace_total(), 1.0, rtol=1e-12)
        (graded, graded_fail), (dense, dense_fail) = (
            s.project_plus(checks) for s in (graded, dense))
        assert graded_fail == pytest.approx(dense_fail, rel=1e-12, abs=1e-15)
        assert graded.infidelity_with_pure(psi) == pytest.approx(
            1.0 - dense.fidelity_with_pure(psi), rel=1e-12, abs=1e-15)
        # the stored grade 0 is the pure branch, as each stack holds it
        want = _grade_zero(graded)
        assert np.max(np.abs(graded._stacks[0] - want)) <= (
            64 * np.finfo(float).eps * np.max(np.abs(want)))
        if releases:
            with pytest.raises(ValueError, match="contracted"):
                materialize(graded)

    @settings(max_examples=30)
    @given(case=_release_cases(), kmax=st.integers(1, 3))
    def test_a_release_moves_p_fail_by_the_dropped_mass_at_most(self, case,
                                                                kmax):
        # folded, an output's X flips act before the projection; run as
        # channels they wait past it.  With grades dropped above kmax,
        # p_fail divides by the trace that the projection sees, so the
        # two differ by no more than the mass dropped
        n, before, releases, after, checks, psi = case
        folded = _run_ops(GradedDensityMatrix.init_plus(n, kmax), before)
        apart = copy.deepcopy(folded)
        waiting = []
        for qubit, factor, flips in releases:
            folded = folded.release(qubit, factor, flips)
            apart = apart.apply_z_flips([(qubit, p) for letter, p in flips
                                         if letter == "Z"])
            waiting += [(qubit, p) for letter, p in flips if letter == "X"]
        folded, apart = _run_ops(folded, after), _run_ops(apart, after)
        dropped = max(1.0 - folded.trace_total(), 0.0)
        folded, folded_fail = folded.project_plus(checks)
        apart, apart_fail = apart.project_plus(checks)
        kept = [q for q in range(n) if q not in checks]
        for qubit, p in waiting:
            apart = apart.apply_x_flip(kept.index(qubit), p)
        eps = 1e-14
        assert abs(folded_fail - apart_fail) <= dropped + eps
        assert abs(folded.infidelity_with_pure(psi)
                   - apart.infidelity_with_pure(psi)) <= 2 * dropped + eps

    @pytest.mark.parametrize("factor", [[1.0, 0.0], [1.0, 5e-324j],
                                        [np.cos(1e-9), 1j * np.sin(1e-9)]])
    def test_a_factor_next_to_a_pole_is_exact(self, factor):
        # r_X + i r_Y of a factor at or next to |0> is 0 or tiny, and its
        # fold must neither divide by it nor lose the grades it weighs
        ops = [("rotation", (Rotation(PauliProduct("ZZI"), RotationAngle(1)),
                             RotationErrorProfile(0.02, 0.01, 0.03))),
               ("x", (0, 0.04)),
               ("rotation", (Rotation(PauliProduct("ZIZ"), RotationAngle(-1)),
                             RotationErrorProfile(0.01, 0.02, 0.01)))]
        flips = [("X", 0.05), ("Z", 0.03), ("X", 0.02)]
        graded = _run_ops(GradedDensityMatrix.init_plus(3, 12), ops)
        dense = _run_ops(DensityMatrix.init_plus(3), ops)
        graded = graded.release(0, factor, flips)
        dense = _run_ops(dense, [("x", (0, 0.05)), ("z", [(0, 0.03)]),
                                 ("x", (0, 0.02))])
        (graded, graded_fail), (dense, dense_fail) = (
            s.project_plus(frozenset({2})) for s in (graded, dense))
        psi = np.kron(np.array([1.0, 1j]) / np.sqrt(2), factor)
        assert graded_fail == pytest.approx(dense_fail, rel=1e-12)
        assert graded.infidelity_with_pure(psi) == pytest.approx(
            1.0 - dense.fidelity_with_pure(psi), rel=1e-12)

    def test_a_released_qubit_takes_no_channel(self):
        state = GradedDensityMatrix.init_plus(3, kmax=2).apply_x_flip(0, 0.1)
        magic = np.array([1.0, np.exp(-0.25j * np.pi)]) / np.sqrt(2)
        state = state.release(0, magic, [("Z", 0.01), ("X", 0.02)])
        assert state.released.keys() == {0} and state.live == ()
        for channel in (lambda s: s.apply_x_flip(0, 0.1),
                        lambda s: s.apply_z_flips([(0, 0.1)]),
                        lambda s: s.apply_faulty_rotation(
                            Rotation(PauliProduct("ZZI"), RotationAngle(1)),
                            RotationErrorProfile(0.01, 0.0, 0.0)),
                        lambda s: s.release(0, magic),
                        lambda s: s.project_plus(frozenset({0, 1}))):
            with pytest.raises(ValueError, match="released"):
                channel(copy.deepcopy(state))
        for factor, flips in (([1.0, 1.0], ()), ([1.0], ()),
                              (magic, [("Y", 0.1)]), (magic, [("X", 1.0)])):
            with pytest.raises(ValueError):
                copy.deepcopy(state).release(1, factor, flips)
        # the readout's reference must hold the released factor
        kept, _ = state.project_plus(frozenset({2}))
        with pytest.raises(ValueError, match="factor"):
            kept.infidelity_with_pure(np.array([1.0, 0.0, 0.0, 0.0]))
        assert kept.infidelity_with_pure(
            np.kron(np.full(2, 0.5 ** 0.5), magic)) >= 0.0

    def test_a_copy_owns_its_allocation_and_keeps_the_rest(self):
        # a copy lays its views out over an allocation of its own, and
        # deep-copies every other attribute, including one that the
        # engine does not know of
        state = GradedDensityMatrix.init_plus(6, kmax=2)
        state = state.apply_faulty_rotation(
            Rotation(PauliProduct("ZZZIII"), RotationAngle(1)),
            RotationErrorProfile(0.01, 0.02, 0.0))
        magic = np.array([1.0, np.exp(-0.25j * np.pi)]) / np.sqrt(2)
        state = state.release(0, magic, [("X", 0.03)])
        state.note = [1]
        got = copy.deepcopy(state)
        assert got.note == [1] and got.note is not state.note
        assert got.live == state.live and got.released.keys() == {0}
        assert not np.shares_memory(got._buffer, state._buffer)
        assert np.shares_memory(got.grades, got._buffer)
        for s in (state, got):
            s.apply_x_flip(2, 0.05)
        np.testing.assert_array_equal(got._stacks, state._stacks)
        assert got.births is not state.births


def _stack_xflip(stack: np.ndarray, qubit: int) -> np.ndarray:
    """View of X rho X for every matrix of a (..., dim, dim) stack: the
    reversed view that the engine's X flip read before it gathered."""
    dim = stack.shape[-1]
    hi, lo = dim >> (qubit + 1), 1 << qubit
    t = stack.reshape(stack.shape[:-2] + (hi, 2, lo, hi, 2, lo))
    return t[..., ::-1, :, :, ::-1, :]


def _reference_x_flip(state, position: int, p: float) -> None:
    """The stored grades' update of an X flip on the live qubit at
    ``position``, as the kernel ran it with the reversed view: the same
    blocks, one scaled read of the view and one add each."""
    stacks, terms = state._stacks, state._terms
    for src, term, block in state._walk:
        term = terms[term]
        src = _stack_xflip(stacks[src], position)
        np.multiply(src, p / (1.0 - p), out=term.reshape(src.shape))
        stacks[block] += term


class TestXFlips:
    """An X flip on a live qubit gathers X H X through a flat index; on a
    qubit outside the stack it is a grade shift, and the qubit stays out."""

    @settings(max_examples=60)
    @given(n=st.integers(1, 7), kmax=st.sampled_from([1, 2, 6]),
           pair=st.booleans(), data=st.data())
    def test_the_gather_is_the_reversed_view_bit_for_bit(self, n, kmax,
                                                         pair, data):
        # one stack, or the pair a release leaves (which needs a second
        # qubit); grades of random entries, so that every entry differs
        pair = pair and n > 1
        state = GradedDensityMatrix.init_plus(n, kmax)
        state._enter((1 << n) - 1)
        if pair:
            magic = np.array([1.0, np.exp(-0.25j * np.pi)]) / np.sqrt(2)
            state = state.release(data.draw(st.integers(0, n - 1)), magic)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = state._stacks.shape
        state._stacks[...] = (rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        qubit = data.draw(st.sampled_from(state.live))
        p = data.draw(st.floats(1e-6, 0.5))
        want = copy.deepcopy(state)
        _reference_x_flip(want, want.live.index(qubit), p)
        got = state.apply_x_flip(qubit, p)
        assert got._stacks.shape == want._stacks.shape
        assert got._stacks.tobytes() == want._stacks.tobytes()

    def test_the_flip_index_is_memoized_uint16_at_seven_qubits(self):
        index = _xflip_index(3, 1 << 7)
        assert _xflip_index(3, 1 << 7) is index
        assert index.dtype == np.uint16 and not index.flags.writeable
        k = np.arange(1 << 14)
        np.testing.assert_array_equal(
            index, ((k >> 7) ^ 8) << 7 | (k & 127) ^ 8)

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_a_flip_outside_the_stack_is_a_grade_shift(self, n):
        # the flip leaves the qubit out; once a rotation on it has entered
        # it, every stored grade, the branch store and the readout are
        # the bytes of a run that entered it before the flip
        profile = RotationErrorProfile(0.01, 0.02, 0.03)
        first = Rotation(PauliProduct("Z" * (n - 1) + "I"), RotationAngle(1))
        last = Rotation(PauliProduct("I" * (n - 1) + "Z"), RotationAngle(-1))
        runs = []
        for forced in (False, True):
            state = GradedDensityMatrix.init_plus(n, kmax=3)
            state = state.apply_faulty_rotation(first, profile)
            if forced:
                state._enter(1 << (n - 1))
            live = state.live
            state = state.apply_x_flip(n - 1, 0.04)
            assert state.live == live
            state = state.apply_faulty_rotation(last, profile)
            assert state.live == tuple(range(n))
            state, p_fail = state.project_plus(frozenset({0}))
            psi = np.exp(1j * np.arange(1 << (n - 1))) * 2.0 ** (
                (1 - n) / 2)
            runs.append((state, p_fail, state.infidelity_with_pure(psi)))
        (shifted, fail, p_out), (entered, want_fail, want_p_out) = runs
        assert shifted._stacks.tobytes() == entered._stacks.tobytes()
        assert shifted.pure.tobytes() == entered.pure.tobytes()
        assert shifted.scale == entered.scale
        assert len(shifted.births) == len(entered.births)
        for (w, row), (v, want) in zip(shifted.births, entered.births):
            assert w == v and row.tobytes() == want.tobytes()
        assert (fail, p_out) == (want_fail, want_p_out)

    def test_a_flip_on_a_released_qubit_raises(self):
        state = GradedDensityMatrix.init_plus(3, kmax=2)
        state = state.apply_faulty_rotation(
            Rotation(PauliProduct("ZZZ"), RotationAngle(1)),
            RotationErrorProfile(0.01, 0.0, 0.0))
        state = state.release(1, np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(ValueError, match="^qubit 1 was released$"):
            state.apply_x_flip(1, 0.1)

