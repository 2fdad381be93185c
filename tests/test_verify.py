import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from channelmask.channels import (
    DepolarizedUnitary,
    PauliFourVector,
    SIGMA_X,
    SIGMA_Z,
    Unitary,
    amplitude_damping,
    bit_flip,
    dephasing,
    identity_channel,
    random_classical_channel,
    to_kraus,
)
from channelmask.linalg import BipartiteDims, random_unitary
from channelmask.masking import (
    Fourier,
    GateFamily,
    Masker,
    PauliAxis,
    copy_masker,
    decide_gate_family,
)
from channelmask.verify import (
    local_orthogonality_check,
    reduced_channel_choi,
    state_mask_check,
    verify_identity_masking,
    verify_masking,
)

from helpers import brute_force_reduced_choi, random_commuting_family, random_isometry, random_kraus_channel

I2 = np.eye(2, dtype=complex)
SQRT_Z = np.diag([1.0, 1j])
COPY2_MASKER = copy_masker(I2)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


class TestReducedChannelChoi:
    def test_copy_masker_dephases(self):
        red = reduced_channel_choi(COPY2_MASKER, identity_channel(2), "B")
        assert_allclose(red, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-15)

    def test_fourier_masker_is_constant(self):
        rng = np.random.default_rng(0)
        masker = copy_masker(Fourier(4).copy_rows())
        spec = random_classical_channel(4, 4, rng)
        for side in ("A", "B"):
            red = reduced_channel_choi(masker, spec, side)
            assert_allclose(red, np.eye(16) / 4, atol=1e-12)

    def test_x_axis_masker_on_identity(self):
        # discarding A leaves rho -> <+|rho|+> |0><0| + <-|rho|-> |1><1| on B
        masker = copy_masker(PauliAxis("x", 0.0).copy_rows())

        def expected_map(rho):
            return (PLUS.conj() @ rho @ PLUS) * np.diag([1.0, 0.0]) + (
                MINUS.conj() @ rho @ MINUS
            ) * np.diag([0.0, 1.0])

        expected = np.zeros((4, 4), dtype=complex)
        basis_op = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                basis_op[i, j] = 1.0
                expected[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2] = expected_map(basis_op)
                basis_op[i, j] = 0.0
        red = reduced_channel_choi(masker, PauliFourVector(1, 0, 0, 0), "A")
        assert_allclose(red, expected, atol=1e-12)

    def test_output_is_choi_of_a_channel(self):
        from channelmask.linalg import partial_trace

        rng = np.random.default_rng(1)
        fam = GateFamily((random_unitary(3, rng), random_unitary(3, rng)))
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(gates=fam.unitaries))
        red = reduced_channel_choi(masker, Unitary(fam.unitaries[0]), "B")
        eigs = np.linalg.eigvalsh(red)
        assert eigs.min() >= -1e-10
        marginal = partial_trace(red, BipartiteDims(3, 3), "B")
        assert np.linalg.norm(marginal - np.eye(3)) <= 1e-10

    def test_linearity_in_the_channel(self):
        masker = COPY2_MASKER
        p, q = dephasing(0.2), bit_flip(0.6)
        mix = PauliFourVector(*(0.3 * p.probabilities + 0.7 * q.probabilities))
        for side in ("A", "B"):
            red_mix = reduced_channel_choi(masker, mix, side)
            combo = 0.3 * reduced_channel_choi(masker, p, side) + 0.7 * reduced_channel_choi(masker, q, side)
            assert np.linalg.norm(red_mix - combo) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reduced_channel_choi(COPY2_MASKER, identity_channel(3), "A")

    def test_desk_scale_guard(self):
        masker = copy_masker(np.eye(17))
        with pytest.raises(ValueError):
            reduced_channel_choi(masker, identity_channel(17), "A")


class TestVerifyMasking:
    def test_gate_masker_verifies_exactly(self):
        fam = GateFamily((SIGMA_X, SIGMA_X @ SIGMA_Z, SIGMA_X @ SQRT_Z))
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(gates=fam.unitaries))
        report = verify_masking(masker, [Unitary(u) for u in fam.unitaries], 1e-12)
        assert report.passed
        assert max(report.max_deviation_a, report.max_deviation_b) <= 1e-12

    def test_wrong_axis_fails(self):
        report = verify_masking(COPY2_MASKER, [identity_channel(2), bit_flip(0.5)], 1e-9)
        assert not report.passed
        assert max(report.max_deviation_a, report.max_deviation_b) == pytest.approx(1.0, abs=1e-12)
        assert report.worst_pair == (0, 1)

    def test_single_member_always_passes(self):
        rng = np.random.default_rng(2)
        iso = random_unitary(4, rng)[:, :2]
        masker = Masker(iso, BipartiteDims(2, 2))
        assert verify_masking(masker, [amplitude_damping(0.5)], 1e-9).passed

    def test_permutation_invariance(self):
        family = [identity_channel(2), dephasing(0.2), dephasing(0.7)]
        first = verify_masking(COPY2_MASKER, family, 1e-9)
        second = verify_masking(COPY2_MASKER, list(reversed(family)), 1e-9)
        assert first.passed == second.passed
        assert first.max_deviation_a == pytest.approx(second.max_deviation_a, abs=1e-15)
        assert first.max_deviation_b == pytest.approx(second.max_deviation_b, abs=1e-15)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            verify_masking(COPY2_MASKER, [], 1e-9)


class TestVerifyIdentityMasking:
    def test_dephasing_passes(self):
        assert verify_identity_masking(COPY2_MASKER, dephasing(0.3), 1e-12).passed

    def test_amplitude_damping_fails(self):
        report = verify_identity_masking(COPY2_MASKER, amplitude_damping(0.3), 1e-9)
        assert not report.passed
        assert max(report.max_deviation_a, report.max_deviation_b) > 0.1

    def test_identity_trivially_passes(self):
        rng = np.random.default_rng(3)
        iso = random_unitary(6, rng)[:, :3]
        masker = Masker(iso, BipartiteDims(2, 3))
        assert verify_identity_masking(masker, identity_channel(3), 1e-9).passed


class TestLocalOrthogonality:
    def test_copy_masker_with_z(self):
        assert local_orthogonality_check(COPY2_MASKER, SIGMA_Z, 1e-12)

    def test_single_cluster_is_vacuous(self):
        assert local_orthogonality_check(COPY2_MASKER, np.eye(2), 1e-12)

    def test_three_distinct_phases(self):
        rng = np.random.default_rng(4)
        eigvecs = random_unitary(3, rng)
        u = eigvecs @ np.diag(np.exp(1j * np.array([0.3, 1.7, 2.9]))) @ eigvecs.conj().T
        fam = GateFamily((np.eye(3), u))
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(gates=fam.unitaries))
        assert local_orthogonality_check(masker, u, 1e-9)

    def test_detects_violation(self):
        # an isometry that copies the wrong basis does not broadcast Z's orthogonality
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        masker = copy_masker(hadamard)
        assert not local_orthogonality_check(masker, SIGMA_Z, 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            local_orthogonality_check(COPY2_MASKER, np.eye(3), 1e-9)


class TestStateMaskCheck:
    def test_phase_family_masked(self):
        states = [np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2) for phi in (0.0, np.pi / 2, np.pi)]
        report = state_mask_check(COPY2_MASKER, states, 1e-12)
        assert report.passed

    def test_different_weights_leak(self):
        states = [np.array([1.0, 0.0]), PLUS]
        report = state_mask_check(COPY2_MASKER, states, 1e-9)
        assert not report.passed
        assert max(report.max_deviation_a, report.max_deviation_b) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_single_state_passes(self):
        assert state_mask_check(COPY2_MASKER, [PLUS], 1e-12).passed

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            state_mask_check(COPY2_MASKER, [], 1e-9)


class TestChoiConventionAgreement:
    def test_reduced_choi_matches_channel_choi(self):
        # composing the masker with a channel and tracing must agree with
        # building the composite Kraus form and taking its Choi matrix
        from channelmask.linalg import partial_trace

        rng = np.random.default_rng(5)
        fam = GateFamily((random_unitary(2, rng), random_unitary(2, rng)))
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(gates=fam.unitaries))
        spec = dephasing(0.3)
        red = reduced_channel_choi(masker, spec, "B")

        kraus = to_kraus(spec)
        expected = np.zeros((4, 4), dtype=complex)
        basis_op = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                basis_op[i, j] = 1.0
                out = sum(k @ basis_op @ k.conj().T for k in kraus.kraus_ops)
                masked = masker.matrix @ out @ masker.matrix.conj().T
                expected[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2] = partial_trace(
                    masked, masker.dims, "B"
                )
                basis_op[i, j] = 0.0
        assert_allclose(red, expected, atol=1e-14)


def _member(kind: str, din: int, rng: np.random.Generator):
    if kind == "unitary":
        return Unitary(random_unitary(din, rng))
    if kind == "kraus":
        return random_kraus_channel(rng, din, din, 3)
    if kind == "depolarized":
        return DepolarizedUnitary(rng.uniform(), random_unitary(din, rng))
    return random_classical_channel(din, din + 1, rng)


class TestContractionAgainstOracle:
    """Both routes of ``reduced_channel_choi`` against a full Choi matrix and a partial trace."""

    @settings(max_examples=40, deadline=None)
    @given(
        din=st.sampled_from([4, 5, 8, 16]),
        kind=st.sampled_from(["unitary", "kraus", "depolarized", "classical"]),
        dim_a=st.sampled_from([2, 3]),
        extra=st.integers(0, 1),
        swap=st.booleans(),
        side=st.sampled_from(["A", "B"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_isometry_masker(self, din, kind, dim_a, extra, swap, side, seed):
        rng = np.random.default_rng(seed)
        spec = _member(kind, din, rng)
        dout = spec.out_size if kind == "classical" else din
        dim_b = -(-dout // dim_a) + extra
        if dim_b == dim_a:
            dim_b += 1
        if swap:
            dim_a, dim_b = dim_b, dim_a
        masker = Masker(random_isometry(rng, dim_a * dim_b, dout), BipartiteDims(dim_a, dim_b))
        red = reduced_channel_choi(masker, spec, side)
        assert np.abs(red - brute_force_reduced_choi(masker, spec, side)).max() <= 1e-12

    @pytest.mark.parametrize("dim", [8, 16])
    def test_gate_masker_passes_and_random_isometry_fails(self, dim):
        rng = np.random.default_rng(dim)
        fam = random_commuting_family(rng, dim, 3)
        members = [Unitary(u) for u in fam.unitaries]
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(gates=fam.unitaries))
        assert verify_masking(masker, members, 1e-9).passed

        wrong = Masker(random_isometry(rng, 4 * 8, dim), BipartiteDims(4, 8))
        report = verify_masking(wrong, members, 1e-9)
        assert not report.passed
        for deviation, side in ((report.max_deviation_a, "B"), (report.max_deviation_b, "A")):
            oracle = [brute_force_reduced_choi(wrong, spec, side) for spec in members]
            expected = max(
                np.linalg.norm(oracle[i] - oracle[j])
                for i in range(len(oracle)) for j in range(i + 1, len(oracle))
            )
            assert abs(deviation - expected) <= 1e-12
