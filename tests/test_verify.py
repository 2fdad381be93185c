import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from channelmask import cli, linalg, verify
from channelmask.channels import (
    DepolarizedUnitary,
    PauliFourVector,
    SIGMA_X,
    SIGMA_Z,
    Unitary,
    amplitude_damping,
    bit_flip,
    channel_dims,
    dephasing,
    identity_channel,
    random_classical_channel,
    to_kraus,
)
from channelmask.linalg import BipartiteDims
from channelmask.masking import (
    Fourier,
    Masker,
    PauliAxis,
    copy_masker,
    decide_gate_family,
)
from channelmask.verify import _kraus_choi, reduced_channel_choi, verify_masking

from helpers import (
    brute_force_reduced_choi,
    choi_reduced_chois,
    gate_family,
    local_orthogonality_check,
    loop_max_pairwise,
    loop_reduced_channel_choi,
    random_commuting_family,
    random_isometry,
    random_kraus_channel,
    random_unitary,
    state_mask_check,
)

I2 = np.eye(2, dtype=complex)
SQRT_Z = np.diag([1.0, 1j])
COPY2_MASKER = copy_masker(I2)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


class TestReducedChannelChoi:
    def test_copy_masker_dephases(self):
        red = reduced_channel_choi(COPY2_MASKER, identity_channel(2))[0]
        assert_allclose(red, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-15)

    def test_fourier_masker_is_constant(self):
        rng = np.random.default_rng(0)
        masker = copy_masker(Fourier(4).copy_rows())
        spec = random_classical_channel(4, 4, rng)
        for red in reduced_channel_choi(masker, spec):
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
        red = reduced_channel_choi(masker, PauliFourVector(1, 0, 0, 0))[1]
        assert_allclose(red, expected, atol=1e-12)

    def test_output_is_choi_of_a_channel(self):
        from channelmask.linalg import partial_trace

        rng = np.random.default_rng(1)
        fam = gate_family(random_unitary(3, rng), random_unitary(3, rng))
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(fam))
        red = reduced_channel_choi(masker, fam[0])[0]
        eigs = np.linalg.eigvalsh(red)
        assert eigs.min() >= -1e-10
        marginal = partial_trace(red, BipartiteDims(3, 3), "B")
        assert np.linalg.norm(marginal - np.eye(3)) <= 1e-10

    def test_linearity_in_the_channel(self):
        masker = COPY2_MASKER
        p, q = dephasing(0.2), bit_flip(0.6)
        mix = PauliFourVector(*(0.3 * p.probabilities + 0.7 * q.probabilities))
        views = [reduced_channel_choi(masker, spec) for spec in (mix, p, q)]
        for red_mix, red_p, red_q in zip(*views):
            combo = 0.3 * red_p + 0.7 * red_q
            assert np.linalg.norm(red_mix - combo) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reduced_channel_choi(COPY2_MASKER, identity_channel(3))

    def test_view_over_the_entry_bound_is_refused(self):
        # A's view of a 1000 x 1 masker at din = 5 has (5 * 1000)**2 = 25M
        # entries, over the bound of 2**24; it is refused before it is built.
        masker = Masker(random_isometry(np.random.default_rng(6), 1000, 5), BipartiteDims(1000, 1))
        tracemalloc.start()
        try:
            for call in (lambda: reduced_channel_choi(masker, identity_channel(5)),
                         lambda: verify_masking(masker, [identity_channel(5)] * 2, 1e-9)):
                with pytest.raises(ValueError, match=r"^a reduced Choi matrix of 25000000 entries exceeds "
                                                     r"the bound of 2\*\*24 entries$"):
                    call()
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


class TestVerifyMasking:
    def test_gate_masker_verifies_exactly(self):
        fam = gate_family(SIGMA_X, SIGMA_X @ SIGMA_Z, SIGMA_X @ SQRT_Z)
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(fam))
        report = verify_masking(masker, fam, 1e-12)
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

    def test_members_of_different_dimensions_rejected(self):
        with pytest.raises(ValueError, match="^family members must share input and output dimensions$"):
            verify_masking(COPY2_MASKER, [identity_channel(2), identity_channel(3)], 1e-9)

    # At input dimension 5 a copy masker takes the closed form, where no
    # partial trace scans the views for non-finite entries.
    def test_nan_in_a_copy_masker_fails(self):
        members = list(random_commuting_family(np.random.default_rng(5), 5, 3))
        masker = copy_masker(decide_gate_family(members).certificate.copy_rows(members))
        masker.matrix[0, 0] = np.nan
        report = verify_masking(masker, members, 1e-9)
        assert not report.passed
        assert np.isnan(report.max_deviation_a) and np.isnan(report.max_deviation_b)
        assert report.worst_pair == (0, 1)

    def test_nan_in_a_member_fails(self):
        members = list(random_commuting_family(np.random.default_rng(6), 5, 3))
        masker = copy_masker(decide_gate_family(members).certificate.copy_rows(members))
        members[2].matrix[1, 1] = np.nan
        report = verify_masking(masker, members, 1e-9)
        assert not report.passed
        assert np.isnan(report.max_deviation_a) and np.isnan(report.max_deviation_b)
        assert report.worst_pair == (0, 2)


class TestVerifyIdentityMasking:
    def test_dephasing_passes(self):
        assert verify_masking(COPY2_MASKER, [identity_channel(2), dephasing(0.3)], 1e-12).passed

    def test_amplitude_damping_fails(self):
        report = verify_masking(COPY2_MASKER, [identity_channel(2), amplitude_damping(0.3)], 1e-9)
        assert not report.passed
        assert max(report.max_deviation_a, report.max_deviation_b) > 0.1

    def test_identity_trivially_passes(self):
        rng = np.random.default_rng(3)
        iso = random_unitary(6, rng)[:, :3]
        masker = Masker(iso, BipartiteDims(2, 3))
        assert verify_masking(masker, [identity_channel(3), identity_channel(3)], 1e-9).passed

    def test_non_square_channel_is_refused(self):
        spec = random_classical_channel(2, 3, np.random.default_rng(4))
        with pytest.raises(ValueError, match="^family members must share input and output dimensions$"):
            verify_masking(COPY2_MASKER, [identity_channel(2), spec], 1e-9)


class TestLocalOrthogonality:
    def test_copy_masker_with_z(self):
        assert local_orthogonality_check(COPY2_MASKER, SIGMA_Z, 1e-12)

    def test_single_cluster_is_vacuous(self):
        assert local_orthogonality_check(COPY2_MASKER, np.eye(2), 1e-12)

    def test_three_distinct_phases(self):
        rng = np.random.default_rng(4)
        eigvecs = random_unitary(3, rng)
        u = eigvecs @ np.diag(np.exp(1j * np.array([0.3, 1.7, 2.9]))) @ eigvecs.conj().T
        fam = gate_family(np.eye(3), u)
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(fam))
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
        fam = gate_family(random_unitary(2, rng), random_unitary(2, rng))
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(fam))
        spec = dephasing(0.3)
        red = reduced_channel_choi(masker, spec)[0]

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


def _member(kind: str, din: int, rng: np.random.Generator, p=None):
    if kind == "unitary":
        return Unitary(random_unitary(din, rng))
    if kind == "kraus":
        return random_kraus_channel(rng, din, din, 3)
    if kind == "depolarized":
        return DepolarizedUnitary(rng.uniform() if p is None else p, random_unitary(din, rng))
    return random_classical_channel(din, din + 1, rng)


class TestBasisLoopAgainstOracle:
    """Both views of ``reduced_channel_choi`` (the Kraus form for these dense maskers) against a full Choi
    matrix."""

    @settings(max_examples=40, deadline=None)
    @given(
        din=st.sampled_from([4, 5, 8, 16]),
        kind=st.sampled_from(["unitary", "kraus", "depolarized", "classical"]),
        dim_a=st.sampled_from([2, 3]),
        extra=st.integers(0, 1),
        swap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_isometry_masker(self, din, kind, dim_a, extra, swap, seed):
        rng = np.random.default_rng(seed)
        spec = _member(kind, din, rng)
        dout = spec.out_size if kind == "classical" else din
        dim_b = -(-dout // dim_a) + extra
        if dim_b == dim_a:
            dim_b += 1
        if swap:
            dim_a, dim_b = dim_b, dim_a
        masker = Masker(random_isometry(rng, dim_a * dim_b, dout), BipartiteDims(dim_a, dim_b))
        for red, side in zip(reduced_channel_choi(masker, spec), ("B", "A")):
            assert np.abs(red - brute_force_reduced_choi(masker, spec, side)).max() <= 1e-12

    @pytest.mark.parametrize("dim", [8, 16])
    def test_gate_masker_passes_and_random_isometry_fails(self, dim):
        rng = np.random.default_rng(dim)
        fam = random_commuting_family(rng, dim, 3)
        members = list(fam)
        masker = copy_masker(decide_gate_family(fam).certificate.copy_rows(fam))
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


class TestKrausOracle:
    """The Kraus form of ``verify`` and the oracle of ``_independent_views`` above ``din`` 8 (``choi(spec)``
    contracted with the masker) against the full Choi matrix and a partial trace, for both views."""

    @settings(max_examples=30, deadline=None)
    @given(
        din=st.integers(1, 6),
        kind=st.sampled_from(["unitary", "kraus", "depolarized", "classical"]),
        dim_a=st.integers(1, 4),
        dim_b=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_full_choi_matrix(self, din, kind, dim_a, dim_b, seed):
        rng = np.random.default_rng(seed)
        spec = _member(kind, din, rng)
        dout = spec.out_size if kind == "classical" else din
        while dim_a * dim_b < dout:
            dim_b += 1
        masker = Masker(random_isometry(rng, dim_a * dim_b, dout), BipartiteDims(dim_a, dim_b))
        rows = masker.matrix.reshape(dim_a, dim_b, dout)
        kraus_views = (_kraus_choi(rows.transpose(1, 0, 2)[None], spec)[0], _kraus_choi(rows[None], spec)[0])
        for views in (choi_reduced_chois(masker, spec), kraus_views):
            for view, side in zip(views, ("B", "A")):
                assert np.abs(view - brute_force_reduced_choi(masker, spec, side)).max() <= 1e-12


def _record_apply_stacks_and_traced_products(monkeypatch) -> tuple[list, list]:
    """Record the stack length of every ``verify.apply`` call and the entries of every product
    ``M E(X) M^dag`` that ``verify.partial_trace`` gets."""
    applied, traced = [], []
    apply, partial_trace = verify.apply, verify.partial_trace

    def counted(spec, ops):
        applied.append(len(ops))
        return apply(spec, ops)

    def recorded(m, dims, side):
        traced.append(np.size(m))
        return partial_trace(m, dims, side)

    monkeypatch.setattr(verify, "apply", counted)
    monkeypatch.setattr(verify, "partial_trace", recorded)
    return applied, traced


def _family_member(kind: str, din: int, rng: np.random.Generator):
    """A member that maps dimension ``din`` to ``din``; Pauli members need ``din`` 2."""
    if kind == "unitary":
        return Unitary(random_unitary(din, rng))
    if kind == "kraus":
        return random_kraus_channel(rng, din, din, int(rng.integers(1, 4)))
    if kind == "pauli":
        return PauliFourVector(*rng.dirichlet(np.ones(4)))
    if kind == "classical":
        return random_classical_channel(din, din, rng)
    return DepolarizedUnitary(0.37, random_unitary(din, rng))


def _copy_member(kind: str, din: int, rng: np.random.Generator):
    """A member of input dimension ``din`` (2 for Pauli) whose output dimension is at most 4."""
    if kind == "unitary":
        return Unitary(random_unitary(din, rng))
    if kind == "kraus":
        dout = int(rng.integers(1, 5))
        return random_kraus_channel(rng, din, dout, max(2, -(-din // dout)) + int(rng.integers(2)))
    if kind == "pauli":
        return PauliFourVector(*rng.dirichlet(np.ones(4)))
    if kind == "classical":
        return random_classical_channel(din, int(rng.integers(1, 5)), rng)
    return DepolarizedUnitary(float(rng.choice([0.0, 1.0, 0.37])), random_unitary(din, rng))


class TestCopyBlocksAgainstTheLoop:
    """On copy rows of at most 4 symbols, a member's copy blocks, set in place, are the views of the loop that
    sends one basis operator at a time through ``apply``, the masker and two partial traces."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["pauli", "classical", "unitary", "kraus", "depolarized"]),
        din=st.integers(1, 4),
        symbols=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_are_the_loop_views(self, kind, din, symbols, seed):
        rng = np.random.default_rng(seed)
        spec = _copy_member(kind, 2 if kind == "pauli" else din, rng)
        dout = channel_dims(spec)[1]
        rows = random_isometry(rng, max(symbols, dout), dout)
        masker = copy_masker(rows)
        blocks = verify._copy_blocks(rows, spec)
        for view, loop in zip(reduced_channel_choi(masker, spec), loop_reduced_channel_choi(masker, spec)):
            assert view.shape == loop.shape
            assert np.abs(view - loop).max() <= 1e-15
            assert np.abs(verify._dense(blocks) - loop).max() <= 1e-15
        if kind == "classical":  # a classical channel's copy view is real
            assert not blocks.imag.any()


class TestNoPartialTrace:
    """Neither route of ``verify`` nor ``demo-classical`` takes a partial trace."""

    def test_verification_and_the_demo_never_call_partial_trace(self, monkeypatch, capsys):
        def refused(*args):
            raise AssertionError("partial_trace was called")

        monkeypatch.setattr(linalg, "partial_trace", refused)
        monkeypatch.setattr(verify, "partial_trace", refused)
        rng = np.random.default_rng(30)
        for kind in ("pauli", "classical", "unitary", "kraus", "depolarized"):
            members = [_family_member(kind, 2, rng) for _ in range(3)]
            dout = channel_dims(members[0])[1]
            for masker in (copy_masker(random_unitary(dout, rng)),
                           Masker(random_isometry(rng, 6, dout), BipartiteDims(2, 3))):
                report = verify_masking(masker, members, 1e-9)
                expected_a, expected_b = _oracle_deviations(masker, members)
                assert abs(report.max_deviation_a - expected_a) <= 1e-12
                assert abs(report.max_deviation_b - expected_b) <= 1e-12
        assert cli.main(["demo-classical", "--dim", "4"]) == cli.EXIT_OK
        assert "quantum Fourier masker on 5 classical channels: verified" in capsys.readouterr().out


class TestMaxPairwise:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 6),
        shape=st.sampled_from([(1, 1), (2, 2), (3, 5), (8, 8)]),
        scale=st.sampled_from([1e-300, 1e-17, 1.0, 1e150]),
        repeats=st.booleans(),
        stacked=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_deviations_and_pairs_are_those_of_the_norm_loop(self, n, shape, scale, repeats, stacked, seed):
        rng = np.random.default_rng(seed)
        views = (rng.normal(size=(n, *shape)) + 1j * rng.normal(size=(n, *shape))) * scale
        if repeats and n > 2:
            views[2], views[-1] = views[0], views[1]
        views = views if stacked else list(views)
        worst, pair = verify._max_pairwise(views)
        expected_worst, expected_pair = loop_max_pairwise(views)
        assert type(worst) is float and pair == expected_pair
        assert np.float64(worst).tobytes() == np.float64(expected_worst).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 6), nans=st.sets(st.integers(0, 5), min_size=1), seed=st.integers(0, 2**32 - 1))
    def test_the_first_nan_deviation_and_its_pair_are_kept(self, n, nans, seed):
        rng = np.random.default_rng(seed)
        views = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
        with_nan = {k % n for k in nans}
        for k in with_nan:
            views[k, k % 3, 0] = np.nan
        worst, pair = verify._max_pairwise(views)
        expected_worst, expected_pair = loop_max_pairwise(views)
        assert np.isnan(worst) and np.isnan(expected_worst)
        assert pair == expected_pair == next((i, j) for i in range(n) for j in range(i + 1, n) if {i, j} & with_nan)

    @pytest.mark.parametrize("nan_side", ["a", "b", "both"])
    def test_a_nan_deviation_fails_the_report_and_names_its_pair(self, nan_side):
        rng = np.random.default_rng(7)
        views_a, views_b = (rng.normal(size=(3, 2, 2)) + 0j for _ in "ab")
        if nan_side in ("a", "both"):
            views_a[2, 0, 0] = np.nan
        if nan_side in ("b", "both"):
            views_b[1, 0, 0] = np.nan
        report = verify._report(views_a, views_b, 1e-9)
        assert not report.passed
        assert report.worst_pair == {"a": (0, 2), "b": (0, 1), "both": (0, 2)}[nan_side]


def _expand(blocks: np.ndarray) -> np.ndarray:
    """The reduced Choi matrix whose only nonzero entries ``[(i,k),(j,k)]`` are ``blocks[k][i, j]``."""
    d, din, _ = blocks.shape
    full = np.zeros((din, d, din, d), dtype=complex)
    for k in range(d):
        full[:, k, :, k] = blocks[k]
    return full.reshape(din * d, din * d)


def _independent_views(masker, spec) -> tuple:
    """``(seen_by_a, seen_by_b)`` from neither route of ``verify``.

    Up to input dimension 8 they come from the full Choi matrix and a partial
    trace; above, that matrix is too large (268 MB at 16), and they come
    from ``choi(spec)`` contracted with the masker instead.
    """
    if channel_dims(spec)[0] <= 8:
        return brute_force_reduced_choi(masker, spec, "B"), brute_force_reduced_choi(masker, spec, "A")
    return choi_reduced_chois(masker, spec)


def _oracle_deviations(masker, members, views=_independent_views) -> tuple:
    """Worst pairwise deviation seen by A and by B, from the oracle ``views`` (``_independent_views``)."""
    out = []
    for chois in zip(*(views(masker, spec) for spec in members)):
        out.append(max(np.linalg.norm(chois[i] - chois[j])
                       for i in range(len(chois)) for j in range(i + 1, len(chois))))
    return tuple(out)


def _count_general_route(monkeypatch) -> list:
    """Record every call ``verify_masking`` makes to ``reduced_channel_choi``."""
    calls = []
    general = verify.reduced_channel_choi

    def counted(masker, spec):
        calls.append(spec)
        return general(masker, spec)

    monkeypatch.setattr(verify, "reduced_channel_choi", counted)
    return calls


def _leak_off_copy_row(masker: Masker) -> Masker:
    """Rotate copy row 0 by 0.1 rad into row 1 (``|0,1>``): still an isometry, no longer a copy masker."""
    m = masker.matrix.copy()
    m[1] = np.sin(0.1) * m[0]
    m[0] = np.cos(0.1) * m[0]
    return Masker(m, masker.dims)


class TestCopyMaskerClosedForm:
    """The blocks of a copy masker, the Kraus form with one copy row per block, against the full reduced
    Choi matrices of both sides."""

    @settings(max_examples=40, deadline=None)
    @given(
        din=st.sampled_from([5, 6, 8, 12, 16]),
        kind=st.sampled_from(["unitary", "kraus", "depolarized", "classical"]),
        p=st.sampled_from([0.0, None, 1.0]),
        extra_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_the_reduced_choi_matrices(self, din, kind, p, extra_row, seed):
        rng = np.random.default_rng(seed)
        spec = _member(kind, din, rng, p)
        dout = spec.out_size if kind == "classical" else din
        rows = random_isometry(rng, dout + extra_row, dout)
        masker = copy_masker(rows)
        closed = _expand(_kraus_choi(rows[:, None, None], spec))
        for view in _independent_views(masker, spec):
            assert np.abs(closed - view).max() <= 1e-12

    @pytest.mark.parametrize("dim", [8, 16])
    def test_copy_masker_takes_the_closed_form(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        members = list(random_commuting_family(rng, dim, 3))
        masker = copy_masker(decide_gate_family(members).certificate.copy_rows(members))
        calls = _count_general_route(monkeypatch)
        report = verify_masking(masker, members, 1e-12)
        assert report.passed and calls == []
        assert report.max_deviation_a == report.max_deviation_b

    @pytest.mark.parametrize("kind,din,dout", [("classical", 1, 40), ("classical", 4, 17), ("unitary", 5, 5)])
    def test_reduced_channel_choi_takes_the_kraus_form(self, kind, din, dout, monkeypatch):
        # reduced_channel_choi is the Kraus-form formula for a copy masker too: no channel applied, no
        # partial trace, and two views of their own.
        rng = np.random.default_rng(din * dout)
        spec = random_classical_channel(din, dout, rng) if kind == "classical" else Unitary(random_unitary(din, rng))
        masker = copy_masker(random_unitary(dout, rng))
        applied, traced = _record_apply_stacks_and_traced_products(monkeypatch)
        seen_by_a, seen_by_b = reduced_channel_choi(masker, spec)
        assert applied == traced == []
        assert seen_by_a is not seen_by_b
        for view, oracle in zip((seen_by_a, seen_by_b), choi_reduced_chois(masker, spec)):
            assert np.abs(view - oracle).max() <= 1e-12

    def test_set_blocks_over_the_entry_bound_are_refused(self):
        # A copy masker on 65 x 65 at din = 64: its blocks hold 65 * 64**2 entries, but each view would hold
        # (64 * 65)**2, over the bound of 2**24.  verify_masking compares the blocks.
        rng = np.random.default_rng(65)
        members = [random_classical_channel(64, 65, rng) for _ in range(2)]
        masker = copy_masker(np.eye(65))
        with pytest.raises(ValueError, match=r"^a reduced Choi matrix of 17305600 entries exceeds "
                                             r"the bound of 2\*\*24 entries$"):
            reduced_channel_choi(masker, members[0])
        assert not verify_masking(masker, members, 1e-9).passed

    def test_input_dimension_mismatch_is_refused(self):
        masker = copy_masker(np.eye(6))
        with pytest.raises(ValueError, match="masker input dimension 6 does not match channel output 5"):
            verify_masking(masker, [identity_channel(5)], 1e-9)


class TestClosedFormCannotBeFooled:
    """Only a matrix that is a copy masker takes the closed form; every other masker keeps the general route."""

    @pytest.mark.parametrize("dim", [8, 16])
    def test_leaking_row_takes_the_general_route(self, dim, monkeypatch):
        rng = np.random.default_rng(100 + dim)
        members = list(random_commuting_family(rng, dim, 3))
        edited = _leak_off_copy_row(copy_masker(decide_gate_family(members).certificate.copy_rows(members)))
        calls = _count_general_route(monkeypatch)
        report = verify_masking(edited, members, 1e-9)
        assert len(calls) == len(members)
        assert not report.passed
        expected_a, expected_b = _oracle_deviations(edited, members)
        assert abs(report.max_deviation_a - expected_a) <= 1e-12
        assert abs(report.max_deviation_b - expected_b) <= 1e-12

    def test_non_copy_maskers_above_sixteen_are_reported(self):
        # No input dimension is refused: at d = 32 a copy masker with a
        # leaking row and a dense 32 x 33 masker get reports, as the oracle's.
        rng = np.random.default_rng(32)
        members = list(random_commuting_family(rng, 32, 2))
        masker = copy_masker(decide_gate_family(members).certificate.copy_rows(members))
        assert verify_masking(masker, members, 1e-9).passed
        dense = Masker(random_isometry(rng, 32 * 33, 32), BipartiteDims(32, 33))
        for other in (_leak_off_copy_row(masker), dense):
            report = verify_masking(other, members, 1e-9)
            assert not report.passed
            expected_a, expected_b = _oracle_deviations(other, members)
            assert abs(report.max_deviation_a - expected_a) <= 1e-12
            assert abs(report.max_deviation_b - expected_b) <= 1e-12

    def test_unequal_factors_take_the_general_route(self, monkeypatch):
        # rows k*(dimA + 1) hold the basis, as in a copy masker on dimA x dimA,
        # but in dimA x (dimA + 1) they write |k, 0>: A sees the whole channel
        dim = 8
        rng = np.random.default_rng(3)
        members = list(random_commuting_family(rng, dim, 3))
        matrix = np.zeros((dim * (dim + 1), dim), dtype=complex)
        matrix[:: dim + 1] = random_unitary(dim, rng)
        masker = Masker(matrix, BipartiteDims(dim, dim + 1))
        calls = _count_general_route(monkeypatch)
        report = verify_masking(masker, members, 1e-9)
        assert len(calls) == len(members)
        expected_a, expected_b = _oracle_deviations(masker, members)
        assert abs(report.max_deviation_a - expected_a) <= 1e-12
        assert abs(report.max_deviation_b - expected_b) <= 1e-12
        assert report.max_deviation_a > 0.1 and report.max_deviation_b <= 1e-12
