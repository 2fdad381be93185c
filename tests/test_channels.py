import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from channelmask import channels
from channelmask.channels import (
    ALL_DIRECTIONS,
    ClassicalChannel,
    DepolarizedUnitary,
    KrausChannel,
    PauliFourVector,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Unitary,
    amplitude_damping,
    apply,
    bit_flip,
    bloch_affine,
    channel_dims,
    dephasing,
    depolarizing,
    identity_channel,
    pure_fixed_points,
    random_classical_channel,
    to_kraus,
)
from channelmask.linalg import DECISION_TOL
from channelmask.masking import _unital

from helpers import (
    choi,
    conjugate,
    dephasing_about,
    generalized_amplitude_damping,
    loop_bloch_affine,
    loop_pure_fixed_points,
    loop_to_kraus,
    random_axis,
    random_density,
    random_kraus_channel,
    random_unitary,
    rotation_about,
    rotation_mixture_channel,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PLUS_STATE = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def _spec_zoo(rng):
    return [
        identity_channel(2),
        Unitary(HADAMARD),
        dephasing(0.3),
        bit_flip(0.45),
        depolarizing(0.7),
        amplitude_damping(0.25),
        DepolarizedUnitary(0.6, SIGMA_X),
        DepolarizedUnitary(0.0, SIGMA_X),
        KrausChannel((np.sqrt(0.8) * np.eye(2), np.sqrt(0.2) * SIGMA_Y)),
        ClassicalChannel(np.array([[0.9, 0.2], [0.1, 0.8]])),
        ClassicalChannel(rng.dirichlet(np.ones(3), size=2).T),
    ]


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        assert_allclose(apply(identity_channel(2), rho), rho)

    def test_dephasing_kills_coherence(self):
        assert_allclose(apply(dephasing(0.5), PLUS_STATE), np.eye(2) / 2, atol=1e-15)

    def test_depolarized_unitary_p_zero_is_constant(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert_allclose(apply(DepolarizedUnitary(0.0, SIGMA_X), rho), np.eye(2) / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(dephasing(0.5), np.eye(3))

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(1)
        for spec in _spec_zoo(rng):
            din, _ = channel_dims(spec)
            rho = random_density(rng, din)
            out = apply(spec, rho)
            assert np.trace(out) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(out - out.conj().T) <= 1e-10

    def test_matches_kraus_form_on_operator_basis(self):
        rng = np.random.default_rng(2)
        for spec in _spec_zoo(rng):
            din, dout = channel_dims(spec)
            kc = to_kraus(spec)
            basis_op = np.zeros((din, din), dtype=complex)
            for i in range(din):
                for j in range(din):
                    basis_op[i, j] = 1.0
                    direct = apply(spec, basis_op)
                    via_kraus = apply(kc, basis_op)
                    assert np.linalg.norm(direct - via_kraus) <= 1e-10
                    basis_op[i, j] = 0.0


class TestApplyToAStack:
    """A stack ``(..., d, d)`` gives, operator by operator, the bits of the 2-d call."""

    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
    def test_each_operator_keeps_the_bits_of_its_own_call(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + shape[-1])
        specs = _spec_zoo(rng) + [
            random_kraus_channel(rng, 3, 2, 3),
            DepolarizedUnitary(1.0, random_unitary(4, rng)),
            DepolarizedUnitary(0.3, random_unitary(4, rng)),
            random_classical_channel(4, 1, rng),
        ]
        for spec in specs:
            din, dout = channel_dims(spec)
            ops = rng.standard_normal((*shape, din, din)) + 1j * rng.standard_normal((*shape, din, din))
            stacked = apply(spec, ops)
            assert stacked.shape == (*shape, dout, dout)
            for index in np.ndindex(*shape):
                assert stacked[index].tobytes() == apply(spec, ops[index]).tobytes()

    def test_a_real_stack_is_taken_as_complex(self):
        ops = np.eye(4).reshape(4, 2, 2)
        stacked = apply(depolarizing(0.7), ops)
        assert stacked.dtype == complex
        for op, out in zip(ops, stacked):
            assert out.tobytes() == apply(depolarizing(0.7), op).tobytes()

    def test_messages_are_the_two_dimensional_ones(self):
        with pytest.raises(ValueError, match=r"^operator shape \(3, 3\) does not match channel input dimension 2$"):
            apply(dephasing(0.5), np.eye(3))
        with pytest.raises(ValueError, match=r"^operator shape \(4, 3, 3\) does not match channel input dimension 2$"):
            apply(dephasing(0.5), np.zeros((4, 3, 3)))
        with pytest.raises(ValueError, match=r"^operator shape \(4, 2, 3\) does not match channel input dimension 2$"):
            apply(dephasing(0.5), np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match=r"^rho must be two-dimensional, got shape \(2,\)$"):
            apply(dephasing(0.5), np.zeros(2))
        with pytest.raises(ValueError, match=r"^rho contains non-finite entries$"):
            apply(dephasing(0.5), np.full((3, 2, 2), np.nan))


class TestToKraus:
    def test_trivial_pauli(self):
        kc = to_kraus(PauliFourVector(1, 0, 0, 0))
        assert len(kc.kraus_ops) == 1
        assert_allclose(kc.kraus_ops[0], np.eye(2))

    def test_bit_flip_structure(self):
        kc = to_kraus(PauliFourVector(0.7, 0.3, 0, 0))
        assert len(kc.kraus_ops) == 2
        assert_allclose(kc.kraus_ops[0], np.sqrt(0.7) * np.eye(2))
        assert_allclose(kc.kraus_ops[1], np.sqrt(0.3) * SIGMA_X)

    def test_classical_identity(self):
        kc = to_kraus(ClassicalChannel(np.eye(2)))
        assert len(kc.kraus_ops) == 2
        assert_allclose(kc.kraus_ops[0], np.diag([1.0, 0.0]))
        assert_allclose(kc.kraus_ops[1], np.diag([0.0, 1.0]))

    def test_choi_round_trip(self):
        rng = np.random.default_rng(3)
        for spec in _spec_zoo(rng):
            assert np.linalg.norm(choi(spec) - choi(to_kraus(spec))) <= 1e-10


class TestChoi:
    def test_identity(self):
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 1.0
        assert_allclose(choi(identity_channel(2)), expected)

    def test_completely_depolarizing(self):
        assert_allclose(choi(depolarizing(1.0)), np.eye(4) / 2, atol=1e-15)

    def test_dephasing_half(self):
        assert_allclose(choi(dephasing(0.5)), np.diag([1.0, 0, 0, 1.0]), atol=1e-15)

    def test_matches_basis_operator_definition(self):
        # the block-by-block definition, one apply per basis operator
        rng = np.random.default_rng(5)
        wider = [
            Unitary(random_unitary(16, rng)),
            DepolarizedUnitary(0.3, random_unitary(5, rng)),
            random_kraus_channel(rng, 8, 6, 3),
            random_classical_channel(5, 6, rng),
        ]
        for spec in _spec_zoo(rng) + wider:
            din, dout = channel_dims(spec)
            expected = np.zeros((din * dout, din * dout), dtype=complex)
            for i in range(din):
                for j in range(din):
                    basis_op = np.zeros((din, din))
                    basis_op[i, j] = 1.0
                    expected[i * dout:(i + 1) * dout, j * dout:(j + 1) * dout] = apply(spec, basis_op)
            assert np.abs(choi(spec) - expected).max() <= 1e-12

    def test_positive_with_identity_marginal(self):
        from channelmask.linalg import BipartiteDims, partial_trace

        rng = np.random.default_rng(4)
        for spec in _spec_zoo(rng):
            din, dout = channel_dims(spec)
            c = choi(spec)
            eigs = np.linalg.eigvalsh(c)
            assert eigs.min() >= -1e-10
            marginal = partial_trace(c, BipartiteDims(din, dout), "B")
            assert np.linalg.norm(marginal - np.eye(din)) <= 1e-10


class TestBlochAffine:
    def test_identity(self):
        aff = bloch_affine(identity_channel(2))
        assert_allclose(aff.matrix, np.eye(3), atol=1e-15)
        assert_allclose(aff.shift, np.zeros(3), atol=1e-15)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.8])
    def test_dephasing(self, p):
        aff = bloch_affine(dephasing(p))
        assert_allclose(aff.matrix, np.diag([1 - 2 * p, 1 - 2 * p, 1.0]), atol=1e-14)
        assert_allclose(aff.shift, np.zeros(3), atol=1e-14)

    def test_amplitude_damping(self):
        gamma = 0.3
        aff = bloch_affine(amplitude_damping(gamma))
        root = np.sqrt(1 - gamma)
        assert_allclose(aff.matrix, np.diag([root, root, 1 - gamma]), atol=1e-14)
        assert_allclose(aff.shift, [0, 0, gamma], atol=1e-14)

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError):
            bloch_affine(identity_channel(3))

    def test_apply_consistency(self):
        rng = np.random.default_rng(5)
        sigmas = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        for spec in _spec_zoo(rng):
            if channel_dims(spec) != (2, 2):
                continue
            aff = bloch_affine(spec)
            for _ in range(5):
                n = random_axis(rng) * rng.uniform(0, 1)
                rho = 0.5 * (np.eye(2) + sum(n[i] * sigmas[i] for i in range(3)))
                out = apply(spec, rho)
                m = aff.matrix @ n + aff.shift
                expected = 0.5 * (np.eye(2) + sum(m[i] * sigmas[i] for i in range(3)))
                assert np.linalg.norm(out - expected) <= 1e-10

    def test_contraction_bound(self):
        rng = np.random.default_rng(6)
        for spec in _spec_zoo(rng):
            if channel_dims(spec) != (2, 2):
                continue
            aff = bloch_affine(spec)
            assert np.linalg.norm(aff.matrix, ord=2) <= 1 + 1e-8


class TestUnitalityAndFixedPoints:
    def test_pauli_channels_unital(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4))
            assert _unital(bloch_affine(PauliFourVector(*p)), DECISION_TOL)

    def test_amplitude_damping_not_unital(self):
        assert not _unital(bloch_affine(amplitude_damping(0.3)), DECISION_TOL)

    def test_unitary_unital(self):
        assert _unital(bloch_affine(Unitary(HADAMARD)), DECISION_TOL)

    def test_dephasing_fixed_axis(self):
        fixed = pure_fixed_points(dephasing(0.25))
        assert isinstance(fixed, list) and len(fixed) == 2
        assert_allclose(fixed[0], [0, 0, 1], atol=1e-12)
        assert_allclose(fixed[1], [0, 0, -1], atol=1e-12)

    @pytest.mark.parametrize("p", [0.2, 0.5, 1.0])
    def test_depolarizing_has_none(self, p):
        assert pure_fixed_points(depolarizing(p)) is None

    def test_identity_fixes_everything(self):
        assert pure_fixed_points(identity_channel(2)) is ALL_DIRECTIONS

    def test_amplitude_damping_fixes_pole(self):
        fixed = pure_fixed_points(amplitude_damping(0.4))
        assert isinstance(fixed, list) and len(fixed) == 1
        assert_allclose(fixed[0], [0, 0, 1], atol=1e-10)

    def test_a_near_identity_damping_fixes_no_pure_state(self):
        # Generalized amplitude damping (q = 0.9, gamma = 1.5e-8): |b| = 1.2e-8 is above tol, and A - 1 has two
        # singular values 7.5e-9 below it.  The channel fixes only the mixed Bloch vector (0, 0, 0.8), and a
        # channel that is not unital fixes at most one pure state, so no line of fixed points is searched.
        spec = generalized_amplitude_damping(0.9, 1.5e-8)
        aff = bloch_affine(spec)
        assert DECISION_TOL < np.linalg.norm(aff.shift) < 2e-8
        assert np.sum(np.linalg.svd(aff.matrix - np.eye(3), compute_uv=False) <= DECISION_TOL) == 2
        assert pure_fixed_points(spec) is None
        assert loop_pure_fixed_points(spec) is None

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_rotations_fix_their_axis_though_their_bloch_matrix_is_not_symmetric(self, tol):
        # A is a rotation, or a mixture of rotations, about the axis: A^T turns the other way, yet keeps the axis
        rng = np.random.default_rng(12)
        for _ in range(10):
            axis = random_axis(rng)
            for spec in (rotation_mixture_channel(rng, axis), Unitary(rotation_about(axis, rng.uniform(0.1, 6.0)))):
                a = bloch_affine(spec).matrix
                assert np.linalg.norm(a - a.T) > 1e-2
                fixed = pure_fixed_points(spec, tol)
                assert _same_fixed_points(fixed, loop_pure_fixed_points(spec, tol))
                assert len(fixed) == 2 and fixed[1].tobytes() == (-fixed[0]).tobytes()
                assert min(np.linalg.norm(fixed[0] - axis), np.linalg.norm(fixed[0] + axis)) <= 1e-12

    def test_tilted_dephasing_fixed_axis(self):
        rng = np.random.default_rng(8)
        axis = random_axis(rng)
        fixed = pure_fixed_points(dephasing_about(axis, 0.35))
        assert isinstance(fixed, list) and len(fixed) == 2
        assert min(np.linalg.norm(fixed[0] - axis), np.linalg.norm(fixed[0] + axis)) <= 1e-9


class TestConjugate:
    def test_undo_unitary(self):
        u = rotation_about(np.array([0, 1, 0]), 1.1)
        spec = conjugate(identity_channel(2), u, u.conj().T)
        assert np.linalg.norm(choi(spec) - choi(identity_channel(2))) <= 1e-12

    def test_hadamard_moves_dephasing_axis(self):
        spec = conjugate(dephasing(0.3), HADAMARD, HADAMARD)
        fixed = pure_fixed_points(spec)
        assert isinstance(fixed, list) and len(fixed) == 2
        assert_allclose(fixed[0], [1, 0, 0], atol=1e-10)

    def test_identity_conjugation_is_noop(self):
        spec = dephasing(0.3)
        same = conjugate(spec, np.eye(2), np.eye(2))
        assert np.linalg.norm(choi(spec) - choi(same)) <= 1e-12


class TestValidation:
    def test_pauli_clamps_round_off(self):
        p = PauliFourVector(1.0 + 1e-13, -1e-13, 0.0, 0.0)
        assert p.px == 0.0

    def test_pauli_rejects_negative(self):
        with pytest.raises(ValueError):
            PauliFourVector(1.1, -0.1, 0.0, 0.0)

    def test_pauli_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PauliFourVector(0.5, 0.1, 0.1, 0.1)

    def test_classical_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            ClassicalChannel(np.array([[0.5, 0.2], [0.4, 0.8]]))

    def test_kraus_rejects_trace_increase(self):
        with pytest.raises(ValueError):
            KrausChannel((np.eye(2), np.eye(2)))

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Unitary(np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("matrix, message", [
        (np.array([[np.nan, 0], [0, 1]]), "unitary matrix contains non-finite entries"),
        (np.array([[1, 0], [0, complex(0, np.inf)]]), "unitary matrix contains non-finite entries"),
        (np.ones((2, 3)), "unitary matrix must be square"),
        (np.array([[1e200, 1e200], [1e200, -1e200]]), r"unitary matrix is not unitary within 1e-10"),  # NaN Gram
        (np.diag([1.0, 1.0 + 2e-10]), r"unitary matrix is not unitary within 1e-10"),
    ])
    def test_unitary_check_messages(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            Unitary(matrix)

    def test_kraus_operators_with_an_overflowing_gram_are_refused(self):
        with pytest.raises(ValueError, match=r"not trace preserving"):
            KrausChannel((np.array([[1e200, 1e200], [1e200, -1e200]]), np.eye(2)))

    def test_depolarized_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            DepolarizedUnitary(1.5, SIGMA_X)

    @pytest.mark.parametrize("make, message", [
        (lambda: DepolarizedUnitary(1.5, SIGMA_X), r"^p = 1\.5 is not a probability$"),
        (lambda: DepolarizedUnitary(-1e-11, SIGMA_X), r"^p = -1e-11 is not a probability$"),
        (lambda: PauliFourVector(1.1, -0.1, 0.0, 0.0), r"^px = -0\.1 is negative$"),
        (lambda: PauliFourVector(0.5, 0.1, 0.1, 0.1), r"^probabilities sum to 0\.7999999999999999, expected 1 within 1e-10$"),
        (lambda: DepolarizedUnitary(float("nan"), np.eye(2)), r"^p = nan is not a probability$"),
        (lambda: PauliFourVector(float("nan"), 0.0, 0.0, 1.0), r"^probabilities sum to nan"),
        (lambda: PauliFourVector(1.0, 0.0, float("nan"), 0.0), r"^probabilities sum to nan"),
        (lambda: bit_flip(float("nan")), r"^probabilities sum to nan"),
        (lambda: dephasing(float("nan")), r"^probabilities sum to nan"),
        (lambda: depolarizing(float("nan")), r"^probabilities sum to nan"),
        (lambda: ClassicalChannel([0.5, 0.5]), r"^probs must be a non-empty 2-d array$"),
        (lambda: ClassicalChannel([[float("nan")], [1.0]]), r"^probs contains non-finite entries$"),
        (lambda: ClassicalChannel([[1.1], [-0.1]]), r"^probs contains negative entries$"),
        (lambda: amplitude_damping(1.5), r"^gamma must lie in \[0, 1\]$"),
    ], ids=["p-above-1", "p-below-0", "pauli-negative", "pauli-sum", "depolarized-nan", "pauli-nan-p0",
            "pauli-nan-py", "bit-flip-nan", "dephasing-nan", "depolarizing-nan", "classical-1d", "classical-nan",
            "classical-negative", "damping-above-1"])
    def test_probability_messages(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("ops, message", [
        ((), "need at least one Kraus operator"),
        ((np.eye(2), np.zeros((3, 2))), "Kraus operators must share a common shape"),
    ])
    def test_kraus_shape_messages(self, ops, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            KrausChannel(ops)

    @pytest.mark.parametrize("call", [channel_dims, lambda spec: apply(spec, np.eye(2)), to_kraus])
    def test_a_non_channel_is_refused(self, call):
        with pytest.raises(TypeError, match=r"^not a channel spec: 'I'$"):
            call("I")

    @pytest.mark.parametrize("p", [float("nan"), 1.5, -1e-11])
    def test_the_stacked_gate_read_refuses_what_the_constructor_refuses(self, p):
        with pytest.raises(ValueError, match="is not a probability"):
            DepolarizedUnitary(p, np.eye(2))
        assert channels._gates(np.eye(2, dtype=complex)[None], [p]) is None


# -- the stacked qubit passes against their loop oracles --------------------------------------


def _probability(draw) -> float:
    return draw(st.sampled_from((0.0, 1.0, 0.37)) | st.floats(0.0, 1.0))


@st.composite
def qubit_channels(draw):
    """Qubit channels of all five kinds, with zero and unit probabilities among the drawn ones."""
    kind = draw(st.sampled_from(("unitary", "kraus", "pauli", "classical", "depolarized")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "unitary":
        return Unitary(draw(st.sampled_from((random_unitary(2, rng), rotation_about(random_axis(rng), 0.5),
                                             np.eye(2)))))
    if kind == "kraus":
        return draw(st.sampled_from((random_kraus_channel(rng, 2, 2, 3), amplitude_damping(_probability(draw)),
                                     dephasing_about(random_axis(rng), _probability(draw)))))
    if kind == "pauli":
        weights = np.array([_probability(draw) for _ in range(4)])
        return PauliFourVector(*(weights / weights.sum())) if weights.sum() > 0 else PauliFourVector(1, 0, 0, 0)
    if kind == "classical":
        q0, q1 = _probability(draw), _probability(draw)
        return ClassicalChannel([[q0, q1], [1.0 - q0, 1.0 - q1]])
    return DepolarizedUnitary(_probability(draw), random_unitary(2, rng))


@st.composite
def non_unital_qubit_channels(draw):
    """Generalized amplitude dampings near the identity, whose |b| and the singular values of A - 1 sit
    around tol, mixed with random Kraus channels, which fix no pure state, and rotated amplitude dampings,
    which fix one."""
    kind = draw(st.sampled_from(("near-identity", "kraus", "damping")))
    if kind == "near-identity":
        return generalized_amplitude_damping(draw(st.floats(0.0, 1.0)), 10.0 ** draw(st.floats(-10.0, -6.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "kraus":
        return random_kraus_channel(rng, 2, 2, draw(st.integers(2, 4)))
    u = random_unitary(2, rng)
    return conjugate(amplitude_damping(draw(st.floats(1e-3, 1.0))), u.conj().T, u)


def _same_fixed_points(got, expected) -> bool:
    if got is None or got is ALL_DIRECTIONS:
        return got is expected
    return isinstance(expected, list) and [v.tobytes() for v in got] == [v.tobytes() for v in expected]


def _kraus_bytes(spec) -> list:
    return [k.tobytes() for k in spec.kraus_ops]


class TestStackedQubitPasses:
    @settings(max_examples=300, deadline=None)
    @given(qubit_channels())
    @example(PauliFourVector(1.0, 0.0, 0.0, 0.0))
    @example(PauliFourVector(0.0, 0.0, 1.0, 0.0))
    @example(PauliFourVector(0.5, 0.0, 0.0, 0.5))
    @example(depolarizing(1.0))
    @example(ClassicalChannel(np.eye(2)[::-1]))
    @example(ClassicalChannel([[1.0, 0.5], [0.0, 0.5]]))
    @example(DepolarizedUnitary(0.0, HADAMARD))
    @example(DepolarizedUnitary(1.0, HADAMARD))
    @example(DepolarizedUnitary(0.37, HADAMARD))
    @example(amplitude_damping(0.0))
    @example(amplitude_damping(1.0))
    @example(dephasing(1e-9))
    def test_bits_match_the_loops(self, spec):
        aff, oracle = bloch_affine(spec), loop_bloch_affine(spec)
        assert aff.matrix.tobytes() == oracle.matrix.tobytes()
        assert aff.shift.tobytes() == oracle.shift.tobytes()
        assert aff.matrix.flags.c_contiguous and aff.shift.flags.c_contiguous
        for tol in (DECISION_TOL, 1e-3):
            assert _same_fixed_points(pure_fixed_points(spec, tol), loop_pure_fixed_points(spec, tol))
        assert _kraus_bytes(to_kraus(spec)) == _kraus_bytes(loop_to_kraus(spec))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(non_unital_qubit_channels())
    @example(generalized_amplitude_damping(0.9, 1.5e-8))
    def test_a_channel_that_is_not_unital_fixes_at_most_one_pure_state(self, spec):
        fixed = pure_fixed_points(spec)
        assert _same_fixed_points(fixed, loop_pure_fixed_points(spec))
        if not _unital(bloch_affine(spec), DECISION_TOL):
            assert fixed is None or len(fixed) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_kraus_forms_of_every_size_match_the_loops(self, din, dout, seed, data):
        rng = np.random.default_rng(seed)
        columns = rng.dirichlet(np.ones(dout), size=din).T
        columns[:, data.draw(st.integers(0, din - 1))] = np.eye(dout)[data.draw(st.integers(0, dout - 1))]
        p = data.draw(st.sampled_from((0.0, 1.0, 0.37)) | st.floats(0.0, 1.0))
        for spec in (ClassicalChannel(columns), DepolarizedUnitary(p, random_unitary(din, rng))):
            assert _kraus_bytes(to_kraus(spec)) == _kraus_bytes(loop_to_kraus(spec))

    @pytest.mark.parametrize("kind, fields, residue", [
        ("pauli", {"p0": 0.5, "px": 0.25j, "py": 0.25, "pz": 0.0}, "0.25"),  # b is real, A is not
        ("classical", {"probs": np.array([[0.5 + 0.3j, 0.5 + 0.1j], [0.5 - 0.3j, 0.5 - 0.1j]])}, "0.4"),  # b's
    ])
    def test_a_map_that_breaks_hermiticity_is_refused_with_the_loops_residue(self, kind, fields, residue):
        # no constructor admits such a channel
        spec = object.__new__(PauliFourVector if kind == "pauli" else ClassicalChannel)
        for name, value in fields.items():
            object.__setattr__(spec, name, value)
        with pytest.raises(ValueError, match=f"imaginary residue {residue};") as stacked:
            bloch_affine(spec)
        with pytest.raises(ValueError) as loop:
            loop_bloch_affine(spec)
        assert str(stacked.value) == str(loop.value)

    def test_one_apply_per_bloch_map_and_one_per_candidate_stack(self, monkeypatch):
        stacks = []
        apply = channels.apply

        def counted(spec, op):
            stacks.append(np.shape(op))
            return apply(spec, op)

        monkeypatch.setattr(channels, "apply", counted)
        for spec, candidates in ((Unitary(rotation_about(np.array([0.6, 0.0, 0.8]), 1.0)), 2),
                                 (dephasing(0.3), 2), (amplitude_damping(0.4), 1), (depolarizing(0.5), 0)):
            stacks.clear()
            bloch_affine(spec)
            assert stacks == [(4, 2, 2)]
            stacks.clear()
            fixed = pure_fixed_points(spec)
            assert stacks == [(4, 2, 2), (candidates, 2, 2)]
            assert (fixed is None) == (candidates == 0)
