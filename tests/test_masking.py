import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from channelmask.channels import (
    DepolarizedUnitary,
    KrausChannel,
    PauliFourVector,
    SIGMA_X,
    SIGMA_Z,
    Unitary,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarizing,
    identity_channel,
    random_classical_channel,
)
from channelmask import channels, linalg, masking
from channelmask.linalg import (
    BipartiteDims,
    commutator_norm,
    is_isometry,
    simultaneous_eigenbasis,
)
from channelmask.masking import (
    CommonEigenbasis,
    FixedPointAxis,
    Fourier,
    Masker,
    MaskingDecision,
    NoCommonBasis,
    NoCommonFixedPoint,
    NoConstantAxis,
    NonUnital,
    NoPureFixedPoint,
    NoncommutingPair,
    PauliAxis,
    SearchReport,
    Trivial,
    classical_no_go_search,
    copy_masker,
    decide_classical_family,
    decide_depolarized_family,
    decide_gate_family,
    decide_identity_family,
    decide_pauli_family,
)
from channelmask.verify import reduced_channel_choi, verify_masking

from helpers import (
    conjugate,
    dephasing_about,
    depolarized_family,
    gate_family,
    local_orthogonality_check,
    loop_classical_no_go_search,
    pair_loop_gate_decision,
    random_axis,
    random_commuting_family,
    random_density,
    random_noncommuting_triple,
    random_unitary,
    rotation_mixture_channel,
)

I2 = np.eye(2, dtype=complex)
SQRT_Z = np.diag([1.0, 1j])
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
COPY2 = copy_masker(I2).matrix


def constant_x_family(c: float, grid: int) -> list:
    members = []
    for mu in np.linspace(0.0, c, grid):
        for nu in np.linspace(0.0, 1.0 - c, grid):
            members.append(PauliFourVector(mu, c - mu, nu, 1.0 - c - nu))
    return members


class TestDecideGateFamily:
    def test_x_z_powers_maskable(self):
        fam = gate_family(SIGMA_X, SIGMA_X @ SIGMA_Z, SIGMA_X @ SQRT_Z)
        decision = decide_gate_family(fam)
        assert decision.maskable
        assert isinstance(decision.certificate, CommonEigenbasis)

    def test_pauli_pair_not_maskable(self):
        fam = gate_family(I2, SIGMA_X, SIGMA_Z)
        decision = decide_gate_family(fam)
        assert not decision.maskable
        wit = decision.witness
        assert isinstance(wit, NoncommutingPair)
        assert (wit.i, wit.j) == (1, 2)
        assert wit.comm_norm == pytest.approx(2 * np.sqrt(2), rel=1e-15)

    def test_any_pair_maskable(self):
        rng = np.random.default_rng(0)
        fam = gate_family(random_unitary(3, rng), random_unitary(3, rng))
        assert decide_gate_family(fam).maskable

    def test_single_gate_trivial(self):
        fam = gate_family(SIGMA_X)
        decision = decide_gate_family(fam)
        assert decision.maskable
        assert isinstance(decision.certificate, Trivial)

    def test_base_point_invariance(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            if trial % 2 == 0:
                fam = random_commuting_family(rng, 3, 4)
            else:
                fam = random_noncommuting_triple(rng, 3)
            verdicts = set()
            us = list(fam)
            for k in range(len(us)):
                swapped = list(us)
                swapped[0], swapped[k] = swapped[k], swapped[0]
                verdicts.add(decide_gate_family(tuple(swapped)).maskable)
            assert len(verdicts) == 1

    def test_screened_family_computes_no_commutator(self, monkeypatch):
        # a maskable n = 32 family passes the screen with the first draw; a
        # Haar family recomputes only the pairs whose batched norm ties the worst
        calls = {"commutator_norm": 0, "simultaneous_eigenbasis": 0}

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name, fn in (("commutator_norm", commutator_norm), ("simultaneous_eigenbasis", simultaneous_eigenbasis)):
            monkeypatch.setattr(masking, name, spy(name, fn))
        rng = np.random.default_rng(4)
        assert decide_gate_family(random_commuting_family(rng, 16, 32)).maskable
        assert calls == {"commutator_norm": 0, "simultaneous_eigenbasis": 0}
        decision = decide_gate_family(gate_family(*(random_unitary(16, rng) for _ in range(32))))
        assert isinstance(decision.witness, NoncommutingPair)
        assert 1 <= calls["commutator_norm"] <= 5

    def test_noncommuting_first_pair_spends_no_draw(self, monkeypatch):
        # the screen would fail on a first pair over the bound, so no draw is taken;
        # a family whose first pair commutes still draws once
        draws, draw = [], masking._combination_bases

        def counted(ws, seed):
            draws.append(len(ws))
            return draw(ws, seed)

        monkeypatch.setattr(masking, "_combination_bases", counted)
        rng = np.random.default_rng(8)
        decision = decide_gate_family(random_noncommuting_triple(rng, 4))
        assert isinstance(decision.witness, NoncommutingPair) and draws == []
        assert decide_gate_family(random_commuting_family(rng, 4, 3)).maskable and draws == [2]

    def test_fallback_restarts_the_seeds_draws(self, monkeypatch):
        # member 3 nudged by exp(i 1e-5 H): the screen's draw fails its bound
        # but every commutator passes, so simultaneous_eigenbasis starts the
        # same seed's draws again on the ws it is given, the screen's draw first
        starts, fallbacks, draw, fallback = [], [], masking._combination_bases, masking.simultaneous_eigenbasis

        def counted(ws, seed):
            starts.append(seed)
            return draw(ws, seed)

        def spied(*args, **kwargs):
            fallbacks.append(args)
            return fallback(*args, **kwargs)

        for module in (masking, linalg):
            monkeypatch.setattr(module, "_combination_bases", counted)
        monkeypatch.setattr(masking, "simultaneous_eigenbasis", spied)
        rng = np.random.default_rng(1)
        us = [m.matrix for m in random_commuting_family(rng, 4, 4)]
        values, vectors = np.linalg.eigh(random_density(rng, 4))
        us[3] = us[3] @ (vectors * np.exp(1e-5j * values)) @ vectors.conj().T
        decision = decide_gate_family(gate_family(*us), 1e-5)
        assert len(fallbacks) == 1 and starts == [0, 0]
        expected = pair_loop_gate_decision(us, 1e-5, 0).certificate.basis
        assert decision.certificate.basis.tobytes() == expected.tobytes()

    def test_pre_post_invariance(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            if trial % 2 == 0:
                fam = random_commuting_family(rng, 2, 3)
            else:
                fam = random_noncommuting_triple(rng, 2)
            v = random_unitary(2, rng)
            w = random_unitary(2, rng)
            wrapped = gate_family(*(v @ m.matrix @ w for m in fam))
            assert decide_gate_family(fam).maskable == decide_gate_family(wrapped).maskable

    @pytest.mark.parametrize("decide, family", [(decide_gate_family, gate_family),
                                                (decide_depolarized_family, lambda *us: depolarized_family(0.5, *us))],
                             ids=["gate", "depolarized"])
    def test_a_nan_tolerance_is_refused(self, decide, family):
        # no norm is within a NaN bound: [I, X, Z] is refused as at the default tolerance, and the
        # commuting [I, Z, Z] with its pair's norm 0.0
        nan = float("nan")
        refused = decide(family(I2, SIGMA_X, SIGMA_Z), nan)
        assert refused == decide(family(I2, SIGMA_X, SIGMA_Z))
        assert decide(family(I2, SIGMA_Z, SIGMA_Z), nan) == MaskingDecision(False, witness=NoncommutingPair(1, 2, 0.0))
        assert decide(family(I2, SIGMA_Z, SIGMA_Z)).maskable

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0], ids=["nan", "zero", "negative"])
    @pytest.mark.parametrize("decide, family", [(decide_gate_family, gate_family),
                                                (decide_depolarized_family, lambda *us: depolarized_family(0.5, *us))],
                             ids=["gate", "depolarized"])
    def test_one_relative_gate_has_no_pair_to_refuse(self, decide, family, tol):
        # [I, Z] has the one relative gate Z, so a tolerance that is not positive goes to the common eigenbasis:
        # Z's is exact, so a bound of 0 keeps it and a bound below 0 (or NaN) refuses it with its residual 0.0
        decision = decide(family(I2, SIGMA_Z), tol)
        if tol == 0.0:
            expected = decide(family(I2, SIGMA_Z)).certificate
            assert decision.maskable and decision.certificate.basis.tobytes() == expected.basis.tobytes()
        else:
            assert decision == MaskingDecision(False, witness=NoCommonBasis(0.0))


class TestSynthesizeGateMasker:
    def test_identity_z_pair(self):
        fam = gate_family(I2, SIGMA_Z)
        decision = decide_gate_family(fam)
        masker = copy_masker(decision.certificate.copy_rows(fam))
        assert_allclose(masker.matrix, COPY2, atol=1e-12)

    def test_x_z_powers_masker(self):
        fam = gate_family(SIGMA_X, SIGMA_X @ SIGMA_Z, SIGMA_X @ SQRT_Z)
        decision = decide_gate_family(fam)
        masker = copy_masker(decision.certificate.copy_rows(fam))
        assert_allclose(masker.matrix, COPY2 @ SIGMA_X, atol=1e-12)
        report = verify_masking(masker, fam, 1e-9)
        assert report.passed

    def test_repeated_gate(self):
        rng = np.random.default_rng(3)
        u = random_unitary(3, rng)
        fam = gate_family(u, u)
        decision = decide_gate_family(fam)
        masker = copy_masker(decision.certificate.copy_rows(fam))
        assert verify_masking(masker, [Unitary(u), Unitary(u)], 1e-9).passed

    def test_certificate_family_mismatch(self):
        fam = gate_family(I2, SIGMA_Z)
        other = decide_gate_family(gate_family(I2, HADAMARD)).certificate
        with pytest.raises(ValueError):
            copy_masker(other.copy_rows(fam))

    def test_soundness_on_random_families(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            dim = int(rng.choice([2, 3, 4, 6]))
            size = int(rng.integers(2, 7))
            fam = random_commuting_family(rng, dim, size)
            decision = decide_gate_family(fam)
            assert decision.maskable
            masker = copy_masker(decision.certificate.copy_rows(fam))
            assert is_isometry(masker.matrix, 1e-10)
            report = verify_masking(masker, fam, 1e-9)
            assert report.passed

    def test_local_orthogonality_of_pair_maskers(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            dim = int(rng.choice([2, 3, 4]))
            fam = random_commuting_family(rng, dim, 2, repeated_phase=trial % 2 == 0)
            pair = gate_family(np.eye(dim), fam[0].matrix)
            decision = decide_gate_family(pair)
            masker = copy_masker(decision.certificate.copy_rows(pair))
            assert verify_masking(masker, pair, 1e-9).passed
            assert local_orthogonality_check(masker, pair[1].matrix, 1e-9)


class TestGateMembers:
    def test_gate_members_are_checked_where_they_enter(self):
        cert = decide_gate_family(gate_family(I2, SIGMA_Z)).certificate
        with pytest.raises(ValueError, match="non-empty"):
            decide_gate_family(())
        with pytest.raises(ValueError, match="non-empty"):
            cert.copy_rows(())
        with pytest.raises(ValueError, match="^family must be non-empty$"):
            Trivial().copy_rows(())
        with pytest.raises(ValueError, match="one dimension"):
            decide_gate_family(gate_family(I2, np.eye(3)))
        with pytest.raises(ValueError, match="must be Unitary or DepolarizedUnitary"):
            cert.copy_rows((Unitary(I2), PauliFourVector(1, 0, 0, 0)))
        with pytest.raises(ValueError, match="must be Unitary$"):
            decide_gate_family(depolarized_family(0.5, I2, SIGMA_Z))
        with pytest.raises(ValueError, match="must be DepolarizedUnitary$"):
            decide_depolarized_family(gate_family(I2, SIGMA_Z))
        with pytest.raises(ValueError, match="one noise level p"):
            decide_depolarized_family((DepolarizedUnitary(0.5, I2), DepolarizedUnitary(0.5 + 1e-9, SIGMA_Z)))
        assert decide_depolarized_family((DepolarizedUnitary(0.5, I2), DepolarizedUnitary(0.5 + 1e-13, SIGMA_Z))).maskable

    def test_common_eigenbasis_refuses_a_basis_that_does_not_fit(self):
        fam = gate_family(I2, SIGMA_Z)
        with pytest.raises(ValueError, match="^certificate basis dimension does not match the family$"):
            CommonEigenbasis(np.eye(3)).copy_rows(fam)
        with pytest.raises(ValueError, match="^certificate reference index out of range$"):
            CommonEigenbasis(I2, reference_index=2).copy_rows(fam)
        with pytest.raises(ValueError, match="^certificate basis is not orthonormal$"):
            CommonEigenbasis(np.array([[1.0, 1.0], [0.0, 1.0]])).copy_rows(fam)

    def test_common_eigenbasis_refuses_a_reference_index_that_is_not_an_integer(self):
        # read with operator.index: a float is refused, not used to index the members
        with pytest.raises(ValueError, match=r"^certificate reference index must be an integer, got 0\.5$"):
            CommonEigenbasis(I2, reference_index=0.5).copy_rows(gate_family(I2, SIGMA_Z))

    def test_both_gate_kinds_give_the_same_rows(self):
        cert = decide_gate_family(gate_family(SIGMA_X, SIGMA_X @ SIGMA_Z)).certificate
        assert_allclose(cert.copy_rows(depolarized_family(0.3, SIGMA_X, SIGMA_X @ SIGMA_Z)),
                        cert.copy_rows(gate_family(SIGMA_X, SIGMA_X @ SIGMA_Z)), atol=0)
        assert_allclose(Trivial().copy_rows(depolarized_family(0.3, SIGMA_X)), SIGMA_X.conj().T, atol=0)
        # one member leaves no relative gate to diagonalize
        assert_allclose(CommonEigenbasis(I2).copy_rows(gate_family(SIGMA_X)), SIGMA_X.conj().T, atol=0)
        assert_allclose(Trivial().copy_rows([PauliFourVector(1, 0, 0, 0)]), I2, atol=0)


    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 32),
        n=st.integers(2, 8),
        scaled=st.booleans(),
        stacked=st.booleans(),
        defect=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_relative_gates_of_members_within_1e_10_are_within_1e_9(self, d, n, scaled, stacked, defect, seed):
        # The gate decider takes the relative gates U_1^dag U_k to simultaneous_eigenbasis unchecked.  Scaled
        # members (1 + e) V_k give each relative gate twice the members' defect; the others perturb V_k at random.
        rng = np.random.default_rng(seed)
        target = defect * 1e-10
        stack = []
        for _ in range(n):
            v = random_unitary(d, rng)
            if scaled:
                stack.append(v * (1.0 + target / (2.0 * np.sqrt(d))))
            else:
                noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                first_order = v.conj().T @ noise + noise.conj().T @ v  # of (v + t N)^dag (v + t N) - 1
                stack.append(v + target / np.linalg.norm(first_order) * noise)
        stack = np.array(stack)
        members = channels._gates(stack) if stacked else [Unitary(u) for u in stack]
        assert members is not None
        ws = masking._relative_gates([m.matrix for m in members], 0)
        assert (linalg.isometry_defects(ws) <= 1e-9).all()


class TestDecidePauliFamily:
    def test_bit_flip_family(self):
        decision = decide_pauli_family([bit_flip(p) for p in (0.1, 0.3, 0.7)])
        assert decision.maskable
        cert = decision.certificate
        assert isinstance(cert, PauliAxis)
        assert cert.axis == "x"
        assert cert.constant == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_family(self):
        decision = decide_pauli_family([depolarizing(0.2), depolarizing(0.8)])
        assert not decision.maskable
        wit = decision.witness
        assert isinstance(wit, NoConstantAxis)
        for axis in ("x", "y", "z"):
            assert wit.spreads[axis] == pytest.approx(0.3, abs=1e-12)

    def test_two_parameter_grid(self):
        decision = decide_pauli_family(constant_x_family(0.6, 3))
        assert decision.maskable
        cert = decision.certificate
        assert cert.axis == "x"
        assert cert.constant == pytest.approx(0.6, abs=1e-12)

    def test_single_member_trivial(self):
        decision = decide_pauli_family([depolarizing(0.5)])
        assert decision.maskable
        assert isinstance(decision.certificate, Trivial)

    def test_completeness_with_small_noise(self):
        rng = np.random.default_rng(6)
        tol = 1e-8
        members = []
        for _ in range(4):
            p0 = rng.uniform(0.1, 0.5)
            nu = rng.uniform(0.0, 0.3)
            delta = rng.uniform(-tol / 4, tol / 4)
            members.append(PauliFourVector(p0 + delta, 0.6 - p0 - delta, nu, 0.4 - nu))
        decision = decide_pauli_family(members, tol)
        assert decision.maskable
        assert decision.certificate.axis == "x"

    def test_large_spreads_refused(self):
        rng = np.random.default_rng(7)
        members = []
        for _ in range(4):
            p = rng.dirichlet(np.ones(4))
            members.append(PauliFourVector(*p))
        spreads = decide_pauli_family(members).witness.spreads
        assert all(v > 1e-7 for v in spreads.values())


class TestSynthesizePauliMasker:
    def test_axis_x(self):
        masker = copy_masker(PauliAxis("x", 0.0).copy_rows())
        expected = np.zeros((4, 2), dtype=complex)
        expected[0] = [1, 1] / np.sqrt(2)
        expected[3] = [1, -1] / np.sqrt(2)
        assert_allclose(masker.matrix, expected, atol=1e-15)

    def test_axis_z(self):
        assert_allclose(copy_masker(PauliAxis("z", 0.0).copy_rows()).matrix, COPY2, atol=1e-15)

    def test_axis_y(self):
        masker = copy_masker(PauliAxis("y", 0.0).copy_rows())
        expected = np.zeros((4, 2), dtype=complex)
        expected[0] = np.array([1, -1j]) / np.sqrt(2)  # <y+| row
        expected[3] = np.array([1, 1j]) / np.sqrt(2)  # <y-| row
        assert_allclose(masker.matrix, expected, atol=1e-15)
        family = [PauliFourVector(0.5, 0.0, 0.3, 0.2), PauliFourVector(0.2, 0.0, 0.6, 0.2)]
        assert verify_masking(masker, family, 1e-9).passed

    # Bit patterns of (re, im) of each row entry, signed zeros included:
    # np.array_equal ignores the sign of a zero, but masker files print -0.0.
    S, M, P0, N0 = 0x3FE6A09E667F3BCC, 0xBFE6A09E667F3BCC, 0x0, 0x8000000000000000
    ROW_BITS = {
        "x": [[S, N0, S, N0], [S, N0, M, P0]],
        "y": [[S, N0, N0, M], [S, N0, P0, S]],
        "z": [[0x3FF0000000000000, N0, P0, N0], [P0, N0, 0x3FF0000000000000, N0]],
    }

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_rows_keep_their_bits(self, axis):
        rows = np.ascontiguousarray(PauliAxis(axis, 0.0).copy_rows())
        assert rows.view(np.uint64).tolist() == self.ROW_BITS[axis]

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            copy_masker(PauliAxis("w", 0.0).copy_rows())

    def test_a_family_the_decider_refuses_is_refused(self):
        family = [bit_flip(0.1), dephasing(0.3)]
        assert not decide_pauli_family(family).maskable
        with pytest.raises(ValueError, match=r"^p0 \+ p_x is not constant across the family$"):
            PauliAxis("x", 0.5).copy_rows(family)
        with pytest.raises(ValueError, match="^pauli family members must be PauliFourVector$"):
            PauliAxis("z", 0.0).copy_rows([Unitary(np.eye(2))])

    def test_a_nan_tolerance_refuses(self):
        family = [dephasing(0.2), dephasing(0.4)]
        assert_allclose(PauliAxis("z", 1.0).copy_rows(family, 0.0), PauliAxis("z", 1.0).copy_rows(), atol=0)
        with pytest.raises(ValueError, match=r"^p0 \+ p_z is not constant across the family$"):
            PauliAxis("z", 1.0).copy_rows(family, float("nan"))

    def test_refused_family_masker_fails_loudly(self):
        family = [depolarizing(0.2), depolarizing(0.8)]
        assert not decide_pauli_family(family).maskable
        report = verify_masking(copy_masker(PauliAxis("x", 0.0).copy_rows()), family, 1e-6)
        assert not report.passed
        assert max(report.max_deviation_a, report.max_deviation_b) > 1e-6


class TestDecideIdentityPair:
    def test_dephasing(self):
        decision = decide_identity_family([dephasing(0.4)])
        assert decision.maskable
        assert_allclose(decision.certificate.direction, [0, 0, 1], atol=1e-12)

    def test_amplitude_damping(self):
        decision = decide_identity_family([amplitude_damping(0.3)])
        assert not decision.maskable
        wit = decision.witness
        assert isinstance(wit, NonUnital)
        assert_allclose(wit.shift, [0, 0, 0.3], atol=1e-12)

    def test_depolarizing(self):
        decision = decide_identity_family([depolarizing(0.5)])
        assert not decision.maskable
        wit = decision.witness
        assert isinstance(wit, NoPureFixedPoint)
        assert_allclose(wit.eigenvalues, [0.5, 0.5, 0.5], atol=1e-12)

    def test_identity_channel(self):
        decision = decide_identity_family([identity_channel(2)])
        assert decision.maskable
        assert_allclose(decision.certificate.direction, [0, 0, 1])

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="^identity family members must be qubit channels$"):
            decide_identity_family([identity_channel(3)])

    def test_refused_channels_fail_class_masker(self):
        masker = copy_masker(PauliAxis("z", 0.0).copy_rows())  # the fixed-axis masker for z
        for spec in (amplitude_damping(0.3), depolarizing(0.5)):
            report = verify_masking(masker, [identity_channel(2), spec], 1e-6)
            assert not report.passed
            assert max(report.max_deviation_a, report.max_deviation_b) > 1e-6


class TestSynthesizeIdentityMasker:
    def test_dephasing_z(self):
        masker = copy_masker(FixedPointAxis(np.array([0, 0, 1.0])).copy_rows([dephasing(0.3)]))
        assert_allclose(masker.matrix, COPY2, atol=1e-12)
        assert verify_masking(masker, [identity_channel(2), dephasing(0.3)], 1e-12).passed

    def test_dephasing_x_through_hadamard(self):
        spec = conjugate(dephasing(0.3), HADAMARD, HADAMARD)
        masker = copy_masker(FixedPointAxis(np.array([1.0, 0, 0])).copy_rows([spec]))
        assert_allclose(masker.matrix, COPY2 @ HADAMARD, atol=1e-12)
        assert verify_masking(masker, [identity_channel(2), spec], 1e-12).passed

    def test_identity_any_axis(self):
        rng = np.random.default_rng(8)
        axis = random_axis(rng)
        masker = copy_masker(FixedPointAxis(axis).copy_rows([identity_channel(2)]))
        assert verify_masking(masker, [identity_channel(2), identity_channel(2)], 1e-12).passed

    def test_listed_direction_is_accepted_beyond_tol(self):
        # weak damping toward |1> (gamma 0.9e-8) after z-dephasing: |b| and the
        # smallest singular value of A - 1 are within 1e-8, so +z is listed as
        # fixed, yet A z + b - z has norm 1.8e-8, beyond the tolerance
        gamma, p = 0.9e-8, 0.25
        damping = (np.diag([np.sqrt(1 - gamma), 1.0]), np.array([[0.0, 0.0], [np.sqrt(gamma), 0.0]]))
        spec = KrausChannel(tuple(np.sqrt(1 - p) * k for k in damping)
                            + tuple(np.sqrt(p) * SIGMA_Z @ k for k in damping))
        cert = decide_identity_family([spec]).certificate
        assert_allclose(cert.direction, [0, 0, 1], atol=0)
        assert_allclose(cert.copy_rows([spec]), I2, atol=1e-12)

    @staticmethod
    def _count_fixed_points(monkeypatch) -> list:
        """Record each member whose pure fixed points ``FixedPointAxis.copy_rows`` computes."""
        calls = []
        fixed_points = masking._pure_fixed_points

        def counted(spec, aff, tol):
            calls.append(spec)
            return fixed_points(spec, aff, tol)

        monkeypatch.setattr(masking, "_pure_fixed_points", counted)
        return calls

    def test_a_common_axis_family_computes_no_fixed_points(self, monkeypatch):
        rng = np.random.default_rng(11)
        axis = random_axis(rng)
        family = [identity_channel(2), dephasing_about(axis, 0.3), rotation_mixture_channel(rng, axis)]
        decision = decide_identity_family(family)
        calls = self._count_fixed_points(monkeypatch)
        masker = copy_masker(decision.certificate.copy_rows(family))
        assert calls == []
        assert verify_masking(masker, family, 1e-9).passed

    def test_a_member_fixing_the_axis_only_by_its_list_computes_its_fixed_points(self, monkeypatch):
        # the member of test_listed_direction_is_accepted_beyond_tol moves +z by 1.8e-8, beyond the
        # tolerance, so only its listed fixed points accept it; dephasing(0.3) needs none
        gamma, p = 0.9e-8, 0.25
        damping = (np.diag([np.sqrt(1 - gamma), 1.0]), np.array([[0.0, 0.0], [np.sqrt(gamma), 0.0]]))
        listed = KrausChannel(tuple(np.sqrt(1 - p) * k for k in damping)
                              + tuple(np.sqrt(p) * SIGMA_Z @ k for k in damping))
        aff = channels.bloch_affine(listed)
        z = np.array([0.0, 0.0, 1.0])
        assert np.linalg.norm(aff.matrix @ z + aff.shift - z) > 1e-8
        calls = self._count_fixed_points(monkeypatch)
        assert_allclose(FixedPointAxis(z).copy_rows([dephasing(0.3), listed]), I2, atol=1e-12)
        assert calls == [listed]
        calls.clear()
        with pytest.raises(ValueError, match="^direction is not a fixed point of the channel$"):
            FixedPointAxis(z).copy_rows([listed, bit_flip(0.3)])
        assert calls == [listed, bit_flip(0.3)]

    def test_rejects_axis_a_later_member_moves(self):
        with pytest.raises(ValueError, match="not a fixed point"):
            FixedPointAxis(np.array([0, 0, 1.0])).copy_rows([dephasing(0.3), bit_flip(0.3)])
        with pytest.raises(ValueError, match="non-empty"):
            FixedPointAxis(np.array([0, 0, 1.0])).copy_rows(())

    def test_rejects_a_member_the_decider_calls_non_unital(self):
        # amplitude damping fixes |0> but shifts the Bloch ball: a masker on z
        # would fail verify on {identity, AD} with deviation 0.424
        spec = amplitude_damping(0.3)
        assert decide_identity_family([spec]).witness.to_json()["type"] == "non_unital"
        with pytest.raises(ValueError, match="^channel is not unital$"):
            FixedPointAxis(np.array([0, 0, 1.0])).copy_rows([spec])

    def test_rejects_a_nan_direction(self):
        # abs(nan - 1) > 1e-8 is False, so the unit check must refuse a NaN norm itself
        with pytest.raises(ValueError, match="^direction must be a unit 3-vector$"):
            FixedPointAxis(np.array([np.nan, 0.0, 0.0])).copy_rows([identity_channel(2)])

    def test_rejects_non_fixed_axis(self):
        with pytest.raises(ValueError, match="not a fixed point"):
            copy_masker(FixedPointAxis(np.array([1.0, 0, 0])).copy_rows([dephasing(0.3)]))

    def test_random_fixed_axis_mixtures(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            axis = random_axis(rng)
            spec = rotation_mixture_channel(rng, axis)
            decision = decide_identity_family([spec])
            assert decision.maskable
            masker = copy_masker(decision.certificate.copy_rows([spec]))
            assert verify_masking(masker, [identity_channel(2), spec], 1e-9).passed


class TestDecideIdentityFamily:
    def test_common_z_axis(self):
        family = [identity_channel(2), dephasing(0.2), dephasing(0.7)]
        decision = decide_identity_family(family)
        assert decision.maskable
        assert_allclose(decision.certificate.direction, [0, 0, 1], atol=1e-12)
        masker = copy_masker(decision.certificate.copy_rows([family[0]]))
        assert verify_masking(masker, family, 1e-9).passed

    def test_mixed_axes_refused(self):
        family = [dephasing(0.5), conjugate(dephasing(0.5), HADAMARD, HADAMARD)]
        decision = decide_identity_family(family)
        assert not decision.maskable
        assert isinstance(decision.witness, NoCommonFixedPoint)

    def test_identity_alone(self):
        decision = decide_identity_family([identity_channel(2)])
        assert decision.maskable

    def test_non_unital_member_refused(self):
        decision = decide_identity_family([identity_channel(2), amplitude_damping(0.2)])
        assert not decision.maskable
        wit = decision.witness
        assert isinstance(wit, NonUnital)
        assert wit.index == 1

    def test_common_random_axis(self):
        rng = np.random.default_rng(10)
        axis = random_axis(rng)
        family = [identity_channel(2)] + [dephasing_about(axis, p) for p in (0.2, 0.5, 0.8)]
        decision = decide_identity_family(family)
        assert decision.maskable
        masker = copy_masker(decision.certificate.copy_rows([family[0]]))
        assert verify_masking(masker, family, 1e-9).passed

    def test_one_bloch_map_per_member(self, monkeypatch):
        maps = []
        bloch_affine = channels.bloch_affine

        def counted(spec):
            maps.append(spec)
            return bloch_affine(spec)

        for module in (channels, masking):
            monkeypatch.setattr(module, "bloch_affine", counted)
        maskable = [identity_channel(2), dephasing(0.2), dephasing(0.7)]
        refused = [dephasing(0.5), conjugate(dephasing(0.5), HADAMARD, HADAMARD)]
        for family in (maskable, refused):
            maps.clear()
            decide_identity_family(family)
            assert len(maps) == len(family)
        maps.clear()
        decide_identity_family(maskable).certificate.copy_rows(maskable)
        assert len(maps) == 2 * len(maskable)  # the decision's maps, then the copy's


class TestDecideDepolarizedFamily:
    def test_pair_always_maskable(self):
        decision = decide_depolarized_family(depolarized_family(0.5, SIGMA_X, SIGMA_X @ SIGMA_Z))
        assert decision.maskable

    def test_noncommuting_refused(self):
        decision = decide_depolarized_family(depolarized_family(0.5, I2, SIGMA_X, SIGMA_Z))
        assert not decision.maskable
        assert isinstance(decision.witness, NoncommutingPair)

    def test_p_zero_trivial(self):
        decision = decide_depolarized_family(depolarized_family(0.0, I2, SIGMA_X, SIGMA_Z))
        assert decision.maskable
        assert isinstance(decision.certificate, Trivial)

    def test_matches_gate_verdict_and_masker_transfers(self):
        rng = np.random.default_rng(11)
        for p in (0.1, 0.5, 1.0):
            fam = random_commuting_family(rng, 3, 3)
            family = depolarized_family(p, *(m.matrix for m in fam))
            decision = decide_depolarized_family(family)
            gate_decision = decide_gate_family(fam)
            assert decision.maskable == gate_decision.maskable
            masker = copy_masker(decision.certificate.copy_rows(fam))
            assert verify_masking(masker, family, 1e-9).passed


class TestClassicalMasking:
    def test_decide_always_maskable(self):
        rng = np.random.default_rng(12)
        channels = [random_classical_channel(3, 3, rng) for _ in range(3)]
        decision = decide_classical_family(channels)
        assert decision.maskable
        assert decision.certificate == Fourier(3)

    def test_fourier_masker_d2(self):
        masker = copy_masker(Fourier(2).copy_rows())
        expected = np.zeros((4, 2), dtype=complex)
        expected[0] = [1, 1] / np.sqrt(2)
        expected[3] = [1, -1] / np.sqrt(2)
        assert_allclose(masker.matrix, expected, atol=1e-15)

    def test_fourier_masker_d1(self):
        masker = copy_masker(Fourier(1).copy_rows())
        assert masker.matrix.shape == (1, 1)
        assert masker.matrix[0, 0] == pytest.approx(1.0)

    def test_fourier_masker_d3_marginals(self):
        from channelmask.linalg import partial_trace

        masker = copy_masker(Fourier(3).copy_rows())
        assert is_isometry(masker.matrix, 1e-12)
        for j in range(3):
            column = masker.matrix[:, j]
            state = np.outer(column, column.conj())
            for side in ("A", "B"):
                marginal = partial_trace(state, masker.dims, side)
                assert np.linalg.norm(marginal - np.eye(3) / 3) <= 1e-12

    def test_fourier_refuses_a_dimension_that_is_not_an_integer(self):
        # read with operator.index: a float is refused, not passed to range()
        with pytest.raises(ValueError, match=r"^dimension must be an integer, got 2\.0$"):
            Fourier(2.0).copy_rows()

    def test_fourier_refuses_a_family_it_does_not_fit(self):
        rng = np.random.default_rng(14)
        family = [random_classical_channel(2, 3, rng) for _ in range(2)]
        assert_allclose(decide_classical_family(family).certificate.copy_rows(family), Fourier(3).copy_rows(),
                        atol=0)
        with pytest.raises(ValueError, match=r"^the family's output alphabet has 3 symbols, not 2$"):
            Fourier(2).copy_rows(family)
        with pytest.raises(ValueError, match="^classical family members must be ClassicalChannel$"):
            Fourier(2).copy_rows([Unitary(np.eye(2))] * 3)

    def test_fourier_universality(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            din = int(rng.integers(1, 7))
            dout = int(rng.integers(1, 7))
            spec = random_classical_channel(din, dout, rng)
            masker = copy_masker(Fourier(dout).copy_rows())
            for red in reduced_channel_choi(masker, spec):
                assert np.linalg.norm(red - np.eye(din * dout) / dout) <= 1e-9


@st.composite
def permutation_lists(draw, dims=st.integers(1, 3)):
    """``(dim, perms)``: any list of permutations, one permutation repeated, or all of them."""
    dim = draw(dims)
    shape = draw(st.sampled_from(("any", "identical", "all")))
    if shape == "all":
        return dim, list(itertools.permutations(range(dim)))
    if shape == "identical":
        return dim, [draw(st.permutations(range(dim)))] * draw(st.integers(1, 4))
    return dim, draw(st.lists(st.permutations(range(dim)), min_size=1, max_size=6))


class TestClassicalNoGoSearch:
    def test_swap_pair(self):
        report = classical_no_go_search(2, [(0, 1), (1, 0)])
        assert report.injection_count == 12
        assert report.violating_all
        oracle, counterexamples = loop_classical_no_go_search(2, [(0, 1), (1, 0)])
        assert oracle == report
        assert all(c is not None for c in counterexamples)

    def test_identical_permutations(self):
        report = classical_no_go_search(2, [(0, 1), (0, 1)])
        assert not report.violating_all

    def test_three_cycle(self):
        report = classical_no_go_search(3, [(0, 1, 2), (1, 2, 0)])
        assert report.violating_all

    def test_counterexamples_are_real(self):
        perms = [(0, 1), (1, 0)]
        _, counterexamples = loop_classical_no_go_search(2, perms)
        for injection, ce in zip(itertools.permutations(range(4), 2), counterexamples):
            x, a, b, side = ce
            pa = divmod(injection[perms[a][x]], 2)
            pb = divmod(injection[perms[b][x]], 2)
            idx = 0 if side == "A" else 1
            assert pa[idx] != pb[idx]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_enumeration_is_every_injection_in_permutations_order(self, dim):
        columns = [tuple(c) for c in masking._injections(dim).T.tolist()]
        expected = list(itertools.permutations(range(dim * dim), dim))
        assert len(set(columns)) == len(columns)
        assert set(columns) == set(expected)
        assert columns == expected

    @settings(max_examples=40, deadline=None)
    @given(permutation_lists())
    @example((4, [(0, 1, 2, 3)]))
    @example((4, [(0, 1, 2, 3), (3, 2, 1, 0)] * 3))
    @example((4, [(1, 3, 0, 2)] * 2))
    @example((4, list(itertools.permutations(range(4)))))
    def test_matches_the_loop(self, case):
        dim, perms = case
        assert classical_no_go_search(dim, perms) == loop_classical_no_go_search(dim, perms)[0]

    def test_memory_stays_flat_and_repeats_cost_nothing(self):
        # the loop peaked at 3.67 MB on the first two lists and ran for minutes on the third
        pair = [(0, 1, 2, 3), (1, 2, 3, 0)]
        for perms in (pair, list(itertools.permutations(range(4))), pair * 5000):
            tracemalloc.start()
            try:
                report = classical_no_go_search(4, perms)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report == SearchReport(injection_count=43680, violating_all=True)
            assert peak < 3_000_000

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            classical_no_go_search(5, [tuple(range(5))])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            classical_no_go_search(2, [(0, 0)])

    @pytest.mark.parametrize("perm", [(0.7, 1.2), (0.0, 1.0), "01", ("0", "1")])
    def test_rejects_non_integer_entries(self, perm):
        # int() would truncate 0.7 to 0 and read "0" as 0
        with pytest.raises(ValueError, match="not a permutation of 2 symbols: "):
            classical_no_go_search(2, [(0, 1), perm])

    def test_accepts_numpy_integers(self):
        report = classical_no_go_search(np.int64(2), np.array([[0, 1], [1, 0]]))
        assert report == SearchReport(injection_count=12, violating_all=True)


class TestMaskerValidation:
    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            Masker(np.ones((4, 2)), BipartiteDims(2, 2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Masker(COPY2, BipartiteDims(2, 3))

    def test_gate_family_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            gate_family(np.diag([1.0, 0.5]))

    def test_gate_family_rejects_empty(self):
        with pytest.raises(ValueError):
            decide_gate_family(())


class TestConjugationInvariance:
    def test_gate_decision_invariant_under_channel_conjugation(self):
        rng = np.random.default_rng(14)
        fam = random_commuting_family(rng, 2, 3)
        v = random_unitary(2, rng)
        w = random_unitary(2, rng)
        wrapped = gate_family(*(v @ m.matrix @ w for m in fam))
        assert decide_gate_family(fam).maskable == decide_gate_family(wrapped).maskable
        bad = random_noncommuting_triple(rng, 2)
        wrapped_bad = gate_family(*(v @ m.matrix @ w for m in bad))
        assert decide_gate_family(bad).maskable == decide_gate_family(wrapped_bad).maskable
