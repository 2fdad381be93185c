import inspect
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import channelmask
from channelmask import channels, cli, linalg, masking, verify
from channelmask.channels import ALL_DIRECTIONS, PAULIS
from channelmask.linalg import (
    PHASE_GAP,
    BipartiteDims,
    NoCommonBasisError,
    commutator_norm,
    fix_column_phases,
    is_isometry,
    isometry_defects,
    partial_trace,
    simultaneous_eigenbasis,
)
from channelmask.linalg import (
    _MAX_COMBINATION_DRAWS,
    _PHASE_FLOOR,
    _canonical_basis,
    _combination_bases,
    _diagonalizes_all,
    _hermitian_combination,
    _refine_subspaces,
    _uniform_draws,
)

from helpers import (
    cluster_phases,
    loop_canonical_basis,
    loop_fix_column_phases,
    loop_hermitian_combination,
    loop_refine_subspaces,
    random_commuting_family,
    random_noncommuting_triple,
    random_unitary,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SQRT_Z = np.diag([1.0, 1j])

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


class TestPartialTrace:
    def test_product_state(self):
        rho = np.kron(np.outer(KET0, KET0.conj()), np.outer(KET1, KET1.conj()))
        assert_allclose(partial_trace(rho, BipartiteDims(2, 2), "B"), np.outer(KET0, KET0.conj()))

    def test_maximally_entangled(self):
        phi = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert_allclose(partial_trace(rho, BipartiteDims(2, 2), "A"), I2 / 2, atol=1e-15)

    def test_masked_plus_state(self):
        # M = |00><+| + |11><-| sends |+> to |00>
        m = np.outer(np.kron(KET0, KET0), PLUS.conj()) + np.outer(np.kron(KET1, KET1), MINUS.conj())
        masked = m @ PLUS
        assert_allclose(masked, np.kron(KET0, KET0), atol=1e-15)
        rho = np.outer(masked, masked.conj())
        assert_allclose(partial_trace(rho, BipartiteDims(2, 2), "B"), np.outer(KET0, KET0.conj()), atol=1e-15)

    @pytest.mark.parametrize("dim_a,dim_b", [(2, 2), (2, 3), (3, 2), (4, 3)])
    def test_trace_preserved(self, dim_a, dim_b):
        rng = np.random.default_rng(dim_a * 10 + dim_b)
        dims = BipartiteDims(dim_a, dim_b)
        m = rng.standard_normal((dims.total, dims.total)) + 1j * rng.standard_normal((dims.total, dims.total))
        for side in ("A", "B"):
            assert np.trace(partial_trace(m, dims, side)) == pytest.approx(np.trace(m), abs=1e-12)

    def test_tensor_factor_recovery(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        dims = BipartiteDims(3, 2)
        assert_allclose(partial_trace(np.kron(a, b), dims, "B"), a * np.trace(b), atol=1e-12)
        assert_allclose(partial_trace(np.kron(a, b), dims, "A"), b * np.trace(a), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), BipartiteDims(2, 2), "A")

    def test_messages(self):
        dims = BipartiteDims(2, 2)
        with pytest.raises(ValueError, match=r"^partial trace needs a square matrix$"):
            partial_trace(np.zeros((4, 3)), dims, "A")
        with pytest.raises(ValueError, match=r"^matrix size 5 does not match factors 2 x 2$"):
            partial_trace(np.eye(5), dims, "A")
        with pytest.raises(ValueError, match=r"^m must be two-dimensional, got shape \(4,\)$"):
            partial_trace(np.zeros(4), dims, "A")
        with pytest.raises(ValueError, match=r"^side must be 'A' or 'B'$"):
            partial_trace(np.zeros((4, 4)), dims, "C")

    def test_a_stack_is_refused(self):
        with pytest.raises(ValueError, match=r"^m must be two-dimensional, got shape \(3, 4, 4\)$"):
            partial_trace(np.zeros((3, 4, 4)), BipartiteDims(2, 2), "A")


class TestCommutatorNorm:
    def test_self_commutation(self):
        assert commutator_norm(Z, Z) == 0.0

    def test_x_z(self):
        assert commutator_norm(X, Z) == pytest.approx(2 * np.sqrt(2), rel=1e-15)

    def test_z_sqrt_z(self):
        assert commutator_norm(Z, SQRT_Z) == 0.0

    def test_exact_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert commutator_norm(a, b) == commutator_norm(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_norm(np.eye(2), np.eye(3))


class TestSimultaneousEigenbasis:
    def test_commuting_z_family(self):
        basis = simultaneous_eigenbasis([I2, Z, SQRT_Z])
        assert_allclose(basis, np.eye(2), atol=1e-12)

    def test_singleton(self):
        rng = np.random.default_rng(5)
        u = random_unitary(4, rng)
        basis = simultaneous_eigenbasis([u])
        assert is_isometry(basis, 1e-10)
        d = basis.conj().T @ u @ basis
        assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-8 * 4

    def test_diagonal_pair(self):
        basis = simultaneous_eigenbasis([Z, -Z])
        assert_allclose(basis, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("dim,size", [(2, 3), (3, 4), (6, 5)])
    def test_random_commuting_families(self, dim, size):
        rng = np.random.default_rng(dim * size)
        eigvecs = random_unitary(dim, rng)
        ws = []
        for _ in range(size):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim))
            ws.append(eigvecs @ np.diag(phases) @ eigvecs.conj().T)
        basis = simultaneous_eigenbasis(ws, seed=7)
        assert is_isometry(basis, 1e-10)
        for w in ws:
            d = basis.conj().T @ w @ basis
            assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-8 * dim

    def test_degenerate_family(self):
        # shared two-dimensional eigenspaces must not break diagonalization
        ws = [np.kron(Z, I2), np.kron(Z, Z)]
        basis = simultaneous_eigenbasis(ws)
        for w in ws:
            d = basis.conj().T @ w @ basis
            assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-8 * 4

    def test_refinement_fallback_agrees(self):
        rng = np.random.default_rng(11)
        eigvecs = random_unitary(4, rng)
        ws = []
        for _ in range(3):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
            ws.append(eigvecs @ np.diag(phases) @ eigvecs.conj().T)
        # a degenerate family: a multiple of the identity, repeated phases and
        # conjugate phase pairs, whose Hermitian parts coincide
        eigvecs6 = random_unitary(6, rng)
        a, b, c = rng.uniform(0.1, 3.0, size=3)
        degenerate = [
            eigvecs6 @ np.diag(np.exp(1j * np.array(phases))) @ eigvecs6.conj().T
            for phases in ([0.7] * 6, [a, a, -a, -a, b, b], [c, -c, c, -c, 0.0, 0.0])
        ]
        for family in (ws, degenerate):
            basis = _refine_subspaces(family, np.eye(family[0].shape[0], dtype=complex))
            assert _diagonalizes_all(family, basis, 1e-8)

    def test_rejects_noncommuting(self):
        with pytest.raises(ValueError):
            simultaneous_eigenbasis([X, Z])
        # relative gates of noncommuting triples: the check of the result is the only refusal
        rng = np.random.default_rng(12)
        for dim in (2, 3, 4, 6):
            us = [m.matrix for m in random_noncommuting_triple(rng, dim)]
            with pytest.raises(ValueError, match="no basis diagonalizes every member"):
                simultaneous_eigenbasis([us[0].conj().T @ u for u in us[1:]])

    def test_a_nan_tolerance_finds_no_basis(self):
        # no residual is within a NaN bound, not even a commuting family's
        for ws in ([X, Z], [Z], [np.kron(Z, I2), np.kron(Z, Z)]):
            with pytest.raises(NoCommonBasisError):
                simultaneous_eigenbasis(ws, float("nan"))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            simultaneous_eigenbasis([np.diag([1.0, 0.5])])

    def test_rejects_an_overflowing_gram_matrix(self):
        # the Gram matrix overflows to NaN, which is not within the bound
        with pytest.raises(ValueError, match=r"^ws\[0\] is not unitary within 1e-9$"):
            simultaneous_eigenbasis([[[1e200, 1e200], [1e200, -1e200]], np.eye(2)])

    def test_checks_every_basis_against_its_own_ws(self):
        # no keyword hands in the draws of another stack, whose masses would certify Haar gates
        rng = np.random.default_rng(3)
        commuting = np.array([m.matrix for m in random_commuting_family(rng, 4, 4)])
        haar = [random_unitary(4, rng) for _ in range(3)]
        assert list(inspect.signature(simultaneous_eigenbasis).parameters) == ["ws", "tol", "seed"]
        with pytest.raises(TypeError, match="draws"):
            simultaneous_eigenbasis(haar, draws=_combination_bases(commuting[1:], 0))
        with pytest.raises(NoCommonBasisError):
            simultaneous_eigenbasis(haar)


class TestRefinementAgainstLoop:
    """``_refine_subspaces`` gives the bytes of the loop that splits with ``cluster_phases``."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 10), size=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 1e-12, 1e-10, 0.4 * PHASE_GAP, 3 * PHASE_GAP]))
    def test_refinement(self, dim, size, data, seed, noise):
        # commuting V diag(e^{i phi}) V^dag with phases from a small palette, each moved by up to noise:
        # repeated phases, and near-degenerate ones on both sides of a PHASE_GAP break
        rng = np.random.default_rng(seed)
        palette = data.draw(st.lists(PHASE, min_size=1, max_size=max(1, dim // 2)))
        phases = rng.choice(palette, size=(size, dim)) + noise * rng.standard_normal((size, dim))
        v = random_unitary(dim, rng)
        ws = [(v * np.exp(1j * row)) @ v.conj().T for row in phases]
        eye = np.eye(dim, dtype=complex)
        assert _refine_subspaces(ws, eye).tobytes() == loop_refine_subspaces(ws, eye).tobytes()


class TestCombinationStream:
    """The combination draws are numpy's ``default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))``, draw
    after draw, bit for bit; numpy is only the oracle here."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**256), n=st.integers(1, 64))
    @example(seed=2**32 - 1, n=1)
    @example(seed=2**32, n=2)
    @example(seed=2**64, n=31)
    @example(seed=2**128 + 7, n=64)
    @example(seed=True, n=3)
    @example(seed=np.uint64(5), n=4)
    def test_draws_are_numpys_bits(self, seed, n):
        rng = np.random.default_rng(seed)
        draws = _uniform_draws(seed, n)
        for _ in range(_MAX_COMBINATION_DRAWS):
            assert next(draws).tobytes() == rng.uniform(-1.0, 1.0, size=(n, 2)).tobytes()

    def test_a_negative_seed_is_refused_with_numpys_message(self):
        with pytest.raises(ValueError) as numpys:
            np.random.default_rng(-1)
        for seed in (-1, -(2**70), np.int64(-3)):
            with pytest.raises(ValueError, match=f"^{numpys.value}$"):
                next(_uniform_draws(seed, 2))
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            simultaneous_eigenbasis([Z], seed=-1)

    @pytest.mark.parametrize("seed", [None, 1.0, np.float64(2.0), [1], (1, 2)])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        # seed=None would draw OS entropy from numpy; here it is refused like any non-integer
        with pytest.raises(TypeError):
            next(_uniform_draws(seed, 2))
        with pytest.raises(TypeError):
            simultaneous_eigenbasis([Z], seed=seed)


class TestIsIsometry:
    def test_pauli_masker_columns(self):
        m = np.outer(np.kron(KET0, KET0), PLUS.conj()) + np.outer(np.kron(KET1, KET1), MINUS.conj())
        assert is_isometry(m, 1e-12)

    def test_repeated_rows(self):
        m = np.zeros((4, 2), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 1.0
        assert not is_isometry(m, 1e-10)

    def test_fourier_columns_d3(self):
        d = 3
        w = np.exp(2j * np.pi / d)
        m = np.zeros((d * d, d), dtype=complex)
        for j in range(d):
            for k in range(d):
                m[k * d + k, j] = w ** (k * j) / np.sqrt(d)
        assert is_isometry(m, 1e-12)

    @pytest.mark.parametrize("m", [[[1e200, 1e200], [1e200, -1e200]], [[1e200], [0.0]], [[1e300, 0.0], [0.0, 1.0]]])
    def test_an_overflowing_gram_matrix_is_refused(self, m):
        assert not is_isometry(m, 1e300)


class TestIsometryDefects:
    """A matrix has the same defect bits alone, as a one-matrix stack, as inside any stack."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 32), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-13, 1e-11, 1e-8, 1e-3]))
    def test_a_member_alone_and_inside_its_stack(self, d, n, seed, scale):
        rng = np.random.default_rng(seed)
        stack = np.stack([random_unitary(d, rng) for _ in range(n)])
        stack += scale * (rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape))
        # a C-contiguous read, and the relative gates U_0^dag U_k that the gate decider checks
        for reads in (stack, masking._relative_gates(list(stack), 0)):
            assert [isometry_defects(m[None])[0] for m in reads] == isometry_defects(reads).tolist()


class TestPhaseHelpers:
    def test_fix_column_phases(self):
        col = np.array([[1j], [1.0]]) / np.sqrt(2)
        fixed = fix_column_phases(col)
        assert fixed[0, 0] == pytest.approx(1 / np.sqrt(2))

    def test_cluster_wraparound(self):
        phases = np.array([np.pi - 1e-12, -np.pi + 1e-12, 0.0])
        clusters = cluster_phases(phases)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 2]

    def test_cluster_separated(self):
        clusters = cluster_phases(np.array([0.0, 1.0, 1.0 + 1e-12]))
        assert len(clusters) == 2


# Eigenphases that stress the clustering: exactly +-pi, pi -+ 1e-12 (a cluster
# across the wrap-around), and within 1e-9 of a PHASE_GAP break from 0.3.
SPECIAL_PHASES = [np.pi, -np.pi, np.pi - 1e-12, -np.pi + 1e-12, np.pi - 0.4 * PHASE_GAP, -np.pi + 0.4 * PHASE_GAP,
                  0.3, 0.3 + PHASE_GAP - 1e-9, 0.3 + PHASE_GAP + 1e-9, 0.3 - PHASE_GAP + 1e-9, 0.3 + 1e-12]
PHASE = st.one_of(st.floats(-np.pi, np.pi), st.sampled_from(SPECIAL_PHASES))
# Moduli around the phase floor, zeros of either sign, and ordinary entries.
MODULUS = st.one_of(st.sampled_from([0.0, -0.0, 1e-12, _PHASE_FLOOR, np.nextafter(_PHASE_FLOOR, 1),
                                     np.nextafter(_PHASE_FLOOR, 0), 2e-8]), st.floats(1e-6, 2.0))


class TestBatchedAgainstLoop:
    """``_canonical_basis`` and ``fix_column_phases`` give the loop oracles' bytes."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 12), size=st.integers(1, 6), data=st.data(),
           basis_kind=st.sampled_from(["identity", "exact", "draw"]), seed=st.integers(0, 2**32 - 1))
    def test_canonical_basis(self, dim, size, data, basis_kind, seed):
        # commuting stacks V diag(e^{i phi}) V^dag; a few distinct phases make them degenerate
        rng = np.random.default_rng(seed)
        palette = data.draw(st.lists(PHASE, min_size=1, max_size=dim + 1))
        phases = np.array(data.draw(st.lists(st.lists(st.sampled_from(palette), min_size=dim, max_size=dim),
                                             min_size=size, max_size=size)))
        v = np.eye(dim, dtype=complex) if basis_kind == "identity" else random_unitary(dim, rng)
        ws = np.array([(v * np.exp(1j * row)) @ v.conj().T for row in phases])
        if basis_kind == "draw":
            basis = next(_combination_bases(ws, seed))[0]
        else:
            basis = v[:, rng.permutation(dim)] * np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        assert _canonical_basis(ws, basis).tobytes() == loop_canonical_basis(ws, basis).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(2, 16), size=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_singleton_at_pi(self, dim, size, seed):
        # A lone eigenphase at +-pi goes last or first by the sign of round-off
        # in the diagonal, so the diagonal must be the oracle's to the bit.
        rng = np.random.default_rng(seed)
        v = random_unitary(dim, rng)
        phases = rng.uniform(-3.0, 3.0, (size, dim))
        phases[:, 0] = rng.choice([np.pi, -np.pi], size)
        ws = np.array([(v * np.exp(1j * row)) @ v.conj().T for row in phases])
        basis = next(_combination_bases(ws, seed))[0]
        assert _canonical_basis(ws, basis).tobytes() == loop_canonical_basis(ws, basis).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
    def test_fix_column_phases(self, rows, cols, data):
        moduli = data.draw(st.lists(MODULUS, min_size=rows * cols, max_size=rows * cols))
        angles = data.draw(st.lists(PHASE, min_size=rows * cols, max_size=rows * cols))
        m = (np.array(moduli) * np.exp(1j * np.array(angles))).reshape(rows, cols)
        if data.draw(st.booleans()):  # one column entirely below the floor, signed zeros kept
            m[:, 0] = np.array(moduli[:rows]).clip(None, _PHASE_FLOOR) * (-1) ** np.arange(rows)
        assert fix_column_phases(m).tobytes() == loop_fix_column_phases(m).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 16), size=st.integers(1, 31),
           kind=st.sampled_from(["random", "permutation", "diagonal", "pauli"]), seed=st.integers(0, 2**32 - 1))
    def test_hermitian_combination(self, dim, size, kind, seed):
        # the structured stacks have exact zeros, whose signs the order of the sum decides
        rng = np.random.default_rng(seed)
        if kind == "random":
            ws = np.array([random_unitary(dim, rng) for _ in range(size)])
        elif kind == "permutation":
            ws = np.eye(dim, dtype=complex)[np.array([rng.permutation(dim) for _ in range(size)])]
        elif kind == "diagonal":
            ws = np.array([np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, dim))) for _ in range(size)])
        else:
            ws = np.array(PAULIS)[rng.integers(0, 4, size)]
        coefficients = rng.uniform(-1.0, 1.0, size=(size, 2))
        h = _hermitian_combination(ws, coefficients)
        assert h.tobytes() == loop_hermitian_combination(ws, coefficients).tobytes()

    def test_hermitian_combination_of_one_phased_pauli(self):
        # A Pauli times an eighth root of unity whose parts have one modulus: under some signs of the
        # coefficients a part of the one term is -0.0, which the loop's start from zeros makes +0.0.
        s = np.sqrt(0.5)
        for sigma, phase in itertools.product(PAULIS, [1, 1j, -1, -1j, s + s * 1j, s - s * 1j, -s + s * 1j, -s - s * 1j]):
            for coefficients in itertools.product((-0.5, 0.5), repeat=2):
                ws, coefficients = np.array([phase * sigma]), np.array([coefficients])
                h = _hermitian_combination(ws, coefficients)
                assert h.tobytes() == loop_hermitian_combination(ws, coefficients).tobytes()


def test_import_loads_no_scipy():
    src = Path(channelmask.__file__).resolve().parent.parent
    code = "import sys, channelmask; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses():
    # every command is a fresh process; the dataclass decorator compiles source for each class
    src = Path(channelmask.__file__).resolve().parent.parent
    code = "import channelmask.cli, sys; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


# One instance of each value class by its fields in order, and a second, unequal one (None for a class
# with no other instance that compares without an array's ambiguous truth value).  Arrays have one entry,
# so that == compares them as numbers.
ONE = np.eye(1, dtype=complex)
RECORDS = {
    BipartiteDims: ({"dim_a": 2, "dim_b": 3}, {"dim_a": 3, "dim_b": 2}),
    channels.Unitary: ({"matrix": ONE}, {"matrix": 1j * ONE}),
    channels.KrausChannel: ({"kraus_ops": (ONE,)}, {"kraus_ops": (-ONE,)}),
    channels.PauliFourVector: ({"p0": 0.5, "px": 0.5, "py": 0.0, "pz": 0.0},
                               {"p0": 0.5, "px": 0.0, "py": 0.5, "pz": 0.0}),
    channels.ClassicalChannel: ({"probs": np.ones((1, 1))}, None),
    channels.DepolarizedUnitary: ({"p": 0.5, "matrix": ONE}, {"p": 0.25, "matrix": ONE}),
    channels.BlochAffine: ({"matrix": np.eye(1), "shift": np.zeros(1)}, {"matrix": np.eye(1), "shift": np.ones(1)}),
    masking.Masker: ({"matrix": ONE, "dims": BipartiteDims(1, 1)}, {"matrix": 1j * ONE, "dims": BipartiteDims(1, 1)}),
    masking.CommonEigenbasis: ({"basis": ONE, "reference_index": 1}, {"basis": ONE, "reference_index": 2}),
    masking.PauliAxis: ({"axis": "x", "constant": 1.0}, {"axis": "z", "constant": 1.0}),
    masking.FixedPointAxis: ({"direction": (0.0, 0.0, 1.0)}, {"direction": (0.0, 0.0, -1.0)}),
    masking.Fourier: ({"dim": 2}, {"dim": 3}),
    masking.Trivial: ({}, None),
    masking.NoncommutingPair: ({"i": 1, "j": 2, "comm_norm": 0.5}, {"i": 1, "j": 3, "comm_norm": 0.5}),
    masking.NoConstantAxis: ({"spreads": {"x": 0.1, "y": 0.2, "z": 0.3}}, {"spreads": {"x": 0.1}}),
    masking.NonUnital: ({"shift": (0.0, 0.0, 0.5), "index": 1}, {"shift": (0.0, 0.0, 0.5), "index": 2}),
    masking.NoPureFixedPoint: ({"eigenvalues": (0.5j, -0.5j, 1.0)}, {"eigenvalues": (0.5, 0.5, 1.0)}),
    masking.NoCommonFixedPoint: ({"per_channel": (None, ALL_DIRECTIONS)}, {"per_channel": (None, None)}),
    masking.NoCommonBasis: ({"residual": 1e-3}, {"residual": 2e-3}),
    masking.MaskingDecision: ({"maskable": True, "certificate": masking.Trivial(), "witness": None},
                              {"maskable": False, "certificate": None, "witness": masking.NoCommonBasis(1e-3)}),
    masking.SearchReport: ({"injection_count": 2, "violating_all": True},
                           {"injection_count": 2, "violating_all": False}),
    verify.VerificationReport: ({"passed": True, "max_deviation_a": 1e-16, "max_deviation_b": 0.0,
                                 "worst_pair": (0, 1), "tol": 1e-9},
                                {"passed": False, "max_deviation_a": 1e-3, "max_deviation_b": 0.0,
                                 "worst_pair": (0, 1), "tol": 1e-9}),
    cli.FamilyFile: ({"version": "1", "kind": "gate", "members": (), "options": {}},
                     {"version": "1", "kind": "pauli", "members": (), "options": {}}),
    cli.FamilyKind: ({"rule": masking.gate_members, "decide": masking.decide_gate_family, "channels": tuple},
                     {"rule": masking.gate_members, "decide": masking.decide_gate_family, "channels": list}),
}
DEFAULTS = {
    masking.CommonEigenbasis: {"reference_index": 0},
    masking.NonUnital: {"index": 0},
    masking.MaskingDecision: {"certificate": None, "witness": None},
    cli.FamilyKind: {"channels": list},
}


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


class TestRecord:
    """The package's value classes, made by ``linalg.record``, behave as frozen dataclasses did."""

    def test_every_value_class_is_listed(self):
        found = {obj for module in (linalg, channels, masking, verify, cli) for obj in vars(module).values()
                 if isinstance(obj, type) and hasattr(obj, "__match_args__")}
        assert found == set(RECORDS) and len(found) == 24

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_fields_in_order_by_position_or_keyword(self, cls):
        fields = RECORDS[cls][0]
        assert cls.__match_args__ == tuple(fields)
        a = cls(*fields.values())
        assert _values(a) == _values(cls(**fields)) == _values(cls(**dict(reversed(fields.items()))))
        if fields:
            first, *rest = fields
            assert _values(cls(fields[first], **{name: fields[name] for name in rest})) == _values(a)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_defaults_and_bad_calls(self, cls):
        fields, defaults = RECORDS[cls][0], DEFAULTS.get(cls, {})
        required = [name for name in fields if name not in defaults]
        a = cls(*[fields[name] for name in required])
        assert {name: getattr(a, name) for name in defaults} == defaults
        if required:
            with pytest.raises(TypeError, match="missing required arguments"):
                cls(*[fields[name] for name in required[:-1]])
            with pytest.raises(TypeError, match="multiple values"):
                cls(fields[required[0]], **{required[0]: fields[required[0]]})
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*fields.values(), None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            cls(*fields.values(), extra=None)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_frozen(self, cls):
        a = cls(*RECORDS[cls][0].values())
        before = _values(a)
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert _values(a) == before and not hasattr(a, "extra")

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_equality_and_hash_are_the_field_tuple(self, cls):
        fields, other = RECORDS[cls]
        a, b = cls(*fields.values()), cls(*fields.values())
        assert a == b and not a != b
        assert a != _values(a) and _values(a) != a  # a plain tuple of the same values never equals
        if other is not None:
            assert a != cls(**other) and not a == cls(**other)
        try:
            expected = hash(_values(a))
        except TypeError:  # an array, dict or list field
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_repr(self, cls):
        a = cls(*RECORDS[cls][0].values())
        shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls.__match_args__)
        assert repr(a) == f"{cls.__name__}({shown})"

    def test_search_report_repr_leaves_out_the_counterexamples(self):
        report = masking.classical_no_go_search(2, [(0, 1), (1, 0)])
        assert repr(report) == "SearchReport(injection_count=12, violating_all=True)"

    def test_post_init_validates_and_normalizes(self):
        # by position and by keyword alike
        for p in (channels.PauliFourVector(1.0, -1e-13, 0.0, 0.0),
                  channels.PauliFourVector(pz=0.0, py=0.0, px=-1e-13, p0=1.0)):
            assert (p.p0, p.px, p.py, p.pz) == (1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="px = -0.001 is negative"):
            channels.PauliFourVector(p0=1.001, px=-0.001, py=0.0, pz=0.0)
        with pytest.raises(ValueError, match="probabilities sum to"):
            channels.PauliFourVector(0.5, 0.5, 0.5, 0.0)
        assert channels.DepolarizedUnitary(p=1.0 + 1e-13, matrix=ONE).p == 1.0
        kraus = channels.KrausChannel([[[1]]])
        assert isinstance(kraus.kraus_ops, tuple) and kraus.kraus_ops[0].dtype == complex
        with pytest.raises(ValueError, match="factor dimensions must be at least 1"):
            BipartiteDims(dim_a=0, dim_b=1)
        for dims in ((2.0, 2), (2, np.float64(3)), (2, "3")):
            with pytest.raises(ValueError, match="factor dimensions must be integers"):
                BipartiteDims(*dims)
        dims = BipartiteDims(True, np.int64(4))  # stored as Python ints, as a masker file writes them
        assert (dims.dim_a, dims.dim_b) == (1, 4) and type(dims.dim_a) is type(dims.dim_b) is int
        with pytest.raises(ValueError, match="not an isometry"):
            masking.Masker(2 * ONE, BipartiteDims(1, 1))
