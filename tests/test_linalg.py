import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import channelmask
from channelmask.linalg import (
    BipartiteDims,
    cluster_phases,
    commutator_norm,
    eig_hermitian,
    fix_column_phases,
    is_isometry,
    partial_trace,
    random_unitary,
    simultaneous_eigenbasis,
    tensor,
)
from channelmask.linalg import _refine_subspaces, _diagonalizes_all

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SQRT_Z = np.diag([1.0, 1j])

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


class TestTensor:
    def test_identity(self):
        assert_allclose(tensor(I2, I2), np.eye(4))

    def test_diagonal_structure(self):
        assert_allclose(tensor(Z, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_index_arithmetic_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = tensor(a, b)
        assert t[2, 1] == pytest.approx(a[1, 0] * b[0, 1])
        # every entry against the index formula
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert t[2 * i + k, 2 * j + l] == pytest.approx(a[i, j] * b[k, l])


class TestPartialTrace:
    def test_product_state(self):
        rho = tensor(np.outer(KET0, KET0.conj()), np.outer(KET1, KET1.conj()))
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
        assert_allclose(partial_trace(tensor(a, b), dims, "B"), a * np.trace(b), atol=1e-12)
        assert_allclose(partial_trace(tensor(a, b), dims, "A"), b * np.trace(a), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), BipartiteDims(2, 2), "A")


class TestEigHermitian:
    def test_sigma_z(self):
        dec = eig_hermitian(Z)
        assert_allclose(dec.values, [-1.0, 1.0])
        assert_allclose(dec.vectors[:, 0], KET1)
        assert_allclose(dec.vectors[:, 1], KET0)

    def test_sigma_x(self):
        dec = eig_hermitian(X)
        assert_allclose(dec.values, [-1.0, 1.0])
        assert_allclose(dec.vectors[:, 0], MINUS, atol=1e-15)
        assert_allclose(dec.vectors[:, 1], PLUS, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 5, 9, 16])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = z + z.conj().T
        dec = eig_hermitian(h)
        assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(dim)) <= 1e-12 * dim
        rebuilt = dec.vectors @ np.diag(dec.values) @ dec.vectors.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-10 * dim

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


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

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            simultaneous_eigenbasis([np.diag([1.0, 0.5])])


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


def test_import_loads_no_scipy():
    src = Path(channelmask.__file__).resolve().parent.parent
    code = "import sys, channelmask; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
