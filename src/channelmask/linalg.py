"""Dense complex linear algebra for small operator problems.

Everything here works on plain numpy arrays at desk scale (dimensions up to
a few dozen): Kronecker products, partial traces over a bipartite split,
Hermitian eigendecompositions with a deterministic phase convention,
commutator norms, and simultaneous diagonalization of commuting unitaries.
All functions are pure; the only randomness (the coefficient draws inside
:func:`simultaneous_eigenbasis`) is driven by an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Decision-level tolerance: separates "equal" from "different" in verdicts.
DECISION_TOL = 1e-8
#: Verification-level tolerance: absorbs round-off accumulated in composites.
VERIFY_TOL = 1e-9
#: Eigenphases closer than this (radians) count as one eigenspace.
PHASE_GAP = 1e-8

# Hermiticity / unitarity are machine-precision facts; scaled by dimension.
_HERMITICITY_TOL = 1e-10
# Entries below this modulus are ignored when fixing eigenvector phases.
_PHASE_FLOOR = 1e-8

_MAX_COMBINATION_DRAWS = 8


@dataclass(frozen=True)
class BipartiteDims:
    """Factor dimensions of a bipartite space ``A (x) B``."""

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("factor dimensions must be at least 1")

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b


@dataclass(frozen=True)
class EigenDecomposition:
    """Hermitian eigensystem: ascending real eigenvalues, orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-d complex array, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def tensor(a, b) -> np.ndarray:
    """Kronecker product ``a (x) b``."""
    return np.kron(as_complex_matrix(a, "a"), as_complex_matrix(b, "b"))


def partial_trace(m, dims: BipartiteDims, side: str) -> np.ndarray:
    """Trace out one factor of an operator on a bipartite space.

    ``side`` names the subsystem that is discarded: ``"A"`` returns the
    operator left on B, ``"B"`` the operator left on A.
    """
    arr = as_complex_matrix(m, "m")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("partial trace needs a square matrix")
    if arr.shape[0] != dims.total:
        raise ValueError(
            f"matrix size {arr.shape[0]} does not match factors "
            f"{dims.dim_a} x {dims.dim_b}"
        )
    four = arr.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    if side == "A":
        return np.trace(four, axis1=0, axis2=2)
    if side == "B":
        return np.trace(four, axis1=1, axis2=3)
    raise ValueError("side must be 'A' or 'B'")


def fix_column_phases(m) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real positive."""
    out = np.array(m, dtype=complex, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > _PHASE_FLOOR)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def eig_hermitian(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic phases."""
    arr = as_complex_matrix(h, "h")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("eigendecomposition needs a square matrix")
    dim = arr.shape[0]
    if np.linalg.norm(arr - arr.conj().T) > _HERMITICITY_TOL * dim:
        raise ValueError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh((arr + arr.conj().T) / 2)
    return EigenDecomposition(values, fix_column_phases(vectors))


def commutator_norm(a, b) -> float:
    """Frobenius norm of the commutator ``ab - ba``."""
    ma = as_complex_matrix(a, "a")
    mb = as_complex_matrix(b, "b")
    if ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        raise ValueError("operands must be square matrices of equal dimension")
    return float(np.linalg.norm(ma @ mb - mb @ ma))


def is_isometry(m, tol: float) -> bool:
    """True iff ``m.conj().T @ m`` equals the identity within ``tol`` (Frobenius)."""
    arr = as_complex_matrix(m, "m")
    gram = arr.conj().T @ arr
    return bool(np.linalg.norm(gram - np.eye(arr.shape[1])) <= tol)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def cluster_phases(phases) -> list[np.ndarray]:
    """Group angles on the unit circle into clusters separated by more than ``PHASE_GAP``.

    Returns index arrays into ``phases``.  The wrap-around at +/- pi is
    honoured, so noisy copies of the same eigenvalue land in one cluster.
    """
    ph = np.asarray(phases, dtype=float)
    n = ph.size
    if n == 0:
        return []
    order = np.argsort(ph, kind="stable")
    s = ph[order]
    breaks = np.flatnonzero(np.diff(s) > PHASE_GAP)
    bounds = np.concatenate(([0], breaks + 1, [n]))
    clusters = [order[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]
    if len(clusters) > 1 and (s[0] + 2 * np.pi - s[-1]) <= PHASE_GAP:
        clusters[0] = np.concatenate((clusters[-1], clusters[0]))
        clusters.pop()
    return clusters


def _offdiagonal_mass(w: np.ndarray, basis: np.ndarray) -> float:
    d = basis.conj().T @ w @ basis
    return float(np.linalg.norm(d - np.diag(np.diag(d))))


def _diagonalizes_all(ws: list[np.ndarray], basis: np.ndarray, tol: float) -> bool:
    dim = basis.shape[0]
    return all(_offdiagonal_mass(w, basis) <= tol * dim for w in ws)


def _phase_clusters(block: np.ndarray):
    # Bases of the eigenphase clusters of a normal matrix: the joint clusters
    # of its commuting Hermitian (cos) and anti-Hermitian (sin) parts.  Values
    # in [-1, 1] never wrap around in cluster_phases.
    cos, vectors = np.linalg.eigh((block + block.conj().T) / 2)
    for idx in cluster_phases(cos):
        sub = vectors[:, idx]
        sin, inner = np.linalg.eigh(sub.conj().T @ ((block - block.conj().T) / 2j) @ sub)
        for jdx in cluster_phases(sin):
            yield sub @ inner[:, jdx]


def _refine_subspaces(ws: list[np.ndarray], cols: np.ndarray) -> np.ndarray:
    # cols spans a subspace invariant under every w; peel one unitary at a
    # time, splitting by eigenphase cluster and recursing on the rest.
    if not ws:
        return cols
    block = cols.conj().T @ ws[0] @ cols
    return np.hstack([_refine_subspaces(ws[1:], cols @ piece) for piece in _phase_clusters(block)])


def _canonical_column_order(ws: list[np.ndarray], basis: np.ndarray) -> np.ndarray:
    # Sort columns by the tuple of clustered eigenphases across the family so
    # the basis order does not depend on the random combination drawn.
    dim = basis.shape[1]
    keys = np.zeros((len(ws), dim), dtype=np.intp)
    for row, w in enumerate(ws):
        diag = np.einsum("ji,jk,ki->i", basis.conj(), w, basis)
        phases = np.angle(diag)
        clusters = cluster_phases(phases)
        reps = [float(np.angle(np.mean(np.exp(1j * phases[idx])))) for idx in clusters]
        for ordinal, c in enumerate(np.argsort(reps, kind="stable")):
            keys[row, clusters[c]] = ordinal
    return basis[:, np.lexsort(keys[::-1])]


def simultaneous_eigenbasis(ws, tol: float = DECISION_TOL, seed: int = 0) -> np.ndarray:
    """Orthonormal basis diagonalizing every member of a commuting unitary family.

    A random Hermitian combination of the family members (and their adjoints)
    is diagonalized; for generic coefficients its eigenbasis diagonalizes the
    whole family in one shot.  The result is always verified, which is also
    the only commutation test; degenerate draws are retried with fresh
    coefficients, and if every draw fails the basis is built
    deterministically by recursive eigenspace refinement.

    Parameters
    ----------
    ws : sequence of array_like
        Pairwise commuting unitary matrices of a common dimension, each
        unitary within 1e-9 (Frobenius), whatever ``tol`` is.
    tol : float
        Diagonality tolerance, scaled by the dimension.
    seed : int
        Seed for the random combination coefficients.

    Returns
    -------
    np.ndarray
        Unitary matrix whose columns are the common eigenvectors, ordered by
        the clustered eigenphase tuples of the family and phase-fixed.
    """
    mats = [as_complex_matrix(w, f"ws[{i}]") for i, w in enumerate(ws)]
    if not mats:
        raise ValueError("need at least one matrix")
    dim = mats[0].shape[0]
    for i, w in enumerate(mats):
        if w.shape != (dim, dim):
            raise ValueError("all matrices must be square with equal dimension")
        # A fixed bound, not tol: gates are unitary within 1e-10, so a
        # relative gate U_i^dag U_j is within about 2e-10.
        if not is_isometry(w, 1e-9):
            raise ValueError(f"ws[{i}] is not unitary within 1e-9")

    rng = np.random.default_rng(seed)
    basis = None
    for _ in range(_MAX_COMBINATION_DRAWS):
        h = np.zeros((dim, dim), dtype=complex)
        for w in mats:
            alpha, beta = rng.uniform(-1.0, 1.0, size=2)
            h += alpha * (w + w.conj().T) + beta * 1j * (w - w.conj().T)
        _, candidate = np.linalg.eigh(h)
        if _diagonalizes_all(mats, candidate, tol):
            basis = candidate
            break
    if basis is None:
        basis = _refine_subspaces(mats, np.eye(dim, dtype=complex))
        if not _diagonalizes_all(mats, basis, tol):
            raise ValueError("no basis diagonalizes every member within tolerance")
    return fix_column_phases(_canonical_column_order(mats, basis))
