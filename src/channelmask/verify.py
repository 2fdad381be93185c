"""Numerical verification of masking.

The reduced channel seen by one subsystem is computed as an explicit Choi
matrix; two channels are equal iff their Choi matrices are, so comparing them
is a complete equality test.  Deviations are aggregated with max (masking is
a worst-case property over inputs and family members).

Two routes give the reduced Choi matrices.  A copy masker (``d x d``
factors, every row other than ``k*(d+1)`` exactly zero, as every masker this
package writes) with inputs above dimension 4 is recognised from its matrix:
both of its reduced channels are ``rho -> diag(R E(rho) R^dag)`` for its copy
rows ``R``, whose Choi matrix is ``d`` blocks of size ``din x din`` in closed
form, and no input dimension is refused.  Everything else pushes each of the
``din**2`` basis operators through the channel and the masker and traces out
one factor, and refuses inputs above dimension 16.  Copy maskers with inputs
of dimension at most 4 keep the loop because reports print round-off digits
(such as ``1.570e-16``, or an exact ``0.0``) that another summation order
changes; families with inputs of dimension at most 4, every file in
``samples/`` among them, keep the digits they always had.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelSpec,
    ClassicalChannel,
    DepolarizedUnitary,
    Unitary,
    apply,
    channel_dims,
    identity_channel,
    to_kraus,
)
from .linalg import VERIFY_TOL, as_complex_matrix, cluster_phases, is_isometry, partial_trace, simultaneous_eigenbasis
from .masking import Masker

# The basis-operator loop pushes din**2 operators through the masker; keep it
# at desk scale.  Only copy maskers, in closed form, go beyond.
_MAX_INPUT_DIM = 16
# Copy maskers with inputs up to this dimension keep the loop too (see the
# module docstring): it fixes the round-off digits of the CLI's small reports.
_LOOP_MAX_INPUT_DIM = 4


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case reduced-output deviations across a family, per subsystem."""

    passed: bool
    max_deviation_a: float
    max_deviation_b: float
    worst_pair: tuple
    tol: float


def reduced_channel_choi(masker: Masker, spec: ChannelSpec, side: str) -> np.ndarray:
    """Choi matrix of ``rho -> Tr_side[M E(rho) M^dag]``.

    ``side`` names the discarded subsystem, so ``side="B"`` gives the channel
    seen by subsystem A and vice versa.
    """
    din, dout = channel_dims(spec)
    if din > _MAX_INPUT_DIM:
        raise ValueError(f"input dimension {din} exceeds the brute-force limit {_MAX_INPUT_DIM}")
    _check_masker_input(masker, dout)
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    return _reduced_choi_by_basis(masker, spec, side)


def _check_masker_input(masker: Masker, dout: int) -> None:
    if masker.input_dim != dout:
        raise ValueError(
            f"masker input dimension {masker.input_dim} does not match channel output {dout}"
        )


def _reduced_choi_by_basis(masker: Masker, spec: ChannelSpec, side: str) -> np.ndarray:
    din, _ = channel_dims(spec)
    dred = masker.dims.dim_b if side == "A" else masker.dims.dim_a
    m = masker.matrix
    out = np.zeros((din * dred, din * dred), dtype=complex)
    basis_op = np.zeros((din, din), dtype=complex)
    for i in range(din):
        for j in range(din):
            basis_op[i, j] = 1.0
            masked = m @ apply(spec, basis_op) @ m.conj().T
            block = partial_trace(masked, masker.dims, side)
            out[i * dred:(i + 1) * dred, j * dred:(j + 1) * dred] = block
            basis_op[i, j] = 0.0
    return out


def _copy_rows(masker: Masker):
    """The rows ``R`` a copy masker writes to ``|kk>``, or ``None`` for any other masker.

    A copy masker has ``d x d`` factors and every row other than ``k*(d+1)``
    exactly zero; the test reads the matrix, not how it was made.
    """
    d = masker.dims.dim_a
    if masker.dims.dim_b != d:
        return None
    rows = masker.matrix[:: d + 1]
    if np.count_nonzero(masker.matrix) != np.count_nonzero(rows):
        return None
    return rows


def _copy_choi_blocks(rows: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """The ``d`` diagonal blocks of the Choi matrix of ``rho -> diag(R E(rho) R^dag)``.

    Block ``k`` is ``C_k[i, j] = sum_a (R K_a)[k, i] conj((R K_a)[k, j])``
    for Kraus operators ``K_a`` of ``spec``; unitary, depolarized and
    classical members use their closed forms, so neither ``choi(spec)`` nor
    the ``din**2`` or ``din * dout`` Kraus operators of depolarized and
    classical members are built.  Every other entry of
    that Choi matrix is zero, so it equals either reduced Choi matrix of the
    copy masker with copy rows ``rows``.
    """
    din, _ = channel_dims(spec)
    if isinstance(spec, ClassicalChannel):
        # E(|i><j|) = delta_ij diag(P[:, i]): block k is diag(sum_y |R[k, y]|^2 P[y, :]).
        blocks = np.zeros((rows.shape[0], din, din), dtype=complex)
        diagonal = np.arange(din)
        blocks[:, diagonal, diagonal] = (np.abs(rows) ** 2) @ spec.probs
        return blocks
    if isinstance(spec, (Unitary, DepolarizedUnitary)):
        r = rows @ spec.matrix
        blocks = r[:, :, None] * r.conj()[:, None, :]
        if isinstance(spec, Unitary):
            return blocks
        # (1 - p) Tr(rho) 1/din contributes (1 - p)/din ||R_k||^2 delta_ij to block k.
        weights = (1.0 - spec.p) / din * np.sum(np.abs(rows) ** 2, axis=1)
        return spec.p * blocks + weights[:, None, None] * np.eye(din)
    r = (rows @ np.stack(to_kraus(spec).kraus_ops)).transpose(1, 2, 0)  # r[k, i, a] = (R K_a)[k, i]
    return r @ r.conj().transpose(0, 2, 1)


def _max_pairwise(mats: list[np.ndarray]) -> tuple[float, tuple]:
    worst, pair = 0.0, (0, 0)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = float(np.linalg.norm(mats[i] - mats[j]))
            if dev > worst:
                worst, pair = dev, (i, j)
    return worst, pair


def _report(view_a: list[np.ndarray], view_b: list[np.ndarray], tol: float) -> VerificationReport:
    # What subsystems A and B see for each member; the worst pair is taken
    # from the side that deviates more.
    dev_a, pair_a = _max_pairwise(view_a)
    dev_b, pair_b = _max_pairwise(view_b)
    return VerificationReport(
        passed=bool(dev_a <= tol and dev_b <= tol),
        max_deviation_a=dev_a,
        max_deviation_b=dev_b,
        worst_pair=pair_a if dev_a >= dev_b else pair_b,
        tol=tol,
    )


def verify_masking(masker: Masker, family, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check that both reduced channels are identical across the whole family."""
    members = list(family)
    if not members:
        raise ValueError("family must be non-empty")
    dims = channel_dims(members[0])
    if any(channel_dims(spec) != dims for spec in members):
        raise ValueError("family members must share input and output dimensions")
    rows = _copy_rows(masker) if dims[0] > _LOOP_MAX_INPUT_DIM else None
    if rows is not None:
        # Both reduced channels of a copy masker are the same map.
        _check_masker_input(masker, dims[1])
        blocks = [_copy_choi_blocks(rows, spec) for spec in members]
        return _report(blocks, blocks, tol)
    return _report([reduced_channel_choi(masker, spec, "B") for spec in members],
                   [reduced_channel_choi(masker, spec, "A") for spec in members], tol)


def verify_identity_masking(masker: Masker, spec: ChannelSpec, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check that the masker hides the channel's effect next to the identity."""
    din, dout = channel_dims(spec)
    if din != dout:
        raise ValueError("identity masking requires equal input and output dimensions")
    return verify_masking(masker, [identity_channel(din), spec], tol)


def local_orthogonality_check(masker: Masker, u, tol: float = VERIFY_TOL) -> bool:
    """Masked eigenstates from distinct eigenspaces must be locally orthogonal.

    The eigenphases of ``u`` are clustered; for every pair of eigenvectors
    from distinct clusters the two marginals of the masked states must have
    orthogonal supports, i.e. their product vanishes in Frobenius norm.
    Callers are expected to have verified that the masker actually masks
    ``{identity, u}``.
    """
    mat = as_complex_matrix(u, "u")
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("u must be square")
    if mat.shape[0] != masker.input_dim:
        raise ValueError("unitary dimension does not match the masker input")
    if not is_isometry(mat, 1e-10):
        raise ValueError("u is not unitary within 1e-10")
    z = simultaneous_eigenbasis([mat])
    clusters = cluster_phases(np.angle(np.diag(z.conj().T @ mat @ z)))
    m = masker.matrix
    marginals = []
    for col in range(z.shape[1]):
        masked = m @ z[:, col]
        state = np.outer(masked, masked.conj())
        marginals.append({side: partial_trace(state, masker.dims, side) for side in ("A", "B")})
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            for i in clusters[a]:
                for j in clusters[b]:
                    for side in ("A", "B"):
                        overlap = np.linalg.norm(marginals[i][side] @ marginals[j][side])
                        if overlap > tol:
                            return False
    return True


def state_mask_check(masker: Masker, states, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check that a set of pure states acquires identical marginals under the masker."""
    kets = [np.asarray(s, dtype=complex).reshape(-1) for s in states]
    if not kets:
        raise ValueError("state list must be non-empty")
    for k in kets:
        if k.shape != (masker.input_dim,):
            raise ValueError("state dimension does not match the masker input")
    m = masker.matrix
    margins_a, margins_b = [], []
    for k in kets:
        masked = m @ k
        state = np.outer(masked, masked.conj())
        margins_a.append(partial_trace(state, masker.dims, "B"))
        margins_b.append(partial_trace(state, masker.dims, "A"))
    return _report(margins_a, margins_b, tol)
