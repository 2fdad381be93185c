"""Numerical verification of masking.

The reduced channels seen by subsystems A and B are computed as explicit Choi
matrices, both views at once; two channels are equal iff their Choi matrices
are, so comparing them is a complete equality test.  Deviations are
aggregated with max (masking is a worst-case property over inputs and family
members).

Two routes give the reduced Choi matrices.  A copy masker (``d x d``
factors, every row other than ``k*(d+1)`` exactly zero, as every masker this
package writes) with inputs above dimension 4 is recognised from its matrix:
both of its reduced channels are ``rho -> diag(R E(rho) R^dag)`` for its copy
rows ``R``, whose Choi matrix is ``d`` blocks of size ``din x din`` in closed
form, and no input dimension is refused.  Everything else pushes each of the
``din**2`` basis operators through the channel and the masker once, traces
out each factor in turn for the two views, and refuses inputs above dimension
16.  Copy maskers with inputs of dimension at most 4 keep the loop because
reports print round-off digits (such as ``1.570e-16``, or an exact ``0.0``)
that another summation order changes; families with inputs of dimension at
most 4, every file in ``samples/`` among them, keep the digits they always
had.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelSpec,
    ClassicalChannel,
    DepolarizedUnitary,
    Unitary,
    _check_unitary,
    apply,
    channel_dims,
    to_kraus,
)
from .linalg import VERIFY_TOL, cluster_phases, partial_trace, simultaneous_eigenbasis
from .masking import Masker, _members

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


def reduced_channel_choi(masker: Masker, spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Choi matrices ``(seen_by_a, seen_by_b)`` of ``rho -> Tr_B[M E(rho) M^dag]`` and ``Tr_A[...]``.

    Both views are traced from one ``M E(|i><j|) M^dag`` per basis operator.
    """
    din, dout = channel_dims(spec)
    if din > _MAX_INPUT_DIM:
        raise ValueError(f"input dimension {din} exceeds the brute-force limit {_MAX_INPUT_DIM}")
    _check_masker_input(masker, dout)
    da, db = masker.dims.dim_a, masker.dims.dim_b
    m = masker.matrix
    seen_by_a = np.zeros((din, da, din, da), dtype=complex)
    seen_by_b = np.zeros((din, db, din, db), dtype=complex)
    basis_op = np.zeros((din, din), dtype=complex)
    for i in range(din):
        for j in range(din):
            basis_op[i, j] = 1.0
            masked = m @ apply(spec, basis_op) @ m.conj().T
            seen_by_a[i, :, j, :] = partial_trace(masked, masker.dims, "B")
            seen_by_b[i, :, j, :] = partial_trace(masked, masker.dims, "A")
            basis_op[i, j] = 0.0
    return seen_by_a.reshape(din * da, din * da), seen_by_b.reshape(din * db, din * db)


def _check_masker_input(masker: Masker, dout: int) -> None:
    if masker.input_dim != dout:
        raise ValueError(
            f"masker input dimension {masker.input_dim} does not match channel output {dout}"
        )


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


def _report(worst_a: tuple, worst_b: tuple, tol: float) -> VerificationReport:
    # The worst (deviation, pair) from _max_pairwise over what subsystems A
    # and B see; the worst pair is taken from the side that deviates more.
    (dev_a, pair_a), (dev_b, pair_b) = worst_a, worst_b
    return VerificationReport(
        passed=bool(dev_a <= tol and dev_b <= tol),
        max_deviation_a=dev_a,
        max_deviation_b=dev_b,
        worst_pair=pair_a if dev_a >= dev_b else pair_b,
        tol=tol,
    )


def verify_masking(masker: Masker, family, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check that both reduced channels are identical across the whole family."""
    members = _members(family, "family", shared="input and output dimensions")
    dims = channel_dims(members[0])
    rows = _copy_rows(masker) if dims[0] > _LOOP_MAX_INPUT_DIM else None
    if rows is not None:
        # Both reduced channels of a copy masker are the same map.
        _check_masker_input(masker, dims[1])
        worst = _max_pairwise([_copy_choi_blocks(rows, spec) for spec in members])
        return _report(worst, worst, tol)
    views = zip(*(reduced_channel_choi(masker, spec) for spec in members))
    return _report(*map(_max_pairwise, views), tol)


def local_orthogonality_check(masker: Masker, u, tol: float = VERIFY_TOL) -> bool:
    """Masked eigenstates from distinct eigenspaces must be locally orthogonal.

    The eigenphases of ``u`` are clustered; for every pair of eigenvectors
    from distinct clusters the two marginals of the masked states must have
    orthogonal supports, i.e. their product vanishes in Frobenius norm.
    Callers are expected to have verified that the masker actually masks
    ``{identity, u}``.
    """
    mat = _check_unitary(u, "u")
    if mat.shape[0] != masker.input_dim:
        raise ValueError("unitary dimension does not match the masker input")
    z = simultaneous_eigenbasis([mat])
    clusters = cluster_phases(np.angle(np.diag(z.conj().T @ mat @ z)))
    marginals = [_marginals(masker, z[:, col]) for col in range(z.shape[1])]
    return not any(np.linalg.norm(x @ y) > tol
                   for first, second in itertools.combinations(clusters, 2)
                   for i, j in itertools.product(first, second)
                   for x, y in zip(marginals[i], marginals[j]))


def state_mask_check(masker: Masker, states, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check that a set of pure states acquires identical marginals under the masker."""
    kets = [np.asarray(s, dtype=complex).reshape(-1) for s in states]
    if not kets:
        raise ValueError("state list must be non-empty")
    for k in kets:
        if k.shape != (masker.input_dim,):
            raise ValueError("state dimension does not match the masker input")
    views = zip(*(_marginals(masker, k) for k in kets))
    return _report(*map(_max_pairwise, views), tol)


def _marginals(masker: Masker, ket: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The states A and B hold once the masker has taken the pure state ``ket``."""
    masked = masker.matrix @ ket
    state = np.outer(masked, masked.conj())
    return partial_trace(state, masker.dims, "B"), partial_trace(state, masker.dims, "A")
