"""Numerical verification of masking.

The reduced channels seen by subsystems A and B are computed as explicit Choi
matrices, both views at once; two channels are equal iff their Choi matrices
are, so comparing them is a complete equality test.  Deviations are
aggregated with max (masking is a worst-case property over inputs and family
members).

Up to input dimension 4 each of the ``din**2`` basis operators goes through
the channel and the masker once, which fixes the round-off digits (such as
``1.570e-16``, or an exact ``0.0``) the CLI prints for small families, every
file in ``samples/`` among them.  Above 4 one Kraus-form formula gives each
view, with no dimension cap; a view may hold up to ``2**24`` entries.  A copy
masker (``d x d`` factors, every row other than ``k*(d+1)`` exactly zero, as
every masker this package writes) shows both sides one map,
``rho -> diag(R E(rho) R^dag)`` for its copy rows ``R``, whose Choi matrix is
``d`` blocks of size ``din x din`` from the same formula.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channels import ChannelSpec, ClassicalChannel, DepolarizedUnitary, Unitary, apply, channel_dims, to_kraus
from .linalg import VERIFY_TOL, partial_trace, record
from .masking import Masker, _members

# The basis-operator loop serves inputs up to this dimension (see the module
# docstring): it fixes the round-off digits of the CLI's small reports.
_LOOP_MAX_INPUT_DIM = 4
# Entries of one view (268 MB of complex128): a dense view at din = 64.
_MAX_VIEW_ENTRIES = 2**24


@record
class VerificationReport:
    """Worst-case reduced-output deviations across a family, per subsystem."""

    passed: bool
    max_deviation_a: float
    max_deviation_b: float
    worst_pair: tuple
    tol: float


def reduced_channel_choi(masker: Masker, spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Choi matrices ``(seen_by_a, seen_by_b)`` of ``rho -> Tr_B[M E(rho) M^dag]`` and ``Tr_A[...]``.

    Up to input dimension 4 both views are traced from one ``M E(|i><j|) M^dag``
    per basis operator; above, each is :func:`_kraus_choi` of the rows of ``M``.
    """
    din, dout = channel_dims(spec)
    _check_masker_input(masker, dout)
    da, db = masker.dims.dim_a, masker.dims.dim_b
    m = masker.matrix
    if din > _LOOP_MAX_INPUT_DIM:
        rows = m.reshape(da, db, dout)  # G_b = rows[:, b] for A's view, G_a = rows[a] for B's
        return _kraus_choi(rows.transpose(1, 0, 2)[None], spec)[0], _kraus_choi(rows[None], spec)[0]
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
        raise ValueError(f"masker input dimension {masker.input_dim} does not match channel output {dout}")


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


def _kraus_choi(g: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """The Choi matrix of ``rho -> sum_b G_b E(rho) G_b^dag`` for each stack ``g[n]`` of shape ``(b, r, dout)``.

    It is ``W W^dag`` for ``W[(i, x), (a, b)] = (G_b K_a)[x, i]`` and Kraus
    operators ``K_a`` of ``spec``.  Unitary and depolarized members take their
    one matrix and classical members their diagonal, so only Kraus and Pauli
    members build Kraus operators.
    """
    din, dout = channel_dims(spec)
    n, b, r, _ = g.shape
    if n * (din * r) ** 2 > _MAX_VIEW_ENTRIES:
        raise ValueError(f"a reduced Choi matrix of {n * (din * r) ** 2} entries exceeds the bound of 2**24 entries")
    diagonal = np.arange(din)  # the blocks (i, i) of out.reshape(n, din, r, din, r)
    if isinstance(spec, ClassicalChannel):
        # E(|i><j|) = delta_ij diag(P[:, i]): block (i, i) takes the Kraus operators sqrt(P[z, i]) |z><i|.
        w = (g[..., None] * np.sqrt(spec.probs)).transpose(0, 4, 2, 1, 3).reshape(n, din, r, -1)
        out = np.zeros((n, din * r, din * r), dtype=complex)
        out.reshape(n, din, r, din, r)[:, diagonal, :, diagonal] = (w @ w.conj().swapaxes(2, 3)).swapaxes(0, 1)
        return out
    kraus = spec.matrix if isinstance(spec, (Unitary, DepolarizedUnitary)) else np.hstack(to_kraus(spec).kraus_ops)
    gk = g.reshape(-1, dout) @ kraus  # gk[(n, b, x), (a, i)] = (G_b K_a)[x, i]
    w = gk.reshape(n, b, r, -1, din).transpose(0, 4, 2, 3, 1).reshape(n, din * r, -1)  # W[n, (i, x), (a, b)]
    # One column makes W W^dag an outer product; the elementwise form is the faster.
    out = w * w.conj().swapaxes(1, 2) if w.shape[2] == 1 else w @ w.conj().swapaxes(1, 2)
    if not isinstance(spec, DepolarizedUnitary):
        return out
    # (1 - p) Tr(rho) 1/din adds (1 - p)/din delta_ij sum_b G_b G_b^dag.
    rows = np.sqrt((1.0 - spec.p) / din) * g.swapaxes(1, 2).reshape(n, r, -1)
    out *= spec.p
    out.reshape(n, din, r, din, r)[:, diagonal, :, diagonal] += rows @ rows.conj().swapaxes(1, 2)
    return out


def _max_pairwise(mats: list[np.ndarray]) -> tuple[float, tuple]:
    worst, pair = 0.0, (0, 0)
    for i, j in itertools.combinations(range(len(mats)), 2):
        dev = float(np.linalg.norm(mats[i] - mats[j]))
        if dev > worst:
            worst, pair = dev, (i, j)
    return worst, pair


def _report(worst_a: tuple, worst_b: tuple, tol: float) -> VerificationReport:
    # The worst (deviation, pair) from _max_pairwise over what subsystems A
    # and B see; the worst pair is taken from the side that deviates more.
    (dev_a, pair_a), (dev_b, pair_b) = worst_a, worst_b
    return VerificationReport(passed=bool(dev_a <= tol and dev_b <= tol), max_deviation_a=dev_a,
                              max_deviation_b=dev_b, worst_pair=pair_a if dev_a >= dev_b else pair_b, tol=tol)


def verify_masking(masker: Masker, family, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check that both reduced channels are identical across the whole family."""
    members = _members(family, "family", shared="input and output dimensions")
    dims = channel_dims(members[0])
    rows = _copy_rows(masker) if dims[0] > _LOOP_MAX_INPUT_DIM else None
    if rows is not None:
        # Both reduced channels of a copy masker are the same map.
        _check_masker_input(masker, dims[1])
        worst = _max_pairwise([_kraus_choi(rows[:, None, None], spec) for spec in members])
        return _report(worst, worst, tol)
    views = zip(*(reduced_channel_choi(masker, spec) for spec in members))
    return _report(*map(_max_pairwise, views), tol)
