"""Numerical verification of masking.

The reduced channels seen by subsystems A and B are computed as explicit Choi
matrices, both views at once; two channels are equal iff their Choi matrices
are, so comparing them is a complete equality test.  Deviations are
aggregated with max (masking is a worst-case property over inputs and family
members).

The masker alone picks one of two routes at every input dimension, in
:func:`_views`, by whether :func:`_copy_rows` finds copy rows in it.  A copy
masker (``d x d`` factors, every row other than ``k*(d+1)`` exactly zero, as
every masker this package writes) shows both sides one map,
``rho -> diag(R E(rho) R^dag)`` for its copy rows ``R``, whose Choi matrix is
``d`` blocks of size ``din x din``: block ``k`` holds
``(R E(|i><j|) R^dag)[k, k]`` at ``[i, j]``.  Unitary, depolarized and Kraus
members take these from the Kraus-form formula with one copy row per block;
Pauli members from their images of the four ``|i><j|``; classical members,
whose ``E(|i><j|)`` is ``delta_ij diag(P[:, i])``, from the real diagonals of
``R diag(P[:, i]) R^dag``.  Those forms give the round-off digits (such as
``1.570e-16``, or an exact ``0.0``) the CLI prints for ``samples/``.  Any
other masker goes member by member through :func:`reduced_channel_choi`, the
Kraus-form formula for any masker, with no dimension cap.  A view may hold up
to ``2**24`` entries, and so may a member's blocks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channels import (
    ChannelSpec,
    ClassicalChannel,
    DepolarizedUnitary,
    PauliFourVector,
    Unitary,
    apply,
    channel_dims,
    to_kraus,
)
from .linalg import VERIFY_TOL, partial_trace, record
from .masking import Masker, _members

# Verification takes no partial trace; the name stays on this module, where perfbench's tracer counts its calls.
__all__ = ["VerificationReport", "partial_trace", "reduced_channel_choi", "verify_masking"]

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
    """Choi matrices ``(seen_by_a, seen_by_b)`` of ``rho -> Tr_B[M E(rho) M^dag]`` and ``Tr_A[...]``, from the
    Kraus-form formula for any masker."""
    _check_input_dim(masker, spec)
    g = masker.matrix.reshape(masker.dims.dim_a, masker.dims.dim_b, -1)  # G_b = g[:, b] for A's view
    return _kraus_choi(g.transpose(1, 0, 2)[None], spec)[0], _kraus_choi(g[None], spec)[0]


def _views(masker: Masker, members: list) -> tuple:
    """``(views_a, views_b)``, what A and what B see of each member, from the route the masker picks (see the
    module docstring).  Copy blocks come as ``views_b is views_a``."""
    _check_input_dim(masker, members[0])
    rows = _copy_rows(masker)
    if rows is None:
        return tuple(zip(*(reduced_channel_choi(masker, spec) for spec in members)))
    blocks = [_copy_blocks(rows, spec) for spec in members]
    return blocks, blocks


def _check_input_dim(masker: Masker, spec: ChannelSpec) -> None:
    dout = channel_dims(spec)[1]
    if masker.input_dim != dout:
        raise ValueError(f"masker input dimension {masker.input_dim} does not match channel output {dout}")


def _check_view_entries(entries: int) -> None:
    if entries > _MAX_VIEW_ENTRIES:
        raise ValueError(f"a reduced Choi matrix of {entries} entries exceeds the bound of 2**24 entries")


def _dense(blocks: np.ndarray) -> np.ndarray:
    """The reduced Choi matrix whose only nonzero entries ``[(i, k), (j, k)]`` are ``blocks[k][i, j]``."""
    d, din, _ = blocks.shape
    _check_view_entries((din * d) ** 2)
    view = np.zeros((din, d, din, d), dtype=complex)
    view[:, np.arange(d), :, np.arange(d)] = blocks
    return view.reshape(din * d, din * d)


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


def _copy_blocks(rows: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """The ``d`` blocks of ``rho -> diag(R E(rho) R^dag)``: ``(R E(|i><j|) R^dag)[k, k]`` at ``[k, i, j]``.

    Each kind takes the form the module docstring names.
    """
    din, _ = channel_dims(spec)
    _check_view_entries(len(rows) * din**2)
    if isinstance(spec, PauliFourVector):
        ops = np.eye(din * din, dtype=complex).reshape(din * din, din, din)  # ops[i * din + j] = |i><j|
        images = np.diagonal(rows @ apply(spec, ops) @ rows.conj().T, axis1=1, axis2=2)
        return images.T.reshape(-1, din, din)
    if isinstance(spec, ClassicalChannel):
        # E(|i><j|) = delta_ij diag(P[:, i]), so only the diagonal of each block is set; it is real.
        images = np.diagonal((rows * spec.probs.T[:, None]) @ rows.conj().T, axis1=1, axis2=2).real
        blocks = np.zeros((len(rows), din, din), dtype=complex)
        blocks[:, np.arange(din), np.arange(din)] = images.T
        return blocks
    return _kraus_choi(rows[:, None, None], spec)


def _kraus_choi(g: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """The Choi matrix of ``rho -> sum_b G_b E(rho) G_b^dag`` for each stack ``g[n]`` of shape ``(b, r, dout)``.

    It is ``W W^dag`` for ``W[(i, x), (a, b)] = (G_b K_a)[x, i]`` and Kraus
    operators ``K_a`` of ``spec``.  Unitary and depolarized members take their
    one matrix and classical members their diagonal, so only Kraus and Pauli
    members build Kraus operators.
    """
    din, dout = channel_dims(spec)
    n, b, r, _ = g.shape
    _check_view_entries(n * (din * r) ** 2)
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


def _max_pairwise(views) -> tuple[float, tuple]:
    # Each deviation is np.linalg.norm's Frobenius norm of a complex array,
    # its expression written out, which gives its bits without its dispatch.
    # A NaN deviation is worse than any other: the first one is the result.
    worst, pair = 0.0, (0, 0)
    for i, j in itertools.combinations(range(len(views)), 2):
        x = (views[i] - views[j]).ravel()
        dev = float(np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)))
        if math.isnan(dev):
            return dev, (i, j)
        if dev > worst:
            worst, pair = dev, (i, j)
    return worst, pair


def _report(views_a, views_b, tol: float) -> VerificationReport:
    """The report on what A and what B see of each member (``views_b is views_a`` when both see one map).

    The worst pair is taken from the side that deviates more.  A NaN deviation counts as the worst (A's
    before B's) and fails the report.
    """
    dev_a, pair_a = _max_pairwise(views_a)
    dev_b, pair_b = (dev_a, pair_a) if views_b is views_a else _max_pairwise(views_b)
    worst_pair = pair_a if dev_a >= dev_b or math.isnan(dev_a) else pair_b
    return VerificationReport(passed=bool(dev_a <= tol and dev_b <= tol), max_deviation_a=dev_a,
                              max_deviation_b=dev_b, worst_pair=worst_pair, tol=tol)


def verify_masking(masker: Masker, family, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check that both reduced channels are identical across the whole family."""
    return _report(*_views(masker, _members(family, "family", shared="input and output dimensions")), tol)
