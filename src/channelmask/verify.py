"""Numerical verification of masking.

The reduced channels seen by subsystems A and B are computed as explicit Choi
matrices, both views at once; two channels are equal iff their Choi matrices
are, so comparing them is a complete equality test.  Deviations are
aggregated with max (masking is a worst-case property over inputs and family
members).

Up to input dimension 4 each member's ``din**2`` basis operators go through
the channel as one stack, and the images of the whole family through the
masker and both partial traces as one stack per family, which fixes the
round-off digits (such as ``1.570e-16``, or an exact ``0.0``) the CLI prints
for small families, every file in ``samples/`` among them: numpy makes the
same product and sum for each matrix of a stack as for a lone one, so the
digits are those of one operator at a time.  The (member, operator) pairs are
taken in chunks, so that no stacked product ``M E(X) M^dag`` holds more than
``max(D**2, 2**20)`` entries for ``D = dA * dB``.  Above 4 one Kraus-form
formula gives each view, with no dimension cap; a view may hold up to
``2**24`` entries.  A copy masker (``d x d`` factors, every row other than
``k*(d+1)`` exactly zero, as every masker this package writes) shows both
sides one map, ``rho -> diag(R E(rho) R^dag)`` for its copy rows ``R``, whose
Choi matrix is ``d`` blocks of size ``din x din`` from the same formula.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channels import ChannelSpec, ClassicalChannel, DepolarizedUnitary, Unitary, apply, channel_dims, to_kraus
from .linalg import VERIFY_TOL, partial_trace, record
from .masking import Masker, _members

# The stacked basis-operator pass serves inputs up to this dimension (see the
# module docstring): it fixes the round-off digits of the CLI's small reports.
_STACK_MAX_INPUT_DIM = 4
# Entries of one stacked product M E(X) M^dag (16 MB of complex128), unless
# one operator's D x D product alone is larger.
_STACK_ENTRIES = 2**20
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

    Up to input dimension 4 both views come from the stacked pass of
    :func:`_stacked_views` over a family of one, so each has the bits it has
    in any family; above, each is :func:`_kraus_choi` of the rows of ``M``.
    """
    din, dout = channel_dims(spec)
    _check_masker_input(masker, dout)
    if din > _STACK_MAX_INPUT_DIM:
        da, db = masker.dims.dim_a, masker.dims.dim_b
        rows = masker.matrix.reshape(da, db, dout)  # G_b = rows[:, b] for A's view, G_a = rows[a] for B's
        return _kraus_choi(rows.transpose(1, 0, 2)[None], spec)[0], _kraus_choi(rows[None], spec)[0]
    seen_by_a, seen_by_b = _stacked_views(masker, [spec])
    return seen_by_a[0], seen_by_b[0]


def _stacked_views(masker: Masker, members: list) -> tuple[np.ndarray, np.ndarray]:
    """What A and what B see of each of ``n`` members of input dimension ``din <= 4``, as the stacks
    ``(n, din * dA, din * dA)`` and ``(n, din * dB, din * dB)``.

    The ``n * din**2`` pairs (member, basis operator) are taken in chunks of
    at most ``max(1, 2**20 // D**2)`` for ``D = dA * dB``.  In each chunk,
    each member's operators go through one ``apply`` call, and all their
    images through ``M . M^dag`` and each partial trace together.
    """
    din, dout = channel_dims(members[0])
    da, db = masker.dims.dim_a, masker.dims.dim_b
    m = masker.matrix
    per_member = din * din
    n, count = len(members), len(members) * per_member
    ops = np.eye(per_member, dtype=complex).reshape(per_member, din, din)  # ops[i * din + j] = |i><j|
    seen_by_a = np.empty((count, da, da), dtype=complex)
    seen_by_b = np.empty((count, db, db), dtype=complex)
    m_dag = m.conj().T
    chunk = max(1, _STACK_ENTRIES // masker.dims.total**2)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        images = np.concatenate([apply(members[k], ops[max(start - k * per_member, 0):stop - k * per_member])
                                 for k in range(start // per_member, (stop - 1) // per_member + 1)])
        masked = m @ images @ m_dag
        seen_by_a[start:stop] = partial_trace(masked, masker.dims, "B")
        seen_by_b[start:stop] = partial_trace(masked, masker.dims, "A")
        del masked  # the next chunk's product is not made while this one is held
    # [(k, i, j), x, x'] -> [k, (i, x), (j, x')]
    return (seen_by_a.reshape(n, din, din, da, da).transpose(0, 1, 3, 2, 4).reshape(n, din * da, din * da),
            seen_by_b.reshape(n, din, din, db, db).transpose(0, 1, 3, 2, 4).reshape(n, din * db, din * db))


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
    members = _members(family, "family", shared="input and output dimensions")
    din, dout = channel_dims(members[0])
    _check_masker_input(masker, dout)
    if din <= _STACK_MAX_INPUT_DIM:
        return _report(*_stacked_views(masker, members), tol)
    rows = _copy_rows(masker)
    if rows is not None:
        # Both reduced channels of a copy masker are the same map.
        views = [_kraus_choi(rows[:, None, None], spec) for spec in members]
        return _report(views, views, tol)
    return _report(*zip(*(reduced_channel_choi(masker, spec) for spec in members)), tol)
