"""Numerical verification of masking.

The reduced channels seen by subsystems A and B are computed as explicit Choi
matrices, both views at once; two channels are equal iff their Choi matrices
are, so comparing them is a complete equality test.  Deviations are
aggregated with max (masking is a worst-case property over inputs and family
members).

Three routes give the views, and :func:`_views` alone picks one.  The
stacked pass serves input dimensions up to 4 when the family's whole stack
of ``n * din**2`` products ``M E(X) M^dag`` (each ``D x D``, ``D = dA * dB``)
holds at most ``_STACK_ENTRIES`` entries: the basis operators go through the
channel, the masker and both partial traces as one stack, and numpy makes
the same product and sum for each matrix of a stack as for a lone one, so
each view has the bits of one operator at a time and of its member's own
``reduced_channel_choi``.  Those bits fix the round-off digits (such as
``1.570e-16``, or an exact ``0.0``) the CLI prints for ``samples/``.  Past
the bound a copy masker (``d x d`` factors, every row other than ``k*(d+1)``
exactly zero, as every masker this package writes) shows both sides one
map, ``rho -> diag(R E(rho) R^dag)`` for its copy rows ``R``, whose Choi
matrix is ``d`` blocks of size ``din x din``; any other masker goes member
by member through ``reduced_channel_choi``, whose route past the bound is
one Kraus-form formula with no dimension cap.  A view may hold up to
``2**24`` entries.
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
# Entries of a family's whole stack of products M E(X) M^dag (16 MB of
# complex128); a larger family does not take the stacked pass.
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

    Both come from :func:`_views` for a family of one, so wherever a family
    takes the stacked pass each member's views have the bits of its own.
    Copy blocks are set in place: block ``k`` is the entries ``[(i, k), (j, k)]``.
    """
    seen_by_a, seen_by_b = _views(masker, [spec])
    if seen_by_b is not seen_by_a:
        return seen_by_a[0], seen_by_b[0]
    d, din, _ = seen_by_a[0].shape
    _check_view_entries((din * d) ** 2)
    view = np.zeros((din, d, din, d), dtype=complex)
    view[:, np.arange(d), :, np.arange(d)] = seen_by_a[0]
    view = view.reshape(din * d, din * d)
    return view, view.copy()


def _views(masker: Masker, members: list) -> tuple:
    """``(views_a, views_b)``, what A and what B see of each member, from the route picked here and
    nowhere else (see the module docstring).  Copy blocks come as ``views_b is views_a``; a family of
    one that takes neither the stacked pass nor the copy blocks takes the Kraus-form formula."""
    din, dout = channel_dims(members[0])
    if masker.input_dim != dout:
        raise ValueError(f"masker input dimension {masker.input_dim} does not match channel output {dout}")
    if din <= _STACK_MAX_INPUT_DIM and len(members) * (din * masker.dims.total) ** 2 <= _STACK_ENTRIES:
        return _stacked_views(masker, members)
    rows = _copy_rows(masker)
    if rows is not None:
        blocks = [_kraus_choi(rows[:, None, None], spec) for spec in members]
        return blocks, blocks
    if len(members) > 1:
        return tuple(zip(*(reduced_channel_choi(masker, spec) for spec in members)))
    rows = masker.matrix.reshape(masker.dims.dim_a, masker.dims.dim_b, dout)  # G_b = rows[:, b] for A's view
    return _kraus_choi(rows.transpose(1, 0, 2)[None], members[0]), _kraus_choi(rows[None], members[0])


def _stacked_views(masker: Masker, members: list) -> tuple[np.ndarray, np.ndarray]:
    """What A and what B see of each of ``n`` members, as the stacks ``(n, din * dA, din * dA)`` and
    ``(n, din * dB, din * dB)``: each member's ``din**2`` basis operators go through one ``apply`` call,
    and all the images through one product ``M . M^dag`` and one partial trace per side."""
    din, _ = channel_dims(members[0])
    da, db = masker.dims.dim_a, masker.dims.dim_b
    n, m = len(members), masker.matrix
    ops = np.eye(din * din, dtype=complex).reshape(din * din, din, din)  # ops[i * din + j] = |i><j|
    masked = m @ np.concatenate([apply(spec, ops) for spec in members]) @ m.conj().T
    seen_by_a = partial_trace(masked, masker.dims, "B")
    seen_by_b = partial_trace(masked, masker.dims, "A")
    # [(k, i, j), x, x'] -> [k, (i, x), (j, x')]
    return (seen_by_a.reshape(n, din, din, da, da).transpose(0, 1, 3, 2, 4).reshape(n, din * da, din * da),
            seen_by_b.reshape(n, din, din, db, db).transpose(0, 1, 3, 2, 4).reshape(n, din * db, din * db))


def _check_view_entries(entries: int) -> None:
    if entries > _MAX_VIEW_ENTRIES:
        raise ValueError(f"a reduced Choi matrix of {entries} entries exceeds the bound of 2**24 entries")


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
