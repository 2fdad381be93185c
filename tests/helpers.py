"""Shared random-instance generators for the test suite."""

import numpy as np

from channelmask.channels import (
    DepolarizedUnitary,
    KrausChannel,
    Unitary,
    apply,
    channel_dims,
    rotation_about,
    to_kraus,
)
from channelmask.linalg import commutator_norm, random_unitary
from channelmask.masking import Masker


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


def random_axis(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def gate_family(*us) -> tuple:
    """A gate family: one :class:`Unitary` member per matrix."""
    return tuple(Unitary(u) for u in us)


def depolarized_family(p: float, *us) -> tuple:
    """A depolarized family: one :class:`DepolarizedUnitary` member per matrix, all at noise level ``p``."""
    return tuple(DepolarizedUnitary(p, u) for u in us)


def random_commuting_family(rng: np.random.Generator, dim: int, size: int,
                            repeated_phase: bool = False) -> tuple:
    """Unitary members sharing a random eigenbasis (hence maskable), hidden by a left unitary."""
    basis = random_unitary(dim, rng)
    left = random_unitary(dim, rng)
    members = []
    for _ in range(size):
        phases = rng.uniform(0.0, 2 * np.pi, size=dim)
        if repeated_phase and dim >= 2:
            phases[1] = phases[0]
        members.append(left @ (basis * np.exp(1j * phases)) @ basis.conj().T)
    return gate_family(*members)


def random_noncommuting_triple(rng: np.random.Generator, dim: int) -> tuple:
    """Three Unitary members whose relative pair has commutator norm at least 0.1."""
    while True:
        us = [random_unitary(dim, rng) for _ in range(3)]
        w1 = us[0].conj().T @ us[1]
        w2 = us[0].conj().T @ us[2]
        if commutator_norm(w1, w2) >= 0.1:
            return gate_family(*us)


def rotation_mixture_channel(rng: np.random.Generator, axis: np.ndarray,
                             terms: int = 3) -> KrausChannel:
    """Random mixture of rotations about a common axis: unital, fixes that axis."""
    weights = rng.dirichlet(np.ones(terms))
    ops = tuple(
        np.sqrt(w) * rotation_about(axis, rng.uniform(0.0, 2 * np.pi))
        for w in weights
    )
    return KrausChannel(ops)


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Dense isometry with orthonormal columns, from the QR of a Gaussian matrix."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(z)[0]


def random_kraus_channel(rng: np.random.Generator, din: int, dout: int, rank: int) -> KrausChannel:
    """Channel whose ``rank`` Kraus operators are blocks of one random isometry."""
    stacked = random_isometry(rng, rank * dout, din)
    return KrausChannel(tuple(stacked[k * dout:(k + 1) * dout] for k in range(rank)))


def brute_force_reduced_choi(masker: Masker, spec, side: str) -> np.ndarray:
    """Oracle for ``reduced_channel_choi``: the full Choi matrix of ``M o E``, then a partial trace.

    The Choi matrix lives on ``input (x) A (x) B``; ``side`` names the factor
    that is traced out.
    """
    din, _ = channel_dims(spec)
    da, db = masker.dims.dim_a, masker.dims.dim_b
    m = masker.matrix
    full = np.zeros((din, da * db, din, da * db), dtype=complex)
    for i in range(din):
        for j in range(din):
            basis_op = np.zeros((din, din), dtype=complex)
            basis_op[i, j] = 1.0
            full[i, :, j, :] = m @ apply(spec, basis_op) @ m.conj().T
    six = full.reshape(din, da, db, din, da, db)
    if side == "B":
        return np.einsum("iabjcb->iajc", six).reshape(din * da, din * da)
    return np.einsum("iabjad->ibjd", six).reshape(din * db, din * db)


def kraus_reduced_chois(masker: Masker, spec) -> tuple:
    """Oracle for ``reduced_channel_choi`` from Kraus operators, with no ``apply`` and no ``partial_trace``.

    Stacking ``V_a = M K_a`` as ``v[a, x, y, i]`` (``x`` on A, ``y`` on B),
    the Choi matrix A sees is ``W W^dag`` for ``W[(i, x), (a, y)] = v[a, x, y, i]``,
    and the one B sees swaps the roles of ``x`` and ``y``.  Returns
    ``(seen_by_a, seen_by_b)``.
    """
    din, _ = channel_dims(spec)
    da, db = masker.dims.dim_a, masker.dims.dim_b
    v = (masker.matrix @ np.stack(to_kraus(spec).kraus_ops)).reshape(-1, da, db, din)
    w_a = v.transpose(3, 1, 0, 2).reshape(din * da, -1)
    w_b = v.transpose(3, 2, 0, 1).reshape(din * db, -1)
    return w_a @ w_a.conj().T, w_b @ w_b.conj().T
