"""Quantum channel representations and conversions.

A channel is described by one of five interchangeable forms: a unitary
matrix, a Kraus operator list, a Pauli probability four-vector, a classical
column-stochastic matrix, or a unitary mixed with depolarizing noise.  The
module converts between them, evaluates channels on operators, and analyzes
the affine action of qubit channels on Bloch vectors (the shift that measures
unitality, pure fixed points).  The Bloch map takes one :func:`apply` of the
stack ``PAULIS`` and the pure fixed points one more of their candidate
states; each matrix of a stack gets the bits of its own 2-d call.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .linalg import DECISION_TOL, as_complex_matrix, isometry_defects, record

# the stack (sigma_0, sigma_x, sigma_y, sigma_z), and its four matrices by name
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z = PAULIS

# Trace preservation and probability normalization are structural facts.
_TRACE_TOL = 1e-10
# Probabilities this far below zero are treated as round-off and clamped.
_PROB_CLAMP = 1e-12
# |U^dag U - 1| (Frobenius) bound of a unitary member
_UNITARY_TOL = 1e-10


def _check_unitary(m, name: str) -> np.ndarray:
    arr = as_complex_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square")
    if not isometry_defects(arr[None])[0] <= _UNITARY_TOL:
        raise ValueError(f"{name} is not unitary within 1e-10")
    return arr


def _probability(p) -> float:
    p = float(p)
    if not -_PROB_CLAMP <= p <= 1.0 + _PROB_CLAMP:  # so NaN is refused
        raise ValueError(f"p = {p} is not a probability")
    return min(max(p, 0.0), 1.0)


@record
class Unitary:
    """Channel ``rho -> U rho U^dag`` for a unitary matrix ``U``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_unitary(self.matrix, "unitary matrix"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@record
class KrausChannel:
    """Channel ``rho -> sum_k K_k rho K_k^dag`` with trace-preserving Kraus operators."""

    kraus_ops: tuple

    def __post_init__(self) -> None:
        ops = tuple(as_complex_matrix(k, f"kraus_ops[{i}]") for i, k in enumerate(self.kraus_ops))
        if not ops:
            raise ValueError("need at least one Kraus operator")
        if any(k.shape != ops[0].shape for k in ops):
            raise ValueError("Kraus operators must share a common shape")
        if not isometry_defects(np.concatenate(ops)[None])[0] <= _TRACE_TOL:  # [K_1; K_2; ...] is an isometry
            raise ValueError("Kraus operators do not sum to the identity (not trace preserving)")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def din(self) -> int:
        return self.kraus_ops[0].shape[1]

    @property
    def dout(self) -> int:
        return self.kraus_ops[0].shape[0]


@record
class PauliFourVector:
    """Qubit Pauli channel ``rho -> sum_i p_i sigma_i rho sigma_i``."""

    p0: float
    px: float
    py: float
    pz: float

    def __post_init__(self) -> None:
        probs = []
        for name in ("p0", "px", "py", "pz"):
            value = float(getattr(self, name))
            if value < -_PROB_CLAMP:
                raise ValueError(f"{name} = {value} is negative")
            probs.append(max(value, 0.0))
        if not abs(sum(probs) - 1.0) <= _TRACE_TOL:  # a NaN passes max() into the sum
            raise ValueError(f"probabilities sum to {sum(probs)}, expected 1 within {_TRACE_TOL}")
        for name, value in zip(("p0", "px", "py", "pz"), probs):
            object.__setattr__(self, name, value)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([self.p0, self.px, self.py, self.pz])


@record
class ClassicalChannel:
    """Classical channel given by conditional probabilities ``p(y|x)``.

    ``probs[y, x]`` is the probability of output symbol ``y`` given input
    ``x``; every column is a distribution over outputs.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("probs must be a non-empty 2-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probs contains non-finite entries")
        if np.any(arr < -_PROB_CLAMP):
            raise ValueError("probs contains negative entries")
        arr = np.clip(arr, 0.0, None)
        sums = arr.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > _TRACE_TOL):
            raise ValueError(f"column sums {sums} differ from 1 beyond {_TRACE_TOL}")
        object.__setattr__(self, "probs", arr)

    @property
    def in_size(self) -> int:
        return self.probs.shape[1]

    @property
    def out_size(self) -> int:
        return self.probs.shape[0]


@record
class DepolarizedUnitary:
    """Channel ``rho -> p U rho U^dag + (1-p) Tr(rho) 1/d``."""

    p: float
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _probability(self.p))
        object.__setattr__(self, "matrix", _check_unitary(self.matrix, "unitary matrix"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _gates(stack: np.ndarray, ps=None) -> tuple | None:
    """``Unitary(u)`` for each ``u`` of the finite complex stack ``(n, d, d)``, or ``DepolarizedUnitary(ps[k], u)``,
    as the constructors build them after their rules run once over the whole stack; ``None`` if one is refused."""
    try:
        ps = None if ps is None else [*map(_probability, ps)]
    except ValueError:
        return None
    if not (isometry_defects(stack) <= _UNITARY_TOL).all():
        return None
    members = []
    for k, u in enumerate(stack):
        member = object.__new__(Unitary if ps is None else DepolarizedUnitary)
        if ps is not None:
            object.__setattr__(member, "p", ps[k])
        object.__setattr__(member, "matrix", u)
        members.append(member)
    return tuple(members)


ChannelSpec = Union[Unitary, KrausChannel, PauliFourVector, ClassicalChannel, DepolarizedUnitary]


@record
class BlochAffine:
    """Affine action ``n -> matrix @ n + shift`` of a qubit channel on Bloch vectors."""

    matrix: np.ndarray
    shift: np.ndarray


class _AllDirections:
    """Sentinel: every unit Bloch vector is a fixed point."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "AllDirections"


ALL_DIRECTIONS = _AllDirections()


def channel_dims(spec: ChannelSpec) -> tuple[int, int]:
    """Input and output dimensions of a channel."""
    if isinstance(spec, Unitary):
        return spec.dim, spec.dim
    if isinstance(spec, KrausChannel):
        return spec.din, spec.dout
    if isinstance(spec, PauliFourVector):
        return 2, 2
    if isinstance(spec, ClassicalChannel):
        return spec.in_size, spec.out_size
    if isinstance(spec, DepolarizedUnitary):
        return spec.dim, spec.dim
    raise TypeError(f"not a channel spec: {spec!r}")


def is_qubit(spec: ChannelSpec) -> bool:
    """True iff the channel maps a qubit to a qubit."""
    return channel_dims(spec) == (2, 2)


def identity_channel(dim: int = 2) -> Unitary:
    """The identity channel on a ``dim``-dimensional system."""
    return Unitary(np.eye(dim, dtype=complex))


def apply(spec: ChannelSpec, rho) -> np.ndarray:
    """Evaluate the channel on an operator (not restricted to states), or on each in a stack ``(..., d, d)``.

    Each operator of a stack gives the bits of its own 2-d call.
    """
    arr = as_complex_matrix(rho, "rho", stack=True)
    din, _ = channel_dims(spec)
    if arr.shape[-2:] != (din, din):
        raise ValueError(f"operator shape {arr.shape} does not match channel input dimension {din}")
    if isinstance(spec, Unitary):
        return spec.matrix @ arr @ spec.matrix.conj().T
    if isinstance(spec, KrausChannel):
        out = np.zeros((*arr.shape[:-2], spec.dout, spec.dout), dtype=complex)
        for k in spec.kraus_ops:
            out += k @ arr @ k.conj().T
        return out
    if isinstance(spec, PauliFourVector):
        return (
            spec.p0 * arr
            + spec.px * SIGMA_X @ arr @ SIGMA_X
            + spec.py * SIGMA_Y @ arr @ SIGMA_Y
            + spec.pz * SIGMA_Z @ arr @ SIGMA_Z
        )
    if isinstance(spec, ClassicalChannel):
        # diag(P diag(X)); the trailing axis keeps the 2-d call's matrix-vector product.
        image = spec.probs.astype(complex) @ np.diagonal(arr, axis1=-2, axis2=-1)[..., None]
        out = np.zeros((*arr.shape[:-2], spec.out_size, spec.out_size), dtype=complex)
        diagonal = np.arange(spec.out_size)
        out[..., diagonal, diagonal] = image[..., 0]
        return out
    # channel_dims refused every other type, so spec is a DepolarizedUnitary
    d = spec.dim
    coherent = spec.matrix @ arr @ spec.matrix.conj().T
    mixed = (1.0 - spec.p) * np.trace(arr, axis1=-2, axis2=-1)[..., None, None]
    return spec.p * coherent + mixed * np.eye(d) / d


def to_kraus(spec: ChannelSpec) -> KrausChannel:
    """Kraus form of the channel (zero-probability operators are dropped)."""
    if isinstance(spec, KrausChannel):
        return spec
    if isinstance(spec, Unitary):
        return KrausChannel((spec.matrix,))
    if isinstance(spec, PauliFourVector):
        probs = spec.probabilities
        return KrausChannel(tuple((np.sqrt(probs)[:, None, None] * PAULIS)[probs > 0.0]))
    if isinstance(spec, ClassicalChannel):
        ys, xs = np.nonzero(spec.probs > 0.0)  # row-major: y, then x
        ops = np.zeros((ys.size, spec.out_size, spec.in_size), dtype=complex)
        ops[np.arange(ys.size), ys, xs] = np.sqrt(spec.probs[ys, xs])
        return KrausChannel(tuple(ops))
    if isinstance(spec, DepolarizedUnitary):
        d = spec.dim
        ops = [np.sqrt(spec.p) * spec.matrix] if spec.p > 0.0 else []
        if spec.p < 1.0:
            # the unit operators |i><j|, i then j
            ops.extend(np.sqrt((1.0 - spec.p) / d) * np.eye(d * d, dtype=complex).reshape(d * d, d, d))
        return KrausChannel(tuple(ops))
    raise TypeError(f"not a channel spec: {spec!r}")


def bloch_affine(spec: ChannelSpec) -> BlochAffine:
    """Affine Bloch-sphere action ``n -> A n + b`` of a qubit channel."""
    if not is_qubit(spec):
        raise ValueError("Bloch representation requires a qubit channel")
    # m[i, j] = tr(sigma_i E(sigma_j)) / 2 for i in x, y, z and j in 0, x, y, z: b, then the columns of A
    m = 0.5 * np.trace(PAULIS[1:, None] @ apply(spec, PAULIS), axis1=-2, axis2=-1)
    residue = np.abs(m.imag).max()
    if residue > 1e-10:
        raise ValueError(f"Bloch action has imaginary residue {residue}; channel is not Hermiticity preserving")
    return BlochAffine(m.real[:, 1:].copy(), m.real[:, 0].copy())


def _canonical_direction(v: np.ndarray) -> np.ndarray:
    w = v / np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(w) > 1e-8)
    if nz.size and w[nz[-1]] < 0:
        w = -w
    return w


def _dedupe_directions(dirs: list[np.ndarray]) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for v in dirs:
        if all(np.linalg.norm(v - u) > 1e-8 for u in kept):
            kept.append(v)
    return kept


def _keeps(a: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """The identity kinds' rule that a unital member with Bloch matrix ``a`` keeps the direction ``v``:
    ``|A v - v|`` and ``|A^T v - v|`` are within ``tol``.  A tilt of the member moves its near-fixed
    direction to second order under ``A`` but to first order under ``A^T``, and ``A^T v`` is what a
    copy masker along ``v`` shows of it."""
    return bool(np.linalg.norm(a @ v - v) <= tol and np.linalg.norm(a.T @ v - v) <= tol)


def pure_fixed_points(spec: ChannelSpec, tol: float = DECISION_TOL):
    """Unit Bloch vectors ``n`` with ``A n + b = n``, i.e. pure fixed states.

    Returns ``ALL_DIRECTIONS`` when the channel is the identity within
    ``tol``, ``None`` when no pure state is fixed, and otherwise a list of
    unit vectors (antipodal pairs appear as two entries).  A channel unital
    within ``tol`` lists the kernel directions of ``A - 1`` that :func:`_keeps`
    accepts; any other lists at most one.  Every returned direction is
    re-verified at the channel level within ``10 * tol``.
    """
    return _pure_fixed_points(spec, bloch_affine(spec), tol)


def _pure_fixed_points(spec: ChannelSpec, aff: BlochAffine, tol: float):
    """:func:`pure_fixed_points` of ``spec`` from its Bloch map ``aff``, for callers that already hold it."""
    a, b = aff.matrix, aff.shift
    eye3 = np.eye(3)
    if np.linalg.norm(a - eye3) <= tol and np.linalg.norm(b) <= tol:
        return ALL_DIRECTIONS

    shifted = a - eye3
    candidates: list[np.ndarray] = []
    if np.linalg.norm(b) <= tol:
        _, svals, vt = np.linalg.svd(shifted)
        for v in vt[svals <= tol]:
            if _keeps(a, v, tol):
                c = _canonical_direction(v)
                candidates.extend([c, -c])
    else:
        # A qubit channel that is not unital fixes at most one pure state,
        # so only the minimum-norm solution of (A - 1) x = -b can be one.
        x, *_ = np.linalg.lstsq(shifted, -b, rcond=None)
        residual = np.linalg.norm(shifted @ x + b)
        if residual <= tol:
            norm_x = np.linalg.norm(x)
            if abs(norm_x - 1.0) <= tol:
                candidates.append(x / norm_x)

    # every candidate's pure state through the channel at once (an empty stack when there is none)
    units = np.reshape([v / np.linalg.norm(v) for v in candidates], (-1, 3))
    nx, ny, nz = units.T[..., None, None]
    states = 0.5 * (SIGMA_0 + nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z)
    fixed = [v for v, rho, image in zip(units, states, apply(spec, states))
             if np.linalg.norm(image - rho) <= 10 * tol]
    return fixed if fixed else None


# -- named channel constructors ----------------------------------------------


def bit_flip(p: float) -> PauliFourVector:
    """Flip the computational basis with probability ``p``."""
    return PauliFourVector(1.0 - p, p, 0.0, 0.0)


def dephasing(p: float) -> PauliFourVector:
    """Apply a Z error with probability ``p``."""
    return PauliFourVector(1.0 - p, 0.0, 0.0, p)


def depolarizing(p: float) -> PauliFourVector:
    """Uniform Pauli noise of strength ``p``."""
    return PauliFourVector(1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Decay toward ``|0>`` with probability ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def random_classical_channel(in_size: int, out_size: int, rng: np.random.Generator) -> ClassicalChannel:
    """Random column-stochastic channel with Dirichlet-uniform columns."""
    cols = rng.dirichlet(np.ones(out_size), size=in_size)
    return ClassicalChannel(cols.T)
