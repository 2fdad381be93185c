"""Maskability decisions and masker synthesis.

A family of channels is *maskable* when a single isometry into a bipartite
space makes both reduced outputs independent of which family member acted.
This module decides maskability for the certified classes (unitary gate
families, Pauli channel families, qubit channels masked together with the
identity, unitaries under depolarizing noise, classical channels) and builds
an explicit masker for every positive verdict.  One decider,
:func:`decide_identity_family`, covers masking with the identity: it decides
``{identity} ∪ members``, and one member is the pair ``{identity, E}``.
Every masker copies a basis, ``|v_k> -> |kk>``: the certificate of a
positive verdict names the basis, and :func:`copy_masker` is the one
construction.  Negative verdicts carry a
numerical witness of the violated condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .channels import (
    ALL_DIRECTIONS,
    ChannelSpec,
    ClassicalChannel,
    DepolarizedUnitary,
    PauliFourVector,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Unitary,
    _canonical_direction,
    _dedupe_directions,
    bloch_affine,
    channel_dims,
    is_qubit,
    pure_fixed_points,
)
from .linalg import (
    DECISION_TOL,
    BipartiteDims,
    _diagonalizes_all,
    as_complex_matrix,
    commutator_norm,
    eig_hermitian,
    fix_column_phases,
    is_isometry,
    simultaneous_eigenbasis,
)

AXES = ("x", "y", "z")
_AXIS_SIGMA = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

Z_AXIS = np.array([0.0, 0.0, 1.0])

# Members that carry a gate: the gate and depolarized kinds share certificates.
_GATE_KINDS = (Unitary, DepolarizedUnitary)


@dataclass(frozen=True)
class Masker:
    """Isometry from the channel output space into a bipartite space."""

    matrix: np.ndarray
    dims: BipartiteDims

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix, "masker matrix")
        if m.shape[0] != self.dims.total:
            raise ValueError(
                f"masker has {m.shape[0]} rows but factor dimensions "
                f"{self.dims.dim_a} x {self.dims.dim_b}"
            )
        if not is_isometry(m, 1e-9):
            raise ValueError("masker matrix is not an isometry within 1e-9")
        object.__setattr__(self, "matrix", m)

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]


# -- certificates (which basis the masker copies) -----------------------------
#
# Every masker copies a basis: ``|v_k> -> |kk>`` (see :func:`copy_masker`).
# A certificate's ``copy_rows(members, tol)`` returns ``V^dag``, the rows the
# masker copies, after checking the certificate against the family's
# ``members``; a gate family (with or without depolarizing noise) carries its
# gates in its members.


@dataclass(frozen=True)
class CommonEigenbasis:
    """All relative gates are diagonal in ``basis``; mask by copying it."""

    basis: np.ndarray
    reference_index: int = 0

    def copy_rows(self, members=(), tol: float = DECISION_TOL) -> np.ndarray:
        """``basis^dag U_ref^dag``, once ``basis`` diagonalizes every relative gate within ``tol * dim``."""
        us = _gates(members)
        basis = as_complex_matrix(self.basis, "basis")
        reference = self.reference_index
        if basis.shape != us[0].shape:
            raise ValueError("certificate basis dimension does not match the family")
        if not 0 <= reference < len(us):
            raise ValueError("certificate reference index out of range")
        if not is_isometry(basis, 1e-8):
            raise ValueError("certificate basis is not orthonormal")
        if not _diagonalizes_all(_relative_gates(us, reference), basis, tol):
            raise ValueError("certificate basis does not diagonalize the family")
        return basis.conj().T @ us[reference].conj().T

    def to_json(self) -> dict:
        return {"type": "common_eigenbasis", "reference_index": self.reference_index,
                "basis": matrix_to_json(self.basis)}


@dataclass(frozen=True)
class PauliAxis:
    """``p0 + p_axis`` is constant (= ``constant``) across the family."""

    axis: str
    constant: float

    def copy_rows(self, members=(), tol: float = DECISION_TOL) -> np.ndarray:
        """Rows ``<u+|`` and ``<u-|`` from the eigenvectors of ``sigma_axis``."""
        if self.axis not in _AXIS_SIGMA:
            raise ValueError(f"axis must be one of {AXES}")
        vectors = eig_hermitian(_AXIS_SIGMA[self.axis]).vectors  # eigenvalues ascend
        return vectors[:, ::-1].conj().T

    def to_json(self) -> dict:
        return {"type": "pauli_axis", "axis": self.axis, "constant": self.constant}


@dataclass(frozen=True)
class FixedPointAxis:
    """Every family member fixes the pure state with this Bloch direction."""

    direction: np.ndarray

    def copy_rows(self, members=(), tol: float = DECISION_TOL) -> np.ndarray:
        """``U^dag`` for a unitary with ``U|0>`` on ``direction``, once every member fixes it.

        A member fixes ``direction`` as in :func:`decide_identity_family`: it
        fixes every direction, lists it among its pure fixed points, or maps it
        to itself within ``tol``.
        """
        if not members:
            raise ValueError("family must be non-empty")
        for spec in members:
            _require_qubit(spec)
        v = np.asarray(self.direction, dtype=float)
        if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("direction must be a unit 3-vector")
        for spec in members:
            fixed = pure_fixed_points(spec, tol)
            listed = isinstance(fixed, list) and any(np.linalg.norm(u - v) <= 1e-8 for u in fixed)
            if not (listed or _fixes(bloch_affine(spec), fixed, v, tol)):
                raise ValueError("direction is not a fixed point of the channel")
        return _bloch_frame_unitary(v).conj().T

    def to_json(self) -> dict:
        return {"type": "fixed_point_axis", "direction": vector_to_json(self.direction)}


@dataclass(frozen=True)
class Fourier:
    """The discrete-Fourier masker on ``dim`` symbols masks the family."""

    dim: int

    def copy_rows(self, members=(), tol: float = DECISION_TOL) -> np.ndarray:
        """Entries ``w^{kj} / sqrt(d)``, ``w = exp(2 pi i / d)``: the masker's columns are
        orthonormal and its marginals maximally mixed, so every classical channel is masked."""
        d = self.dim
        if d < 1:
            raise ValueError("dimension must be at least 1")
        return np.array([[np.exp(2j * np.pi * k * j / d) / np.sqrt(d) for j in range(d)] for k in range(d)])

    def to_json(self) -> dict:
        return {"type": "fourier", "dim": self.dim}


@dataclass(frozen=True)
class Trivial:
    """Constant or single-member family: any isometry masks it."""

    def copy_rows(self, members=(), tol: float = DECISION_TOL) -> np.ndarray:
        """``U_0^dag`` when the first member carries a gate, the identity on the output space otherwise."""
        spec = members[0]
        return spec.matrix.conj().T if isinstance(spec, _GATE_KINDS) else np.eye(channel_dims(spec)[1], dtype=complex)

    def to_json(self) -> dict:
        return {"type": "trivial"}


Certificate = Union[CommonEigenbasis, PauliAxis, FixedPointAxis, Fourier, Trivial]


# -- witnesses (which condition fails, with numbers) --------------------------


@dataclass(frozen=True)
class NoncommutingPair:
    """Relative gates at family positions ``i`` and ``j`` fail to commute."""

    i: int
    j: int
    comm_norm: float

    def to_json(self) -> dict:
        return {"type": "noncommuting_pair", "i": self.i, "j": self.j, "commutator_norm": self.comm_norm}


@dataclass(frozen=True)
class NoConstantAxis:
    """Per-axis spread (max - min) of ``p0 + p_axis`` across the family."""

    spreads: dict

    def to_json(self) -> dict:
        return {"type": "no_constant_axis", "spreads": dict(self.spreads)}


@dataclass(frozen=True)
class NonUnital:
    """Family member ``index`` displaces the Bloch-ball origin by ``shift``."""

    shift: np.ndarray
    index: int = 0

    def to_json(self) -> dict:
        return {"type": "non_unital", "shift": vector_to_json(self.shift), "member": self.index}


@dataclass(frozen=True)
class NoPureFixedPoint:
    """The Bloch matrix has no unit eigenvector with eigenvalue 1."""

    eigenvalues: np.ndarray

    def to_json(self) -> dict:
        return {"type": "no_pure_fixed_point",
                "eigenvalues": [[float(e.real), float(e.imag)] for e in self.eigenvalues]}


@dataclass(frozen=True)
class NoCommonFixedPoint:
    """Per-channel fixed directions have empty intersection."""

    per_channel: tuple

    def to_json(self) -> dict:
        return {"type": "no_common_fixed_point", "per_channel": [fixed_points_to_json(f) for f in self.per_channel]}


Witness = Union[NoncommutingPair, NoConstantAxis, NonUnital, NoPureFixedPoint, NoCommonFixedPoint]


@dataclass(frozen=True)
class MaskingDecision:
    """Verdict plus either a constructive certificate or a refusal witness."""

    maskable: bool
    certificate: Optional[Certificate] = None
    witness: Optional[Witness] = None


def _maskable(cert: Certificate) -> MaskingDecision:
    return MaskingDecision(True, certificate=cert)


def _not_maskable(wit: Witness) -> MaskingDecision:
    return MaskingDecision(False, witness=wit)


# -- JSON forms of matrices, vectors and fixed-point sets --------------------------


def matrix_to_json(m) -> list:
    """Row-major ``[re, im]`` pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def vector_to_json(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float)]


def fixed_points_to_json(fixed):
    """``None``, ``"all"`` or a list of directions, as :func:`pure_fixed_points` returns them."""
    if fixed is None:
        return None
    if fixed is ALL_DIRECTIONS:
        return "all"
    return [vector_to_json(v) for v in fixed]


# -- the copy masker ------------------------------------------------------------


def copy_masker(rows) -> Masker:
    """The masker ``|psi> -> sum_k (V^dag psi)_k |kk>`` that copies the basis ``V``.

    ``rows`` is the unitary ``V^dag``; its row ``k`` is written into masker
    row ``k*d + k``, so that ``|v_k> -> |kk>``.  Every masker of the paper
    has this form: the gate, Pauli, fixed-axis and Fourier maskers differ
    only in the basis they copy.
    """
    v_dag = as_complex_matrix(rows, "rows")
    d = v_dag.shape[0]
    m = np.zeros((d * d, v_dag.shape[1]), dtype=complex)
    m[:: d + 1] = v_dag
    return Masker(m, BipartiteDims(d, d))


# -- unitary gate families ----------------------------------------------------


def _gates(members, kinds=_GATE_KINDS) -> list[np.ndarray]:
    """The gates of a family: at least one member, each of ``kinds``, on one dimension."""
    if not members:
        raise ValueError("family must be non-empty")
    if not all(isinstance(m, kinds) for m in members):
        raise ValueError("family members must be " + " or ".join(k.__name__ for k in kinds))
    if len({m.dim for m in members}) != 1:
        raise ValueError("family members must share one dimension")
    return [m.matrix for m in members]


def _relative_gates(us: list[np.ndarray], reference_index: int) -> list[np.ndarray]:
    ref = us[reference_index].conj().T
    return [ref @ u for i, u in enumerate(us) if i != reference_index]


def _decide_gates(us: list[np.ndarray], tol: float, seed: int) -> MaskingDecision:
    if len(us) == 1:
        return _maskable(Trivial())
    ws = _relative_gates(us, 0)  # ws[k - 1] belongs to family position k
    pairs = itertools.combinations(range(1, len(us)), 2)
    norm, i, j = max(((commutator_norm(ws[a - 1], ws[b - 1]), a, b) for a, b in pairs),
                     key=lambda t: t[0], default=(0.0, 0, 0))  # the first worst pair
    if norm > tol * us[0].shape[0]:
        return _not_maskable(NoncommutingPair(i, j, norm))
    return _maskable(CommonEigenbasis(simultaneous_eigenbasis(ws, tol, seed), reference_index=0))


def decide_gate_family(members, tol: float = DECISION_TOL, seed: int = 0) -> MaskingDecision:
    """Maskability of a family of :class:`Unitary` members: the relative gates must pairwise commute.

    The gates relative to the first member, ``W_n = U_1^dag U_n``, are formed
    and every pair is tested; the worst commutator norm decides.  A positive
    verdict carries their common eigenbasis.
    """
    return _decide_gates(_gates(members, (Unitary,)), tol, seed)


# -- Pauli channel families ---------------------------------------------------


def decide_pauli_family(ps, tol: float = DECISION_TOL) -> MaskingDecision:
    """Maskability of Pauli channels: some ``p0 + p_k`` must be constant.

    For each axis the spread (max - min) of ``p0 + p_k`` over the family is
    computed; the first axis (x, y, z order) with spread within ``tol`` wins
    and the certificate records the mean value as the constant.
    """
    members = list(ps)
    if not members:
        raise ValueError("family must be non-empty")
    if not all(isinstance(p, PauliFourVector) for p in members):
        raise ValueError("family members must be Pauli four-vectors")
    if len(members) == 1:
        return _maskable(Trivial())
    table = np.array([p.probabilities for p in members])
    spreads = {}
    means = {}
    for axis, idx in zip(AXES, (1, 2, 3)):
        sums = table[:, 0] + table[:, idx]
        spreads[axis] = float(sums.max() - sums.min())
        means[axis] = float(sums.mean())
    for axis in AXES:
        if spreads[axis] <= tol:
            return _maskable(PauliAxis(axis, means[axis]))
    return _not_maskable(NoConstantAxis(spreads))


# -- qubit channels masked together with the identity -------------------------


def _require_qubit(spec: ChannelSpec) -> None:
    if not is_qubit(spec):
        raise ValueError("unsupported dimension: identity-masking decisions cover qubit channels only")


def _pick_axis(dirs) -> np.ndarray:
    # Deterministic representative: orient each direction so its last
    # non-negligible coordinate is positive, then take the (z, y, x)-largest.
    canon = _dedupe_directions([_canonical_direction(np.asarray(v, dtype=float)) for v in dirs])
    return max(canon, key=lambda w: (w[2], w[1], w[0]))


def _bloch_frame_unitary(direction: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(direction[2], -1.0, 1.0))
    phi = np.arctan2(direction[1], direction[0])
    psi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    perp = np.array([-psi[1].conj(), psi[0].conj()])
    return fix_column_phases(np.column_stack([psi, perp]))


def _fixes(aff, fixed, v: np.ndarray, tol: float) -> bool:
    """A member (Bloch map ``aff``, pure fixed points ``fixed``) fixes every direction, or ``v`` within ``tol``."""
    return fixed is ALL_DIRECTIONS or bool(np.linalg.norm(aff.matrix @ v + aff.shift - v) <= tol)


def decide_identity_family(specs, tol: float = DECISION_TOL) -> MaskingDecision:
    """Maskability of ``{identity} ∪ specs``: one masker for the qubit members and the identity.

    All members must be unital and fix a common pure state.  Candidate
    directions are collected from each member's fixed set and checked
    against every other member.  A single member that fixes no pure state
    is refused with the eigenvalues of its Bloch matrix.
    """
    members = list(specs)
    if not members:
        raise ValueError("family must be non-empty")
    for spec in members:
        _require_qubit(spec)
    affines = [bloch_affine(spec) for spec in members]
    for index, aff in enumerate(affines):
        if np.linalg.norm(aff.shift) > tol:
            return _not_maskable(NonUnital(aff.shift, index=index))
    fixed_sets = [pure_fixed_points(spec, tol) for spec in members]
    if all(f is ALL_DIRECTIONS for f in fixed_sets):
        return _maskable(FixedPointAxis(Z_AXIS.copy()))
    if len(members) == 1 and fixed_sets[0] is None:
        return _not_maskable(NoPureFixedPoint(np.sort_complex(np.linalg.eigvals(affines[0].matrix))))

    common = [v for i, f in enumerate(fixed_sets) if isinstance(f, list) for v in f
              if all(_fixes(affines[j], fixed_sets[j], v, tol) for j in range(len(members)) if j != i)]
    if common:
        return _maskable(FixedPointAxis(_pick_axis(common)))
    return _not_maskable(NoCommonFixedPoint(tuple(fixed_sets)))


# -- unitaries mixed with depolarizing noise -----------------------------------


NOISE_LEVEL_RULE = "depolarized family members must share one noise level p"


def share_noise_level(members) -> bool:
    """True iff the :class:`DepolarizedUnitary` members share one noise level ``p`` within 1e-12."""
    return max(m.p for m in members) - min(m.p for m in members) <= 1e-12


def decide_depolarized_family(members, tol: float = DECISION_TOL, seed: int = 0) -> MaskingDecision:
    """Maskability of :class:`DepolarizedUnitary` members ``rho -> p U rho U^dag + (1-p) 1/d``.

    The members must share ``p`` within 1e-12.  At ``p = 0`` every member is
    the same constant channel, so any isometry masks.  For ``p > 0`` the
    verdict and certificate are exactly those of the underlying gate family.
    """
    us = _gates(members, (DepolarizedUnitary,))
    if not share_noise_level(members):
        raise ValueError(NOISE_LEVEL_RULE)
    if members[0].p <= 0.0:
        return _maskable(Trivial())
    return _decide_gates(us, tol, seed)


# -- classical channels ---------------------------------------------------------


def decide_classical_family(channels) -> MaskingDecision:
    """Any family of classical channels is maskable by the Fourier masker."""
    members = list(channels)
    if not members:
        raise ValueError("family must be non-empty")
    if not all(isinstance(c, ClassicalChannel) for c in members):
        raise ValueError("family members must be classical channels")
    in_size, out_size = members[0].in_size, members[0].out_size
    for c in members[1:]:
        if (c.in_size, c.out_size) != (in_size, out_size):
            raise ValueError("family members must share input and output alphabets")
    return _maskable(Fourier(out_size))


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the exhaustive search for a classical (reversible) masker.

    ``first_counterexample_per_injection`` holds, for each injection in
    enumeration order, ``None`` if the injection masks the permutations or a
    ``(input, perm_i, perm_j, side)`` tuple showing where the marginal
    symbols differ.
    """

    injection_count: int
    violating_all: bool
    first_counterexample_per_injection: tuple = field(repr=False)


def classical_no_go_search(dim: int, perms) -> SearchReport:
    """Exhaustively check that no injective classical map masks the permutations.

    Every injection of the ``dim``-symbol output alphabet into the
    ``dim**2``-symbol pair alphabet is tried; an injection masks iff for
    every input symbol both pair components are independent of which
    permutation was applied.  Distinct permutations always defeat every
    injection (``violating_all`` is True).
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if dim > 4:
        raise ValueError("exhaustive search is limited to dimension <= 4")
    perm_list = [tuple(int(v) for v in p) for p in perms]
    for p in perm_list:
        if sorted(p) != list(range(dim)):
            raise ValueError(f"not a permutation of {dim} symbols: {p}")
    if not perm_list:
        raise ValueError("need at least one permutation")

    counterexamples = []
    for injection in itertools.permutations(range(dim * dim), dim):
        found = None
        for x in range(dim):
            pairs = [divmod(injection[p[x]], dim) for p in perm_list]
            for other in range(1, len(pairs)):
                if pairs[other][0] != pairs[0][0]:
                    found = (x, 0, other, "A")
                    break
                if pairs[other][1] != pairs[0][1]:
                    found = (x, 0, other, "B")
                    break
            if found:
                break
        counterexamples.append(found)
    return SearchReport(
        injection_count=len(counterexamples),
        violating_all=all(c is not None for c in counterexamples),
        first_counterexample_per_injection=tuple(counterexamples),
    )
