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

Which members a family kind admits is written here once, as the kind's member
rule (:func:`gate_members`, :func:`pauli_members`, :func:`qubit_members`,
:func:`depolarized_members`, :func:`classical_members`).  The deciders and
certificates call it, and the CLI refuses a file whose members break it.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional, Union

import numpy as np

from .channels import (
    ALL_DIRECTIONS,
    ClassicalChannel,
    DepolarizedUnitary,
    PauliFourVector,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Unitary,
    _canonical_direction,
    _dedupe_directions,
    _keeps,
    _pure_fixed_points,
    bloch_affine,
    channel_dims,
    is_qubit,
)
from .linalg import (
    DECISION_TOL,
    BipartiteDims,
    NoCommonBasisError,
    _canonical_basis,
    _combination_bases,
    _diagonalizes_all,
    as_complex_matrix,
    commutator_norm,
    fix_column_phases,
    is_isometry,
    record,
    simultaneous_eigenbasis,
)

AXES = ("x", "y", "z")
_AXIS_SIGMA = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

Z_AXIS = np.array([0.0, 0.0, 1.0])

# Members that carry a gate: the gate and depolarized kinds share certificates.
_GATE_KINDS = (Unitary, DepolarizedUnitary)


# -- member rules ---------------------------------------------------------------
#
# Each checks that there is a member, then each member's type, then what the
# members share; it raises ValueError and returns the members as a list.


def _members(members, family: str, types: tuple = (), shared: str = "") -> list:
    """``members`` as a list: at least one, each of ``types``, and all of one input and output dimension
    when ``shared`` says what that dimension is called."""
    members = list(members)
    if not members:
        raise ValueError(f"{family} must be non-empty")
    if types and not all(isinstance(m, types) for m in members):
        raise ValueError(f"{family} members must be " + " or ".join(t.__name__ for t in types))
    if shared and len({channel_dims(m) for m in members}) != 1:
        raise ValueError(f"{family} members must share {shared}")
    return members


def gate_members(members) -> list:
    """The gate kind's rule: :class:`Unitary` members of one dimension."""
    return _members(members, "gate family", (Unitary,), "one dimension")


def pauli_members(members) -> list:
    """The pauli kind's rule: :class:`PauliFourVector` members."""
    return _members(members, "pauli family", (PauliFourVector,))


def qubit_members(members) -> list:
    """The rule of both identity kinds: qubit channels."""
    members = _members(members, "identity family")
    if not all(is_qubit(m) for m in members):
        raise ValueError("identity family members must be qubit channels")
    return members


def depolarized_members(members) -> list:
    """The depolarized kind's rule: :class:`DepolarizedUnitary` members of one dimension and one ``p`` within 1e-12."""
    members = _members(members, "depolarized family", (DepolarizedUnitary,), "one dimension")
    if max(m.p for m in members) - min(m.p for m in members) > 1e-12:
        raise ValueError("depolarized family members must share one noise level p")
    return members


def classical_members(members) -> list:
    """The classical kind's rule: :class:`ClassicalChannel` members with one input and one output alphabet."""
    return _members(members, "classical family", (ClassicalChannel,), "input and output alphabets")


@record
class Masker:
    """Isometry from the channel output space into a bipartite space.

    ``rows`` (not a field) is the view ``matrix[::d+1]`` when the factors are ``d x d`` and every row outside it is
    exactly zero, as :func:`copy_masker` writes it, else ``None``; such a copy masker is checked as an isometry
    on its rows alone, as ``R^dag R = M^dag M``."""

    matrix: np.ndarray
    dims: BipartiteDims

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix, "masker matrix")
        if not m.shape[1]:
            raise ValueError("masker matrix has no columns")
        if m.shape[0] != self.dims.total:
            raise ValueError(
                f"masker has {m.shape[0]} rows but factor dimensions "
                f"{self.dims.dim_a} x {self.dims.dim_b}"
            )
        d = self.dims.dim_a
        rows = m[:: d + 1]
        if self.dims.dim_b != d or np.count_nonzero(m) != np.count_nonzero(rows):
            rows = None
        if not is_isometry(m if rows is None else rows, 1e-9):
            raise ValueError("masker matrix is not an isometry within 1e-9")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rows", rows)

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]


# -- certificates (which basis the masker copies) -----------------------------
#
# Every masker copies a basis: ``|v_k> -> |kk>`` (see :func:`copy_masker`).
# A certificate's ``copy_rows(members, tol)`` checks the ``members`` by their
# kind's rule and itself against them as its decider reads them, then returns
# ``V^dag``, the rows the masker copies; a gate family (with or without
# depolarizing noise) carries its gates in its members, the first the reference.


def _integer(value, what: str) -> int:
    """``value`` read with ``operator.index``: a float or a bool is refused with ``ValueError``, not truncated or
    read as 0 or 1."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


@record
class CommonEigenbasis:
    """All relative gates are diagonal in ``basis``; mask by copying it."""

    basis: np.ndarray

    def copy_rows(self, members, tol: float = DECISION_TOL) -> np.ndarray:
        """``basis^dag U_1^dag``, once the members pass their rule and ``basis`` diagonalizes each ``U_1^dag U_k``."""
        members = list(members)
        rule = depolarized_members if members and isinstance(members[0], DepolarizedUnitary) else gate_members
        us = [m.matrix for m in rule(members)]
        basis = as_complex_matrix(self.basis, "basis")
        if basis.shape != us[0].shape:
            raise ValueError("certificate basis dimension does not match the family")
        if not is_isometry(basis, 1e-8):
            raise ValueError("certificate basis is not orthonormal")
        if not _diagonalizes_all(_relative_gates(us), basis, tol):
            raise ValueError("certificate basis does not diagonalize the family")
        return basis.conj().T @ us[0].conj().T

    def to_json(self) -> dict:
        # The key is part of the certificate format, which the goldens and digests pin; the reference is the first.
        return {"type": "common_eigenbasis", "reference_index": 0, "basis": matrix_to_json(self.basis)}


@record
class PauliAxis:
    """``p0 + p_axis`` is constant (= ``constant``) across the family."""

    axis: str
    constant: float

    def copy_rows(self, members, tol: float = DECISION_TOL) -> np.ndarray:
        """Rows ``<u+|`` and ``<u-|`` from the eigenvectors of ``sigma_axis``, once ``p0 + p_axis`` over the
        ``members`` has a spread within ``tol`` and a mean within ``tol`` of ``constant``, as
        :func:`decide_pauli_family` reads and records them."""
        if self.axis not in _AXIS_SIGMA:
            raise ValueError(f"axis must be one of {AXES}")
        sums = _axis_sums(pauli_members(members))[self.axis]
        if not _spread(sums) <= tol:  # a NaN tol refuses
            raise ValueError(f"p0 + p_{self.axis} is not constant across the family")
        if not abs(self.constant - float(sums.mean())) <= tol:  # so does a NaN constant
            raise ValueError(f"p0 + p_{self.axis} is not {self.constant!r} across the family")
        vectors = fix_column_phases(np.linalg.eigh(_AXIS_SIGMA[self.axis])[1])  # eigenvalues ascend
        return vectors[:, ::-1].conj().T

    def to_json(self) -> dict:
        return {"type": "pauli_axis", "axis": self.axis, "constant": self.constant}


@record
class FixedPointAxis:
    """Every family member fixes the pure state with this Bloch direction."""

    direction: np.ndarray

    def copy_rows(self, members, tol: float = DECISION_TOL) -> np.ndarray:
        """``U^dag`` for a unitary with ``U|0>`` on ``direction``, once every member fixes it.

        A member fixes ``direction`` as in :func:`decide_identity_family`: it
        is unital within ``tol`` and keeps the direction by :func:`_keeps`.
        """
        members = qubit_members(members)
        v = np.asarray(self.direction, dtype=float)
        if v.shape != (3,) or not abs(np.linalg.norm(v) - 1.0) <= 1e-8:  # NaN is not a unit vector
            raise ValueError("direction must be a unit 3-vector")
        for spec in members:
            aff = bloch_affine(spec)
            if not _unital(aff, tol):
                raise ValueError("channel is not unital")
            if not _keeps(aff.matrix, v, tol):
                raise ValueError("direction is not a fixed point of the channel")
        return _bloch_frame_unitary(v).conj().T

    def to_json(self) -> dict:
        return {"type": "fixed_point_axis", "direction": vector_to_json(self.direction)}


@record
class Fourier:
    """The discrete-Fourier masker on ``dim`` symbols masks the family."""

    dim: int

    def copy_rows(self, members, tol: float = DECISION_TOL) -> np.ndarray:
        """Entries ``w^{kj} / sqrt(d)``, ``w = exp(2 pi i / d)``: the masker's columns are
        orthonormal and its marginals maximally mixed, so every classical channel with ``d`` output
        symbols is masked; the ``members`` must be such a family."""
        d = _integer(self.dim, "dimension")
        if d < 1:
            raise ValueError("dimension must be at least 1")
        if (out_size := classical_members(members)[0].out_size) != d:
            raise ValueError(f"the family's output alphabet has {out_size} symbols, not {d}")
        return np.array([[np.exp(2j * np.pi * k * j / d) / np.sqrt(d) for j in range(d)] for k in range(d)])

    def to_json(self) -> dict:
        return {"type": "fourier", "dim": self.dim}


@record
class Trivial:
    """Constant or single-member family: any isometry masks it."""

    def copy_rows(self, members, tol: float = DECISION_TOL) -> np.ndarray:
        """``U_0^dag`` when the first member carries a gate, the identity on the output space otherwise, once the
        ``members`` are a family the deciders certify as trivial: one member, or :class:`DepolarizedUnitary`
        members of one ``p <= 0``, one constant channel (see :func:`decide_depolarized_family`)."""
        members = _members(members, "family")
        spec = members[0]
        if len(members) > 1 and not (isinstance(spec, DepolarizedUnitary) and depolarized_members(members)[0].p <= 0.0):
            raise ValueError("a trivial family has one member, or depolarized members at p = 0")
        return spec.matrix.conj().T if isinstance(spec, _GATE_KINDS) else np.eye(channel_dims(spec)[1], dtype=complex)

    def to_json(self) -> dict:
        return {"type": "trivial"}


Certificate = Union[CommonEigenbasis, PauliAxis, FixedPointAxis, Fourier, Trivial]


# -- witnesses (which condition fails, with numbers) --------------------------


@record
class NoncommutingPair:
    """Relative gates at family positions ``i`` and ``j`` fail to commute."""

    i: int
    j: int
    comm_norm: float

    def to_json(self) -> dict:
        return {"type": "noncommuting_pair", "i": self.i, "j": self.j, "commutator_norm": self.comm_norm}


@record
class NoConstantAxis:
    """Per-axis spread (max - min) of ``p0 + p_axis`` across the family."""

    spreads: dict

    def to_json(self) -> dict:
        return {"type": "no_constant_axis", "spreads": dict(self.spreads)}


@record
class NonUnital:
    """Family member ``index`` displaces the Bloch-ball origin by ``shift``."""

    shift: np.ndarray
    index: int

    def to_json(self) -> dict:
        return {"type": "non_unital", "shift": vector_to_json(self.shift), "member": self.index}


@record
class NoPureFixedPoint:
    """The one member fixes no pure state: no kernel direction of ``A - 1`` (singular value within
    ``tol``) is kept by :func:`_keeps`.  ``eigenvalues`` are those of the Bloch matrix ``A``."""

    eigenvalues: np.ndarray

    def to_json(self) -> dict:
        return {"type": "no_pure_fixed_point",
                "eigenvalues": [[float(e.real), float(e.imag)] for e in self.eigenvalues]}


@record
class NoCommonFixedPoint:
    """Per-channel fixed directions have empty intersection."""

    per_channel: tuple

    def to_json(self) -> dict:
        return {"type": "no_common_fixed_point", "per_channel": [fixed_points_to_json(f) for f in self.per_channel]}


@record
class NoCommonBasis:
    """The relative gates pairwise commute within tolerance, yet no basis diagonalizes them all:
    ``residual`` is the largest off-diagonal mass left by eigenspace refinement."""

    residual: float

    def to_json(self) -> dict:
        return {"type": "no_common_basis", "residual": self.residual}


Witness = Union[NoncommutingPair, NoConstantAxis, NonUnital, NoPureFixedPoint, NoCommonFixedPoint, NoCommonBasis]


@record
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


def _relative_gates(us: list[np.ndarray]) -> np.ndarray:
    return us[0].conj().T @ np.array(us)[1:]  # np.array(us[1:]) would be 1-d for one member


def _decide_gates(us: list[np.ndarray], tol: float, seed: int) -> MaskingDecision:
    if len(us) == 1:
        return _maskable(Trivial())
    # ws[k - 1] belongs to family position k.  Every member was built unitary within 1e-10, so each relative
    # gate is within about 2e-10 and the screen needs no check; a fallback re-checks them against 1e-9.
    ws = _relative_gates(us)
    bound = tol * us[0].shape[0]
    # A pair over the bound fails the screen too, so its draw is not spent.
    if len(ws) == 1 or np.linalg.norm(ws[0] @ ws[1] - ws[1] @ ws[0]) <= bound:
        first, masses = next(_combination_bases(ws, seed))
        eps = masses.max()
        if 4 * eps + 2 * eps * eps <= bound:  # ||[W_a, W_b]|| <= 2 (eps_a + eps_b) + 2 eps_a eps_b <= bound
            return _maskable(CommonEigenbasis(_canonical_basis(ws, first)))
    # Commutator norms one row of pairs at a time, never an (n, n, d, d) array;
    # the pairs within 1e-9 of the worst are recomputed by commutator_norm, so
    # the first worst pair and its norm are the pair loop's to the bit.
    norms = np.concatenate([np.linalg.norm(w @ ws[a + 1:] - ws[a + 1:] @ w, axis=(1, 2)) for a, w in enumerate(ws)])
    pairs = list(itertools.combinations(range(1, len(us)), 2))
    near = (pairs[k] for k in np.flatnonzero(norms >= (1 - 1e-9) * norms.max(initial=0.0)))
    norm, i, j = max(((commutator_norm(ws[a - 1], ws[b - 1]), a, b) for a, b in near),
                     key=lambda t: t[0], default=(0.0, 0, 0))
    if pairs and not norm <= bound:  # a NaN tol refuses too; one relative gate has no pair to refuse
        return _not_maskable(NoncommutingPair(i, j, norm))
    try:
        return _maskable(CommonEigenbasis(simultaneous_eigenbasis(ws, tol, seed)))
    except NoCommonBasisError as exc:
        return _not_maskable(NoCommonBasis(exc.residual))


def decide_gate_family(members, tol: float = DECISION_TOL, seed: int = 0) -> MaskingDecision:
    """Maskability of a family of :class:`Unitary` members: the relative gates must pairwise commute.

    The gates relative to the first member, ``W_n = U_1^dag U_n``, are
    screened with the first draw of :func:`simultaneous_eigenbasis`: if it
    leaves off-diagonal masses ``eps`` with ``4 eps + 2 eps^2 <= tol * d``,
    every commutator passes and that draw is the certificate (a family whose
    first two relative gates fail skips the draw).  Otherwise the first worst
    commutator norm decides; a family whose pairs pass with no
    common eigenbasis within tolerance is refused with the residual.
    """
    return _decide_gates([m.matrix for m in gate_members(members)], tol, seed)


# -- Pauli channel families ---------------------------------------------------


def _axis_sums(members: list) -> dict:
    """``p0 + p_axis`` of each member, for each axis."""
    table = np.array([p.probabilities for p in members])
    return {axis: table[:, 0] + table[:, idx] for axis, idx in zip(AXES, (1, 2, 3))}


def _spread(sums: np.ndarray) -> float:
    return float(sums.max() - sums.min())


def decide_pauli_family(ps, tol: float = DECISION_TOL) -> MaskingDecision:
    """Maskability of Pauli channels: some ``p0 + p_k`` must be constant.

    For each axis the spread (max - min) of ``p0 + p_k`` over the family is
    computed; the first axis (x, y, z order) with spread within ``tol`` wins
    and the certificate records the mean value as the constant.
    """
    members = pauli_members(ps)
    if len(members) == 1:
        return _maskable(Trivial())
    sums = _axis_sums(members)
    spreads = {axis: _spread(sums[axis]) for axis in AXES}
    for axis in AXES:
        if spreads[axis] <= tol:
            return _maskable(PauliAxis(axis, float(sums[axis].mean())))
    return _not_maskable(NoConstantAxis(spreads))


# -- qubit channels masked together with the identity -------------------------


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


def _unital(aff, tol: float) -> bool:
    """The identity kinds' unitality rule: the shift ``b`` of the Bloch map ``n -> A n + b`` is within ``tol``."""
    return bool(np.linalg.norm(aff.shift) <= tol)


def decide_identity_family(specs, tol: float = DECISION_TOL) -> MaskingDecision:
    """Maskability of ``{identity} ∪ specs``: one masker for the qubit members and the identity.

    All members must be unital and fix a common pure state.  Candidate
    directions are collected from each member's fixed set, and one is
    common when every member keeps it by :func:`_keeps`, the rule
    :class:`FixedPointAxis` checks, so a maskable family's copy masker
    verifies within ``2 sqrt(2) tol``.  A single member that fixes no pure
    state is refused with the eigenvalues of its Bloch matrix.
    """
    members = qubit_members(specs)
    affines = [bloch_affine(spec) for spec in members]
    for index, aff in enumerate(affines):
        if not _unital(aff, tol):
            return _not_maskable(NonUnital(aff.shift, index=index))
    fixed_sets = [_pure_fixed_points(aff, tol) for aff in affines]
    if all(f is ALL_DIRECTIONS for f in fixed_sets):
        return _maskable(FixedPointAxis(Z_AXIS.copy()))
    if len(members) == 1 and fixed_sets[0] is None:
        return _not_maskable(NoPureFixedPoint(np.sort_complex(np.linalg.eigvals(affines[0].matrix))))

    common = [v for f in fixed_sets if isinstance(f, list) for v in f
              if all(_keeps(aff.matrix, v, tol) for aff in affines)]
    if common:
        return _maskable(FixedPointAxis(_pick_axis(common)))
    return _not_maskable(NoCommonFixedPoint(tuple(fixed_sets)))


# -- unitaries mixed with depolarizing noise -----------------------------------


def decide_depolarized_family(members, tol: float = DECISION_TOL, seed: int = 0) -> MaskingDecision:
    """Maskability of :class:`DepolarizedUnitary` members ``rho -> p U rho U^dag + (1-p) 1/d``.

    The members must share ``p`` within 1e-12.  At ``p = 0`` every member is
    the same constant channel, so any isometry masks.  For ``p > 0`` the
    verdict and certificate are exactly those of the underlying gate family.
    """
    members = depolarized_members(members)
    if members[0].p <= 0.0:
        return _maskable(Trivial())
    return _decide_gates([m.matrix for m in members], tol, seed)


# -- classical channels ---------------------------------------------------------


def decide_classical_family(channels) -> MaskingDecision:
    """Any family of classical channels is maskable by the Fourier masker."""
    return _maskable(Fourier(classical_members(channels)[0].out_size))


@record
class SearchReport:
    """Outcome of the exhaustive search for a classical (reversible) masker:
    how many injections were tried, and whether every one of them leaks."""

    injection_count: int
    violating_all: bool


def _injections(dim: int) -> np.ndarray:
    """Every injection of ``dim`` symbols into ``dim**2``, as the columns of a
    ``(dim, P(dim**2, dim))`` array in ``itertools.permutations`` order."""
    maps = np.indices((dim * dim,) * dim, dtype=np.uint8).reshape(dim, -1)
    injective = np.ones(maps.shape[1], dtype=bool)
    for i, j in itertools.combinations(range(dim), 2):
        injective &= maps[i] != maps[j]
    return maps[:, injective]


def _permutation(p, dim: int) -> tuple:
    """``p`` as a tuple of ints if it permutes ``range(dim)``; a non-integer entry is refused by :func:`_integer`."""
    p = tuple(p)
    try:
        p = tuple(_integer(v, "entry") for v in p)
    except ValueError:
        raise ValueError(f"not a permutation of {dim} symbols: {p}") from None
    if sorted(p) != list(range(dim)):
        raise ValueError(f"not a permutation of {dim} symbols: {p}")
    return p


def classical_no_go_search(dim: int, perms) -> SearchReport:
    """Exhaustively check that no injective classical map masks the permutations.

    Every injection of the ``dim``-symbol output alphabet into the
    ``dim**2``-symbol pair alphabet is tried, all at once as arrays; an
    injection masks iff for every input symbol both pair components are
    independent of which permutation was applied.  Distinct permutations
    always defeat every injection (``violating_all`` is True).
    """
    dim = _integer(dim, "dimension")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if dim > 4:
        raise ValueError("exhaustive search is limited to dimension <= 4")
    perm_list = [_permutation(p, dim) for p in perms]
    if not perm_list:
        raise ValueError("need at least one permutation")

    injections = _injections(dim)
    first, *others = dict.fromkeys(perm_list)
    a0, b0 = np.divmod(injections[list(first)], dim)
    leaks = np.zeros(injections.shape[1], dtype=bool)
    for p in others:
        a, b = np.divmod(injections[list(p)], dim)
        leaks |= ((a != a0) | (b != b0)).any(axis=0)
    return SearchReport(injection_count=injections.shape[1], violating_all=bool(leaks.all()))
