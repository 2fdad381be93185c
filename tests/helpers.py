"""Shared random-instance generators, channel constructors, reference oracles and the paper's lemma checks
(local orthogonality, state masking) for the test suite."""

import itertools

import numpy as np

from channelmask.channels import (
    ALL_DIRECTIONS,
    PAULIS,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochAffine,
    ChannelSpec,
    ClassicalChannel,
    DepolarizedUnitary,
    KrausChannel,
    PauliFourVector,
    Unitary,
    _canonical_direction,
    _check_unitary,
    _dedupe_directions,
    apply,
    channel_dims,
    is_qubit,
    to_kraus,
)
from channelmask.linalg import (
    _PHASE_FLOOR,
    DECISION_TOL,
    PHASE_GAP,
    VERIFY_TOL,
    commutator_norm,
    partial_trace,
    simultaneous_eigenbasis,
)
from channelmask.masking import CommonEigenbasis, Masker, MaskingDecision, NoncommutingPair, SearchReport, Trivial
from channelmask.verify import VerificationReport, _report


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


def random_axis(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def conjugate(spec: ChannelSpec, pre, post) -> KrausChannel:
    """The channel ``rho -> post E(pre rho pre^dag) post^dag`` in Kraus form."""
    din, dout = channel_dims(spec)
    pre_m = _check_unitary(pre, "pre")
    post_m = _check_unitary(post, "post")
    if pre_m.shape[0] != din:
        raise ValueError(f"pre-unitary dimension {pre_m.shape[0]} does not match channel input {din}")
    if post_m.shape[0] != dout:
        raise ValueError(f"post-unitary dimension {post_m.shape[0]} does not match channel output {dout}")
    kc = to_kraus(spec)
    return KrausChannel(tuple(post_m @ k @ pre_m for k in kc.kraus_ops))


def axis_operator(axis) -> np.ndarray:
    """The Hermitian unitary ``n . sigma`` for a unit 3-vector ``n``."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError("axis must be a unit 3-vector")
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def rotation_about(axis, angle: float) -> np.ndarray:
    """Qubit rotation ``exp(-i angle (n . sigma) / 2)`` about a unit axis."""
    return np.cos(angle / 2) * SIGMA_0 - 1j * np.sin(angle / 2) * axis_operator(axis)


def dephasing_about(axis, p: float) -> KrausChannel:
    """Dephasing of strength ``p`` along an arbitrary Bloch axis."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return KrausChannel((np.sqrt(1.0 - p) * SIGMA_0, np.sqrt(p) * axis_operator(axis)))


def generalized_amplitude_damping(q: float, gamma: float) -> KrausChannel:
    """Decay of strength ``gamma`` toward ``|0>`` with probability ``q``, and toward ``|1>`` otherwise."""
    damp, keep = np.sqrt(gamma), np.sqrt(1.0 - gamma)
    return KrausChannel((np.sqrt(q) * np.array([[1.0, 0.0], [0.0, keep]]),
                         np.sqrt(q) * np.array([[0.0, damp], [0.0, 0.0]]),
                         np.sqrt(1.0 - q) * np.array([[keep, 0.0], [0.0, 1.0]]),
                         np.sqrt(1.0 - q) * np.array([[0.0, 0.0], [damp, 0.0]])))


def choi(spec: ChannelSpec) -> np.ndarray:
    """Choi matrix ``sum_ij |i><j| (x) E(|i><j|)`` (channel on the second factor).

    The defining entangled operator is unnormalized, so the partial trace of
    the result over the output factor equals the identity on the input space.
    Entry ``[(i, x), (j, y)]`` is ``E(|i><j|)[x, y]``; for Kraus operators
    ``K_k`` that is ``sum_k K_k[x, i] conj(K_k[y, j])``, one matrix product
    over the stacked operators.
    """
    din, dout = channel_dims(spec)
    if isinstance(spec, ClassicalChannel):
        # E(|i><j|) = delta_ij diag(p(.|i)): the Choi matrix is diagonal.
        return np.diag(spec.probs.T.reshape(-1).astype(complex))
    if isinstance(spec, DepolarizedUnitary):
        vec = spec.matrix.T.reshape(-1)
        return spec.p * np.outer(vec, vec.conj()) + (1.0 - spec.p) / dout * np.eye(din * dout)
    vecs = np.stack([k.T.reshape(-1) for k in to_kraus(spec).kraus_ops])
    return vecs.T @ vecs.conj()


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


def holding(masker: Masker, matrix: np.ndarray) -> Masker:
    """``masker`` with its read-only array replaced by ``matrix``, and its copy rows by ``matrix``'s where it has
    them, past the constructor's checks: how the writer and ``verify`` meet entries that no Masker would hold."""
    object.__setattr__(masker, "matrix", matrix)
    if masker.rows is not None:
        object.__setattr__(masker, "rows", matrix[:: masker.dims.dim_a + 1])
    return masker


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


def loop_reduced_channel_choi(masker: Masker, spec) -> tuple:
    """Oracle for ``reduced_channel_choi`` on small maskers: one basis operator at a time through ``apply``,
    the masker and two 2-d ``partial_trace`` calls, as the definition reads.

    Returns ``(seen_by_a, seen_by_b)``.
    """
    din, _ = channel_dims(spec)
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


def loop_max_pairwise(views) -> tuple:
    """Oracle for ``verify._max_pairwise``: the worst ``np.linalg.norm`` of a pairwise difference, and its
    first pair ``(i, j)``, ``i < j``; ``(0.0, (0, 0))`` when no pair differs.  A NaN is worse than any number,
    so the first NaN and its pair are returned."""
    worst, pair = 0.0, (0, 0)
    for i, j in itertools.combinations(range(len(views)), 2):
        dev = float(np.linalg.norm(views[i] - views[j]))
        if np.isnan(dev):
            return dev, (i, j)
        if dev > worst:
            worst, pair = dev, (i, j)
    return worst, pair


def cluster_phases(phases) -> list[np.ndarray]:
    """Group angles on the unit circle into clusters separated by more than ``PHASE_GAP``.

    Returns index arrays into ``phases``.  The wrap-around at +/- pi is
    honoured, so noisy copies of the same eigenvalue land in one cluster.
    """
    ph = np.asarray(phases, dtype=float)
    n = ph.size
    if n == 0:
        return []
    order = np.argsort(ph, kind="stable")
    s = ph[order]
    breaks = np.flatnonzero(np.diff(s) > PHASE_GAP)
    bounds = np.concatenate(([0], breaks + 1, [n]))
    clusters = [order[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]
    if len(clusters) > 1 and (s[0] + 2 * np.pi - s[-1]) <= PHASE_GAP:
        clusters[0] = np.concatenate((clusters[-1], clusters[0]))
        clusters.pop()
    return clusters


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
    return _report(*zip(*(_marginals(masker, k) for k in kets)), tol)


def _marginals(masker: Masker, ket: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The states A and B hold once the masker has taken the pure state ``ket``."""
    masked = masker.matrix @ ket
    state = np.outer(masked, masked.conj())
    return partial_trace(state, masker.dims, "B"), partial_trace(state, masker.dims, "A")


def choi_reduced_chois(masker: Masker, spec) -> tuple:
    """Oracle for ``reduced_channel_choi``: ``choi(spec)`` contracted with the masker, with no ``W W^dag``,
    ``apply`` or ``partial_trace``.

    With ``C[i, z, j, w] = E(|i><j|)[z, w]`` and the masker's rows as
    ``m[x, y, z]`` (``x`` on A, ``y`` on B), A sees
    ``sum_{y, z, w} m[x, y, z] conj(m[x', y, w]) C[i, z, j, w]`` and B the
    same with the roles of ``x`` and ``y`` swapped.  The masker is contracted
    with itself first, so no array is larger than the views or
    ``(max(dA, dB) * dout)**2`` entries.  Returns ``(seen_by_a, seen_by_b)``.
    """
    din, dout = channel_dims(spec)
    da, db = masker.dims.dim_a, masker.dims.dim_b
    c = choi(spec).reshape(din, dout, din, dout)
    m = masker.matrix.reshape(da, db, dout)
    path = ["einsum_path", (0, 1), (0, 1)]
    seen_by_a = np.einsum("xyz,uyw,izjw->ixju", m, m.conj(), c, optimize=path)
    seen_by_b = np.einsum("xyz,xuw,izjw->iyju", m, m.conj(), c, optimize=path)
    return seen_by_a.reshape(din * da, din * da), seen_by_b.reshape(din * db, din * db)


def pair_loop_gate_decision(us: list, tol: float, seed: int) -> MaskingDecision:
    """Oracle for ``masking._decide_gates``: every pairwise commutator of the relative gates, one by one.

    The first worst pair (in ``itertools.combinations`` order) refuses when
    its norm exceeds ``tol * d``; otherwise the certificate is
    ``simultaneous_eigenbasis`` of the relative gates.
    """
    if len(us) == 1:
        return MaskingDecision(True, certificate=Trivial())
    ws = [us[0].conj().T @ u for u in us[1:]]  # ws[k - 1] belongs to family position k
    pairs = itertools.combinations(range(1, len(us)), 2)
    norm, i, j = max(((commutator_norm(ws[a - 1], ws[b - 1]), a, b) for a, b in pairs),
                     key=lambda t: t[0], default=(0.0, 0, 0))
    if norm > tol * us[0].shape[0]:
        return MaskingDecision(False, witness=NoncommutingPair(i, j, norm))
    return MaskingDecision(True, certificate=CommonEigenbasis(simultaneous_eigenbasis(ws, tol, seed)))


def loop_hermitian_combination(ws, coefficients) -> np.ndarray:
    """Oracle for ``linalg._hermitian_combination``: one relative gate at a time, added to zeros."""
    h = np.zeros(ws.shape[1:], dtype=complex)
    for w, (alpha, beta) in zip(ws, coefficients):
        h += alpha * (w + w.conj().T) + beta * 1j * (w - w.conj().T)
    return h


def loop_fix_column_phases(m) -> np.ndarray:
    """Oracle for ``linalg.fix_column_phases``: one column at a time, the pivot's modulus by ``abs``."""
    out = np.array(m, dtype=complex, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > _PHASE_FLOOR)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def loop_canonical_basis(ws, basis: np.ndarray) -> np.ndarray:
    """Oracle for ``linalg._canonical_basis``: one relative gate, one ``cluster_phases``
    and one ``np.mean`` per eigenphase cluster at a time."""
    dim = basis.shape[1]
    keys = np.zeros((len(ws), dim), dtype=np.intp)
    for row, w in enumerate(ws):
        diag = np.einsum("ji,jk,ki->i", basis.conj(), w, basis)
        phases = np.angle(diag)
        clusters = cluster_phases(phases)
        reps = [float(np.angle(np.mean(np.exp(1j * phases[idx])))) for idx in clusters]
        for ordinal, c in enumerate(np.argsort(reps, kind="stable")):
            keys[row, clusters[c]] = ordinal
    return loop_fix_column_phases(basis[:, np.lexsort(keys[::-1])])


def loop_refine_subspaces(ws, cols: np.ndarray) -> np.ndarray:
    """Oracle for ``linalg._refine_subspaces``: one relative gate at a time, its block's Hermitian and
    then anti-Hermitian eigenvalues split by ``cluster_phases``, the pieces gathered in a list."""
    if not len(ws):
        return cols
    block = cols.conj().T @ ws[0] @ cols
    cos, vectors = np.linalg.eigh((block + block.conj().T) / 2)
    pieces = []
    for idx in cluster_phases(cos):
        sub = vectors[:, idx]
        sin, inner = np.linalg.eigh(sub.conj().T @ ((block - block.conj().T) / 2j) @ sub)
        for jdx in cluster_phases(sin):
            pieces.append(loop_refine_subspaces(ws[1:], cols @ (sub @ inner[:, jdx])))
    return np.hstack(pieces)


def loop_to_kraus(spec: ChannelSpec) -> KrausChannel:
    """Oracle for ``channels.to_kraus``: Pauli, classical and depolarized Kraus operators built one at a time."""
    if isinstance(spec, PauliFourVector):
        return KrausChannel(tuple(np.sqrt(p) * sigma for p, sigma in zip(spec.probabilities, PAULIS) if p > 0.0))
    if isinstance(spec, ClassicalChannel):
        ops = []
        for y in range(spec.out_size):
            for x in range(spec.in_size):
                p = spec.probs[y, x]
                if p > 0.0:
                    k = np.zeros((spec.out_size, spec.in_size), dtype=complex)
                    k[y, x] = np.sqrt(p)
                    ops.append(k)
        return KrausChannel(tuple(ops))
    if isinstance(spec, DepolarizedUnitary):
        d = spec.dim
        ops = []
        if spec.p > 0.0:
            ops.append(np.sqrt(spec.p) * spec.matrix)
        if spec.p < 1.0:
            scale = np.sqrt((1.0 - spec.p) / d)
            for i in range(d):
                for j in range(d):
                    k = np.zeros((d, d), dtype=complex)
                    k[i, j] = scale
                    ops.append(k)
        return KrausChannel(tuple(ops))
    return to_kraus(spec)


def loop_bloch_affine(spec: ChannelSpec) -> BlochAffine:
    """Oracle for ``channels.bloch_affine``: one ``apply`` per Pauli operator and one 2-d trace per entry."""
    if not is_qubit(spec):
        raise ValueError("Bloch representation requires a qubit channel")
    sigmas = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    a = np.empty((3, 3), dtype=complex)
    b = np.empty(3, dtype=complex)
    image_id = apply(spec, SIGMA_0)
    for i, si in enumerate(sigmas):
        b[i] = 0.5 * np.trace(si @ image_id)
    for j, sj in enumerate(sigmas):
        image = apply(spec, sj)
        for i, si in enumerate(sigmas):
            a[i, j] = 0.5 * np.trace(si @ image)
    residue = max(np.abs(a.imag).max(), np.abs(b.imag).max())
    if residue > 1e-10:
        raise ValueError(f"Bloch action has imaginary residue {residue}; channel is not Hermiticity preserving")
    return BlochAffine(a.real.copy(), b.real.copy())


def loop_pure_fixed_points(spec: ChannelSpec, tol: float = DECISION_TOL):
    """Oracle for ``channels.pure_fixed_points``: :func:`loop_bloch_affine`, then one state and one ``apply``
    per candidate direction."""
    aff = loop_bloch_affine(spec)
    a, b = aff.matrix, aff.shift
    eye3 = np.eye(3)
    if np.linalg.norm(a - eye3) <= tol and np.linalg.norm(b) <= tol:
        return ALL_DIRECTIONS
    shifted = a - eye3
    _, svals, vt = np.linalg.svd(shifted)
    kernel = [vt[i] for i in range(3) if svals[i] <= tol]
    candidates = []
    if np.linalg.norm(b) <= tol:
        for v in kernel:
            # kept when both A and A^T move it by at most tol
            if np.linalg.norm(a @ v - v) <= tol and np.linalg.norm(a.T @ v - v) <= tol:
                c = _canonical_direction(v)
                candidates.extend([c, -c])
    else:
        x, *_ = np.linalg.lstsq(shifted, -b, rcond=None)
        if np.linalg.norm(shifted @ x + b) <= tol:
            norm_x = np.linalg.norm(x)
            if abs(norm_x - 1.0) <= tol:
                candidates.append(x / norm_x)
    fixed = []
    for v in candidates:
        v = v / np.linalg.norm(v)
        rho = 0.5 * (SIGMA_0 + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
        if np.linalg.norm(apply(spec, rho) - rho) <= 10 * tol:
            fixed.append(v)
    fixed = _dedupe_directions(fixed)
    return fixed if fixed else None


def loop_classical_no_go_search(dim: int, perms) -> tuple:
    """Oracle for ``masking.classical_no_go_search``: one injection at a time from ``itertools.permutations``.

    Returns the report and, for each injection in that order, ``None`` if it masks the permutations or
    the first ``(input, perm_i, perm_j, side)`` where the marginal symbols differ."""
    counterexamples = []
    for injection in itertools.permutations(range(dim * dim), dim):
        found = None
        for x in range(dim):
            pairs = [divmod(injection[p[x]], dim) for p in perms]
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
    report = SearchReport(len(counterexamples), all(c is not None for c in counterexamples))
    return report, tuple(counterexamples)
