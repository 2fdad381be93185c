"""Properties: decide, synthesize and verify agree on random families.

Random exact families of every kind go through the CLI's stages in process:
``decide_family``, ``synthesize_family_masker`` and ``verify_masking`` on
``family_channels``, at the default verification tolerance 1e-9.  The
families are built with every deciding quantity far from the decision
threshold, so the verdict is known from construction.  Both identity kinds
mean ``{identity} ∪ members``: a single-member ``identity_family`` file is the
pair ``{identity, E}``.

* a family that decides maskable gets a masker that verifies;
* a verdict does not change when the members are permuted or one is
  duplicated, nor when a gate or identity family is conjugated by one
  unitary;
* every witness of a negative verdict recomputes from the members;
* near the threshold, at any decision tolerance, a family that decides
  maskable gets a masker from its certificate;
* gates that are unitary within their 1e-10 bound are never refused as
  non-unitary, at any decision tolerance;
* the gate decider gives, byte for byte, the decision of the loop over every
  pair of relative gates, which it screens and batches;
* the gate decider gives, byte for byte, the decision it gives when its
  combination draws come from numpy's own generator;
* the screen's bound ``||[W_a, W_b]|| <= 2 (eps_a + eps_b) + 2 eps_a eps_b``
  holds, ``eps`` being the off-diagonal masses in any orthonormal basis.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from channelmask import linalg
from channelmask.channels import (
    ALL_DIRECTIONS,
    DepolarizedUnitary,
    PauliFourVector,
    SIGMA_X,
    Unitary,
    amplitude_damping,
    bloch_affine,
    identity_channel,
    pure_fixed_points,
    random_classical_channel,
)
from channelmask.cli import (
    DECISION_TOL,
    FamilyFile,
    decide_family,
    decision_to_dict,
    family_channels,
    synthesize_family_masker,
)
from channelmask.linalg import NoCommonBasisError, commutator_norm
from channelmask.masking import (
    MaskingDecision,
    NoCommonBasis,
    NoCommonFixedPoint,
    NoConstantAxis,
    NoncommutingPair,
    NonUnital,
    NoPureFixedPoint,
    fixed_points_to_json,
)
from channelmask.verify import verify_masking

from helpers import (
    conjugate,
    dephasing_about,
    pair_loop_gate_decision,
    random_axis,
    random_commuting_family,
    random_noncommuting_triple,
    random_unitary,
    rotation_mixture_channel,
)

VERIFY_TOL = 1e-9


def _gates(rng, size: int) -> tuple:
    dim = int(rng.integers(1, 7))
    return [m.matrix for m in random_commuting_family(rng, dim, size, repeated_phase=bool(rng.integers(2)))]


def _constant_axis_pauli(rng, size: int) -> list:
    # p0 + p_axis is the same for every member; the rest of the mass is split at random
    axis = int(rng.integers(1, 4))
    constant = rng.uniform(0.05, 0.95)
    members = []
    for _ in range(size):
        p = np.zeros(4)
        p[0], p[axis] = constant * rng.dirichlet([1.0, 1.0])
        p[[k for k in (1, 2, 3) if k != axis]] = (1.0 - constant) * rng.dirichlet([1.0, 1.0])
        members.append(PauliFourVector(*p))
    return members


def _fixes_axis(rng, axis):
    """A unital qubit channel that fixes the pure state on ``axis``."""
    choice = int(rng.integers(3))
    if choice == 0:
        return dephasing_about(axis, rng.uniform(0.05, 0.95))
    if choice == 1:
        return rotation_mixture_channel(rng, axis)
    return identity_channel(2)


def _family(kind: str, size: int, rng) -> FamilyFile:
    if kind == "gate":
        members = [Unitary(u) for u in _gates(rng, size)]
    elif kind == "depolarized":
        p = rng.uniform(0.05, 1.0)
        members = [DepolarizedUnitary(p, u) for u in _gates(rng, size)]
    elif kind == "pauli":
        members = _constant_axis_pauli(rng, size)
    elif kind == "identity_pair":
        members = [_fixes_axis(rng, random_axis(rng))]
    elif kind == "identity_family":
        axis = random_axis(rng)
        members = [_fixes_axis(rng, axis) for _ in range(size)]
    else:
        din, dout = (int(v) for v in rng.integers(1, 6, size=2))
        members = [random_classical_channel(din, dout, rng) for _ in range(size)]
    return FamilyFile(kind, tuple(members), {})


def _refused_qubit_channel(rng):
    """A qubit channel that is non-unital, or unital without a pure fixed state."""
    if rng.integers(2):
        return amplitude_damping(rng.uniform(0.1, 0.9))
    # every p_k >= 0.05, so no Bloch axis is left unshrunk
    spec = PauliFourVector(*(0.05 + 0.8 * rng.dirichlet(np.ones(4))))
    v = random_unitary(2, rng)
    return conjugate(spec, v.conj().T, v)


def _scattered_axes(rng, size: int) -> list:
    axes = [random_axis(rng)]
    while len(axes) < size:
        cand = random_axis(rng)
        if all(abs(float(cand @ a)) < np.cos(0.3) for a in axes):
            axes.append(cand)
    return axes


def _refused_family(kind: str, size: int, rng) -> FamilyFile:
    """A family of ``kind`` (not classical: those are always maskable) that is not maskable."""
    if kind in ("gate", "depolarized"):
        dim = int(rng.integers(2, 5))
        us = [m.matrix for m in random_noncommuting_triple(rng, dim)]
        us += [random_unitary(dim, rng) for _ in range(size - 3)]
        p = rng.uniform(0.05, 1.0)
        members = [Unitary(u) if kind == "gate" else DepolarizedUnitary(p, u) for u in us]
    elif kind == "pauli":
        members = [PauliFourVector(*(0.05 + 0.8 * rng.dirichlet(np.ones(4)))) for _ in range(max(size, 2))]
    elif kind == "identity_pair" or size == 1:
        members = [_refused_qubit_channel(rng)]
    elif rng.integers(2):
        members = [dephasing_about(axis, rng.uniform(0.05, 0.95)) for axis in _scattered_axes(rng, size)]
    else:
        axis = random_axis(rng)
        members = [_fixes_axis(rng, axis) for _ in range(size - 1)]
        members.insert(int(rng.integers(size)), amplitude_damping(rng.uniform(0.1, 0.9)))
    return FamilyFile(kind, tuple(members), {})


KIND = st.sampled_from(["gate", "depolarized", "pauli", "identity_pair", "identity_family", "classical"])


@settings(max_examples=60, deadline=None)
@given(kind=KIND, size=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_maskable_family_gets_a_masker_that_verifies(kind, size, seed):
    family = _family(kind, size, np.random.default_rng(seed))
    decision = decide_family(family, DECISION_TOL, 0)
    assert decision.maskable
    masker = synthesize_family_masker(family, decision)
    report = verify_masking(masker, family_channels(family), VERIFY_TOL)
    assert report.passed, (report.max_deviation_a, report.max_deviation_b)


def _refiled(family: FamilyFile, members: list) -> FamilyFile:
    # an identity_pair file holds one channel; with more it is an identity_family file
    kind = "identity_family" if family.kind == "identity_pair" and len(members) > 1 else family.kind
    return FamilyFile(kind, tuple(members), {})


def _conjugated(spec, v: np.ndarray):
    if isinstance(spec, Unitary):
        return Unitary(v @ spec.matrix @ v.conj().T)
    return conjugate(spec, v.conj().T, v)


@settings(max_examples=60, deadline=None)
@given(kind=KIND, size=st.integers(1, 5), maskable=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_verdict_survives_permutation_duplication_and_conjugation(kind, size, maskable, seed):
    assume(maskable or kind != "classical")
    rng = np.random.default_rng(seed)
    family = (_family if maskable else _refused_family)(kind, size, rng)
    assert decide_family(family, DECISION_TOL, 0).maskable == maskable
    members = list(family.members)
    variants = [
        [members[i] for i in rng.permutation(len(members))],
        members + [members[int(rng.integers(len(members)))]],
    ]
    if kind in ("gate", "identity_family"):
        v = random_unitary(family.members[0].dim if kind == "gate" else 2, rng)
        variants.append([_conjugated(m, v) for m in members])
    for variant in variants:
        assert decide_family(_refiled(family, variant), DECISION_TOL, 0).maskable == maskable


def _fixes(spec, v: np.ndarray) -> bool:
    aff = bloch_affine(spec)
    return bool(np.linalg.norm(aff.matrix @ v + aff.shift - v) <= DECISION_TOL)


def _check_witness(members: tuple, wit) -> None:
    """Recompute ``wit`` from the members and check that it refutes maskability."""
    tol = DECISION_TOL
    if isinstance(wit, NoncommutingPair):
        us = [m.matrix for m in members]
        rel = [us[0].conj().T @ u for u in us]
        norms = {(i, j): float(np.linalg.norm(rel[i] @ rel[j] - rel[j] @ rel[i]))
                 for i in range(1, len(us)) for j in range(i + 1, len(us))}
        assert np.isclose(norms[wit.i, wit.j], wit.comm_norm, rtol=1e-12)
        assert wit.comm_norm == max(norms.values())
        assert wit.comm_norm > tol * us[0].shape[0]
    elif isinstance(wit, NoConstantAxis):
        table = np.array([m.probabilities for m in members])
        for axis, k in zip("xyz", (1, 2, 3)):
            sums = table[:, 0] + table[:, k]
            assert np.isclose(wit.spreads[axis], sums.max() - sums.min(), rtol=1e-12, atol=1e-15)
            assert wit.spreads[axis] > tol
    elif isinstance(wit, NonUnital):
        shifts = [bloch_affine(m).shift for m in members]
        np.testing.assert_allclose(wit.shift, shifts[wit.index], atol=1e-14)
        assert np.linalg.norm(wit.shift) > tol
        assert all(np.linalg.norm(s) <= tol for s in shifts[:wit.index])
    elif isinstance(wit, NoPureFixedPoint):
        assert len(members) == 1 and pure_fixed_points(members[0], tol) is None
        eigs = np.sort_complex(np.linalg.eigvals(bloch_affine(members[0]).matrix))
        np.testing.assert_allclose(wit.eigenvalues, eigs, atol=1e-12)
        assert np.min(np.abs(eigs - 1.0)) > tol
    elif isinstance(wit, NoCommonFixedPoint):
        assert len(wit.per_channel) == len(members)
        for fixed, spec in zip(wit.per_channel, members):
            assert fixed_points_to_json(fixed) == fixed_points_to_json(pure_fixed_points(spec, tol))
        for fixed in wit.per_channel:
            if fixed is not None and fixed is not ALL_DIRECTIONS:
                assert not any(all(_fixes(m, v) for m in members) for v in fixed)
    elif isinstance(wit, NoCommonBasis):
        us = [m.matrix for m in members]
        rel = [us[0].conj().T @ u for u in us]
        bound = tol * us[0].shape[0]
        assert all(np.linalg.norm(rel[i] @ rel[j] - rel[j] @ rel[i]) <= bound
                   for i in range(1, len(us)) for j in range(i + 1, len(us)))
        assert wit.residual > bound
    else:
        raise AssertionError(f"unknown witness {wit!r}")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["gate", "depolarized", "pauli", "identity_pair", "identity_family"]),
       size=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_every_witness_recomputes_from_the_members(kind, size, seed):
    family = _refused_family(kind, size, np.random.default_rng(seed))
    decision = decide_family(family, DECISION_TOL, 0)
    assert not decision.maskable
    _check_witness(family.members, decision.witness)


def test_a_no_common_basis_witness_recomputes_from_the_members():
    # {I, diag(1, e^{i eta}), exp(i delta X)}, eta = delta = 1e-4: the one commutator, 1.4e-8, is within
    # tol * d = 2e-8, but no basis diagonalizes both relative gates within it
    eta = delta = 1e-4
    gates = [np.eye(2), np.diag([1, np.exp(1j * eta)]), np.cos(delta) * np.eye(2) + 1j * np.sin(delta) * SIGMA_X]
    family = FamilyFile("gate", tuple(Unitary(u) for u in gates), {})
    decision = decide_family(family, DECISION_TOL, 0)
    assert isinstance(decision.witness, NoCommonBasis)
    _check_witness(family.members, decision.witness)


def _nudged(rng, axis: np.ndarray, angle: float) -> np.ndarray:
    """``axis`` turned by ``angle`` toward a random perpendicular direction."""
    perp = np.cross(axis, random_axis(rng))
    perp /= np.linalg.norm(perp)
    return np.cos(angle) * axis + np.sin(angle) * perp


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 4), tol=st.sampled_from([1e-8, 1e-6, 1e-5]),
       decades=st.floats(-2.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_maskable_identity_family_near_threshold_gets_a_masker(size, tol, decades, seed):
    # member axes up to tol * 10**decades apart straddle the threshold: the
    # decider takes a direction from one member and checks the others at tol
    rng = np.random.default_rng(seed)
    axis = random_axis(rng)
    spread = tol * 10.0 ** decades
    members = [_fixes_axis(rng, _nudged(rng, axis, rng.uniform(0.0, spread))) for _ in range(size)]
    family = FamilyFile("identity_family", tuple(members), {})
    decision = decide_family(family, tol, 0)
    if decision.maskable:
        synthesize_family_masker(family, decision, tol)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(2, 5), tol=st.sampled_from([0.0, 1e-15, 1e-8, 1e-3]), scale=st.sampled_from([0.5, 1.0, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_maskable_pauli_family_near_threshold_gets_a_masker(size, tol, scale, seed):
    # p0 + p_axis varies by up to scale * tol, so the spread straddles the
    # threshold: the certificate checks it at tol as the decider does
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(1, 4))
    members = []
    for _ in range(size):
        p = np.zeros(4)
        p[0], p[axis] = (0.6 + scale * tol * rng.uniform(-0.5, 0.5)) * rng.dirichlet([1.0, 1.0])
        p[[k for k in (1, 2, 3) if k != axis]] = (1.0 - p[0] - p[axis]) * rng.dirichlet([1.0, 1.0])
        members.append(PauliFourVector(*p))
    family = FamilyFile("pauli", tuple(members), {})
    decision = decide_family(family, tol, 0)
    if decision.maskable:
        synthesize_family_masker(family, decision, tol)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), size=st.integers(2, 5), share=st.floats(0.0, 0.99),
       tol=st.sampled_from([1e-12, 1e-11, 1e-10, 1e-8, 1e-5]), seed=st.integers(0, 2**32 - 1))
def test_gates_unitary_within_their_bound_pass_the_unitarity_check_at_any_tolerance(dim, size, share, tol, seed):
    # U (1 + eps G) has Gram matrix 1 + eps (G + G^T) + O(eps^2): eps puts it
    # at share * 1e-10 from the identity
    rng = np.random.default_rng(seed)
    members = []
    for m in random_commuting_family(rng, dim, size):
        g = rng.standard_normal((dim, dim))
        members.append(Unitary(m.matrix @ (np.eye(dim) + share * 1e-10 / np.linalg.norm(g + g.T) * g)))
    decide_family(FamilyFile("gate", tuple(members), {}), tol, 0)


def _turn(rng, dim: int, angle: float) -> np.ndarray:
    """``exp(i H)`` for a random Hermitian ``H`` whose eigenvalues reach ``angle`` in modulus."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    values, vectors = np.linalg.eigh(g + g.conj().T)
    return vectors @ np.diag(np.exp(1j * angle * values / np.abs(values).max())) @ vectors.conj().T


def _gate_matrices(rng, kind: str, dim: int, size: int, copies: int) -> list:
    """``size`` commuting, degenerate (joint eigenspaces of dimension 2), nudged (commuting, each
    turned off the common eigenbasis by one angle from 1e-11 to 1e-6) or Haar gates, then
    ``copies`` repeats of members at random places, whose commutator norms tie exactly."""
    if kind == "haar":
        us = [random_unitary(dim, rng) for _ in range(size)]
    else:
        basis, left = random_unitary(dim, rng), random_unitary(dim, rng)
        angle = 10.0 ** rng.uniform(-11.0, -6.0)
        us = []
        for _ in range(size):
            phases = rng.uniform(0.0, 2 * np.pi, size=dim)
            if kind == "degenerate":
                phases = np.repeat(phases[: (dim + 1) // 2], 2)[:dim]
            us.append(left @ (basis * np.exp(1j * phases)) @ basis.conj().T)
            if kind == "nudged":
                us[-1] = us[-1] @ _turn(rng, dim, angle)
    for _ in range(copies):
        us.insert(int(rng.integers(len(us) + 1)), us[int(rng.integers(len(us)))])
    return us


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["commuting", "degenerate", "nudged", "haar"]), dim=st.integers(2, 16),
       size=st.integers(2, 37), copies=st.integers(0, 3),
       tol=st.sampled_from([DECISION_TOL, 1e-12, 1e-14, 1e-15, 1e-16]), seed=st.integers(0, 2**32 - 1))
def test_gate_decision_is_the_pair_loops_byte_for_byte(kind, dim, size, copies, tol, seed):
    family = FamilyFile("gate", tuple(Unitary(u) for u in _gate_matrices(
        np.random.default_rng(seed), kind, dim, size, copies)), {})
    try:
        expected = pair_loop_gate_decision([m.matrix for m in family.members], tol, 0)
    except NoCommonBasisError as exc:  # the loop raised where the decider refuses
        expected = MaskingDecision(False, witness=NoCommonBasis(exc.residual))
    assert json.dumps(decision_to_dict(decide_family(family, tol, 0))) == json.dumps(decision_to_dict(expected))


def _split_pair_gates(rng, dim: int, size: int) -> list:
    """Gates whose first two eigenphases are 1e-9 apart, each turned by 1e-6 inside that pair: every
    commutator is within 1e-8, but no combination's eigenbasis diagonalizes them all."""
    basis = random_unitary(dim, rng)
    us = []
    for _ in range(size):
        phases = rng.uniform(0.0, 2 * np.pi, size=dim)
        phases[1] = phases[0] + 1e-9
        turn = np.eye(dim, dtype=complex)
        turn[:2, :2] = _turn(rng, 2, 1e-6)
        us.append(basis @ (np.exp(1j * phases)[:, None] * turn) @ basis.conj().T)
    return us


def _draw_oracle_families() -> list:
    """``(family, tol)`` pairs whose decisions take from one to all eight draws: commuting families of
    2 to 32 members (the first draw passes), commuting ``d=4`` quadruples with one member turned by
    2e-5 at tol 1e-5 (the first draw often fails and a later one passes) and split-pair gates (all fail)."""
    families = []
    for k, size in enumerate((2, 7, 32)):
        members = random_commuting_family(np.random.default_rng(k), 8, size)
        families.append((FamilyFile("gate", members, {}), DECISION_TOL))
    for k in range(40):
        rng = np.random.default_rng(k)
        us = [m.matrix for m in random_commuting_family(rng, 4, 4)]
        us[3] = us[3] @ _turn(rng, 4, 2e-5)
        families.append((FamilyFile("gate", tuple(Unitary(u) for u in us), {}), 1e-5))
    us = _split_pair_gates(np.random.default_rng(0), 4, 4)
    families.append((FamilyFile("gate", tuple(Unitary(u) for u in us), {}), DECISION_TOL))
    return families


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 5, 2**70 + 3])
def test_gate_decisions_are_those_of_numpys_draws(seed, monkeypatch):
    # numpy's own generator is the oracle for the package's stream, through whole decisions
    families = _draw_oracle_families()
    own = [json.dumps(decision_to_dict(decide_family(family, tol, seed))) for family, tol in families]
    taken = []

    def numpy_draws(seed, n):
        rng = np.random.default_rng(seed)
        while True:
            taken[-1] += 1
            yield rng.uniform(-1.0, 1.0, size=(n, 2))

    monkeypatch.setattr(linalg, "_uniform_draws", numpy_draws)
    accepted = set()
    for (family, tol), expected in zip(families, own):
        taken.append(0)
        decision = decide_family(family, tol, seed)
        assert json.dumps(decision_to_dict(decision)) == expected
        if decision.maskable:
            accepted.add(taken[-1])
    assert taken[-1] == 9 and not decision.maskable  # the split pair: the screen's draw, then all 8 again fail
    assert 1 in accepted and max(accepted) >= 3, accepted  # certificates from the first and later draws


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 16), size=st.integers(2, 6), decades=st.floats(-14.0, -1.0), seed=st.integers(0, 2**32 - 1))
def test_commutators_are_bounded_by_the_off_diagonal_masses(dim, size, decades, seed):
    # commuting unitaries nudged off their common eigenbasis by up to 10**decades
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim, rng)
    ws = [basis @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim))) @ basis.conj().T
          @ _turn(rng, dim, 10.0**decades) for _ in range(size)]
    masses = []
    for w in ws:
        d = basis.conj().T @ w @ basis
        masses.append(np.linalg.norm(d - np.diag(np.diag(d))))
    for a in range(size):
        for b in range(a + 1, size):
            bound = 2 * (masses[a] + masses[b]) + 2 * masses[a] * masses[b]
            assert commutator_norm(ws[a], ws[b]) <= bound + 1e-12
