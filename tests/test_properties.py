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
  non-unitary, at any decision tolerance.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from channelmask.channels import (
    ALL_DIRECTIONS,
    DepolarizedUnitary,
    PauliFourVector,
    Unitary,
    amplitude_damping,
    bloch_affine,
    conjugate,
    dephasing_about,
    identity_channel,
    pure_fixed_points,
    random_classical_channel,
)
from channelmask.cli import DECISION_TOL, FamilyFile, decide_family, family_channels, synthesize_family_masker
from channelmask.linalg import random_unitary
from channelmask.masking import (
    NoCommonFixedPoint,
    NoConstantAxis,
    NoncommutingPair,
    NonUnital,
    NoPureFixedPoint,
    fixed_points_to_json,
)
from channelmask.verify import verify_masking

from helpers import random_axis, random_commuting_family, random_noncommuting_triple, rotation_mixture_channel

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
    return FamilyFile("1", kind, tuple(members), {})


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
    return FamilyFile("1", kind, tuple(members), {})


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
    return FamilyFile("1", kind, tuple(members), {})


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
    family = FamilyFile("1", "identity_family", tuple(members), {})
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
    try:
        decide_family(FamilyFile("1", "gate", tuple(members), {}), tol, 0)
    except ValueError as exc:  # near the threshold no common eigenbasis may be found (ROADMAP item 2)
        assert "is not unitary" not in str(exc)
