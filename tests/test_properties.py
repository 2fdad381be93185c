"""Property: a family that decides maskable gets a masker that verifies.

Random exact families of every kind go through the CLI's stages in process:
``decide_family``, ``synthesize_family_masker`` and ``verify_masking`` on
``family_channels``, at the default verification tolerance 1e-9.  The
families are built to be maskable with every deciding quantity far from the
decision threshold, so the verdict must also be positive.  Single-member
``identity_family`` files are left out: whether such a file means the member
alone or the member next to the identity is not settled yet.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from channelmask.channels import (
    DepolarizedUnitary,
    PauliFourVector,
    Unitary,
    dephasing_about,
    identity_channel,
    random_classical_channel,
)
from channelmask.cli import DECISION_TOL, FamilyFile, decide_family, family_channels, synthesize_family_masker
from channelmask.verify import verify_masking

from helpers import random_axis, random_commuting_family, rotation_mixture_channel

VERIFY_TOL = 1e-9


def _gates(rng, size: int) -> tuple:
    dim = int(rng.integers(1, 7))
    return random_commuting_family(rng, dim, size, repeated_phase=bool(rng.integers(2))).unitaries


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
        members = [_fixes_axis(rng, axis) for _ in range(max(size, 2))]
    else:
        din, dout = (int(v) for v in rng.integers(1, 6, size=2))
        members = [random_classical_channel(din, dout, rng) for _ in range(size)]
    return FamilyFile("1", kind, tuple(members), {})


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["gate", "depolarized", "pauli", "identity_pair", "identity_family", "classical"]),
    size=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_maskable_family_gets_a_masker_that_verifies(kind, size, seed):
    family = _family(kind, size, np.random.default_rng(seed))
    decision = decide_family(family, DECISION_TOL, 0)
    assert decision.maskable
    masker = synthesize_family_masker(family, decision)
    report = verify_masking(masker, family_channels(family), VERIFY_TOL)
    assert report.passed, (report.max_deviation_a, report.max_deviation_b)
