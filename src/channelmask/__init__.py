"""Masking of quantum channel families by broadcast isometries.

The package decides whether a family of channels can be masked (both reduced
outputs independent of the family member), synthesizes an explicit isometric
masker for every maskable class (each one copies a basis), and verifies masking
numerically by comparing the reduced-channel Choi matrices of what A sees and
what B sees, by the route the masker picks at every input dimension: a copy
masker's blocks, from the copy rows ``Masker.rows`` it finds once when it is
built, else each member alone through :func:`reduced_channel_choi`,
the Kraus-form formula for any masker (a view may hold ``2**24`` entries).
Masking next to the identity is verified as the family
``[identity_channel(d), E]``, as the CLI's identity kinds do.
"""

from .channels import (
    ALL_DIRECTIONS,
    BlochAffine,
    ChannelSpec,
    ClassicalChannel,
    DepolarizedUnitary,
    KrausChannel,
    PauliFourVector,
    Unitary,
    amplitude_damping,
    apply,
    bit_flip,
    bloch_affine,
    channel_dims,
    dephasing,
    depolarizing,
    identity_channel,
    pure_fixed_points,
    to_kraus,
)
from .linalg import (
    DECISION_TOL,
    VERIFY_TOL,
    BipartiteDims,
    commutator_norm,
    is_isometry,
    simultaneous_eigenbasis,
)
from .masking import (
    CommonEigenbasis,
    FixedPointAxis,
    Fourier,
    Masker,
    MaskingDecision,
    NoCommonBasis,
    NoCommonFixedPoint,
    NoConstantAxis,
    NonUnital,
    NoPureFixedPoint,
    NoncommutingPair,
    PauliAxis,
    SearchReport,
    Trivial,
    classical_no_go_search,
    copy_masker,
    decide_classical_family,
    decide_depolarized_family,
    decide_gate_family,
    decide_identity_family,
    decide_pauli_family,
)
from .verify import (
    VerificationReport,
    reduced_channel_choi,
    verify_masking,
)

__all__ = [
    "ALL_DIRECTIONS",
    "BipartiteDims",
    "BlochAffine",
    "ChannelSpec",
    "ClassicalChannel",
    "CommonEigenbasis",
    "DECISION_TOL",
    "DepolarizedUnitary",
    "FixedPointAxis",
    "Fourier",
    "KrausChannel",
    "Masker",
    "MaskingDecision",
    "NoCommonBasis",
    "NoCommonFixedPoint",
    "NoConstantAxis",
    "NonUnital",
    "NoPureFixedPoint",
    "NoncommutingPair",
    "PauliAxis",
    "PauliFourVector",
    "SearchReport",
    "Trivial",
    "Unitary",
    "VERIFY_TOL",
    "VerificationReport",
    "amplitude_damping",
    "apply",
    "bit_flip",
    "bloch_affine",
    "channel_dims",
    "classical_no_go_search",
    "commutator_norm",
    "copy_masker",
    "decide_classical_family",
    "decide_depolarized_family",
    "decide_gate_family",
    "decide_identity_family",
    "decide_pauli_family",
    "dephasing",
    "depolarizing",
    "identity_channel",
    "is_isometry",
    "pure_fixed_points",
    "reduced_channel_choi",
    "simultaneous_eigenbasis",
    "to_kraus",
    "verify_masking",
]
