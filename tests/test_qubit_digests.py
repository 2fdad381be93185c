"""Qubit decisions and Bloch reports keep their bytes: SHA-256 digests of what the Bloch path prints.

Seeded ``pauli``, ``identity_pair`` and ``identity_family`` families, with
members of all five channel kinds, are decided with the CLI's defaults; the
digest covers ``json.dumps(decision_to_dict(decision))`` and, for a maskable
family, the bytes of the synthesized masker.  Between them the families
give every certificate and witness of these kinds (``trivial``,
``pauli_axis``, ``no_constant_axis``, ``fixed_point_axis``, ``non_unital``,
``no_pure_fixed_point``, ``no_common_fixed_point``).  ``bloch --json`` is
digested, with its exit code, for every file in ``samples/`` and for
generated qubit channels of every kind.  A change that moves one bit of a
Bloch map or a pure fixed point fails here.

To re-record after a deliberate change of format, print ``decision_digest(name)``
for every name in ``FAMILIES`` and ``bloch_digest(name, tmp_path)`` for every
name in ``CHANNELS``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from channelmask import cli
from channelmask.channels import (
    ClassicalChannel,
    DepolarizedUnitary,
    KrausChannel,
    PauliFourVector,
    Unitary,
    amplitude_damping,
    dephasing,
    depolarizing,
    identity_channel,
)
from channelmask.cli import DECISION_TOL, FamilyFile, decide_family, decision_to_dict, synthesize_family_masker

from helpers import dephasing_about, random_axis, random_kraus_channel, random_unitary, rotation_about

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
Z = np.array([0.0, 0.0, 1.0])


def _family(kind: str, *members) -> FamilyFile:
    return FamilyFile(kind, members, {})


def _pauli_axis_x(seed: int) -> FamilyFile:
    """Members with ``p0 + px = 0.6``."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(4):
        p0 = 0.6 * rng.uniform()
        py = 0.4 * rng.uniform()
        members.append(PauliFourVector(p0, 0.6 - p0, py, 0.4 - py))
    return _family("pauli", *members)


def _pauli_random(seed: int, size: int) -> FamilyFile:
    rng = np.random.default_rng(seed)
    return _family("pauli", *(PauliFourVector(*rng.dirichlet(np.ones(4))) for _ in range(size)))


def _rotation(seed: int) -> Unitary:
    rng = np.random.default_rng(seed)
    return Unitary(rotation_about(random_axis(rng), rng.uniform(0.1, 3.0)))


def _tilted_dephasing(seed: int, p: float) -> KrausChannel:
    return dephasing_about(random_axis(np.random.default_rng(seed)), p)


def _common_axis_mixtures(seed: int, size: int) -> FamilyFile:
    """Mixtures of rotations about one random axis: unital, all fix that axis."""
    rng = np.random.default_rng(seed)
    axis = random_axis(rng)
    members = []
    for _ in range(size):
        weights = rng.dirichlet(np.ones(3))
        members.append(KrausChannel(tuple(np.sqrt(w) * rotation_about(axis, rng.uniform(0.0, 2 * np.pi))
                                          for w in weights)))
    return _family("identity_family", *members)


def _z_phase(angle: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * angle)])


FAMILIES = {
    "pauli trivial": lambda: _family("pauli", PauliFourVector(0.7, 0.3, 0.0, 0.0)),
    "pauli axis x": lambda: _pauli_axis_x(11),
    "pauli axis z with zero p": lambda: _family("pauli", PauliFourVector(0.6, 0.4, 0.0, 0.0),
                                                PauliFourVector(0.1, 0.0, 0.4, 0.5)),
    "pauli unit p": lambda: _family("pauli", PauliFourVector(1.0, 0.0, 0.0, 0.0), PauliFourVector(0.0, 1.0, 0.0, 0.0)),
    "pauli no constant axis n3": lambda: _pauli_random(12, 3),
    "pauli no constant axis n8": lambda: _pauli_random(13, 8),
    "pair identity": lambda: _family("identity_pair", identity_channel(2)),
    "pair rotation": lambda: _family("identity_pair", _rotation(21)),
    "pair tilted dephasing": lambda: _family("identity_pair", _tilted_dephasing(22, 0.35)),
    "pair tiny dephasing": lambda: _family("identity_pair", dephasing(1e-9)),
    "pair pauli with zero p": lambda: _family("identity_pair", PauliFourVector(0.6, 0.0, 0.0, 0.4)),
    "pair amplitude damping": lambda: _family("identity_pair", amplitude_damping(0.3)),
    "pair depolarizing": lambda: _family("identity_pair", depolarizing(0.4)),
    "pair random kraus": lambda: _family("identity_pair", random_kraus_channel(np.random.default_rng(23), 2, 2, 3)),
    "pair depolarized p 0.37": lambda: _family("identity_pair",
                                               DepolarizedUnitary(0.37, random_unitary(2, np.random.default_rng(24)))),
    "pair depolarized p 1": lambda: _family("identity_pair",
                                            DepolarizedUnitary(1.0, random_unitary(2, np.random.default_rng(25)))),
    "pair classical identity": lambda: _family("identity_pair", ClassicalChannel(np.eye(2))),
    "pair classical flip": lambda: _family("identity_pair", ClassicalChannel(np.eye(2)[::-1])),
    "pair classical noisy": lambda: _family("identity_pair", ClassicalChannel([[0.9, 0.2], [0.1, 0.8]])),
    "family all identity": lambda: _family("identity_family", identity_channel(2), Unitary(np.eye(2)),
                                           PauliFourVector(1.0, 0.0, 0.0, 0.0)),
    "family common axis n2": lambda: _common_axis_mixtures(31, 2),
    "family common axis n5": lambda: _common_axis_mixtures(32, 5),
    "family five kinds fixing z": lambda: _family(
        "identity_family", Unitary(_z_phase(0.8)), dephasing(0.2), dephasing_about(Z, 0.45),
        ClassicalChannel(np.eye(2)), DepolarizedUnitary(1.0, _z_phase(-1.3))),
    "family no common axis": lambda: _family("identity_family", _tilted_dephasing(33, 0.3),
                                             _tilted_dephasing(34, 0.6)),
    "family rotations": lambda: _family("identity_family", _rotation(35), _rotation(36), _rotation(37)),
    "family with a depolarizing member": lambda: _family("identity_family", dephasing(0.3), depolarizing(0.5)),
    "family non unital second": lambda: _family("identity_family", dephasing(0.3), amplitude_damping(0.3)),
}


def decision_digest(name: str) -> str:
    family = FAMILIES[name]()
    decision = decide_family(family, DECISION_TOL, 0)
    data = json.dumps(decision_to_dict(decision)).encode()
    if decision.maskable:
        data += synthesize_family_masker(family, decision, DECISION_TOL).matrix.tobytes()
    return hashlib.sha256(data).hexdigest()


def _matrix_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _kraus(spec: KrausChannel) -> dict:
    return {"type": "kraus", "ops": [_matrix_json(k) for k in spec.kraus_ops]}


def _unitary(seed: int) -> dict:
    return {"type": "unitary", "matrix": _matrix_json(random_unitary(2, np.random.default_rng(seed)))}


def _depolarized(p: float, seed: int) -> dict:
    return {**_unitary(seed), "type": "depolarized_unitary", "p": p}


CHANNELS = {
    **{f"sample {path.name}": path for path in sorted(SAMPLES.glob("*.json"))},
    "unitary identity": {"type": "unitary", "matrix": _matrix_json(np.eye(2))},
    "unitary haar 41": _unitary(41),
    "unitary haar 42": _unitary(42),
    "unitary rotation": {"type": "unitary", "matrix": _matrix_json(_rotation(43).matrix)},
    **{f"kraus amplitude damping {g}": _kraus(amplitude_damping(g)) for g in (0.0, 0.3, 1.0)},
    "kraus tilted dephasing": _kraus(_tilted_dephasing(44, 0.25)),
    "kraus random": _kraus(random_kraus_channel(np.random.default_rng(45), 2, 2, 3)),
    "pauli zero p": {"type": "pauli", "p": [0.5, 0.0, 0.2, 0.3]},
    "pauli unit p": {"type": "pauli", "p": [0.0, 0.0, 1.0, 0.0]},
    "pauli depolarizing": {"type": "pauli", "p": [0.625, 0.125, 0.125, 0.125]},
    "classical identity": {"type": "classical", "probs": [[1.0, 0.0], [0.0, 1.0]]},
    "classical flip": {"type": "classical", "probs": [[0.0, 1.0], [1.0, 0.0]]},
    "classical noisy": {"type": "classical", "probs": [[0.9, 0.2], [0.1, 0.8]]},
    "classical erasing": {"type": "classical", "probs": [[0.5, 0.5], [0.5, 0.5]]},
    **{f"depolarized p {p}": _depolarized(p, 46) for p in (0.0, 0.37, 1.0)},
}


def bloch_digest(name: str, tmp_path) -> str:
    source = CHANNELS[name]
    if not isinstance(source, Path):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(source))
        source = path
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["bloch", "--json", str(source)])
    return hashlib.sha256(f"{code}\n{buffer.getvalue()}".encode()).hexdigest()


DECISION_DIGESTS = {
    "family all identity": "627ca050103b8c41b24f718ce1eb705eefcf97320ee9a8abaf6dabfde3633af4",  # fixed_point_axis
    "family common axis n2": "ff9a6dcd060610f92fdb1c1d44b09078d2caca7d3b0e28d25f59d9a0be8f0c4b",  # fixed_point_axis
    "family common axis n5": "9d8a56796aed17ad1b2702178b2b27ad9724c038f8ac38b46da0d08f01e662e1",  # fixed_point_axis
    "family five kinds fixing z": "627ca050103b8c41b24f718ce1eb705eefcf97320ee9a8abaf6dabfde3633af4",  # fixed_point_axis
    "family no common axis": "1bf1ffcc98cd4bce6739c41c503f666f07216a309bd8a7cbe234c833135e9578",  # no_common_fixed_point
    "family non unital second": "8f8708807a4af7fb318a2864ac00040db781806d46ba69f90a5484f4eca3e0eb",  # non_unital
    "family rotations": "6f02a3d1b605696b43862ad21141f5800688991a0d926504f0ee798b35314269",  # no_common_fixed_point
    "family with a depolarizing member": "dffcbbedce46af4b4fe59c0f1e0f729582efa3bfb57affdca9366b22c3ee226b",  # no_common_fixed_point
    "pair amplitude damping": "38fd35b40c46d98800fc61ac4d08e6cb7254e202f4f6411c684554a520ed38ef",  # non_unital
    "pair classical flip": "c599c8b6f57797fa3770d999fa6b98d3803f7c0cca39bfc71fee06396ab91b22",  # no_pure_fixed_point
    "pair classical identity": "627ca050103b8c41b24f718ce1eb705eefcf97320ee9a8abaf6dabfde3633af4",  # fixed_point_axis
    "pair classical noisy": "6540956776f5bf7e98eb5bb8091f509baeb59c41a77bc5be504db980201aa9bb",  # non_unital
    "pair depolarized p 0.37": "aad19f1166e1d0434fcf2f4d6a4cfa07f23870d73fb343236d13cf0c2aed04d3",  # no_pure_fixed_point
    "pair depolarized p 1": "96c34cb8fcb2c95b33124a5b92753db39eb92f8cf0e26546e3dcbc4cc137b902",  # fixed_point_axis
    "pair depolarizing": "3fa93bf2af74cbe4f7c99e7d14364124d05733937007c06851f2438127308963",  # no_pure_fixed_point
    "pair identity": "627ca050103b8c41b24f718ce1eb705eefcf97320ee9a8abaf6dabfde3633af4",  # fixed_point_axis
    "pair pauli with zero p": "627ca050103b8c41b24f718ce1eb705eefcf97320ee9a8abaf6dabfde3633af4",  # fixed_point_axis
    "pair random kraus": "c302a27946faf76c7b2fa71252092c024df56a9637cfca596f3a11e7985d918e",  # non_unital
    "pair rotation": "1ae8444b37e4a75185fda8bd9b0af6083809dde4f7f04154a14ea98e28416ee5",  # fixed_point_axis
    "pair tilted dephasing": "6e1c3af2fa44c754b51337929c3e937108d26f22d1a9c1b142ea5678e84e054f",  # fixed_point_axis
    "pair tiny dephasing": "627ca050103b8c41b24f718ce1eb705eefcf97320ee9a8abaf6dabfde3633af4",  # fixed_point_axis
    "pauli axis x": "f7708a40b8849932acbef4a74e0dc84c588c0b19ccc68f608633dbc17a7ae72c",  # pauli_axis
    "pauli axis z with zero p": "218dec1810f1196e3222aa3e8e93c1ba8929f8509ea3914a4dab355111f31981",  # pauli_axis
    "pauli no constant axis n3": "c7f189033b289c7e2fb92b92c7722f82ade7396837d2531d0850309bc658565e",  # no_constant_axis
    "pauli no constant axis n8": "da8f121f71a52b0ae7856d27ec5341f45fa3a36d460f3104a00638ecac9cd631",  # no_constant_axis
    "pauli trivial": "32b1c1d5fc7f7e22215991c1a5662b9d6f009e3f09bce56c3e82e7b88a9aa710",  # trivial
    "pauli unit p": "88b5b7cd3d915f56407e0f8e3eace5268fb19a3cb1402004352e969ddc8720c7",  # pauli_axis
}

BLOCH_DIGESTS = {
    "classical erasing": "c17e2cb4a606ac9c1e155a5cc415c8b3405cc0d9e7f0770c26c1531fda323ba2",
    "classical flip": "a41eb7d625d5121bd869359ffdace8880d7bc8ae01644ae2030eaf61937e501c",
    "classical identity": "c2f61cfde73be32d345b8dafa1177ad33be1f0dac65f0b7162d6bcddf07ab8bb",
    "classical noisy": "9dcb5103719c85c5d5db7a780f329d3f5f185b54ee695c495fc140accc9b494d",
    "depolarized p 0.0": "c17e2cb4a606ac9c1e155a5cc415c8b3405cc0d9e7f0770c26c1531fda323ba2",
    "depolarized p 0.37": "9cd880092428bc9db1df81a4f793d5a96f25b92dd0cbecfe2a8bc4890d531b46",
    "depolarized p 1.0": "8a40f5e27d54d8b9ff694936690ada82df960f2bdfcac955f7801f8383c2fb44",
    "kraus amplitude damping 0.0": "33d3650450afbb7cdd2319c0d40ce5f152945487711b6cfff037c3f50a8caeda",
    "kraus amplitude damping 0.3": "ca31d47a25ef6d4ae37305f24ebd8ef9ce9e6ff3f5208732cb73837212d6a573",
    "kraus amplitude damping 1.0": "007679148fd948be7910d2d82344c98170afcab0b3da057349af25cd3d523dc6",
    "kraus random": "08bb75630b7881aec8a3c4e3e4cdf6bd17cafb5dce7d45d7347effbb4f42759e",
    "kraus tilted dephasing": "a2fa6b6d8679ba14604d8db292afbed0d84b9d7ae8c9bf237281c38ed5c556a3",
    "pauli depolarizing": "896846b9f4b785ac19dbceb072c446fc6c4c6b5aa6d7864a9879e9861e34ba63",
    "pauli unit p": "058d5cd8142e8a4e5671a4d81a65d4caf1ee08a4738a9d03f10a8e7e5ce2cd0e",
    "pauli zero p": "d781b73f5ec4f3e3137cfcea067c6347aec8958c9d3ffd59c9e65c8fdc57ebac",
    "sample classical_channels.json": "c2f61cfde73be32d345b8dafa1177ad33be1f0dac65f0b7162d6bcddf07ab8bb",
    "sample depolarized_gates.json": "aa106cb2cbee9d69cac1916037da23576afe304b94c4a3858d2e3469461e074d",
    "sample gate_family.json": "eb8e9364fb5006bb996c71e0bfdd85e5d85c5153339e57581b1136213c8c8123",
    "sample identity_family_dephasing.json": "33d3650450afbb7cdd2319c0d40ce5f152945487711b6cfff037c3f50a8caeda",
    "sample identity_pair_dephasing.json": "00671c6630e9eded3388fe701ed42927ac196bb12c5e9f23d8252e6725832408",
    "sample pauli_bit_flip.json": "ebcbd29efeee933e1530ce9358c6d56aa4a0c69e42c92ad551b7d80975d1d448",
    "sample pauli_depolarizing.json": "2c51b62ca6173dcbc8e5fe4bdbc3566396d5b7718873899cf5f25ffa352a25a8",
    "unitary haar 41": "34f3242e62e9e39e92c0efde68cddcf173dedb5291b12b21fcdcc54ebe1270d6",
    "unitary haar 42": "8c290a1312a2a500a2822fa38831fa7dc3ae9f95e477efaa736a380e3d5d5c60",
    "unitary identity": "33d3650450afbb7cdd2319c0d40ce5f152945487711b6cfff037c3f50a8caeda",
    "unitary rotation": "4b5cbc5a6b309c4e74c7cb5f38506a99480567911b2ae6153b1cde9f04b93566",
}


def test_every_case_has_a_digest():
    assert sorted(DECISION_DIGESTS) == sorted(FAMILIES)
    assert sorted(BLOCH_DIGESTS) == sorted(CHANNELS)


def test_every_certificate_and_witness_of_the_bloch_kinds_appears():
    kinds = set()
    for build in FAMILIES.values():
        data = decision_to_dict(decide_family(build(), DECISION_TOL, 0))
        kinds.update(data[part]["type"] for part in ("certificate", "witness") if part in data)
    assert kinds == {"trivial", "pauli_axis", "no_constant_axis", "fixed_point_axis", "non_unital",
                     "no_pure_fixed_point", "no_common_fixed_point"}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_decision_bytes_are_unchanged(name):
    assert decision_digest(name) == DECISION_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_bloch_report_bytes_are_unchanged(name, tmp_path):
    assert bloch_digest(name, tmp_path) == BLOCH_DIGESTS[name]
