"""Gate and depolarized decisions keep their bytes: SHA-256 digests of ``decision_to_dict``.

A fixed, seeded list of families (``d`` 2 to 16, ``n`` 2 to 32; commuting,
degenerate, with eigenphases at and near +-pi, across a ``PHASE_GAP`` break,
and not commuting) is decided with the CLI's defaults, and the digest of
``json.dumps(decision_to_dict(decision))`` is compared with the one recorded
when certificates were built by a Python loop over the relative gates.  A
change that moves one byte of a certificate or witness fails here.

To re-record after a deliberate change of format, print ``digest(name)`` for
every name in ``FAMILIES``.
"""

import hashlib
import json

import numpy as np
import pytest

from channelmask.channels import DepolarizedUnitary, Unitary
from channelmask.cli import DECISION_TOL, FamilyFile, decide_family, decision_to_dict
from channelmask.linalg import PHASE_GAP

from helpers import random_unitary


def _family(seed: int, dim: int, size: int, fixed=(), kind: str = "gate", p: float = 0.3) -> FamilyFile:
    """Members ``left V diag(e^{i phi_k}) V^dag`` with the first member's phases 0, so
    the relative gates have exactly the phases drawn; ``fixed`` overrides the first
    phases of every relative gate."""
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim, rng)
    left = random_unitary(dim, rng)
    us = [left]
    for _ in range(size - 1):
        phases = rng.uniform(-np.pi, np.pi, size=dim)
        phases[:len(fixed)] = fixed[:dim]
        us.append(left @ (basis * np.exp(1j * phases)) @ basis.conj().T)
    members = tuple(Unitary(u) if kind == "gate" else DepolarizedUnitary(p, u) for u in us)
    return FamilyFile("1", kind, members, {})


def _haar(seed: int, dim: int, size: int) -> FamilyFile:
    rng = np.random.default_rng(seed)
    return FamilyFile("1", "gate", tuple(Unitary(random_unitary(dim, rng)) for _ in range(size)), {})


PI = np.pi
FAMILIES = {
    **{f"gate d{d} n{n}": (lambda d=d, n=n: _family(100 + d + n, d, n))
       for d in (2, 3, 4, 8, 12, 16) for n in (2, 3, 8, 32)},
    **{f"degenerate d{d} n{n}": (lambda d=d, n=n: _family(200 + d + n, d, n, fixed=(0.7, 0.7, 0.7)[:d - 1]))
       for d in (3, 4, 8, 16) for n in (3, 8)},
    **{f"pi singleton d{d}": (lambda d=d: _family(300 + d, d, 3, fixed=(PI,))) for d in (2, 4, 8, 16)},
    **{f"minus pi singleton d{d}": (lambda d=d: _family(310 + d, d, 3, fixed=(-PI,))) for d in (2, 4, 16)},
    **{f"wrap cluster d{d}": (lambda d=d: _family(320 + d, d, 4, fixed=(PI, -PI, PI - 1e-12, -PI + 1e-12)))
       for d in (4, 8, 16)},
    **{f"wrap pair d{d}": (lambda d=d: _family(330 + d, d, 3, fixed=(PI - 1e-12, -PI + 1e-12))) for d in (2, 8)},
    **{f"gap {name} d{d}": (lambda d=d, f=f: _family(340 + d, d, 3, fixed=(0.4, 0.4 + f * PHASE_GAP)))
       for d in (4, 8) for name, f in (("inside", 1 - 1e-1), ("outside", 1 + 1e-1))},
    **{f"haar d{d} n{n}": (lambda d=d, n=n: _haar(400 + d + n, d, n)) for d, n in ((2, 3), (4, 3), (4, 8), (16, 32))},
    **{f"depolarized d{d} n{n}": (lambda d=d, n=n: _family(500 + d + n, d, n, kind="depolarized"))
       for d in (2, 4, 8, 16) for n in (3, 8)},
    "depolarized degenerate d8": lambda: _family(520, 8, 4, fixed=(1.1, 1.1), kind="depolarized", p=0.9),
    "depolarized wrap d4": lambda: _family(521, 4, 3, fixed=(PI, -PI), kind="depolarized"),
}


def digest(name: str) -> str:
    decision = decide_family(FAMILIES[name](), DECISION_TOL, 0)
    return hashlib.sha256(json.dumps(decision_to_dict(decision)).encode()).hexdigest()


DIGESTS = {
    "degenerate d16 n3": "fc67d1dff35d112265a3d39b517677993d0c439d2f3547ee9757650d951e4c2b",  # maskable
    "degenerate d16 n8": "6518c7d9461dc719b46146c9aedb5faed8f80e0f022b0cdb2b448dc6478589e9",  # maskable
    "degenerate d3 n3": "a59d487cb5934b1d45ef79373159ddde0bdfa7bbb4718929b7948ed88eef40b2",  # maskable
    "degenerate d3 n8": "7280978006e46315e84028a1d4d84e16dedf5dd4cac9ce4cf5d8e982cf2202d2",  # maskable
    "degenerate d4 n3": "ce3df0b1c7035c57835a29a21cf2ce74c0dbb645b9046b354acec5f6e7f149f7",  # maskable
    "degenerate d4 n8": "1184c13bf325368496650baa5b9a5ed76a3e225524c1b1858e4a67614fd67551",  # maskable
    "degenerate d8 n3": "fc1346b66c7bca9a8f445b791f672ea5c437664f055b262a86e785b2a0c39610",  # maskable
    "degenerate d8 n8": "a1b686a9d07707282d9694bbf9307827705698c0df7a3192032deacc843b3ad1",  # maskable
    "depolarized d16 n3": "2afcd9cf5d6f83d454b27f827aff21748e43820bd31bdcc727009f5916e35581",  # maskable
    "depolarized d16 n8": "b1ed8002084a9ea1b5dcee8c2b75cb6b282a2d28bd7ee88b0d61f2d46378c4da",  # maskable
    "depolarized d2 n3": "5c601e5b4bedd04279d1f6b0b731e32d54ecf0cbb9fb72c45b2f21bf0dd6ff72",  # maskable
    "depolarized d2 n8": "8abe9ac6198339e71adcd7308d7946dfd87b565f571f0da4332ac450f062e771",  # maskable
    "depolarized d4 n3": "ad2aa24760d4fefbf1e47317e1fdf85191fe77161a643c51bddcc67344ce9743",  # maskable
    "depolarized d4 n8": "f8fbaef4cc30e7e4ee21f5331e5a5cb364901bbe204eb135b1b5e947587e9113",  # maskable
    "depolarized d8 n3": "2ad3291fe9167ce58d5fbf83aaa0871c4ab44c6982b17f14e2edabbc8f09fbb7",  # maskable
    "depolarized d8 n8": "28305c8196fc23eb24c7e0196afc41db24f015d0ac41752b5fd9543600614b0b",  # maskable
    "depolarized degenerate d8": "7890e0e774d1f92c8c2237427d53562b1afb40382da83c5ba1b6dc106801d1f7",  # maskable
    "depolarized wrap d4": "296ea2084b87e592dd15e073ed368b0bbf9ccbf78e4a6205f96cc8582e1ee1b2",  # maskable
    "gap inside d4": "591c1bac36f9688504c1ddd0ec0476a0a4116101d81950ad4fba0bb1ffb46eaa",  # maskable
    "gap inside d8": "5a6149f6c329c5eeb4a88f3fc4f9342a5832f5fa3ab39d50f6e7dd05995f2fb8",  # maskable
    "gap outside d4": "87a0c71a57fd8a69e19cf013ef44f76f6d591a0d1fb18b88f98773bc6004bcf3",  # maskable
    "gap outside d8": "52eef045e33a58038865b03d6facad62e0356ea7fbef66a2a1474c123b3470d9",  # maskable
    "gate d12 n2": "314573edf8c15b6e5c33268ef886d375775c46195dd4a3dc2c78077ba0e88324",  # maskable
    "gate d12 n3": "b4741513ec1561c799ae157923c7d13a6b0eaba54bce6a69041ba304e548b1c5",  # maskable
    "gate d12 n32": "f218c523c5e4678996500ca959fa75e08738bd3d2e3400dc0a63fa82db208ecc",  # maskable
    "gate d12 n8": "3ce82489734a3a6712e0b0ee874b34aef0335665e904f612b37b01ef2716de16",  # maskable
    "gate d16 n2": "f77aa84eb1da2fb26872d6dc2ddaab494cfa628cb42f2c0e891ee5ad34a1c780",  # maskable
    "gate d16 n3": "4b301f9fae1191db75e739c5a3362a42532f46775e3a3b09febf134a29b96e73",  # maskable
    "gate d16 n32": "3ff9133fc5ebffd098608e3c6eebd4dc3848b4391094c28137ffe564ed891386",  # maskable
    "gate d16 n8": "9eda0838f05e311d9d479c4af52298ebbd4f95d8c3f24e2b419d64fca75c64e4",  # maskable
    "gate d2 n2": "ffdb9e9b2661fc4f246a6ea6f34aaed550aa7547375584e676bc421ade22b9c1",  # maskable
    "gate d2 n3": "c9925b1ea9748286a9b2ae8814ff34fbeca5621391409c19a26430c4b27d2d6c",  # maskable
    "gate d2 n32": "533e2eb35233c119043cfd29b3a6cd3e46fe71826876e39f50c179b3e449f22d",  # maskable
    "gate d2 n8": "b447054a75a39b1ebcde257191c688af54290f0ea26274b11cfa23f1d1c42e04",  # maskable
    "gate d3 n2": "e0bf4300b5fbd81dc054f64887cc4d2dd876f22f24ce502c542611c3796742d2",  # maskable
    "gate d3 n3": "cf2cdc8a992a85c4147f74cafff9636f54a9bc9cf65d807216546f01858be623",  # maskable
    "gate d3 n32": "a210b4336ec9b808db6995bea9c659dcc88e86516783122cb30e495bc243a24c",  # maskable
    "gate d3 n8": "63b120fc3ac8f27fc7f578a5e817eb5ea79ad545e0e426e53f47bd1968997da4",  # maskable
    "gate d4 n2": "3f10a05e5a2e60d184305b430b8f502381500e15aa16d998ce1e03533ebd3444",  # maskable
    "gate d4 n3": "383d94ff250410a1a71e309bc78a47eda117757ce05d936c79e5cad3eee0b0c0",  # maskable
    "gate d4 n32": "875531499ed8e59b9bdaafd91c0235b90d6a231f8d18168a739af6a42fb184e2",  # maskable
    "gate d4 n8": "d335adb1812891be82f89f01f015a68490fdfedfef45c4ac99384c8c8b087661",  # maskable
    "gate d8 n2": "18af428f264a7784d106b6fe6555e49fe3a098030b08b21552f9eab7f3ce38de",  # maskable
    "gate d8 n3": "4bdc474f18f507a9a6e1a6f0cf68ce541a58816de78996b2bf3ceabb6b619afb",  # maskable
    "gate d8 n32": "c2e3abc0ae5e959149cda4053729b673736bc8a2d204c25d5068967d2e6119b2",  # maskable
    "gate d8 n8": "cc284ddbeb3d3a5344e5d28ac7e878b0a4a192ac1ae8a1531a0ec17571b229df",  # maskable
    "haar d16 n32": "9b10a81101f36917a07613aae4459d251c88caeccea179f54562a8d346838afe",  # NoncommutingPair
    "haar d2 n3": "016c4fc4093375f8eecbaef7c1855b42f1b3b757af115b6fb9c8ea03e62c0d04",  # NoncommutingPair
    "haar d4 n3": "33d85c2e45261a79392c7e0c3e809f92004e6b320d4b1356658adfe3689ea1df",  # NoncommutingPair
    "haar d4 n8": "4c3d82c80aa7dfcf043e06bda58ea4c4078806067928fc840bb575a7cf2b9533",  # NoncommutingPair
    "minus pi singleton d16": "d338604786f6c633c7c88d917ab666b24274e5ea12d1dd3fa9f41ea27de6fd61",  # maskable
    "minus pi singleton d2": "642b83e1572c436e42249c99091a55e9b1a58f42acb9e4f901bbba62acc6590f",  # maskable
    "minus pi singleton d4": "5c80c183d6e381a7a168832295e6bfef9fe9e3acdbc5cc35b635f50ea3c89593",  # maskable
    "pi singleton d16": "15208eaa773da4f5706ca318e8e181ad6858614288543171cc366682ea4d369e",  # maskable
    "pi singleton d2": "8a72107e3617c1670478b70bd1df9940c0a74c64f5ddff4f16a6aa99b3dbbe38",  # maskable
    "pi singleton d4": "642747df9523e82a767fbc757c619006c48788c00bc404d50b756a95e89580f5",  # maskable
    "pi singleton d8": "58347c493f09173eb6c738483414067da5b1653d8e618add17674d98caf436d7",  # maskable
    "wrap cluster d16": "12d9a507e85f9b8da851bae3b5e7fbe895232dede4382b6231ce1cbeb49239d0",  # maskable
    "wrap cluster d4": "a823a3307f4fc1fdd88180e756346a1bcc55ffac4de3250644ac8e5428bf2738",  # maskable
    "wrap cluster d8": "16a892b9e546da318ecacca4ec1fba06a28033eb5e18418001dc7d074daf6713",  # maskable
    "wrap pair d2": "d3e80e30d6ce475a03c3d710e1da7c461335b211ce07a1ca475f3e3859e09167",  # maskable
    "wrap pair d8": "d9f14d0c31363c0a0e7c19ae8706eb3e3db61ea153c2612bf633fa8d8eecf942",  # maskable
}


def test_every_family_has_a_digest():
    assert sorted(DIGESTS) == sorted(FAMILIES)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_decision_bytes_are_unchanged(name):
    assert digest(name) == DIGESTS[name]
