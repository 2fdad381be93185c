"""Seeded channel-family files whose answers are known from construction.

Every generator draws from a ``numpy.random.Generator`` and returns a
:class:`Family`: the JSON document a user would hand to ``channelmask`` plus
an :class:`Expected` record of the verdict, the certificate or witness type
and the facts a correct witness or certificate must reproduce.  The matrices
are built here with plain numpy, so the program under test only ever sees the
written files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
AXES = ("x", "y", "z")

# Constructed families keep every deciding quantity at least this far from
# the decision threshold (1e-8), so the expected verdict is not a coin flip.
MARGIN = 1e-3


@dataclass(frozen=True)
class Expected:
    """The answer known from construction.

    ``evidence`` is the certificate type for a maskable family and the
    witness type otherwise, spelled as in the CLI's ``--json`` output.
    ``facts`` holds what the certificate or witness must match.
    """

    maskable: bool
    evidence: str
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Family:
    shape: str          # kind and size, e.g. ``gate-haar-d16-n32``
    document: dict      # the family file's JSON
    expected: Expected


def matrix_json(m) -> list:
    """Row-major ``[re, im]`` pairs, the CLI's matrix format."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _document(kind: str, members: list) -> dict:
    return {"version": "1", "kind": kind, "members": members}


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_axis(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _sigma(axis: np.ndarray) -> np.ndarray:
    return axis[0] * PAULI[0] + axis[1] * PAULI[1] + axis[2] * PAULI[2]


def _commutator(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a @ b - b @ a))


def _commuting_unitaries(rng, d: int, n: int, degenerate: bool) -> list[np.ndarray]:
    # U_i = L V D_i V^dag: the relative gates U_1^dag U_i = V D_1^* D_i V^dag
    # share the eigenbasis V.  A degenerate family gives each member one phase
    # per block of eigenvectors, so every common eigenspace has dimension > 1.
    left, basis = haar_unitary(rng, d), haar_unitary(rng, d)
    blocks = np.arange(d) // 2 if degenerate else np.arange(d)
    out = []
    for _ in range(n):
        phases = rng.uniform(-np.pi, np.pi, size=blocks.max() + 1)[blocks]
        out.append(left @ (basis * np.exp(1j * phases)) @ basis.conj().T)
    return out


def _noncommuting_unitaries(rng, d: int, n: int) -> list[np.ndarray]:
    if n < 3:
        raise ValueError("a noncommuting family needs at least three members")
    while True:
        us = [haar_unitary(rng, d) for _ in range(n)]
        w1, w2 = us[0].conj().T @ us[1], us[0].conj().T @ us[2]
        if _commutator(w1, w2) > MARGIN:
            return us


def _gate_expected(commuting: bool) -> Expected:
    if commuting:
        return Expected(True, "common_eigenbasis")
    return Expected(False, "noncommuting_pair")


def gate_family(rng, d: int, n: int, commuting: bool, degenerate: bool = False) -> Family:
    us = _commuting_unitaries(rng, d, n, degenerate) if commuting else _noncommuting_unitaries(rng, d, n)
    members = [{"type": "unitary", "matrix": matrix_json(u)} for u in us]
    label = ("degenerate" if degenerate else "commuting") if commuting else "haar"
    return Family(f"gate-{label}-d{d}-n{n}", _document("gate", members), _gate_expected(commuting))


def depolarized_family(rng, d: int, n: int, commuting: bool) -> Family:
    """Gates under one depolarizing level p > 0: the gate verdict carries over."""
    us = _commuting_unitaries(rng, d, n, False) if commuting else _noncommuting_unitaries(rng, d, n)
    p = float(rng.uniform(0.2, 0.9))
    members = [{"type": "depolarized_unitary", "p": p, "matrix": matrix_json(u)} for u in us]
    label = "commuting" if commuting else "haar"
    return Family(f"depolarized-{label}-d{d}-n{n}", _document("depolarized", members),
                  _gate_expected(commuting))


def pauli_family(rng, n: int, constant: bool) -> Family:
    """Pauli channels with (or without) a constant ``p0 + p_axis``."""
    while True:
        if constant:
            axis = int(rng.integers(3))
            c = float(rng.uniform(0.3, 0.9))
            table = []
            for _ in range(n):
                pk = float(rng.uniform(0.0, c))
                rest = 1.0 - c
                share = float(rng.uniform(0.0, 1.0)) * rest
                others = [share, rest - share]
                p = [c - pk, 0.0, 0.0, 0.0]
                p[1 + axis] = pk
                p[1 + (axis + 1) % 3], p[1 + (axis + 2) % 3] = others
                table.append(p)
        else:
            table = rng.dirichlet(np.ones(4), size=n).tolist()
        arr = np.array(table)
        spreads = {a: float(np.ptp(arr[:, 0] + arr[:, 1 + k])) for k, a in enumerate(AXES)}
        others = [s for k, s in enumerate(spreads.values()) if not (constant and k == axis)]
        if min(others) > MARGIN:
            break
    members = [{"type": "pauli", "p": p} for p in table]
    if constant:
        expected = Expected(True, "pauli_axis", {"axis": AXES[axis], "constant": c})
    else:
        expected = Expected(False, "no_constant_axis", {"spreads": spreads})
    label = "constant" if constant else "spread"
    return Family(f"pauli-{label}-n{n}", _document("pauli", members), expected)


def _dephasing_kraus(axis: np.ndarray, p: float) -> dict:
    ops = [np.sqrt(1.0 - p) * I2, np.sqrt(p) * _sigma(axis)]
    return {"type": "kraus", "ops": [matrix_json(k) for k in ops]}


def _rotation(axis: np.ndarray, angle: float) -> dict:
    u = np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * _sigma(axis)
    return {"type": "unitary", "matrix": matrix_json(u)}


def _amplitude_damping(gamma: float) -> dict:
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return {"type": "kraus", "ops": [matrix_json(k0), matrix_json(k1)]}


def _axis_member(rng, axis: np.ndarray, index: int) -> dict:
    # Alternate Kraus dephasing and unitary rotations about the same axis:
    # both are unital and fix exactly the pure states +-axis.
    if index % 2 == 0:
        return _dephasing_kraus(axis, float(rng.uniform(0.1, 0.9)))
    return _rotation(axis, float(rng.uniform(0.3, 2 * np.pi - 0.3)))


def identity_pair_family(rng, variant: str) -> Family:
    """``{identity, E}`` for a qubit channel ``E``.

    ``variant`` is ``dephasing`` or ``rotation`` (maskable, fixed axis known),
    ``damping`` (non-unital, shift known) or ``depolarizing`` (unital without
    a pure fixed point, Bloch eigenvalues known).
    """
    axis = random_axis(rng)
    if variant == "dephasing":
        member = _dephasing_kraus(axis, float(rng.uniform(0.1, 0.9)))
        expected = Expected(True, "fixed_point_axis", {"axis": axis.tolist()})
    elif variant == "rotation":
        member = _rotation(axis, float(rng.uniform(0.3, 2 * np.pi - 0.3)))
        expected = Expected(True, "fixed_point_axis", {"axis": axis.tolist()})
    elif variant == "damping":
        gamma = float(rng.uniform(0.1, 0.9))
        member = _amplitude_damping(gamma)
        expected = Expected(False, "non_unital", {"index": 0, "shift": [0.0, 0.0, gamma]})
    elif variant == "depolarizing":
        q = float(rng.uniform(0.05, 0.2))
        member = {"type": "pauli", "p": [1.0 - 3.0 * q, q, q, q]}
        expected = Expected(False, "no_pure_fixed_point", {"eigenvalues": [1.0 - 4.0 * q] * 3})
    else:
        raise ValueError(f"unknown identity_pair variant {variant!r}")
    return Family(f"identity_pair-{variant}", _document("identity_pair", [member]), expected)


def identity_family(rng, n: int, variant: str) -> Family:
    """Qubit channels masked next to the identity.

    ``common`` members share one fixed axis; ``scattered`` members dephase
    about axes at least 0.3 rad apart; ``damping`` puts one amplitude-damping
    member among common-axis ones.
    """
    if n < 2:
        raise ValueError("identity families are generated with at least two members")
    axis = random_axis(rng)
    if variant == "common":
        members = [_axis_member(rng, axis, i) for i in range(n)]
        expected = Expected(True, "fixed_point_axis", {"axis": axis.tolist()})
    elif variant == "scattered":
        axes = [axis]
        while len(axes) < n:
            cand = random_axis(rng)
            if all(abs(float(cand @ a)) < np.cos(0.3) for a in axes):
                axes.append(cand)
        members = [_dephasing_kraus(a, float(rng.uniform(0.1, 0.9))) for a in axes]
        expected = Expected(False, "no_common_fixed_point", {"axes": [a.tolist() for a in axes]})
    elif variant == "damping":
        index = int(rng.integers(n))
        gamma = float(rng.uniform(0.1, 0.9))
        members = [_amplitude_damping(gamma) if i == index else _axis_member(rng, axis, i)
                   for i in range(n)]
        expected = Expected(False, "non_unital", {"index": index, "shift": [0.0, 0.0, gamma]})
    else:
        raise ValueError(f"unknown identity_family variant {variant!r}")
    return Family(f"identity_family-{variant}-n{n}", _document("identity_family", members), expected)


def classical_family(rng, n: int, din: int, dout: int) -> Family:
    """Random column-stochastic channels; always maskable by the Fourier masker."""
    members = [{"type": "classical", "probs": rng.dirichlet(np.ones(dout), size=din).T.tolist()}
               for _ in range(n)]
    return Family(f"classical-{din}to{dout}-n{n}", _document("classical", members),
                  Expected(True, "fourier", {"dim": dout}))
