import json
from pathlib import Path

import numpy as np
import pytest

from channelmask.channels import amplitude_damping, dephasing_about
from channelmask.cli import (
    EXIT_ERROR,
    EXIT_NEGATIVE,
    EXIT_OK,
    load_masker_file,
    main,
    save_masker_file,
)
from channelmask.masking import Fourier, copy_masker

from helpers import random_commuting_family, random_density

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _matrix_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
XZ = [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]
X_SQRT_Z = [[[0, 0], [0, 1]], [[1, 0], [0, 0]]]
IDENTITY = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
Z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]


def write_family(path, kind, members, options=None):
    payload = {"version": "1", "kind": kind, "members": members}
    if options:
        payload["options"] = options
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


@pytest.fixture
def gate_family(tmp_path):
    members = [{"type": "unitary", "matrix": m} for m in (X, XZ, X_SQRT_Z)]
    return write_family(tmp_path / "gate.json", "gate", members)


@pytest.fixture
def noncommuting_family(tmp_path):
    members = [{"type": "unitary", "matrix": m} for m in (IDENTITY, X, Z)]
    return write_family(tmp_path / "bad_gate.json", "gate", members)


@pytest.fixture
def dephasing_pair(tmp_path):
    members = [{"type": "pauli", "p": [0.6, 0.0, 0.0, 0.4]}]
    return write_family(tmp_path / "pair.json", "identity_pair", members)


class TestDecide:
    def test_gate_family_maskable(self, gate_family, capsys):
        assert main(["decide", gate_family]) == EXIT_OK
        out = capsys.readouterr().out
        assert "maskable" in out
        assert "common_eigenbasis" in out

    def test_noncommuting_family(self, noncommuting_family, capsys):
        assert main(["decide", noncommuting_family]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "noncommuting_pair" in out

    def test_depolarizing_pauli_family(self, tmp_path, capsys):
        members = [
            {"type": "pauli", "p": [0.85, 0.05, 0.05, 0.05]},
            {"type": "pauli", "p": [0.4, 0.2, 0.2, 0.2]},
        ]
        path = write_family(tmp_path / "pauli.json", "pauli", members)
        assert main(["decide", path]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "no_constant_axis" in out
        assert "x" in out and "y" in out and "z" in out

    def test_json_output(self, gate_family, capsys):
        assert main(["decide", "--json", gate_family]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "maskable"
        assert payload["certificate"]["type"] == "common_eigenbasis"

    def test_malformed_columns_exit_2(self, tmp_path, capsys):
        members = [{"type": "classical", "probs": [[0.5, 0.2], [0.4, 0.8]]}]
        path = write_family(tmp_path / "bad.json", "classical", members)
        assert main(["decide", path]) == EXIT_ERROR
        assert "members[0]" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["decide", str(tmp_path / "nope.json")]) == EXIT_ERROR

    def test_unknown_kind_exit_2(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"version": "1", "kind": "weird", "members": [{}]}))
        assert main(["decide", str(path)]) == EXIT_ERROR
        assert "kind" in capsys.readouterr().err

    def test_family_file_that_is_not_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text('{"version": "1", ')
        assert main(["decide", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON (")

    def test_unknown_payload_type_exit_2(self, tmp_path, capsys):
        path = write_family(tmp_path / "qutrit.json", "gate", [{"type": "qutrit"}])
        assert main(["decide", path]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: members[0].type: must be one of unitary, kraus, pauli, classical, depolarized_unitary\n"
        )

    def test_bad_version_exit_2(self, tmp_path, capsys):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"version": "2", "kind": "gate", "members": []}))
        assert main(["decide", str(path)]) == EXIT_ERROR
        assert "version" in capsys.readouterr().err


class TestSynthesizeAndVerify:
    def test_round_trip_gate(self, gate_family, tmp_path, capsys):
        out = tmp_path / "masker.json"
        assert main(["synthesize", gate_family, "-o", str(out)]) == EXIT_OK
        assert out.exists()
        assert main(["verify", gate_family, str(out)]) == EXIT_OK
        report = capsys.readouterr().out
        assert "PASS" in report

    def test_refuses_noncommuting(self, noncommuting_family, tmp_path, capsys):
        out = tmp_path / "masker.json"
        assert main(["synthesize", noncommuting_family, "-o", str(out)]) == EXIT_NEGATIVE
        assert not out.exists()

    def test_identity_pair_round_trip(self, dephasing_pair, tmp_path, capsys):
        out = tmp_path / "masker.json"
        assert main(["synthesize", dephasing_pair, "-o", str(out)]) == EXIT_OK
        masker = load_masker_file(out)
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0
        expected[3, 1] = 1.0
        np.testing.assert_allclose(masker.matrix, expected, atol=1e-12)
        assert main(["verify", dephasing_pair, str(out)]) == EXIT_OK

    def test_wrong_masker_fails_verification(self, tmp_path, capsys):
        # z-axis masker against a bit-flip identity pair
        members = [{"type": "pauli", "p": [0.5, 0.5, 0.0, 0.0]}]
        family = write_family(tmp_path / "bitflip_pair.json", "identity_pair", members)
        pair = write_family(
            tmp_path / "dephasing_pair.json", "identity_pair", [{"type": "pauli", "p": [0.6, 0.0, 0.0, 0.4]}]
        )
        out = tmp_path / "masker.json"
        assert main(["synthesize", pair, "-o", str(out)]) == EXIT_OK
        assert main(["verify", family, str(out)]) == EXIT_NEGATIVE

    def test_classical_fourier_masker(self, tmp_path, capsys):
        members = [
            {"type": "classical", "probs": [[1.0, 0.0], [0.0, 1.0]]},
            {"type": "classical", "probs": [[0.0, 1.0], [1.0, 0.0]]},
        ]
        family = write_family(tmp_path / "classical.json", "classical", members)
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        masker = load_masker_file(out)
        expected = np.zeros((4, 2), dtype=complex)
        expected[0] = [1, 1] / np.sqrt(2)
        expected[3] = [1, -1] / np.sqrt(2)
        np.testing.assert_allclose(masker.matrix, expected, atol=1e-15)
        assert main(["verify", family, str(out)]) == EXIT_OK

    def test_depolarized_family(self, tmp_path, capsys):
        members = [
            {"type": "depolarized_unitary", "p": 0.5, "matrix": X},
            {"type": "depolarized_unitary", "p": 0.5, "matrix": XZ},
        ]
        family = write_family(tmp_path / "depol.json", "depolarized", members)
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        assert main(["verify", family, str(out)]) == EXIT_OK

    def test_mixed_noise_levels_are_refused_where_the_file_enters(self, tmp_path, capsys):
        members = [
            {"type": "depolarized_unitary", "p": 0.5, "matrix": X},
            {"type": "depolarized_unitary", "p": 0.5 + 1e-9, "matrix": XZ},
        ]
        family = write_family(tmp_path / "depol.json", "depolarized", members)
        masker = tmp_path / "masker.json"
        save_masker_file(masker, copy_masker(np.eye(2)))
        for argv in (["decide", family], ["verify", family, str(masker)]):
            assert main(argv) == EXIT_ERROR
            assert capsys.readouterr().err == (
                "error: members: depolarized family members must share one noise level p\n")

    def test_copy_masker_verifies_above_dimension_sixteen(self, tmp_path, capsys):
        rng = np.random.default_rng(64)
        members = [{"type": "unitary", "matrix": _matrix_json(m.matrix)}
                   for m in random_commuting_family(rng, 64, 3)]
        family = write_family(tmp_path / "gate64.json", "gate", members)
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "--json", family, str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_pauli_family_round_trip(self, tmp_path, capsys):
        members = [{"type": "pauli", "p": [1 - p, p, 0.0, 0.0]} for p in (0.1, 0.3, 0.7)]
        family = write_family(tmp_path / "bitflip.json", "pauli", members)
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        assert main(["verify", family, str(out)]) == EXIT_OK

    def test_identity_family_round_trip(self, tmp_path, capsys):
        members = [
            {"type": "unitary", "matrix": IDENTITY},
            {"type": "pauli", "p": [0.8, 0.0, 0.0, 0.2]},
            {"type": "pauli", "p": [0.3, 0.0, 0.0, 0.7]},
        ]
        family = write_family(tmp_path / "idfam.json", "identity_family", members)
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        assert main(["verify", family, str(out)]) == EXIT_OK

    def test_single_member_family_verifies_any_masker(self, tmp_path, capsys):
        members = [{"type": "pauli", "p": [0.25, 0.25, 0.25, 0.25]}]
        family = write_family(tmp_path / "single.json", "pauli", members)
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        assert main(["verify", family, str(out)]) == EXIT_OK

    def test_synthesize_honours_the_decision_tolerance(self, tmp_path, capsys):
        # one member of a commuting triple nudged by exp(i 1e-6 H): maskable at
        # --tol 1e-5, so synthesis must check the basis at that tolerance too
        rng = np.random.default_rng(7)
        us = [m.matrix for m in random_commuting_family(rng, 4, 3)]
        values, vectors = np.linalg.eigh(random_density(rng, 4))
        us[2] = us[2] @ (vectors * np.exp(1e-6j * values)) @ vectors.conj().T
        members = [{"type": "unitary", "matrix": _matrix_json(u)} for u in us]
        family = write_family(tmp_path / "nudged.json", "gate", members)
        out = tmp_path / "masker.json"
        assert main(["decide", family]) == EXIT_NEGATIVE
        assert main(["decide", family, "--tol", "1e-5"]) == EXIT_OK
        assert main(["synthesize", family, "--tol", "1e-5", "-o", str(out)]) == EXIT_OK
        assert load_masker_file(out).dims.total == 16

    def test_deterministic_bytes(self, gate_family, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["synthesize", gate_family, "-o", str(first), "--seed", "3"]) == EXIT_OK
        assert main(["synthesize", gate_family, "-o", str(second), "--seed", "3"]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_masker_file_round_trip_is_bit_exact(self, tmp_path):
        masker = copy_masker(Fourier(3).copy_rows())
        path = tmp_path / "fourier.json"
        save_masker_file(path, masker)
        loaded = load_masker_file(path)
        assert np.array_equal(loaded.matrix, masker.matrix)
        again = tmp_path / "fourier2.json"
        save_masker_file(again, loaded)
        assert path.read_bytes() == again.read_bytes()

    def test_rejects_corrupt_masker(self, gate_family, tmp_path, capsys):
        bad = tmp_path / "bad_masker.json"
        bad.write_text(json.dumps({
            "version": "1",
            "dims": {"dimA": 2, "dimB": 2},
            "matrix": _matrix_json(np.ones((4, 2))),
        }))
        assert main(["verify", gate_family, str(bad)]) == EXIT_ERROR
        assert "isometry" in capsys.readouterr().err


class TestIdentityKinds:
    """Both identity kinds mean the identity next to the members, in every command."""

    def test_single_damping_member_is_refused(self, tmp_path, capsys):
        gamma = 0.3
        k0 = [[[1, 0], [0, 0]], [[0, 0], [float(np.sqrt(1 - gamma)), 0]]]
        k1 = [[[0, 0], [float(np.sqrt(gamma)), 0]], [[0, 0], [0, 0]]]
        family = write_family(tmp_path / "ad.json", "identity_family", [{"type": "kraus", "ops": [k0, k1]}])
        assert main(["decide", "--json", family]) == EXIT_NEGATIVE
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness["type"] == "non_unital"
        assert witness["member"] == 0
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_NEGATIVE
        assert not out.exists()

    def test_single_x_dephasing_member_round_trip(self, tmp_path, capsys):
        x_dephasing = {"type": "pauli", "p": [0.6, 0.4, 0.0, 0.0]}
        family = write_family(tmp_path / "xdeph.json", "identity_family", [x_dephasing])
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        assert main(["verify", family, str(out)]) == EXIT_OK
        # the member alone is masked by any isometry; next to the identity the z-axis copy fails
        z_axis = tmp_path / "z.json"
        save_masker_file(z_axis, copy_masker(np.eye(2)))
        assert main(["verify", family, str(z_axis)]) == EXIT_NEGATIVE

    def test_synthesize_accepts_a_direction_fixed_within_the_decision_tolerance(self, tmp_path, capsys):
        # two dephasings 5e-6 rad apart: the decider takes member 1's axis and
        # finds member 0 fixes it within --tol 1e-5, so synthesis must agree
        members = []
        for angle in (0.3, 0.3 - 5e-6):
            axis = [np.sin(angle), 0.0, np.cos(angle)]
            ops = dephasing_about(axis, 0.5).kraus_ops
            members.append({"type": "kraus", "ops": [_matrix_json(k) for k in ops]})
        family = write_family(tmp_path / "near.json", "identity_family", members)
        assert main(["decide", "--tol", "1e-5", "--json", family]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["certificate"]["type"] == "fixed_point_axis"
        out = tmp_path / "masker.json"
        assert main(["synthesize", "--tol", "1e-5", family, "-o", str(out)]) == EXIT_OK
        assert load_masker_file(out).dims.total == 4


BIG = 10**400


@pytest.mark.parametrize(
    "kind, member, options, field",
    [
        ("gate", {"type": "unitary", "matrix": [[[BIG, 0], [0, 0]], [[0, 0], [1, 0]]]}, None,
         "members[0].matrix[0][0]"),
        ("gate", {"type": "unitary", "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}, None,
         "members[0].matrix[0][0]"),
        ("pauli", {"type": "pauli", "p": [True, False, False, False]}, None, "members[0].p[0]"),
        ("pauli", {"type": "pauli", "p": [1.0, 0.0, 0.0, BIG]}, None, "members[0].p[3]"),
        ("classical", {"type": "classical", "probs": [[1, 0], [0, True]]}, None, "members[0].probs[1][1]"),
        ("depolarized", {"type": "depolarized_unitary", "p": True, "matrix": IDENTITY}, None, "members[0].p"),
        ("pauli", {"type": "pauli", "p": [1, 0, 0, 0]}, {"tol": BIG}, "options.tol"),
        ("pauli", {"type": "pauli", "p": [1, 0, 0, 0]}, {"tol": True}, "options.tol"),
        ("pauli", {"type": "pauli", "p": [1, 0, 0, 0]}, {"tol": float("nan")}, "options.tol"),
    ],
    ids=["matrix-huge", "matrix-bool", "pauli-bool", "pauli-huge", "probs-bool", "depolarized-bool",
         "tol-huge", "tol-bool", "tol-nan"],
)
def test_number_fields_reject_booleans_and_out_of_range_values(kind, member, options, field,
                                                                tmp_path, capsys):
    path = write_family(tmp_path / "family.json", kind, [member], options)
    assert main(["decide", path]) == EXIT_ERROR
    assert field in capsys.readouterr().err


def test_masker_dimensions_reject_booleans(gate_family, tmp_path, capsys):
    path = tmp_path / "masker.json"
    path.write_text(json.dumps({"version": "1", "dims": {"dimA": True, "dimB": 2},
                                "matrix": _matrix_json(np.eye(2)[[0, 1]])}))
    assert main(["verify", gate_family, str(path)]) == EXIT_ERROR
    assert "dims.dimA" in capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize("argv", [["verify", "--tol", "5", "FAMILY", "FAMILY"],
                                      ["bloch", "--seed", "3", "FAMILY"]])
    def test_flags_a_command_does_not_read_are_rejected(self, gate_family, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([gate_family if a == "FAMILY" else a for a in argv])
        assert exc.value.code == EXIT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, options, name", [
        (["decide", "--tol", "-1", str(SAMPLES / "gate_family.json")], None, "--tol"),
        (["decide", "--tol", "inf", str(SAMPLES / "pauli_depolarizing.json")], None, "--tol"),
        (["synthesize", "--tol", "0", "FAMILY", "-o", "MASKER"], None, "--tol"),
        (["decide", "--seed", "-1", "FAMILY"], None, "--seed"),
        (["demo-classical", "--verify-tol", "nan"], None, "--verify-tol"),
        (["decide", "FAMILY"], {"seed": 1.5}, "options.seed"),
        (["decide", "FAMILY"], {"seed": -2}, "options.seed"),
        (["decide", "FAMILY"], {"tol": -1e-8}, "options.tol"),
        (["verify", "FAMILY", "MASKER"], {"verify_tol": 0}, "options.verify_tol"),
    ], ids=["tol-negative", "tol-inf", "tol-zero", "seed-negative", "verify-tol-nan",
            "option-seed-fraction", "option-seed-negative", "option-tol-negative", "option-verify-tol-zero"])
    def test_tolerances_and_seeds_are_checked_where_they_enter(self, argv, options, name, tmp_path, capsys):
        family = write_family(tmp_path / "family.json", "pauli", [{"type": "pauli", "p": [1, 0, 0, 0]}], options)
        masker = tmp_path / "masker.json"
        save_masker_file(masker, copy_masker(np.eye(2)))
        argv = [{"FAMILY": family, "MASKER": str(masker)}.get(a, a) for a in argv]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name}: must be")
        assert captured.out == ""


class TestBloch:
    def test_dephasing(self, tmp_path, capsys):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"type": "pauli", "p": [0.75, 0.0, 0.0, 0.25]}))
        assert main(["bloch", "--json", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["matrix"], np.diag([0.5, 0.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(payload["shift"], [0, 0, 0], atol=1e-12)
        assert payload["unital"] is True
        np.testing.assert_allclose(payload["fixed_points"], [[0, 0, 1], [0, 0, -1]], atol=1e-12)

    def test_amplitude_damping(self, tmp_path, capsys):
        path = tmp_path / "ad.json"
        gamma = 0.3
        k0 = [[[1, 0], [0, 0]], [[0, 0], [float(np.sqrt(1 - gamma)), 0]]]
        k1 = [[[0, 0], [float(np.sqrt(gamma)), 0]], [[0, 0], [0, 0]]]
        path.write_text(json.dumps({"type": "kraus", "ops": [k0, k1]}))
        assert main(["bloch", "--json", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["shift"], [0, 0, gamma], atol=1e-12)
        assert payload["unital"] is False

    def test_identity_family_file(self, tmp_path, capsys):
        members = [{"type": "unitary", "matrix": IDENTITY}]
        family = write_family(tmp_path / "id.json", "identity_family", members)
        assert main(["bloch", "--json", family]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["fixed_points"] == "all"

    def test_non_qubit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps({"type": "unitary", "matrix": _matrix_json(np.eye(3))}))
        assert main(["bloch", str(path)]) == EXIT_ERROR

    @pytest.mark.parametrize("p, diagonal, fixed_lines", [
        ([0.625, 0.125, 0.125, 0.125], "+0.5000000000  +0.5000000000  +0.5000000000",
         ["  pure fixed points: none"]),
        ([1.0, 0.0, 0.0, 0.0], "+1.0000000000  +1.0000000000  +1.0000000000",
         ["  pure fixed points: all directions"]),
        ([0.75, 0.0, 0.0, 0.25], "+0.5000000000  +0.5000000000  +1.0000000000",
         ["  pure fixed point: [+0.0000000000  +0.0000000000  +1.0000000000]",
          "  pure fixed point: [-0.0000000000  -0.0000000000  -1.0000000000]"]),
    ])
    def test_text_output(self, p, diagonal, fixed_lines, tmp_path, capsys):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"type": "pauli", "p": p}))
        assert main(["bloch", str(path)]) == EXIT_OK
        a = diagonal.split("  ")
        zero = "+0.0000000000"
        assert capsys.readouterr().out.splitlines() == [
            "Bloch affine action n -> A n + b",
            "  A:",
            f"    [{a[0]}  {zero}  {zero}]",
            f"    [{zero}  {a[1]}  {zero}]",
            f"    [{zero}  {zero}  {a[2]}]",
            f"  b: [{zero}  {zero}  {zero}]",
            "  unital: yes",
            *fixed_lines,
        ]

    def test_unital_by_the_deciders_rule(self, tmp_path, capsys):
        # |b| = 8e-9 is within the decision tolerance, so the identity pair is
        # maskable; |E(1) - 1| = sqrt(2)|b| is not, and must not be the test
        ops = amplitude_damping(0.8e-8).kraus_ops
        path = write_family(tmp_path / "weak.json", "identity_pair",
                            [{"type": "kraus", "ops": [_matrix_json(k) for k in ops]}])
        assert main(["decide", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["bloch", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["  unital: yes", "  pure fixed points: all directions"]
        assert main(["bloch", "--json", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["unital"] is True and payload["fixed_points"] == "all"

    def test_file_that_is_neither_payload_nor_family_exit_2(self, tmp_path, capsys):
        path = tmp_path / "neither.json"
        path.write_text(json.dumps({"version": "1"}))
        assert main(["bloch", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: channel file: expected a channel payload or a family file\n"


class TestDemoClassical:
    def test_default_swap_demo(self, capsys):
        assert main(["demo-classical", "--dim", "2", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["no_go"]["injection_count"] == 12
        assert payload["no_go"]["violating_all"] is True
        assert payload["quantum"]["verified"] is True
        assert payload["quantum"]["constant_marginal_deviation"] <= 1e-12

    def test_dimension_three(self, capsys):
        assert main(["demo-classical", "--dim", "3", "--perms", "0,1,2;1,2,0", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["no_go"]["violating_all"] is True
        assert payload["quantum"]["verified"] is True

    def test_degenerate_single_symbol(self, capsys):
        assert main(["demo-classical", "--dim", "1", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["no_go"]["violating_all"] is False

    def test_too_large_exit_2(self, capsys):
        assert main(["demo-classical", "--dim", "5"]) == EXIT_ERROR

    def test_bad_perm_exit_2(self, capsys):
        assert main(["demo-classical", "--dim", "2", "--perms", "0,0;1,0"]) == EXIT_ERROR


class TestOptions:
    def test_file_options_respected(self, tmp_path, capsys):
        # a loose decision tolerance accepts a slightly non-constant axis
        members = [
            {"type": "pauli", "p": [0.5, 0.5, 0.0, 0.0]},
            {"type": "pauli", "p": [0.4999, 0.5001, 0.0, 0.0]},
        ]
        strict = write_family(tmp_path / "strict.json", "pauli", members)
        assert main(["decide", strict]) == EXIT_OK  # x-axis sum exactly 1 for both
        members_bad = [
            {"type": "pauli", "p": [0.5, 0.2, 0.2, 0.1]},
            {"type": "pauli", "p": [0.501, 0.1995, 0.1995, 0.1]},
        ]
        loose = write_family(tmp_path / "loose.json", "pauli", members_bad, options={"tol": 0.01})
        assert main(["decide", loose]) == EXIT_OK
        capsys.readouterr()
        assert main(["decide", "--tol", "1e-8", loose]) == EXIT_NEGATIVE

    def test_unknown_option_rejected(self, tmp_path, capsys):
        members = [{"type": "pauli", "p": [1.0, 0.0, 0.0, 0.0]}]
        path = write_family(tmp_path / "opt.json", "pauli", members, options={"spice": 1})
        assert main(["decide", str(path)]) == EXIT_ERROR
