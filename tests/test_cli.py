import argparse
import copy
import errno
import gc
import json
import os
import pickle
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from channelmask import channels, cli, masking, verify
from channelmask.channels import Unitary, amplitude_damping
from channelmask.cli import (
    DECISION_TOL,
    EXIT_ERROR,
    EXIT_NEGATIVE,
    EXIT_OK,
    SchemaError,
    channel_from_json,
    decide_family,
    load_family_file,
    load_masker_file,
    main,
    save_masker_file,
    synthesize_family_masker,
)
from channelmask.linalg import BipartiteDims, isometry_defects
from channelmask.masking import Fourier, Masker, copy_masker, matrix_to_json

from helpers import (
    choi_reduced_chois,
    dephasing_about,
    random_commuting_family,
    random_density,
    random_isometry,
    random_unitary,
)

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

    @pytest.mark.parametrize("command", ["decide", "bloch"])
    @pytest.mark.parametrize("kind", [[], {}, 1, None], ids=["list", "object", "number", "null"])
    def test_a_kind_that_is_not_a_string_exit_2(self, command, kind, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"version": "1", "kind": kind, "members": [{"type": "unitary", "matrix": X}]}))
        assert main([command, str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: kind: must be one of gate, pauli, identity_pair, identity_family, depolarized, classical\n")

    def test_family_file_that_is_not_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text('{"version": "1", ')
        assert main(["decide", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON (")

    def test_an_overflowing_gram_matrix_is_refused_in_one_line(self, tmp_path):
        # the member's Gram matrix overflows to NaN; a fresh process prints any warning that numpy raises
        big = [[[1e200, 0], [1e200, 0]], [[1e200, 0], [-1e200, 0]]]
        path = write_family(tmp_path / "huge.json", "gate", [{"type": "unitary", "matrix": big},
                                                             {"type": "unitary", "matrix": _matrix_json(np.eye(2))}])
        done = subprocess.run([sys.executable, "-m", "channelmask.cli", "decide", path], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)},
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (
            EXIT_ERROR, "", "error: members[0]: unitary matrix is not unitary within 1e-10\n")

    def test_unknown_payload_type_exit_2(self, tmp_path, capsys):
        path = write_family(tmp_path / "qutrit.json", "gate", [{"type": "qutrit"}])
        assert main(["decide", path]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: members[0].type: must be one of unitary, kraus, pauli, classical, depolarized_unitary\n"
        )

    def test_decision_tolerance_does_not_bound_unitarity(self, tmp_path, capsys):
        # member 1 is unitary within 2.1e-11, inside a gate's 1e-10 bound,
        # and so is its relative gate; --tol 1e-11 bounds the commutators
        # and the eigenbasis, not unitarity
        rng = np.random.default_rng(3)
        basis = random_unitary(8, rng)
        us = [basis @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8))) @ basis.conj().T for _ in range(3)]
        us[1] = us[1] @ (np.eye(8) + 2e-12 * rng.standard_normal((8, 8)))
        family = write_family(tmp_path / "gate8.json", "gate",
                              [{"type": "unitary", "matrix": _matrix_json(u)} for u in us])
        assert main(["decide", "--tol", "1e-11", family]) == EXIT_OK

    def test_commuting_pairs_without_a_common_basis_are_refused(self, tmp_path, capsys):
        # {I, diag(1, e^{i eta}), exp(i delta X)}, eta = delta = 1e-4: the one
        # commutator, 1.4e-8, is within tol * d = 2e-8, but no basis
        # diagonalizes both relative gates within it
        eta = delta = 1e-4
        x = np.array([[0, 1], [1, 0]])
        gates = [np.eye(2), np.diag([1, np.exp(1j * eta)]), np.cos(delta) * np.eye(2) + 1j * np.sin(delta) * x]
        family = write_family(tmp_path / "near.json", "gate",
                              [{"type": "unitary", "matrix": _matrix_json(u)} for u in gates])
        assert main(["decide", "--json", family]) == EXIT_NEGATIVE
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness["type"] == "no_common_basis" and witness["residual"] > 2 * DECISION_TOL
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_NEGATIVE
        assert not out.exists()

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

    def test_dense_masker_above_dimension_sixteen_is_reported(self, tmp_path, capsys):
        # a non-copy masker at d = 32 gets a report (exit 1), not a refusal (exit 2)
        rng = np.random.default_rng(32)
        fam = random_commuting_family(rng, 32, 2)
        family = write_family(tmp_path / "gate32.json", "gate",
                              [{"type": "unitary", "matrix": _matrix_json(m.matrix)} for m in fam])
        masker = Masker(random_isometry(rng, 32 * 33, 32), BipartiteDims(32, 33))
        save_masker_file(tmp_path / "dense.json", masker)
        assert main(["verify", "--json", family, str(tmp_path / "dense.json")]) == EXIT_NEGATIVE
        report = json.loads(capsys.readouterr().out)
        (a0, b0), (a1, b1) = (choi_reduced_chois(load_masker_file(tmp_path / "dense.json"), m) for m in fam)
        assert abs(report["max_deviation_a"] - np.linalg.norm(a0 - a1)) <= 1e-12
        assert abs(report["max_deviation_b"] - np.linalg.norm(b0 - b1)) <= 1e-12
        assert report["passed"] is False

    def test_classical_family_with_a_large_output_verifies_in_little_memory(self, tmp_path, capsys):
        # in_size 1 and out_size 40: the Fourier copy masker has D = 1600, so one stacked product
        # M E(X) M^dag would hold 1600**2 entries (41 MB); verify compares the copy blocks instead
        rng = np.random.default_rng(40)
        members = [{"type": "classical", "probs": [[float(p)] for p in rng.dirichlet(np.ones(40))]}
                   for _ in range(2)]
        family = write_family(tmp_path / "classical40.json", "classical", members)
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["verify", "--json", family, str(out)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert peak < 16 * 2**20

    def test_dense_masker_at_input_dimension_four_builds_no_large_array(self, tmp_path, capsys):
        # a dense isometry on 36 x 36 (D = 1296) at din = 4: one stacked product would hold 1296**2
        # entries; under a peak of 16 MB no array of 2**20 complex entries is built
        rng = np.random.default_rng(36)
        fam = random_commuting_family(rng, 4, 3)
        family = write_family(tmp_path / "gate4.json", "gate",
                              [{"type": "unitary", "matrix": _matrix_json(m.matrix)} for m in fam])
        save_masker_file(tmp_path / "dense.json", Masker(random_isometry(rng, 36 * 36, 4), BipartiteDims(36, 36)))
        tracemalloc.start()
        try:
            assert main(["verify", "--json", family, str(tmp_path / "dense.json")]) == EXIT_NEGATIVE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        report = json.loads(capsys.readouterr().out)
        views = [choi_reduced_chois(load_masker_file(tmp_path / "dense.json"), m) for m in fam]
        for side, key in ((0, "max_deviation_a"), (1, "max_deviation_b")):
            expected = max(np.linalg.norm(views[i][side] - views[j][side]) for i in range(3) for j in range(i + 1, 3))
            assert abs(report[key] - expected) <= 1e-12

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


def _json_layout(masker) -> bytes:
    """The bytes ``json`` writes for ``masker``: the layout every masker file has."""
    payload = {"version": "1", "dims": {"dimA": masker.dims.dim_a, "dimB": masker.dims.dim_b},
               "matrix": matrix_to_json(masker.matrix)}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@pytest.fixture(scope="module")
def masker_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bytes") / "masker.json"


def _assert_saved_as_json_writes_it(masker, path, loads_back=True):
    save_masker_file(path, masker)
    written = path.read_bytes()
    assert written == _json_layout(masker)
    if loads_back:
        loaded = load_masker_file(path)
        assert np.array_equal(loaded.matrix, masker.matrix) and loaded.dims == masker.dims
        save_masker_file(path, loaded)  # the signs of zeros survive too
        assert path.read_bytes() == written


class TestMaskerFileBytes:
    """``save_masker_file`` writes exactly what ``json.dumps(indent=2, sort_keys=True)`` writes."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 16), dim_a=st.integers(1, 5), extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    @example(d=6, dim_a=2, extra=1, seed=0)
    def test_random_isometry(self, masker_path, d, dim_a, extra, seed):
        dim_b = -(-d // dim_a) + extra
        matrix = random_isometry(np.random.default_rng(seed), dim_a * dim_b, d)
        _assert_saved_as_json_writes_it(Masker(matrix, BipartiteDims(dim_a, dim_b)), masker_path)

    def test_zeros_subnormals_and_exponents_load_back(self, masker_path):
        matrix = np.zeros((4, 2), dtype=complex)
        matrix[0, 0] = complex(1.0, -0.0)
        matrix[1, 0] = complex(-0.0, 5e-324)
        matrix[2, 0] = complex(2.2e-308, -1e-7)
        matrix[3, 1] = complex(-1.0, 1e-16)
        _assert_saved_as_json_writes_it(Masker(matrix, BipartiteDims(2, 2)), masker_path)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8))
    @example([-0.0, 5e-324, 1e16, 1e-7, 2.0, -3.0, 1e308, 2.2e-308])
    def test_every_finite_float(self, masker_path, values):
        # an in-place edit skips Masker's isometry check, so the writer sees any finite entry
        masker = copy_masker(np.eye(2))
        masker.matrix[:2] = np.array(values).view(complex).reshape(2, 2)
        _assert_saved_as_json_writes_it(masker, masker_path, loads_back=False)

    def test_masker_without_columns_is_refused(self):
        with pytest.raises(ValueError, match="^masker matrix has no columns$"):
            Masker(np.zeros((4, 0)), BipartiteDims(2, 2))

    def test_masker_of_every_maskable_sample(self, masker_path):
        maskers = 0
        for path in sorted(SAMPLES.glob("*.json")):
            family = load_family_file(path)
            decision = decide_family(family, DECISION_TOL, 0)
            if decision.maskable:
                _assert_saved_as_json_writes_it(synthesize_family_masker(family, decision), masker_path)
                maskers += 1
        assert maskers == 6

    def test_non_finite_entry_is_refused_not_written(self, tmp_path):
        masker = copy_masker(np.eye(2))
        masker.matrix[0, 0] = np.nan
        path = tmp_path / "masker.json"
        with pytest.raises(ValueError, match="masker matrix has non-finite entries"):
            save_masker_file(path, masker)
        assert not path.exists()


class TestMaskerFileInPlace:
    """``save_masker_file`` rewrites an existing file in place, as ``open(path, "w")`` writes it but
    without cutting the file to zero first; devices, pipes and errors behave as they did under ``open``."""

    SMALL, LARGE = copy_masker(np.eye(2)), copy_masker(np.eye(4))

    def test_overwrite_keeps_the_inode_and_mode(self, tmp_path):
        path = tmp_path / "masker.json"
        path.write_text("old")
        path.chmod(0o600)
        before = path.stat()
        save_masker_file(path, self.SMALL)
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
        assert path.read_bytes() == _json_layout(self.SMALL)

    def test_symlink_stays_and_its_target_gets_the_bytes(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        save_masker_file(link, self.SMALL)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == _json_layout(self.SMALL)

    def test_a_longer_old_file_loses_its_tail(self, tmp_path):
        path = tmp_path / "masker.json"
        save_masker_file(path, self.LARGE)
        save_masker_file(path, self.SMALL)
        payload = {"version": "1", "dims": {"dimA": 2, "dimB": 2}, "matrix": matrix_to_json(self.SMALL.matrix)}
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert len(_json_layout(self.LARGE)) > path.stat().st_size

    def test_a_new_file_gets_0o666_less_the_umask(self, tmp_path):
        path = tmp_path / "masker.json"
        umask = os.umask(0o027)
        try:
            save_masker_file(path, self.SMALL)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027

    def test_dev_null_and_a_fifo_are_written_to(self, tmp_path):
        save_masker_file(os.devnull, self.SMALL)
        fifo = tmp_path / "masker.fifo"
        os.mkfifo(fifo)
        read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so the writer's open does not block
        try:
            save_masker_file(fifo, self.SMALL)  # smaller than the pipe buffer
            assert os.read(read_end, 1 << 16) == _json_layout(self.SMALL)
        finally:
            os.close(read_end)

    def test_a_directory_is_an_input_error(self, tmp_path, capsys):
        argv = ["synthesize", str(SAMPLES / "gate_family.json"), "-o", str(tmp_path)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_a_write_that_fails_partway_leaves_no_old_bytes(self, tmp_path):
        path = tmp_path / "masker.json"
        save_masker_file(path, self.LARGE)
        write = os.write

        def full_disk(fd, data):
            write(fd, data[:100])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with mock.patch.object(cli.os, "write", full_disk), pytest.raises(OSError, match="No space left"):
            save_masker_file(path, self.SMALL)
        assert path.read_bytes() == b""

    def test_non_finite_refusal_leaves_an_existing_file_as_it_was(self, tmp_path):
        path = tmp_path / "masker.json"
        save_masker_file(path, self.LARGE)
        masker = copy_masker(np.eye(2))
        masker.matrix[0, 0] = np.inf
        with pytest.raises(ValueError, match="masker matrix has non-finite entries"):
            save_masker_file(path, masker)
        assert path.read_bytes() == _json_layout(self.LARGE)


def _loaded(path):
    """What ``load_masker_file`` gives: the matrix bits, its shape and the dims, which must be Python ints,
    or the exception's type and message."""
    try:
        masker = load_masker_file(path)
    except Exception as exc:  # every failure is compared, not only schema errors
        return type(exc), str(exc)
    assert type(masker.dims.dim_a) is type(masker.dims.dim_b) is int
    return masker.matrix.view(np.uint64).tobytes(), masker.matrix.shape, masker.dims


def _loaded_by_json(path):
    """:func:`_loaded` with the layout scan turned off, so every file goes through ``json``."""
    with mock.patch.object(cli, "_masker_from_layout", lambda text: None):
        return _loaded(path)


def _loaded_by_row_scan(path, monkeypatch):
    """:func:`_loaded` with the whole-file ``json`` reader and the row writer refused, and the number of
    ``json.loads`` calls the read made."""
    loads, calls = json.loads, []

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the reader rendered rows or read the whole file with json")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_json_object", refuse)
        patch.setattr(cli, "_masker_rows", refuse)
        patch.setattr(cli.json, "loads", counted)
        return _loaded(path), len(calls)


@st.composite
def _maskers(draw):
    """Copy maskers of random bases and dense isometries (``dimA != dimB`` too, given as Python or numpy
    integers), some with one zero row set to subnormals, ``1e-07`` or only ``-0.0`` bits: every such
    masker is an isometry within 1e-9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        masker = copy_masker(random_unitary(d, rng))
    else:
        dim_a = draw(st.integers(1, 3))
        dim_b = -(-d // dim_a) + draw(st.integers(0, 2))
        integer = draw(st.sampled_from([int, np.int64, np.int32, np.uint8]))
        masker = Masker(random_isometry(rng, dim_a * dim_b, d), BipartiteDims(integer(dim_a), integer(dim_b)))
    zero_rows = np.flatnonzero(~masker.matrix.any(axis=1)).tolist()
    if zero_rows:
        entry = draw(st.sampled_from([None, complex(-0.0, -0.0), complex(0.0, -0.0), complex(5e-324, 0.0),
                                      complex(2.2e-308, -1e-7), complex(1e-07, 0.0)]))
        if entry is not None:
            masker.matrix[draw(st.sampled_from(zero_rows))] = entry
    return masker


def _rewritten(text, edit):
    """``text`` decoded, changed in place by ``edit`` and written in the writer's layout again."""
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_NUMBER_LINE = r"(\n        )(-?[0-9][^,\n]*)"
_MUTATIONS = {
    "indent-4": lambda t: json.dumps(json.loads(t), indent=4, sort_keys=True) + "\n",
    "compact": lambda t: json.dumps(json.loads(t), sort_keys=True),
    "no-final-newline": lambda t: t[:-1],
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "int-zero": lambda t: re.sub(r"(\n        )0\.0(,?\n)", r"\g<1>0\2", t, count=1),
    "exponent-with-point": lambda t: re.sub(r"(\n        -?[0-9])e", r"\1.0e", t, count=1),
    "trailing-digit": lambda t: re.sub(r"(\n        -?[0-9]+\.[0-9]+)(,?\n)", r"\g<1>0\2", t, count=1),
    "short-exponent": lambda t: re.sub(r"(\n        [^,\n]*e-)0", r"\1", t, count=1),
    "leading-point": lambda t: re.sub(r"(\n        -?)0\.", r"\1.", t, count=1),
    "plus-sign": lambda t: re.sub(_NUMBER_LINE, r"\1+\2", t, count=1),
    "underscore": lambda t: re.sub(r"(\n        -?[0-9]+\.[0-9])([0-9])", r"\1_\2", t, count=1),
    "int-negative-zero": lambda t: re.sub(r"(\n        )-0\.0(,?\n)", r"\g<1>-0\2", t, count=1),
    "NaN": lambda t: re.sub(_NUMBER_LINE, r"\1NaN", t, count=1),
    "nan": lambda t: re.sub(_NUMBER_LINE, r"\1nan", t, count=1),
    "Infinity": lambda t: re.sub(_NUMBER_LINE, r"\1Infinity", t, count=1),
    "huge": lambda t: re.sub(_NUMBER_LINE, r"\g<1>1e999", t, count=1),
    "ragged-row": lambda t: _rewritten(t, lambda p: p["matrix"][-1].pop()),
    "short-pair": lambda t: _rewritten(t, lambda p: p["matrix"][0][0].pop()),
    "blank-rows": lambda t: _rewritten(t, lambda p: [row.clear() for row in p["matrix"]]).replace(
        "    []", "    [\n\n    ]"),
    "extra-key": lambda t: _rewritten(t, lambda p: p.update(note="x")),
    "reordered-keys": lambda t: json.dumps(dict(reversed(json.loads(t).items())), indent=2) + "\n",
    "dimA-float": lambda t: re.sub(r'"dimA": ([0-9]+)', r'"dimA": \1.0', t),
    "dimA-true": lambda t: re.sub(r'"dimA": [0-9]+', '"dimA": true', t),
    "dimA-leading-zero": lambda t: re.sub(r'"dimA": ([0-9]+)', r'"dimA": 0\1', t),
    "dimB-plus-one": lambda t: re.sub(r'"dimB": ([0-9]+)', lambda m: f'"dimB": {int(m[1]) + 1}', t),
    "version-2": lambda t: t.replace('"version": "1"', '"version": "2"'),
    "uppercase-E": lambda t: re.sub(r"(\n        -?[0-9][^,\n]*)e", r"\1E", t, count=1),
    "exponent-leading-zeros": lambda t: re.sub(r"(\n        [^,\n]*e-)", r"\g<1>00", t, count=1),
    "trailing-zero-after-nonzero": lambda t: re.sub(r"(\n        -?[0-9]+\.[0-9]*[1-9])(,?\n)", r"\g<1>0\2", t,
                                                    count=1),
    "1E+16": lambda t: re.sub(_NUMBER_LINE, r"\g<1>1E+16", t, count=1),
    "trailing-comma-in-row": lambda t: t.replace("\n      ]\n    ],", "\n      ],\n\n    ],", 1),
    "leading-zero": lambda t: re.sub(r"(\n        -?)([0-9])", r"\g<1>0\2", t, count=1),
}
# JSON float spellings other than repr's, which the row scan reads as json does
_SPELLINGS = ("uppercase-E", "exponent-leading-zeros", "trailing-zero-after-nonzero", "1E+16",
              "exponent-with-point", "short-exponent")


class TestMaskerFileReader:
    """A masker file in the writer's bytes is read row by row; any other text goes through ``json``,
    with the same masker, or the same exception type and message."""

    @settings(max_examples=30, deadline=None)
    @given(masker=_maskers())
    @example(masker=copy_masker(np.eye(3)))
    @example(masker=Masker(np.array([[1, 0], [-0.0, 0], [0, 1], [0, -0.0]]), BipartiteDims(2, 2)))
    def test_layout_scan_and_json_agree_on_written_and_mutated_files(self, masker_path, masker):
        save_masker_file(masker_path, masker)
        text = masker_path.read_text()
        assert cli._masker_from_layout(text) is not None
        written = _loaded(masker_path)
        assert written == (masker.matrix.view(np.uint64).tobytes(), masker.matrix.shape, masker.dims)
        assert _loaded_by_json(masker_path) == written
        for name, mutate in _MUTATIONS.items():
            masker_path.write_bytes(mutate(text).encode())
            assert _loaded(masker_path) == _loaded_by_json(masker_path), name

    def test_a_file_without_columns_is_refused(self, masker_path):
        masker_path.write_text('{\n  "dims": {\n    "dimA": 2,\n    "dimB": 2\n  },\n  "matrix": [\n'
                               + ",\n".join(["    []"] * 4) + '\n  ],\n  "version": "1"\n}\n')
        with pytest.raises(SchemaError, match=r"^matrix: row 0 must be a non-empty list$"):
            load_masker_file(masker_path)

    def test_row_of_negative_zeros_survives_save_load_save(self, masker_path):
        masker = copy_masker(np.eye(2))
        masker.matrix[1] = complex(-0.0, -0.0)
        save_masker_file(masker_path, masker)
        written = masker_path.read_bytes()
        assert written.count(b"-0.0") == 4
        loaded = load_masker_file(masker_path)
        assert np.array_equal(loaded.matrix.view(np.uint64), masker.matrix.view(np.uint64))
        save_masker_file(masker_path, loaded)
        assert masker_path.read_bytes() == written

    @pytest.mark.parametrize("entry", [complex(np.inf, 0.0), complex(0.0, -np.inf), complex(0.0, np.nan)])
    def test_non_finite_entries_in_zero_rows_are_refused(self, tmp_path, entry):
        masker = copy_masker(np.eye(2))
        masker.matrix[1, 0] = entry
        path = tmp_path / "masker.json"
        with pytest.raises(ValueError, match="^masker matrix has non-finite entries$"):
            save_masker_file(path, masker)
        assert not path.exists()

    def test_written_maskers_are_read_one_nonzero_row_at_a_time(self, tmp_path, monkeypatch, capsys):
        paths = []
        for sample in sorted(SAMPLES.glob("*.json")):
            out = tmp_path / f"{sample.stem}.masker.json"
            if main(["synthesize", str(sample), "-o", str(out)]) == EXIT_OK:
                paths.append(out)
        paths.append(tmp_path / "copy16.masker.json")
        save_masker_file(paths[-1], copy_masker(random_unitary(16, np.random.default_rng(16))))
        assert len(paths) == 7
        expected = [_loaded_by_json(path) for path in paths]
        nonzero_rows = [int(load_masker_file(path).matrix.any(axis=1).sum()) for path in paths]
        assert nonzero_rows[-1] == 16
        assert [_loaded_by_row_scan(path, monkeypatch) for path in paths] == list(zip(expected, nonzero_rows))


class TestMaskerRowScan:
    """Each nonzero masker row is parsed on its own by ``json`` and the rows are read into one array as
    every other matrix is; a row that ``json`` refuses or that is not a row of ``[re, im]`` pairs sends
    the whole file through ``json``."""

    @staticmethod
    def _written(path):
        """The text of a masker with negative exponents, subnormals and long mantissas in its rows."""
        masker = copy_masker(random_unitary(2, np.random.default_rng(7)))
        masker.matrix[1] = complex(1e-07, 5e-324)
        masker.matrix[2, 1] = complex(-2.2e-308, -0.0)
        save_masker_file(path, masker)
        return path.read_text()

    @staticmethod
    def _assert_scanned_as_json_reads_it(path, mutated):
        layout = cli._masker_from_layout(mutated)
        assert layout is not None
        by_json = cli._matrix_from_json(json.loads(mutated)["matrix"], "matrix")
        assert layout[0].view(np.uint64).tobytes() == by_json.view(np.uint64).tobytes()
        path.write_text(mutated)
        assert _loaded(path) == _loaded_by_json(path)

    @pytest.mark.parametrize("name", _SPELLINGS)
    def test_json_float_spellings_are_read_by_the_row_scan_as_json_reads_them(self, masker_path, name):
        text = self._written(masker_path)
        mutated = _MUTATIONS[name](text)
        assert mutated != text
        self._assert_scanned_as_json_reads_it(masker_path, mutated)

    @pytest.mark.parametrize("name", ["trailing-comma-in-row", "leading-zero", "ragged-row", "short-pair",
                                      "plus-sign"])
    def test_rows_out_of_the_layout_go_to_json(self, masker_path, name):
        text = self._written(masker_path)
        mutated = _MUTATIONS[name](text)
        assert mutated != text
        assert cli._masker_from_layout(mutated) is None
        masker_path.write_text(mutated)
        assert _loaded(masker_path) == _loaded_by_json(masker_path)

    @pytest.mark.parametrize("rows, message", [
        # parsed together, these rows would read as [[1.0, 0.0], [0.0, 0.0]] and [[0.0, 0.0], [0.0, 1.0]],
        # an isometry; in the file the zero row between them sits inside a row
        (("[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0", "0.0, 1.0]"), "matrix: row 2 has 3 entries, expected 2"),
        (("[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]", "[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]"),
         "matrix: row 1 has 3 entries, expected 2"),
        (("[" * 100000 + "]" * 100000, "[0.0, 0.0], [1.0, 0.0]"),
         "{path}: not valid JSON (maximum recursion depth exceeded"),
    ], ids=["brackets-across-rows", "wider-than-the-zero-rows", "deeply-nested"])
    def test_rows_that_the_whole_file_refuses_go_to_json(self, masker_path, rows, message):
        zero = cli._zero_row(2)
        text = cli._MASKER_HEAD % (2, 2) + cli._ROW_SEP.join([zero, rows[0], zero, rows[1]]) + cli._MASKER_TAIL
        assert cli._masker_from_layout(text) is None
        masker_path.write_text(text)
        loaded = _loaded(masker_path)
        assert loaded == _loaded_by_json(masker_path)
        assert loaded[0] is SchemaError and loaded[1].startswith(message.format(path=masker_path))

    def test_a_first_row_of_brackets_builds_no_zero_row_longer_than_the_file(self, masker_path):
        # 200000 "[" would make a 12 MB zero row; no row of a 0.4 MB file can be that long
        masker_path.write_text(cli._MASKER_HEAD % (1, 2) + "[" * 200000 + "]" * 200000 + cli._MASKER_TAIL)
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError) as refused:
                load_masker_file(masker_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value).startswith(f"{masker_path}: not valid JSON (maximum recursion depth exceeded")
        assert peak < 2_000_000

    @pytest.mark.parametrize("token", ["0", "-0", "1"])
    @pytest.mark.parametrize("row", [0, 1], ids=["nonzero-row", "zero-row"])
    def test_integer_tokens_are_read_by_the_row_scan_as_json_reads_them(self, masker_path, token, row):
        save_masker_file(masker_path, copy_masker(np.eye(2)))
        lines = masker_path.read_text().split("\n")
        number = [i for i, line in enumerate(lines) if re.fullmatch(r" {8}-?[0-9.]+,?", line)][row * 4]
        lines[number] = lines[number].replace(lines[number].strip(" ,"), token)
        self._assert_scanned_as_json_reads_it(masker_path, "\n".join(lines))

    @pytest.mark.parametrize("masker, nonzero_rows", [
        (copy_masker(random_unitary(16, np.random.default_rng(16))), 16),
        (Masker(np.eye(4)[:, :2], BipartiteDims(2, 2)), 2),
    ], ids=["copy16", "last-rows-zero"])
    def test_written_masker_is_read_with_one_json_parse_per_nonzero_row(self, masker_path, monkeypatch, masker,
                                                                        nonzero_rows):
        save_masker_file(masker_path, masker)
        loaded, parses = _loaded_by_row_scan(masker_path, monkeypatch)
        assert loaded[0] == masker.matrix.view(np.uint64).tobytes() and parses == nonzero_rows


@pytest.mark.parametrize("role", ["decide", "verify-family", "verify-masker", "bloch"])
def test_deeply_nested_json_is_an_input_error(role, gate_family, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    masker = tmp_path / "masker.json"
    save_masker_file(masker, copy_masker(np.eye(2)))
    argv = {"decide": ["decide", str(deep)], "verify-family": ["verify", str(deep), str(masker)],
            "verify-masker": ["verify", gate_family, str(deep)], "bloch": ["bloch", str(deep)]}[role]
    assert main(argv) == EXIT_ERROR
    assert f"error: {deep}: not valid JSON (maximum recursion depth exceeded" in capsys.readouterr().err


# Over Python's limit of 4300 digits for an int read from a string, so json.loads raises ValueError.
_LONG_INTEGER = "7" * 5001


@pytest.mark.parametrize("role, content", [
    ("decide", "long-integer"), ("decide-large", "long-integer"), ("verify-masker", "long-integer"),
    ("bloch", "long-integer"), ("decide", "not-utf-8"), ("verify-masker", "not-utf-8"), ("bloch", "not-utf-8"),
])
def test_a_file_json_cannot_read_is_refused_with_its_path(role, content, gate_family, big_gate_document, tmp_path,
                                                          capsys):
    bad = tmp_path / "bad.json"
    if role == "verify-masker":
        save_masker_file(bad, copy_masker(np.eye(2)))
        text = bad.read_text().replace("1.0", _LONG_INTEGER, 1)  # in the first nonzero row
        assert cli._masker_from_layout(text) is None
    elif role == "decide-large":
        text = _entry("@" + _LONG_INTEGER)(copy.deepcopy(big_gate_document))
        assert len(text) >= cli._ORJSON_MIN and cli._family_by_orjson(text) is None
    else:
        text = Path(gate_family).read_text()[:-1] + ', "pad": ' + _LONG_INTEGER + "}"
    bad.write_bytes(b"\xff\xfe" + text.encode() if content == "not-utf-8" else text.encode())
    argv = {"decide": ["decide", str(bad)], "decide-large": ["decide", str(bad)],
            "verify-masker": ["verify", gate_family, str(bad)], "bloch": ["bloch", str(bad)]}[role]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid JSON (")
    assert ("Exceeds the limit (4300 digits)" if content == "long-integer" else "can't decode byte 0xff") in err


def _entry_cases(tmp_path):
    """A maskable sample (exit 0), a sample that is refused (exit 1) and a malformed file (exit 2)."""
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"version": "1", "kind": [], "members": [{"type": "unitary", "matrix": X}]}))
    return [(["decide", str(SAMPLES / "gate_family.json")], EXIT_OK),
            (["decide", "--json", str(SAMPLES / "pauli_depolarizing.json")], EXIT_NEGATIVE),
            (["decide", str(odd)], EXIT_ERROR)]


class TestProcessEntry:
    """``run`` ends a command's process: ``main``, then ``gc.freeze()``; ``main`` leaves the collector alone,
    so that a long-lived caller keeps collecting its cyclic garbage."""

    @pytest.fixture(autouse=True)
    def unfrozen(self):
        yield
        gc.unfreeze()

    def test_main_leaves_the_collector_as_it_was(self, tmp_path, capsys):
        for argv, code in _entry_cases(tmp_path):
            before = gc.get_freeze_count()
            assert main(argv) == code
            assert gc.get_freeze_count() == before

    def test_run_returns_the_exit_code_of_main_and_freezes_the_collector(self, tmp_path, capsys, monkeypatch):
        for argv, code in _entry_cases(tmp_path):
            gc.unfreeze()
            monkeypatch.setattr(sys, "argv", ["channelmask", *argv])
            assert cli.run() == code
            assert gc.get_freeze_count() > 0

    def test_a_process_prints_the_bytes_that_main_prints(self, tmp_path, capsys):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        for argv, code in _entry_cases(tmp_path):
            assert main(argv) == code
            out, err = capsys.readouterr()
            done = subprocess.run([sys.executable, "-m", "channelmask.cli", *argv], capture_output=True, env=env,
                                  cwd=tmp_path, timeout=120)
            assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())


_READERS = {"family": load_family_file, "masker": load_masker_file, "channel": cli._load_single_channel}


def _reader_cases(tmp_path, role):
    """A file the reader reads, then the files it refuses: invalid JSON, JSON nested too deep, a schema
    error, and no file at all."""
    good = tmp_path / "good.json"
    if role == "masker":
        save_masker_file(good, copy_masker(random_unitary(4, np.random.default_rng(4))))
    elif role == "family":
        write_family(good, "gate", [{"type": "unitary", "matrix": m} for m in (X, XZ, X_SQRT_Z)])
    else:
        good.write_text(json.dumps({"type": "kraus", "ops": [X]}))
    schema = {"family": {"version": "1", "kind": "gate", "members": []},
              "masker": {"version": "1", "dims": {"dimA": 2, "dimB": 2}, "matrix": []},
              "channel": {"neither": "payload nor family"}}[role]
    texts = {"not_json": "{", "too_deep": "[" * 100000 + "]" * 100000, "schema": json.dumps(schema)}
    bad = []
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
        bad.append(tmp_path / f"{name}.json")
    return good, [*bad, tmp_path / "missing.json"]


def _read(role, path):
    """What the reader builds from ``path``, pickled so that arrays compare bit for bit, or its error."""
    try:
        return pickle.dumps(_READERS[role](path))
    except (SchemaError, OSError) as exc:
        return type(exc), str(exc)


def _collections_during(read, path) -> int:
    starts = []

    def seen(phase, info):
        starts.append(phase == "start")

    gc.callbacks.append(seen)
    try:
        read(path)
    finally:
        gc.callbacks.remove(seen)
    return sum(starts)


@pytest.mark.parametrize("role", list(_READERS))
class TestReadsPauseTheCollector:
    """Each file reader runs with the cyclic collector off and turns it back on, if it was on, once the
    parsed document is freed: a collection during a read would only walk and promote the parsed lists."""

    def test_the_collector_is_on_again_after_every_read(self, role, tmp_path):
        good, bad = _reader_cases(tmp_path, role)
        assert isinstance(_read(role, good), bytes) and gc.isenabled()
        for path in bad:
            assert not isinstance(_read(role, path), bytes)
            assert gc.isenabled(), path.name

    def test_a_caller_that_turned_the_collector_off_finds_it_off(self, role, tmp_path):
        good, bad = _reader_cases(tmp_path, role)
        gc.disable()
        try:
            for path in [good, *bad]:
                _read(role, path)
                assert not gc.isenabled(), path.name
        finally:
            gc.enable()

    def test_reads_are_bit_identical_with_the_collector_off_at_entry(self, role, tmp_path):
        good, bad = _reader_cases(tmp_path, role)
        collecting = [_read(role, path) for path in [good, *bad]]
        gc.disable()
        try:
            paused = [_read(role, path) for path in [good, *bad]]
        finally:
            gc.enable()
        assert paused == collecting
        assert [error[0] for error in collecting[1:]] == [SchemaError] * 3 + [FileNotFoundError]

    def test_a_d16_n32_read_runs_no_collection(self, role, tmp_path):
        us = [u.matrix for u in random_commuting_family(np.random.default_rng(32), 16, 32)]
        path = tmp_path / "big.json"
        if role == "masker":
            save_masker_file(path, copy_masker(us[1]))
        else:
            write_family(path, "gate", [{"type": "unitary", "matrix": _matrix_json(u)} for u in us])
        read = _READERS[role]
        assert gc.isenabled()
        if role == "family":  # unpaused, the same read collects
            assert _collections_during(read.__wrapped__, path) > 0
        assert _collections_during(read, path) == 0


@pytest.mark.parametrize("size", ["d16", "sample"])
def test_a_closed_stdout_ends_quietly_with_the_sigpipe_code(size, tmp_path):
    # d=16: the report outgrows the stdout buffer, so the write inside the command fails; a sample's
    # short text report fails in the flush after it
    if size == "d16":
        members = [{"type": "unitary", "matrix": _matrix_json(u.matrix)}
                   for u in random_commuting_family(np.random.default_rng(16), 16, 8)]
        argv = ["decide", "--json", write_family(tmp_path / "big.json", "gate", members)]
    else:
        argv = ["decide", str(SAMPLES / "gate_family.json")]
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    try:
        done = subprocess.run([sys.executable, "-m", "channelmask.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)},
                              timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 141


@pytest.mark.parametrize("command, imports_random", [("decide", False), ("synthesize", False), ("verify", False),
                                                     ("demo-classical", True)])
def test_only_demo_classical_imports_numpy_random(command, imports_random, tmp_path, capsys):
    # numpy.random brings secrets, hashlib and OpenSSL with it; the gate draws are the package's own
    # stream, and demo-classical's random channels (rng.dirichlet) are its one use left
    gate = str(SAMPLES / "gate_family.json")
    masker = str(tmp_path / "masker.json")
    assert main(["synthesize", gate, "-o", masker]) == EXIT_OK
    capsys.readouterr()
    argv = {"decide": ["decide", gate], "synthesize": ["synthesize", gate, "-o", str(tmp_path / "out.json")],
            "verify": ["verify", gate, masker], "demo-classical": ["demo-classical", "--dim", "2"]}[command]
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "channelmask.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)},
                          timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "channelmask.masking" in imported  # the list is read: -m runs channelmask.cli as __main__
    assert ("numpy.random" in imported) == imports_random


@pytest.mark.parametrize("run, imports_orjson", [("import", False), ("sample", False), ("d16-n32", True)])
def test_only_a_family_file_of_256_kib_imports_orjson(run, imports_orjson, big_gate_document, tmp_path):
    # orjson's import costs about what it saves on one such parse, so start-up and small files go without it
    if run == "import":
        argv = ["-c", "import channelmask"]
    else:
        family = SAMPLES / "gate_family.json"
        if run == "d16-n32":
            family = tmp_path / "big.json"
            family.write_text(json.dumps(big_gate_document))
        argv = ["-m", "channelmask.cli", "decide", str(family)]
    done = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)},
                          timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "channelmask" in imported
    assert ("orjson" in imported) == imports_orjson


def _read_family(raw):
    """What ``_family_from_json`` gives: the kind and each member's type, matrix bits and ``p`` bits, or the
    exception's type and message."""
    try:
        family = cli._family_from_json(raw)
    except Exception as exc:  # every failure is compared, not only schema errors
        return type(exc), str(exc)
    return family.kind, [(type(m).__name__, m.matrix.shape, m.matrix.tobytes(), np.float64(getattr(m, "p", 0)).tobytes())
                         for m in family.members]


def _read_member_by_member(raw):
    """:func:`_read_family` with the stacked read turned off."""
    with mock.patch.object(cli, "_gates_from_json", lambda members: None):
        return _read_family(raw)


@st.composite
def _gate_documents(draw):
    """Gate and depolarized family documents, ``d`` 1-8 and ``n`` 1-6: Haar unitaries as floats and signed
    permutations as integers or with ``-0.0`` parts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        form = draw(st.sampled_from(["haar", "integers", "negative-zeros"]))
        if form == "haar":
            matrix = matrix_to_json(random_unitary(d, rng))
        else:
            zero = [0, 0] if form == "integers" else [-0.0, -0.0]
            matrix = [[list(zero) for _ in range(d)] for _ in range(d)]
            for column, (row, sign) in enumerate(zip(rng.permutation(d), rng.choice([-1, 1], d))):
                matrix[row][column] = [int(sign), 0] if form == "integers" else [float(sign), -0.0]
        members.append({"type": "unitary", "matrix": matrix})
    if draw(st.booleans()):
        p = draw(st.sampled_from([0, 1, 0.25, -0.0, -1e-13, 1 + 1e-13]))
        for member in members:
            member.update(type="depolarized_unitary", p=p)
        return {"version": "1", "kind": "depolarized", "members": members}
    return {"version": "1", "kind": "gate", "members": members}


def _at_gram_norm(member, norm):
    """``member``'s matrix scaled by ``1 + eps``, so that ``|U^dag U - 1|`` is about ``norm``."""
    u = np.array(member["matrix"], dtype=float).view(complex)[..., 0]
    member["matrix"] = matrix_to_json(u * (1 + norm / (2 * np.sqrt(len(u)))))


def _set_entry(value):
    return lambda member: member["matrix"][0][0].__setitem__(0, value)


_FAMILY_MUTATIONS = {
    "bool": _set_entry(True),
    "string": _set_entry("1.0"),
    "NaN": _set_entry(float("nan")),
    "1e999": _set_entry(json.loads("1e999")),
    "ragged-row": lambda member: member["matrix"][-1].pop(),
    "short-pair": lambda member: member["matrix"][0][0].pop(),
    "kraus-member": lambda member: member.update(type="kraus", ops=[member.pop("matrix")]),
    "p-1.5": lambda member: member.update(p=1.5),
    "p-bool": lambda member: member.update(p=True),
    "p-NaN": lambda member: member.update(p=float("nan")),
    "gram-0.9e-10": lambda member: _at_gram_norm(member, 0.9e-10),
    "gram-1.1e-10": lambda member: _at_gram_norm(member, 1.1e-10),
}


@pytest.mark.filterwarnings("error")  # non-finite entries are refused before any arithmetic warns
class TestStackedGateRead:
    """Families of only unitary or only depolarized_unitary members are read as one stack, with the same
    members, or the same exception type and message, as the member-by-member read."""

    @settings(max_examples=40, deadline=None)
    @given(document=_gate_documents(), k=st.integers(0, 5))
    @example(document={"version": "1", "kind": "depolarized", "members": [
        {"type": "depolarized_unitary", "p": -1e-13, "matrix": [[[1, 0]]]}]}, k=0)
    @example(document={"version": "1", "kind": "depolarized", "members": [
        {"type": "depolarized_unitary", "p": 1 + 1e-13, "matrix": [[[0, -0.0], [1.0, 0]], [[1, 0], [0, 0]]]}]}, k=0)
    def test_stacked_and_member_by_member_reads_agree(self, document, k):
        assert cli._gates_from_json(document["members"]) is not None
        assert _read_family(document) == _read_member_by_member(document)
        for name, mutate in _FAMILY_MUTATIONS.items():
            mutated = copy.deepcopy(document)
            mutate(mutated["members"][k % len(mutated["members"])])
            assert _read_family(mutated) == _read_member_by_member(mutated), name

    @pytest.mark.parametrize(
        "matrices, message",
        [
            # rows that would fill a stack of 2 x 2 matrices, but in matrices of 2, 1 and 3 rows
            ([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]]], [[[0, 0], [1, 0]], [[1, 0], [0, 0]],
                                                                        [[0, 0], [1, 0]]]],
             "members[1]: unitary matrix must be square"),
            ([[[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]], "members[0]: unitary matrix must be square"),
        ],
        ids=["rows-shared-across-members", "isometry-not-square"],
    )
    def test_matrices_that_are_not_square_are_refused_by_name(self, matrices, message):
        document = {"version": "1", "kind": "gate", "members": [{"type": "unitary", "matrix": m} for m in matrices]}
        assert _read_family(document) == _read_member_by_member(document) == (SchemaError, message)

    @pytest.mark.parametrize("norm, accepted", [(0.9e-10, True), (1.1e-10, False)])
    def test_members_near_the_unitarity_bound(self, norm, accepted):
        document = {"version": "1", "kind": "gate",
                    "members": [{"type": "unitary", "matrix": matrix_to_json(random_unitary(4, np.random.default_rng(s)))}
                                for s in range(3)]}
        _at_gram_norm(document["members"][1], norm)
        read = _read_family(document)
        assert read == _read_member_by_member(document)
        assert (read[0] == "gate") == accepted
        if not accepted:
            assert read == (SchemaError, "members[1]: unitary matrix is not unitary within 1e-10")

    def test_a_member_at_the_bound_is_decided_by_its_own_check(self, monkeypatch):
        # a member's defect inside the stack has the bits of its own one-matrix stack, so with the bound
        # at that defect the stacked read and the constructor both accept it, and one ulp below both refuse it
        rng = np.random.default_rng(3)
        for d in range(1, 9):
            stack = np.stack([random_unitary(d, rng) * (1 + 1e-11) for _ in range(30)])
            for k in range(len(stack)):
                own = isometry_defects(stack[k][None])[0]
                for bound, accepted in ((own, True), (np.nextafter(own, 0), False)):
                    monkeypatch.setattr(channels, "_UNITARY_TOL", bound)
                    assert (channels._gates(np.stack([np.eye(d), stack[k]])) is not None) == accepted
                    try:
                        Unitary(stack[k])
                    except ValueError:
                        assert not accepted
                    else:
                        assert accepted


# -- orjson reads of large family files ---------------------------------------------


def _raw_tokens(document, **dumps) -> str:
    """``json.dumps(document, **dumps)`` with every string ``"@token"`` written as the bare ``token``."""
    return re.sub(r'"@([^"]*)"', r"\1", json.dumps(document, **dumps))


def _read_by_json(path):
    """What ``load_family_file`` gave before ``orjson``: the file's text through ``json`` alone."""
    return cli._family_from_json(cli._read_json_object(path, "family file"))


def _outcome(read, *args):
    """``read(*args)`` pickled, so that arrays compare bit for bit and options by type, or its error."""
    try:
        return pickle.dumps(read(*args))
    except SchemaError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def big_gate_document():
    """A commuting ``d=16``, ``n=32`` gate family, 369 KB as ``json.dumps`` writes it."""
    us = [u.matrix for u in random_commuting_family(np.random.default_rng(256), 16, 32)]
    return {"version": "1", "kind": "gate", "members": [{"type": "unitary", "matrix": _matrix_json(u)} for u in us]}


_DEEP = "[" * 100000 + "]" * 100000


def _signed_permutations(document):
    """Members 0-3 as signed permutations of integer tokens ``0``, ``-0``, ``1`` and ``-1``."""
    for k, member in enumerate(document["members"][:4]):
        matrix = [[["@0", "@-0"] for _ in range(16)] for _ in range(16)]
        for column in range(16):
            matrix[(column * (2 * k + 3)) % 16][column] = ["@-1" if (column + k) % 3 else "@1", "@0"]
        member["matrix"] = matrix


def _on_text(edit):
    """A case that edits the document's ``json.dumps`` text."""
    return lambda document: edit(json.dumps(document))


def _on_document(edit):
    """A case that edits the document, then writes it with :func:`_raw_tokens`."""
    def written(document):
        edit(document)
        return _raw_tokens(document)
    return written


def _entry(token):
    return _on_document(lambda document: document["members"][3]["matrix"][2][5].__setitem__(0, token))


def _options(options):
    return _on_document(lambda document: document.update(options=options))


# name: (the text of an edited copy of the d=16, n=32 document; whether orjson's reading is kept)
_LARGE_FAMILY_CASES = {
    "top-level-array": (_on_text(lambda text: "[" + text + "]"), False),
    "deep-under-a-top-level-key": (_on_text(lambda text: text[:-1] + ', "pad": ' + _DEEP + "}"), False),
    # the escaped quote shifts every later quote by one: a scan that paired quotes blindly would see only "{}"
    "deep-behind-an-escaped-quote": (_on_text(lambda text: '{"pad\\"": 0, "}": ' + _DEEP + ", " + text[1:]), False),
    "deep-under-a-member-key": (_on_text(lambda text: text.replace('{"type"', '{"pad": ' + _DEEP + ', "type"', 1)),
                                False),
    "seed-of-2**64": (_options({"seed": 2**64}), False),
    "seed-of-2**64-1": (_options({"seed": 2**64 - 1}), True),
    "tol-of-2**70": (_options({"tol": 2**70}), False),
    "options-of-every-type": (_options({"tol": 1e-9, "verify_tol": 1, "seed": 7}), True),
    "NaN-entry": (_entry("@NaN"), False),
    "Infinity-entry": (_entry("@Infinity"), False),
    "1e400-entry": (_entry("@1e400"), False),
    "byte-order-mark": (_on_text(lambda text: "\ufeff" + text), False),
    "duplicate-kind": (_on_text(lambda text: '{"kind": "classical", ' + text[1:]), True),
    "duplicate-members": (_on_text(lambda text: '{"members": [{"type": "unitary", "matrix": [[[1, 0]]]}], ' + text[1:]),
                          True),
    "integer-tokens": (_on_document(_signed_permutations), True),
    "20-digit-integer-entry": (_entry("@12345678901234567890"), False),
    "ragged-row": (_on_document(lambda document: document["members"][5]["matrix"][3].pop()), False),
    "true-entry": (_entry(True), False),
    "non-unitary-member": (_entry(0.5), False),
    "mixed-unitary-and-kraus": (_on_document(lambda document: document["members"][9].update(
        type="kraus", ops=[document["members"][9].pop("matrix")])), False),
}


class TestLargeFamilyFiles:
    """A family file of at least 256 KiB is parsed by orjson, with the members, options, messages, exit codes
    and output that json's reading gives."""

    @pytest.mark.parametrize("name", list(_LARGE_FAMILY_CASES))
    def test_orjson_reads_as_json_reads(self, name, big_gate_document, tmp_path, capsys):
        edit, kept = _LARGE_FAMILY_CASES[name]
        text = edit(copy.deepcopy(big_gate_document))
        assert len(text) >= cli._ORJSON_MIN
        assert (cli._family_by_orjson(text) is not None) == kept
        path = tmp_path / "family.json"
        path.write_text(text)
        assert _outcome(load_family_file, path) == _outcome(_read_by_json, path)
        decided = main(["decide", str(path)]), capsys.readouterr()
        with mock.patch.object(cli, "_family_by_orjson", lambda text: None):
            assert (main(["decide", str(path)]), capsys.readouterr()) == decided

    def test_nesting_that_overflows_orjsons_stack_is_left_to_json(self, tmp_path):
        # orjson 3.8 ends the process with SIGSEGV on these 200000 brackets; json raises RecursionError
        path = tmp_path / "deep.json"
        path.write_text('{"version": "1", "pad": ' + "[" * 200000 + "]" * 200000 + "}")
        done = subprocess.run([sys.executable, "-m", "channelmask.cli", "decide", str(path)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)},
                              timeout=120)
        assert done.returncode == EXIT_ERROR
        assert done.stderr.startswith(f"error: {path}: not valid JSON (maximum recursion depth exceeded")


_ZERO_SPELLINGS = ("0", "-0", "0.0", "-0.0", "0e0", "-0E-5", "5e-324", "-4.9406564584124654e-324",
                   "2.2250738585072009e-308", "1e-400")


def _spelled(value: float, spelling: str, rng) -> str:
    """A number token for ``value``: its 17-digit repr, an exponent form or an integer."""
    if value == 0 and spelling == "zero":
        return _ZERO_SPELLINGS[rng.integers(len(_ZERO_SPELLINGS))]
    if value == int(value) and spelling == "integer":
        return str(int(value))
    return {"repr": repr, "17g": "%.17g".__mod__, "exponent": "%.16e".__mod__, "Exponent": "%.16E".__mod__,
            }.get(spelling, repr)(value)


@st.composite
def _spelled_family_texts(draw):
    """Gate and depolarized family texts, ``d`` 1-16 and ``n`` 1-32, as ``json.dumps`` writes them at a random
    indent and separators, of Haar unitaries and signed permutations whose entries are spelled at random:
    17-digit reprs, exponent forms, integers, ``-0.0`` and subnormals."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n = draw(st.integers(1, 16)), draw(st.integers(1, 32))
    spellings = draw(st.lists(st.sampled_from(["repr", "17g", "exponent", "Exponent", "integer", "zero"]),
                              min_size=1, max_size=6, unique=True))

    def token(value):
        return "@" + _spelled(float(value), spellings[rng.integers(len(spellings))], rng)

    members = []
    for _ in range(n):
        if rng.integers(2):
            u = random_unitary(d, rng)
        else:
            u = np.zeros((d, d))
            u[rng.permutation(d), np.arange(d)] = rng.choice([-1.0, 1.0], d)
        members.append({"type": "unitary", "matrix": [[[token(v.real), token(v.imag)] for v in row]
                                                       for row in u.astype(complex)]})
    document = {"version": "1", "kind": "gate", "members": members}
    if draw(st.booleans()):
        p = draw(st.sampled_from([0.0, 1.0, 0.25, -0.0, 1e-300, 0.7316490272153761, -1e-13, 1 + 1e-13]))
        for member in members:
            member.update(type="depolarized_unitary", p=token(p))
        document["kind"] = "depolarized"
    if draw(st.booleans()):
        document["options"] = {"tol": token(draw(st.sampled_from([1e-8, 3e-7, 1.0]))),
                               "seed": draw(st.integers(0, 2**63 - 1))}
    return _raw_tokens(document, indent=draw(st.sampled_from([None, 0, 1, 2, "\t"])),
                       separators=draw(st.sampled_from([None, (",", ":"), (", ", ": "), (" ,\n", " : ")])))


@settings(max_examples=40, deadline=None)
@given(text=_spelled_family_texts())
def test_orjsons_family_is_jsons_bit_for_bit_or_both_refuse(text):
    read = _outcome(cli._family_by_orjson, text)
    expected = _outcome(lambda: cli._family_from_json(cli._read_json_object("family", "family file", text)))
    assert read == (pickle.dumps(None) if isinstance(expected, tuple) else expected)


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


def _assert_maskable_verifies(family, tmp_path):
    """The rule maskable => synthesize exits 0 => verify exits 0, through the CLI."""
    decided = main(["decide", family])
    assert decided in (EXIT_OK, EXIT_NEGATIVE)
    if decided == EXIT_OK:
        out = tmp_path / "masker.json"
        assert main(["synthesize", family, "-o", str(out)]) == EXIT_OK
        assert main(["verify", family, str(out)]) == EXIT_OK


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 10: the identity decider misses a first-order "
                   "tilt, so verify fails at 1.200e-04")
def test_a_tilted_identity_pair_judged_maskable_verifies(tmp_path, capsys):
    # u rotates by 1e-4: a unital channel whose Bloch map fixes no pure state
    theta = 1e-4
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ops = [np.sqrt(0.3) * u, np.sqrt(0.7) * u @ np.diag([1.0, -1.0])]
    member = {"type": "kraus", "ops": [_matrix_json(k) for k in ops]}
    _assert_maskable_verifies(write_family(tmp_path / "tilted.json", "identity_pair", [member]), tmp_path)


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 1: decide accepts a Pauli spread of 5e-9 under "
                   "tol 1e-8, and verify fails at 1.000e-08 against 1e-9")
def test_a_pauli_pair_judged_maskable_verifies(tmp_path, capsys):
    members = [{"type": "pauli", "p": p} for p in ([0.5, 0.2, 0.1, 0.2], [0.3, 0.2, 0.099999995, 0.400000005])]
    _assert_maskable_verifies(write_family(tmp_path / "near_pauli.json", "pauli", members), tmp_path)


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


_PAULI = {"type": "pauli", "p": [1, 0, 0, 0]}
_QUTRIT = {"type": "unitary", "matrix": _matrix_json(np.eye(3))}
_BIT = {"type": "classical", "probs": [[1, 0], [0, 1]]}


_DECIDERS = {"gate": masking.decide_gate_family, "pauli": masking.decide_pauli_family,
             "identity_pair": masking.decide_identity_family, "identity_family": masking.decide_identity_family,
             "depolarized": masking.decide_depolarized_family, "classical": masking.decide_classical_family}


@pytest.mark.parametrize(
    "kind, members, message",
    [
        ("gate", [{"type": "unitary", "matrix": X}, _PAULI], "gate family members must be Unitary"),
        ("gate", [{"type": "unitary", "matrix": X}, _QUTRIT], "gate family members must share one dimension"),
        ("pauli", [_PAULI, {"type": "unitary", "matrix": X}], "pauli family members must be PauliFourVector"),
        ("identity_pair", [_PAULI, _PAULI], "identity_pair files hold exactly one channel"),
        ("identity_pair", [_QUTRIT], "identity family members must be qubit channels"),
        ("identity_family", [_PAULI, _QUTRIT], "identity family members must be qubit channels"),
        ("depolarized", [{"type": "depolarized_unitary", "p": 0.5, "matrix": X}, {"type": "unitary", "matrix": X}],
         "depolarized family members must be DepolarizedUnitary"),
        ("depolarized", [{"type": "depolarized_unitary", "p": 0.5, "matrix": X},
                         {"type": "depolarized_unitary", "p": 0.5, "matrix": _QUTRIT["matrix"]}],
         "depolarized family members must share one dimension"),
        ("classical", [_BIT, _PAULI], "classical family members must be ClassicalChannel"),
        ("classical", [_BIT, {"type": "classical", "probs": [[1, 0], [0, 1], [0, 0]]}],
         "classical family members must share input and output alphabets"),
    ],
    ids=["gate-pauli-member", "gate-mixed-dims", "pauli-unitary-member", "identity-pair-two-members",
         "identity-pair-qutrit", "identity-family-qutrit", "depolarized-unitary-member",
         "depolarized-mixed-dims", "classical-pauli-member", "classical-mixed-alphabets"],
)
def test_members_that_break_their_kinds_rule_are_input_errors_in_every_command(kind, members, message,
                                                                               tmp_path, capsys):
    family = write_family(tmp_path / "family.json", kind, members)
    masker = tmp_path / "masker.json"
    save_masker_file(masker, copy_masker(np.eye(2)))
    for argv in (["decide", family], ["synthesize", family, "-o", str(tmp_path / "out.json")],
                 ["verify", family, str(masker)]):
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: members: {message}\n"
    assert not (tmp_path / "out.json").exists()
    if kind != "identity_pair" or len(members) == 1:  # one channel per identity_pair file is the file's own rule
        specs = [channel_from_json(m, f"members[{i}]") for i, m in enumerate(members)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            _DECIDERS[kind](specs)


_BAD_NUMBERS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "string": '"1"', "true": "true",
                "huge": str(BIG)}
_FAMILY_MATRIX = '{"version": "1", "kind": "gate", "members": [{"type": "unitary", "matrix": %s}]}'
_FAMILY_PROBS = '{"version": "1", "kind": "classical", "members": [{"type": "classical", "probs": %s}]}'
_MASKER = '{"version": "1", "dims": {"dimA": 2, "dimB": 1}, "matrix": %s}'
_MATRIX_WITH = "[[[1, 0], [0, 0]], [[0, 0], %s]]"


@pytest.mark.parametrize(
    "text, message",
    [
        *[(_FAMILY_MATRIX % _MATRIX_WITH % f"[{v}, 0]", "members[0].matrix[1][1]: must be a number within float range")
          for v in _BAD_NUMBERS.values()],
        *[(_FAMILY_PROBS % f"[[1, 0], [0, {v}]]", "members[0].probs[1][1]: must be a number within float range")
          for v in _BAD_NUMBERS.values()],
        *[(_MASKER % _MATRIX_WITH % f"[0, {v}]", "matrix[1][1]: must be a number within float range")
          for v in _BAD_NUMBERS.values()],
        (_FAMILY_MATRIX % _MATRIX_WITH % "[1]", "members[0].matrix[1][1]: complex entries must be [re, im] number pairs"),
        (_FAMILY_MATRIX % _MATRIX_WITH % "[1, 0, 0]",
         "members[0].matrix[1][1]: complex entries must be [re, im] number pairs"),
        (_MASKER % _MATRIX_WITH % "[1]", "matrix[1][1]: complex entries must be [re, im] number pairs"),
        (_MASKER % _MATRIX_WITH % "[1, 0, 0]", "matrix[1][1]: complex entries must be [re, im] number pairs"),
        (_FAMILY_MATRIX % "[[[1, 0], [0, 0]], [[0, 0]]]", "members[0].matrix: row 1 has 1 entries, expected 2"),
        (_FAMILY_PROBS % "[[1, 0], [0]]", "members[0].probs: row 1 has 1 entries, expected 2"),
        (_MASKER % "[[[1, 0], [0, 0]], [[0, 0]]]", "matrix: row 1 has 1 entries, expected 2"),
        (_FAMILY_PROBS % "[[1, 0], [0, [1]]]", "members[0].probs[1][1]: must be a number within float range"),
        (_FAMILY_PROBS % "[]", "members[0].probs: must be a non-empty list of rows"),
        (_FAMILY_PROBS % "[[]]", "members[0].probs: row 0 must be a non-empty list"),
        (_MASKER % "[]", "matrix: must be a non-empty list of rows"),
        (_MASKER % "[[]]", "matrix: row 0 must be a non-empty list"),
    ],
    ids=[*[f"family-matrix-{k}" for k in _BAD_NUMBERS], *[f"family-probs-{k}" for k in _BAD_NUMBERS],
         *[f"masker-{k}" for k in _BAD_NUMBERS],
         "family-matrix-short-pair", "family-matrix-long-pair", "masker-short-pair", "masker-long-pair",
         "family-matrix-ragged", "family-probs-ragged", "masker-ragged", "family-probs-nested",
         "family-probs-empty", "family-probs-empty-row", "masker-empty", "masker-empty-row"],
)
def test_matrix_entries_are_refused_by_the_field_they_sit_in(text, message, gate_family, tmp_path, capsys):
    path = tmp_path / "file.json"
    path.write_text(text)
    argv = ["verify", gate_family, str(path)] if '"dims"' in text else ["decide", str(path)]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    (_FAMILY_MATRIX % "[[[1, 0], [0, 0]], [[0, 0]], [[0, 0], [1, 0], [0, 0]]]",
     "members[0].matrix: row 1 has 1 entries, expected 2"),
    (_FAMILY_PROBS % "[[1, 0], [0], [0, 1, 0]]", "members[0].probs: row 1 has 1 entries, expected 2"),
    (_MASKER % "[[[1, 0], [0, 0]], [[0, 0]], [[0, 0], [1, 0], [0, 0]]]", "matrix: row 1 has 1 entries, expected 2"),
], ids=["family-matrix", "family-probs", "masker"])
def test_ragged_rows_are_refused_when_the_entries_would_fill_the_shape(text, message, gate_family, tmp_path,
                                                                       capsys):
    # rows of 2, 1 and 3 entries hold as many as three rows of 2
    path = tmp_path / "file.json"
    path.write_text(text)
    argv = ["verify", gate_family, str(path)] if '"dims"' in text else ["decide", str(path)]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_masker_dimensions_reject_booleans(gate_family, tmp_path, capsys):
    path = tmp_path / "masker.json"
    path.write_text(json.dumps({"version": "1", "dims": {"dimA": True, "dimB": 2},
                                "matrix": _matrix_json(np.eye(2)[[0, 1]])}))
    assert main(["verify", gate_family, str(path)]) == EXIT_ERROR
    assert "dims.dimA" in capsys.readouterr().err


def test_numpy_integer_dims_are_saved_and_loaded_back_as_int(masker_path):
    save_masker_file(masker_path, Masker(random_isometry(np.random.default_rng(2), 6, 2),
                                         BipartiteDims(np.uint8(2), np.int64(3))))
    assert '"dimA": 2,\n    "dimB": 3\n' in masker_path.read_text()
    dims = load_masker_file(masker_path).dims
    assert dims == BipartiteDims(2, 3) and type(dims.dim_a) is type(dims.dim_b) is int


def _parser_with_parent_parsers() -> argparse.ArgumentParser:
    """Oracle for ``cli.build_parser``: the same commands, each shared flag on a parent parser of its own."""
    parser = argparse.ArgumentParser(
        prog="channelmask",
        description="Decide, synthesize, and verify isometric maskers for channel families.",
    )

    def flag(*names, **options) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **options)
        return parent

    tol = flag("--tol", type=float, default=None, help="decision tolerance (default 1e-8)")
    verify_tol = flag("--verify-tol", dest="verify_tol", type=float, default=None,
                      help="verification tolerance (default 1e-9)")
    seed = flag("--seed", type=int, default=None, help="seed for randomized diagonalization")
    as_json = flag("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("decide", parents=[tol, seed, as_json], help="decide maskability of a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.set_defaults(func=cli.cmd_decide)
    p = sub.add_parser("synthesize", parents=[tol, seed, as_json], help="synthesize a masker for a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("-o", "--out", required=True, help="path for the masker JSON file")
    p.set_defaults(func=cli.cmd_synthesize)
    p = sub.add_parser("verify", parents=[verify_tol, as_json], help="verify a masker against a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("masker", help="path to a masker JSON file")
    p.set_defaults(func=cli.cmd_verify)
    p = sub.add_parser("bloch", parents=[as_json], help="print the Bloch affine action of a qubit channel")
    p.add_argument("channel", help="path to a channel payload or family JSON file")
    p.set_defaults(func=cli.cmd_bloch)
    p = sub.add_parser("demo-classical", parents=[verify_tol, seed, as_json],
                       help="classical no-go search plus the quantum Fourier masker")
    p.add_argument("--dim", type=int, default=2, help="alphabet size (1-4)")
    p.add_argument("--perms", default=None,
                   help="semicolon-separated permutations, e.g. '0,1;1,0' (default: identity and cycle)")
    p.set_defaults(func=cli.cmd_demo_classical)
    return parser


def _parse(parser, argv, capsys) -> tuple:
    """What ``parser.parse_args(argv)`` prints and returns: ``(out, err, exit code or namespace)``."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return (*capsys.readouterr(), result)


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        *([command, "--help"] for command in ("decide", "synthesize", "verify", "bloch", "demo-classical")),
        ["synthesize", "family.json", "--bogus"], ["decide", "--tol", "1e-6", "--json", "family.json"],
        ["synthesize", "--seed", "3", "family.json", "-o", "masker.json"], ["verify", "family.json", "masker.json"],
        ["bloch", "--json", "channel.json"], ["demo-classical", "--verify-tol", "1e-7", "--dim", "3"],
    ], ids=["help", "decide-help", "synthesize-help", "verify-help", "bloch-help", "demo-classical-help",
            "usage-error", "decide", "synthesize", "verify", "bloch", "demo-classical"])
    def test_the_parser_prints_and_parses_as_with_parent_parsers(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert _parse(cli.build_parser(), argv, capsys) == _parse(_parser_with_parent_parsers(), argv, capsys)

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

    def test_one_bloch_map(self, tmp_path, capsys, monkeypatch):
        maps = []
        bloch_affine = channels.bloch_affine

        def counted(spec):
            maps.append(spec)
            return bloch_affine(spec)

        for module in (channels, cli):
            monkeypatch.setattr(module, "bloch_affine", counted)
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"type": "pauli", "p": [0.75, 0.0, 0.0, 0.25]}))
        assert main(["bloch", str(path)]) == EXIT_OK
        assert len(maps) == 1

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

    def test_each_channel_gets_its_copy_blocks_once(self, monkeypatch, capsys):
        # the report and the marginal deviations come from one computation of each channel's copy blocks
        calls = []
        copy_blocks = verify._copy_blocks

        def counted(rows, spec):
            calls.append(spec)
            return copy_blocks(rows, spec)

        monkeypatch.setattr(verify, "_copy_blocks", counted)
        assert main(["demo-classical", "--dim", "4"]) == EXIT_OK
        assert len(calls) == len({id(spec) for spec in calls}) == 5
        assert "distance of reduced channels from the constant channel onto 1/d: 1.241e-16" in capsys.readouterr().out

    def test_too_large_exit_2(self, capsys):
        assert main(["demo-classical", "--dim", "5"]) == EXIT_ERROR

    def test_bad_perm_exit_2(self, capsys):
        assert main(["demo-classical", "--dim", "2", "--perms", "0,0;1,0"]) == EXIT_ERROR

    @pytest.mark.parametrize("perms, part", [("", ""), ("0,a", "0,a"), ("0,1;", ""), ("0,,1", "0,,1")])
    def test_empty_or_non_integer_perms_exit_2(self, capsys, perms, part):
        assert main(["demo-classical", "--dim", "2", "--perms", perms]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: perms: {part!r} is not a permutation of 2 symbols\n"


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
