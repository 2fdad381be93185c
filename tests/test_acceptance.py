"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance, collects
any violations, and prints a single PASS/FAIL line (run with ``-s`` or ``-rA``
to see them all).
"""

import time

import numpy as np

from channelmask.channels import (
    ClassicalChannel,
    DepolarizedUnitary,
    PauliFourVector,
    Unitary,
    amplitude_damping,
    channel_dims,
    dephasing,
    depolarizing,
    identity_channel,
    random_classical_channel,
)
from channelmask.cli import load_masker_file, save_masker_file
from channelmask.linalg import BipartiteDims, commutator_norm, is_isometry, partial_trace
from channelmask.masking import (
    Fourier,
    Masker,
    NoCommonFixedPoint,
    NonUnital,
    NoPureFixedPoint,
    PauliAxis,
    classical_no_go_search,
    copy_masker,
    decide_depolarized_family,
    decide_gate_family,
    decide_identity_family,
    decide_pauli_family,
)
from channelmask.verify import reduced_channel_choi, verify_masking

from helpers import (
    choi,
    dephasing_about,
    depolarized_family,
    gate_family,
    local_orthogonality_check,
    random_axis,
    random_commuting_family,
    random_noncommuting_triple,
    random_unitary,
    rotation_mixture_channel,
)

DIMS = (2, 3, 4, 6)


def _report(number: int, description: str, problems: list, elapsed=None):
    status = "PASS" if not problems else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[{status}] criterion {number}: {description}{timing}")
    assert not problems, f"criterion {number}: {problems[:5]}"


def test_criterion_1_commuting_families_mask_and_verify():
    rng = np.random.default_rng(2024_01)
    problems = []
    start = time.perf_counter()
    for trial in range(200):
        dim = int(rng.choice(DIMS))
        size = int(rng.integers(2, 7))
        fam = random_commuting_family(rng, dim, size)
        decision = decide_gate_family(fam, 1e-8, seed=0)
        if not decision.maskable:
            problems.append(f"trial {trial}: refused a commuting family (d={dim}, n={size})")
            continue
        masker = copy_masker(decision.certificate.copy_rows(fam))
        report = verify_masking(masker, fam, 1e-9)
        if not report.passed:
            problems.append(
                f"trial {trial}: deviation {max(report.max_deviation_a, report.max_deviation_b):.2e}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, "200 random commuting gate families decide Maskable and verify at 1e-9", problems, elapsed)


def test_criterion_2_noncommuting_families_refused_with_witness():
    rng = np.random.default_rng(2024_02)
    problems = []
    for trial in range(200):
        dim = int(rng.choice(DIMS))
        fam = random_noncommuting_triple(rng, dim)
        decision = decide_gate_family(fam, 1e-8)
        if decision.maskable:
            problems.append(f"trial {trial}: accepted a noncommuting triple")
            continue
        wit = decision.witness
        ref = fam[0].matrix.conj().T
        recomputed = commutator_norm(ref @ fam[wit.i].matrix, ref @ fam[wit.j].matrix)
        if abs(recomputed - wit.comm_norm) > 1e-12:
            problems.append(f"trial {trial}: witness norm {wit.comm_norm} vs recomputed {recomputed}")
    _report(2, "200 noncommuting triples refused; witness norms recompute within 1e-12", problems)


def test_criterion_3_identity_pair_maskers_broadcast_orthogonality():
    rng = np.random.default_rng(2024_03)
    problems = []
    for trial in range(200):
        dim = int(rng.choice(DIMS))
        fam = random_commuting_family(rng, dim, 2, repeated_phase=trial % 2 == 0)
        pair = gate_family(np.eye(dim), fam[0].matrix)
        decision = decide_gate_family(pair, 1e-8)
        if not decision.maskable:
            problems.append(f"trial {trial}: pair with the identity refused")
            continue
        masker = copy_masker(decision.certificate.copy_rows(pair))
        if not verify_masking(masker, pair, 1e-9).passed:
            problems.append(f"trial {trial}: pair masker failed verification")
            continue
        if not local_orthogonality_check(masker, pair[1].matrix, 1e-9):
            problems.append(f"trial {trial}: masked eigenstates not locally orthogonal")
    _report(3, "pair maskers map distinct eigenspaces to locally orthogonal states at 1e-9", problems)


def test_criterion_4_constant_axis_pauli_families():
    problems = []
    c = 0.6
    grid = []
    for mu in np.linspace(0.0, c, 5):
        for nu in np.linspace(0.0, 1.0 - c, 5):
            grid.append(PauliFourVector(mu, c - mu, nu, 1.0 - c - nu))
    decision = decide_pauli_family(grid, 1e-8)
    if not decision.maskable:
        problems.append("5x5 constant-x grid refused")
    else:
        cert = decision.certificate
        if cert.axis != "x":
            problems.append(f"grid certified on axis {cert.axis}, expected x")
        if abs(cert.constant - c) > 1e-12:
            problems.append(f"certified constant {cert.constant} differs from {c}")
        masker = copy_masker(PauliAxis("x", c).copy_rows(grid))
        report = verify_masking(masker, grid, 1e-12)
        if not report.passed:
            problems.append(
                f"grid masker deviation {max(report.max_deviation_a, report.max_deviation_b):.2e}"
            )
    depol = [depolarizing(0.2), depolarizing(0.8)]
    depol_decision = decide_pauli_family(depol, 1e-8)
    if depol_decision.maskable:
        problems.append("depolarizing family accepted")
    report = verify_masking(copy_masker(PauliAxis("x", 1.0).copy_rows([PauliFourVector(1, 0, 0, 0)])), depol, 1e-6)
    if report.passed or max(report.max_deviation_a, report.max_deviation_b) < 0.05:
        problems.append("depolarizing family not separated by the x masker")
    _report(4, "constant-axis grid certifies (k=x, c=0.6) at 1e-12; depolarizing family refused", problems)


def test_criterion_5_identity_masking_of_qubit_channels():
    rng = np.random.default_rng(2024_05)
    problems = []
    for p in np.arange(0.1, 0.95, 0.1):
        spec = dephasing(float(p))
        decision = decide_identity_family([spec], 1e-8)
        if not decision.maskable:
            problems.append(f"dephasing({p:.1f}) refused")
            continue
        masker = copy_masker(decision.certificate.copy_rows([spec]))
        report = verify_masking(masker, [identity_channel(2), spec], 1e-12)
        if not report.passed:
            problems.append(f"dephasing({p:.1f}) deviation above 1e-12")
    ad_decision = decide_identity_family([amplitude_damping(0.3)], 1e-8)
    if ad_decision.maskable or not isinstance(ad_decision.witness, NonUnital):
        problems.append("amplitude damping should be refused as non-unital")
    depol_decision = decide_identity_family([depolarizing(0.5)], 1e-8)
    if depol_decision.maskable or not isinstance(depol_decision.witness, NoPureFixedPoint):
        problems.append("depolarizing should be refused for lacking a pure fixed point")
    for trial in range(100):
        axis = random_axis(rng)
        spec = rotation_mixture_channel(rng, axis, terms=int(rng.integers(2, 5)))
        decision = decide_identity_family([spec], 1e-8)
        if not decision.maskable:
            problems.append(f"trial {trial}: unital fixed-axis mixture refused")
            continue
        masker = copy_masker(decision.certificate.copy_rows([spec]))
        if not verify_masking(masker, [identity_channel(2), spec], 1e-9).passed:
            problems.append(f"trial {trial}: fixed-axis masker failed at 1e-9")
    _report(5, "identity masking: dephasing ladder at 1e-12, witnesses, 100 random unital channels", problems)


def test_criterion_6_families_with_a_common_fixed_axis():
    rng = np.random.default_rng(2024_06)
    problems = []
    for trial in range(25):
        axis = random_axis(rng)
        strengths = rng.uniform(0.05, 0.95, size=3)
        family = [identity_channel(2)] + [dephasing_about(axis, float(p)) for p in strengths]
        decision = decide_identity_family(family, 1e-8)
        if not decision.maskable:
            problems.append(f"trial {trial}: common-axis family refused")
            continue
        masker = copy_masker(decision.certificate.copy_rows([family[0]]))
        if not verify_masking(masker, family, 1e-9).passed:
            problems.append(f"trial {trial}: common masker failed at 1e-9")
    for trial in range(25):
        axis_a = random_axis(rng)
        axis_b = random_axis(rng)
        if abs(abs(axis_a @ axis_b) - 1.0) < 1e-3:
            continue
        family = [
            identity_channel(2),
            dephasing_about(axis_a, 0.4),
            dephasing_about(axis_b, 0.6),
        ]
        decision = decide_identity_family(family, 1e-8)
        if decision.maskable or not isinstance(decision.witness, NoCommonFixedPoint):
            problems.append(f"trial {trial}: mixed-axis family not refused correctly")
    _report(6, "common-axis families share one verified masker; mixed axes are refused", problems)


def test_criterion_7_classical_no_go_and_quantum_masker():
    rng = np.random.default_rng(2024_07)
    problems = []
    start = time.perf_counter()
    search = classical_no_go_search(2, [(0, 1), (1, 0)])
    if search.injection_count != 12:
        problems.append(f"expected 12 injections, saw {search.injection_count}")
    if not search.violating_all:
        problems.append("some classical injection claimed to mask {id, swap}")
    checked = 0
    while checked < 50:
        d = int(rng.integers(2, 7))
        batch = [random_classical_channel(d, d, rng) for _ in range(min(5, 50 - checked))]
        checked += len(batch)
        masker = copy_masker(Fourier(d).copy_rows(batch))
        report = verify_masking(masker, batch, 1e-9)
        if not report.passed:
            problems.append(f"Fourier masker failed on a batch at d={d}")
        target = np.eye(d * d) / d
        for spec in batch:
            for red in reduced_channel_choi(masker, spec):
                if np.linalg.norm(red - target) > 1e-9:
                    problems.append(f"reduced channel not constant at d={d}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(7, "no classical masker among 12 injections; Fourier masker constant on 50 channels", problems, elapsed)


def test_criterion_8_depolarized_families_reduce_to_gates():
    rng = np.random.default_rng(2024_08)
    problems = []
    for p in (0.1, 0.5, 1.0):
        good = random_commuting_family(rng, 3, 4)
        bad = random_noncommuting_triple(rng, 3)
        for fam, expected in ((good, True), (bad, False)):
            family = depolarized_family(p, *(m.matrix for m in fam))
            depol_decision = decide_depolarized_family(family, 1e-8)
            gate_decision = decide_gate_family(fam, 1e-8)
            if depol_decision.maskable != gate_decision.maskable:
                problems.append(f"verdicts diverge at p={p}")
            if depol_decision.maskable != expected:
                problems.append(f"unexpected verdict at p={p}")
            if depol_decision.maskable:
                masker = copy_masker(depol_decision.certificate.copy_rows(fam))
                if not verify_masking(masker, family, 1e-9).passed:
                    problems.append(f"gate masker failed on the depolarized family at p={p}")
    for trial in range(5):
        dim = int(rng.choice((2, 3, 4)))
        us = [random_unitary(dim, rng) for _ in range(3)]
        family = depolarized_family(0.0, *us)
        decision = decide_depolarized_family(family, 1e-8)
        if not decision.maskable:
            problems.append("p=0 family refused")
        iso = random_unitary(dim * dim, rng)[:, :dim]
        masker = Masker(iso, BipartiteDims(dim, dim))
        if not verify_masking(masker, family, 1e-9).passed:
            problems.append("p=0 family not masked by an arbitrary isometry")
    _report(8, "depolarized verdicts equal gate verdicts; masker transfers; p=0 masks trivially", problems)


def test_criterion_9_structural_suite(tmp_path):
    rng = np.random.default_rng(2024_09)
    problems = []

    maskers = [copy_masker(PauliAxis(axis, 1.0).copy_rows([PauliFourVector(1, 0, 0, 0)])) for axis in ("x", "y", "z")]
    maskers += [copy_masker(Fourier(d).copy_rows([ClassicalChannel(np.eye(d))])) for d in range(1, 7)]
    for _ in range(10):
        dim = int(rng.choice(DIMS))
        fam = random_commuting_family(rng, dim, int(rng.integers(2, 5)))
        maskers.append(copy_masker(decide_gate_family(fam).certificate.copy_rows(fam)))
    for _ in range(10):
        axis = random_axis(rng)
        spec = rotation_mixture_channel(rng, axis)
        decision = decide_identity_family([spec])
        maskers.append(copy_masker(decision.certificate.copy_rows([spec])))
    for i, masker in enumerate(maskers):
        if not is_isometry(masker.matrix, 1e-10):
            problems.append(f"masker {i} is not an isometry at 1e-10")
        if masker.matrix.shape[0] != masker.dims.total:
            problems.append(f"masker {i} has inconsistent dimensions")

    specs = [
        identity_channel(2),
        dephasing(0.3),
        depolarizing(0.7),
        amplitude_damping(0.25),
        DepolarizedUnitary(0.4, random_unitary(3, rng)),
        Unitary(random_unitary(4, rng)),
        random_classical_channel(3, 2, rng),
        rotation_mixture_channel(rng, random_axis(rng)),
    ]
    for spec in specs:
        din, dout = channel_dims(spec)
        c = choi(spec)
        if np.linalg.eigvalsh(c).min() < -1e-10:
            problems.append(f"Choi not PSD for {type(spec).__name__}")
        marginal = partial_trace(c, BipartiteDims(din, dout), "B")
        if np.linalg.norm(marginal - np.eye(din)) > 1e-10:
            problems.append(f"Choi marginal wrong for {type(spec).__name__}")

    for i, masker in enumerate(maskers[:8]):
        path = tmp_path / f"masker_{i}.json"
        save_masker_file(path, masker)
        loaded = load_masker_file(path)
        if not np.array_equal(loaded.matrix, masker.matrix):
            problems.append(f"masker {i} round trip not bit-exact")
        second = tmp_path / f"masker_{i}_again.json"
        save_masker_file(second, loaded)
        if path.read_bytes() != second.read_bytes():
            problems.append(f"masker {i} serialization not deterministic")
    _report(9, "isometry, Choi positivity/marginal, and bit-exact file round-trips", problems)
