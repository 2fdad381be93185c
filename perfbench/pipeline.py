"""One family through the stages of ``channelmask``, and the checks on the result.

The stages are the public calls the CLI makes: parse the family file, decide,
synthesize, save the masker, load it back and verify it.  They are called
through the ``cli`` and ``verify`` module attributes, so that a tracer that
replaces those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from channelmask import channels, cli, linalg, masking, verify

STAGES = ("load", "decide", "synthesize", "save", "load_masker", "verify")

VERIFY_TOL = 1e-9


@dataclass
class FamilyRun:
    """What one family produced, with the seconds spent in each stage."""

    stage_s: dict = field(default_factory=dict)
    family: object = None
    decision: object = None
    masker: object = None
    loaded: object = None
    report: object = None
    error: str | None = None


def run_family(path: Path, masker_path: Path, through_verify: bool) -> FamilyRun:
    """Push one family file through the stages; stop after decide unless ``through_verify``."""
    run = FamilyRun()
    clock = time.perf_counter
    t = clock()

    def mark(stage: str) -> None:
        nonlocal t
        now = clock()
        run.stage_s[stage] = now - t
        t = now

    try:
        run.family = cli.load_family_file(path)
        mark("load")
        run.decision = cli.decide_family(run.family, cli.DECISION_TOL, 0)
        mark("decide")
        if not (through_verify and run.decision.maskable):
            return run
        run.masker = cli.synthesize_family_masker(run.family, run.decision)
        mark("synthesize")
        cli.save_masker_file(masker_path, run.masker)
        mark("save")
        run.loaded = cli.load_masker_file(masker_path)
        mark("load_masker")
        run.report = verify.verify_masking(run.loaded, cli.family_channels(run.family), VERIFY_TOL)
        mark("verify")
    except Exception as exc:  # a failing family is counted, the run goes on
        mark("failed")
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def cli_in_process(argv, cwd: Path) -> tuple[int, str]:
    """Exit code and stdout of ``channelmask <argv>`` run inside this process from ``cwd``."""
    buffer = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    except Exception as exc:  # a crashing command is a failed operation, not a failed run
        return -1, f"raised {type(exc).__name__}: {exc}"
    finally:
        os.chdir(previous)
    return code, buffer.getvalue()


def instrument(tracer) -> None:
    """Wrap the public functions of each layer where their callers look them up."""
    tracer.span(cli, "load_family_file", "cli.load_family_file",
                lambda args, _: {"cli.family_bytes": os.path.getsize(args[0])})
    tracer.span(cli, "save_masker_file", "cli.save_masker_file",
                lambda args, _: {"cli.masker_bytes": os.path.getsize(args[0])})
    tracer.span(cli, "load_masker_file", "cli.load_masker_file")
    tracer.span(cli, "decide_family", "masking.decide",
                lambda _, decision: {"masking.decisions": 1, "masking.maskable": int(decision.maskable)})
    tracer.span(cli, "synthesize_family_masker", "masking.synthesize")
    tracer.span(cli, "classical_no_go_search", "masking.classical_no_go_search",
                lambda args, report: {"masking.injections": report.injection_count,
                                      "computed.masking.injections": math.perm(args[0] ** 2, args[0])})
    tracer.span(masking, "simultaneous_eigenbasis", "linalg.simultaneous_eigenbasis")
    tracer.span(verify, "verify_masking", "verify.verify_masking")
    tracer.span(verify, "reduced_channel_choi", "verify.reduced_channel_choi", _choi_work)
    for module in (verify, channels):
        tracer.count(module, "apply", "channels.apply")
    tracer.count(verify, "partial_trace", "linalg.partial_trace")
    for module in (masking, linalg):
        tracer.count(module, "commutator_norm", "linalg.commutator_norm")


def _choi_work(args, _) -> dict:
    # Computed from array sizes, not measured: one channel application per
    # input basis operator, and the complex128 arrays each one allocates
    # (E(X), M E(X) and M E(X) M^dag).
    masker, spec = args[0], args[1]
    din, dout = channels.channel_dims(spec)
    total = masker.dims.total
    return {
        "computed.channels.apply.calls": din * din,
        "computed.verify.bytes": din * din * 16 * (dout * dout + total * dout + total * total),
    }


# -- checks against the answer known from construction -------------------------


def _close(a, b, tol: float = 1e-9) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float), rtol=0, atol=tol))


def _parallel(u, v) -> bool:
    return abs(abs(float(np.dot(u, v))) - 1.0) <= 1e-9


def _member_matrices(family) -> list[np.ndarray]:
    return [np.asarray(m.matrix) for m in family.members]


def _check_witness(family, evidence: dict, facts: dict, tol: float) -> list[str]:
    kind = evidence["type"]
    problems = []
    if kind == "noncommuting_pair":
        # Recompute the commutator of the two relative gates from the file.
        us = _member_matrices(family)
        w_i = us[0].conj().T @ us[evidence["i"]]
        w_j = us[0].conj().T @ us[evidence["j"]]
        norm = float(np.linalg.norm(w_i @ w_j - w_j @ w_i))
        if abs(norm - evidence["commutator_norm"]) > 1e-12 * max(1.0, norm):
            problems.append(f"commutator norm {evidence['commutator_norm']} recomputes to {norm}")
        if norm <= tol * us[0].shape[0]:
            problems.append(f"commutator norm {norm} is within the threshold")
    elif kind == "no_constant_axis":
        if not all(_close(evidence["spreads"][a], s, 1e-12) for a, s in facts["spreads"].items()):
            problems.append(f"spreads {evidence['spreads']} differ from {facts['spreads']}")
    elif kind == "non_unital":
        if evidence["member"] != facts["index"] or not _close(evidence["shift"], facts["shift"]):
            problems.append(f"shift {evidence['shift']} at member {evidence['member']}, "
                            f"expected {facts['shift']} at member {facts['index']}")
    elif kind == "no_pure_fixed_point":
        eigs = sorted(re for re, _ in evidence["eigenvalues"])
        if not _close(eigs, sorted(facts["eigenvalues"])):
            problems.append(f"Bloch eigenvalues {evidence['eigenvalues']} differ from {facts['eigenvalues']}")
    elif kind == "no_common_fixed_point":
        for axis, fixed in zip(facts["axes"], evidence["per_channel"]):
            if not isinstance(fixed, list) or not all(_parallel(v, axis) for v in fixed):
                problems.append(f"fixed points {fixed} are not +-{axis}")
    return problems


def _check_certificate(evidence: dict, facts: dict) -> list[str]:
    kind = evidence["type"]
    if kind == "pauli_axis" and (evidence["axis"] != facts["axis"]
                                 or not _close(evidence["constant"], facts["constant"])):
        return [f"Pauli axis {evidence['axis']}={evidence['constant']}, expected {facts}"]
    if kind == "fixed_point_axis" and not _parallel(evidence["direction"], facts["axis"]):
        return [f"fixed axis {evidence['direction']} is not +-{facts['axis']}"]
    if kind == "fourier" and evidence["dim"] != facts["dim"]:
        return [f"Fourier dimension {evidence['dim']}, expected {facts['dim']}"]
    return []


def check_run(run: FamilyRun, expected, through_verify: bool) -> list[str]:
    """Every way ``run`` disagrees with ``expected``; empty when it is correct."""
    if run.error:
        return [run.error]
    decision = run.decision
    if decision.maskable != expected.maskable:
        return [f"verdict maskable={decision.maskable}, expected {expected.maskable}"]
    report = cli.decision_to_dict(decision)
    evidence = report["certificate" if decision.maskable else "witness"]
    if evidence["type"] != expected.evidence:
        return [f"{evidence['type']} given, expected {expected.evidence}"]
    if not decision.maskable:
        return _check_witness(run.family, evidence, expected.facts, cli.DECISION_TOL)
    problems = _check_certificate(evidence, expected.facts)
    if through_verify:
        if not np.array_equal(run.loaded.matrix, run.masker.matrix) or run.loaded.dims != run.masker.dims:
            problems.append("masker changed in the save/load round trip")
        if not run.report.passed:
            problems.append(f"masker fails verification at {VERIFY_TOL}: "
                            f"{run.report.max_deviation_a:.3e} / {run.report.max_deviation_b:.3e}")
    return problems
