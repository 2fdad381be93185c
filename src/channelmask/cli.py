"""Command-line front end.

Commands
--------
``decide``          read a channel-family file, print the maskability verdict
``synthesize``      build a masker for a maskable family and write it to disk
``verify``          check a masker file against a family file
``bloch``           print the Bloch affine action of a qubit channel
``demo-classical``  exhaustive classical no-go search plus the quantum masker

Family and masker files are JSON with complex scalars as ``[re, im]`` pairs
and matrices in row-major order.  Exit codes: 0 for a positive verdict or a
passing verification, 1 for a definitive negative, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import masking, verify
from .channels import (
    ALL_DIRECTIONS,
    ChannelSpec,
    ClassicalChannel,
    DepolarizedUnitary,
    KrausChannel,
    PauliFourVector,
    Unitary,
    bloch_affine,
    channel_dims,
    identity_channel,
    is_unital,
    pure_fixed_points,
    random_classical_channel,
)
from .linalg import DECISION_TOL, VERIFY_TOL, BipartiteDims, is_isometry
from .masking import (
    CommonEigenbasis,
    FixedPointAxis,
    Fourier,
    GateFamily,
    Masker,
    MaskingDecision,
    PauliAxis,
    Trivial,
    classical_no_go_search,
    copy_isometry,
)

FAMILY_KINDS = ("gate", "pauli", "identity_pair", "identity_family", "depolarized", "classical")
_OPTION_KEYS = ("tol", "verify_tol", "seed")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


class SchemaError(ValueError):
    """A file violates the schema; the message names the failed rule."""


@dataclass(frozen=True)
class FamilyFile:
    version: str
    kind: str
    members: tuple
    options: dict


def _expect(condition: bool, rule: str) -> None:
    if not condition:
        raise SchemaError(rule)


# -- JSON <-> matrices ---------------------------------------------------------


def _complex_from_json(entry, where: str) -> complex:
    _expect(
        isinstance(entry, (list, tuple)) and len(entry) == 2
        and all(isinstance(v, (int, float)) for v in entry),
        f"{where}: complex entries must be [re, im] number pairs",
    )
    return complex(entry[0], entry[1])


def _matrix_from_json(obj, where: str) -> np.ndarray:
    _expect(isinstance(obj, list) and obj, f"{where}: must be a non-empty list of rows")
    width = None
    rows = []
    for r, row in enumerate(obj):
        _expect(isinstance(row, list) and row, f"{where}: row {r} must be a non-empty list")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"{where}: row {r} has {len(row)} entries, expected {width}")
        rows.append([_complex_from_json(e, f"{where}[{r}][{c}]") for c, e in enumerate(row)])
    return np.array(rows, dtype=complex)


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _real_matrix_from_json(obj, where: str) -> np.ndarray:
    _expect(isinstance(obj, list) and obj, f"{where}: must be a non-empty list of rows")
    width = None
    rows = []
    for r, row in enumerate(obj):
        _expect(isinstance(row, list) and row, f"{where}: row {r} must be a non-empty list")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"{where}: row {r} has {len(row)} entries, expected {width}")
        _expect(
            all(isinstance(v, (int, float)) for v in row),
            f"{where}: row {r} must contain numbers only",
        )
        rows.append([float(v) for v in row])
    return np.array(rows)


# -- channel payloads ------------------------------------------------------------


def channel_from_json(obj, where: str) -> ChannelSpec:
    _expect(isinstance(obj, dict), f"{where}: must be an object")
    kind = obj.get("type")
    try:
        if kind == "unitary":
            return Unitary(_matrix_from_json(obj.get("matrix"), f"{where}.matrix"))
        if kind == "kraus":
            ops = obj.get("ops")
            _expect(isinstance(ops, list) and ops, f"{where}.ops: must be a non-empty list")
            return KrausChannel(
                tuple(_matrix_from_json(op, f"{where}.ops[{i}]") for i, op in enumerate(ops))
            )
        if kind == "pauli":
            p = obj.get("p")
            _expect(
                isinstance(p, list) and len(p) == 4 and all(isinstance(v, (int, float)) for v in p),
                f"{where}.p: must be a list of four probabilities",
            )
            return PauliFourVector(*[float(v) for v in p])
        if kind == "classical":
            return ClassicalChannel(_real_matrix_from_json(obj.get("probs"), f"{where}.probs"))
        if kind == "depolarized_unitary":
            p = obj.get("p")
            _expect(isinstance(p, (int, float)), f"{where}.p: must be a number")
            return DepolarizedUnitary(float(p), _matrix_from_json(obj.get("matrix"), f"{where}.matrix"))
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(
        f"{where}.type: must be one of unitary, kraus, pauli, classical, depolarized_unitary"
    )


def _check_kind_consistency(kind: str, members: tuple) -> None:
    if kind == "gate":
        _expect(all(isinstance(m, Unitary) for m in members), "members: gate families hold unitary payloads only")
        dims = {m.dim for m in members}
        _expect(len(dims) == 1, "members: gate family members must share one dimension")
    elif kind == "pauli":
        _expect(all(isinstance(m, PauliFourVector) for m in members), "members: pauli families hold pauli payloads only")
    elif kind == "identity_pair":
        _expect(len(members) == 1, "members: identity_pair files hold exactly one channel")
        _expect(channel_dims(members[0]) == (2, 2), "members: identity_pair channel must act on a qubit")
    elif kind == "identity_family":
        _expect(
            all(channel_dims(m) == (2, 2) for m in members),
            "members: identity_family channels must act on qubits",
        )
    elif kind == "depolarized":
        _expect(
            all(isinstance(m, DepolarizedUnitary) for m in members),
            "members: depolarized families hold depolarized_unitary payloads only",
        )
        dims = {m.dim for m in members}
        _expect(len(dims) == 1, "members: depolarized family members must share one dimension")
        ps = [m.p for m in members]
        _expect(max(ps) - min(ps) <= 1e-12, "members: depolarized family members must share one noise level p")
    elif kind == "classical":
        _expect(all(isinstance(m, ClassicalChannel) for m in members), "members: classical families hold classical payloads only")
        sizes = {(m.in_size, m.out_size) for m in members}
        _expect(len(sizes) == 1, "members: classical family members must share input and output alphabets")


def load_family_file(path) -> FamilyFile:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    _expect(isinstance(raw, dict), "family file: top level must be an object")
    _expect(raw.get("version") == "1", 'version: must be the string "1"')
    kind = raw.get("kind")
    _expect(kind in FAMILY_KINDS, f"kind: must be one of {', '.join(FAMILY_KINDS)}")
    members_raw = raw.get("members")
    _expect(isinstance(members_raw, list) and members_raw, "members: must be a non-empty list")
    members = tuple(channel_from_json(m, f"members[{i}]") for i, m in enumerate(members_raw))
    options = raw.get("options", {})
    _expect(isinstance(options, dict), "options: must be an object")
    for key, value in options.items():
        _expect(key in _OPTION_KEYS, f"options: unknown key {key!r}")
        _expect(isinstance(value, (int, float)), f"options.{key}: must be a number")
    _check_kind_consistency(kind, members)
    return FamilyFile("1", kind, members, dict(options))


def load_masker_file(path) -> Masker:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    _expect(isinstance(raw, dict), "masker file: top level must be an object")
    _expect(raw.get("version") == "1", 'version: must be the string "1"')
    dims = raw.get("dims")
    _expect(
        isinstance(dims, dict) and isinstance(dims.get("dimA"), int) and isinstance(dims.get("dimB"), int),
        "dims: must be an object with integer dimA and dimB",
    )
    matrix = _matrix_from_json(raw.get("matrix"), "matrix")
    _expect(
        matrix.shape[0] == dims["dimA"] * dims["dimB"],
        "matrix: row count must equal dimA * dimB",
    )
    _expect(is_isometry(matrix, 1e-9), "matrix: not an isometry within 1e-9")
    return Masker(matrix, BipartiteDims(dims["dimA"], dims["dimB"]))


def save_masker_file(path, masker: Masker) -> None:
    payload = {
        "version": "1",
        "dims": {"dimA": masker.dims.dim_a, "dimB": masker.dims.dim_b},
        "matrix": _matrix_to_json(masker.matrix),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- decision / synthesis dispatch ------------------------------------------------


def _resolve(flag_value, options: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in options:
        return options[key]
    return default


def family_channels(family: FamilyFile) -> list[ChannelSpec]:
    """The channel family the file denotes (identity_pair adds the identity)."""
    if family.kind == "identity_pair":
        return [identity_channel(2), family.members[0]]
    return list(family.members)


def decide_family(family: FamilyFile, tol: float, seed: int) -> MaskingDecision:
    if family.kind == "gate":
        fam = GateFamily(tuple(m.matrix for m in family.members))
        return masking.decide_gate_family(fam, tol, seed)
    if family.kind == "pauli":
        return masking.decide_pauli_family(family.members, tol)
    if family.kind == "identity_pair":
        return masking.decide_identity_pair(family.members[0], tol)
    if family.kind == "identity_family":
        return masking.decide_identity_family(family.members, tol)
    if family.kind == "depolarized":
        us = tuple(m.matrix for m in family.members)
        return masking.decide_depolarized_family(family.members[0].p, us, tol, seed)
    if family.kind == "classical":
        return masking.decide_classical_family(family.members)
    raise SchemaError(f"kind: unsupported family kind {family.kind!r}")


def synthesize_family_masker(family: FamilyFile, decision: MaskingDecision,
                             tol: float = DECISION_TOL) -> Masker:
    cert = decision.certificate
    if isinstance(cert, (CommonEigenbasis,)) or (
        isinstance(cert, Trivial) and family.kind in ("gate", "depolarized")
    ):
        us = tuple(m.matrix for m in family.members)
        return masking.synthesize_gate_masker(GateFamily(us), cert, tol)
    if isinstance(cert, PauliAxis):
        return masking.synthesize_pauli_masker(cert.axis)
    if isinstance(cert, FixedPointAxis):
        return masking.synthesize_identity_masker(family.members[0], cert.direction)
    if isinstance(cert, Fourier):
        return masking.synthesize_classical_masker(cert.dim)
    if isinstance(cert, Trivial):
        _, dout = channel_dims(family.members[0])
        return Masker(copy_isometry(dout), BipartiteDims(dout, dout))
    raise ValueError(f"cannot synthesize from certificate {cert!r}")


# -- reports ----------------------------------------------------------------------


def _vector_json(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float)]


def _fixed_points_json(fp):
    if fp is None:
        return None
    if fp is ALL_DIRECTIONS:
        return "all"
    return [_vector_json(v) for v in fp]


def decision_to_dict(decision: MaskingDecision) -> dict:
    out: dict = {"verdict": "maskable" if decision.maskable else "not_maskable"}
    cert = decision.certificate
    wit = decision.witness
    if isinstance(cert, CommonEigenbasis):
        out["certificate"] = {
            "type": "common_eigenbasis",
            "reference_index": cert.reference_index,
            "basis": _matrix_to_json(cert.basis),
        }
    elif isinstance(cert, PauliAxis):
        out["certificate"] = {"type": "pauli_axis", "axis": cert.axis, "constant": cert.constant}
    elif isinstance(cert, FixedPointAxis):
        out["certificate"] = {"type": "fixed_point_axis", "direction": _vector_json(cert.direction)}
    elif isinstance(cert, Fourier):
        out["certificate"] = {"type": "fourier", "dim": cert.dim}
    elif isinstance(cert, Trivial):
        out["certificate"] = {"type": "trivial"}
    if isinstance(wit, masking.NoncommutingPair):
        out["witness"] = {
            "type": "noncommuting_pair",
            "i": wit.i,
            "j": wit.j,
            "commutator_norm": wit.comm_norm,
        }
    elif isinstance(wit, masking.NoConstantAxis):
        out["witness"] = {"type": "no_constant_axis", "spreads": dict(wit.spreads)}
    elif isinstance(wit, masking.NonUnital):
        out["witness"] = {"type": "non_unital", "shift": _vector_json(wit.shift), "member": wit.index}
    elif isinstance(wit, masking.NoPureFixedPoint):
        out["witness"] = {
            "type": "no_pure_fixed_point",
            "eigenvalues": [[float(e.real), float(e.imag)] for e in wit.eigenvalues],
        }
    elif isinstance(wit, masking.NoCommonFixedPoint):
        out["witness"] = {
            "type": "no_common_fixed_point",
            "per_channel": [_fixed_points_json(fp) for fp in wit.per_channel],
        }
    return out


def report_to_dict(report: verify.VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "max_deviation_a": report.max_deviation_a,
        "max_deviation_b": report.max_deviation_b,
        "worst_pair": list(report.worst_pair),
        "tol": report.tol,
    }


def _print_decision_text(decision: MaskingDecision) -> None:
    data = decision_to_dict(decision)
    print(f"verdict: {data['verdict'].replace('_', ' ')}")
    if "certificate" in data:
        cert = data["certificate"]
        print(f"certificate: {cert['type']}")
        for key, value in cert.items():
            if key == "type":
                continue
            if key == "basis":
                print("  basis (rows):")
                for row in value:
                    print("    " + "  ".join(f"{re:+.6f}{im:+.6f}j" for re, im in row))
            else:
                print(f"  {key}: {value}")
    if "witness" in data:
        wit = data["witness"]
        print(f"witness: {wit['type']}")
        for key, value in wit.items():
            if key != "type":
                print(f"  {key}: {value}")


def _print_report_text(report: verify.VerificationReport, heading: str) -> None:
    print(f"{heading}: {'PASS' if report.passed else 'FAIL'}")
    print(f"  deviation seen by A: {report.max_deviation_a:.3e}")
    print(f"  deviation seen by B: {report.max_deviation_b:.3e}")
    print(f"  worst pair: members {report.worst_pair[0]} and {report.worst_pair[1]}")
    print(f"  tolerance: {report.tol:g}")


# -- commands ----------------------------------------------------------------------


def cmd_decide(args) -> int:
    family = load_family_file(args.family)
    tol = float(_resolve(args.tol, family.options, "tol", DECISION_TOL))
    seed = int(_resolve(args.seed, family.options, "seed", 0))
    decision = decide_family(family, tol, seed)
    if args.json:
        print(json.dumps(decision_to_dict(decision), indent=2, sort_keys=True))
    else:
        _print_decision_text(decision)
    return EXIT_OK if decision.maskable else EXIT_NEGATIVE


def cmd_synthesize(args) -> int:
    family = load_family_file(args.family)
    tol = float(_resolve(args.tol, family.options, "tol", DECISION_TOL))
    seed = int(_resolve(args.seed, family.options, "seed", 0))
    decision = decide_family(family, tol, seed)
    if not decision.maskable:
        if args.json:
            print(json.dumps(decision_to_dict(decision), indent=2, sort_keys=True))
        else:
            _print_decision_text(decision)
        return EXIT_NEGATIVE
    masker = synthesize_family_masker(family, decision, tol)
    save_masker_file(args.out, masker)
    if args.json:
        payload = decision_to_dict(decision)
        payload["masker_path"] = str(args.out)
        payload["dims"] = {"dimA": masker.dims.dim_a, "dimB": masker.dims.dim_b}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_decision_text(decision)
        print(f"masker written to {args.out} (dims {masker.dims.dim_a} x {masker.dims.dim_b})")
    return EXIT_OK


def cmd_verify(args) -> int:
    family = load_family_file(args.family)
    masker = load_masker_file(args.masker)
    tol = float(_resolve(args.verify_tol, family.options, "verify_tol", VERIFY_TOL))
    report = verify.verify_masking(masker, family_channels(family), tol)
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    else:
        _print_report_text(report, "masking verification")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _load_single_channel(path) -> ChannelSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    _expect(isinstance(raw, dict), "channel file: top level must be an object")
    if "type" in raw:
        return channel_from_json(raw, "channel")
    if "members" in raw:
        family = load_family_file(path)
        return family.members[0]
    raise SchemaError("channel file: expected a channel payload or a family file")


def cmd_bloch(args) -> int:
    spec = _load_single_channel(args.channel)
    if channel_dims(spec) != (2, 2):
        raise SchemaError("channel: Bloch analysis requires a qubit channel")
    aff = bloch_affine(spec)
    unital = is_unital(spec, DECISION_TOL)
    fixed = pure_fixed_points(spec, DECISION_TOL)
    if args.json:
        payload = {
            "matrix": [[float(v) for v in row] for row in aff.matrix],
            "shift": _vector_json(aff.shift),
            "unital": unital,
            "fixed_points": _fixed_points_json(fixed),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("Bloch affine action n -> A n + b")
        print("  A:")
        for row in aff.matrix:
            print("    [" + "  ".join(f"{v:+.10f}" for v in row) + "]")
        print("  b: [" + "  ".join(f"{v:+.10f}" for v in aff.shift) + "]")
        print(f"  unital: {'yes' if unital else 'no'}")
        if fixed is None:
            print("  pure fixed points: none")
        elif fixed is ALL_DIRECTIONS:
            print("  pure fixed points: all directions")
        else:
            for v in fixed:
                print("  pure fixed point: [" + "  ".join(f"{x:+.10f}" for x in v) + "]")
    return EXIT_OK


def _parse_perms(text: str, dim: int) -> list[tuple]:
    perms = []
    for part in text.split(";"):
        images = [int(v) for v in part.split(",")]
        if sorted(images) != list(range(dim)):
            raise SchemaError(f"perms: {part!r} is not a permutation of {dim} symbols")
        perms.append(tuple(images))
    return perms


def cmd_demo_classical(args) -> int:
    dim = args.dim
    if dim < 1 or dim > 4:
        raise SchemaError("dim: the exhaustive search supports 1 <= dim <= 4")
    if args.perms:
        perms = _parse_perms(args.perms, dim)
    else:
        perms = [tuple(range(dim)), tuple((x + 1) % dim for x in range(dim))]
    tol = args.verify_tol if args.verify_tol is not None else VERIFY_TOL
    seed = args.seed if args.seed is not None else 0

    search = classical_no_go_search(dim, perms)

    masker = masking.synthesize_classical_masker(dim)
    perm_channels = [
        ClassicalChannel(np.eye(dim)[:, list(p)]) for p in perms
    ]
    rng = np.random.default_rng(seed)
    random_channels = [random_classical_channel(dim, dim, rng) for _ in range(3)]
    report = verify.verify_masking(masker, perm_channels + random_channels, tol)
    target = np.eye(dim * dim) / dim
    marginal_dev = 0.0
    for spec in perm_channels + random_channels:
        for side in ("A", "B"):
            choi_red = verify.reduced_channel_choi(masker, spec, side)
            marginal_dev = max(marginal_dev, float(np.linalg.norm(choi_red - target)))

    if args.json:
        payload = {
            "dim": dim,
            "perms": [list(p) for p in perms],
            "no_go": {
                "injection_count": search.injection_count,
                "violating_all": search.violating_all,
            },
            "quantum": {
                "verified": report.passed,
                "max_deviation_a": report.max_deviation_a,
                "max_deviation_b": report.max_deviation_b,
                "constant_marginal_deviation": marginal_dev,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"classical search over {search.injection_count} injections ({dim} symbols into {dim * dim} pairs)")
        if search.violating_all:
            print("  no injection masks the permutations (every one leaks through a marginal)")
        else:
            print("  some injection masks the permutations (they do not differ)")
        print(f"quantum Fourier masker on {len(perm_channels) + len(random_channels)} classical channels: "
              f"{'verified' if report.passed else 'FAILED'}")
        print(f"  reduced-channel deviation: {max(report.max_deviation_a, report.max_deviation_b):.3e}")
        print(f"  distance of reduced channels from the constant channel onto 1/d: {marginal_dev:.3e}")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channelmask",
        description="Decide, synthesize, and verify isometric maskers for channel families.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="decision tolerance (default 1e-8)")
    common.add_argument("--verify-tol", dest="verify_tol", type=float, default=None,
                        help="verification tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=None, help="seed for randomized diagonalization")
    common.add_argument("--json", action="store_true", help="emit the report as JSON")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", parents=[common], help="decide maskability of a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("synthesize", parents=[common], help="synthesize a masker for a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("-o", "--out", required=True, help="path for the masker JSON file")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", parents=[common], help="verify a masker against a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("masker", help="path to a masker JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bloch", parents=[common], help="print the Bloch affine action of a qubit channel")
    p.add_argument("channel", help="path to a channel payload or family JSON file")
    p.set_defaults(func=cmd_bloch)

    p = sub.add_parser("demo-classical", parents=[common],
                       help="classical no-go search plus the quantum Fourier masker")
    p.add_argument("--dim", type=int, default=2, help="alphabet size (1-4)")
    p.add_argument("--perms", default=None,
                   help="semicolon-separated permutations, e.g. '0,1;1,0' (default: identity and cycle)")
    p.set_defaults(func=cmd_demo_classical)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
