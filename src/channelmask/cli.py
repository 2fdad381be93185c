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
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

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
    identity_channel,
    is_qubit,
    pure_fixed_points,
    random_classical_channel,
)
from .linalg import DECISION_TOL, VERIFY_TOL, BipartiteDims
from .masking import (
    Fourier,
    Masker,
    MaskingDecision,
    classical_no_go_search,
    fixed_points_to_json,
    matrix_to_json,
    vector_to_json,
)

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


def _read_json_object(path, what: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    _expect(isinstance(raw, dict), f"{what}: top level must be an object")
    return raw


# -- JSON <-> numbers and matrices ---------------------------------------------


def _number(value, where: str, integer: bool = False) -> float:
    """A JSON number as a finite float; booleans and numbers beyond float range are schema errors."""
    if isinstance(value, int if integer else (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise SchemaError(f"{where}: must be {'an integer' if integer else 'a number'} within float range")


def _complex_from_json(entry, where: str) -> complex:
    _expect(
        isinstance(entry, (list, tuple)) and len(entry) == 2,
        f"{where}: complex entries must be [re, im] number pairs",
    )
    return complex(_number(entry[0], where), _number(entry[1], where))


def _matrix_from_json(obj, where: str, real: bool = False) -> np.ndarray:
    """Complex matrix of ``[re, im]`` pairs, or a real one of plain numbers when ``real``."""
    _expect(isinstance(obj, list) and obj, f"{where}: must be a non-empty list of rows")
    rows = []
    for r, row in enumerate(obj):
        _expect(isinstance(row, list) and row, f"{where}: row {r} must be a non-empty list")
        _expect(len(row) == len(obj[0]), f"{where}: row {r} has {len(row)} entries, expected {len(obj[0])}")
        if real:
            rows.append([_number(v, f"{where}[{r}][{c}]") for c, v in enumerate(row)])
        else:
            rows.append([_complex_from_json(e, f"{where}[{r}][{c}]") for c, e in enumerate(row)])
    return np.array(rows, dtype=float if real else complex)


# -- channel payloads ------------------------------------------------------------


def channel_from_json(obj, where: str) -> ChannelSpec:
    _expect(isinstance(obj, dict), f"{where}: must be an object")
    payload_type = obj.get("type")
    try:
        if payload_type == "unitary":
            return Unitary(_matrix_from_json(obj.get("matrix"), f"{where}.matrix"))
        if payload_type == "kraus":
            ops = obj.get("ops")
            _expect(isinstance(ops, list) and ops, f"{where}.ops: must be a non-empty list")
            return KrausChannel(
                tuple(_matrix_from_json(op, f"{where}.ops[{i}]") for i, op in enumerate(ops))
            )
        if payload_type == "pauli":
            p = obj.get("p")
            _expect(isinstance(p, list) and len(p) == 4, f"{where}.p: must be a list of four probabilities")
            return PauliFourVector(*[_number(v, f"{where}.p[{k}]") for k, v in enumerate(p)])
        if payload_type == "classical":
            return ClassicalChannel(_matrix_from_json(obj.get("probs"), f"{where}.probs", real=True))
        if payload_type == "depolarized_unitary":
            p = _number(obj.get("p"), f"{where}.p")
            return DepolarizedUnitary(p, _matrix_from_json(obj.get("matrix"), f"{where}.matrix"))
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(
        f"{where}.type: must be one of unitary, kraus, pauli, classical, depolarized_unitary"
    )


# -- family kinds ------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyKind:
    """What one family kind requires of its members, and how it is decided and verified.

    ``rules`` pairs a test on the member tuple with the schema message shown
    when it fails; they are checked in order.  ``decide(members, tol, seed)``
    gives the verdict, whose certificate copies its rows from the same
    members, and ``channels(members)`` is the channel set that verification
    checks.
    """

    rules: tuple
    decide: Callable
    channels: Callable = list


def _holds(payload) -> Callable:
    return lambda members: all(isinstance(m, payload) for m in members)


def _share(key) -> Callable:
    return lambda members: len({key(m) for m in members}) == 1


def _decide_with_identity(members, tol, seed) -> MaskingDecision:
    return masking.decide_identity_family(members, tol)


def _with_identity(members) -> list:
    return [identity_channel(2), *members]


KINDS = {
    "gate": FamilyKind(
        rules=((_holds(Unitary), "gate families hold unitary payloads only"),
               (_share(lambda m: m.dim), "gate family members must share one dimension")),
        decide=masking.decide_gate_family,
    ),
    "pauli": FamilyKind(
        rules=((_holds(PauliFourVector), "pauli families hold pauli payloads only"),),
        decide=lambda ms, tol, seed: masking.decide_pauli_family(ms, tol),
    ),
    "identity_pair": FamilyKind(
        rules=((lambda ms: len(ms) == 1, "identity_pair files hold exactly one channel"),
               (lambda ms: is_qubit(ms[0]), "identity_pair channel must act on a qubit")),
        decide=_decide_with_identity,
        channels=_with_identity,
    ),
    "identity_family": FamilyKind(
        rules=((lambda ms: all(is_qubit(m) for m in ms), "identity_family channels must act on qubits"),),
        decide=_decide_with_identity,
        channels=_with_identity,
    ),
    "depolarized": FamilyKind(
        rules=((_holds(DepolarizedUnitary), "depolarized families hold depolarized_unitary payloads only"),
               (_share(lambda m: m.dim), "depolarized family members must share one dimension"),
               (masking.share_noise_level, masking.NOISE_LEVEL_RULE)),
        decide=masking.decide_depolarized_family,
    ),
    "classical": FamilyKind(
        rules=((_holds(ClassicalChannel), "classical families hold classical payloads only"),
               (_share(lambda m: (m.in_size, m.out_size)),
                "classical family members must share input and output alphabets")),
        decide=lambda ms, tol, seed: masking.decide_classical_family(ms),
    ),
}


# -- files ---------------------------------------------------------------------------


def _family_from_json(raw: dict) -> FamilyFile:
    _expect(raw.get("version") == "1", 'version: must be the string "1"')
    kind = raw.get("kind")
    _expect(kind in KINDS, f"kind: must be one of {', '.join(KINDS)}")
    members_raw = raw.get("members")
    _expect(isinstance(members_raw, list) and members_raw, "members: must be a non-empty list")
    members = tuple(channel_from_json(m, f"members[{i}]") for i, m in enumerate(members_raw))
    options = raw.get("options", {})
    _expect(isinstance(options, dict), "options: must be an object")
    for key, value in options.items():
        _expect(key in _OPTION_KEYS, f"options: unknown key {key!r}")
        _number(value, f"options.{key}")
    for rule, message in KINDS[kind].rules:
        _expect(rule(members), f"members: {message}")
    return FamilyFile("1", kind, members, dict(options))


def load_family_file(path) -> FamilyFile:
    return _family_from_json(_read_json_object(path, "family file"))


def load_masker_file(path) -> Masker:
    raw = _read_json_object(path, "masker file")
    _expect(raw.get("version") == "1", 'version: must be the string "1"')
    dims = raw.get("dims")
    _expect(isinstance(dims, dict), "dims: must be an object with integer dimA and dimB")
    for key in ("dimA", "dimB"):
        _number(dims.get(key), f"dims.{key}", integer=True)
    return Masker(_matrix_from_json(raw.get("matrix"), "matrix"), BipartiteDims(dims["dimA"], dims["dimB"]))


def save_masker_file(path, masker: Masker) -> None:
    payload = {
        "version": "1",
        "dims": {"dimA": masker.dims.dim_a, "dimB": masker.dims.dim_b},
        "matrix": matrix_to_json(masker.matrix),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- decision / synthesis ------------------------------------------------------------


def _resolve(flag_value, options: dict, key: str, default):
    """The flag, else the file option, else ``default``: a finite positive tolerance or a non-negative integer seed."""
    if flag_value is not None:
        value, where = flag_value, "--" + key.replace("_", "-")
    else:
        value, where = options.get(key, default), f"options.{key}"
    if key == "seed":
        _expect(isinstance(value, int) and value >= 0, f"{where}: must be a non-negative integer")
        return value
    _expect(math.isfinite(value) and value > 0, f"{where}: must be a finite positive number")
    return float(value)


def family_channels(family: FamilyFile) -> list[ChannelSpec]:
    """The channel family the file denotes (both identity kinds add the identity)."""
    return KINDS[family.kind].channels(family.members)


def decide_family(family: FamilyFile, tol: float, seed: int) -> MaskingDecision:
    return KINDS[family.kind].decide(family.members, tol, seed)


def synthesize_family_masker(family: FamilyFile, decision: MaskingDecision,
                             tol: float = DECISION_TOL) -> Masker:
    if not decision.maskable:
        raise ValueError("cannot synthesize a masker for a family that is not maskable")
    return masking.copy_masker(decision.certificate.copy_rows(family.members, tol))


# -- reports ----------------------------------------------------------------------


def decision_to_dict(decision: MaskingDecision) -> dict:
    out: dict = {"verdict": "maskable" if decision.maskable else "not_maskable"}
    if decision.certificate is not None:
        out["certificate"] = decision.certificate.to_json()
    if decision.witness is not None:
        out["witness"] = decision.witness.to_json()
    return out


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_decision(decision: MaskingDecision, as_json: bool) -> None:
    data = decision_to_dict(decision)
    if as_json:
        _print_json(data)
        return
    print(f"verdict: {data['verdict'].replace('_', ' ')}")
    for part in ("certificate", "witness"):
        if part not in data:
            continue
        fields = dict(data[part])
        print(f"{part}: {fields.pop('type')}")
        for key, value in fields.items():
            if key == "basis":
                print("  basis (rows):")
                for row in value:
                    print("    " + "  ".join(f"{re:+.6f}{im:+.6f}j" for re, im in row))
            else:
                print(f"  {key}: {value}")


def _print_report_text(report: verify.VerificationReport, heading: str) -> None:
    print(f"{heading}: {'PASS' if report.passed else 'FAIL'}")
    print(f"  deviation seen by A: {report.max_deviation_a:.3e}")
    print(f"  deviation seen by B: {report.max_deviation_b:.3e}")
    print(f"  worst pair: members {report.worst_pair[0]} and {report.worst_pair[1]}")
    print(f"  tolerance: {report.tol:g}")


# -- commands ----------------------------------------------------------------------


def _decide_file(args) -> tuple[FamilyFile, float, MaskingDecision]:
    family = load_family_file(args.family)
    tol = _resolve(args.tol, family.options, "tol", DECISION_TOL)
    seed = _resolve(args.seed, family.options, "seed", 0)
    return family, tol, decide_family(family, tol, seed)


def cmd_decide(args) -> int:
    _, _, decision = _decide_file(args)
    _print_decision(decision, args.json)
    return EXIT_OK if decision.maskable else EXIT_NEGATIVE


def cmd_synthesize(args) -> int:
    family, tol, decision = _decide_file(args)
    if not decision.maskable:
        _print_decision(decision, args.json)
        return EXIT_NEGATIVE
    masker = synthesize_family_masker(family, decision, tol)
    save_masker_file(args.out, masker)
    if args.json:
        payload = decision_to_dict(decision)
        payload["masker_path"] = str(args.out)
        payload["dims"] = {"dimA": masker.dims.dim_a, "dimB": masker.dims.dim_b}
        _print_json(payload)
    else:
        _print_decision(decision, False)
        print(f"masker written to {args.out} (dims {masker.dims.dim_a} x {masker.dims.dim_b})")
    return EXIT_OK


def cmd_verify(args) -> int:
    family = load_family_file(args.family)
    masker = load_masker_file(args.masker)
    tol = _resolve(args.verify_tol, family.options, "verify_tol", VERIFY_TOL)
    report = verify.verify_masking(masker, family_channels(family), tol)
    if args.json:
        _print_json(asdict(report))
    else:
        _print_report_text(report, "masking verification")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _load_single_channel(path) -> ChannelSpec:
    raw = _read_json_object(path, "channel file")
    if "type" in raw:
        return channel_from_json(raw, "channel")
    if "members" in raw:
        return _family_from_json(raw).members[0]
    raise SchemaError("channel file: expected a channel payload or a family file")


def cmd_bloch(args) -> int:
    spec = _load_single_channel(args.channel)
    aff = bloch_affine(spec)
    # the decider's rule: unital when the shift b of n -> A n + b is within the tolerance
    unital = bool(np.linalg.norm(aff.shift) <= DECISION_TOL)
    fixed = pure_fixed_points(spec, DECISION_TOL)
    if args.json:
        payload = {
            "matrix": [[float(v) for v in row] for row in aff.matrix],
            "shift": vector_to_json(aff.shift),
            "unital": unital,
            "fixed_points": fixed_points_to_json(fixed),
        }
        _print_json(payload)
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
    tol = _resolve(args.verify_tol, {}, "verify_tol", VERIFY_TOL)
    seed = _resolve(args.seed, {}, "seed", 0)

    search = classical_no_go_search(dim, perms)

    masker = masking.copy_masker(Fourier(dim).copy_rows())
    perm_channels = [ClassicalChannel(np.eye(dim)[:, list(p)]) for p in perms]
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
        _print_json(payload)
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

    def flag(*names, **options) -> argparse.ArgumentParser:
        # one parent parser per flag, so each command takes only the flags it reads
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
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("synthesize", parents=[tol, seed, as_json],
                       help="synthesize a masker for a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("-o", "--out", required=True, help="path for the masker JSON file")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", parents=[verify_tol, as_json], help="verify a masker against a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("masker", help="path to a masker JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bloch", parents=[as_json], help="print the Bloch affine action of a qubit channel")
    p.add_argument("channel", help="path to a channel payload or family JSON file")
    p.set_defaults(func=cmd_bloch)

    p = sub.add_parser("demo-classical", parents=[verify_tol, seed, as_json],
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
