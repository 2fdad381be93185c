"""Command-line front end.

Commands
--------
``decide``          read a channel-family file, print the maskability verdict
``synthesize``      build a masker for a maskable family and write it to disk
``verify``          check a masker file against a family file
``bloch``           print the Bloch affine action of a qubit channel
``demo-classical``  exhaustive classical no-go search plus the quantum masker

Family and masker files are JSON with complex scalars as ``[re, im]`` pairs
and matrices in row-major order.  Masker files are always written in the
layout of ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.  A
masker file in that layout is read row by row, each nonzero row parsed on its
own by ``json``; any other text goes through ``json`` as a whole, with the
same results and messages.
Families of only unitary or only depolarized_unitary members are read as one
stack.  A family file of at least 256 KiB is parsed by ``orjson`` where its
reading cannot differ from ``json``'s, and by ``json`` otherwise.  Every file
is read with the cyclic garbage collector paused until the parsed document has
been freed; a collector that was off stays off.  Exit
codes: 0 for a positive verdict or a passing verification, 1 for a definitive
negative, 2 for input errors, 141 when the reader closes stdout before the
output is written.  A command's process ends through
:func:`run`, which freezes the garbage collector once the command has run, so
the interpreter's shutdown collections skip the objects numpy and the package
made; those are still freed, stdout is still flushed and ``atexit`` still runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import stat
import sys
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
    _gates,
    _pure_fixed_points,
    bloch_affine,
    identity_channel,
    random_classical_channel,
)
from .linalg import DECISION_TOL, VERIFY_TOL, BipartiteDims, record
from .masking import (
    Fourier,
    Masker,
    MaskingDecision,
    classical_no_go_search,
    fixed_points_to_json,
    vector_to_json,
)

_OPTION_KEYS = ("tol", "verify_tol", "seed")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_BROKEN_PIPE = 128 + 13  # SIGPIPE


class SchemaError(ValueError):
    """A file violates the schema; the message names the failed rule."""


@record
class FamilyFile:
    kind: str
    members: tuple
    options: dict


def _expect(condition: bool, rule: str) -> None:
    if not condition:
        raise SchemaError(rule)


def _collector_paused(read: Callable) -> Callable:
    """``read`` with the cyclic garbage collector off until it returns.

    A parsed file is a tree of thousands of lists that all live until the reader has built its arrays,
    so a collection during the read frees none of them; it only walks them and moves them into older
    generations, which brings on full collections.  ``read`` returns only what it built, so its
    document is freed by reference counting before the collector is turned back on.  A collector that
    was off at entry stays off, so nested reads and callers that manage it themselves are unaffected.
    """
    @functools.wraps(read)
    def paused(path):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return read(path)
        finally:
            if enabled:
                gc.enable()
    return paused


def _not_json(path, exc: Exception) -> SchemaError:
    return SchemaError(f"{path}: not valid JSON ({exc})")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except ValueError as exc:  # UnicodeDecodeError: bytes that are not text
        raise _not_json(path, exc) from exc


# What json.loads raises on text that is not a JSON document: JSONDecodeError and the ValueError of an
# integer over Python's digit limit, or RecursionError for arrays or objects nested too deep.
_JSON_ERRORS = (ValueError, RecursionError)


def _read_json_object(path, what: str, text: str | None = None) -> dict:
    text = _read_text(path) if text is None else text
    try:
        raw = json.loads(text)
    except _JSON_ERRORS as exc:
        raise _not_json(path, exc) from exc
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
    """Complex matrix of ``[re, im]`` pairs, or a real one of plain numbers when ``real``.

    A well-formed matrix is read by :func:`_stack_from_json`; anything else (a wrong type, a number beyond
    float range, ``NaN``, a ragged row, a malformed pair) is read again entry by entry, which raises the
    schema message that names the field.
    """
    stack = _stack_from_json([obj], real)
    return _matrix_entry_by_entry(obj, where, real) if stack is None else stack[0]


def _stack_from_json(objs: list, real: bool = False) -> np.ndarray | None:
    """Matrices of one shape as one ``(n, rows, cols)`` array, or ``None`` if any is not well formed: one
    walk flattens the rows, unpacking each pair, then one type scan of the flat entries (``int`` or
    ``float``, never ``bool``), a check of the row lengths and one ``np.array`` read them all."""
    try:
        rows = [row for obj in objs for row in obj]
        if real:
            flat = [v for row in rows for v in row]
        else:
            flat = [v for row in rows for re, im in row for v in (re, im)]
        shape = (len(objs), len(objs[0]), len(objs[0][0]))
        if ({*map(type, flat)} <= {int, float} and shape[2] and all(len(obj) == shape[1] for obj in objs)
                and all(len(row) == shape[2] for row in rows)):
            arr = np.array(flat, dtype=float)
            if np.isfinite(arr).all():
                return (arr if real else arr.view(complex)).reshape(shape)
    except (TypeError, ValueError, OverflowError, IndexError, KeyError):
        pass
    return None


def _matrix_entry_by_entry(obj, where: str, real: bool) -> np.ndarray:
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


def _gates_from_json(members_raw: list) -> tuple | None:
    """The members of a family of only ``unitary`` or only ``depolarized_unitary`` payloads with square
    matrices of one shape, read as one stack; ``None`` for any other family, or for one that the read
    member by member refuses, which then raises its message for the first bad member."""
    try:
        payload_type = members_raw[0]["type"]
        if payload_type not in ("unitary", "depolarized_unitary") or any(m["type"] != payload_type
                                                                         for m in members_raw):
            return None
        stack = _stack_from_json([m["matrix"] for m in members_raw])
        ps = [m["p"] for m in members_raw] if payload_type == "depolarized_unitary" else []
        if stack is None or stack.shape[1] != stack.shape[2] or not {*map(type, ps)} <= {int, float}:
            return None
        return _gates(stack, [*map(float, ps)] if ps else None)
    except (TypeError, OverflowError, IndexError, KeyError):
        return None


# -- family kinds ------------------------------------------------------------------


@record
class FamilyKind:
    """How one family kind's members are checked, decided and verified.

    ``rule(members)`` is the kind's member rule, the one its decider calls
    (:mod:`masking` holds each; identity_pair files add that they hold
    exactly one channel); it raises ``ValueError`` with its message.
    ``decide(members, tol, seed)`` gives the verdict, whose certificate
    copies its rows from the same members, and ``channels(members)`` is the
    channel set that verification checks.
    """

    rule: Callable
    decide: Callable
    channels: Callable = list


def _one_qubit_channel(members) -> list:
    if len(members) != 1:
        raise ValueError("identity_pair files hold exactly one channel")
    return masking.qubit_members(members)


def _decide_with_identity(members, tol, seed) -> MaskingDecision:
    return masking.decide_identity_family(members, tol)


def _with_identity(members) -> list:
    return [identity_channel(2), *members]


KINDS = {
    "gate": FamilyKind(masking.gate_members, masking.decide_gate_family),
    "pauli": FamilyKind(masking.pauli_members, lambda ms, tol, seed: masking.decide_pauli_family(ms, tol)),
    "identity_pair": FamilyKind(_one_qubit_channel, _decide_with_identity, _with_identity),
    "identity_family": FamilyKind(masking.qubit_members, _decide_with_identity, _with_identity),
    "depolarized": FamilyKind(masking.depolarized_members, masking.decide_depolarized_family),
    "classical": FamilyKind(masking.classical_members, lambda ms, tol, seed: masking.decide_classical_family(ms)),
}


# -- files ---------------------------------------------------------------------------


def _family_from_json(raw: dict) -> FamilyFile:
    _expect(raw.get("version") == "1", 'version: must be the string "1"')
    kind = raw.get("kind")
    _expect(isinstance(kind, str) and kind in KINDS, f"kind: must be one of {', '.join(KINDS)}")
    members_raw = raw.get("members")
    _expect(isinstance(members_raw, list) and members_raw, "members: must be a non-empty list")
    members = _gates_from_json(members_raw) or tuple(
        channel_from_json(m, f"members[{i}]") for i, m in enumerate(members_raw))
    options = raw.get("options", {})
    _expect(isinstance(options, dict), "options: must be an object")
    for key, value in options.items():
        _expect(key in _OPTION_KEYS, f"options: unknown key {key!r}")
        _number(value, f"options.{key}")
    try:
        KINDS[kind].rule(members)
    except ValueError as exc:
        raise SchemaError(f"members: {exc}") from exc
    return FamilyFile(kind, members, dict(options))


# Family texts of at least this many characters go to orjson: its import, about 3.3 ms after this module's,
# costs about what it saves on one such parse, so smaller files and start-up never import it.
_ORJSON_MIN = 256 * 1024
# every byte but those that quote, open or close a JSON value, or start an escape
_NOT_STRUCTURE = bytes(b for b in range(256) if b not in b'"[]{}\\')


def _family_by_orjson(text: str) -> FamilyFile | None:
    """The family that ``orjson`` reads from ``text``, or ``None`` where ``json``'s reading might differ.

    ``orjson`` 3.8 has no depth limit and overflows the C stack on a few hundred thousand nested brackets,
    where ``json`` raises ``RecursionError``.  So only text without escapes is parsed, and only if its
    brackets outside strings nest at most eight deep (a family file nests six or seven), never more than
    sixteen.  ``orjson`` refuses ``NaN``, ``Infinity``, numbers beyond float range and a byte order mark,
    which ``json`` reads or refuses with its own message; every refusal, by ``orjson`` or by
    :func:`_family_from_json`, returns ``None``, so ``json`` gives the result or the message.  ``orjson``
    reads an integer outside ``[-2**63, 2**64)`` as a float, which ``json`` reads as an ``int``; only an
    option keeps a number as parsed, so an option that may be such a float returns ``None`` too.
    """
    skeleton = text.encode().translate(None, _NOT_STRUCTURE)
    if b"\\" in skeleton:
        return None
    skeleton = b"".join(skeleton.split(b'"')[::2])  # with no escapes, every other quote ends a string
    # each pass takes every innermost pair, so at least one and at most two levels off every nest
    for _ in range(8):
        skeleton = skeleton.replace(b"[]", b"").replace(b"{}", b"")
    if skeleton:
        return None
    import orjson
    try:
        raw = orjson.loads(text)
        family = _family_from_json(raw) if isinstance(raw, dict) else None
    except ValueError:  # orjson.JSONDecodeError or SchemaError
        return None
    if family is None or any(isinstance(v, float) and abs(v) >= 2.0**63 for v in family.options.values()):
        return None
    return family


@_collector_paused
def load_family_file(path) -> FamilyFile:
    text = _read_text(path)
    family = _family_by_orjson(text) if len(text) >= _ORJSON_MIN else None
    return _family_from_json(_read_json_object(path, "family file", text)) if family is None else family


_MASKER_HEAD = '{\n  "dims": {\n    "dimA": %s,\n    "dimB": %s\n  },\n  "matrix": [\n    [\n'
_MASKER_TAIL = '\n    ]\n  ],\n  "version": "1"\n}\n'
_ROW_SEP = "\n    ],\n    [\n"
# the writer's head, dims as json writes 1 to 999999999
_LAYOUT_HEAD = re.compile(re.escape(_MASKER_HEAD).replace("%s", "([1-9][0-9]{0,8})"))
# one matrix entry, [re, im], as the masker layout writes it
_PAIR = "      [\n        %r,\n        %r\n      ]"


def _zero_row(cols: int) -> str:
    """The row of ``cols`` entries whose every number has the bits of ``+0.0``."""
    return ",\n".join([_PAIR % (0.0, 0.0)] * cols)


def _masker_rows(m: np.ndarray) -> list[str]:
    """Each row of ``m`` as the masker layout writes it: each number on its own line, each float as
    ``float.__repr__`` writes it, as ``json`` does; a row whose entries all have the bits of ``+0.0``
    (so not ``-0.0``) is one constant string, and only the other rows are formatted."""
    template = ",\n".join([_PAIR] * m.shape[1])
    rows = [_zero_row(m.shape[1])] * m.shape[0]
    nonzero = np.flatnonzero(np.ascontiguousarray(m).view(np.uint64).any(axis=1))
    for k, values in zip(nonzero.tolist(), m[nonzero].view(float).tolist()):
        rows[k] = template % tuple(values)
    return rows


def _masker_from_layout(text: str) -> tuple[np.ndarray, BipartiteDims] | None:
    """``(matrix, dims)`` if ``text`` is the writer's layout, else ``None``.

    The rows, separated by ``_ROW_SEP``, are read in place: a row equal to the all-``+0.0`` row stays
    zero; every other row is parsed on its own by ``json``, so no row's brackets close another's, and
    :func:`_stack_from_json` reads them all as it reads every matrix.  Anything either refuses, or no
    columns, is left to the whole-file ``json`` reader and its messages; :class:`Masker` checks the rows."""
    head = _LAYOUT_HEAD.match(text)
    if head is None or not text.endswith(_MASKER_TAIL):
        return None
    pos, end = head.end(), len(text) - len(_MASKER_TAIL)
    first = text.find(_ROW_SEP, pos, end)
    cols = text.count("[", pos, end if first < 0 else first)
    if not cols:
        return None
    zero = unit = None  # a zero row longer than the rows' span is none of them, so it is not built
    if cols * len(_PAIR % (0.0, 0.0)) + 2 * (cols - 1) <= end - pos:
        zero = _zero_row(cols)
        unit = zero + _ROW_SEP  # no separator starts inside the zero row, so this is a zero row, not the last
    count, nonzero, rows = 0, [], []  # rows seen; index and entries of each nonzero row
    while True:
        if unit and text.startswith(unit, pos, end):
            pos += len(unit)
            count += 1
            continue
        stop = text.find(_ROW_SEP, pos, end)
        row = text[pos:end if stop < 0 else stop]
        if row != zero:
            try:
                rows.append(json.loads("[" + row + "]"))
            except _JSON_ERRORS:
                return None
            nonzero.append(count)
        count += 1
        if stop < 0:
            break
        pos = stop + len(_ROW_SEP)
    stack = _stack_from_json([rows])
    if stack is None or stack.shape[2] != cols:
        return None
    matrix = np.zeros((count, cols), dtype=complex)
    matrix[nonzero] = stack[0]
    return matrix, BipartiteDims(int(head[1]), int(head[2]))


@_collector_paused
def load_masker_file(path) -> Masker:
    """Read a masker file; the writer's layout is read row by row, any other text through ``json``."""
    text = _read_text(path)
    if (layout := _masker_from_layout(text)) is not None:
        return Masker(*layout)
    raw = _read_json_object(path, "masker file", text)
    _expect(raw.get("version") == "1", 'version: must be the string "1"')
    dims = raw.get("dims")
    _expect(isinstance(dims, dict), "dims: must be an object with integer dimA and dimB")
    for key in ("dimA", "dimB"):
        _number(dims.get(key), f"dims.{key}", integer=True)
    return Masker(_matrix_from_json(raw.get("matrix"), "matrix"), BipartiteDims(dims["dimA"], dims["dimB"]))


def save_masker_file(path, masker: Masker) -> None:
    """Write the bytes of ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, at array speed.

    An existing file is rewritten in place, not cut to zero first: its bytes are written over the old
    ones, then a regular file is cut to the new length.  A symlink is followed, and the file keeps its
    inode, owner and mode; a new file gets ``0o666`` less the umask.  Devices and pipes are written to
    as by ``open(path, "w")``.  The write is not atomic and not synced; if it fails, a regular file is
    left empty rather than holding new bytes followed by old ones.
    """
    m = masker.matrix
    # Masker refuses non-finite entries, so this holds unless the array was
    # changed in place; json would write NaN or Infinity, which is not JSON.
    if not np.isfinite(m).all():
        raise ValueError("masker matrix has non-finite entries")
    rows = _masker_rows(m)
    rows[0] = _MASKER_HEAD % (masker.dims.dim_a, masker.dims.dim_b) + rows[0]
    rows[-1] += _MASKER_TAIL
    data = _ROW_SEP.join(rows).encode()  # one join copies the text once
    fd = os.open(Path(path), os.O_WRONLY | os.O_CREAT, 0o666)  # Path.write_text without O_TRUNC
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular:
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


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
        _print_json({name: getattr(report, name) for name in report.__match_args__})
    else:
        _print_report_text(report, "masking verification")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


@_collector_paused
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
    unital = masking._unital(aff, DECISION_TOL)
    fixed = _pure_fixed_points(aff, DECISION_TOL)
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
        try:
            images = [int(v) for v in part.split(",")]
        except ValueError:  # an empty or non-integer image
            images = None
        if images is None or sorted(images) != list(range(dim)):
            raise SchemaError(f"perms: {part!r} is not a permutation of {dim} symbols")
        perms.append(tuple(images))
    return perms


def cmd_demo_classical(args) -> int:
    dim = args.dim
    if dim < 1 or dim > 4:
        raise SchemaError("dim: the exhaustive search supports 1 <= dim <= 4")
    if args.perms is not None:
        perms = _parse_perms(args.perms, dim)
    else:
        perms = [tuple(range(dim)), tuple((x + 1) % dim for x in range(dim))]
    tol = _resolve(args.verify_tol, {}, "verify_tol", VERIFY_TOL)
    seed = _resolve(args.seed, {}, "seed", 0)

    search = classical_no_go_search(dim, perms)

    perm_channels = [ClassicalChannel(np.eye(dim)[:, list(p)]) for p in perms]
    rng = np.random.default_rng(seed)
    random_channels = [random_classical_channel(dim, dim, rng) for _ in range(3)]
    channels = perm_channels + random_channels
    masker = masking.copy_masker(Fourier(dim).copy_rows(channels))
    # Both sides see each channel's copy blocks; the rest of a view is zero, as is 1/d's, so blocks give the distance.
    blocks, _ = verify._views(masker, channels)
    report = verify._report(blocks, blocks, tol)
    marginal_dev = max(float(np.linalg.norm(b - np.eye(dim) / dim)) for b in blocks)

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


# The options the commands share, as add_argument's arguments; each command adds the ones it reads.
_FLAGS = {
    "tol": (("--tol",), {"type": float, "default": None, "help": "decision tolerance (default 1e-8)"}),
    "verify_tol": (("--verify-tol",), {"dest": "verify_tol", "type": float, "default": None,
                                      "help": "verification tolerance (default 1e-9)"}),
    "seed": (("--seed",), {"type": int, "default": None, "help": "seed for randomized diagonalization"}),
    "json": (("--json",), {"action": "store_true", "help": "emit the report as JSON"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channelmask",
        description="Decide, synthesize, and verify isometric maskers for channel families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, flags: tuple, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in flags:
            names, options = _FLAGS[flag]
            p.add_argument(*names, **options)
        p.set_defaults(func=func)
        return p

    p = command("decide", cmd_decide, ("tol", "seed", "json"), "decide maskability of a family file")
    p.add_argument("family", help="path to a family JSON file")

    p = command("synthesize", cmd_synthesize, ("tol", "seed", "json"), "synthesize a masker for a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("-o", "--out", required=True, help="path for the masker JSON file")

    p = command("verify", cmd_verify, ("verify_tol", "json"), "verify a masker against a family file")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("masker", help="path to a masker JSON file")

    p = command("bloch", cmd_bloch, ("json",), "print the Bloch affine action of a qubit channel")
    p.add_argument("channel", help="path to a channel payload or family JSON file")

    p = command("demo-classical", cmd_demo_classical, ("verify_tol", "seed", "json"),
                "classical no-go search plus the quantum Fourier masker")
    p.add_argument("--dim", type=int, default=2, help="alphabet size (1-4)")
    p.add_argument("--perms", default=None,
                   help="semicolon-separated permutations, e.g. '0,1;1,0' (default: identity and cycle)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (``| head``): say nothing and end as a shell reports SIGPIPE.
        # Unwritten output stays buffered, so fd 1 goes to devnull for the interpreter's last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> int:
    """The process entry (the ``channelmask`` script and ``python -m channelmask.cli``): :func:`main`, then
    ``gc.freeze()``, so that the collections at shutdown do not walk every object of a process about to end.

    In a long-lived process call :func:`main`, which leaves the collector as it is.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
