"""The three workloads: which families each generates and which CLI commands it times.

Each workload is a list of *groups*.  A group holds one family of every shape
the workload mixes, and timing stops only at a group boundary, so every run
measures the same mix of shapes whatever the seed or the machine speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import families as fam
from gauge import NUMPY_GAUGE, PYTHON_GAUGE

GOLDEN = Path(__file__).resolve().parent / "golden" / "samples.json"


@dataclass(frozen=True)
class Command:
    """One ``channelmask`` command line and what it must print.

    ``stdout`` is compared byte for byte when given; otherwise the ``--json``
    output must contain every key/value pair of ``expect``.
    """

    argv: tuple
    exit_code: int
    stdout: str | None = None
    expect: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    through_verify: bool
    groups: int
    group: Callable          # (rng, group index) -> list[Family]
    cli_families: Callable   # rng -> list[Family] written for the CLI script
    cli_script: Callable     # (samples dir, CLI family paths) -> list[Command]
    warmup: int              # leading families processed once before timing
    golden_sweep: bool = False  # replay every recorded CLI output on samples/ in process
    gauge: tuple = NUMPY_GAUGE  # (read, recorded seconds) that scales the in-process times


def golden_commands(samples: Path, keep=lambda entry: True) -> list[Command]:
    """The recorded CLI outputs on ``samples/``, in the order they were captured."""
    entries = json.loads(GOLDEN.read_text())
    return [
        Command(tuple(a.replace("{samples}", str(samples)) for a in e["argv"]), e["exit"], e["stdout"])
        for e in entries if keep(e)
    ]


def _pipeline_commands(path: Path, verdict: str, exit_code: int, synthesize: bool) -> list[Command]:
    cmds = [Command(("decide", "--json", str(path)), exit_code, expect={"verdict": verdict})]
    if synthesize:
        cmds.append(Command(("synthesize", "--json", str(path), "-o", "masker.json"), 0,
                            expect={"verdict": verdict, "masker_path": "masker.json"}))
        cmds.append(Command(("verify", "--json", str(path), "masker.json"), 0, expect={"passed": True}))
    return cmds


# -- verify_d16: verification of large maskable families --------------------------


def _verify_d16_group(rng, g: int) -> list:
    return [
        fam.gate_family(rng, 16, 4, True, degenerate=True),
        fam.depolarized_family(rng, 16, 4, True),
        fam.gate_family(rng, 12, 8, True, degenerate=True),
        fam.depolarized_family(rng, 12, 6, True),
        fam.gate_family(rng, 16, 3, True),
    ]


VERIFY_D16 = Workload(
    name="verify_d16",
    through_verify=True,
    groups=2,
    group=_verify_d16_group,
    cli_families=lambda rng: [fam.gate_family(rng, 16, 2, True)],
    cli_script=lambda samples, paths: _pipeline_commands(paths[0], "maskable", 0, True),
    warmup=1,
)


# -- decide_n32: parse and decide many 32-member gate families ---------------------


def _decide_n32_group(rng, g: int) -> list:
    # Seven families, so the median latency falls inside one shape's cluster
    # (a Haar d=16 family) instead of in the gap between two clusters.
    degenerate = g % 2 == 1
    return [
        fam.gate_family(rng, 4, 32, True, degenerate=degenerate),
        fam.gate_family(rng, 8, 32, True),
        fam.gate_family(rng, 8, 32, True, degenerate=True),
        fam.gate_family(rng, 16, 32, True, degenerate=degenerate),
        fam.gate_family(rng, 4, 32, False),
        fam.gate_family(rng, 8, 32, False),
        fam.gate_family(rng, 16, 32, False),
    ]


def _decide_n32_cli(samples, paths) -> list[Command]:
    verdicts = (("maskable", 0), ("not_maskable", 1), ("maskable", 0))
    return [c for p, (v, code) in zip(paths, verdicts) for c in _pipeline_commands(p, v, code, False)]


DECIDE_N32 = Workload(
    name="decide_n32",
    through_verify=False,
    groups=24,
    group=_decide_n32_group,
    cli_families=lambda rng: [
        fam.gate_family(rng, 16, 32, True),
        fam.gate_family(rng, 8, 32, False),
        fam.gate_family(rng, 4, 32, True, degenerate=True),
    ],
    cli_script=_decide_n32_cli,
    warmup=7,
)


# -- small_mixed: every family kind at d <= 4, start-up bound CLI ------------------


def _small_mixed_group(rng, g: int) -> list:
    d = 2 + g % 3
    return [
        fam.gate_family(rng, d, 3, True),
        fam.gate_family(rng, 4, 4, True, degenerate=True),
        fam.gate_family(rng, d, 3, False),
        fam.pauli_family(rng, 3, True),
        fam.pauli_family(rng, 3, False),
        fam.identity_pair_family(rng, "dephasing" if g % 2 == 0 else "rotation"),
        fam.identity_pair_family(rng, "damping"),
        fam.identity_pair_family(rng, "depolarizing"),
        fam.identity_family(rng, 3, "common"),
        fam.identity_family(rng, 2, "scattered"),
        fam.identity_family(rng, 3, "damping"),
        fam.depolarized_family(rng, d, 3, True),
        fam.depolarized_family(rng, 2, 3, False),
        fam.classical_family(rng, 3, d, d),
        fam.classical_family(rng, 2, 2, 4),
    ]


def _small_mixed_cli(samples, paths) -> list[Command]:
    def keep(entry) -> bool:
        argv = entry["argv"]
        if argv[0] == "demo-classical":
            return argv[1:] == ["--dim", "4"]
        return "--json" not in argv and argv[1] == "{samples}/gate_family.json"

    return golden_commands(samples, keep)


SMALL_MIXED = Workload(
    name="small_mixed",
    through_verify=True,
    groups=8,
    group=_small_mixed_group,
    cli_families=lambda rng: [],
    cli_script=_small_mixed_cli,
    warmup=15,
    golden_sweep=True,
    gauge=PYTHON_GAUGE,
)

WORKLOADS = {w.name: w for w in (VERIFY_D16, DECIDE_N32, SMALL_MIXED)}
