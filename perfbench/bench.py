"""Measurements of one benchmark run: set-up, CLI script, in-process stages, layers.

Imported by ``run.py`` once the BLAS thread variables are set and ``src/`` is
on the import path, because it imports numpy and ``channelmask``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from environment import BLAS_THREADS, BLAS_VARS, program_env, run_subprocess
from gauge import GAUGE_EVERY_S, START_RECORDED_S, Gauge, start_gauge_s
from pipeline import STAGES, check_run, cli_in_process, instrument, run_family
from tracing import Tracer
from workloads import golden_commands

# End-to-end runs go in rounds of two imports, one CLI pass and this share of
# --seconds of in-process work, so that start-up and in-process samples are
# spread over the whole run.
ROUND_SHARE = 1 / 10
IMPORTTIME_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

SPAN_LAYERS = (
    "cli.load_family_file",
    "cli.save_masker_file",
    "cli.load_masker_file",
    "masking.decide",
    "masking.synthesize",
    "masking.classical_no_go_search",
    "linalg.simultaneous_eigenbasis",
    "verify.verify_masking",
    "verify.reduced_channel_choi",
)
COUNTED_CALLS = ("channels.apply", "linalg.partial_trace", "linalg.commutator_norm")
TOTALS = ("cli.family_bytes", "cli.masker_bytes", "masking.injections",
          "computed.channels.apply.calls", "computed.masking.injections", "computed.verify.bytes")


@dataclass
class Tally:
    """Operations attempted and the problems of those that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


@dataclass(frozen=True)
class Entry:
    path: Path
    expected: object


class Bench:
    def __init__(self, workload, root: Path, work: Path, seed: int) -> None:
        self.workload = workload
        self.root = root
        self.work = work
        self.seed = seed
        self.env = program_env(root)
        self.tally = Tally()
        self.masker_path = work / "masker.json"
        self.entries: list[Entry] = []
        self.cli_paths: list[Path] = []

    # -- inputs ------------------------------------------------------------------

    def generate(self) -> None:
        """Write the workload's families; only their paths and answers stay in memory."""
        stream = [self.seed, zlib.crc32(self.workload.name.encode())]
        out = self.work / "families"
        out.mkdir()

        def write(family, name: str) -> Path:
            path = out / name
            path.write_text(json.dumps(family.document))
            return path

        rng = np.random.default_rng(stream + [0])
        for g in range(self.workload.groups):
            for family in self.workload.group(rng, g):
                path = write(family, f"{len(self.entries):04d}-{family.shape}.json")
                self.entries.append(Entry(path, family.expected))
        rng = np.random.default_rng(stream + [1])
        for i, family in enumerate(self.workload.cli_families(rng)):
            self.cli_paths.append(write(family, f"cli{i}-{family.shape}.json"))

    @property
    def group_size(self) -> int:
        return len(self.entries) // self.workload.groups

    # -- set-up and CLI ----------------------------------------------------------

    def _import_once(self, *flags: str) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *flags, "-c", "import channelmask"], cwd=self.work,
                              env=self.env, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - start
        self.tally.record("import channelmask", [done.stderr.strip()] if done.returncode else [])
        return seconds, done

    def import_seconds(self) -> float:
        return self._import_once()[0]

    def import_breakdown(self) -> dict:
        samples = [parse_importtime(self._import_once("-X", "importtime")[1].stderr)
                   for _ in range(IMPORTTIME_REPEATS)]
        return {key: statistics.median(s[key] for s in samples) for key in samples[0]}

    def cli_script_seconds(self, gauge=None) -> tuple[float, float, int]:
        """Wall time of one pass of the workload's CLI script, the same with each
        command scaled by the start-up ``gauge`` read around it, and the command count."""
        script = self.workload.cli_script(self.root / "samples", self.cli_paths)
        cwd = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work))
        seconds = scaled = 0.0
        for cmd in script:
            start = time.perf_counter()
            done = run_subprocess(cmd.argv, cwd, self.env)
            took = time.perf_counter() - start
            seconds += took
            scaled += took * gauge.step() if gauge else took
            self.tally.record("channelmask " + " ".join(cmd.argv),
                              check_command(cmd, done.returncode, done.stdout, done.stderr))
        return seconds, scaled, len(script)

    def golden_sweep(self) -> None:
        """Replay every recorded CLI output on samples/ in process and compare it."""
        cwd = Path(tempfile.mkdtemp(prefix="golden-", dir=self.work))
        for cmd in golden_commands(self.root / "samples"):
            code, stdout = cli_in_process(cmd.argv, cwd)
            self.tally.record("golden " + " ".join(cmd.argv), check_command(cmd, code, stdout, ""))

    # -- in-process stages -------------------------------------------------------

    def process(self, index: int, tracer=None) -> dict:
        """Run and check one family; return only its stage seconds, so that
        nothing the program built outlives the family."""
        entry = self.entries[index % len(self.entries)]
        if tracer is None:
            run = run_family(entry.path, self.masker_path, self.workload.through_verify)
        else:
            tracer.family = f"f{index}"
            tracer.active = True
            root = tracer.open("pipeline.family")
            run = run_family(entry.path, self.masker_path, self.workload.through_verify)
            tracer.close(root)
            tracer.active = False
        self.tally.record(entry.path.name, check_run(run, entry.expected, self.workload.through_verify))
        return run.stage_s

    def warm_up(self) -> float:
        start = time.perf_counter()
        for index in range(self.workload.warmup):
            self.process(index)
        return time.perf_counter() - start

    def timed_loop(self, seconds: float, first: int = 0) -> tuple[list, list]:
        """Process families from index ``first`` until ``seconds`` have passed at a group boundary.

        Returns each family's stage seconds and its speed scale from the
        workload's in-process gauge read before and after it (see ``gauge``).
        """
        runs, scales = [], []
        gauge, pending = Gauge(*self.workload.gauge), 0
        start = since = time.perf_counter()
        while True:
            runs.append(self.process(first + len(runs)))
            pending += 1
            now = time.perf_counter()
            done = (first + len(runs)) % self.group_size == 0 and now - start >= seconds
            if done or now - since >= GAUGE_EVERY_S:
                scales += [gauge.step()] * pending
                pending, since = 0, time.perf_counter()
            if done:
                return runs, scales


# -- helpers ------------------------------------------------------------------------


def check_command(cmd, code: int, stdout: str, stderr: str) -> list:
    if code != cmd.exit_code:
        return [f"exit code {code}, expected {cmd.exit_code} ({stderr.strip()[-200:]})"]
    if cmd.stdout is not None:
        return [] if stdout == cmd.stdout else ["stdout differs from the golden output"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON ({exc})"]
    return [f"{key}={report.get(key)!r}, expected {value!r}"
            for key, value in cmd.expect.items() if report.get(key) != value]


def parse_importtime(stderr: str) -> dict:
    """``import.*`` seconds from ``python -X importtime`` output.

    Lines come in post-order with two spaces of indent per level; a package's
    time is the cumulative time of its outermost entries.
    """
    stack: list = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, raw = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop())
        stack.append((depth, name, int(cumulative) / 1e6, children))

    def matches(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    def outermost(nodes, package: str, skip: str = "") -> float:
        total = 0.0
        for _, name, seconds, children in nodes:
            if matches(name, package):
                total += seconds
            elif not (skip and matches(name, skip)):
                total += outermost(children, package, skip)
        return total

    # numpy modules that scipy pulls in are counted as scipy's, so the
    # two parts do not overlap and both lie within the channelmask import.
    top = [node for node in stack if node[1] == "channelmask"]
    inside = [child for node in top for child in node[3]]
    return {
        "import.total_s": sum(node[2] for node in top),
        "import.numpy_s": outermost(inside, "numpy", skip="scipy"),
        "import.scipy_s": outermost(inside, "scipy"),
    }


def tail(latencies: list) -> tuple:
    """Highest listed percentile with at least ten samples beyond it, or None."""
    n = len(latencies)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return None


def stage_medians(runs: list) -> dict:
    out = {}
    for stage in STAGES:
        values = [run[stage] for run in runs if stage in run]
        if values:
            out[stage] = statistics.median(values)
    return out


def machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas_threads={BLAS_THREADS} ({', '.join(BLAS_VARS)})")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run ---------------------------------------------------------------


def end_to_end(bench: Bench, seconds: float, notes: list) -> dict:
    """End-to-end metrics; every time is scaled by the gauge read around it (see ``gauge``).

    Each round imports the package, runs the CLI script and imports again, with
    the start-up gauge read between any two of these, then processes families
    for a share of ``--seconds``.  Set-up and CLI times are medians over the
    rounds; the family metrics are taken over every family of the run.
    """
    bench.import_seconds()  # untimed: writes the bytecode caches of a fresh checkout
    notes.append(f"warmup_s = {bench.warm_up():.4f} s")
    imports, scripts, runs, latencies, scales, readings = [], [], [], [], [], []
    raw = {"setup_s": [], "cli_s": []}

    def timed_import(gauge: Gauge) -> None:
        took = bench.import_seconds()
        imports.append(took * gauge.step())
        raw["setup_s"].append(took)

    start = time.perf_counter()
    while True:
        gauge = Gauge(lambda: start_gauge_s(bench.work, bench.env), START_RECORDED_S)
        timed_import(gauge)
        took, scaled, _ = bench.cli_script_seconds(gauge)
        scripts.append(scaled)
        raw["cli_s"].append(took)
        timed_import(gauge)
        readings += gauge.readings
        batch, batch_scales = bench.timed_loop(seconds * ROUND_SHARE, len(runs))
        runs += batch
        scales += batch_scales
        latencies += [sum(run.values()) * f for run, f in zip(batch, batch_scales)]
        notes.append(f"round {len(scripts)}: import {imports[-2]:.4f} {imports[-1]:.4f} s, "
                     f"cli {scripts[-1]:.4f} s, {len(batch)} families in {sum(latencies[-len(batch):]):.4f} s "
                     f"(gauge scales {START_RECORDED_S / statistics.median(gauge.readings):.3f} start-up, "
                     f"{statistics.median(batch_scales):.3f} in-process)")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(scripts) / 2 >= seconds:  # less than half a round is left
            break
    if bench.workload.golden_sweep:
        bench.golden_sweep()
    measured = [sum(run.values()) for run in runs]
    notes.append(f"families = {len(runs)} count over {sum(latencies):.3f} s scaled, {sum(measured):.3f} s measured")
    found = tail(latencies)
    notes.append(f"family_p{found[0]:g}_s = {found[1]:.6f} s ({len(runs)} samples)" if found
                 else f"family tail: fewer than 20 samples ({len(runs)})")
    for stage, value in stage_medians(runs).items():
        notes.append(f"stage.{stage}.p50_s = {value:.6f} s measured")
    notes.append(f"gauge medians: start-up {statistics.median(readings):.4f} s "
                 f"(recorded {START_RECORDED_S}), in-process scale {statistics.median(scales):.4f}")
    notes.append(f"measured: setup_s = {statistics.median(raw['setup_s']):.6g}, "
                 f"cli_s = {statistics.median(raw['cli_s']):.6g}, "
                 f"families_per_s = {len(measured) / sum(measured):.6g}, "
                 f"family_p50_s = {statistics.median(measured):.6g}")
    return {
        "setup_s": (statistics.median(imports), "s"),
        "cli_s": (statistics.median(scripts), "s"),
        "families_per_s": (len(latencies) / sum(latencies), "1/s"),
        "family_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(bench: Bench, seconds: float, notes: list, trace_path: Path) -> dict:
    metrics = {key: (value, "s") for key, value in bench.import_breakdown().items()}
    script_s, _, commands = bench.cli_script_seconds()
    metrics["cli.script_s"] = (script_s, "s")
    notes.append(f"cli.commands = {commands} count")
    metrics["cli.import_share"] = (commands * metrics["import.total_s"][0] / script_s, "ratio")
    metrics["warmup_s"] = (bench.warm_up(), "s")

    # The families of an untraced loop are run again, each one untraced and
    # then traced back to back, so the overhead compares identical work.
    count = len(bench.timed_loop(seconds / 4)[0])
    tracer = Tracer()
    instrument(tracer)
    untraced, traced = [], []
    try:
        for index in range(count):
            untraced.append(bench.process(index))
            traced.append(bench.process(index, tracer))
        family_layers = tracer.layers()
        if bench.workload.golden_sweep:
            tracer.family = "golden"
            tracer.active = True
            bench.golden_sweep()
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(trace_path)
    notes.append(f"spans written to {trace_path.relative_to(bench.root)}")

    layers = tracer.layers()
    for name in SPAN_LAYERS:
        layer = layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.busy_s"] = (layer["busy_s"], "s")
        metrics[f"{name}.self_s"] = (layer["self_s"], "s")
        metrics[f"{name}.errors"] = (layer["errors"], "count")
    for name in COUNTED_CALLS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in TOTALS:
        metrics[name] = (tracer.totals[name], "count" if "bytes" not in name else "bytes")
    decisions = tracer.totals["masking.decisions"]
    metrics["masking.maskable_ratio"] = (tracer.totals["masking.maskable"] / max(decisions, 1), "ratio")

    in_process = family_layers["pipeline.family"]["busy_s"]
    verify_self = sum(v["self_s"] for k, v in family_layers.items() if k.startswith("verify."))
    metrics["verify.self_share"] = (verify_self / in_process, "ratio")
    untraced_s = sum(sum(run.values()) for run in untraced)
    traced_s = sum(sum(run.values()) for run in traced)
    metrics["pipeline.families"] = (len(traced), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return metrics
