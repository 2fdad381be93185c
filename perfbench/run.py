"""Stage-by-stage benchmark of ``channelmask``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_d16 --seed 1 --seconds 10 --trace 0

The workload's families are generated from the seed and written as JSON
files; the program only reads those files.  One run

* times ``import channelmask`` in fresh interpreters (``setup_s``),
* times the workload's CLI script as subprocesses (``cli_s``),
* warms up, then pushes families through the in-process stages for
  ``--seconds`` (``families_per_s``, ``family_p50_s``, ``peak_rss_mb``),

and checks every verdict, witness, masker and CLI output against the answer
known from construction or the recorded golden output.  With ``--trace 1`` it
instead measures the layers: the import breakdown, and a traced pass over the
same families as an untraced one.  Human-readable lines go first; the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from environment import fix_blas_threads


def missing_inputs(root: Path) -> str | None:
    for needed in ("src/channelmask/__init__.py", "samples"):
        if not (root / needed).exists():
            return f"{needed} not found: run from the root of a channelmask checkout"
    return None


def main(argv=None) -> int:
    fix_blas_threads()  # before anything imports numpy
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    problem = missing_inputs(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import channelmask

    if Path(channelmask.__file__).resolve().parent != root / "src" / "channelmask":
        print(f"error: channelmask imported from {channelmask.__file__}, not this checkout", file=sys.stderr)
        return 2
    from bench import Bench, end_to_end, machine, per_layer  # uses the channelmask just checked

    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    notes = [f"machine: {machine()}",
             f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
    try:
        bench = Bench(WORKLOADS[args.workload], root, work, args.seed)
        start = time.perf_counter()
        bench.generate()
        notes.append(f"generate_s = {time.perf_counter() - start:.3f} s")
        if args.trace:
            trace_path = out / f"spans-{args.workload}-{args.seed}.json"
            metrics = per_layer(bench, args.seconds, notes, trace_path)
        else:
            metrics = end_to_end(bench, args.seconds, notes)
    finally:
        shutil.rmtree(work)

    tally = bench.tally
    failed_ops = len(tally.failures) / tally.attempted
    notes.append(f"failed_ops = {failed_ops:.6f} share ({len(tally.failures)} of {tally.attempted})")
    if args.trace:
        metrics["failed_ops"] = (failed_ops, "share")
    for line in notes:
        print(line)
    for problem in tally.failures[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
