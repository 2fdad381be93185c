"""Record the CLI's stdout and exit codes on ``samples/`` as golden outputs.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/capture_golden.py

For every sample it runs ``decide``, ``synthesize`` and (when a masker was
written) ``verify``, each as text and as ``--json``, then ``demo-classical``
at dimensions 2 and 4.  The benchmark replays the list in order from an empty
directory and compares stdout byte for byte.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from environment import program_env, run_subprocess
from workloads import GOLDEN

FORMATS = ((), ("--json",))


def sample_commands(sample: str):
    for fmt in FORMATS:
        yield ("decide", *fmt, sample)
    for fmt in FORMATS:
        yield ("synthesize", *fmt, sample, "-o", "masker.json")
    for fmt in FORMATS:
        yield ("verify", *fmt, sample, "masker.json")


def main() -> int:
    root = Path.cwd()
    samples = root / "samples"
    if not (root / "src" / "channelmask").is_dir() or not samples.is_dir():
        print("run from the repository root", file=sys.stderr)
        return 2
    env = program_env(root)
    entries = []
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden-", dir=work) as tmp:
        for path in sorted(samples.glob("*.json")):
            for argv in sample_commands("{samples}/" + path.name):
                if argv[0] == "verify" and entries[-1]["exit"] != 0:
                    continue  # no masker was written for a family that is not maskable
                real = [a.replace("{samples}", str(samples)) for a in argv]
                done = run_subprocess(real, Path(tmp), env)
                entries.append({"argv": list(argv), "exit": done.returncode, "stdout": done.stdout})
        for dim in ("2", "4"):
            for fmt in FORMATS:
                argv = ("demo-classical", *fmt, "--dim", dim)
                done = run_subprocess(argv, Path(tmp), env)
                entries.append({"argv": list(argv), "exit": done.returncode, "stdout": done.stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} outputs written to {GOLDEN.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
