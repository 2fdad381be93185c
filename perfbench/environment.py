"""How the benchmark starts ``channelmask`` processes: environment and command line."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

# BLAS threads for the benchmark and every program it starts: one thread keeps
# d <= 16 timings steady on a shared machine and is within nproc everywhere.
# The variables must be set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fix_blas_threads() -> None:
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})


def program_env(root: Path) -> dict:
    """Environment for a ``channelmask`` process built from the checkout at ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def run_subprocess(argv, cwd: Path, env: dict) -> subprocess.CompletedProcess:
    """Run ``channelmask <argv>`` as a user would, from ``cwd``."""
    return subprocess.run([sys.executable, "-m", "channelmask.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=150)
