"""Speed gauges: fixed work timed next to each end-to-end measurement.

The benchmark runs on shared machines whose speed drifts by 20-60% for
seconds to minutes at a time, which no run length averages out.  So every
end-to-end time is taken next to a gauge, a fixed piece of work that belongs
to the benchmark and not to the program, and reported scaled to the speed at
which the gauge took its recorded time:

    reported = measured * recorded / (mean of the gauge readings before and after)

A change to the program moves the reported time as much as the measured one;
a change of machine speed moves the measurement and the gauge together and
mostly cancels.  Each gauge is close in kind to the work it scales, because
a slow spell does not slow every kind of work alike:

* the start-up gauge, a fresh interpreter that imports numpy, scales
  ``import channelmask`` and the CLI commands (also fresh interpreters);
* the numpy gauge, a loop of the small complex-matrix products, Kronecker
  products, partial traces and eigenvalue solves that the stages make,
  scales the in-process families of workloads at d >= 8;
* the Python gauge, a loop of dictionary updates, scales the in-process
  families of workloads at d <= 4, where interpreter overhead dominates.

The recorded times are typical readings during runs on a 2-vCPU VM (Python 3.11.7, numpy
2.4.6, one BLAS thread); on another machine the scale is a constant factor
for every run, so comparisons between commits keep their meaning.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

START_RECORDED_S = 0.17
NUMPY_RECORDED_S = 0.006
PYTHON_RECORDED_S = 0.0045

# In the in-process loop the gauge is read after a family once this much
# time has passed since the last one, so that it costs ~5% of a run.
GAUGE_EVERY_S = 0.12

_rng = np.random.default_rng(20251010)
_U = np.linalg.qr(_rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16)))[0]
_EYE2 = np.eye(2)


def numpy_gauge_s() -> float:
    start = time.perf_counter()
    for k in range(60):
        x = np.zeros((16, 16), dtype=complex)
        x[k % 16, (k * 7) % 16] = 1
        y = _U @ x @ _U.conj().T
        z = np.kron(y, _EYE2).reshape(16, 2, 16, 2)
        np.trace(z, axis1=1, axis2=3)
        np.linalg.eigvalsh(y + y.conj().T)
    return time.perf_counter() - start


def python_gauge_s() -> float:
    start = time.perf_counter()
    counts: dict = {}
    for i in range(30000):
        key = i % 61
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def start_gauge_s(cwd: Path, env: dict) -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if done.returncode:
        raise RuntimeError(f"start-up gauge failed: {done.stderr.strip()[-200:]}")
    return seconds


class Gauge:
    """Readings of one gauge, taken between measurements."""

    def __init__(self, read, recorded_s: float) -> None:
        self.read = read
        self.recorded_s = recorded_s
        self.readings = [read()]

    def step(self) -> float:
        """Read the gauge again; return the scale for what ran since the previous reading."""
        self.readings.append(self.read())
        return 2 * self.recorded_s / (self.readings[-2] + self.readings[-1])


NUMPY_GAUGE = (numpy_gauge_s, NUMPY_RECORDED_S)
PYTHON_GAUGE = (python_gauge_s, PYTHON_RECORDED_S)
