"""Tests of the benchmark itself: generated answers hold, goldens replay, parsers work.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from bench import check_command, parse_importtime, tail
from gauge import Gauge
from pipeline import check_run, cli_in_process, run_family
from tracing import Tracer
from workloads import WORKLOADS, Command, golden_commands

ROOT = Path(__file__).resolve().parent.parent


def _families(name: str, seed: int):
    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    return workload, workload.group(rng, 0) + workload.group(rng, 1)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_expected_answers_hold(name, seed, tmp_path):
    workload, families = _families(name, seed)
    for i, family in enumerate(families):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(family.document))
        run = run_family(path, tmp_path / "masker.json", workload.through_verify)
        assert check_run(run, family.expected, workload.through_verify) == [], family.shape


def test_checks_catch_a_wrong_answer(tmp_path):
    _, families = _families("small_mixed", 0)
    family = families[0]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(family.document))
    run = run_family(path, tmp_path / "masker.json", True)
    wrong = type(family.expected)(not family.expected.maskable, family.expected.evidence)
    assert check_run(run, wrong, True)


def test_same_seed_same_files():
    docs = [[f.document for f in _families("small_mixed", 5)[1]] for _ in range(2)]
    assert json.dumps(docs[0]) == json.dumps(docs[1])


def test_goldens_replay_in_process(tmp_path):
    commands = golden_commands(ROOT / "samples")
    assert commands
    for cmd in commands:
        code, stdout = cli_in_process(cmd.argv, tmp_path)
        assert check_command(cmd, code, stdout, "") == [], cmd.argv


def test_check_command_compares_json_and_exit_codes():
    cmd = Command(("decide",), 0, expect={"verdict": "maskable"})
    assert check_command(cmd, 0, '{"verdict": "maskable"}', "") == []
    assert check_command(cmd, 0, '{"verdict": "not_maskable"}', "")
    assert check_command(cmd, 1, '{"verdict": "maskable"}', "")


def test_parse_importtime_counts_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |     numpy.core",
        "import time:        10 |         60 |   numpy",
        "import time:        30 |         30 |       numpy.testing",
        "import time:        20 |         50 |     scipy.linalg",
        "import time:         5 |         55 |   scipy",
        "import time:         5 |        120 | channelmask",
    ])
    parsed = parse_importtime(stderr)
    assert parsed == pytest.approx({"import.total_s": 120e-6, "import.numpy_s": 60e-6,
                                    "import.scipy_s": 55e-6})


def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 19) is None
    pct, value = tail([float(i) for i in range(100)])
    assert pct == 90 and value == pytest.approx(89.1)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.active = True
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    layers = tracer.layers()
    assert layers["outer"]["calls"] == 1
    assert layers["outer"]["self_s"] == pytest.approx(layers["outer"]["busy_s"] - layers["inner"]["busy_s"])


def test_gauge_scales_by_the_readings_around_a_measurement():
    readings = iter([1.0, 3.0, 5.0])
    gauge = Gauge(lambda: next(readings), 2.0)
    assert gauge.step() == pytest.approx(1.0)   # 2 * 2 / (1 + 3)
    assert gauge.step() == pytest.approx(0.5)   # 2 * 2 / (3 + 5)
    assert gauge.readings == [1.0, 3.0, 5.0]
