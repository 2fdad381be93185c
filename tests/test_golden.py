"""The CLI's recorded outputs on ``samples/`` still come out byte for byte.

``perfbench/golden/samples.json`` lists commands (``decide``, ``synthesize``
and ``verify`` on every sample, as text and ``--json``, then
``demo-classical``) with their exit codes and stdout.  They are replayed in
order from one empty directory, since a ``verify`` reads the masker file the
``synthesize`` before it wrote.  They are replayed twice: with every family
file read by ``json``, and with every one read by ``orjson``.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from channelmask import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden" / "samples.json").read_text())


@pytest.fixture(scope="module", params=["json", "orjson"])
def replayed(request, tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    outputs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        mp.setattr(cli, "_family_text_read", -math.inf if request.param == "json" else cli._ORJSON_MIN)
        for entry in GOLDEN:
            argv = [a.replace("{samples}", str(ROOT / "samples")) for a in entry["argv"]]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            outputs.append((code, buffer.getvalue()))
    return outputs


@pytest.mark.parametrize("index", range(len(GOLDEN)), ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_golden_output(replayed, index):
    entry = GOLDEN[index]
    code, stdout = replayed[index]
    assert code == entry["exit"]
    assert stdout == entry["stdout"]
