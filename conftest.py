"""Set-up shared by every test directory.

Every test must leave the cyclic garbage collector on: the file readers pause it while they parse, and a
pause that leaked out of one would silently turn collection off for the rest of the run.

When a hypothesis test fails, the hypothesis pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` subclasses the deprecated
``mypy_extensions.TypedDict``.  Under ``filterwarnings = ["error"]`` that
``DeprecationWarning`` would end the whole run as an INTERNALERROR before the
failure is reported.  Imported here once with the warning ignored, the
plugin's import is a cache hit.

``load_family_file`` sends a family file to ``orjson`` once the process has read
``_ORJSON_MIN`` characters of family text, so every test starts from a count of
zero, as a fresh CLI process does, whichever tests ran before it; a test that
takes ``family_route`` runs once with every family file going to ``json`` and
once with every one going to ``orjson``.
"""

import gc
import math
import warnings

import pytest

from channelmask import cli

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # the plugin then skips the patch too
        pass


@pytest.fixture(autouse=True)
def _collector_left_on():
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the garbage collector disabled")


@pytest.fixture(autouse=True)
def _no_family_text_read(monkeypatch):
    monkeypatch.setattr(cli, "_family_text_read", 0)


@pytest.fixture(params=["json", "orjson"])
def family_route(request, monkeypatch):
    """The route of every family file the test reads: ``json``, with a count that no read brings to
    ``_ORJSON_MIN``, or ``orjson``, with the count already at it."""
    monkeypatch.setattr(cli, "_family_text_read", -math.inf if request.param == "json" else cli._ORJSON_MIN)
    return request.param
