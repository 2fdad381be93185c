"""Set-up shared by every test directory.

Every test must leave the cyclic garbage collector on: the file readers pause it while they parse, and a
pause that leaked out of one would silently turn collection off for the rest of the run.

When a hypothesis test fails, the hypothesis pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` subclasses the deprecated
``mypy_extensions.TypedDict``.  Under ``filterwarnings = ["error"]`` that
``DeprecationWarning`` would end the whole run as an INTERNALERROR before the
failure is reported.  Imported here once with the warning ignored, the
plugin's import is a cache hit.
"""

import gc
import warnings

import pytest

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
