"""Set-up shared by every test directory.

When a hypothesis test fails, the hypothesis pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` subclasses the deprecated
``mypy_extensions.TypedDict``.  Under ``filterwarnings = ["error"]`` that
``DeprecationWarning`` would end the whole run as an INTERNALERROR before the
failure is reported.  Imported here once with the warning ignored, the
plugin's import is a cache hit.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # the plugin then skips the patch too
        pass
